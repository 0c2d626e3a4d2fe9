//! End-to-end tests of the `anon-radio serve` session layer: the
//! `--stdin-stdout` protocol driven over in-memory streams, pinning
//! served results bit-identical to the one-shot CLI paths on the same
//! specs, plus deadline expiry, malformed-JSON replies, cache-hit
//! visibility, shutdown drain, and the TCP transport.

use anon_radio::cache::CacheConfig;
use anon_radio::campaign::{CampaignRunner, CampaignSpec, FamilySpec, Phase, TagStrategy};
use anon_radio::serve::{serve_session, serve_tcp, ServeOptions};
use radio_graph::{Configuration, Draw};
use radio_sim::{ModelKind, RunOpts};
use radio_util::json::Writer;
use radio_util::rng::derive;

fn serve(input: &str, opts: &ServeOptions) -> (Vec<String>, anon_radio::serve::SessionSummary) {
    let mut out: Vec<u8> = Vec::new();
    let summary = serve_session(input.as_bytes(), &mut out, opts);
    let text = String::from_utf8(out).expect("replies are UTF-8");
    (text.lines().map(str::to_string).collect(), summary)
}

/// Extracts `"name":<uint>` from a reply line.
fn field_u64(reply: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let start = reply
        .find(&key)
        .unwrap_or_else(|| panic!("{name} in {reply}"))
        + key.len();
    reply[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not a uint in {reply}"))
}

/// The exact configuration the serve layer draws for `family` on `n`
/// nodes with uniform tags — the `elect --family` derivation.
fn drawn_config(family: FamilySpec, n: usize, span: u64, seed: u64) -> Configuration {
    Draw {
        family,
        n,
        span,
        tags: TagStrategy::Uniform,
        graph_seed: derive(seed, "graph"),
        tag_seed: derive(seed, "tags"),
    }
    .configuration()
    .unwrap()
}

/// `family=path n=6 span=3 seed=42`, the spec most tests here serve.
fn drawn_path_config() -> Configuration {
    drawn_config(FamilySpec::Path, 6, 3, 42)
}

#[test]
fn elect_replies_are_bit_identical_to_the_one_shot_path() {
    // A size-pinned spec sent without "n" builds at its own node count.
    for (job, config) in [
        (
            "{\"op\":\"elect\",\"id\":1,\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}\n",
            drawn_path_config(),
        ),
        (
            "{\"op\":\"elect\",\"id\":1,\"family\":\"grid:10x10\",\"span\":3,\"seed\":42}\n",
            drawn_config("grid:10x10".parse().unwrap(), 100, 3, 42),
        ),
    ] {
        let (lines, summary) = serve(job, &ServeOptions::default());
        assert_eq!(summary.answered, 1);
        let reply = &lines[0];
        assert!(
            reply.starts_with("{\"ok\":true,\"id\":1,\"op\":\"elect\",\"feasible\":true"),
            "{reply}"
        );

        // One-shot reference: same derivation, same resident run path.
        let report = anon_radio::solve(&config)
            .expect("feasible")
            .run_in(
                &mut radio_sim::SimWorkspace::new(),
                &config,
                ModelKind::default(),
                RunOpts::default(),
            )
            .expect("elects");
        assert_eq!(field_u64(reply, "leader"), u64::from(report.leader));
        assert_eq!(field_u64(reply, "phases"), report.phases as u64);
        assert_eq!(field_u64(reply, "rounds_local"), report.rounds_local);
        assert_eq!(
            field_u64(reply, "completion_round"),
            report.completion_round
        );
        assert_eq!(field_u64(reply, "transmissions"), report.transmissions);
        assert_eq!(field_u64(reply, "rounds_stepped"), report.rounds_stepped);
        assert_eq!(field_u64(reply, "rounds_leapt"), report.rounds_leapt);
    }
}

#[test]
fn classify_replies_match_the_classifier_summary() {
    let (lines, _) = serve(
        "{\"op\":\"classify\",\"id\":5,\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}\n",
        &ServeOptions::default(),
    );
    let reply = &lines[0];
    let summary = radio_classifier::summarize(&drawn_path_config());
    assert!(reply.starts_with("{\"ok\":true,\"id\":5,\"op\":\"classify\""));
    assert_eq!(
        reply.contains("\"feasible\":true"),
        summary.feasible,
        "{reply}"
    );
    assert_eq!(field_u64(reply, "iterations"), summary.iterations as u64);
    assert_eq!(field_u64(reply, "classes"), u64::from(summary.num_classes));
    match summary.leader {
        Some(leader) => assert_eq!(field_u64(reply, "leader"), u64::from(leader)),
        None => assert!(reply.contains("\"leader\":null"), "{reply}"),
    }
    assert_eq!(field_u64(reply, "relabels"), summary.relabels);
}

#[test]
fn classify_jobs_answer_from_the_draws_cache_entry() {
    // elect, classify, elect of one draw on one worker: the first elect
    // stores the draw's entry, and the classify job and the second elect
    // both hit it.
    let elect = "{\"op\":\"elect\",\"id\":1,\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}";
    let classify =
        "{\"op\":\"classify\",\"id\":2,\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}";
    let (lines, _) = serve(
        &format!("{elect}\n{classify}\n{elect}\n"),
        &ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        },
    );
    assert_eq!(lines.len(), 3);
    assert!(
        lines[2].ends_with(",\"cache\":\"exact-hit\",\"cache_hits\":2,\"cache_misses\":1}"),
        "{}",
        lines[2]
    );
    // The reply carries no verdict: it is the reply an uncached session
    // gives, byte for byte.
    let (uncached, _) = serve(
        &format!("{classify}\n"),
        &ServeOptions {
            cache: CacheConfig::disabled(),
            ..ServeOptions::default()
        },
    );
    assert_eq!(lines[1], uncached[0]);
}

#[test]
fn a_classify_miss_stores_nothing() {
    // The classify job misses and stores no entry, so the elect job of
    // the same draw misses too; both lookups count.
    let (lines, _) = serve(
        "{\"op\":\"classify\",\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}\n\
         {\"op\":\"elect\",\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}\n",
        &ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        },
    );
    assert!(!lines[0].contains("cache"), "{}", lines[0]);
    assert!(
        lines[1].ends_with(",\"cache\":\"miss\",\"cache_hits\":0,\"cache_misses\":2}"),
        "{}",
        lines[1]
    );
}

#[test]
fn campaign_cell_rows_are_bit_identical_to_a_fresh_campaign() {
    let (lines, _) = serve(
        "{\"op\":\"campaign-cell\",\"id\":3,\"phase\":\"elect\",\"family\":\"path\",\
         \"n\":6,\"span\":3,\"model\":\"no-cd\",\"reps\":3,\"seed\":17}\n\
         {\"op\":\"campaign-cell\",\"id\":4,\"phase\":\"classify\",\"family\":\"star\",\
         \"n\":6,\"span\":3,\"reps\":3,\"seed\":17}\n",
        &ServeOptions::default(),
    );

    for (reply, phase) in lines.iter().zip([Phase::Elect, Phase::Classify]) {
        let spec = CampaignSpec {
            phase,
            families: vec![if phase == Phase::Elect {
                FamilySpec::Path
            } else {
                FamilySpec::Star
            }],
            tags: vec![TagStrategy::Uniform],
            sizes: vec![6],
            spans: vec![3],
            models: vec![ModelKind::NoCollisionDetection],
            reps: 3,
            seed: 17,
            opts: RunOpts::default(),
            cache: CacheConfig::default(),
            batch: anon_radio::campaign::BatchConfig::disabled(),
        };
        let mut runner = CampaignRunner::new(spec, 1);
        while runner.run_next_shard(1).is_some() {}
        let fresh = runner.jsonl_rows().remove(0);

        // Bit-identical up to the measured tail (wall clock, cache-counter
        // split, and memory high-water depend on the serving process).
        let served_row = reply
            .split("\"row\":")
            .nth(1)
            .unwrap_or_else(|| panic!("row in {reply}"));
        let strip = |row: &str| row.split(",\"wall_ns\"").next().unwrap().to_string();
        assert_eq!(strip(served_row), strip(&fresh), "phase {phase:?}");
    }
}

#[test]
fn repeated_jobs_hit_the_shared_schedule_cache() {
    let job = "{\"op\":\"elect\",\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}\n";
    // One worker so the second job reuses the first worker's shared cache
    // deterministically (the cache is process-wide either way).
    let (lines, _) = serve(
        &job.repeat(2),
        &ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        },
    );
    assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
    assert!(lines[1].contains("\"cache\":\"exact-hit\""), "{}", lines[1]);
    assert!(field_u64(&lines[1], "cache_hits") >= 1, "{}", lines[1]);
    // The cache only changes the tail: the election numbers agree.
    assert_eq!(
        field_u64(&lines[0], "rounds_local"),
        field_u64(&lines[1], "rounds_local")
    );
    assert_eq!(
        field_u64(&lines[0], "leader"),
        field_u64(&lines[1], "leader")
    );
}

#[test]
fn inline_jobs_are_cached_by_their_configuration() {
    // The drawn job's configuration, sent inline: the inline job is keyed
    // by its configuration's fingerprint and the drawn one by its draw, so
    // each misses once, and the repeated inline job hits.
    let drawn = "{\"op\":\"elect\",\"id\":1,\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}";
    let text = radio_graph::io::to_text(&drawn_path_config());
    let inline = Writer::default()
        .str("op", "elect")
        .u64("id", 1)
        .str("config", &text)
        .finish();
    let (lines, _) = serve(
        &format!("{inline}\n{inline}\n{drawn}\n"),
        &ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        },
    );
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"cache\":\"miss\""), "{}", lines[0]);
    assert!(lines[1].contains("\"cache\":\"exact-hit\""), "{}", lines[1]);
    assert!(lines[2].contains("\"cache\":\"miss\""), "{}", lines[2]);
    // Up to the cache fields, the three replies are the same election.
    let head = |reply: &str| reply.split(",\"cache\":").next().unwrap().to_string();
    assert_eq!(head(&lines[0]), head(&lines[2]));
    assert_eq!(head(&lines[1]), head(&lines[2]));
}

#[test]
fn uncached_sessions_report_cache_off() {
    let (lines, _) = serve(
        "{\"op\":\"elect\",\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}\n",
        &ServeOptions {
            cache: CacheConfig::disabled(),
            ..ServeOptions::default()
        },
    );
    assert!(lines[0].contains("\"cache\":\"off\""), "{}", lines[0]);
    assert!(!lines[0].contains("cache_hits"), "{}", lines[0]);
}

#[test]
fn deadline_expiry_is_a_structured_per_job_error() {
    let input = "{\"op\":\"elect\",\"id\":8,\"family\":\"path\",\"n\":6,\"span\":3,\
                 \"seed\":42,\"max_rounds\":1}\n\
                 {\"op\":\"elect\",\"id\":9,\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}\n";
    let (lines, summary) = serve(input, &ServeOptions::default());
    assert_eq!(summary.answered, 2, "a deadline never kills the session");
    assert!(
        lines[0].starts_with("{\"ok\":false,\"id\":8,\"error\":\"deadline\""),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("round limit 1 reached"), "{}", lines[0]);
    assert!(
        lines[1].starts_with("{\"ok\":true,\"id\":9"),
        "the next job still runs: {}",
        lines[1]
    );
}

#[test]
fn malformed_jobs_get_structured_errors_and_the_session_continues() {
    // The two oversize specs cannot fit a u32-offset CSR: rejected before
    // anything is allocated, so the daemon lives to answer the next job.
    // The maximal span runs into its round budget: a deadline, not a
    // panic.
    let input = "this is not json\n\
                 {\"op\":\"frobnicate\",\"id\":70}\n\
                 {\"op\":\"elect\",\"id\":71,\"family\":\"path\",\"bogus\":true}\n\
                 {\"op\":\"elect\",\"id\":72,\"family\":\"no-such-family\"}\n\
                 {\"op\":\"elect\",\"id\":74,\"family\":\"grid:100000x100000\",\
                  \"n\":10000000000}\n\
                 {\"op\":\"elect\",\"id\":75,\"family\":\"barbell:70000+0\",\"n\":140000}\n\
                 {\"op\":\"elect\",\"id\":76,\"family\":\"path\",\"n\":8,\
                  \"span\":18446744073709551615}\n\
                 {\"op\":\"classify\",\"id\":73,\"family\":\"path\",\"n\":6,\"span\":3}\n";
    let (lines, summary) = serve(input, &ServeOptions::default());
    assert_eq!(summary.answered, 8, "every line is answered, none fatal");
    for (line, needle) in lines.iter().zip([
        "expected `{`",
        "unknown op",
        "bogus",
        "no-such-family",
        "u32 offset space",
        "u32 offset space",
        "\"error\":\"deadline\"",
        "\"ok\":true",
    ]) {
        assert!(line.contains(needle), "wanted {needle} in {line}");
    }
    // Parsed ids survive into the error replies.
    assert!(lines[1].contains("\"id\":70"), "{}", lines[1]);
    assert!(lines[2].contains("\"id\":71"), "{}", lines[2]);
    for line in &lines[4..6] {
        assert!(line.contains("\"error\":\"bad-request\""), "{line}");
    }
}

#[test]
fn a_non_utf8_line_is_a_bad_request_and_the_session_continues() {
    let mut input = Vec::new();
    input.extend_from_slice(
        b"{\"op\":\"elect\",\"id\":1,\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}\n",
    );
    input.extend_from_slice(b"\xff\xfe\n");
    input.extend_from_slice(
        b"{\"op\":\"elect\",\"id\":3,\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}\n",
    );
    input.extend_from_slice(b"{\"op\":\"shutdown\",\"id\":9}\n");
    let mut out: Vec<u8> = Vec::new();
    let summary = serve_session(
        &input[..],
        &mut out,
        &ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        },
    );
    assert!(summary.shutdown, "the lines after the bad one are read");
    assert_eq!((summary.jobs, summary.answered), (4, 4));
    let text = String::from_utf8(out).expect("replies are UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    assert!(
        lines[0].starts_with("{\"ok\":true,\"id\":1,"),
        "{}",
        lines[0]
    );
    // The undecodable line has no readable id: it is answered with its
    // sequence number, naming the offset of the first bad byte.
    assert!(
        lines[1].starts_with("{\"ok\":false,\"id\":1,\"error\":\"bad-request\""),
        "{}",
        lines[1]
    );
    assert!(lines[1].contains("offset 0"), "{}", lines[1]);
    assert!(
        lines[2].starts_with("{\"ok\":true,\"id\":3,"),
        "{}",
        lines[2]
    );
    assert!(
        lines[3].starts_with("{\"ok\":true,\"id\":9,\"op\":\"shutdown\",\"jobs\":3"),
        "{}",
        lines[3]
    );
}

#[test]
fn shutdown_drains_in_flight_jobs_and_acks_last() {
    // More queued jobs than workers or queue slots: shutdown must still
    // answer every accepted job before the ack, in submission order.
    let mut input = String::new();
    for id in 0..8 {
        input.push_str(&format!(
            "{{\"op\":\"elect\",\"id\":{id},\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":{id}}}\n"
        ));
    }
    input.push_str("{\"op\":\"shutdown\",\"id\":999}\n");
    input.push_str("{\"op\":\"elect\",\"id\":1000,\"family\":\"path\"}\n");
    let (lines, summary) = serve(
        &input,
        &ServeOptions {
            threads: 2,
            queue: 2,
            ..ServeOptions::default()
        },
    );
    assert!(summary.shutdown);
    assert_eq!(summary.jobs, 9, "intake stops at the shutdown job");
    assert_eq!(lines.len(), 9);
    for (i, line) in lines.iter().take(8).enumerate() {
        assert!(
            line.starts_with(&format!("{{\"ok\":true,\"id\":{i}")),
            "drained reply {i} out of order: {line}"
        );
    }
    assert!(
        lines[8].starts_with("{\"ok\":true,\"id\":999,\"op\":\"shutdown\",\"jobs\":8"),
        "ack must be last: {}",
        lines[8]
    );
}

#[test]
fn tcp_transport_serves_multiple_connections_and_shuts_down() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || serve_tcp(listener, &ServeOptions::default()));

    let ask = |line: &str| -> String {
        let mut conn = TcpStream::connect(addr).expect("connect");
        writeln!(conn, "{line}").expect("send job");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        reply
    };

    let first =
        ask("{\"op\":\"elect\",\"id\":1,\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}");
    assert!(
        first.starts_with("{\"ok\":true,\"id\":1,\"op\":\"elect\""),
        "{first}"
    );
    // A second connection hits the same persistent worker pool and cache.
    let second =
        ask("{\"op\":\"elect\",\"id\":2,\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}");
    assert!(second.contains("\"cache\":\"exact-hit\""), "{second}");

    let ack = ask("{\"op\":\"shutdown\",\"id\":3}");
    assert!(
        ack.starts_with("{\"ok\":true,\"id\":3,\"op\":\"shutdown\""),
        "{ack}"
    );
    server
        .join()
        .expect("server thread joins")
        .expect("serve_tcp exits cleanly");
}

#[test]
fn a_job_refused_during_shutdown_carries_its_own_id() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || serve_tcp(listener, &ServeOptions::default()));
    let connect = || {
        let conn = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(conn.try_clone().expect("clone"));
        (conn, reader)
    };
    let ask = |(conn, reader): &mut (TcpStream, BufReader<TcpStream>), line: &str| {
        writeln!(conn, "{line}").expect("send job");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        reply
    };

    // B's answered job proves B was accepted before the shutdown.
    let mut b = connect();
    let first = ask(
        &mut b,
        "{\"op\":\"elect\",\"id\":5,\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}",
    );
    assert!(first.starts_with("{\"ok\":true,\"id\":5,"), "{first}");
    let ack = ask(&mut connect(), "{\"op\":\"shutdown\",\"id\":9}");
    assert!(
        ack.starts_with("{\"ok\":true,\"id\":9,\"op\":\"shutdown\""),
        "{ack}"
    );
    let refused = ask(
        &mut b,
        "{\"op\":\"elect\",\"id\":77,\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}",
    );
    assert!(
        refused.starts_with("{\"ok\":false,\"id\":77,\"error\":\"shutting-down\""),
        "{refused}"
    );
    drop(b);
    server
        .join()
        .expect("server thread joins")
        .expect("serve_tcp exits cleanly");
}

#[test]
fn an_idle_connection_does_not_hold_the_daemon_open_after_shutdown() {
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let result = serve_tcp(listener, &ServeOptions::default());
        let _ = done_tx.send(result.map_err(|e| e.to_string()));
    });

    // The idle client: connected, served once, then silent.
    let mut idle = TcpStream::connect(addr).expect("connect");
    let mut idle_reader = BufReader::new(idle.try_clone().expect("clone"));
    writeln!(
        idle,
        "{{\"op\":\"elect\",\"id\":1,\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}}"
    )
    .expect("send job");
    let mut first = String::new();
    idle_reader.read_line(&mut first).expect("read reply");
    assert!(first.starts_with("{\"ok\":true,\"id\":1,"), "{first}");

    let mut other = TcpStream::connect(addr).expect("connect");
    writeln!(other, "{{\"op\":\"shutdown\",\"id\":2}}").expect("send shutdown");
    let mut ack = String::new();
    BufReader::new(other.try_clone().expect("clone"))
        .read_line(&mut ack)
        .expect("read ack");
    assert!(
        ack.starts_with("{\"ok\":true,\"id\":2,\"op\":\"shutdown\""),
        "{ack}"
    );

    // The one-second grace period, plus a second of slack.
    let result = done_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("serve_tcp returns while a client sits idle");
    result.expect("serve_tcp exits cleanly");

    // The idle client reads EOF: its connection was closed, not dropped
    // mid-reply.
    idle.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut rest = Vec::new();
    idle_reader
        .read_to_end(&mut rest)
        .expect("the idle client reads EOF");
    assert!(rest.is_empty(), "{}", String::from_utf8_lossy(&rest));
}
