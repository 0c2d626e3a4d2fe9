//! Integration tests for the `anon-radio` command-line binary.

use std::io::{Read as _, Write as _};
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_anon-radio"))
}

fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = bin()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("binary exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

fn family(kind: &str, m: &str) -> String {
    let out = bin()
        .args(["family", kind, m])
        .output()
        .expect("family runs");
    assert!(out.status.success());
    String::from_utf8(out.stdout).expect("utf8 config")
}

#[test]
fn family_emits_parseable_configs() {
    let text = family("h", "3");
    assert!(text.starts_with("config 4 3"));
    assert!(text.contains("tags 3 0 0 4"));
    let parsed = radio_graph::io::from_text(&text).unwrap();
    assert_eq!(parsed, radio_graph::families::h_m(3));
}

#[test]
fn check_pipeline_feasible_and_infeasible() {
    let (stdout, _, code) = run_with_stdin(&["check", "-"], &family("h", "2"));
    assert_eq!(code, 0);
    assert!(stdout.contains("FEASIBLE"), "{stdout}");

    let (stdout, _, code) = run_with_stdin(&["check", "-"], &family("s", "2"));
    assert_eq!(code, 0);
    assert!(stdout.contains("INFEASIBLE"), "{stdout}");
}

#[test]
fn elect_pipeline_reports_leader() {
    let (stdout, _, code) = run_with_stdin(&["elect", "-"], &family("h", "2"));
    assert_eq!(code, 0);
    assert!(stdout.contains("leader: v0"), "{stdout}");
    assert!(stdout.contains("transmissions: 4"), "{stdout}");
}

#[test]
fn compile_pipeline_prints_lists() {
    let (stdout, _, code) = run_with_stdin(&["compile", "-"], &family("g", "2"));
    assert_eq!(code, 0);
    assert!(stdout.contains("L_1[1]"), "{stdout}");
    assert!(stdout.contains("terminate"), "{stdout}");
}

#[test]
fn explain_pipeline_shows_certificates() {
    let (stdout, _, code) = run_with_stdin(&["explain", "-"], &family("s", "3"));
    assert_eq!(code, 0);
    assert!(stdout.contains("history twins"), "{stdout}");
    assert!(stdout.contains("automorphism"), "{stdout}");
}

#[test]
fn dot_pipeline_exports_graphviz() {
    let (stdout, _, code) = run_with_stdin(&["dot", "-"], &family("h", "1"));
    assert_eq!(code, 0);
    assert!(stdout.starts_with("graph configuration {"), "{stdout}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    // malformed configuration
    let (_, stderr, code) = run_with_stdin(&["check", "-"], "config broken\n");
    assert_eq!(code, 2);
    assert!(stderr.contains("invalid configuration"), "{stderr}");

    // unknown subcommand prints usage
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // missing file argument
    let out = bin().arg("check").output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    // nonexistent file
    let out = bin()
        .args(["check", "/nonexistent/nowhere.cfg"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // an argument the subcommand would not use is rejected by name, and
    // so is a zero count
    let h3 = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bad_inputs_h3.cfg");
    std::fs::write(&h3, family("h", "3")).expect("write config");
    let h3 = h3.to_str().expect("UTF-8 path");
    for (args, named) in [
        (
            &[
                "elect",
                h3,
                "--span",
                "9",
                "--seed",
                "4",
                "--tags",
                "clustered",
            ][..],
            "--span",
        ),
        (&["check", h3, "junk", "extra"], "junk"),
        (&["trace", h3, "--reps", "5"], "--reps"),
        (&["dot", h3, "--family", "path"], "--family"),
        (&["family", "h", "3", "--seed", "5"], "--seed"),
        (&["campaign", "--threads", "0"], "--threads"),
        (&["campaign", "--shards", "0"], "--shards"),
    ] {
        let out = bin().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// The retired stepping-mode switch is an unknown argument wherever it
/// was once accepted.
#[test]
fn no_leap_is_an_unknown_argument() {
    for (args, subcommand) in [
        (&["elect", "--no-leap", "-"][..], "elect"),
        (&["elect", "--family", "path", "--no-leap"], "elect"),
        (&["campaign", "--no-leap"], "campaign"),
    ] {
        let out = bin().args(args).stdin(Stdio::null()).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown {subcommand} argument `--no-leap`")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// Every value flag takes `--flag=VALUE` as well as `--flag VALUE`.
#[test]
fn value_flags_accept_the_equals_spelling() {
    let h2 = family("h", "2");
    for (spaced, joined, stdin) in [
        (
            &["elect", "--model", "cd", "-"][..],
            &["elect", "--model=cd", "-"][..],
            h2.as_str(),
        ),
        (
            &[
                "elect", "--family", "path", "--size", "6", "--span", "3", "--seed", "42",
            ],
            &[
                "elect",
                "--family=path",
                "--size=6",
                "--span=3",
                "--seed=42",
            ],
            "",
        ),
    ] {
        let (expected, stderr, code) = run_with_stdin(spaced, stdin);
        assert_eq!(code, 0, "{spaced:?}: {stderr}");
        let (stdout, stderr, code) = run_with_stdin(joined, stdin);
        assert_eq!(code, 0, "{joined:?}: {stderr}");
        assert_eq!(stdout, expected, "{joined:?}");
    }
}

/// The number that follows the first `label` in `text`.
fn number_after(text: &str, label: &str) -> u64 {
    let start = text
        .find(label)
        .unwrap_or_else(|| panic!("{label} in {text}"))
        + label.len();
    text[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("a number after {label} in {text}"))
}

/// `elect` and `check` run the executor a serve worker runs: their text
/// carries the numbers of the served reply to the same job.
#[test]
fn cli_text_equals_the_served_reply() {
    let elect = ["elect", "--family", "path", "--size", "6", "--span", "3"];
    let (text, stderr, code) = run_with_stdin(&[&elect[..], &["--seed", "42"]].concat(), "");
    assert_eq!(code, 0, "{stderr}");
    let (reply, stderr, code) = run_with_stdin(
        &["serve", "--stdin-stdout"],
        "{\"op\":\"elect\",\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}\n",
    );
    assert_eq!(code, 0, "{stderr}");
    for (label, field) in [
        ("leader: v", "leader"),
        ("phases: ", "phases"),
        ("local rounds: ", "rounds_local"),
        ("done by global round ", "completion_round"),
        ("transmissions: ", "transmissions"),
        ("engine: ", "rounds_stepped"),
        ("stepped + ", "rounds_leapt"),
    ] {
        assert_eq!(
            number_after(&text, label),
            number_after(&reply, &format!("\"{field}\":")),
            "{field}: {text} vs {reply}"
        );
    }

    for (kind, m) in [("h", "3"), ("s", "2")] {
        let config = family(kind, m);
        let (text, stderr, code) = run_with_stdin(&["check", "-"], &config);
        assert_eq!(code, 0, "{stderr}");
        let job = format!(
            "{{\"op\":\"classify\",\"config\":\"{}\"}}\n",
            config.replace('\n', "\\n")
        );
        let (reply, stderr, code) = run_with_stdin(&["serve", "--stdin-stdout"], &job);
        assert_eq!(code, 0, "{stderr}");
        assert_eq!(
            text.lines().any(|line| line.starts_with("FEASIBLE")),
            reply.contains("\"feasible\":true"),
            "{text} vs {reply}"
        );
        assert_eq!(
            number_after(&text, "after "),
            number_after(&reply, "\"iterations\":"),
            "{text} vs {reply}"
        );
    }
}

#[test]
fn campaign_accepts_the_scenario_grammar() {
    let out = bin()
        .args([
            "campaign",
            "--families",
            "grid:3x2,torus:3x3,hypercube:3",
            "--tags",
            "clustered,arith:2",
            "--spans",
            "4",
            "--models",
            "no-cd",
            "--reps",
            "1",
            "--shards",
            "2",
            "--threads",
            "1",
            "--seed",
            "9",
        ])
        .output()
        .expect("campaign runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout.lines().collect();
    assert_eq!(rows.len(), 6, "3 pinned families × 2 strategies: {stdout}");
    // phase-tagged rows carry the scenario axes …
    assert!(rows.iter().all(|r| r.contains("\"phase\":\"elect\"")));
    assert!(rows
        .iter()
        .any(|r| r.contains("\"family\":\"grid:3x2\"") && r.contains("\"n\":6")));
    assert!(rows
        .iter()
        .any(|r| r.contains("\"family\":\"torus:3x3\"") && r.contains("\"n\":9")));
    assert!(rows
        .iter()
        .any(|r| r.contains("\"family\":\"hypercube:3\"") && r.contains("\"n\":8")));
    // … including the tag-strategy axis
    assert_eq!(
        rows.iter()
            .filter(|r| r.contains("\"tags\":\"clustered\""))
            .count(),
        3
    );
    assert_eq!(
        rows.iter()
            .filter(|r| r.contains("\"tags\":\"arith:2\""))
            .count(),
        3
    );
}

/// A campaign runs uncached unless `--cache-capacity N` names a cache;
/// `--no-cache` is still accepted and still conflicts with a capacity.
#[test]
fn campaign_runs_uncached_unless_it_names_a_capacity() {
    let run = |extra: &[&str]| {
        let out = bin()
            .args([
                "campaign",
                "--families",
                "star",
                "--sizes",
                "8",
                "--spans",
                "3",
                "--tags",
                "arith:2",
                "--models",
                "no-cd",
                "--reps",
                "4",
                "--threads",
                "1",
                "--no-batch",
            ])
            .args(extra)
            .output()
            .expect("campaign runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let rows: Vec<String> = stdout
            .lines()
            .map(|row| row.split(",\"wall_ns\"").next().unwrap().to_string())
            .collect();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (rows, stderr, out.status.code())
    };
    let (uncached, log, code) = run(&[]);
    assert_eq!(code, Some(0), "{log}");
    assert!(log.lines().any(|line| line == "cache: disabled"), "{log}");
    let (no_cache, log, _) = run(&["--no-cache"]);
    assert!(log.lines().any(|line| line == "cache: disabled"), "{log}");
    let (cached, log, code) = run(&["--cache-capacity", "64"]);
    assert_eq!(code, Some(0), "{log}");
    // arith tags redraw one configuration, so on one thread the first of
    // the four runs misses and the other three hit
    assert!(
        log.lines()
            .any(|line| line == "cache: 3 hit(s), 1 miss(es), 0 eviction(s)"),
        "{log}"
    );
    assert_eq!(uncached.len(), 1);
    assert_eq!(uncached, no_cache);
    assert_eq!(uncached, cached);
    let (_, log, code) = run(&["--no-cache", "--cache-capacity", "64"]);
    assert_eq!(code, Some(2), "{log}");
    assert!(log.contains("conflicts with --no-cache"), "{log}");
}

#[test]
fn campaign_rejects_unrealizable_grids() {
    // a cycle cannot have 2 nodes: error, never a clamped graph whose
    // size disagrees with the row label
    let out = bin()
        .args(["campaign", "--families", "cycle", "--sizes", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cycle"), "{stderr}");

    // unknown family names list the registry
    let out = bin()
        .args(["campaign", "--families", "kagome"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("hypercube"), "{stderr}");

    // malformed tag strategies are rejected up front
    let out = bin()
        .args(["campaign", "--tags", "arith:0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // a run count (cells × reps) that overflows is rejected before any run
    let out = bin()
        .args([
            "campaign",
            "--families",
            "path,star",
            "--sizes",
            "4",
            "--spans",
            "2",
            "--models",
            "no-cd",
            "--reps",
            "18446744073709551615",
            "--shards",
            "1",
            "--threads",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn family_argument_validation() {
    for bad in [
        &["family", "g", "1"][..],
        &["family", "x", "3"],
        &["family", "h"],
        &["family", "h", "18446744073709551615"],
        &["family", "g", "99999999999"],
        &["family", "g", "1073741824"],
        &["family", "h", "0"],
    ] {
        let out = bin().args(bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
    }
    // A parameter outside the family's domain is one line on stderr that
    // names the family and the bound, and nothing is built or printed.
    for (bad, bound) in [
        (&["family", "g", "1"][..], "family g needs m ≥ 2"),
        (
            &["family", "h", "0"],
            "family h needs 1 ≤ m < 18446744073709551615",
        ),
        (
            &["family", "h", "18446744073709551615"],
            "family h needs 1 ≤ m < 18446744073709551615",
        ),
        (&["family", "s", "0"], "family s needs m ≥ 1"),
        (&["family", "g", "99999999999"], "u32 offset space"),
        (&["family", "g", "1073741824"], "u32 offset space"),
        (&["family", "x", "3"], "expected g, h or s"),
    ] {
        let out = bin().args(bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{bad:?}: {stderr}");
        assert!(stderr.contains(bound), "{bad:?}: {stderr}");
        assert!(
            stderr.contains(&format!("family {}", bad[1])),
            "{bad:?}: {stderr}"
        );
    }
    // The largest members of the domain still build.
    let largest_h = family("h", "18446744073709551614");
    assert!(largest_h.contains("tags 18446744073709551614 0 0 18446744073709551615"));
}

/// Exit-code matrix for `--resume-from`: a cursor at or past the shard
/// count is a usage error (exit 2, no rows) — it used to exit 0 with a
/// garbled note and all-null `runs:0` rows that poison merged
/// checkpoints — while in-range cursors keep working.
#[test]
fn campaign_resume_from_exit_code_matrix() {
    let campaign = |resume: &str| {
        bin()
            .args([
                "campaign",
                "--families",
                "path",
                "--sizes",
                "5",
                "--spans",
                "2",
                "--models",
                "no-cd",
                "--reps",
                "1",
                "--shards",
                "4",
                "--threads",
                "1",
                "--resume-from",
                resume,
            ])
            .output()
            .expect("campaign runs")
    };
    // == shard_count and far beyond: both rejected before any run.
    for bad in ["4", "99"] {
        let out = campaign(bad);
        assert_eq!(out.status.code(), Some(2), "--resume-from {bad}");
        assert!(out.stdout.is_empty(), "no rows on a rejected cursor");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("out of range"), "{stderr}");
        assert!(stderr.contains("0..4"), "names the valid cursors: {stderr}");
    }
    // Last valid cursor still resumes (and emits the partial-rows note).
    let out = campaign("3");
    assert_eq!(out.status.code(), Some(0));
    assert!(!out.stdout.is_empty(), "resumed campaign emits rows");
    assert!(String::from_utf8_lossy(&out.stderr).contains("note: resumed at shard 3"));
}

/// Process-level smoke of `serve --stdin-stdout`: the library session
/// tests live in `tests/serve.rs`; this pins the CLI wiring — transport
/// flags, stderr summary, exit code.
#[test]
fn serve_stdin_stdout_answers_jobs_and_exits_zero() {
    let input = concat!(
        "{\"op\":\"elect\",\"id\":1,\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":42}\n",
        "not json\n",
        "{\"op\":\"shutdown\",\"id\":2}\n",
    );
    let (stdout, stderr, code) = run_with_stdin(&["serve", "--stdin-stdout"], input);
    assert_eq!(code, 0, "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(
        lines[0].starts_with("{\"ok\":true,\"id\":1,\"op\":\"elect\""),
        "{stdout}"
    );
    assert!(lines[1].contains("\"error\":\"bad-request\""), "{stdout}");
    assert!(
        lines[2].starts_with("{\"ok\":true,\"id\":2,\"op\":\"shutdown\""),
        "{stdout}"
    );
    assert!(stderr.contains("shutdown job"), "{stderr}");
}

#[test]
fn serve_transport_flags_are_validated() {
    // no transport at all
    let (_, stderr, code) = run_with_stdin(&["serve"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("exactly one transport"), "{stderr}");
    // two transports
    let (_, stderr, code) =
        run_with_stdin(&["serve", "--stdin-stdout", "--tcp", "127.0.0.1:0"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("exactly one transport"), "{stderr}");
    // unknown flag
    let (_, stderr, code) = run_with_stdin(&["serve", "--bogus"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown serve argument"), "{stderr}");
    // zero-sized pool
    let (_, stderr, code) = run_with_stdin(&["serve", "--stdin-stdout", "--threads", "0"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("at least 1"), "{stderr}");
}

#[test]
fn elect_family_defaults_to_a_pinned_spec_size() {
    let out = bin()
        .args([
            "elect",
            "--family",
            "grid:10x10",
            "--span",
            "50",
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("grid:10x10 n=100 "), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("leader: v"));
    // An explicit size that contradicts the spec is still a usage error.
    let out = bin()
        .args(["elect", "--family", "grid:10x10", "--size", "8"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pins the node count to 100"), "{stderr}");
}

/// The widest span a `u64` can name draws full-range tags; the schedule
/// saturates instead of overflowing, so the run stops at its round limit
/// with a clean election failure, not a panic, and a campaign counts it
/// as aborted.
#[test]
fn maximal_span_stops_at_the_round_limit() {
    let span = u64::MAX;
    let elect = format!("elect --family path --size 8 --span {span}");
    let elect: Vec<&str> = elect.split(' ').collect();
    let (_, stderr, code) = run_with_stdin(&elect, "");
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("round limit"), "{stderr}");
    let campaign =
        format!("campaign --families path --sizes 8 --spans {span} --reps 1 --models no-cd");
    let campaign: Vec<&str> = campaign.split(' ').collect();
    let (rows, stderr, code) = run_with_stdin(&campaign, "");
    assert_eq!(code, 0, "{stderr}");
    assert!(
        rows.contains("\"feasible\":1,\"elected\":0,\"aborted\":1"),
        "{rows}"
    );
}

/// Specs whose CSR cannot fit `u32` offsets are usage errors, caught
/// before anything is allocated — a pinned spec with no `--size` too.
#[test]
fn elect_family_rejects_specs_too_large_for_the_csr() {
    for args in [
        &["elect", "--family", "complete", "--size", "100000"][..],
        &["elect", "--family", "grid:100000x100000"],
    ] {
        let out = bin().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("u32 offset space"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_on_file_subcommands_prints_usage_instead_of_reading_a_file() {
    for sub in ["elect", "check"] {
        let out = bin().args([sub, "--help"]).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{sub}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage"), "{sub}: {stdout}");
        assert!(out.stderr.is_empty(), "{sub}: no `could not read --help`");
    }
}

#[test]
fn help_on_flag_subcommands_prints_usage_instead_of_an_unknown_argument() {
    for sub in ["campaign", "serve"] {
        let out = bin().args([sub, "--help"]).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{sub}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("anon-radio {sub} [flags]")),
            "{sub}"
        );
        assert!(out.stderr.is_empty(), "{sub}: no unknown-argument error");
    }
}

/// `rows convert` on hostile or non-canonical JSONL fails cleanly: exit 1,
/// a `malformed campaign row` message, no panic and no output file. The
/// cases are an error snippet cut inside a multi-byte character, a label
/// too long for the binary format's `u16` length, and a number spelled
/// other than the canonical renderer spells it.
#[test]
fn rows_convert_rejects_hostile_and_non_canonical_rows() {
    let golden = |name: &str| {
        let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).expect("golden corpus");
        text.lines().next().expect("a golden row").to_string()
    };
    let (elect, classify) = (
        golden("campaign_elect.jsonl"),
        golden("campaign_classify.jsonl"),
    );
    let long_label = format!("\"family\":\"{}\"", "a".repeat(70_000));
    let rows = [
        r#"{"phase":"elect","family":"a","tags":"b","n":xéééééééé}"#.to_string(),
        format!("{elect}xéééééééééééééé"),
        classify.replacen("\"family\":\"star\"", &long_label, 1),
        classify.replacen("\"mean\":1,", "\"mean\":1e0,", 1),
    ];
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (i, row) in rows.iter().enumerate() {
        assert!(row != &elect && row != &classify, "case {i} edits its row");
        let input = dir.join(format!("hostile_row_{i}.jsonl"));
        let output = dir.join(format!("hostile_row_{i}.bin"));
        std::fs::write(&input, format!("{row}\n")).expect("write input");
        let _ = std::fs::remove_file(&output);
        let out = bin()
            .args(["rows", "convert"])
            .arg(&input)
            .arg(&output)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "case {i}: {stderr}");
        assert!(
            stderr.contains("malformed campaign row"),
            "case {i}: {stderr}"
        );
        assert!(!output.exists(), "case {i} wrote {}", output.display());
    }
}

/// Every subcommand that prints ends quietly when its reader goes away:
/// with stdout piped into a reader that takes at most 10 bytes and then
/// closes the pipe, as `| head -c 10` does, each exits 0 and prints no
/// panic. Each output but `check`'s, `elect`'s and `explain`'s (a few
/// lines each) outgrows the pipe's buffer, so its writes fail for sure.
#[test]
fn a_closed_stdout_ends_every_subcommand_quietly() {
    let small = family("g", "60");
    let large = family("g", "1000");
    let sizes = (4..=24)
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let campaign = [
        "campaign",
        "--families",
        "path,star,cycle",
        "--sizes",
        &sizes,
        "--reps",
        "1",
        "--threads",
        "1",
    ];
    let cases: [(&[&str], &str); 8] = [
        (&["check", "-"], &small),
        (&["elect", "-"], &small),
        (&["compile", "-"], &small),
        (&["explain", "-"], &small),
        (&["trace", "-"], &small),
        (&["dot", "-"], &large),
        (&["family", "g", "20000"], ""),
        (&campaign, ""),
    ];
    for (args, input) in cases {
        let mut child = bin()
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary spawns");
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin.write_all(input.as_bytes()).expect("write stdin");
        drop(stdin);
        let mut head = Vec::new();
        child
            .stdout
            .take()
            .expect("piped stdout")
            .take(10)
            .read_to_end(&mut head)
            .expect("read stdout");
        assert_eq!(head.len(), 10, "{}: prints at least 10 bytes", args[0]);
        // The reader is gone: the pipe is closed.
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{}: {stderr}", args[0]);
        assert!(!stderr.contains("panicked"), "{}: {stderr}", args[0]);
    }
}
