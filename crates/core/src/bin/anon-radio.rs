//! `anon-radio` — command-line front end for the library.
//!
//! ```sh
//! anon-radio family h 3                # print the H_3 configuration file
//! anon-radio family h 3 | anon-radio check -     # decide feasibility
//! anon-radio family g 4 | anon-radio trace -     # refinement trace
//! anon-radio family h 3 | anon-radio elect -     # run the election
//! anon-radio family h 3 | anon-radio elect --model cd -   # … under collision detection
//! anon-radio family s 2 | anon-radio dot -       # Graphviz export
//! ```
//!
//! `--model <no-cd|cd|beep>` selects the channel semantics for `elect`
//! (default: `no-cd`, the paper's model). `--no-leap` disables the
//! engine's time-leap scheduler and executes every global round one by
//! one — the result is bit-identical, only slower; useful as an escape
//! hatch and for timing comparisons.
//!
//! Configuration files use the `radio-graph` text format:
//!
//! ```text
//! config <n> <m>
//! tags <t_0> … <t_{n-1}>
//! edge <u> <v>   (m lines)
//! ```

#![forbid(unsafe_code)]

use std::io::Read;

use anon_radio::{ElectError, ElectionReport};
use radio_graph::{families, io, Configuration};
use radio_sim::{ModelKind, SimWorkspace};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--help` anywhere is a request, not a file name or an unknown flag.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    // `campaign` owns its flag grammar (grid lists, shard/thread counts):
    // hand it the raw arguments before the shared --model/--no-leap
    // extraction below can reject them.
    if args.first().map(String::as_str) == Some("campaign") {
        std::process::exit(campaign_command(&args[1..]));
    }
    // `rows` is the offline row-format toolbox (JSONL ↔ binary).
    if args.first().map(String::as_str) == Some("rows") {
        std::process::exit(rows_command(&args[1..]));
    }
    // `serve` owns its flag grammar too (transport, pool sizing).
    if args.first().map(String::as_str) == Some("serve") {
        std::process::exit(serve_command(&args[1..]));
    }
    let model = match extract_model(&mut args) {
        Ok(model) => model,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let no_leap = extract_flag(&mut args, "--no-leap");
    // Only `elect` runs a simulation; silently ignoring --model or
    // --no-leap elsewhere would let a sweep produce identical results
    // without warning.
    if (model.is_some() || no_leap) && args.first().map(String::as_str) != Some("elect") {
        eprintln!("error: --model/--no-leap only apply to the `elect` subcommand");
        std::process::exit(2);
    }
    let model = model.unwrap_or_default();
    let opts = if no_leap {
        radio_sim::RunOpts::default().no_leap()
    } else {
        radio_sim::RunOpts::default()
    };
    let code = match args.first().map(String::as_str) {
        Some("check") => with_config(&args, |config| {
            // Pure decision: the record-free classifier path — nothing but
            // the summary is materialized.
            let summary = radio_classifier::summarize(config);
            println!("{config}");
            if summary.feasible {
                println!(
                    "FEASIBLE — leader class {} after {} iteration(s)",
                    summary.leader_class.expect("feasible"),
                    summary.iterations
                );
            } else {
                println!(
                    "INFEASIBLE — partition stabilized after {} iteration(s)",
                    summary.iterations
                );
            }
            0
        }),
        Some("trace") => with_config(&args, |config| {
            let outcome = radio_classifier::classify(config);
            print!("{}", radio_classifier::trace::render(config, &outcome));
            0
        }),
        // `elect --family …` builds the configuration CSR-direct from a
        // scenario spec instead of parsing a text file — the only route
        // that scales to millions of nodes (a config file for n = 10⁶
        // would be tens of MB of edge lines).
        Some("elect") if args.iter().any(|a| a == "--family") => {
            elect_family_command(&args[1..], model, opts)
        }
        Some("elect") => with_config(&args, |config| {
            let outcome = anon_radio::solve(config)
                .map_err(ElectError::from)
                .and_then(|compiled| {
                    compiled.run_in(&mut SimWorkspace::new(), config, model, opts)
                });
            if outcome.is_ok() {
                println!("{config}");
            }
            report_election(model, outcome)
        }),
        Some("dot") => with_config(&args, |config| {
            print!("{}", io::to_dot(config, "configuration"));
            0
        }),
        Some("compile") => with_config(&args, |config| {
            let (outcome, schedule) = anon_radio::CanonicalSchedule::build(config);
            println!("{config}");
            println!(
                "classifier: {} after {} iteration(s)",
                if outcome.feasible {
                    "FEASIBLE"
                } else {
                    "INFEASIBLE"
                },
                outcome.iterations
            );
            print!("{}", schedule.render());
            0
        }),
        Some("explain") => {
            with_config(
                &args,
                |config| match anon_radio::explain::explain_infeasibility(config) {
                    Ok(report) => {
                        println!("{config}");
                        print!("{}", report.render());
                        0
                    }
                    Err(e) => {
                        println!("{config}");
                        println!("{e}");
                        0
                    }
                },
            )
        }
        Some("family") => family_command(&args),
        _ => usage(),
    };
    std::process::exit(code);
}

/// Strips a `--model <name>` (or `--model=<name>`) flag from `args`,
/// returning the selected channel model (`None` when the flag is absent).
fn extract_model(args: &mut Vec<String>) -> Result<Option<ModelKind>, String> {
    let mut model = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(value) = args[i].strip_prefix("--model=") {
            model = Some(value.parse()?);
            args.remove(i);
        } else if args[i] == "--model" {
            let value = args
                .get(i + 1)
                .cloned()
                .ok_or_else(|| "--model needs a value (no-cd, cd, or beep)".to_string())?;
            model = Some(value.parse()?);
            args.drain(i..=i + 1);
        } else {
            i += 1;
        }
    }
    Ok(model)
}

/// Strips a boolean `flag` from `args`, returning whether it was present.
fn extract_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// `anon-radio campaign` — execute a declarative election campaign grid
/// shard by shard and emit one JSONL aggregate row per cell.
fn campaign_command(args: &[String]) -> i32 {
    use anon_radio::campaign::{CampaignRunner, CampaignSpec, FamilySpec, Phase, TagStrategy};

    fn parse_list<T: std::str::FromStr>(value: &str, what: &str) -> Result<Vec<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        let items: Result<Vec<T>, _> = value.split(',').map(str::parse::<T>).collect();
        items.map_err(|e| format!("bad {what} list `{value}`: {e}"))
    }

    let mut phase = Phase::Elect;
    let mut families: Vec<FamilySpec> = vec![FamilySpec::Path, FamilySpec::Star];
    let mut tag_strategies: Vec<TagStrategy> = vec![TagStrategy::Uniform];
    let mut sizes: Vec<usize> = vec![8];
    let mut spans: Vec<u64> = vec![4];
    let mut models: Option<Vec<ModelKind>> = None;
    let mut reps = 3usize;
    let mut shards = 8usize;
    let mut threads = radio_sim::parallel::default_threads();
    let mut seed = radio_util::rng::DEFAULT_ROOT_SEED;
    let mut resume_from = 0usize;
    let mut no_leap = false;
    let mut no_cache = false;
    let mut cache_capacity: Option<usize> = None;
    let mut no_batch = false;
    let mut batch_size: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut binary_rows = false;

    let parsed: Result<(), String> = (|| {
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--phase" => phase = value("--phase")?.parse()?,
                "--families" => families = parse_list(&value("--families")?, "family")?,
                "--tags" => tag_strategies = parse_list(&value("--tags")?, "tag strategy")?,
                "--sizes" => sizes = parse_list(&value("--sizes")?, "size")?,
                "--spans" => spans = parse_list(&value("--spans")?, "span")?,
                "--models" => models = Some(parse_list(&value("--models")?, "model")?),
                "--reps" => {
                    reps = value("--reps")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?
                }
                "--shards" => {
                    shards = value("--shards")?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?
                }
                "--threads" => {
                    threads = value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?
                }
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--resume-from" => {
                    resume_from = value("--resume-from")?
                        .parse()
                        .map_err(|e| format!("--resume-from: {e}"))?
                }
                "--no-leap" => no_leap = true,
                "--no-cache" => no_cache = true,
                "--cache-capacity" => {
                    cache_capacity = Some(
                        value("--cache-capacity")?
                            .parse()
                            .map_err(|e| format!("--cache-capacity: {e}"))?,
                    )
                }
                "--no-batch" => no_batch = true,
                "--batch-size" => {
                    batch_size = Some(
                        value("--batch-size")?
                            .parse()
                            .map_err(|e| format!("--batch-size: {e}"))?,
                    )
                }
                "--out" => out = Some(value("--out")?),
                "--row-format" => {
                    binary_rows = match value("--row-format")?.as_str() {
                        "binary" => true,
                        "jsonl" => false,
                        other => {
                            return Err(format!(
                                "--row-format must be `jsonl` or `binary`, got `{other}`"
                            ))
                        }
                    }
                }
                other => return Err(format!("unknown campaign argument `{other}`")),
            }
        }
        Ok(())
    })();
    if let Err(msg) = parsed {
        eprintln!("error: {msg}");
        return 2;
    }
    // The classify phase runs no simulation: its grid is family × n ×
    // span, and a model axis would silently multiply identical rows.
    let models = match (phase, models) {
        (Phase::Classify, Some(_)) => {
            eprintln!(
                "error: --models does not apply to --phase classify (no simulation runs; \
                 the grid is family × n × span)"
            );
            return 2;
        }
        (Phase::Classify, None) => vec![ModelKind::NoCollisionDetection],
        (Phase::Elect, models) => models.unwrap_or_else(|| ModelKind::ALL.to_vec()),
    };
    // Binary output is a file format, not a stream format: stdout would
    // interleave raw bytes with a terminal.
    if binary_rows && out.is_none() {
        eprintln!("error: --row-format binary requires --out FILE");
        return 2;
    }
    if resume_from > 0 {
        if let Some(path) = &out {
            if std::path::Path::new(path).exists() {
                eprintln!(
                    "error: {path} already exists — a resumed campaign emits rows for the \
                     remaining shards only, and writing them here would destroy the \
                     interrupted run's checkpoint; pass a fresh --out path and combine \
                     the two files afterwards"
                );
                return 2;
            }
        }
    }

    let opts = if no_leap {
        radio_sim::RunOpts::default().no_leap()
    } else {
        radio_sim::RunOpts::default()
    };
    let cache = match (no_cache, cache_capacity) {
        (true, Some(_)) => {
            eprintln!("error: --cache-capacity conflicts with --no-cache");
            return 2;
        }
        (true, None) => anon_radio::cache::CacheConfig::disabled(),
        (false, Some(0)) => {
            eprintln!("error: --cache-capacity must be at least 1 (or pass --no-cache)");
            return 2;
        }
        (false, Some(capacity)) => anon_radio::cache::CacheConfig::with_capacity(capacity),
        (false, None) => anon_radio::cache::CacheConfig::default(),
    };
    let batch = match (no_batch, batch_size) {
        (true, Some(_)) => {
            eprintln!("error: --batch-size conflicts with --no-batch");
            return 2;
        }
        (true, None) => anon_radio::campaign::BatchConfig::disabled(),
        (false, Some(0)) => {
            eprintln!("error: --batch-size must be at least 1 (or pass --no-batch)");
            return 2;
        }
        (false, Some(size)) => anon_radio::campaign::BatchConfig::with_size(size),
        (false, None) => anon_radio::campaign::BatchConfig::default(),
    };
    let spec = CampaignSpec {
        phase,
        families,
        tags: tag_strategies,
        sizes,
        spans,
        models,
        reps,
        seed,
        opts,
        cache,
        batch,
    };
    // Whole-grid validation: every family × size cell must be realizable
    // as-is — unrealizable combinations (cycle below 3 nodes, a pinned
    // grid:16x4 crossed with a foreign size) are an error, never a clamp,
    // so no row's "n" can disagree with its simulated graph.
    if let Err(msg) = spec.validate() {
        eprintln!("error: {msg}");
        return 2;
    }
    let total = spec.total_runs();
    let mut runner = CampaignRunner::new(spec, shards);
    // An out-of-range cursor is a usage error, not a no-op: silently
    // clamping used to exit 0 with a garbled resume note and an all-null
    // `runs:0` row per cell — rows that poison a merged checkpoint.
    if resume_from >= runner.shard_count() {
        eprintln!(
            "error: --resume-from {resume_from} is out of range — this campaign has {} \
             shard(s), so valid resume cursors are 0..{} (the cursor is the shard number \
             printed by the interrupted run's last checkpoint line)",
            runner.shard_count(),
            runner.shard_count()
        );
        return 2;
    }
    runner.skip_to(resume_from);
    eprintln!(
        "campaign ({phase} phase): {} cells × {reps} rep(s) = {total} runs over {} shard(s), \
         {threads} thread(s)",
        total / reps,
        runner.shard_count()
    );
    let mut executed = 0usize;
    while let Some(report) = runner.run_next_shard(threads) {
        executed += report.runs;
        eprintln!(
            "  shard {}/{}: {} run(s) in {:.3}s ({executed}/{total} done)",
            report.shard + 1,
            runner.shard_count(),
            report.runs,
            report.wall_s
        );
        // Checkpoint after every shard: if the process dies mid-campaign,
        // the file holds the rows aggregated so far and the stderr log
        // names the shard to pass to --resume-from.
        if let Some(path) = &out {
            if let Err(e) = write_rows_as(path, &runner, binary_rows) {
                eprintln!("error: could not checkpoint {path}: {e}");
                return 1;
            }
        }
    }

    // End-of-run cache summary: hit/miss/eviction totals surface key
    // stability regressions without parsing JSONL. (The split between
    // exact and canonical hits tells repeated-configuration reuse apart
    // from cross-configuration trace sharing.)
    match runner.cache_stats() {
        Some(stats) => eprintln!(
            "cache: {} hit(s) ({} exact, {} canonical), {} miss(es), {} eviction(s)",
            stats.hits,
            stats.exact_hits,
            stats.canonical_hits(),
            stats.misses,
            stats.evictions
        ),
        None if phase == Phase::Elect => eprintln!("cache: disabled"),
        None => {}
    }

    if resume_from > 0 {
        eprintln!(
            "note: resumed at shard {resume_from} — the emitted rows aggregate shards \
             {resume_from}..{} only (runs {}..{total} of the campaign); per cell, the \
             counters add across the two files and min/max/count-weighted mean combine \
             directly; for exact merged std-dev/quantiles drive CampaignRunner + \
             CellAggregate::merge programmatically, or rerun without --resume-from",
            runner.shard_count(),
            runner.shard_range(resume_from).0,
        );
    }
    // Peak RSS is process-wide observability (the per-run workspace
    // high-water lives in the rows' mem_hw column); it lands on stderr so
    // the scale-smoke CI job and humans can eyeball regressions.
    if let Some(peak) = radio_util::mem::peak_rss_bytes() {
        eprintln!("peak rss: {:.1} MiB", peak as f64 / (1 << 20) as f64);
    }
    match &out {
        Some(path) => {
            // Already checkpointed after the final shard; rewrite once
            // more to cover the zero-shard (fully skipped) case.
            if let Err(e) = write_rows_as(path, &runner, binary_rows) {
                eprintln!("error: could not write {path}: {e}");
                return 1;
            }
            eprintln!(
                "wrote {} {} row(s) to {path}",
                runner.aggregates().count(),
                if binary_rows { "binary" } else { "JSONL" }
            );
        }
        None => {
            use std::io::Write as _;
            let mut stdout = std::io::stdout().lock();
            for row in &runner.jsonl_rows() {
                if writeln!(stdout, "{row}").is_err() {
                    return 0; // closed pipe: clean stop, like `family`
                }
            }
        }
    }
    0
}

/// `anon-radio serve` — the resident election service: long-lived workers
/// with warm workspaces and a shared schedule cache answering
/// `elect`/`classify`/`campaign-cell` jobs over line-delimited JSON.
/// Protocol and supervision semantics live in [`anon_radio::serve`].
fn serve_command(args: &[String]) -> i32 {
    use anon_radio::serve::{serve_session, serve_tcp, ServeOptions};

    let mut stdin_stdout = false;
    let mut tcp: Option<String> = None;
    let mut unix_path: Option<String> = None;
    let mut threads = radio_sim::parallel::default_threads();
    let mut queue = 16usize;
    let mut no_cache = false;
    let mut cache_capacity: Option<usize> = None;
    let parsed: Result<(), String> = (|| {
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--stdin-stdout" => stdin_stdout = true,
                "--tcp" => tcp = Some(value("--tcp")?),
                "--unix" => unix_path = Some(value("--unix")?),
                "--threads" => {
                    threads = value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?
                }
                "--queue" => {
                    queue = value("--queue")?
                        .parse()
                        .map_err(|e| format!("--queue: {e}"))?
                }
                "--no-cache" => no_cache = true,
                "--cache-capacity" => {
                    cache_capacity = Some(
                        value("--cache-capacity")?
                            .parse()
                            .map_err(|e| format!("--cache-capacity: {e}"))?,
                    )
                }
                other => return Err(format!("unknown serve argument `{other}`")),
            }
        }
        Ok(())
    })();
    if let Err(msg) = parsed {
        eprintln!("error: {msg}");
        return 2;
    }
    let transports =
        usize::from(stdin_stdout) + usize::from(tcp.is_some()) + usize::from(unix_path.is_some());
    if transports != 1 {
        eprintln!("error: pass exactly one transport: --stdin-stdout, --tcp ADDR, or --unix PATH");
        return 2;
    }
    if threads == 0 || queue == 0 {
        eprintln!("error: --threads and --queue must be at least 1");
        return 2;
    }
    let cache = match (no_cache, cache_capacity) {
        (true, Some(_)) => {
            eprintln!("error: --cache-capacity conflicts with --no-cache");
            return 2;
        }
        (true, None) => anon_radio::cache::CacheConfig::disabled(),
        (false, Some(0)) => {
            eprintln!("error: --cache-capacity must be at least 1 (or pass --no-cache)");
            return 2;
        }
        (false, Some(capacity)) => anon_radio::cache::CacheConfig::with_capacity(capacity),
        (false, None) => anon_radio::cache::CacheConfig::default(),
    };
    let opts = ServeOptions {
        threads,
        queue,
        cache,
    };
    if stdin_stdout {
        // `Stdout` (not the lock) goes to the writer thread: the handle is
        // Send and line-buffers exactly like the campaign row stream.
        let mut out = std::io::stdout();
        let summary = serve_session(std::io::stdin().lock(), &mut out, &opts);
        eprintln!(
            "serve: {} reply line(s), {} written, {} dropped ({})",
            summary.jobs,
            summary.answered,
            summary.dropped,
            if summary.shutdown {
                "shutdown job"
            } else {
                "input closed"
            }
        );
        return 0;
    }
    if let Some(addr) = tcp {
        let listener = match std::net::TcpListener::bind(&addr) {
            Ok(listener) => listener,
            Err(e) => {
                eprintln!("error: cannot bind tcp {addr}: {e}");
                return 2;
            }
        };
        if let Ok(local) = listener.local_addr() {
            eprintln!("serve: listening on tcp {local} ({threads} worker(s), queue {queue})");
        }
        return match serve_tcp(listener, &opts) {
            Ok(()) => {
                eprintln!("serve: shut down");
                0
            }
            Err(e) => {
                eprintln!("error: serve failed: {e}");
                1
            }
        };
    }
    let path = unix_path.expect("transport count was checked");
    serve_unix_at(&path, &opts)
}

#[cfg(unix)]
fn serve_unix_at(path: &str, opts: &anon_radio::serve::ServeOptions) -> i32 {
    // A stale socket file from a previous run would make bind fail; a
    // *live* one should. Only remove paths that are sockets.
    if let Ok(meta) = std::fs::symlink_metadata(path) {
        use std::os::unix::fs::FileTypeExt as _;
        if !meta.file_type().is_socket() {
            eprintln!("error: {path} exists and is not a socket");
            return 2;
        }
    }
    let listener = match std::os::unix::net::UnixListener::bind(path) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!(
                "error: cannot bind unix socket {path}: {e} (remove the file if it is stale)"
            );
            return 2;
        }
    };
    eprintln!(
        "serve: listening on unix {path} ({} worker(s), queue {})",
        opts.threads, opts.queue
    );
    let result = anon_radio::serve::serve_unix(listener, opts);
    let _ = std::fs::remove_file(path);
    match result {
        Ok(()) => {
            eprintln!("serve: shut down");
            0
        }
        Err(e) => {
            eprintln!("error: serve failed: {e}");
            1
        }
    }
}

#[cfg(not(unix))]
fn serve_unix_at(_path: &str, _opts: &anon_radio::serve::ServeOptions) -> i32 {
    eprintln!("error: --unix sockets are only available on unix platforms (use --tcp)");
    2
}

/// Writes the campaign's rows to `path` in the selected format (whole-file
/// rewrite — rows are running aggregates, so each checkpoint supersedes
/// the previous one).
fn write_rows_as(
    path: &str,
    runner: &anon_radio::campaign::CampaignRunner,
    binary: bool,
) -> std::io::Result<()> {
    if binary {
        std::fs::write(path, anon_radio::row::write_binary(&runner.rows()))
    } else {
        write_rows(path, &runner.jsonl_rows())
    }
}

/// `anon-radio rows convert <in> <out>` — flip a row file between the
/// JSONL and compact binary encodings (the direction is sniffed from the
/// input's magic bytes). The conversion is lossless in both directions.
fn rows_command(args: &[String]) -> i32 {
    let (input, output) = match (
        args.first().map(String::as_str),
        args.get(1),
        args.get(2),
        args.len(),
    ) {
        (Some("convert"), Some(input), Some(output), 3) => (input, output),
        _ => {
            eprintln!("usage: anon-radio rows convert <in> <out>");
            return 2;
        }
    };
    let bytes = match std::fs::read(input) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("error: could not read {input}: {e}");
            return 2;
        }
    };
    let converted: Result<Vec<u8>, anon_radio::row::RowError> =
        if anon_radio::row::is_binary(&bytes) {
            anon_radio::row::binary_to_jsonl(&bytes).map(String::into_bytes)
        } else {
            match String::from_utf8(bytes) {
                Ok(text) => anon_radio::row::jsonl_to_binary(&text),
                Err(e) => {
                    eprintln!("error: {input} is neither binary rows nor UTF-8 JSONL: {e}");
                    return 2;
                }
            }
        };
    match converted {
        Ok(data) => {
            if let Err(e) = std::fs::write(output, data) {
                eprintln!("error: could not write {output}: {e}");
                return 1;
            }
            0
        }
        Err(e) => {
            eprintln!("error: {input}: {e}");
            1
        }
    }
}

/// `anon-radio elect --family <spec> --size N --span S [--tags STRAT]
/// [--seed N]` — build one configuration CSR-direct and run the election
/// on it. This is the million-node entry point: generation streams into
/// the CSR with no intermediate adjacency-list graph.
fn elect_family_command(args: &[String], model: ModelKind, opts: radio_sim::RunOpts) -> i32 {
    use anon_radio::campaign::{FamilySpec, TagStrategy};
    use anon_radio::serve::ConfigSource;

    let mut family: Option<FamilySpec> = None;
    let mut n: Option<usize> = None;
    let mut span = 4u64;
    let mut tags = TagStrategy::Uniform;
    let mut seed = radio_util::rng::DEFAULT_ROOT_SEED;
    let parsed: Result<(), String> = (|| {
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--family" => family = Some(value("--family")?.parse()?),
                "--size" => {
                    n = Some(
                        value("--size")?
                            .parse()
                            .map_err(|e| format!("--size: {e}"))?,
                    )
                }
                "--span" => {
                    span = value("--span")?
                        .parse()
                        .map_err(|e| format!("--span: {e}"))?
                }
                "--tags" => tags = value("--tags")?.parse()?,
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                other => return Err(format!("unknown elect --family argument `{other}`")),
            }
        }
        Ok(())
    })();
    if let Err(msg) = parsed {
        eprintln!("error: {msg}");
        return 2;
    }
    let family = family.expect("dispatched on --family");
    let source = ConfigSource::Drawn {
        family,
        // A size-pinned spec (`grid:10x10`) names its own node count.
        n: n.unwrap_or_else(|| family.default_size()),
        span,
        tags,
        seed,
    };
    let config = match source.configuration() {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("error: {msg}");
            return 2;
        }
    };
    // Raw data footprint: u32 offsets (n+1) + u32 target slots (2m) +
    // u64 tags (n). The acceptance bar for the scale path is peak RSS
    // within a small constant of this number.
    let csr = config.csr();
    let footprint = 4 * (csr.node_count() as u64 + 1)
        + 8 * csr.edge_count() as u64
        + 8 * csr.node_count() as u64;
    eprintln!(
        "{family} n={} m={} span={span} tags={tags} | csr+tags footprint: {:.1} MiB",
        config.size(),
        csr.edge_count(),
        footprint as f64 / (1 << 20) as f64
    );
    // Staged peak-RSS probes: peak RSS is monotonic, so the deltas
    // attribute memory to build/classify/simulate phases.
    let stage_peak = |stage: &str| {
        if let Some(peak) = radio_util::mem::peak_rss_bytes() {
            eprintln!(
                "peak rss after {stage}: {:.1} MiB",
                peak as f64 / (1 << 20) as f64
            );
        }
    };
    stage_peak("graph build");
    let compiled = match anon_radio::solve(&config) {
        Ok(compiled) => compiled,
        Err(e) => return report_election(model, Err(e)),
    };
    stage_peak("classify+compile");
    let mut sim = SimWorkspace::new();
    let outcome = compiled.run_in(&mut sim, &config, model, opts);
    eprintln!(
        "sim workspace high-water: {:.1} MiB",
        sim.mem_bytes() as f64 / (1 << 20) as f64
    );
    let code = report_election(model, outcome);
    if let Some(peak) = radio_util::mem::peak_rss_bytes() {
        eprintln!(
            "peak rss: {:.1} MiB ({:.2}× the csr+tags footprint)",
            peak as f64 / (1 << 20) as f64,
            peak as f64 / footprint as f64
        );
    }
    code
}

/// Prints an `elect` outcome — the one-line report on stdout, or the
/// failure on stderr — and returns the exit code.
fn report_election<E: std::fmt::Display>(
    model: ModelKind,
    outcome: Result<ElectionReport, E>,
) -> i32 {
    match outcome {
        Ok(report) => {
            println!(
                "model: {model} | leader: v{} | phases: {} | local rounds: {} | \
                 done by global round {} | transmissions: {} | \
                 engine: {} stepped + {} leapt | \
                 visits: {} decides + {} horizon queries",
                report.leader,
                report.phases,
                report.rounds_local,
                report.completion_round,
                report.transmissions,
                report.rounds_stepped,
                report.rounds_leapt,
                report.decides,
                report.horizon_queries
            );
            0
        }
        Err(e) => {
            eprintln!("election failed under model {model}: {e}");
            1
        }
    }
}

/// Writes the JSONL rows to `path` (whole-file rewrite — rows are
/// running aggregates, so each checkpoint supersedes the previous one).
fn write_rows(path: &str, rows: &[String]) -> std::io::Result<()> {
    let mut body = rows.join("\n");
    body.push('\n');
    std::fs::write(path, body)
}

fn family_command(args: &[String]) -> i32 {
    let (kind, m) = match (args.get(1), args.get(2).and_then(|s| s.parse::<u64>().ok())) {
        (Some(kind), Some(m)) => (kind.as_str(), m),
        _ => return usage(),
    };
    let config = match kind {
        "g" if m >= 2 => families::g_m(m as usize),
        "h" if m >= 1 => families::h_m(m),
        "s" if m >= 1 => families::s_m(m),
        _ => return usage(),
    };
    // `family` is the designed producer end of shell pipelines; a consumer
    // that exits early (e.g. on a bad flag) closes the pipe, and `print!`
    // would panic on the resulting EPIPE. Write directly: a closed pipe is
    // a clean stop, any other write failure is a real error.
    use std::io::Write as _;
    match std::io::stdout().write_all(io::to_text(&config).as_bytes()) {
        Ok(()) => 0,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("error: could not write configuration: {e}");
            1
        }
    }
}

/// Loads the configuration named by `args[1]` (`-` = stdin) and applies
/// `f`.
fn with_config(args: &[String], f: impl FnOnce(&Configuration) -> i32) -> i32 {
    let Some(path) = args.get(1) else {
        eprintln!("error: missing <config-file> (use `-` for stdin)");
        return 2;
    };
    let text = if path == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("error: could not read stdin");
            return 2;
        }
        buf
    } else {
        match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: could not read {path}: {e}");
                return 2;
            }
        }
    };
    match io::from_text(&text) {
        Ok(config) => f(&config),
        Err(e) => {
            eprintln!("error: invalid configuration: {e}");
            2
        }
    }
}

fn usage() -> i32 {
    eprintln!("{USAGE}");
    2
}

const USAGE: &str = "anon-radio — deterministic leader election in anonymous radio networks\n\
         \n\
         usage (--help anywhere prints this and exits 0):\n\
         \u{20}  anon-radio check   <file|->    decide feasibility (Thm 3.17)\n\
         \u{20}  anon-radio trace   <file|->    show the Classifier refinement trace\n\
         \u{20}  anon-radio elect   <file|->    compile and run the dedicated election\n\
         \u{20}                                 (--model no-cd|cd|beep selects the channel;\n\
         \u{20}                                 --no-leap executes every round one by one\n\
         \u{20}                                 instead of time-leaping quiet stretches)\n\
         \u{20}  anon-radio elect --family SPEC [--size N] --span S [--tags STRAT] [--seed K]\n\
         \u{20}                                 (--size defaults to a size-pinned spec's own\n\
         \u{20}                                 node count, else 8)\n\
         \u{20}                                 build the configuration CSR-direct (no\n\
         \u{20}                                 intermediate graph — the million-node route)\n\
         \u{20}                                 and run the election on it; reports the raw\n\
         \u{20}                                 csr+tags footprint and peak RSS on stderr\n\
         \u{20}  anon-radio compile <file|->    print the compiled dedicated algorithm\n\
         \u{20}  anon-radio explain <file|->    explain infeasibility (twins + certificates)\n\
         \u{20}  anon-radio dot     <file|->    export Graphviz DOT\n\
         \u{20}  anon-radio family g|h|s <m>    print a paper family configuration\n\
         \u{20}  anon-radio campaign [flags]    run a campaign grid, one JSONL aggregate\n\
         \u{20}                                 row per cell\n\
         \u{20}      --phase elect|classify (elect = full election pipeline per run;\n\
         \u{20}                              classify = decision phase only, no simulation)\n\
         \u{20}      --families a,b   scenario specs: path, cycle, star, complete, wheel,\n\
         \u{20}                       ladder, binary-tree, tree:K, random-tree, gnp, gnp:P,\n\
         \u{20}                       random-connected:E, grid:RxC, torus:RxC, hypercube:D,\n\
         \u{20}                       caterpillar:SxL, random-caterpillar:S+L, spider:LxK,\n\
         \u{20}                       barbell:K+B, lollipop:K+T, double-star:A+B,\n\
         \u{20}                       bipartite:AxB (size-pinned specs override --sizes)\n\
         \u{20}      --tags t,…       tag strategies: uniform, clustered, extremes, arith:K\n\
         \u{20}      --sizes n,…  --spans s,…  --models m,…  --reps k\n\
         \u{20}      --shards K --threads T --seed N --resume-from S --no-leap --out FILE\n\
         \u{20}      --no-cache       disable the canonical schedule cache (elect phase\n\
         \u{20}                       memoizes classify+compile across repeated shapes by\n\
         \u{20}                       default; rows are bit-identical either way)\n\
         \u{20}      --cache-capacity N  bound the cache at ~N entries (default 4096)\n\
         \u{20}      --no-batch       compile and simulate every elect-phase run (by default a\n\
         \u{20}                       run repeating an earlier draw of its slice copies that\n\
         \u{20}                       run's metrics; rows are bit-identical either way up to\n\
         \u{20}                       the measured tail from \"wall_ns\" on)\n\
         \u{20}      --batch-size B   runs per dedupe slice (default 16)\n\
         \u{20}      --row-format jsonl|binary  row encoding for --out (binary is the\n\
         \u{20}                       compact length-prefixed format; `rows convert` maps\n\
         \u{20}                       it back to identical JSONL)\n\
         \u{20}  anon-radio rows convert <in> <out>  flip a row file between JSONL and the\n\
         \u{20}                                 compact binary encoding (direction sniffed\n\
         \u{20}                                 from the magic bytes; lossless both ways)\n\
         \u{20}  anon-radio serve [flags]       resident election service: long-lived\n\
         \u{20}                                 workers with warm workspaces + shared\n\
         \u{20}                                 schedule cache answer line-delimited JSON\n\
         \u{20}                                 jobs (elect, classify, campaign-cell,\n\
         \u{20}                                 shutdown); replies stream in submission\n\
         \u{20}                                 order, one line each\n\
         \u{20}      --stdin-stdout   serve one session over stdin/stdout (CI mode)\n\
         \u{20}      --tcp ADDR       listen on a TCP address (e.g. 127.0.0.1:7878)\n\
         \u{20}      --unix PATH      listen on a Unix-domain socket\n\
         \u{20}      --threads T --queue Q  worker pool size and bounded job-queue depth\n\
         \u{20}      --no-cache / --cache-capacity N  shared schedule-cache policy\n\
         \n\
         configuration file format: see `radio-graph::io` docs";
