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
//! Every subcommand parses its arguments against one flag table
//! ([`FLAGS`]): a flag takes its value as `--flag VALUE` or
//! `--flag=VALUE`, and a subcommand rejects (exit 2) any flag or
//! positional argument it does not use. `elect` and `check` build the
//! same [`OneShotJob`] a served `elect`/`classify` request parses into and
//! run serve's executor on it, so a one-shot result is a served result
//! rendered as text.
//!
//! `--model <no-cd|cd|beep>` selects the channel semantics for `elect`
//! (default: `no-cd`, the paper's model).
//!
//! Configuration files use the `radio-graph` text format:
//!
//! ```text
//! config <n> <m>
//! tags <t_0> … <t_{n-1}>
//! edge <u> <v>   (m lines)
//! ```

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::io::{Read, Write as _};
use std::str::FromStr;

use anon_radio::cache::CacheConfig;
use anon_radio::campaign::{
    BatchConfig, CampaignRunner, CampaignSpec, FamilySpec, Phase, TagStrategy,
};
use anon_radio::serve::{ConfigSource, JobError, OneShotJob, ServeOptions, Stage};
use anon_radio::CampaignWorkspace;
use radio_classifier::ClassifierWorkspace;
use radio_graph::{families, io};
use radio_sim::{ModelKind, RunOpts};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--help` anywhere is a request, not a file name or an unknown flag.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        let mut out = Stdout::new();
        out.println(USAGE);
        std::process::exit(out.finish(0));
    }
    let known = |sub: &String| SUBCOMMANDS.iter().any(|&(name, _)| name == sub);
    let Some((subcommand, rest)) = args.split_first().filter(|(sub, _)| known(sub)) else {
        std::process::exit(usage());
    };
    let code = Args::parse(subcommand, rest).and_then(|args| match subcommand.as_str() {
        "check" => check_command(&args),
        "elect" => elect_command(&args),
        "family" => family_command(&args),
        "campaign" => campaign_command(&args),
        "rows" => rows_command(&args),
        "serve" => serve_command(&args),
        "trace" | "compile" | "explain" | "dot" => inspect_command(subcommand, &args),
        _ => Ok(usage()),
    });
    std::process::exit(code.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        2
    }));
}

/// Each subcommand and the most positional arguments it takes.
/// `elect --family` is the drawn form of `elect`: it reads no file.
const SUBCOMMANDS: &[(&str, usize)] = &[
    ("check", 1),
    ("trace", 1),
    ("elect", 1),
    ("elect --family", 0),
    ("compile", 1),
    ("explain", 1),
    ("dot", 1),
    ("family", 2),
    ("campaign", 0),
    ("rows", 3),
    ("serve", 0),
];

/// A row of the flag table: the flag, whether it takes a value (`--flag
/// VALUE` or `--flag=VALUE`), and the subcommands that accept it.
type Flag = (&'static str, bool, &'static [&'static str]);

/// The flag table.
const FLAGS: &[Flag] = &[
    ("--model", true, &["elect", "elect --family"]),
    ("--family", true, &["elect --family"]),
    ("--size", true, &["elect --family"]),
    ("--span", true, &["elect --family"]),
    ("--tags", true, &["elect --family", "campaign"]),
    ("--seed", true, &["elect --family", "campaign"]),
    ("--phase", true, &["campaign"]),
    ("--families", true, &["campaign"]),
    ("--sizes", true, &["campaign"]),
    ("--spans", true, &["campaign"]),
    ("--models", true, &["campaign"]),
    ("--reps", true, &["campaign"]),
    ("--shards", true, &["campaign"]),
    ("--threads", true, &["campaign", "serve"]),
    ("--resume-from", true, &["campaign"]),
    ("--out", true, &["campaign"]),
    ("--row-format", true, &["campaign"]),
    ("--no-cache", false, &["campaign", "serve"]),
    ("--cache-capacity", true, &["campaign", "serve"]),
    ("--no-batch", false, &["campaign"]),
    ("--batch-size", true, &["campaign"]),
    ("--stdin-stdout", false, &["serve"]),
    ("--tcp", true, &["serve"]),
    ("--unix", true, &["serve"]),
    ("--queue", true, &["serve"]),
];

/// One subcommand's arguments, checked against [`SUBCOMMANDS`] and
/// [`FLAGS`]: positionals in order, and flags in order with their values
/// (a repeated flag's last value wins).
struct Args {
    positionals: Vec<String>,
    flags: Vec<(&'static Flag, Option<String>)>,
}

impl Args {
    fn parse(subcommand: &str, args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            positionals: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                parsed.positionals.push(arg.clone());
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let Some(flag) = FLAGS.iter().find(|flag| flag.0 == name) else {
                return Err(format!("unknown {subcommand} argument `{arg}`"));
            };
            let value = match (flag.1, inline) {
                (true, None) => Some(it.next().ok_or(format!("{name} needs a value"))?.clone()),
                (false, Some(_)) => return Err(format!("{name} takes no value")),
                (_, inline) => inline,
            };
            parsed.flags.push((flag, value));
        }
        let form = if subcommand == "elect" && parsed.switch("--family") {
            "elect --family"
        } else {
            subcommand
        };
        for &(&(name, _, accepted), _) in &parsed.flags {
            if !accepted.contains(&form) {
                return Err(format!(
                    "{name} does not apply to `{form}` (it applies to: {})",
                    accepted.join(", ")
                ));
            }
        }
        let (_, most) = SUBCOMMANDS
            .iter()
            .find(|&&(name, _)| name == form)
            .expect("the subcommand was checked against the table");
        if let Some(extra) = parsed.positionals.get(*most) {
            return Err(format!("unexpected argument `{extra}` for `{form}`"));
        }
        Ok(parsed)
    }

    /// Whether flag `name` was given.
    fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| flag.0 == name)
    }

    /// The text of flag `name`'s last value, when given.
    fn text(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(flag, _)| flag.0 == name)
            .and_then(|(_, value)| value.as_deref())
    }

    /// Flag `name`'s value, parsed.
    fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.text(name)
            .map(|value| value.parse().map_err(|e| format!("{name}: {e}")))
            .transpose()
    }

    /// Flag `name`'s value as a count, which must be at least 1.
    fn count(&self, name: &str) -> Result<Option<usize>, String> {
        match self.value(name)? {
            Some(0) => Err(format!("{name} must be at least 1")),
            count => Ok(count),
        }
    }

    /// Flag `name`'s value as a comma-separated list of `what`s.
    fn list<T: FromStr>(&self, name: &str, what: &str) -> Result<Option<Vec<T>>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.text(name)
            .map(|value| {
                let items: Result<Vec<T>, _> = value.split(',').map(str::parse::<T>).collect();
                items.map_err(|e| format!("bad {what} list `{value}`: {e}"))
            })
            .transpose()
    }
}

/// The schedule-cache policy `--no-cache` and `--cache-capacity` name,
/// or the subcommand's `default` when neither is given.
fn cache_policy(args: &Args, default: CacheConfig) -> Result<CacheConfig, String> {
    match (args.switch("--no-cache"), args.value("--cache-capacity")?) {
        (true, Some(_)) => Err("--cache-capacity conflicts with --no-cache".to_string()),
        (true, None) => Ok(CacheConfig::disabled()),
        (false, Some(0)) => {
            Err("--cache-capacity must be at least 1 (or pass --no-cache)".to_string())
        }
        (false, Some(capacity)) => Ok(CacheConfig::with_capacity(capacity)),
        (false, None) => Ok(default),
    }
}

/// Reads the configuration file named by the first positional argument
/// (`-` = stdin).
fn config_text(args: &Args) -> Result<String, String> {
    let path = args
        .positionals
        .first()
        .ok_or("missing <config-file> (use `-` for stdin)")?;
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|_| "could not read stdin")?;
        return Ok(buf);
    }
    std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))
}

/// Bytes as MiB, for the memory reports.
fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// The CLI's one stdout writer: every subcommand that prints does so
/// through it, to a locked stdout. A failed write is kept and every later
/// one skipped, and [`Stdout::finish`] turns it into the exit code: a
/// closed pipe (`BrokenPipe` — the reader, say `head`, has exited) is a
/// clean stop, exit 0, and any other write error exits 1 with a message.
struct Stdout {
    lock: std::io::StdoutLock<'static>,
    error: Option<std::io::Error>,
}

impl Stdout {
    fn new() -> Stdout {
        Stdout {
            lock: std::io::stdout().lock(),
            error: None,
        }
    }

    /// Writes `text`, unless an earlier write failed.
    fn print(&mut self, text: impl Display) {
        if self.error.is_none() {
            if let Err(e) = write!(self.lock, "{text}") {
                self.error = Some(e);
            }
        }
    }

    /// Writes `text` and a newline.
    fn println(&mut self, text: impl Display) {
        self.print(format_args!("{text}\n"));
    }

    /// Flushes, and returns the exit code: `code` when every write went
    /// out, 0 when the reader closed the pipe, 1 on any other failure.
    fn finish(mut self, code: i32) -> i32 {
        if self.error.is_none() {
            self.error = self.lock.flush().err();
        }
        match self.error {
            None => code,
            Some(e) if e.kind() == std::io::ErrorKind::BrokenPipe => 0,
            Some(e) => {
                eprintln!("error: could not write to stdout: {e}");
                1
            }
        }
    }
}

/// `anon-radio check` — the decision (Thm 3.17) through serve's
/// `classify` executor.
fn check_command(args: &Args) -> Result<i32, String> {
    let job = OneShotJob {
        source: ConfigSource::Inline(config_text(args)?),
        model: ModelKind::default(),
        max_rounds: None,
    };
    let (config, summary) = anon_radio::serve::classify(&mut CampaignWorkspace::new(), &job)
        .map_err(|e| e.to_string())?;
    let mut out = Stdout::new();
    out.println(&config);
    if summary.feasible {
        out.println(format_args!(
            "FEASIBLE — leader class {} after {} iteration(s)",
            summary.leader_class.expect("feasible"),
            summary.iterations
        ));
    } else {
        out.println(format_args!(
            "INFEASIBLE — partition stabilized after {} iteration(s)",
            summary.iterations
        ));
    }
    Ok(out.finish(0))
}

/// `anon-radio trace|compile|explain|dot` — print what the library
/// derives from one configuration file.
fn inspect_command(subcommand: &str, args: &Args) -> Result<i32, String> {
    let config = ConfigSource::Inline(config_text(args)?).configuration()?;
    let mut out = Stdout::new();
    match subcommand {
        "trace" => {
            let outcome = radio_classifier::classify(&config);
            out.print(radio_classifier::trace::render(&config, &outcome));
        }
        "dot" => out.print(io::to_dot(&config, "configuration")),
        "compile" => {
            let (outcome, schedule) = anon_radio::CanonicalSchedule::build(&config);
            out.println(&config);
            out.println(format_args!(
                "classifier: {} after {} iteration(s)",
                if outcome.feasible {
                    "FEASIBLE"
                } else {
                    "INFEASIBLE"
                },
                outcome.iterations
            ));
            out.print(schedule.render());
        }
        _ => {
            // `explain`
            out.println(&config);
            match anon_radio::explain::explain_infeasibility(&config) {
                Ok(report) => out.print(report.render()),
                Err(e) => out.println(e),
            }
        }
    }
    Ok(out.finish(0))
}

/// `anon-radio elect` — the dedicated election through serve's `elect`
/// executor, on a configuration file or (`--family`) on a configuration
/// drawn CSR-direct from a scenario spec. The drawn form is the
/// million-node route (a config file for n = 10⁶ would be tens of MB of
/// edge lines) and reports its memory on stderr stage by stage.
fn elect_command(args: &Args) -> Result<i32, String> {
    let model: ModelKind = args.value("--model")?.unwrap_or_default();
    let source = match args.value::<FamilySpec>("--family")? {
        Some(family) => ConfigSource::Drawn {
            family,
            // A size-pinned spec (`grid:10x10`) names its own node count.
            n: args
                .value("--size")?
                .unwrap_or_else(|| family.default_size()),
            span: args.value("--span")?.unwrap_or(4),
            tags: args.value("--tags")?.unwrap_or(TagStrategy::Uniform),
            seed: args
                .value("--seed")?
                .unwrap_or(radio_util::rng::DEFAULT_ROOT_SEED),
        },
        None => ConfigSource::Inline(config_text(args)?),
    };
    let drawn = matches!(source, ConfigSource::Drawn { .. });
    let job = OneShotJob {
        source,
        model,
        max_rounds: None,
    };
    // The drawn form's raw data footprint: u32 offsets (n+1) + u32 target
    // slots (2m) + u64 tags (n). The acceptance bar for the scale path is
    // peak RSS within a small constant of this number. Peak RSS is
    // monotonic, so the staged probes attribute memory to each stage.
    let mut footprint = None;
    let stage_peak = |stage: &str| {
        if let Some(peak) = radio_util::mem::peak_rss_bytes() {
            eprintln!("peak rss after {stage}: {:.1} MiB", mib(peak));
        }
    };
    let elected = anon_radio::serve::elect(
        &mut CampaignWorkspace::new(),
        &job,
        &mut |stage| match (stage, &job.source) {
            (
                Stage::Built(config),
                ConfigSource::Drawn {
                    family, span, tags, ..
                },
            ) => {
                let csr = config.csr();
                let bytes = 4 * (csr.node_count() as u64 + 1)
                    + 8 * csr.edge_count() as u64
                    + 8 * csr.node_count() as u64;
                eprintln!(
                    "{family} n={} m={} span={span} tags={tags} | csr+tags footprint: {:.1} MiB",
                    config.size(),
                    csr.edge_count(),
                    mib(bytes)
                );
                footprint = Some(bytes);
                stage_peak("graph build");
            }
            (Stage::Compiled(classifier), _) => {
                if drawn {
                    stage_peak("classify+compile");
                }
                // A one-shot run never classifies again: free the
                // classifier's buffers before the simulation allocates.
                *classifier = ClassifierWorkspace::new();
            }
            (Stage::Simulated(sim), _) if drawn => {
                eprintln!("sim workspace high-water: {:.1} MiB", mib(sim.mem_bytes()));
            }
            _ => {}
        },
    );
    let mut out = Stdout::new();
    let code = match elected.map(|elected| (elected.config, elected.outcome)) {
        Ok((config, Ok(report))) => {
            if !drawn {
                out.println(&config);
            }
            out.println(format_args!(
                "model: {model} | leader: v{} | phases: {} | local rounds: {} | \
                 done by global round {} | transmissions: {} | \
                 engine: {} stepped + {} leapt | \
                 visits: {} decides + {} horizon queries | deliveries: {}",
                report.leader,
                report.phases,
                report.rounds_local,
                report.completion_round,
                report.transmissions,
                report.rounds_stepped,
                report.rounds_leapt,
                report.decides,
                report.horizon_queries,
                report.deliveries
            ));
            0
        }
        Ok((_, Err(infeasible))) => {
            eprintln!("election failed under model {model}: {infeasible}");
            return Ok(1);
        }
        Err(JobError::BadRequest(msg)) => return Err(msg),
        Err(e) => {
            eprintln!("election failed under model {model}: {e}");
            1
        }
    };
    if let (Some(footprint), Some(peak)) = (footprint, radio_util::mem::peak_rss_bytes()) {
        eprintln!(
            "peak rss: {:.1} MiB ({:.2}× the csr+tags footprint)",
            mib(peak),
            peak as f64 / footprint as f64
        );
    }
    Ok(out.finish(code))
}

/// `anon-radio campaign` — execute a declarative election campaign grid
/// shard by shard and emit one JSONL aggregate row per cell.
fn campaign_command(args: &Args) -> Result<i32, String> {
    let phase = args.value("--phase")?.unwrap_or(Phase::Elect);
    // The classify phase runs no simulation: its grid is family × n ×
    // span, and a model axis would silently multiply identical rows.
    let models = match (phase, args.list("--models", "model")?) {
        (Phase::Classify, Some(_)) => {
            return Err(
                "--models does not apply to --phase classify (no simulation runs; \
                 the grid is family × n × span)"
                    .to_string(),
            )
        }
        (Phase::Classify, None) => vec![ModelKind::NoCollisionDetection],
        (Phase::Elect, models) => models.unwrap_or_else(|| ModelKind::ALL.to_vec()),
    };
    let binary_rows = match args.text("--row-format") {
        None | Some("jsonl") => false,
        Some("binary") => true,
        Some(other) => {
            return Err(format!(
                "--row-format must be `jsonl` or `binary`, got `{other}`"
            ))
        }
    };
    let out = args.text("--out");
    // Binary output is a file format, not a stream format: stdout would
    // interleave raw bytes with a terminal.
    if binary_rows && out.is_none() {
        return Err("--row-format binary requires --out FILE".to_string());
    }
    let resume_from = args.value("--resume-from")?.unwrap_or(0usize);
    if let Some(path) = out.filter(|_| resume_from > 0) {
        if std::path::Path::new(path).exists() {
            return Err(format!(
                "{path} already exists — a resumed campaign emits rows for the \
                 remaining shards only, and writing them here would destroy the \
                 interrupted run's checkpoint; pass a fresh --out path and combine \
                 the two files afterwards"
            ));
        }
    }
    let batch = match (args.switch("--no-batch"), args.value("--batch-size")?) {
        (true, Some(_)) => return Err("--batch-size conflicts with --no-batch".to_string()),
        (true, None) => BatchConfig::disabled(),
        (false, Some(0)) => {
            return Err("--batch-size must be at least 1 (or pass --no-batch)".to_string())
        }
        (false, Some(size)) => BatchConfig::with_size(size),
        (false, None) => BatchConfig::default(),
    };
    let spec = CampaignSpec {
        phase,
        families: args
            .list("--families", "family")?
            .unwrap_or_else(|| vec![FamilySpec::Path, FamilySpec::Star]),
        tags: args
            .list("--tags", "tag strategy")?
            .unwrap_or_else(|| vec![TagStrategy::Uniform]),
        sizes: args.list("--sizes", "size")?.unwrap_or_else(|| vec![8]),
        spans: args.list("--spans", "span")?.unwrap_or_else(|| vec![4]),
        models,
        reps: args.count("--reps")?.unwrap_or(3),
        seed: args
            .value("--seed")?
            .unwrap_or(radio_util::rng::DEFAULT_ROOT_SEED),
        opts: RunOpts::default(),
        cache: cache_policy(args, CacheConfig::default())?,
        batch,
    };
    let shards = args.count("--shards")?.unwrap_or(8);
    let threads = args
        .count("--threads")?
        .unwrap_or_else(radio_sim::parallel::default_threads);
    // Whole-grid validation: every family × size cell must be realizable
    // as-is — an unrealizable one (a cycle below 3 nodes) is an error,
    // never a clamp, so no row's "n" can disagree with its simulated
    // graph. A size-pinned family (grid:16x4) replaces the size axis with
    // its own node count.
    spec.validate()?;
    let total = spec.total_runs();
    let reps = spec.reps;
    let mut runner = CampaignRunner::new(spec, shards);
    // An out-of-range cursor is a usage error, not a no-op: silently
    // clamping used to exit 0 with a garbled resume note and an all-null
    // `runs:0` row per cell — rows that poison a merged checkpoint.
    if resume_from >= runner.shard_count() {
        return Err(format!(
            "--resume-from {resume_from} is out of range — this campaign has {} \
             shard(s), so valid resume cursors are 0..{} (the cursor is the shard number \
             printed by the interrupted run's last checkpoint line)",
            runner.shard_count(),
            runner.shard_count()
        ));
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
                return Ok(1);
            }
        }
    }

    // End-of-run cache summary: hit/miss/eviction totals surface key
    // stability regressions without parsing JSONL.
    match runner.cache_stats() {
        Some(stats) => eprintln!(
            "cache: {} hit(s), {} miss(es), {} eviction(s)",
            stats.exact_hits, stats.misses, stats.evictions
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
        eprintln!("peak rss: {:.1} MiB", mib(peak));
    }
    match &out {
        Some(path) => {
            // Already checkpointed after the final shard; rewrite once
            // more to cover the zero-shard (fully skipped) case.
            if let Err(e) = write_rows_as(path, &runner, binary_rows) {
                eprintln!("error: could not write {path}: {e}");
                return Ok(1);
            }
            eprintln!(
                "wrote {} {} row(s) to {path}",
                runner.aggregates().count(),
                if binary_rows { "binary" } else { "JSONL" }
            );
            Ok(0)
        }
        None => {
            let mut stdout = Stdout::new();
            for row in &runner.jsonl_rows() {
                stdout.println(row);
            }
            Ok(stdout.finish(0))
        }
    }
}

/// `anon-radio serve` — the resident election service: long-lived workers
/// with warm workspaces and a shared schedule cache answering
/// `elect`/`classify`/`campaign-cell` jobs over line-delimited JSON.
/// Protocol and supervision semantics live in [`anon_radio::serve`].
fn serve_command(args: &Args) -> Result<i32, String> {
    use anon_radio::serve::{serve_session, serve_tcp};

    let (tcp, unix_path) = (args.text("--tcp"), args.text("--unix"));
    let stdin_stdout = args.switch("--stdin-stdout");
    let transports =
        usize::from(stdin_stdout) + usize::from(tcp.is_some()) + usize::from(unix_path.is_some());
    if transports != 1 {
        return Err(
            "pass exactly one transport: --stdin-stdout, --tcp ADDR, or --unix PATH".to_string(),
        );
    }
    let opts = ServeOptions {
        threads: args
            .count("--threads")?
            .unwrap_or_else(radio_sim::parallel::default_threads),
        queue: args.count("--queue")?.unwrap_or(16),
        cache: cache_policy(args, ServeOptions::default().cache)?,
    };
    if stdin_stdout {
        // `Stdin` and `Stdout` (not their locks) go to the lanes: the
        // handles are Send, and stdout line-buffers exactly like the
        // campaign row stream.
        let mut out = std::io::stdout();
        let input = std::io::BufReader::new(std::io::stdin());
        let summary = serve_session(input, &mut out, &opts);
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
        return Ok(0);
    }
    if let Some(addr) = tcp {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| format!("cannot bind tcp {addr}: {e}"))?;
        if let Ok(local) = listener.local_addr() {
            eprintln!(
                "serve: listening on tcp {local} ({} workspace(s), {} lane(s) per connection)",
                opts.threads,
                opts.lanes()
            );
        }
        return Ok(shut_down(serve_tcp(listener, &opts)));
    }
    serve_unix_at(unix_path.expect("transport count was checked"), &opts)
}

/// Reports how a socket daemon ended and returns the exit code.
fn shut_down(result: std::io::Result<()>) -> i32 {
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

#[cfg(unix)]
fn serve_unix_at(path: &str, opts: &ServeOptions) -> Result<i32, String> {
    // A stale socket file from a previous run would make bind fail; a
    // *live* one should. Only remove paths that are sockets.
    if let Ok(meta) = std::fs::symlink_metadata(path) {
        use std::os::unix::fs::FileTypeExt as _;
        if !meta.file_type().is_socket() {
            return Err(format!("{path} exists and is not a socket"));
        }
    }
    let listener = std::os::unix::net::UnixListener::bind(path).map_err(|e| {
        format!("cannot bind unix socket {path}: {e} (remove the file if it is stale)")
    })?;
    eprintln!(
        "serve: listening on unix {path} ({} workspace(s), {} lane(s) per connection)",
        opts.threads,
        opts.lanes()
    );
    let result = anon_radio::serve::serve_unix(listener, opts);
    let _ = std::fs::remove_file(path);
    Ok(shut_down(result))
}

#[cfg(not(unix))]
fn serve_unix_at(_path: &str, _opts: &ServeOptions) -> Result<i32, String> {
    Err("--unix sockets are only available on unix platforms (use --tcp)".to_string())
}

/// Writes the campaign's rows to `path` in the selected format (whole-file
/// rewrite — rows are running aggregates, so each checkpoint supersedes
/// the previous one).
fn write_rows_as(path: &str, runner: &CampaignRunner, binary: bool) -> std::io::Result<()> {
    if binary {
        std::fs::write(path, anon_radio::row::write_binary(&runner.rows()))
    } else {
        let mut body = runner.jsonl_rows().join("\n");
        body.push('\n');
        std::fs::write(path, body)
    }
}

/// `anon-radio rows convert <in> <out>` — flip a row file between the
/// JSONL and compact binary encodings (the direction is sniffed from the
/// input's magic bytes). The conversion is lossless in both directions.
fn rows_command(args: &Args) -> Result<i32, String> {
    let (input, output) = match args.positionals.as_slice() {
        [convert, input, output] if convert == "convert" => (input, output),
        _ => {
            eprintln!("usage: anon-radio rows convert <in> <out>");
            return Ok(2);
        }
    };
    let bytes = std::fs::read(input).map_err(|e| format!("could not read {input}: {e}"))?;
    let converted = if anon_radio::row::is_binary(&bytes) {
        anon_radio::row::binary_to_jsonl(&bytes).map(String::into_bytes)
    } else {
        let text = String::from_utf8(bytes)
            .map_err(|e| format!("{input} is neither binary rows nor UTF-8 JSONL: {e}"))?;
        anon_radio::row::jsonl_to_binary(&text)
    };
    match converted.map(|data| std::fs::write(output, data)) {
        Ok(Ok(())) => Ok(0),
        Ok(Err(e)) => {
            eprintln!("error: could not write {output}: {e}");
            Ok(1)
        }
        Err(e) => {
            eprintln!("error: {input}: {e}");
            Ok(1)
        }
    }
}

/// `anon-radio family g|h|s <m>` — print a paper family configuration.
/// `m` is checked against the family's domain before anything is built.
fn family_command(args: &Args) -> Result<i32, String> {
    let [kind, m] = args.positionals.as_slice() else {
        return Ok(usage());
    };
    let m: u64 = m
        .parse()
        .map_err(|_| format!("family {kind}: m must be a whole number, got `{m}`"))?;
    let config = match kind.as_str() {
        "g" if m < 2 => return Err(format!("family g needs m ≥ 2, got {m}")),
        "g" => {
            // G_m is a path on 4m + 1 nodes, so it gets the bound that
            // `elect --family path --size` enforces.
            let n = usize::try_from(m)
                .ok()
                .and_then(|m| m.checked_mul(4)?.checked_add(1))
                .ok_or_else(|| format!("family g {m}: 4m + 1 nodes overflow usize"))?;
            FamilySpec::Path
                .check_size(n)
                .map_err(|e| format!("family g {m}: G_m is a path on 4m + 1 nodes, and {e}"))?;
            families::g_m(m as usize)
        }
        "h" if m == 0 || m == u64::MAX => {
            return Err(format!("family h needs 1 ≤ m < {}, got {m}", u64::MAX))
        }
        "h" => families::h_m(m),
        "s" if m == 0 => return Err("family s needs m ≥ 1, got 0".to_string()),
        "s" => families::s_m(m),
        _ => return Err(format!("unknown family {kind} (expected g, h or s)")),
    };
    let mut out = Stdout::new();
    out.print(io::to_text(&config));
    Ok(out.finish(0))
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
         \u{20}                                 (--model no-cd|cd|beep selects the channel,\n\
         \u{20}                                 also for elect --family)\n\
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
         \u{20}      --shards K --threads T --seed N --resume-from S --out FILE\n\
         \u{20}      --cache-capacity N  memoize classify+compile across repeated shapes\n\
         \u{20}                       in a schedule cache of ~N entries (elect phase;\n\
         \u{20}                       campaigns run uncached by default; rows are\n\
         \u{20}                       bit-identical either way)\n\
         \u{20}      --no-cache       run uncached (the campaign default)\n\
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
         \u{20}                                 warm workspaces + a shared schedule\n\
         \u{20}                                 cache answer line-delimited JSON\n\
         \u{20}                                 jobs (elect, classify, campaign-cell,\n\
         \u{20}                                 shutdown); replies stream in submission\n\
         \u{20}                                 order, one line each\n\
         \u{20}      --stdin-stdout   serve one session over stdin/stdout (CI mode)\n\
         \u{20}      --tcp ADDR       listen on a TCP address (e.g. 127.0.0.1:7878)\n\
         \u{20}      --unix PATH      listen on a Unix-domain socket\n\
         \u{20}      --threads T      jobs run at once, daemon-wide (one warm\n\
         \u{20}                       workspace each)\n\
         \u{20}      --queue Q        jobs one connection has read and not yet\n\
         \u{20}                       answered: it runs on min(T, Q) lanes\n\
         \u{20}      --no-cache / --cache-capacity N  shared schedule-cache policy\n\
         \u{20}                       (default: a cache of ~2048 entries)\n\
         \n\
         a flag takes its value as `--seed 5` or `--seed=5`; a subcommand rejects\n\
         (exit 2) any flag or argument it does not use, and counts (--reps,\n\
         --shards, --threads, --queue) must be at least 1\n\
         \n\
         configuration file format: see `radio-graph::io` docs";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_flag_table_and_usage_name_the_same_flags() {
        let mut in_usage: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .filter(|word| word.starts_with("--") && *word != "--help")
            .collect();
        in_usage.sort_unstable();
        in_usage.dedup();
        let mut in_table: Vec<&str> = FLAGS.iter().map(|flag| flag.0).collect();
        in_table.sort_unstable();
        assert_eq!(in_usage, in_table);
        // …and every subcommand a row names exists.
        let mut forms = FLAGS.iter().flat_map(|flag| flag.2);
        assert!(forms.all(|form| SUBCOMMANDS.iter().any(|sub| sub.0 == *form)));
    }
}
