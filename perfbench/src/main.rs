//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! [--smoke]`
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object per workload run. A traced run writes its spans
//! to `$CARGO_TARGET_DIR/perfbench-traces/` (default `.bench_build`). Exits
//! 1 when an output check fails, 2 on a usage error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use radio_perfbench::{run, Settings, Workload};

const USAGE: &str = "usage: perfbench --workload <elect-sparse|elect-dense|campaign-mixed|\
serve-mixed|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads = match name.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    one => vec![Workload::parse(one).ok_or(format!("unknown workload `{one}`"))?],
                }
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// Where a traced run's spans go: under the build directory, which the
/// checkout already ignores.
fn trace_path(args: &Args, workload: Workload) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
        .join("perfbench-traces")
        .join(format!("{}-seed{}.jsonl", workload.name(), args.seed))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for &workload in &args.workloads {
        let settings = Settings {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
            trace_out: args.trace.then(|| trace_path(&args, workload)),
        };
        let outcome = run(&settings);
        eprint!("{}", outcome.report(workload));
        println!("{}", outcome.json());
        all_correct &= outcome.correct();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
