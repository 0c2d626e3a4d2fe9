//! The experiments CLI: regenerates every table of `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run --release -p radio-bench --bin experiments               # all, full effort
//! cargo run --release -p radio-bench --bin experiments -- e4 e5     # a subset
//! cargo run --release -p radio-bench --bin experiments -- --quick   # CI sizes
//! cargo run --release -p radio-bench --bin experiments -- --out results
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;

use radio_bench::{registry, Effort};
use radio_util::json::Writer;
use radio_util::rng::DEFAULT_ROOT_SEED;

fn main() {
    let mut effort = Effort::Full;
    let mut seed = DEFAULT_ROOT_SEED;
    let mut out_dir: Option<PathBuf> = None;
    let mut bench_json: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => effort = Effort::Quick,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                out_dir = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--out needs a directory")),
                ));
            }
            "--bench-json" => {
                bench_json = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--bench-json needs a path")),
                ));
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--quick] [--seed N] [--out DIR] [e1 e2 … e10]\n\
                     runs the paper-claim experiments (all by default) and prints\n\
                     Markdown tables; --out also writes <id>_<k>.md/.csv files\n\
                     --bench-json PATH  instead measure the campaign dedupe (on vs\n\
                     --no-batch) and the million-node scale\n\
                     path (CSR-direct + streaming elect at 10⁵/10⁶ nodes), appending\n\
                     one JSON trajectory row per measurement to PATH"
                );
                return;
            }
            id if id.starts_with('e') => wanted.push(id.to_string()),
            other => die(&format!("unknown argument `{other}`")),
        }
    }

    if let Some(path) = &bench_json {
        bench_batch(path, seed);
        bench_scale(path, seed);
        return;
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    for experiment in registry() {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == experiment.id) {
            continue;
        }
        eprintln!("── running {} — {}", experiment.id, experiment.claim);
        let started = std::time::Instant::now();
        let tables = (experiment.run)(effort, seed);
        eprintln!("   done in {:.2?}", started.elapsed());
        println!(
            "## {} — {}\n",
            experiment.id.to_uppercase(),
            experiment.claim
        );
        for (k, table) in tables.iter().enumerate() {
            println!("{}", table.to_markdown());
            if let Some(dir) = &out_dir {
                let stem = format!("{}_{}", experiment.id, k);
                std::fs::write(dir.join(format!("{stem}.md")), table.to_markdown())
                    .expect("write table markdown");
                std::fs::write(dir.join(format!("{stem}.csv")), table.to_csv())
                    .expect("write table csv");
            }
        }
    }
}

/// `--bench-json`: time the 10k-rep small-graph elect campaign of
/// `benches/batch_engine.rs` with the slice dedupe on (default slice
/// length) and off (`--no-batch`), best of three passes each after a
/// warm-up, and append one machine-readable trajectory row — so future
/// changes can see the dedupe's perf curve without re-deriving the
/// workload.
fn bench_batch(path: &std::path::Path, seed: u64) {
    use radio_bench::campaign::{
        BatchConfig, CampaignRunner, CampaignSpec, FamilySpec, Phase, TagStrategy,
    };
    use radio_sim::{ModelKind, RunOpts};

    let spec = |batch: BatchConfig| CampaignSpec {
        phase: Phase::Elect,
        families: vec![FamilySpec::Path, FamilySpec::Star],
        tags: vec![TagStrategy::Arith { stride: 1 }],
        sizes: vec![8],
        spans: vec![4],
        models: vec![ModelKind::Beeping],
        reps: 5_000,
        seed,
        opts: RunOpts::default(),
        cache: radio_bench::campaign::CacheConfig::default(),
        batch,
    };
    let threads = radio_sim::parallel::default_threads();
    let runs = spec(BatchConfig::default()).total_runs();
    let time = |batch: BatchConfig| -> f64 {
        let mut best = f64::INFINITY;
        for pass in 0..4 {
            let mut runner = CampaignRunner::new(spec(batch), 1);
            let started = std::time::Instant::now();
            runner.run_to_completion(threads);
            let ns = started.elapsed().as_nanos() as f64 / runs as f64;
            if pass > 0 {
                best = best.min(ns); // pass 0 is the warm-up
            }
        }
        best
    };
    let sequential = time(BatchConfig::disabled());
    let deduped = time(BatchConfig::default());
    let row = Writer::default()
        .str("bench", "batch_engine")
        .u64("runs", runs as u64)
        .u64("threads", threads as u64)
        .u64("slice", BatchConfig::DEFAULT_SIZE as u64)
        .raw("sequential_ns_per_run", &format!("{sequential:.0}"))
        .raw("deduped_ns_per_run", &format!("{deduped:.0}"))
        .raw("speedup", &format!("{:.3}", sequential / deduped))
        .finish();
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open --bench-json path");
    writeln!(file, "{row}").expect("append bench row");
    eprintln!(
        "campaign dedupe: off {:.0} ns/run, on {:.0} ns/run — {:.2}× \
         ({} runs, {} threads; row appended to {})",
        sequential,
        deduped,
        sequential / deduped,
        runs,
        threads,
        path.display()
    );
}

/// `--bench-json`: walk the million-node scale path (CSR-direct star
/// generation → classify + compile → streaming length-only elect) at
/// n = 10⁵ and 10⁶ and append one trajectory row per size with the
/// per-node costs and the process peak RSS — the longitudinal record the
/// `scale.rs` bench gates cross-section.
fn bench_scale(path: &std::path::Path, seed: u64) {
    use radio_graph::{tags::TagStrategy, Configuration, FamilySpec};
    use radio_sim::{ModelKind, RunOpts, SimWorkspace};

    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open --bench-json path");
    for n in [100_000usize, 1_000_000] {
        let gen_started = std::time::Instant::now();
        let csr = FamilySpec::Star.build_csr(n, seed).expect("star builds");
        let gen_ns = gen_started.elapsed().as_nanos() as f64 / n as f64;
        let tags = TagStrategy::Extremes.draw(n, 3, &mut radio_util::rng::rng_from(seed));
        let config = Configuration::from_csr(csr, tags).expect("star configuration");
        let mut sim = SimWorkspace::new();
        let elect_started = std::time::Instant::now();
        let compiled = anon_radio::solve(&config).expect("star elects");
        let outcome = compiled
            .run_in(
                &mut sim,
                &config,
                ModelKind::NoCollisionDetection,
                RunOpts::default(),
            )
            .expect("run completes");
        assert!((outcome.leader as usize) < n, "star must elect a leader");
        let elect_ns = elect_started.elapsed().as_nanos() as f64 / n as f64;
        let peak = radio_util::mem::peak_rss_bytes().unwrap_or(0);
        let row = Writer::default()
            .str("bench", "scale_path")
            .str("family", "star")
            .u64("n", n as u64)
            .raw("gen_ns_per_node", &format!("{gen_ns:.1}"))
            .raw("elect_ns_per_node", &format!("{elect_ns:.1}"))
            .u64("peak_rss_bytes", peak)
            .finish();
        writeln!(file, "{row}").expect("append bench row");
        eprintln!(
            "scale path: star n={n}: csr-direct {gen_ns:.1} ns/node, streaming elect \
             {elect_ns:.1} ns/node, peak rss {:.1} MiB (row appended to {})",
            peak as f64 / (1024.0 * 1024.0),
            path.display()
        );
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
