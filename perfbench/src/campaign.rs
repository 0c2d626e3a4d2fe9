//! `campaign-mixed`: an elect-phase campaign over a 90-cell grid on one
//! worker thread, with the default schedule cache and batching, its rows
//! encoded to JSONL and to the binary format.

use anon_radio::campaign::BatchConfig;
use anon_radio::row::{binary_to_jsonl, write_binary, CampaignRow, RowStats};
use anon_radio::{CacheConfig, CampaignRunner, CampaignSpec, Phase};
use radio_sim::{ModelKind, RunOpts};
use radio_util::rng::{derive, splitmix64};

use crate::layers::{classify_apart, elect_config, CacheCounts, Counters, Engines, Layers};
use crate::stats::ratio;
use crate::trace::Tracer;
use crate::{finish_traced, replay_traced, run_cycles, time_it, Meter, Outcome, Settings, REPLAYS};

/// Worker threads of the campaign runner. One: with two, a pass ran on
/// both of the test host's two cores, and any other process there (the
/// kernel, another tenant) stalled one half of every cell.
pub const THREADS: usize = 1;

const FAMILIES: [&str; 10] = [
    "path",
    "cycle",
    "star",
    "grid:4x8",
    "torus:4x8",
    "hypercube:5",
    "random-tree",
    "gnp",
    "caterpillar:8x3",
    "bipartite:4x28",
];
const TAGS: [&str; 3] = ["uniform", "clustered", "arith:2"];

/// The campaign of one pass: 10 families × 3 tag strategies × n {32, 128}
/// (pinned families contribute their own size) × σ {8, 64}, 100 reps per
/// cell, one channel model. Smoke mode keeps the grid with 2 reps and
/// n {8, 16}.
pub fn spec(seed: u64, smoke: bool) -> CampaignSpec {
    CampaignSpec {
        phase: Phase::Elect,
        families: FAMILIES
            .iter()
            .map(|f| f.parse().expect("valid family spec"))
            .collect(),
        tags: TAGS
            .iter()
            .map(|t| t.parse().expect("valid tag strategy"))
            .collect(),
        sizes: if smoke { vec![8, 16] } else { vec![32, 128] },
        spans: vec![8, 64],
        models: vec![ModelKind::default()],
        reps: if smoke { 2 } else { 100 },
        seed: derive(seed, "campaign-mixed"),
        opts: RunOpts::default(),
        cache: CacheConfig::default(),
        batch: BatchConfig::default(),
    }
}

/// What one pass produced, kept for the checks after the timed region.
struct PassOutput {
    rows: Vec<CampaignRow>,
    jsonl: Vec<String>,
    binary: Vec<u8>,
    shard_s: f64,
    cache: CacheCounts,
}

/// Runs the campaign, one grid cell per shard, then encodes its rows. Each
/// shard is one piece of `meter`, and so are the runner's creation and the
/// encoding; `latencies` gets the shards' scaled times.
fn campaign_pass(
    spec: &CampaignSpec,
    tracer: &mut Tracer,
    pass: usize,
    meter: &mut Meter,
    latencies: &mut Vec<f64>,
) -> PassOutput {
    let cells = spec.cells().len();
    let mut runner = meter.time(|| CampaignRunner::new(spec.clone(), cells));
    let mut shard_s = 0.0;
    while !runner.is_done() {
        let op = (pass * cells + runner.cursor()) as u64;
        let (took, ()) = meter.time(|| {
            time_it(|| {
                tracer.enter("campaign.shard", op);
                runner.run_next_shard(THREADS);
                tracer.exit();
            })
        });
        latencies.push(meter.segments.last().copied().unwrap_or(took));
        shard_s += took;
    }
    let (rows, jsonl, binary) = meter.time(|| {
        tracer.enter("row.encode_jsonl", pass as u64);
        let rows = runner.rows();
        let jsonl: Vec<String> = rows.iter().map(CampaignRow::to_jsonl).collect();
        tracer.exit();
        tracer.enter("row.encode_binary", pass as u64);
        let binary = write_binary(&rows);
        tracer.exit();
        (rows, jsonl, binary)
    });
    let stats = runner.cache_stats().unwrap_or_default();
    PassOutput {
        rows,
        jsonl,
        binary,
        shard_s,
        cache: CacheCounts {
            lookups: stats.lookups(),
            exact_hits: stats.exact_hits,
            canonical_hits: stats.canonical_hits(),
            misses: stats.misses,
            evictions: stats.evictions,
            entries: runner.cache().map_or(0, |c| c.len() as u64),
        },
    }
}

/// Checks one pass's rows; returns the digest of their deterministic
/// prefixes (everything before `,"wall_ns"`).
fn check_pass(spec: &CampaignSpec, out: &PassOutput, failures: &mut Vec<String>) -> u64 {
    let reps = spec.reps as u64;
    if out.rows.len() != spec.cells().len() {
        failures.push(format!(
            "{} rows for {} cells",
            out.rows.len(),
            spec.cells().len()
        ));
    }
    let mut digest = 0u64;
    for (row, line) in out.rows.iter().zip(&out.jsonl) {
        match row {
            CampaignRow::Elect(r)
                if r.runs == reps && r.elected == r.feasible && r.aborted == 0 => {}
            _ => failures.push(format!("cell did not elect on every feasible run: {line}")),
        }
        let prefix = line.split(",\"wall_ns\"").next().unwrap_or(line);
        digest = prefix
            .bytes()
            .fold(digest, |acc, b| splitmix64(acc ^ u64::from(b)));
        match CampaignRow::parse_jsonl(line) {
            Ok(parsed) if parsed.to_jsonl() == *line => {}
            _ => failures.push(format!("JSONL row does not round-trip: {line}")),
        }
    }
    let text: String = out.jsonl.iter().map(|l| format!("{l}\n")).collect();
    match binary_to_jsonl(&out.binary) {
        Ok(decoded) if decoded == text => {}
        Ok(_) => failures.push("binary rows decode to different JSONL".to_string()),
        Err(e) => failures.push(format!("binary rows do not decode: {e}")),
    }
    digest
}

/// Σ per-run wall time over the rows, in seconds, and the largest per-run
/// workspace high-water mark, in bytes.
fn row_tail(rows: &[CampaignRow]) -> (f64, u64) {
    let mut busy_ns = 0.0;
    let mut mem_hw = 0u64;
    for row in rows {
        if let CampaignRow::Elect(r) = row {
            if let Some(RowStats::Present { count, mean, .. }) = r.wall_ns {
                busy_ns += count as f64 * mean;
            }
            if let Some(RowStats::Present { max, .. }) = r.mem_hw {
                mem_hw = mem_hw.max(max as u64);
            }
        }
    }
    (busy_ns * 1e-9, mem_hw)
}

/// Replays rep 0 of every cell single-threaded through the one-shot layer
/// calls, so a traced run can split a campaign run's cost by layer, and
/// times the replay with the tracer off and on for the tracing overhead.
fn replay(spec: &CampaignSpec, tracer: &mut Tracer, failures: &mut Vec<String>) -> Layers {
    let mut engines = Engines::default();
    let mut counters = Counters::default();
    let overhead = replay_traced(tracer, |tracer, rep| {
        counters = Counters::default();
        for (i, cell) in spec.cells().iter().enumerate() {
            let op = i as u64;
            tracer.enter("op", op);
            tracer.enter("graph.generate", op);
            let config = spec.configuration(cell, 0);
            tracer.exit();
            let result = elect_config(&config, &mut engines, tracer, op, &mut counters);
            if let (0, Err(e)) = (rep, result) {
                failures.push(format!("replay of cell {i}: {e}"));
            }
            tracer.exit();
            classify_apart(&config, &mut engines, tracer, op);
        }
    });
    let mut layers = Layers {
        counters,
        trace_overhead: overhead,
        ..Layers::default()
    };
    layers.attribute(tracer, REPLAYS);
    layers.workspaces(&engines);
    layers
}

/// Runs `campaign-mixed`. Each cycle's set-up builds and validates the
/// spec, then runs one rep per cell to warm the worker threads.
pub fn run(settings: &Settings) -> Outcome {
    let mut outcome = Outcome::default();
    let campaign = spec(settings.seed, settings.smoke);
    let warm = CampaignSpec {
        reps: 1,
        seed: derive(settings.seed, "warm-up"),
        ..campaign.clone()
    };
    let mut tracer = Tracer::new(false);
    let mut outputs = Vec::new();
    let mut timing = run_cycles(settings.seconds, |cycle| {
        let mut meter = Meter::new();
        meter.setup(|| {
            if let Err(e) = spec(settings.seed, settings.smoke).validate() {
                outcome.failures.push(format!("invalid campaign: {e}"));
            }
            CampaignRunner::new(warm.clone(), 1).run_to_completion(THREADS);
        });
        tracer.set_on(settings.trace && cycle % 2 == 1);
        let mut latencies = Vec::new();
        let out = campaign_pass(&campaign, &mut tracer, cycle, &mut meter, &mut latencies);
        outputs.push(out);
        meter.cycle(latencies)
    });

    let digests: Vec<u64> = outputs
        .iter()
        .map(|out| check_pass(&campaign, out, &mut outcome.failures))
        .collect();
    if digests.iter().any(|&d| d != digests[0]) {
        outcome
            .failures
            .push(format!("row prefixes differ between passes: {digests:x?}"));
    }
    timing.runs_per_pass = campaign.total_runs() as u64;
    outcome.attempted = timing.runs_per_pass * timing.cycles.len() as u64;
    let last = outputs.last().expect("every run makes cycles");
    outcome.notes.push(format!(
        "{} cycles, row-prefix digest {:016x}, cache per pass: {} hits / {} misses / {} evictions",
        timing.cycles.len(),
        digests[0],
        last.cache.exact_hits + last.cache.canonical_hits,
        last.cache.misses,
        last.cache.evictions
    ));
    if settings.trace {
        let mut layers = replay(&campaign, &mut tracer, &mut outcome.failures);
        let traced = timing.cycles.len() / 2;
        let own = tracer.self_seconds();
        let per_pass_time = |name: &str| own.get(name).copied().unwrap_or(0.0) / traced as f64;
        let (busy_s, mem_hw) = row_tail(&last.rows);
        layers.cache = last.cache;
        layers.shard_s = per_pass_time("campaign.shard");
        layers.busy_frac = ratio(busy_s, THREADS as f64 * last.shard_s);
        layers.mem_hw = mem_hw;
        layers.encode_jsonl_s = per_pass_time("row.encode_jsonl");
        layers.encode_binary_s = per_pass_time("row.encode_binary");
        layers.jsonl_bytes = last.jsonl.iter().map(|l| l.len() as u64 + 1).sum();
        layers.binary_bytes = last.binary.len() as u64;
        finish_traced(settings, &tracer, &layers, &mut outcome);
    } else {
        timing.finish(&mut outcome);
    }
    outcome
}
