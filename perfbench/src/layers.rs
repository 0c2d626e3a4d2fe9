//! The one-shot elect path through each layer's public calls, the work
//! counters it folds, and the per-layer metric record of a traced run.

use anon_radio::{CompiledElection, ElectionReport};
use radio_classifier::{ClassifierWorkspace, ClassifySummary};
use radio_graph::Configuration;
use radio_sim::{ModelKind, RunOpts, SimWorkspace};

use crate::stats::ratio;
use crate::{metric, Metric};

/// The workspaces one single-threaded elect path reuses across runs.
#[derive(Debug, Default)]
pub struct Engines {
    /// Classifier buffers (classify, compile).
    pub classifier: ClassifierWorkspace,
    /// Engine buffers (simulate).
    pub sim: SimWorkspace,
}

/// Deterministic work counters of one set of configurations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Configurations classified.
    pub configs: u64,
    /// Their total node count.
    pub nodes: u64,
    /// Classifier refinement iterations.
    pub iterations: u64,
    /// Classifier label computations.
    pub relabels: u64,
    /// Phases of the elections that ran.
    pub phases: u64,
    /// Rounds the engine stepped one by one.
    pub stepped: u64,
    /// Rounds the engine leapt over.
    pub leapt: u64,
    /// Transmissions.
    pub transmissions: u64,
    /// Σ stepped rounds × n: the node visits of round-by-round stepping.
    pub node_rounds: u64,
}

/// Compiles and simulates `config` under the paper's channel model, with a
/// span around each layer call. Returns the classifier's summary with the
/// election report (`None` for an infeasible configuration), or an error
/// when the election fails or breaks the `n · phases` transmission budget.
pub fn elect_config(
    config: &Configuration,
    engines: &mut Engines,
    tracer: &mut crate::trace::Tracer,
    op: u64,
    counters: &mut Counters,
) -> Result<(ClassifySummary, Option<ElectionReport>), String> {
    tracer.enter("schedule.compile", op);
    let compiled = CompiledElection::compile_in(&mut engines.classifier, config);
    tracer.exit();
    let summary = compiled.summary();
    counters.configs += 1;
    counters.nodes += config.size() as u64;
    counters.iterations += summary.iterations as u64;
    counters.relabels += summary.relabels;
    if !compiled.feasible() {
        return Ok((summary, None));
    }
    tracer.enter("sim.simulate", op);
    let result = compiled.run_in(
        &mut engines.sim,
        config,
        ModelKind::default(),
        RunOpts::default(),
    );
    tracer.exit();
    let report = result.map_err(|e| format!("op {op}: election failed: {e}"))?;
    let n = config.size() as u64;
    if report.transmissions != n * report.phases as u64 {
        return Err(format!(
            "op {op}: {} transmissions, expected n·phases = {}",
            report.transmissions,
            n * report.phases as u64
        ));
    }
    counters.phases += report.phases as u64;
    counters.stepped += report.rounds_stepped;
    counters.leapt += report.rounds_leapt;
    counters.transmissions += report.transmissions;
    counters.node_rounds += report.rounds_stepped * n;
    Ok((summary, Some(report)))
}

/// Classifies `config` on its own, outside any op span, so a compile's
/// self time can be told apart from the classification it contains.
/// Traced runs call it after each compiled configuration, in the untraced
/// repetitions they compare against too, so it never counts as tracing
/// overhead.
pub fn classify_apart(
    config: &Configuration,
    engines: &mut Engines,
    tracer: &mut crate::trace::Tracer,
    op: u64,
) {
    tracer.enter(COMPILE_CLASSIFY, op);
    std::hint::black_box(engines.classifier.summarize_in(config));
    tracer.exit();
}

/// Span name of [`classify_apart`].
const COMPILE_CLASSIFY: &str = "schedule.compile.classify";

/// Folds an election's deterministic fields (leader, phases,
/// transmissions, completion round) into a running digest.
pub fn fold_report(digest: u64, report: &ElectionReport) -> u64 {
    [
        u64::from(report.leader),
        report.phases as u64,
        report.transmissions,
        report.completion_round,
    ]
    .into_iter()
    .fold(digest, |acc, x| radio_util::rng::splitmix64(acc ^ x))
}

/// Cache outcomes and occupancy seen by a workload.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounts {
    /// Lookups (hits + misses).
    pub lookups: u64,
    /// Hits answered from the configuration fingerprint.
    pub exact_hits: u64,
    /// Hits answered from the refinement-trace key.
    pub canonical_hits: u64,
    /// Lookups that classified and compiled.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries held at the end.
    pub entries: u64,
}

/// Everything a traced run reports, per layer. Times are seconds per
/// attribution set: one pass of an elect workload, or the replayed sample
/// of a campaign or serve workload (see `BENCHMARK.md`).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// `graph.generate` self time.
    pub generate_s: f64,
    /// `classifier.classify` self time.
    pub classify_s: f64,
    /// `schedule.compile` self time minus the classification inside it.
    pub compile_s: f64,
    /// `sim.simulate` self time.
    pub simulate_s: f64,
    /// Total of the `op` spans that enclose the layer calls.
    pub op_s: f64,
    /// Work counters of the attribution set.
    pub counters: Counters,
    /// Classifier workspace high-water mark, bytes.
    pub classifier_mem: u64,
    /// Simulation workspace high-water mark, bytes.
    pub sim_mem: u64,
    /// Cache outcomes.
    pub cache: CacheCounts,
    /// `campaign.shard` time per pass.
    pub shard_s: f64,
    /// Σ per-run wall time ÷ (threads × shard wall time).
    pub busy_frac: f64,
    /// Largest per-run workspace high-water mark in the rows, bytes.
    pub mem_hw: u64,
    /// `row.encode_jsonl` time per pass.
    pub encode_jsonl_s: f64,
    /// `row.encode_binary` time per pass.
    pub encode_binary_s: f64,
    /// JSONL bytes per pass.
    pub jsonl_bytes: u64,
    /// Binary row bytes per pass.
    pub binary_bytes: u64,
    /// Median per-job compute of the replayed served jobs, ms.
    pub compute_ms: f64,
    /// Median per-job latency minus compute of the same jobs, ms.
    pub overhead_ms: f64,
    /// Replies received.
    pub replies: u64,
    /// Replies with `"ok":false`.
    pub errors: u64,
    /// Jobs sent without a reply.
    pub dropped: u64,
    /// Traced pass wall time over untraced, minus one.
    pub trace_overhead: f64,
}

impl Layers {
    /// Fills the path-layer times from a tracer's self times, divided over
    /// `sets` repetitions of the attribution set.
    /// Classification is that of `classify` jobs plus the part of each
    /// compile measured by [`classify_apart`].
    pub fn attribute(&mut self, tracer: &crate::trace::Tracer, sets: usize) {
        let own = tracer.self_seconds();
        let per = |name: &str| own.get(name).copied().unwrap_or(0.0) / sets.max(1) as f64;
        self.generate_s = per("graph.generate");
        self.classify_s = per("classifier.classify") + per(COMPILE_CLASSIFY);
        self.compile_s = per("schedule.compile") - per(COMPILE_CLASSIFY);
        self.simulate_s = per("sim.simulate");
        self.op_s = tracer.total_seconds("op") / sets.max(1) as f64;
    }

    /// Records the workspaces' high-water marks.
    pub fn workspaces(&mut self, engines: &Engines) {
        self.classifier_mem = self.classifier_mem.max(engines.classifier.mem_bytes());
        self.sim_mem = self.sim_mem.max(engines.sim.mem_bytes());
    }

    /// The per-layer metrics of the result line, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.counters;
        let k = &self.cache;
        vec![
            metric("graph.generate_s", "s", self.generate_s),
            metric(
                "graph.ns_per_node",
                "ns",
                ratio(self.generate_s * 1e9, c.nodes as f64),
            ),
            metric("classifier.classify_s", "s", self.classify_s),
            metric("classifier.iterations", "count", c.iterations as f64),
            metric("classifier.relabels", "count", c.relabels as f64),
            metric("classifier.mem_mib", "MiB", mib(self.classifier_mem)),
            metric("schedule.compile_s", "s", self.compile_s),
            metric("schedule.phases", "count", c.phases as f64),
            metric("cache.lookups", "count", k.lookups as f64),
            metric("cache.exact_hits", "count", k.exact_hits as f64),
            metric(
                "cache.hit_ratio",
                "fraction",
                ratio((k.exact_hits + k.canonical_hits) as f64, k.lookups as f64),
            ),
            metric("cache.entries", "count", k.entries as f64),
            metric("sim.simulate_s", "s", self.simulate_s),
            metric("sim.rounds_stepped", "count", c.stepped as f64),
            metric("sim.rounds_leapt", "count", c.leapt as f64),
            metric("sim.transmissions", "count", c.transmissions as f64),
            metric("sim.node_rounds", "count", c.node_rounds as f64),
            metric(
                "sim.ns_per_node_round",
                "ns",
                ratio(self.simulate_s * 1e9, c.node_rounds as f64),
            ),
            metric(
                "sim.tx_per_node_round",
                "fraction",
                ratio(c.transmissions as f64, c.node_rounds as f64),
            ),
            metric("sim.mem_mib", "MiB", mib(self.sim_mem)),
            metric("sim.share", "fraction", ratio(self.simulate_s, self.op_s)),
            metric("trace.overhead_frac", "fraction", self.trace_overhead),
        ]
    }

    /// Figures that read 0 on some `BENCHMARK.json` workload: the layer is not on
    /// its path (campaign and row encode on serve-mixed, serve on
    /// campaign-mixed), the workload never takes that branch (no canonical
    /// hits on either; no misses or evictions on serve-mixed's warm cache),
    /// or any other value already fails the run (errors, dropped replies).
    /// The result line carries the same metrics on every workload and only
    /// figures every `BENCHMARK.json` workload measures, so these go to the report.
    pub fn report_only(&self) -> Vec<Metric> {
        let k = &self.cache;
        vec![
            metric("cache.canonical_hits", "count", k.canonical_hits as f64),
            metric("cache.misses", "count", k.misses as f64),
            metric("cache.evictions", "count", k.evictions as f64),
            metric("campaign.shard_s", "s", self.shard_s),
            metric("campaign.busy_frac", "fraction", self.busy_frac),
            metric("campaign.mem_hw_mib", "MiB", mib(self.mem_hw)),
            metric("row.encode_jsonl_s", "s", self.encode_jsonl_s),
            metric("row.encode_binary_s", "s", self.encode_binary_s),
            metric("row.jsonl_bytes", "bytes", self.jsonl_bytes as f64),
            metric("row.binary_bytes", "bytes", self.binary_bytes as f64),
            metric("serve.compute_ms", "ms", self.compute_ms),
            metric("serve.overhead_ms", "ms", self.overhead_ms),
            metric("serve.replies", "count", self.replies as f64),
            metric("serve.errors", "count", self.errors as f64),
            metric("serve.dropped", "count", self.dropped as f64),
        ]
    }
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}
