//! Declarative election campaigns: graph-family × size × tag-span ×
//! channel-model grids executed shard by shard with streaming aggregation.
//!
//! The paper's experimental claims — and the regime maps of the
//! neighbouring literature (knowledge-vs-time sweeps, the *Four Shades*
//! feasibility landscapes) — are statements about *fleets* of executions,
//! not single runs. This module makes such fleets a first-class workload:
//!
//! * [`CampaignSpec`] names the grid declaratively (families — any
//!   [`FamilySpec`] the scenario grammar can express, from `path` to
//!   `torus:8x8` — tag-placement strategies, sizes, spans, models,
//!   repetitions per cell) plus a root seed and engine options. Every run's configuration is derived deterministically from
//!   `(cell, repetition)` alone — independent of execution order, thread
//!   count, and shard geometry — so a campaign is reproducible
//!   bit-for-bit and resumable mid-way.
//! * [`CampaignRunner`] executes the grid *shard by shard*: each shard is
//!   a contiguous slice of the run sequence, dispatched over worker
//!   threads that each own one long-lived [`SimWorkspace`] (see
//!   [`radio_sim::parallel::par_map_init`]). As a shard completes, its
//!   per-run metrics are folded into per-cell [`StreamingStats`] — count,
//!   mean, min, max, p50, p95 in constant memory — instead of materializing
//!   every [`Execution`](radio_sim::Execution). A million-run campaign
//!   holds one shard's worth of 48-byte metric records at a time.
//! * The shard cursor ([`CampaignRunner::cursor`], [`CampaignRunner::skip_to`])
//!   makes interrupted campaigns resumable: because run seeds are
//!   positional, re-running shards `k..` in a fresh process reproduces
//!   exactly the rows the interrupted process would have produced.
//! * [`CampaignRunner::jsonl_rows`] renders one JSON object per grid cell
//!   — the `anon-radio campaign` subcommand's output format.
//!
//! The per-run workload is the spec's phase: the full election pipeline
//! (classify → compile → simulate → validate, via [`election_metrics`]) or
//! the classifier alone ([`classify_metrics`]).

use std::sync::Arc;
use std::time::Instant;

use radio_classifier::ClassifierWorkspace;
use radio_graph::Configuration;
use radio_sim::parallel::par_map_init;
use radio_sim::{ModelKind, RunOpts, SimWorkspace};
use radio_util::fxhash::FxHashMap;
use radio_util::rng::{derive, derive_index, rng_from};
use radio_util::stats::StreamingStats;

pub use radio_graph::family::{FamilyError, FamilySpec};
pub use radio_graph::tags::TagStrategy;

use crate::cache::{config_fingerprint, CacheConfig, CacheLookup, CacheStats, ScheduleCache};
use crate::dedicated::CompiledElection;

/// Which pipeline stage a campaign sweeps.
///
/// * [`Phase::Elect`] — the full election pipeline per run: classify,
///   compile, simulate, validate. The original campaign workload.
/// * [`Phase::Classify`] — the decision phase alone, through the
///   worker's recycled [`ClassifierWorkspace`]: per run only the
///   classifier's verdict and shape metrics (iterations,
///   final class count, incremental relabel work) are folded. This is the
///   phase the paper's open problem #1 is about, and the one the
///   simulation-side campaigns could not sweep at scale before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Phase {
    /// Classify → compile → simulate → validate.
    #[default]
    Elect,
    /// Classify only (record-free, workspace-recycled).
    Classify,
}

impl Phase {
    /// Canonical name (JSONL rows, CLI values).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Elect => "elect",
            Phase::Classify => "classify",
        }
    }
}

impl std::str::FromStr for Phase {
    type Err = String;

    fn from_str(s: &str) -> Result<Phase, String> {
        match s {
            "elect" => Ok(Phase::Elect),
            "classify" => Ok(Phase::Classify),
            other => Err(format!(
                "unknown campaign phase `{other}` (expected elect or classify)"
            )),
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The per-worker state of a campaign: one simulation workspace *and* one
/// classifier workspace, both long-lived for the worker's whole share of
/// a shard. The elect phase uses both (classification feeds compilation,
/// simulation recycles the engine buffers); the classify phase touches
/// only the classifier side.
#[derive(Debug, Default)]
pub struct CampaignWorkspace {
    /// Recycled engine state for simulations.
    pub sim: SimWorkspace,
    /// Recycled classifier state (label interner, refine buffers,
    /// worklist).
    pub classifier: ClassifierWorkspace,
    /// Shared schedule cache — one process-wide [`ScheduleCache`] handle
    /// cloned into every worker of a cached elect campaign; `None` runs the
    /// uncached pipeline ([`CacheConfig::disabled`], classify campaigns).
    pub cache: Option<Arc<ScheduleCache>>,
}

impl CampaignWorkspace {
    /// An empty pair of workspaces; buffers warm up over the first runs.
    pub fn new() -> CampaignWorkspace {
        CampaignWorkspace::default()
    }

    /// A workspace routing elect runs through `cache` (when `Some`) — the
    /// init the campaign runner hands to [`par_map_init`] so every worker
    /// shares one cache.
    pub fn with_cache(cache: Option<Arc<ScheduleCache>>) -> CampaignWorkspace {
        CampaignWorkspace {
            cache,
            ..CampaignWorkspace::default()
        }
    }

    /// Classifies and compiles `config` through the shared schedule cache
    /// when one is attached (returning its lookup outcome), else directly
    /// through the classifier workspace (returning `None`). Both routes
    /// compile bit-identical elections; neither clones the configuration.
    /// A caller that already fingerprinted `config` passes the
    /// fingerprint, and the cache lookup reuses it.
    pub(crate) fn compile(
        &mut self,
        config: &Configuration,
        fingerprint: Option<u128>,
    ) -> (CompiledElection, Option<CacheLookup>) {
        match &self.cache {
            Some(cache) => {
                let fingerprint = fingerprint.unwrap_or_else(|| config_fingerprint(config));
                let (compiled, lookup) =
                    cache.compile_keyed(&mut self.classifier, config, fingerprint);
                (compiled, Some(lookup))
            }
            None => (
                CompiledElection::compile_in(&mut self.classifier, config),
                None,
            ),
        }
    }
}

/// Dedupe policy for elect campaigns (`--no-batch`, `--batch-size`).
/// Campaigns run in contiguous slices of at most `size` runs that never
/// cross a cell boundary (pure position arithmetic). With dedupe on (the
/// default), a run whose configuration fingerprint repeats an earlier
/// run of its slice copies that run's metrics instead of compiling and
/// simulating again ([`election_metrics_batched`]). Rows are
/// bit-identical either way up to the measured tail (`wall_ns` onward).
/// The classify phase never dedupes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Whether the elect phase dedupes at all (`--no-batch` clears it).
    pub enabled: bool,
    /// Maximum runs per slice (`--batch-size N`, ≥ 1).
    pub size: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            enabled: true,
            size: BatchConfig::DEFAULT_SIZE,
        }
    }
}

impl BatchConfig {
    /// Default slice length: long enough that repeated draws of a cell
    /// find each other, short enough that dynamic work-stealing still
    /// balances skewed cells.
    pub const DEFAULT_SIZE: usize = 16;

    /// The `--no-batch` configuration.
    pub fn disabled() -> BatchConfig {
        BatchConfig {
            enabled: false,
            ..BatchConfig::default()
        }
    }

    /// Enabled with an explicit batch size (`--batch-size N`).
    pub fn with_size(size: usize) -> BatchConfig {
        BatchConfig {
            enabled: true,
            size,
        }
    }
}

/// A declarative campaign: the full cross product of the axes, `reps`
/// runs per cell, deterministic per-run seeds derived from `seed`.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Which pipeline stage each run executes.
    pub phase: Phase,
    /// Graph families to cross — any [`FamilySpec`] the scenario grammar
    /// can name.
    pub families: Vec<FamilySpec>,
    /// Tag-placement strategies to cross (see [`TagStrategy`]).
    pub tags: Vec<TagStrategy>,
    /// Node counts to cross. Size-pinned families (`grid:16x4`,
    /// `hypercube:6`, …) ignore this axis and contribute exactly their
    /// own node count (see [`FamilySpec::sizes_for`]).
    pub sizes: Vec<usize>,
    /// Tag spans to cross (tags are drawn uniformly from `0..=span`).
    pub spans: Vec<u64>,
    /// Channel models to cross. The same `(family, n, span, rep)`
    /// configuration is used for every model, so model columns are
    /// directly comparable. The classify phase runs no simulation — give
    /// it a single (ignored) model so the grid is `family × n × span`.
    pub models: Vec<ModelKind>,
    /// Runs per grid cell.
    pub reps: usize,
    /// Root seed; every run seed is derived from it positionally.
    pub seed: u64,
    /// Engine options applied to every run (the round limit).
    pub opts: RunOpts,
    /// Schedule-cache policy for elect campaigns (`--cache-capacity`,
    /// `--no-cache`); [`CacheConfig::default`] runs uncached. Ignored by
    /// the classify phase, which never compiles a schedule. Cached and
    /// uncached campaigns produce bit-identical rows up to the cache
    /// counters themselves.
    pub cache: CacheConfig,
    /// Dedupe policy for elect campaigns (`--no-batch`,
    /// `--batch-size`). Deduped and plain campaigns produce
    /// bit-identical rows up to the measured tail.
    pub batch: BatchConfig,
}

impl CampaignSpec {
    /// A spec with every model, uniform tagging, `reps` = 1, default
    /// engine options, elect phase.
    pub fn new(
        families: Vec<FamilySpec>,
        sizes: Vec<usize>,
        spans: Vec<u64>,
        seed: u64,
    ) -> CampaignSpec {
        CampaignSpec {
            phase: Phase::Elect,
            families,
            tags: vec![TagStrategy::Uniform],
            sizes,
            spans,
            models: ModelKind::ALL.to_vec(),
            reps: 1,
            seed,
            opts: RunOpts::default(),
            cache: CacheConfig::default(),
            batch: BatchConfig::default(),
        }
    }

    /// The grid cells, in row-major `family × tags × n × span × model`
    /// order. Size-pinned families contribute one size (their own node
    /// count) instead of the size axis.
    pub fn cells(&self) -> Vec<CellKey> {
        let mut cells = Vec::new();
        for &family in &self.families {
            for &tags in &self.tags {
                for n in family.sizes_for(&self.sizes) {
                    for &span in &self.spans {
                        for &model in &self.models {
                            cells.push(CellKey {
                                family,
                                tags,
                                n,
                                span,
                                model,
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// Total number of runs (`cells × reps`) — computed from the axis
    /// lengths (pinned families contribute one size each), no grid
    /// enumeration or allocation.
    pub fn total_runs(&self) -> usize {
        let sizes: usize = self
            .families
            .iter()
            .map(|f| {
                if f.node_count().is_some() {
                    1
                } else {
                    self.sizes.len()
                }
            })
            .sum();
        sizes * self.tags.len() * self.spans.len() * self.models.len() * self.reps
    }

    /// Checks that every cell of the grid is buildable — the validation
    /// [`CampaignRunner::new`] and the CLI run up front, surfaced here so
    /// library callers get an `Err` (not a panic deep inside a shard) for
    /// unrealizable family/size combinations.
    pub fn validate(&self) -> Result<(), String> {
        if self.families.is_empty()
            || self.tags.is_empty()
            || self.sizes.is_empty()
            || self.spans.is_empty()
            || self.models.is_empty()
            || self.reps == 0
        {
            return Err(
                "every grid axis (families/tags/sizes/spans/models/reps) needs at least \
                 one value"
                    .to_string(),
            );
        }
        // The classify phase runs no simulation: a second model would
        // multiply identical rows (the model is outside the seed
        // derivation) while the classify row shape omits the axis.
        if self.phase == Phase::Classify && self.models.len() > 1 {
            return Err(
                "the classify phase takes a single (ignored) model — extra models would \
                 reclassify identical draws into indistinguishable rows"
                    .to_string(),
            );
        }
        // Run indices are `usize`: the runner's shard ranges and slices
        // count up to `cells × reps`.
        if self.cells().len().checked_mul(self.reps).is_none() {
            let reps = self.reps;
            return Err(format!(
                "{reps} rep(s) per cell overflow the grid's run count"
            ));
        }
        for &family in &self.families {
            for n in family.sizes_for(&self.sizes) {
                family.check_size(n).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// The configuration of repetition `rep` in `cell` — a pure function
    /// of `(seed, family, tags, n, span, rep)`. The channel model is
    /// *not* part of the derivation, so the same drawn configuration
    /// appears once per model and model columns compare like for like.
    /// Uniform-tag cells keep the exact pre-strategy-axis derivation, so
    /// legacy campaign rows stay reproducible.
    ///
    /// # Panics
    /// Panics if the cell is unrealizable — [`CampaignSpec::validate`]
    /// first ([`CampaignRunner::new`] and the CLI do, so runner-driven
    /// campaigns fail fast on the constructing thread, never inside a
    /// shard worker).
    pub fn configuration(&self, cell: &CellKey, rep: usize) -> Configuration {
        let base = derive_index(
            derive_index(derive(self.seed, &cell.family.to_string()), cell.n as u64),
            cell.span,
        );
        // The family streams straight into CSR form and the tag strategy
        // draws from the same positional stream it always did.
        let csr = cell
            .family
            .build_csr(cell.n, derive_index(derive(base, "graph"), rep as u64))
            .expect("validated spec");
        // The uniform stream label predates the strategy axis and must
        // stay byte-identical; other strategies get their own streams.
        let tag_stream = match cell.tags {
            TagStrategy::Uniform => derive(base, "tags"),
            other => derive(base, &format!("tags/{other}")),
        };
        let tags = cell.tags.draw(
            cell.n,
            cell.span,
            &mut rng_from(derive_index(tag_stream, rep as u64)),
        );
        Configuration::new(csr, tags).expect("families build connected graphs")
    }
}

/// One grid cell: a point on the `family × tags × n × span × model`
/// lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Graph family.
    pub family: FamilySpec,
    /// Tag-placement strategy.
    pub tags: TagStrategy,
    /// Node count.
    pub n: usize,
    /// Tag span σ.
    pub span: u64,
    /// Channel model.
    pub model: ModelKind,
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/n{}/σ{}/{}",
            self.family, self.tags, self.n, self.span, self.model
        )
    }
}

/// The metrics one run contributes to its cell's aggregate — everything
/// the campaign keeps of an execution (the `Execution` itself is dropped
/// inside the worker).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunMetrics {
    /// The drawn configuration admits leader election.
    pub feasible: bool,
    /// The run elected exactly the predicted leader (always false for
    /// infeasible cells; may be false under foreign channel models, whose
    /// executions are still measured).
    pub elected: bool,
    /// The simulation aborted (round limit) — its zeroed shape metrics
    /// must not be folded into the per-cell statistics.
    pub aborted: bool,
    /// A simulation ran to completion — only then are the simulation
    /// shape metrics below meaningful (classify-phase runs never
    /// simulate, so their zeros must not be folded either).
    pub simulated: bool,
    /// Global rounds simulated (0 when infeasible/aborted).
    pub rounds: u64,
    /// Total transmissions.
    pub transmissions: u64,
    /// Rounds executed one by one.
    pub rounds_stepped: u64,
    /// Rounds skipped by the time-leap scheduler.
    pub rounds_leapt: u64,
    /// The run recorded the classifier's shape (classify-phase runs) —
    /// only then are the three classifier metrics below folded, the
    /// decision-side analogue of `simulated`.
    pub classified: bool,
    /// Classifier iterations until the verdict (classify phase; 0 for
    /// election runs, whose shape lives in the simulation metrics).
    pub iterations: u64,
    /// Classes in the final partition (classify phase).
    pub classes: u64,
    /// Label computations the incremental worklist performed (classify
    /// phase) — the work the `O(n³Δ)` open problem counts, as the fast
    /// engine actually spends it.
    pub relabels: u64,
    /// The run's classify+compile was answered from the schedule cache
    /// (exact or canonical hit). Always false when no cache is attached.
    pub cache_hit: bool,
    /// The run went through the schedule cache and missed (classified and
    /// compiled from scratch, populating the cache). Always false when no
    /// cache is attached — `!cache_hit` alone cannot distinguish "missed"
    /// from "uncached".
    pub cache_miss: bool,
    /// Wall-clock nanoseconds for the whole run (classify + compile +
    /// simulate for the election workload).
    pub wall_ns: u64,
    /// Workspace high-water mark in bytes after the run: the summed
    /// backing-buffer capacities of the engine state the run used (sim
    /// planes + classifier interner). Like `wall_ns` it is a
    /// measured, environment-dependent observation, so it lives in the
    /// rows' measured tail.
    pub mem_hw: u64,
}

/// Streaming per-cell aggregate: counters plus constant-memory
/// [`StreamingStats`] per metric. Simulation-shape metrics (rounds,
/// transmissions, stepped/leapt) are folded for runs that actually
/// simulated (feasible draws); wall time is folded for every run.
#[derive(Debug, Clone, Default)]
pub struct CellAggregate {
    /// Runs folded so far.
    pub runs: u64,
    /// Runs whose drawn configuration was feasible.
    pub feasible: u64,
    /// Runs that elected the predicted leader.
    pub elected: u64,
    /// Feasible runs whose simulation aborted on the round limit — they
    /// contribute no shape statistics (their metrics would read as zero).
    pub aborted: u64,
    /// Global round counts of completed feasible runs.
    pub rounds: StreamingStats,
    /// Transmission counts of completed feasible runs.
    pub transmissions: StreamingStats,
    /// Stepped-round counts of completed feasible runs.
    pub stepped: StreamingStats,
    /// Leapt-round counts of completed feasible runs.
    pub leapt: StreamingStats,
    /// Classifier iteration counts (classify-phase runs; feasible and
    /// infeasible draws both classify, so both fold here).
    pub iterations: StreamingStats,
    /// Final class counts (classify-phase runs).
    pub classes: StreamingStats,
    /// Incremental relabel work (classify-phase runs).
    pub relabels: StreamingStats,
    /// Wall-clock nanoseconds of all runs.
    pub wall_ns: StreamingStats,
    /// Runs answered from the schedule cache. Note: the hit/miss *split*
    /// (unlike every other column) depends on worker interleaving — two
    /// workers can race to first-miss the same key — so these counters are
    /// reported after `wall_ns` in JSONL rows, outside the deterministic
    /// byte range golden comparisons cover.
    pub cache_hits: u64,
    /// Runs that went through the cache and missed (0 when uncached).
    pub cache_misses: u64,
    /// Workspace high-water marks (bytes) of all runs — like `wall_ns`, a
    /// measured column living in the rows' tail.
    pub mem_hw: StreamingStats,
}

impl CellAggregate {
    /// Merges another aggregate over the *same cell* into this one — how
    /// the halves of an interrupted-and-resumed campaign (each covering a
    /// disjoint shard range) combine into whole-campaign aggregates.
    /// Counters and moments merge exactly; quantile estimates merge at
    /// reservoir precision (see
    /// [`StreamingStats::merge`](radio_util::stats::StreamingStats::merge)).
    pub fn merge(&mut self, other: &CellAggregate) {
        self.runs += other.runs;
        self.feasible += other.feasible;
        self.elected += other.elected;
        self.aborted += other.aborted;
        self.rounds.merge(&other.rounds);
        self.transmissions.merge(&other.transmissions);
        self.stepped.merge(&other.stepped);
        self.leapt.merge(&other.leapt);
        self.iterations.merge(&other.iterations);
        self.classes.merge(&other.classes);
        self.relabels.merge(&other.relabels);
        self.wall_ns.merge(&other.wall_ns);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.mem_hw.merge(&other.mem_hw);
    }

    /// Folds one run's metrics into the aggregate.
    pub fn fold(&mut self, m: &RunMetrics) {
        self.runs += 1;
        self.wall_ns.push(m.wall_ns as f64);
        self.mem_hw.push(m.mem_hw as f64);
        if m.feasible {
            self.feasible += 1;
            if m.aborted {
                // A round-limit abort carries no shape metrics; folding
                // its zeros would drag min/mean/p50 down invisibly.
                self.aborted += 1;
            } else if m.simulated {
                self.rounds.push(m.rounds as f64);
                self.transmissions.push(m.transmissions as f64);
                self.stepped.push(m.rounds_stepped as f64);
                self.leapt.push(m.rounds_leapt as f64);
            }
        }
        if m.elected {
            self.elected += 1;
        }
        if m.classified {
            self.iterations.push(m.iterations as f64);
            self.classes.push(m.classes as f64);
            self.relabels.push(m.relabels as f64);
        }
        if m.cache_hit {
            self.cache_hits += 1;
        }
        if m.cache_miss {
            self.cache_misses += 1;
        }
    }
}

/// The elect-phase per-run workload: the full election pipeline on the
/// drawn configuration — compile through `CampaignWorkspace::compile`,
/// then the one simulate step every election takes
/// ([`CompiledElection::simulate_in`]: the canonical DRIP's flat node
/// state over length-only histories, resident in the worker's
/// [`SimWorkspace`]; each node reports its own verdict), and check the
/// exactly-one-leader contract against the classifier's prediction.
///
/// Infeasible draws are recorded as such (that *rate* is itself a
/// campaign-level result — the feasibility landscape); foreign-model runs
/// that break the election contract still contribute their execution
/// shape, with `elected = false`.
///
/// A caller that already holds `config`'s [`config_fingerprint`] (the
/// batch dedupe memo) passes it as `fingerprint`, and the cache lookup
/// reuses it instead of hashing the configuration again; it must be that
/// configuration's fingerprint.
pub fn election_metrics(
    workspace: &mut CampaignWorkspace,
    config: &Configuration,
    fingerprint: Option<u128>,
    model: ModelKind,
    opts: RunOpts,
) -> RunMetrics {
    // lint:allow(wall-clock): this is the designated timing site feeding the
    // wall_ns column, which lives in the measured row tail after the pinned
    // deterministic prefix
    let start = Instant::now();
    let mut metrics = RunMetrics::default();
    let (compiled, lookup) = workspace.compile(config, fingerprint);
    metrics.cache_hit = lookup.is_some_and(CacheLookup::is_hit);
    metrics.cache_miss = lookup.is_some_and(|l| !l.is_hit());
    if !compiled.feasible() {
        metrics.wall_ns = start.elapsed().as_nanos() as u64;
        metrics.mem_hw = workspace.classifier.mem_bytes();
        return metrics;
    }
    metrics.feasible = true;
    match compiled.simulate_in(&mut workspace.sim, config, model, opts) {
        Ok((leaders, run)) => {
            metrics.elected = leaders == [compiled.predicted_leader()];
            metrics.simulated = true;
            metrics.rounds = run.rounds;
            metrics.transmissions = run.stats.transmissions;
            metrics.rounds_stepped = run.rounds_stepped;
            metrics.rounds_leapt = run.rounds_leapt;
        }
        Err(_) => metrics.aborted = true,
    }
    metrics.wall_ns = start.elapsed().as_nanos() as u64;
    metrics.mem_hw = workspace.sim.mem_bytes() + workspace.classifier.mem_bytes();
    metrics
}

/// The elect-phase workload for one contiguous slice `lo..hi` of global
/// run indices, all inside `cell`: [`election_metrics`] per run, memoized
/// on [`config_fingerprint`] within the slice when `spec.batch` enables
/// dedupe.
///
/// Equal fingerprints mean equal configurations (the cache's exact-key
/// identity), and equal configurations under the same model and opts
/// produce bit-identical elections — so a duplicate draw copies its
/// representative's metrics, measured tail included, instead of
/// compiling and simulating again. Only its cache accounting is its own:
/// it records a hit when a cache is attached (the memo answered it
/// without consulting the shared cache) and neither a hit nor a miss
/// otherwise. The memo is only probed and inserted, never iterated, so
/// the returned metrics keep the slice's positional order. A fingerprint
/// computed for the memo also keys the run's cache lookup.
pub fn election_metrics_batched(
    workspace: &mut CampaignWorkspace,
    spec: &CampaignSpec,
    cell: &CellKey,
    lo: usize,
    hi: usize,
) -> Vec<RunMetrics> {
    let mut metrics: Vec<RunMetrics> = Vec::with_capacity(hi - lo);
    let mut seen: FxHashMap<u128, usize> = FxHashMap::default();
    for idx in lo..hi {
        let config = spec.configuration(cell, idx % spec.reps);
        let fingerprint = spec.batch.enabled.then(|| config_fingerprint(&config));
        if let Some(fingerprint) = fingerprint {
            if let Some(&k) = seen.get(&fingerprint) {
                let mut copy = metrics[k];
                copy.cache_hit = workspace.cache.is_some();
                copy.cache_miss = false;
                metrics.push(copy);
                continue;
            }
            seen.insert(fingerprint, metrics.len());
        }
        metrics.push(election_metrics(
            workspace,
            &config,
            fingerprint,
            cell.model,
            spec.opts,
        ));
    }
    metrics
}

/// The classify-phase per-run workload: the decision alone, record-free,
/// through the worker's recycled [`ClassifierWorkspace`]. No compilation,
/// no simulation — the folded shape is the classifier's: iterations until
/// the verdict, final class count, and the incremental worklist's actual
/// relabel work.
pub fn classify_metrics(workspace: &mut CampaignWorkspace, config: &Configuration) -> RunMetrics {
    // lint:allow(wall-clock): designated timing site for the classify-row
    // wall_ns column, outside the deterministic prefix
    let start = Instant::now();
    let summary = workspace.classifier.summarize_in(config);
    RunMetrics {
        feasible: summary.feasible,
        classified: true,
        iterations: summary.iterations as u64,
        classes: summary.num_classes as u64,
        relabels: summary.relabels,
        wall_ns: start.elapsed().as_nanos() as u64,
        mem_hw: workspace.classifier.mem_bytes(),
        ..RunMetrics::default()
    }
}

/// Summary of one executed shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardReport {
    /// Shard index (0-based).
    pub shard: usize,
    /// Runs executed in this shard.
    pub runs: usize,
    /// Wall-clock seconds for the shard.
    pub wall_s: f64,
}

/// Executes a [`CampaignSpec`] shard by shard, folding per-run metrics
/// into per-cell [`CellAggregate`]s as each shard completes.
#[derive(Debug)]
pub struct CampaignRunner {
    spec: CampaignSpec,
    cells: Vec<CellKey>,
    aggregates: Vec<CellAggregate>,
    shards: usize,
    next_shard: usize,
    /// One process-wide schedule cache shared by every worker of every
    /// shard (elect phase with `spec.cache.enabled` only).
    cache: Option<Arc<ScheduleCache>>,
}

impl CampaignRunner {
    /// Prepares a runner splitting the run sequence into `shards`
    /// contiguous shards (clamped to ≥ 1). Elect campaigns with
    /// `spec.cache.enabled` get a fresh [`ScheduleCache`] sized by
    /// `spec.cache.capacity`; classify campaigns never cache.
    ///
    /// # Panics
    /// Panics if the spec fails [`CampaignSpec::validate`] — better here,
    /// on the constructing thread with the validator's message, than as
    /// an opaque unwrap inside a shard worker. Callers that need an
    /// `Err` instead call [`CampaignSpec::validate`] themselves first
    /// (the CLI does).
    pub fn new(spec: CampaignSpec, shards: usize) -> CampaignRunner {
        let cache = (spec.phase == Phase::Elect && spec.cache.enabled)
            .then(|| Arc::new(ScheduleCache::new(spec.cache.capacity)));
        CampaignRunner::with_cache(spec, shards, cache)
    }

    /// [`CampaignRunner::new`] with an explicit (possibly pre-warmed,
    /// possibly shared across runners) cache handle — the warm-cache bench
    /// path. `None` forces the uncached pipeline regardless of
    /// `spec.cache`.
    pub fn with_cache(
        spec: CampaignSpec,
        shards: usize,
        cache: Option<Arc<ScheduleCache>>,
    ) -> CampaignRunner {
        if let Err(msg) = spec.validate() {
            panic!("invalid campaign spec: {msg}");
        }
        let cells = spec.cells();
        let aggregates = vec![CellAggregate::default(); cells.len()];
        CampaignRunner {
            spec,
            cells,
            aggregates,
            shards: shards.max(1),
            next_shard: 0,
            cache,
        }
    }

    /// The spec this runner executes.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The shared schedule cache, when this campaign runs one.
    pub fn cache(&self) -> Option<&Arc<ScheduleCache>> {
        self.cache.as_ref()
    }

    /// Snapshot of the cache counters (`None` when uncached) — the CLI's
    /// end-of-run summary line reads hit/miss/eviction totals here instead
    /// of re-parsing JSONL.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The next shard to execute (== number of completed-or-skipped
    /// shards). Persist this to resume an interrupted campaign.
    pub fn cursor(&self) -> usize {
        self.next_shard
    }

    /// True once every shard has been executed (or skipped).
    pub fn is_done(&self) -> bool {
        self.next_shard >= self.shards
    }

    /// Advances the cursor without executing — the resume path: a fresh
    /// process skips the shards a previous run already reported.
    /// Run seeds are positional, so the remaining shards produce exactly
    /// what they would have in the original process.
    ///
    /// Returns the cursor actually installed. A `shard` beyond
    /// [`shard_count`](Self::shard_count) is clamped to it (the runner is
    /// then [`is_done`](Self::is_done) and will execute nothing), and the
    /// clamped value is returned so callers can *see* the adjustment
    /// instead of silently reporting a cursor the runner never adopted —
    /// the CLI rejects out-of-range resume cursors up front on this
    /// contract.
    pub fn skip_to(&mut self, shard: usize) -> usize {
        self.next_shard = shard.min(self.shards);
        self.next_shard
    }

    /// The run-index range `[start, end)` of shard `k` — the single
    /// source of the shard-splitting arithmetic shared by execution and
    /// the CLI's resume note. The note can still describe a shard that
    /// does not exist if its caller passes an unvalidated cursor: `k ≥`
    /// [`shard_count`](Self::shard_count) yields the empty range
    /// `(total, total)`, so validate resume cursors (see
    /// [`skip_to`](Self::skip_to)) before reporting ranges.
    pub fn shard_range(&self, k: usize) -> (usize, usize) {
        let total = self.cells.len() * self.spec.reps;
        let per = total.div_ceil(self.shards).max(1);
        let start = (k * per).min(total);
        (start, ((k + 1) * per).min(total))
    }

    /// Executes the next shard over `threads` workers with the spec's
    /// phase workload ([`election_metrics_batched`] /
    /// [`classify_metrics`]). Returns `None` when the campaign is
    /// complete.
    ///
    /// The shard's run range is cut into slices, workers claim whole
    /// slices, and each worker thread owns one [`CampaignWorkspace`] — a
    /// simulation workspace *and* a classifier workspace — for the whole
    /// shard; only the shard's `RunMetrics` are materialized, never its
    /// executions or records.
    pub fn run_next_shard(&mut self, threads: usize) -> Option<ShardReport> {
        if self.is_done() {
            return None;
        }
        let shard = self.next_shard;
        self.next_shard += 1;
        let (start, end) = self.shard_range(shard);
        // lint:allow(wall-clock): shard wall time feeds the stderr progress
        // report only, never a result row
        let started = Instant::now();
        let spec = &self.spec;
        let cells = &self.cells;
        let cache = &self.cache;
        let results: Vec<(usize, Vec<RunMetrics>)> = par_map_init(
            &slices(start, end, spec),
            threads,
            || CampaignWorkspace::with_cache(cache.clone()),
            |ws, &(lo, hi)| {
                let cell_idx = lo / spec.reps;
                (cell_idx, run_slice(ws, spec, &cells[cell_idx], lo, hi))
            },
        );
        for (cell_idx, ms) in &results {
            for m in ms {
                self.aggregates[*cell_idx].fold(m);
            }
        }
        Some(ShardReport {
            shard,
            runs: end - start,
            wall_s: started.elapsed().as_secs_f64(),
        })
    }

    /// Runs every remaining shard with the default election workload.
    pub fn run_to_completion(&mut self, threads: usize) -> Vec<ShardReport> {
        let mut reports = Vec::new();
        while let Some(report) = self.run_next_shard(threads) {
            reports.push(report);
        }
        reports
    }

    /// The per-cell aggregates folded so far, in cell order.
    pub fn aggregates(&self) -> impl Iterator<Item = (&CellKey, &CellAggregate)> {
        self.cells.iter().zip(&self.aggregates)
    }

    /// One JSON object per grid cell — the campaign's machine-readable
    /// output. Fields: the phase, the cell key, the counters, and
    /// per-metric `{count, mean, min, max, p50, p95}` summaries. Elect
    /// rows carry the simulation shape (rounds/transmissions/stepped/
    /// leapt); classify rows carry the classifier shape (iterations/
    /// classes/relabels) and omit the model axis, which the phase never
    /// consults. `wall_ns` begins the measured tail in both shapes:
    /// everything from `,"wall_ns"` on — wall time plus, in elect rows,
    /// the `cache_hits`/`cache_misses` counters, whose split depends on
    /// worker interleaving — is execution-dependent, so deterministic
    /// consumers strip the row by splitting on it.
    pub fn jsonl_rows(&self) -> Vec<String> {
        self.rows()
            .iter()
            .map(crate::row::CampaignRow::to_jsonl)
            .collect()
    }

    /// The typed form of [`jsonl_rows`](Self::jsonl_rows): one
    /// [`CampaignRow`](crate::row::CampaignRow) per grid cell, with the
    /// full measured tail populated. Feed these to the binary codec in
    /// [`crate::row`] for the compact on-disk format.
    pub fn rows(&self) -> Vec<crate::row::CampaignRow> {
        self.aggregates()
            .map(|(cell, agg)| cell_row(self.spec.phase, cell, agg))
            .collect()
    }
}

/// Renders one cell's aggregate as its [`CampaignRow`](crate::row::CampaignRow)
/// — the single source of the row shape, shared by [`CampaignRunner::rows`]
/// (per-shard campaigns) and the serve layer's per-job dispatch
/// ([`crate::serve`]), so a served `campaign-cell` reply and a one-shot
/// `campaign` run render bit-identical deterministic prefixes from equal
/// aggregates.
pub fn cell_row(phase: Phase, cell: &CellKey, agg: &CellAggregate) -> crate::row::CampaignRow {
    use crate::row::{CampaignRow, ClassifyRow, ElectRow, RowStats};
    match phase {
        Phase::Elect => CampaignRow::Elect(ElectRow {
            family: cell.family.to_string(),
            tags: cell.tags.to_string(),
            n: cell.n as u64,
            span: cell.span,
            model: cell.model.to_string(),
            runs: agg.runs,
            feasible: agg.feasible,
            elected: agg.elected,
            aborted: agg.aborted,
            rounds: RowStats::from(&agg.rounds),
            transmissions: RowStats::from(&agg.transmissions),
            stepped: RowStats::from(&agg.stepped),
            leapt: RowStats::from(&agg.leapt),
            wall_ns: Some(RowStats::from(&agg.wall_ns)),
            cache_hits: Some(agg.cache_hits),
            cache_misses: Some(agg.cache_misses),
            mem_hw: Some(RowStats::from(&agg.mem_hw)),
        }),
        Phase::Classify => CampaignRow::Classify(ClassifyRow {
            family: cell.family.to_string(),
            tags: cell.tags.to_string(),
            n: cell.n as u64,
            span: cell.span,
            runs: agg.runs,
            feasible: agg.feasible,
            iterations: RowStats::from(&agg.iterations),
            classes: RowStats::from(&agg.classes),
            relabels: RowStats::from(&agg.relabels),
            wall_ns: Some(RowStats::from(&agg.wall_ns)),
            mem_hw: Some(RowStats::from(&agg.mem_hw)),
        }),
    }
}

/// Cuts the run-index range `start..end` into contiguous slices of at
/// most `spec.batch.size` runs that never cross a cell boundary — pure
/// position arithmetic, so the deterministic row prefix cannot depend on
/// it.
fn slices(start: usize, end: usize, spec: &CampaignSpec) -> Vec<(usize, usize)> {
    let len = spec.batch.size.max(1);
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        let cell_end = (i / spec.reps + 1) * spec.reps;
        let stop = cell_end.min(end).min(i + len);
        out.push((i, stop));
        i = stop;
    }
    out
}

/// The spec's phase workload on one slice `lo..hi` of global run indices
/// inside `cell` — the one unit both [`CampaignRunner::run_next_shard`]
/// and [`run_cell`] fold through: [`election_metrics_batched`] for the
/// elect phase, [`classify_metrics`] per run for the classify phase.
fn run_slice(
    workspace: &mut CampaignWorkspace,
    spec: &CampaignSpec,
    cell: &CellKey,
    lo: usize,
    hi: usize,
) -> Vec<RunMetrics> {
    match spec.phase {
        Phase::Elect => election_metrics_batched(workspace, spec, cell, lo, hi),
        Phase::Classify => (lo..hi)
            .map(|idx| {
                let config = spec.configuration(cell, idx % spec.reps);
                classify_metrics(workspace, &config)
            })
            .collect(),
    }
}

/// Executes every repetition of one grid cell through `workspace`,
/// folding the per-run metrics into a fresh [`CellAggregate`] — the serve
/// layer's per-*job* unit of dispatch, where a whole [`CampaignRunner`]
/// per request would rebuild workspaces the resident worker already keeps
/// warm. It folds through the same slices as a campaign shard, and
/// seeds come from [`CampaignSpec::configuration`], which is positional,
/// so the aggregate (and therefore the deterministic prefix of
/// [`cell_row`]) is bit-identical to a full campaign over the same
/// single-cell spec regardless of shard/thread geometry.
pub fn run_cell(
    workspace: &mut CampaignWorkspace,
    spec: &CampaignSpec,
    cell: &CellKey,
) -> CellAggregate {
    let mut agg = CellAggregate::default();
    for (lo, hi) in slices(0, spec.reps, spec) {
        for m in &run_slice(workspace, spec, cell, lo, hi) {
            agg.fold(m);
        }
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DEFAULT_CAPACITY;

    /// Cached, so the geometry, resume and shape tests below run with
    /// workers racing on one shared cache; the uncached campaign default
    /// is the subject of `tests/campaign.rs` and the `disabled` cases here.
    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            phase: Phase::Elect,
            families: vec![FamilySpec::Path, FamilySpec::Star],
            tags: vec![TagStrategy::Uniform],
            sizes: vec![5],
            spans: vec![2, 4],
            models: ModelKind::ALL.to_vec(),
            reps: 2,
            seed: 11,
            opts: RunOpts::default(),
            cache: CacheConfig::with_capacity(DEFAULT_CAPACITY),
            batch: BatchConfig::default(),
        }
    }

    fn tiny_classify_spec() -> CampaignSpec {
        CampaignSpec {
            phase: Phase::Classify,
            families: vec![FamilySpec::Path, FamilySpec::Star],
            tags: vec![TagStrategy::Uniform],
            sizes: vec![5, 9],
            spans: vec![0, 4],
            models: vec![ModelKind::NoCollisionDetection],
            reps: 3,
            seed: 11,
            opts: RunOpts::default(),
            cache: CacheConfig::default(),
            batch: BatchConfig::default(),
        }
    }

    #[test]
    fn grid_enumeration_and_counts() {
        let spec = tiny_spec();
        let cells = spec.cells();
        assert_eq!(cells.len(), 12, "2 families × 1 size × 2 spans × 3 models");
        assert_eq!(spec.total_runs(), cells.len() * 2);
        // row-major order: model varies fastest, family slowest
        assert_eq!(cells[0].model, ModelKind::NoCollisionDetection);
        assert_eq!(cells[1].model, ModelKind::CollisionDetection);
        assert_eq!(cells[0].family, FamilySpec::Path);
        assert_eq!(cells.last().unwrap().family, FamilySpec::Star);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn tag_strategy_axis_multiplies_the_grid() {
        let mut spec = tiny_spec();
        spec.tags = vec![
            TagStrategy::Uniform,
            TagStrategy::Clustered,
            TagStrategy::Extremes,
            TagStrategy::Arith { stride: 2 },
        ];
        let cells = spec.cells();
        assert_eq!(
            cells.len(),
            48,
            "2 families × 4 strategies × 2 spans × 3 models"
        );
        // strategy varies outside sizes/spans/models, inside family
        assert_eq!(cells[0].tags, TagStrategy::Uniform);
        assert_eq!(cells[6].tags, TagStrategy::Clustered);
        // the drawn configuration differs per strategy (same cell otherwise)
        let uni = spec.configuration(&cells[0], 0);
        let arith = spec.configuration(&cells[18], 0);
        assert_eq!(cells[18].tags, TagStrategy::Arith { stride: 2 });
        assert_eq!(uni.csr(), arith.csr(), "same graph");
        assert_eq!(arith.tags(), &[0, 2, 1, 0, 2], "arith stride 2 mod σ+1");
    }

    #[test]
    fn pinned_families_override_the_size_axis() {
        let mut spec = tiny_spec();
        spec.families = vec![
            FamilySpec::Path,
            "grid:3x2".parse().unwrap(),
            "hypercube:3".parse().unwrap(),
        ];
        spec.models = vec![ModelKind::NoCollisionDetection];
        spec.sizes = vec![5, 7];
        assert!(spec.validate().is_ok());
        let cells = spec.cells();
        // path crosses both sizes; the pinned families contribute one each
        assert_eq!(cells.len(), (2 + 1 + 1) * 2);
        assert!(cells.iter().any(|c| c.n == 6), "grid:3x2 pins n=6");
        assert!(cells.iter().any(|c| c.n == 8), "hypercube:3 pins n=8");
        let grid_cell = cells.iter().find(|c| c.n == 6).unwrap();
        let config = spec.configuration(grid_cell, 0);
        assert_eq!(config.size(), 6, "cell label matches the simulated graph");
    }

    #[test]
    fn validate_rejects_unrealizable_grids() {
        let mut spec = tiny_spec();
        spec.families = vec![FamilySpec::Cycle];
        spec.sizes = vec![2];
        let err = spec.validate().unwrap_err();
        assert!(err.contains("cycle"), "{err}");
        spec.sizes = vec![3];
        assert!(spec.validate().is_ok());
        // cells × reps overflows the run index
        spec.families = vec![FamilySpec::Path, FamilySpec::Star];
        spec.reps = usize::MAX;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("overflow"), "{err}");
        spec.tags = vec![];
        assert!(spec.validate().is_err(), "empty axis");
    }

    #[test]
    fn validate_rejects_multi_model_classify_grids() {
        // the classify phase never consults the model: extra models would
        // reclassify identical draws into indistinguishable rows
        let mut spec = tiny_classify_spec();
        assert!(spec.validate().is_ok());
        spec.models = ModelKind::ALL.to_vec();
        let err = spec.validate().unwrap_err();
        assert!(err.contains("classify"), "{err}");
    }

    #[test]
    #[should_panic(expected = "invalid campaign spec")]
    fn runner_construction_fails_fast_on_unrealizable_specs() {
        // the panic happens here, on the constructing thread with the
        // validator's message — not as an opaque unwrap inside a worker
        let mut spec = tiny_spec();
        spec.families = vec![FamilySpec::Cycle];
        spec.sizes = vec![2];
        let _ = CampaignRunner::new(spec, 2);
    }

    #[test]
    fn total_runs_matches_the_enumerated_grid() {
        // the O(1) arithmetic must agree with actual enumeration, pinned
        // sizes and all
        let mut spec = tiny_spec();
        spec.families = vec![
            FamilySpec::Path,
            "grid:3x2".parse().unwrap(),
            "hypercube:3".parse().unwrap(),
        ];
        spec.tags = vec![TagStrategy::Uniform, TagStrategy::Extremes];
        spec.sizes = vec![5, 7, 9];
        assert_eq!(spec.total_runs(), spec.cells().len() * spec.reps);
    }

    #[test]
    fn configurations_are_positional_and_model_independent() {
        let spec = tiny_spec();
        let cells = spec.cells();
        // same (family, n, span, rep) across models → identical config
        let a = spec.configuration(&cells[0], 1);
        let b = spec.configuration(&cells[1], 1);
        assert_eq!(a, b, "model must not perturb the drawn configuration");
        // different rep → (overwhelmingly) different tags, same graph shape
        let c = spec.configuration(&cells[0], 0);
        assert_eq!(a.size(), c.size());
        // derivation is stable across calls
        assert_eq!(a, spec.configuration(&cells[0], 1));
    }

    #[test]
    fn family_kind_round_trips_names() {
        // the six names of the campaign's original family axis, aliases
        // included, still parse and render through the FamilySpec grammar
        let kinds = [
            FamilySpec::Path,
            FamilySpec::Cycle,
            FamilySpec::Star,
            FamilySpec::Tree { arity: 2 },
            FamilySpec::RandomTree,
            FamilySpec::Gnp { ppm: None },
        ];
        let names = ["path", "cycle", "star", "binary-tree", "random-tree", "gnp"];
        for (kind, name) in kinds.iter().zip(names) {
            assert_eq!(kind.to_string(), name);
            assert_eq!(name.parse::<FamilySpec>().as_ref(), Ok(kind));
        }
        assert_eq!(
            "btree".parse::<FamilySpec>(),
            Ok(FamilySpec::Tree { arity: 2 })
        );
        assert_eq!("rtree".parse::<FamilySpec>(), Ok(FamilySpec::RandomTree));
        assert!("kagome-lattice".parse::<FamilySpec>().is_err());
        for kind in kinds {
            let g = kind.build_csr(7, 3).unwrap();
            assert!(radio_graph::algo::is_connected(&g), "{kind}");
        }
    }

    #[test]
    fn sharded_run_aggregates_every_run_exactly_once() {
        let spec = tiny_spec();
        let total = spec.total_runs();
        let mut runner = CampaignRunner::new(spec, 5);
        let mut seen = 0usize;
        while let Some(report) = runner.run_next_shard(2) {
            seen += report.runs;
        }
        assert_eq!(seen, total);
        let folded: u64 = runner.aggregates().map(|(_, a)| a.runs).sum();
        assert_eq!(folded as usize, total);
        for (_, agg) in runner.aggregates() {
            assert_eq!(agg.runs, 2, "reps per cell");
        }
        assert!(runner.is_done());
        assert!(runner.run_next_shard(2).is_none());
    }

    #[test]
    fn shard_geometry_does_not_change_results() {
        // Rows are deterministic up to the wall-clock summary (the only
        // measured, non-derived field): strip it before comparing.
        let rows_with = |shards: usize, threads: usize| -> Vec<String> {
            let mut runner = CampaignRunner::new(tiny_spec(), shards);
            runner.run_to_completion(threads);
            runner
                .jsonl_rows()
                .into_iter()
                .map(|row| row.split(",\"wall_ns\"").next().unwrap().to_string())
                .collect()
        };
        let one = rows_with(1, 1);
        assert_eq!(one, rows_with(4, 2), "sharding must not perturb rows");
        assert_eq!(one, rows_with(100, 3), "even empty shards");
    }

    #[test]
    fn resume_reproduces_the_remaining_shards() {
        // Process A runs shards 0..2 then dies; process B skips to shard 2
        // and finishes. B's aggregates must equal a full run minus A's
        // shards — checked cell-wise via the run counters and by
        // re-merging row counts.
        let spec = tiny_spec();
        let mut full = CampaignRunner::new(spec.clone(), 4);
        full.run_to_completion(2);

        let mut a = CampaignRunner::new(spec.clone(), 4);
        a.run_next_shard(2);
        a.run_next_shard(2);
        assert_eq!(a.cursor(), 2);

        let mut b = CampaignRunner::new(spec, 4);
        b.skip_to(a.cursor());
        b.run_to_completion(2);

        for (((_, f), (_, ra)), (_, rb)) in
            full.aggregates().zip(a.aggregates()).zip(b.aggregates())
        {
            assert_eq!(f.runs, ra.runs + rb.runs);
            assert_eq!(f.feasible, ra.feasible + rb.feasible);
            assert_eq!(f.elected, ra.elected + rb.elected);
        }
    }

    #[test]
    fn skip_to_returns_the_installed_cursor_and_clamps() {
        let mut runner = CampaignRunner::new(tiny_spec(), 4);
        assert_eq!(runner.skip_to(2), 2);
        assert_eq!(runner.cursor(), 2);
        // Out-of-range cursors clamp to the shard count (done, nothing to
        // run) and the clamp is visible in the return value.
        assert_eq!(runner.skip_to(99), 4);
        assert!(runner.is_done());
        assert!(runner.run_next_shard(1).is_none());
        // A nonexistent shard's range is empty — callers reporting ranges
        // must validate cursors first.
        let (start, end) = runner.shard_range(99);
        assert_eq!(start, end);
    }

    #[test]
    fn run_cell_matches_a_single_cell_campaign() {
        for phase in [Phase::Elect, Phase::Classify] {
            let spec = CampaignSpec {
                phase,
                families: vec![FamilySpec::Path],
                tags: vec![TagStrategy::Uniform],
                sizes: vec![6],
                spans: vec![3],
                models: vec![ModelKind::NoCollisionDetection],
                reps: 3,
                seed: 17,
                opts: RunOpts::default(),
                // the campaign side caches; `run_cell` on a fresh
                // workspace does not
                cache: CacheConfig::with_capacity(DEFAULT_CAPACITY),
                batch: BatchConfig::default(),
            };
            let cells = spec.cells();
            assert_eq!(cells.len(), 1);
            let mut ws = CampaignWorkspace::new();
            let agg = run_cell(&mut ws, &spec, &cells[0]);
            let served = cell_row(phase, &cells[0], &agg).to_jsonl();

            let mut runner = CampaignRunner::new(spec, 2);
            runner.run_to_completion(2);
            let campaign = runner.jsonl_rows().remove(0);

            let strip = |row: &str| row.split(",\"wall_ns\"").next().unwrap().to_string();
            assert_eq!(
                strip(&served),
                strip(&campaign),
                "{phase}: per-job dispatch must render the same deterministic prefix"
            );
        }
    }

    #[test]
    fn jsonl_rows_have_stable_shape() {
        let mut runner = CampaignRunner::new(tiny_spec(), 2);
        runner.run_to_completion(2);
        let rows = runner.jsonl_rows();
        assert_eq!(rows.len(), 12);
        for row in &rows {
            assert!(row.starts_with('{') && row.ends_with('}'));
            assert!(row.contains("\"family\":\""));
            assert!(row.contains("\"tags\":\"uniform\""));
            assert!(row.contains("\"runs\":2"));
            assert!(row.contains("\"wall_ns\":{\"count\":2"));
        }
        // the paper's model on a feasible-leaning grid elects leaders
        let elected: u64 = runner
            .aggregates()
            .filter(|(c, _)| c.model == ModelKind::NoCollisionDetection)
            .map(|(_, a)| a.elected)
            .sum();
        assert!(elected > 0, "default-model cells must elect");
    }

    #[test]
    fn aborted_runs_are_counted_but_not_folded_into_shape_stats() {
        // A feasible configuration with a round limit far below its
        // election time: the run aborts, and its zeroed metrics must not
        // contaminate the cell's rounds/transmissions statistics.
        let config = radio_graph::families::h_m(9); // needs well over 2 rounds
        let mut ws = CampaignWorkspace::new();
        let m = election_metrics(
            &mut ws,
            &config,
            None,
            ModelKind::NoCollisionDetection,
            radio_sim::RunOpts::with_max_rounds(2),
        );
        assert!(m.feasible && m.aborted && !m.elected);
        let mut agg = CellAggregate::default();
        agg.fold(&m);
        assert_eq!((agg.runs, agg.feasible, agg.aborted), (1, 1, 1));
        assert!(agg.rounds.is_empty(), "no zero sample folded");
        // a completed run folds normally alongside it
        let ok = election_metrics(
            &mut ws,
            &config,
            None,
            ModelKind::NoCollisionDetection,
            radio_sim::RunOpts::default(),
        );
        agg.fold(&ok);
        assert_eq!(agg.rounds.count(), 1);
        assert!(agg.rounds.min().unwrap() > 2.0);
    }

    #[test]
    fn election_metrics_reports_infeasible_draws() {
        // A uniform-tag cycle is maximally symmetric: infeasible.
        let config =
            Configuration::with_uniform_tags(radio_graph::generators::cycle(4), 0).unwrap();
        let mut ws = CampaignWorkspace::new();
        let m = election_metrics(
            &mut ws,
            &config,
            None,
            ModelKind::NoCollisionDetection,
            RunOpts::default(),
        );
        assert!(!m.feasible);
        assert!(!m.elected);
        assert_eq!(m.rounds, 0);
    }

    #[test]
    fn classify_metrics_reports_the_classifier_shape() {
        let mut ws = CampaignWorkspace::new();
        let feasible = radio_graph::families::h_m(3);
        let m = classify_metrics(&mut ws, &feasible);
        assert!(m.feasible);
        assert_eq!(m.iterations, 1);
        assert_eq!(m.classes, 4);
        assert!(m.relabels >= 4, "iteration 1 relabels everyone");
        assert_eq!((m.rounds, m.transmissions, m.elected as u64), (0, 0, 0));

        let infeasible = radio_graph::families::s_m(2);
        let m = classify_metrics(&mut ws, &infeasible);
        assert!(!m.feasible);
        assert_eq!(m.iterations, 2);
        assert_eq!(m.classes, 2);
    }

    #[test]
    fn classify_campaign_folds_classifier_stats_per_cell() {
        let spec = tiny_classify_spec();
        let cells = spec.cells().len();
        assert_eq!(cells, 8, "2 families × 2 sizes × 2 spans × 1 model");
        let mut runner = CampaignRunner::new(spec, 3);
        runner.run_to_completion(2);
        for (cell, agg) in runner.aggregates() {
            assert_eq!(agg.runs, 3, "{cell}");
            // every classify run folds the classifier shape
            assert_eq!(agg.iterations.count(), 3, "{cell}");
            assert_eq!(agg.classes.count(), 3, "{cell}");
            assert_eq!(agg.relabels.count(), 3, "{cell}");
            assert!(agg.iterations.min().unwrap() >= 1.0, "{cell}");
            // span-0 draws are uniform-tag: never feasible
            if cell.span == 0 {
                assert_eq!(agg.feasible, 0, "{cell}");
            }
            // no simulation shape in a classify campaign
            assert!(agg.rounds.is_empty(), "{cell}");
            assert_eq!(agg.aborted, 0, "{cell}");
        }
    }

    #[test]
    fn classify_rows_have_the_classify_shape() {
        let mut runner = CampaignRunner::new(tiny_classify_spec(), 2);
        runner.run_to_completion(2);
        let rows = runner.jsonl_rows();
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(row.starts_with("{\"phase\":\"classify\""), "{row}");
            assert!(row.contains("\"iterations\":{\"count\":3"), "{row}");
            assert!(row.contains("\"classes\":{"), "{row}");
            assert!(row.contains("\"relabels\":{"), "{row}");
            assert!(!row.contains("\"model\""), "{row}");
            assert!(!row.contains("\"rounds\""), "{row}");
            assert!(row.contains(",\"wall_ns\":{"), "{row}");
        }
    }

    #[test]
    fn cached_and_uncached_campaigns_produce_identical_rows() {
        // The cache must be invisible in every deterministic field — only
        // the measured tail (wall time, cache counters) may differ.
        let rows_with = |cache: CacheConfig| -> Vec<String> {
            let mut spec = tiny_spec();
            spec.cache = cache;
            let mut runner = CampaignRunner::new(spec, 3);
            runner.run_to_completion(2);
            runner
                .jsonl_rows()
                .into_iter()
                .map(|row| row.split(",\"wall_ns\"").next().unwrap().to_string())
                .collect()
        };
        let cached = rows_with(CacheConfig::with_capacity(DEFAULT_CAPACITY));
        assert_eq!(cached, rows_with(CacheConfig::disabled()));
        // a tiny capacity thrashes the LRU but never changes results
        assert_eq!(cached, rows_with(CacheConfig::with_capacity(1)));
    }

    #[test]
    fn cached_campaign_reports_hits_in_rows_and_stats() {
        // The one-lookup-per-run accounting asserted below holds with
        // dedupe off; dedupe answers repeated draws within a slice without
        // a lookup, so its lookup count can be below total_runs (pinned
        // by batched_dedupe_accounts_hits_without_extra_lookups).
        let mut spec = tiny_spec();
        spec.batch = BatchConfig::disabled();
        spec.cache = CacheConfig::with_capacity(DEFAULT_CAPACITY);
        let mut runner = CampaignRunner::new(spec, 2);
        runner.run_to_completion(2);
        let stats = runner
            .cache_stats()
            .expect("an elect campaign that names a capacity caches");
        assert_eq!(stats.lookups(), runner.spec().total_runs() as u64);
        // 3 models share each (family, n, span, rep) draw, so at least
        // two-thirds of the lookups hit even with racing workers
        assert!(stats.hits > 0, "{stats:?}");
        let folded: u64 = runner.aggregates().map(|(_, a)| a.cache_hits).sum();
        assert_eq!(folded, stats.hits, "per-cell counters fold every hit");
        let rows = runner.jsonl_rows();
        assert!(
            rows.iter().all(|r| r.contains(",\"cache_hits\":")),
            "elect rows carry counters"
        );
        assert!(
            rows.iter().any(|r| !r.contains("\"cache_hits\":0")),
            "some cell must record a hit"
        );
        // counters sit after wall_ns, in the stripped tail
        for row in &rows {
            let tail = row.split(",\"wall_ns\"").nth(1).unwrap();
            assert!(tail.contains("\"cache_hits\""), "{row}");
        }
    }

    #[test]
    fn batched_dedupe_accounts_hits_without_extra_lookups() {
        // Arith tags redraw the same tag vector every rep, so every slice
        // holds duplicate fingerprints: the slice-local memo answers them
        // without consulting the shared cache, while their metrics still
        // record hits. Rows stay bit-identical to the dedupe-off campaign
        // up to the measured tail.
        let mut spec = tiny_spec();
        spec.tags = vec![TagStrategy::Arith { stride: 1 }];
        spec.reps = 6;
        spec.batch = BatchConfig::with_size(4);
        spec.cache = CacheConfig::with_capacity(DEFAULT_CAPACITY);
        let mut runner = CampaignRunner::new(spec.clone(), 1);
        runner.run_to_completion(1);
        let stats = runner.cache_stats().unwrap();
        assert!(
            stats.lookups() < spec.total_runs() as u64,
            "slice-local dedupe must skip shared-cache lookups: {stats:?}"
        );
        let folded: u64 = runner.aggregates().map(|(_, a)| a.cache_hits).sum();
        assert!(folded >= stats.hits, "{folded} vs {stats:?}");
        assert!(folded > 0, "deduped members still record hits");
        let mut seq_spec = spec;
        seq_spec.batch = BatchConfig::disabled();
        let mut seq = CampaignRunner::new(seq_spec, 2);
        seq.run_to_completion(2);
        let strip = |rows: Vec<String>| -> Vec<String> {
            rows.into_iter()
                .map(|r| r.split(",\"wall_ns\"").next().unwrap().to_string())
                .collect()
        };
        assert_eq!(strip(runner.jsonl_rows()), strip(seq.jsonl_rows()));
    }

    #[test]
    fn disabled_cache_reports_no_stats_and_zero_counters() {
        let mut spec = tiny_spec();
        spec.cache = CacheConfig::disabled();
        let mut runner = CampaignRunner::new(spec, 2);
        runner.run_to_completion(2);
        assert!(runner.cache_stats().is_none());
        for (_, agg) in runner.aggregates() {
            assert_eq!((agg.cache_hits, agg.cache_misses), (0, 0));
        }
        for row in runner.jsonl_rows() {
            assert!(
                row.contains("\"cache_hits\":0,\"cache_misses\":0,\"mem_hw\":"),
                "{row}"
            );
        }
    }

    #[test]
    fn classify_campaigns_never_attach_a_cache() {
        // even a spec that names a capacity: classify compiles nothing
        let mut spec = tiny_classify_spec();
        spec.cache = CacheConfig::with_capacity(DEFAULT_CAPACITY);
        let mut runner = CampaignRunner::new(spec, 2);
        assert!(runner.cache_stats().is_none(), "classify compiles nothing");
        runner.run_to_completion(2);
        for row in runner.jsonl_rows() {
            assert!(!row.contains("cache"), "{row}");
        }
    }

    #[test]
    fn classify_campaign_is_shard_and_thread_invariant() {
        let rows_with = |shards: usize, threads: usize| -> Vec<String> {
            let mut runner = CampaignRunner::new(tiny_classify_spec(), shards);
            runner.run_to_completion(threads);
            runner
                .jsonl_rows()
                .into_iter()
                .map(|row| row.split(",\"wall_ns\"").next().unwrap().to_string())
                .collect()
        };
        let one = rows_with(1, 1);
        assert_eq!(one, rows_with(4, 3));
        assert_eq!(one, rows_with(16, 2));
    }
}
