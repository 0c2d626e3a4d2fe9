//! `elect-sparse` and `elect-dense`: single-threaded passes over a few
//! large elections, each generate → compile → simulate → validate.

use radio_graph::{Configuration, FamilySpec, TagStrategy};
use radio_util::rng::{derive, derive_index, rng_from};

use crate::layers::{classify_apart, elect_config, fold_report, Counters, Engines, Layers};
use crate::trace::Tracer;
use crate::{finish_traced, run_cycles, trace_overhead, Meter, Outcome, Settings, Workload};

/// One election: `family` on `n` nodes with `tags` drawn in `0..=span`,
/// derived from `seed` exactly as `anon-radio elect --family … --seed`
/// derives it.
#[derive(Debug, Clone)]
pub struct ElectionSpec {
    /// Graph family.
    pub family: FamilySpec,
    /// Node count.
    pub n: usize,
    /// Tag span σ.
    pub span: u64,
    /// Tag placement.
    pub tags: TagStrategy,
    /// Seed of the graph and tag streams.
    pub seed: u64,
}

impl ElectionSpec {
    /// Builds the configuration: CSR-direct graph, then tags.
    pub fn generate(&self) -> Result<Configuration, String> {
        let csr = self
            .family
            .build_csr(self.n, derive(self.seed, "graph"))
            .map_err(|e| e.to_string())?;
        let tags = self
            .tags
            .draw(self.n, self.span, &mut rng_from(derive(self.seed, "tags")));
        Configuration::from_csr(csr, tags).map_err(|e| format!("{}: {e}", self.family))
    }
}

type Row = (&'static str, usize, u64, &'static str);

/// Drawn [`SPARSE_DRAWS`] times each per pass. Sizes keep a run's
/// engine state (about 1.5 MiB) inside one core's L2 cache: at 10⁴ and
/// 4·10⁴ nodes the elections were bound by memory latency, which other
/// tenants of a shared host move by 1.5× within minutes.
const SPARSE: [Row; 2] = [
    ("random-tree", 5_000, 1000, "uniform"),
    ("path", 12_000, 64, "clustered"),
];
const SPARSE_DRAWS: usize = 4;
/// Drawn [`DENSE_DRAWS`] times each per pass. Sizes stay near 4 096 nodes:
/// at 10⁵–10⁶ nodes these elections are bound by memory bandwidth, which
/// other tenants of a shared host move by 1.5× within minutes, and which
/// the CPU-speed probe does not follow.
const DENSE: [Row; 4] = [
    ("grid:64x64", 4_096, 50, "uniform"),
    ("hypercube:12", 4_096, 20, "uniform"),
    ("bipartite:24x4072", 4_096, 41, "uniform"),
    ("star", 32_768, 3, "uniform"),
];
const DENSE_DRAWS: usize = 8;
const SPARSE_SMOKE: [Row; 2] = [
    ("random-tree", 300, 100, "uniform"),
    ("path", 600, 16, "clustered"),
];
const DENSE_SMOKE: [Row; 4] = [
    ("grid:12x12", 144, 10, "uniform"),
    ("hypercube:7", 128, 8, "uniform"),
    ("bipartite:16x184", 200, 200, "uniform"),
    ("star", 2_000, 3, "uniform"),
];
fn spec(row: Row, seed: u64) -> ElectionSpec {
    let (family, n, span, tags) = row;
    ElectionSpec {
        family: family.parse().expect("valid family spec"),
        n,
        span,
        tags: tags.parse().expect("valid tag strategy"),
        seed,
    }
}

/// The elections of one pass of `workload`, seeded from `seed`: each row
/// of its table, drawn [`SPARSE_DRAWS`] or [`DENSE_DRAWS`] times (once
/// each in smoke mode).
pub fn plan(workload: Workload, seed: u64, smoke: bool) -> Vec<ElectionSpec> {
    let (rows, draws): (&[Row], usize) = match (workload, smoke) {
        (Workload::ElectSparse, false) => (&SPARSE, SPARSE_DRAWS),
        (Workload::ElectSparse, true) => (&SPARSE_SMOKE, 1),
        (Workload::ElectDense, false) => (&DENSE, DENSE_DRAWS),
        (Workload::ElectDense, true) => (&DENSE_SMOKE, 1),
        (other, _) => panic!("{} is not an elect workload", other.name()),
    };
    let root = derive(seed, workload.name());
    rows.iter()
        .flat_map(|&row| std::iter::repeat_n(row, draws))
        .enumerate()
        .map(|(i, row)| spec(row, derive_index(root, i as u64)))
        .collect()
}

/// Runs one election as op `op`, then, when `apart`, classifies its
/// configuration apart from the op. Returns its digest contribution, or the
/// failure.
fn elect_one(
    spec: &ElectionSpec,
    engines: &mut Engines,
    tracer: &mut Tracer,
    op: u64,
    counters: &mut Counters,
    apart: bool,
) -> Result<u64, String> {
    tracer.enter("op", op);
    tracer.enter("graph.generate", op);
    let config = spec.generate();
    tracer.exit();
    let result = config
        .as_ref()
        .map_err(String::clone)
        .and_then(|c| elect_config(c, engines, tracer, op, counters));
    tracer.exit();
    if let (true, Ok(c)) = (apart, &config) {
        classify_apart(c, engines, tracer, op);
    }
    match result?.1 {
        Some(report) => Ok(fold_report(0, &report)),
        None => Err(format!(
            "op {op}: {} n={} σ={} {} seed {} is infeasible",
            spec.family, spec.n, spec.span, spec.tags, spec.seed
        )),
    }
}

/// Runs an elect workload. Each cycle's set-up builds fresh workspaces and
/// warms them with the smoke-size elections of the same families.
pub fn run(settings: &Settings) -> Outcome {
    let mut outcome = Outcome::default();
    let specs = plan(settings.workload, settings.seed, settings.smoke);
    let warm = plan(settings.workload, derive(settings.seed, "warm-up"), true);
    let mut engines = Engines::default();
    let mut tracer = Tracer::new(false);
    let mut digests: Vec<u64> = Vec::new();
    let mut counters = Counters::default();
    let mut timing = run_cycles(settings.seconds, |cycle| {
        let mut meter = Meter::new();
        meter.setup(|| {
            engines = Engines::default();
            let mut scratch = Counters::default();
            for spec in &warm {
                let mut off = Tracer::new(false);
                if let Err(e) = elect_one(spec, &mut engines, &mut off, 0, &mut scratch, false) {
                    outcome.failures.push(format!("warm-up: {e}"));
                }
            }
        });
        tracer.set_on(settings.trace && cycle % 2 == 1);
        let mut pass_counters = Counters::default();
        let mut digest = 0u64;
        for (i, spec) in specs.iter().enumerate() {
            let op = (cycle * specs.len() + i) as u64;
            let apart = settings.trace;
            let result = meter.time(|| {
                elect_one(
                    spec,
                    &mut engines,
                    &mut tracer,
                    op,
                    &mut pass_counters,
                    apart,
                )
            });
            match result {
                Ok(part) => digest = radio_util::rng::splitmix64(digest ^ part),
                Err(e) => outcome.failures.push(e),
            }
        }
        digests.push(digest);
        counters = pass_counters;
        let latencies = meter.segments.clone();
        meter.cycle(latencies)
    });

    outcome.attempted = (timing.cycles.len() * specs.len()) as u64;
    if digests.iter().any(|&d| d != digests[0]) {
        outcome.failures.push(format!(
            "election digests differ between passes: {digests:x?}"
        ));
    }
    outcome.notes.push(format!(
        "{} cycles, election digest {:016x}, {} stepped node-rounds and {} transmissions per pass",
        timing.cycles.len(),
        digests[0],
        counters.node_rounds,
        counters.transmissions
    ));
    timing.runs_per_pass = specs.len() as u64;
    if settings.trace {
        let mut layers = Layers {
            counters,
            trace_overhead: trace_overhead(&timing),
            ..Layers::default()
        };
        layers.attribute(&tracer, timing.cycles.len() / 2);
        layers.workspaces(&engines);
        finish_traced(settings, &tracer, &layers, &mut outcome);
    } else {
        timing.finish(&mut outcome);
    }
    outcome
}
