//! Criterion: the million-node scale path, plus its hard gate.
//!
//! Before any sampling runs, this bench *asserts* the scale-path
//! contract at n = 10⁵: CSR-direct generation
//! ([`FamilySpec::build_csr`]) is ≥ 1.5× faster than building the
//! family's `Graph` and freezing it with [`Csr::from_graph`], with
//! byte-identical CSR output (offsets + targets). Both routes consume the
//! same edge stream, so the gate measures what the adjacency-list detour
//! costs.
//!
//! A regression trips the assertion and fails `cargo bench --bench
//! scale` outright — the timings below are the diagnostic, not the gate.

use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use radio_graph::{Csr, FamilySpec};

/// Gate size: large enough that the per-node `to_vec` + sort of the
/// legacy route dominates, small enough to keep the gate under a second.
const GATE_N: usize = 100_000;
const GATE_SPEEDUP: f64 = 1.5;
const GATE_SEED: u64 = 9;

/// One deterministic and one seed-streamed (two-pass count-then-fill)
/// family: the routes differ most where the legacy path materializes
/// adjacency lists it immediately throws away.
const GATE_FAMILIES: [FamilySpec; 2] = [FamilySpec::Path, FamilySpec::RandomTree];

fn best_ns<T>(passes: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let started = Instant::now();
        std::hint::black_box(f());
        best = best.min(started.elapsed().as_nanos() as f64);
    }
    best
}

fn gate_generation_speedup() {
    for family in GATE_FAMILIES {
        let direct = family.build_csr(GATE_N, GATE_SEED).unwrap();
        let legacy = Csr::from_graph(&family.build(GATE_N, GATE_SEED).unwrap());
        assert_eq!(
            direct, legacy,
            "{family}: CSR-direct and Graph routes must agree byte for byte"
        );
        let t_direct = best_ns(5, || family.build_csr(GATE_N, GATE_SEED).unwrap());
        let t_legacy = best_ns(5, || {
            Csr::from_graph(&family.build(GATE_N, GATE_SEED).unwrap())
        });
        let speedup = t_legacy / t_direct;
        eprintln!(
            "scale gate: {family} n={GATE_N}: csr-direct {:.2} ms, graph route {:.2} ms — {speedup:.2}×",
            t_direct / 1e6,
            t_legacy / 1e6,
        );
        assert!(
            speedup >= GATE_SPEEDUP,
            "{family}: CSR-direct generation regressed to {speedup:.2}× the legacy \
             route at n={GATE_N} (gate: ≥ {GATE_SPEEDUP}×)"
        );
    }
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale/generate");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1500));
    for family in GATE_FAMILIES {
        for n in [10_000usize, 100_000] {
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("{family}/csr_direct"), n),
                &n,
                |b, &n| b.iter(|| family.build_csr(n, GATE_SEED).unwrap()),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{family}/graph_route"), n),
                &n,
                |b, &n| b.iter(|| Csr::from_graph(&family.build(n, GATE_SEED).unwrap())),
            );
        }
    }
    group.finish();
}

fn bench_streaming_elect(c: &mut Criterion) {
    use radio_graph::{tags::TagStrategy, Configuration};
    use radio_sim::{ModelKind, RunOpts, SimWorkspace};

    // Full elect pipeline (CSR-direct build → classify+compile →
    // streaming length-only simulation) on a 10⁵-node star: the per-node
    // cost the million-node path scales from.
    let n = 100_000usize;
    let csr = FamilySpec::Star.build_csr(n, GATE_SEED).unwrap();
    let tags = TagStrategy::Extremes.draw(n, 3, &mut radio_util::rng::rng_from(GATE_SEED));
    let config = Configuration::from_csr(csr, tags).unwrap();
    let mut group = c.benchmark_group("scale/elect");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(2000));
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("star/len_only/100000", |b| {
        let mut sim = SimWorkspace::new();
        b.iter(|| {
            let compiled = anon_radio::solve(&config).unwrap();
            compiled
                .run_in(
                    &mut sim,
                    &config,
                    ModelKind::NoCollisionDetection,
                    RunOpts::default(),
                )
                .unwrap()
                .leader
        })
    });
    group.finish();
}

criterion_group!(benches, bench_generation, bench_streaming_elect);

fn main() {
    gate_generation_speedup();
    benches();
}
