//! Criterion: the million-node scale path — family generation straight
//! into CSR form ([`FamilySpec::build_csr`]: a deterministic family's edge
//! stream runs twice, count then fill; a seeded family's runs once into an
//! edge list that is then frozen), and the streaming elect pipeline on top
//! of it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use radio_graph::FamilySpec;

const SEED: u64 = 9;

/// The generated families and their sizes: `path` is deterministic and
/// takes both passes; `random-tree` and `gnp` are seeded and take one.
/// `gnp` flips a coin for every node pair, so it runs at smaller sizes.
const FAMILIES: [(FamilySpec, [usize; 2]); 3] = [
    (FamilySpec::Path, [10_000, 100_000]),
    (FamilySpec::RandomTree, [10_000, 100_000]),
    (FamilySpec::Gnp { ppm: None }, [256, 4_096]),
];

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale/generate");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1500));
    for (family, sizes) in FAMILIES {
        for n in sizes {
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("{family}/csr_direct"), n),
                &n,
                |b, &n| b.iter(|| family.build_csr(n, SEED).unwrap()),
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
    let csr = FamilySpec::Star.build_csr(n, SEED).unwrap();
    let tags = TagStrategy::Extremes.draw(n, 3, &mut radio_util::rng::rng_from(SEED));
    let config = Configuration::new(csr, tags).unwrap();
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
criterion_main!(benches);
