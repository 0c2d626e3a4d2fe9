//! Criterion: `Classifier` wall time (fast engine) across families and
//! sizes — the E1 companion timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use radio_bench::workloads::{scaling_families, with_random_tags};
use radio_classifier::{classify_with, Engine};

fn bench_classifier(c: &mut Criterion) {
    let mut group = c.benchmark_group("classifier_fast");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1500));
    for family in scaling_families() {
        for n in [32usize, 128] {
            let graph = family.make(n, 42);
            let config = with_random_tags(graph, 4, 42 ^ n as u64);
            group.bench_with_input(BenchmarkId::new(family.name, n), &config, |b, config| {
                b.iter(|| classify_with(config, Engine::Fast).iterations)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_classifier);
criterion_main!(benches);
