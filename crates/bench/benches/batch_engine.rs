//! Criterion: campaign dedupe on the 10k-rep small-graph elect campaign —
//! dedupe on (the default) vs `--no-batch` (every run compiled and
//! simulated).
//!
//! **Gate (≥1.5×, alongside the cache.rs/classify.rs gates):** the
//! `batch_campaign/batched` benchmark must run at least 1.5× faster than
//! `batch_campaign/one_per_worker` on the grid below: path:8 + star:8 ×
//! arith-stride-1 tags × span 4 × Beeping × 5000 reps = 10 000 runs.
//! Arith tags on a deterministic family draw one configuration per
//! cell, so every run of a 16-run slice after the first repeats its
//! `Draw::key` and copies its metrics: no build, no cache lookup, no
//! compile, no simulation. Both arms read metrics from the resident
//! `SimWorkspace` run without building an `Execution`, so the ratio is
//! the dedupe alone. Locally measured (release, 1 worker thread):
//! one_per_worker ≈ 44 ms/iter, batched ≈ 10 ms/iter — ≈4.3×. A ratio
//! below 1.5× means the slice memo stopped finding duplicates or a
//! per-run fixed cost grew on the deduped path.

use anon_radio::cache::DEFAULT_CAPACITY;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use radio_bench::campaign::{
    BatchConfig, CacheConfig, CampaignRunner, CampaignSpec, FamilySpec, Phase, TagStrategy,
};
use radio_sim::{parallel, ModelKind, RunOpts};

/// The gate grid: 2 families × 1 strategy × 1 size × 1 span × 1 model ×
/// 5000 reps = 10 000 runs, every graph n = 8.
fn small_graph_spec(batch: BatchConfig) -> CampaignSpec {
    CampaignSpec {
        phase: Phase::Elect,
        families: vec![FamilySpec::Path, FamilySpec::Star],
        tags: vec![TagStrategy::Arith { stride: 1 }],
        sizes: vec![8],
        spans: vec![4],
        models: vec![ModelKind::Beeping],
        reps: 5_000,
        seed: 0xBA7C4E,
        opts: RunOpts::default(),
        cache: CacheConfig::with_capacity(DEFAULT_CAPACITY),
        batch,
    }
}

fn bench_batch_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_campaign");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(3000));
    let runs = small_graph_spec(BatchConfig::default()).total_runs() as u64;
    group.throughput(Throughput::Elements(runs));
    let threads = parallel::default_threads();

    // `--no-batch`: every run pays its own cache lookup and simulation.
    group.bench_function("one_per_worker", |b| {
        b.iter(|| {
            let mut runner = CampaignRunner::new(small_graph_spec(BatchConfig::disabled()), 1);
            runner.run_to_completion(threads);
            runner.aggregates().map(|(_, a)| a.runs).sum::<u64>()
        })
    });

    // The default: dedupe within slices of `BatchConfig::DEFAULT_SIZE`.
    group.bench_function("batched", |b| {
        b.iter(|| {
            let mut runner = CampaignRunner::new(small_graph_spec(BatchConfig::default()), 1);
            runner.run_to_completion(threads);
            runner.aggregates().map(|(_, a)| a.runs).sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_batch_campaign);
criterion_main!(benches);
