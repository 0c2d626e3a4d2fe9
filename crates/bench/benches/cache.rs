//! Criterion: the schedule cache on a repeated-shape campaign grid —
//! warm-cache vs `--no-cache` — plus the classify+compile
//! micro-comparison the campaign numbers decompose into.
//!
//! **Gate (≥2×, alongside the batch.rs/classify.rs gates):** the
//! `cache_campaign/warm` benchmark must run at least 2× faster than
//! `cache_campaign/no_cache` on the repeated-shape grid below. The grid
//! is a feasibility-landscape sweep over *dense* shapes (complete:48/64,
//! bipartite:32x32) where span 3 leaves every cell infeasible: no
//! simulation runs, so build + classify + compile is the entire per-run
//! cost on the uncached side — exactly what the cache memoizes. The
//! warm runner answers every lookup with an exact hit because the
//! priming pass saw every positional seed: criterion re-iterations
//! replay the same draws (only `arith` repeats its draw every rep;
//! `uniform`, `clustered` and `extremes` draw fresh tags per rep at
//! σ = 3). It pays only seed derivation + draw key + aggregation.
//! Feasible sparse grids (e.g. star:32/path:48) are simulation-bound —
//! the cache is correct but invisible there (~1.1×), which is why the
//! gate grid is the dense one.
//! Locally measured (release, 4 worker threads): no_cache ≈ 62 ms/iter,
//! warm ≈ 28 ms/iter — ≈2.2×; `cache_solve` shows the per-call gap at
//! ≈8.6× on the repeated 48-node path. Regressions below 2× mean the key
//! derivation started missing (stability bug) or the cached path grew a
//! deep copy.

use anon_radio::cache::DEFAULT_CAPACITY;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use radio_bench::campaign::{
    BatchConfig, CacheConfig, CampaignRunner, CampaignSpec, FamilySpec, Phase, ScheduleCache,
    TagStrategy,
};
use radio_classifier::ClassifierWorkspace;
use radio_graph::{generators, tags, Configuration};
use radio_sim::{ModelKind, RunOpts};
use std::sync::Arc;

/// The repeated-shape grid: three dense shapes (complete:48, complete:64,
/// bipartite:32x32) × all four tag strategies × enough reps that
/// classify+compile dominates the uncached runtime. 3 shapes ×
/// 4 strategies × 125 reps = 1500 runs, ~750 distinct keys of one entry
/// each — well inside the default capacity, so the warm pass never evicts.
fn repeated_shape_spec(cache: CacheConfig) -> CampaignSpec {
    CampaignSpec {
        phase: Phase::Elect,
        families: vec![FamilySpec::Complete, "bipartite:32x32".parse().unwrap()],
        tags: TagStrategy::ALL.to_vec(),
        sizes: vec![48, 64],
        spans: vec![3],
        models: vec![ModelKind::NoCollisionDetection],
        reps: 125,
        seed: 0xCAC4E,
        opts: RunOpts::default(),
        cache,
        batch: BatchConfig::default(),
    }
}

fn bench_cache_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_campaign");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(3000));
    let cached = CacheConfig::with_capacity(DEFAULT_CAPACITY);
    let runs = repeated_shape_spec(cached).total_runs() as u64;
    group.throughput(Throughput::Elements(runs));
    let threads = 4;

    // `--no-cache`: every run classifies and compiles from scratch.
    group.bench_function("no_cache", |b| {
        b.iter(|| {
            let mut runner = CampaignRunner::new(repeated_shape_spec(CacheConfig::disabled()), 1);
            runner.run_to_completion(threads);
            runner.aggregates().map(|(_, a)| a.runs).sum::<u64>()
        })
    });

    // Warm cache: one shared cache primed by a first pass, then reused by
    // every iteration (criterion re-runs replay identical positional
    // draws, so after the priming pass every lookup is an exact hit).
    let warm = Arc::new(ScheduleCache::default());
    {
        let mut primer =
            CampaignRunner::with_cache(repeated_shape_spec(cached), 1, Some(warm.clone()));
        primer.run_to_completion(threads);
    }
    group.bench_function("warm", |b| {
        b.iter(|| {
            let mut runner =
                CampaignRunner::with_cache(repeated_shape_spec(cached), 1, Some(warm.clone()));
            runner.run_to_completion(threads);
            runner.aggregates().map(|(_, a)| a.runs).sum::<u64>()
        })
    });
    group.finish();
}

fn bench_cache_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_solve");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(2000));

    // One repeated 48-node path with distinct tags: the worst case for
    // recomputation (n distinct classes → full refinement work) and the
    // best case for the cache (same exact key every call).
    let mut rng = radio_util::rng::rng_from(7);
    let config: Configuration = tags::distinct_shuffled(generators::path(48), &mut rng);

    group.bench_function("compile_every_call", |b| {
        let mut ws = ClassifierWorkspace::new();
        b.iter(|| {
            anon_radio::CompiledElection::compile_in(&mut ws, &config)
                .summary()
                .num_classes
        })
    });

    group.bench_function("cached_exact_hit", |b| {
        let cache = ScheduleCache::default();
        let mut ws = ClassifierWorkspace::new();
        let _ = cache.compile_in(&mut ws, &config); // prime
        b.iter(|| cache.compile_in(&mut ws, &config).0.summary().num_classes)
    });
    group.finish();
}

criterion_group!(benches, bench_cache_campaign, bench_cache_solve);
criterion_main!(benches);
