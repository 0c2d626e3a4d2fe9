//! Integration tests of the canonical-key schedule cache: cache-hit ≡
//! cache-miss bit-for-bit at every level the pipeline exposes — compiled
//! schedules, election reports, campaign JSONL rows — across workspace
//! reuse, shuffled scenario mixes, LRU eviction, and cross-workspace key
//! stability. The golden campaign corpus runs with the cache *on* (the
//! default), so `tests/golden_campaign.rs` doubles as the pin that cached
//! rows match the pre-cache byte stream.

use std::sync::Arc;

use anon_radio::cache::{CacheConfig, CacheLookup, ScheduleCache};
use anon_radio::campaign::{
    BatchConfig, CampaignRunner, CampaignSpec, FamilySpec, Phase, TagStrategy,
};
use anon_radio::CompiledElection;
use radio_classifier::ClassifierWorkspace;
use radio_graph::{families, Configuration};
use radio_sim::{ModelKind, RunOpts, SimWorkspace};

/// A zoo-mix elect grid with repeated shapes: `arith` tags redraw the
/// same tag vector every rep, so cache hits are guaranteed, while
/// `uniform` reps and three models exercise exact-key reuse across the
/// model axis.
fn zoo_spec(cache: CacheConfig) -> CampaignSpec {
    CampaignSpec {
        phase: Phase::Elect,
        families: vec![
            FamilySpec::Path,
            FamilySpec::Star,
            "torus:3x3".parse().unwrap(),
            "hypercube:3".parse().unwrap(),
            "barbell:3+1".parse().unwrap(),
        ],
        tags: vec![TagStrategy::Uniform, TagStrategy::Arith { stride: 2 }],
        sizes: vec![6],
        spans: vec![3],
        models: ModelKind::ALL.to_vec(),
        reps: 3,
        seed: 0xCACE,
        opts: RunOpts::default(),
        cache,
        batch: BatchConfig::default(),
    }
}

/// Strips the measured tail (wall time + interleaving-dependent cache
/// counters), leaving only the deterministic fields.
fn stable(rows: Vec<String>) -> Vec<String> {
    rows.into_iter()
        .map(|row| row.split(",\"wall_ns\"").next().unwrap().to_string())
        .collect()
}

#[test]
fn cached_campaign_rows_match_uncached_bit_for_bit() {
    let run = |cache: CacheConfig, shards: usize, threads: usize| -> (Vec<String>, Option<u64>) {
        let mut runner = CampaignRunner::new(zoo_spec(cache), shards);
        runner.run_to_completion(threads);
        let hits = runner.cache_stats().map(|s| s.hits);
        (stable(runner.jsonl_rows()), hits)
    };
    let (cached, hits) = run(CacheConfig::default(), 4, 2);
    let (uncached, none) = run(CacheConfig::disabled(), 4, 2);
    assert_eq!(
        cached, uncached,
        "cache must be invisible in derived fields"
    );
    assert!(
        hits.expect("cached run has stats") > 0,
        "grid must actually hit"
    );
    assert!(none.is_none());
    // different shard/thread geometry on the cached path changes nothing
    let (regeo, _) = run(CacheConfig::default(), 1, 1);
    assert_eq!(cached, regeo);
    // a thrashing one-entry cache still changes nothing
    let (tiny, _) = run(CacheConfig::with_capacity(1), 3, 2);
    assert_eq!(cached, tiny);
}

#[test]
fn cache_hits_equal_fresh_compiles_across_workspace_reuse_and_shuffles() {
    // Shuffled zoo mix: derive every configuration of the grid, visit it
    // in two different orders through one long-lived workspace, and check
    // the cached result against an always-fresh compile each time.
    let spec = zoo_spec(CacheConfig::default());
    let mut configs: Vec<Configuration> = Vec::new();
    for cell in spec.cells() {
        for rep in 0..spec.reps {
            configs.push(spec.configuration(&cell, rep));
        }
    }
    let cache = ScheduleCache::default();
    let mut ws = ClassifierWorkspace::new();
    let mut fresh_ws = ClassifierWorkspace::new();
    let mut sim = radio_sim::SimWorkspace::new();
    let forward = configs.iter();
    let backward = configs.iter().rev();
    for config in forward.chain(backward) {
        let (cached, _) = cache.compile_in(&mut ws, config);
        let fresh = CompiledElection::compile_in(&mut fresh_ws, config);
        assert_eq!(cached.summary(), fresh.summary(), "{config}");
        assert_eq!(cached.schedule().lists, fresh.schedule().lists, "{config}");
        assert_eq!(
            cached.schedule().phase_end,
            fresh.schedule().phase_end,
            "{config}"
        );
        if cached.feasible() {
            let a = cached
                .run_in(&mut sim, config, ModelKind::NoCollisionDetection, spec.opts)
                .unwrap();
            let b = fresh
                .run_in(&mut sim, config, ModelKind::NoCollisionDetection, spec.opts)
                .unwrap();
            assert_eq!(a, b, "{config}");
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.lookups(), 2 * configs.len() as u64);
    assert!(stats.hits >= configs.len() as u64, "second pass must hit");
}

#[test]
fn solve_cached_matches_solve_in_for_elections_and_infeasibility() {
    let cache = ScheduleCache::default();
    let mut ws = ClassifierWorkspace::new();
    let mut sim = SimWorkspace::new();
    let mut run = |compiled: &CompiledElection, config: &Configuration| {
        compiled
            .run_in(&mut sim, config, ModelKind::default(), RunOpts::default())
            .unwrap()
    };
    for m in [1u64, 2, 5] {
        let config = families::h_m(m);
        // twice, so both the miss and the hit path are compared
        for _ in 0..2 {
            let (cached, _) = cache.compile_in(&mut ws, &config);
            let plain = CompiledElection::compile_in(&mut ws, &config);
            assert_eq!(cached.summary(), plain.summary());
            assert_eq!(cached.predicted_leader(), plain.predicted_leader());
            assert_eq!(run(&cached, &config), run(&plain, &config), "H_{m}");
        }
    }
    // infeasible configurations cache their verdict too
    for _ in 0..2 {
        let (cached, _) = cache.compile_in(&mut ws, &families::s_m(2));
        assert!(!cached.feasible());
        assert_eq!(cached.summary().iterations, 2);
    }
    assert!(cache.stats().hits >= 4);
}

#[test]
fn keys_are_stable_across_workspaces() {
    // A workspace whose interner diverged (different configurations seen
    // first) must still produce exact hits on entries cached by another
    // workspace — the content-hash key contract, exercised end to end.
    let cache = ScheduleCache::default();
    let mut ws_a = ClassifierWorkspace::new();
    for warmup in [families::g_m(2), families::s_m(4), families::h_m(7)] {
        let _ = cache.compile_in(&mut ws_a, &warmup);
    }
    let probe = families::g_m(3);
    let (from_a, l_a) = cache.compile_in(&mut ws_a, &probe);
    assert_eq!(l_a, CacheLookup::Miss);
    let mut ws_b = ClassifierWorkspace::new();
    let (from_b, l_b) = cache.compile_in(&mut ws_b, &probe);
    assert_eq!(l_b, CacheLookup::ExactHit, "fresh workspace, same key");
    assert!(Arc::ptr_eq(
        &from_a.shared_schedule(),
        &from_b.shared_schedule()
    ));
}

#[test]
fn lru_eviction_and_reinsertion_preserve_results() {
    let spec = zoo_spec(CacheConfig::with_capacity(1));
    // capacity 1 → per-shard budget 1: the grid's distinct shapes evict
    // each other constantly; every result must still be exact.
    let mut runner = CampaignRunner::new(spec, 2);
    runner.run_to_completion(2);
    let stats = runner.cache_stats().unwrap();
    assert!(stats.evictions > 0, "one-entry cache must evict: {stats:?}");
    let baseline = {
        let mut r = CampaignRunner::new(zoo_spec(CacheConfig::disabled()), 2);
        r.run_to_completion(2);
        stable(r.jsonl_rows())
    };
    assert_eq!(stable(runner.jsonl_rows()), baseline);
    // re-insertion after eviction: a direct probe on a tiny cache
    let cache = ScheduleCache::new(1);
    let mut ws = ClassifierWorkspace::new();
    let configs: Vec<Configuration> = (1..=10u64).map(families::h_m).collect();
    for c in &configs {
        let _ = cache.compile_in(&mut ws, c);
    }
    for c in &configs {
        let (compiled, _) = cache.compile_in(&mut ws, c);
        let fresh = CompiledElection::compile_in(&mut ws, c);
        assert_eq!(compiled.summary(), fresh.summary());
        assert_eq!(compiled.schedule().lists, fresh.schedule().lists);
    }
    assert!(cache.stats().evictions > 0);
}

#[test]
fn canonical_hits_share_schedules_across_trace_identical_configurations() {
    // Uniform-tag C_4 and K_4 replay the same refinement trace: the
    // second configuration must reuse the first's schedule without
    // compiling, then earn its own exact alias.
    let cycle = Configuration::with_uniform_tags(radio_graph::generators::cycle(4), 0).unwrap();
    let complete =
        Configuration::with_uniform_tags(radio_graph::generators::complete(4), 0).unwrap();
    let cache = ScheduleCache::default();
    let mut ws = ClassifierWorkspace::new();
    let (from_cycle, l1) = cache.compile_in(&mut ws, &cycle);
    let (from_complete, l2) = cache.compile_in(&mut ws, &complete);
    let (_, l3) = cache.compile_in(&mut ws, &complete);
    assert_eq!(
        (l1, l2, l3),
        (
            CacheLookup::Miss,
            CacheLookup::CanonicalHit,
            CacheLookup::ExactHit
        )
    );
    assert!(Arc::ptr_eq(
        &from_cycle.shared_schedule(),
        &from_complete.shared_schedule()
    ));
    // sharing is sound: the schedule is a function of the trace alone,
    // and both verdicts are infeasible with identical summaries
    assert_eq!(from_cycle.summary(), from_complete.summary());
    assert!(!from_complete.feasible());
}
