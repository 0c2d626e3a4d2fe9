//! The canonical-key schedule cache: memoizes the classify + compile
//! pipeline across repeated configurations.
//!
//! Campaign grids run thousands of reps per `(family, n, tag-strategy)`
//! cell, and those reps collapse to a handful of distinct classifier
//! traces. The outcome of `Classifier` + schedule compilation is a pure
//! function of the refinement trace, so one compiled
//! [`CompiledElection`] can serve every configuration that replays that
//! trace — the cache *is* the "knowledge about the topology" the related
//! complexity work charges election time against, amortized across a grid.
//!
//! # Two key levels
//!
//! [`CanonicalKey`](radio_classifier::key::CanonicalKey) can only be derived *by classifying* — it fingerprints
//! the trace itself. On its own it would memoize schedule compilation but
//! never classification. The cache therefore indexes every entry under two
//! keys:
//!
//! * an **exact** key — a fingerprint of the raw configuration (node
//!   count, node-ordered tags, CSR adjacency), computable without
//!   classifying. An exact hit skips classification *and* compilation.
//! * the **canonical** key — the trace fingerprint from
//!   [`radio_classifier::canonical_key_in`]'s [`KeySink`] contract. On an
//!   exact miss the configuration is classified once (streaming both the
//!   canonical lists and the key out of the same run); a canonical hit
//!   then reuses the cached schedule and registers the new exact key as an
//!   alias, so the *next* occurrence of this configuration short-circuits
//!   before classifying.
//!
//! A canonical hit may legitimately join non-isomorphic configurations:
//! uniform-tag `C_4` and `K_4` drive `Classifier` through bit-identical
//! traces, and everything the cache serves (summary, schedule) is a
//! function of the trace alone — so sharing is sound, not merely probable.
//!
//! # Sharding, bounding, eviction
//!
//! The cache is shared by all campaign workers, so the map is split into
//! [`SHARDS`] independently-locked shards selected by key hash; counters
//! are lock-free atomics. Each shard holds at most `⌈capacity/SHARDS⌉`
//! entries; on overflow the shard evicts its least-recently-used entry (an
//! `O(len)` min-scan of per-entry ticks — eviction is rare and shards are
//! small, so a heap is not worth its constant factor).
//!
//! # Bit-for-bit contract
//!
//! Cached ≡ uncached everywhere: a hit returns the same
//! [`ClassifySummary`](radio_classifier::ClassifySummary) and a schedule equal (by value) to what a fresh
//! compile would produce. Debug builds verify the schedule equality on
//! every canonical hit. What *is* nondeterministic under concurrency is
//! the hit/miss split itself (two workers can race to first-miss the same
//! key), which is why campaign JSONL emits cache counters after `wall_ns`
//! — outside the byte range golden tests compare.

use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use radio_classifier::{ClassifierWorkspace, KeySink, ListsSink};
use radio_graph::Configuration;
use radio_util::fxhash::{FxHashMap, FxHasher};

use crate::dedicated::CompiledElection;
use crate::schedule::CanonicalSchedule;

/// Number of independently-locked shards (fixed power of two).
pub const SHARDS: usize = 16;

/// Default total entry capacity of a [`ScheduleCache`].
pub const DEFAULT_CAPACITY: usize = 4096;

/// Cache policy knob carried by `CampaignSpec` and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Whether the campaign attaches a schedule cache at all
    /// (`--no-cache` clears it).
    pub enabled: bool,
    /// Total entry budget across all shards.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            enabled: true,
            capacity: DEFAULT_CAPACITY,
        }
    }
}

impl CacheConfig {
    /// The `--no-cache` configuration.
    pub fn disabled() -> CacheConfig {
        CacheConfig {
            enabled: false,
            ..CacheConfig::default()
        }
    }

    /// Enabled with an explicit capacity (`--cache-capacity N`).
    pub fn with_capacity(capacity: usize) -> CacheConfig {
        CacheConfig {
            enabled: true,
            capacity,
        }
    }
}

/// Snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (exact + canonical).
    pub hits: u64,
    /// Hits that short-circuited before classifying.
    pub exact_hits: u64,
    /// Lookups that classified *and* compiled from scratch.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits that classified but reused a cached schedule.
    pub fn canonical_hits(&self) -> u64 {
        self.hits - self.exact_hits
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// How a single [`ScheduleCache::compile_in`] call was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// Configuration fingerprint known — no classification ran.
    ExactHit,
    /// Classified once; the trace key matched a cached schedule, so
    /// compilation was skipped and the schedule `Arc` shared.
    CanonicalHit,
    /// Classified and compiled from scratch; both keys now populated.
    Miss,
}

impl CacheLookup {
    /// Whether the cached schedule was reused (either hit flavour).
    pub fn is_hit(self) -> bool {
        !matches!(self, CacheLookup::Miss)
    }
}

/// Map key: both levels live in one map so a shard's LRU budget covers
/// exact aliases and canonical entries uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Exact(u128),
    Canonical(u128),
}

impl Key {
    fn shard(self) -> usize {
        // The fingerprint bits are already well-mixed FxHash output; fold
        // the level tag in so an exact/canonical pair with (impossibly)
        // equal bits would still separate.
        let (tag, bits) = match self {
            Key::Exact(b) => (0u64, b),
            Key::Canonical(b) => (1u64, b),
        };
        let fold = (bits as u64) ^ ((bits >> 64) as u64) ^ (tag.wrapping_mul(0x9E37_79B9));
        (fold as usize) & (SHARDS - 1)
    }
}

#[derive(Debug)]
struct Entry {
    last_used: u64,
    value: CompiledElection,
}

#[derive(Debug, Default)]
struct Shard {
    map: FxHashMap<Key, Entry>,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, key: Key) -> Option<CompiledElection> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|entry| {
            entry.last_used = tick;
            entry.value.clone()
        })
    }

    /// Inserts under `key`, evicting the least-recently-used entry when
    /// the shard is at its budget. Returns the number of evictions (0/1).
    fn insert(&mut self, key: Key, value: CompiledElection, budget: usize) -> u64 {
        self.tick += 1;
        let mut evicted = 0;
        if !self.map.contains_key(&key) && self.map.len() >= budget {
            if let Some(&victim) = self
                .map
                // lint:allow(nondet-iter): min-scan over `last_used` ticks, which are
                // unique within a shard — the minimum is a single entry, so the scan's
                // hash order cannot influence which victim is evicted
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| k)
            {
                self.map.remove(&victim);
                evicted = 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                last_used: self.tick,
                value,
            },
        );
        evicted
    }
}

/// A sharded-lock, bounded-LRU cache for compiled elections — see the
/// module docs for the two-level key protocol and its soundness argument.
pub struct ScheduleCache {
    shards: Box<[Mutex<Shard>]>,
    per_shard: usize,
    hits: AtomicU64,
    exact_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ScheduleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleCache")
            .field("per_shard", &self.per_shard)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for ScheduleCache {
    fn default() -> ScheduleCache {
        ScheduleCache::new(DEFAULT_CAPACITY)
    }
}

impl ScheduleCache {
    /// A cache holding at most ~`capacity` entries across [`SHARDS`]
    /// shards (each shard gets `⌈capacity/SHARDS⌉`, minimum 1).
    pub fn new(capacity: usize) -> ScheduleCache {
        ScheduleCache::with_budget(capacity.div_ceil(SHARDS).max(1))
    }

    /// A cache whose *per-shard* budget is `per_shard` entries — exposed
    /// so eviction tests can exercise the LRU bound without inserting
    /// thousands of entries.
    pub fn with_budget(per_shard: usize) -> ScheduleCache {
        let shards = (0..SHARDS)
            .map(|_| Mutex::new(Shard::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ScheduleCache {
            shards,
            per_shard: per_shard.max(1),
            hits: AtomicU64::new(0),
            exact_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Current number of entries (exact aliases and canonical entries both
    /// count — the map stores each compiled election under up to two keys).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (approximate under concurrency, exact when quiescent).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn get(&self, key: Key) -> Option<CompiledElection> {
        self.shards[key.shard()]
            .lock()
            .expect("cache shard poisoned")
            .touch(key)
    }

    fn put(&self, key: Key, value: CompiledElection) {
        let evicted = self.shards[key.shard()]
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value, self.per_shard);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// The memoized form of [`CompiledElection::compile_in`]: returns a
    /// compiled election bit-identical to a fresh compile, plus how the
    /// lookup resolved. Infeasible configurations are cached like any
    /// other (their schedule is well-defined; only the leader is absent).
    pub fn compile_in(
        &self,
        workspace: &mut ClassifierWorkspace,
        config: &Configuration,
    ) -> (CompiledElection, CacheLookup) {
        self.compile_keyed(workspace, config, config_fingerprint(config))
    }

    /// [`ScheduleCache::compile_in`] for a caller that already holds
    /// `config`'s [`config_fingerprint`] (the campaign dedupe memo), so
    /// the configuration is hashed once per run, not twice.
    pub(crate) fn compile_keyed(
        &self,
        workspace: &mut ClassifierWorkspace,
        config: &Configuration,
        fingerprint: u128,
    ) -> (CompiledElection, CacheLookup) {
        debug_assert_eq!(fingerprint, config_fingerprint(config));
        let exact = Key::Exact(fingerprint);
        if let Some(cached) = self.get(exact) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.exact_hits.fetch_add(1, Ordering::Relaxed);
            return (cached, CacheLookup::ExactHit);
        }
        // One classification streams both the canonical lists and the
        // trace key out of the same run.
        let mut sink = (ListsSink::default(), KeySink::default());
        let summary =
            workspace.classify_with_sink(config, radio_classifier::Engine::Fast, &mut sink);
        let (lists_sink, key_sink) = sink;
        let canonical = Key::Canonical(key_sink.finish(config).bits());
        if let Some(cached) = self.get(canonical) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            // The cached schedule was compiled from a trace equal to the
            // one just observed, so the summaries agree and the schedule
            // may be shared verbatim. Debug builds prove it.
            #[cfg(debug_assertions)]
            {
                let fresh = CanonicalSchedule::from_lists(
                    lists_sink.into_lists(config.span(), summary.leader_class),
                );
                debug_assert_eq!(
                    cached.summary(),
                    summary,
                    "canonical key collision (summary)"
                );
                debug_assert_eq!(
                    cached.schedule().lists,
                    fresh.lists,
                    "canonical key collision (lists)"
                );
            }
            let compiled = CompiledElection::from_parts(summary, cached.shared_schedule());
            self.put(exact, compiled.clone());
            return (compiled, CacheLookup::CanonicalHit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let lists = lists_sink.into_lists(config.span(), summary.leader_class);
        let schedule = CanonicalSchedule::from_lists(lists);
        let compiled = CompiledElection::from_parts(summary, std::sync::Arc::new(schedule));
        self.put(canonical, compiled.clone());
        self.put(exact, compiled.clone());
        (compiled, CacheLookup::Miss)
    }
}

/// Fingerprints the raw configuration — node count, span, node-ordered
/// tags, and the CSR adjacency — without classifying. Equal
/// configurations always collide (the fingerprint is a pure function of
/// the configuration's canonical representation); distinct ones separate
/// up to the two-lane 128-bit birthday bound.
pub fn config_fingerprint(config: &Configuration) -> u128 {
    const SEED: u64 = 0xC0FF_EE00_D15C_0B1A;
    let mut lane_lo = FxHasher::default();
    let mut lane_hi = FxHasher::default();
    lane_hi.write_u64(SEED);
    let mut fold = |word: u64| {
        lane_lo.write_u64(word);
        // per-word FxHash maps are bijections: mix the second lane's copy
        // so the lanes' collision sets decorrelate (same trick as KeySink)
        lane_hi.write_u64(word.rotate_left(32) ^ SEED);
    };
    let n = config.size();
    fold(n as u64);
    fold(config.span());
    for &tag in config.tags() {
        fold(tag);
    }
    let csr = config.csr();
    for v in 0..n as radio_graph::NodeId {
        fold(csr.degree(v) as u64);
        for &u in csr.neighbors(v) {
            fold(u as u64);
        }
    }
    ((lane_hi.finish() as u128) << 64) | lane_lo.finish() as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::{families, generators, tags, Configuration};
    use radio_util::rng::rng_from;

    #[test]
    fn fingerprint_separates_and_repeats() {
        let a = families::h_m(3);
        let b = families::s_m(3);
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a));
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        // same graph, different tags
        let g = generators::path(4);
        let t1 = Configuration::new(g.clone(), vec![0, 1, 2, 3]).unwrap();
        let t2 = Configuration::new(g, vec![3, 2, 1, 0]).unwrap();
        assert_ne!(config_fingerprint(&t1), config_fingerprint(&t2));
    }

    #[test]
    fn exact_hit_after_miss() {
        let cache = ScheduleCache::default();
        let mut ws = ClassifierWorkspace::new();
        let c = families::h_m(3);
        let (first, l1) = cache.compile_in(&mut ws, &c);
        assert_eq!(l1, CacheLookup::Miss);
        let (second, l2) = cache.compile_in(&mut ws, &c);
        assert_eq!(l2, CacheLookup::ExactHit);
        assert_eq!(first.summary(), second.summary());
        assert!(std::sync::Arc::ptr_eq(
            &first.shared_schedule(),
            &second.shared_schedule()
        ));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn cached_equals_fresh_compile() {
        let cache = ScheduleCache::default();
        let mut ws = ClassifierWorkspace::new();
        let mut rng = rng_from(41);
        let mut configs = vec![families::h_m(2), families::g_m(3), families::s_m(2)];
        for _ in 0..10 {
            let g = generators::gnp_connected(8, 0.35, &mut rng);
            configs.push(tags::random_in_span(g, 4, &mut rng));
        }
        // twice over, so the second pass hits
        for round in 0..2 {
            for c in &configs {
                let (cached, lookup) = cache.compile_in(&mut ws, c);
                if round == 1 {
                    assert!(lookup.is_hit(), "{c}");
                }
                let fresh = CompiledElection::compile_in(&mut ws, c);
                assert_eq!(cached.summary(), fresh.summary(), "{c}");
                assert_eq!(cached.schedule().lists, fresh.schedule().lists, "{c}");
                assert_eq!(
                    cached.schedule().phase_end,
                    fresh.schedule().phase_end,
                    "{c}"
                );
            }
        }
    }

    #[test]
    fn canonical_hit_joins_trace_identical_configurations() {
        // uniform-tag C_4 and K_4 share a classifier trace (one collision
        // triple each, partition freezes) but have different adjacency, so
        // the exact keys differ while the canonical keys agree.
        let cycle = Configuration::with_uniform_tags(generators::cycle(4), 0).unwrap();
        let complete = Configuration::with_uniform_tags(generators::complete(4), 0).unwrap();
        let cache = ScheduleCache::default();
        let mut ws = ClassifierWorkspace::new();
        let (_, l1) = cache.compile_in(&mut ws, &cycle);
        assert_eq!(l1, CacheLookup::Miss);
        let (_, l2) = cache.compile_in(&mut ws, &complete);
        assert_eq!(l2, CacheLookup::CanonicalHit);
        // the canonical hit registered an exact alias for K_4
        let (_, l3) = cache.compile_in(&mut ws, &complete);
        assert_eq!(l3, CacheLookup::ExactHit);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.canonical_hits(), 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn lru_evicts_and_reinserts() {
        // per-shard budget 1 ⇒ each shard holds one entry; every compile
        // stores two keys, so a handful of configurations forces evictions.
        let cache = ScheduleCache::with_budget(1);
        let mut ws = ClassifierWorkspace::new();
        let configs: Vec<Configuration> = (1..=12u64).map(families::h_m).collect();
        for c in &configs {
            let _ = cache.compile_in(&mut ws, c);
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "budget 1 must evict: {stats:?}");
        assert!(cache.len() <= 2 * SHARDS);
        // whatever was evicted recomputes correctly and re-enters
        for c in &configs {
            let (compiled, _) = cache.compile_in(&mut ws, c);
            let fresh = CompiledElection::compile_in(&mut ws, c);
            assert_eq!(compiled.summary(), fresh.summary());
            assert_eq!(compiled.schedule().lists, fresh.schedule().lists);
        }
    }

    #[test]
    fn infeasible_configurations_cache_too() {
        let cache = ScheduleCache::default();
        let mut ws = ClassifierWorkspace::new();
        let c = families::s_m(2);
        let (first, l1) = cache.compile_in(&mut ws, &c);
        assert_eq!(l1, CacheLookup::Miss);
        assert!(!first.feasible());
        let (second, l2) = cache.compile_in(&mut ws, &c);
        assert_eq!(l2, CacheLookup::ExactHit);
        assert!(!second.feasible());
        assert_eq!(first.summary(), second.summary());
    }

    #[test]
    fn shared_across_threads() {
        let cache = std::sync::Arc::new(ScheduleCache::default());
        let configs: Vec<Configuration> = (1..=6u64).map(families::h_m).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = cache.clone();
                let configs = &configs;
                scope.spawn(move || {
                    let mut ws = ClassifierWorkspace::new();
                    for _ in 0..5 {
                        for c in configs {
                            let (compiled, _) = cache.compile_in(&mut ws, c);
                            assert!(compiled.feasible());
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 4 * 5 * 6);
        // racing first-misses make the exact split nondeterministic, but
        // at most one miss per (thread, config) worst case
        assert!(stats.misses <= 4 * 6);
        assert!(stats.hits >= stats.lookups() - 4 * 6);
    }

    #[test]
    fn config_default_and_knobs() {
        let d = CacheConfig::default();
        assert!(d.enabled);
        assert_eq!(d.capacity, DEFAULT_CAPACITY);
        assert!(!CacheConfig::disabled().enabled);
        let c = CacheConfig::with_capacity(64);
        assert!(c.enabled);
        assert_eq!(c.capacity, 64);
    }
}
