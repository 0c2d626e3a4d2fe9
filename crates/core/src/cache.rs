//! The schedule cache: memoizes the build + classify + compile pipeline
//! across repeated configurations.
//!
//! A daemon's jobs repeat draws, and campaign grids that name a cache
//! revisit the same draw once per channel model (the model is outside
//! the draw) and, where `arith` tags or σ = 0 make every rep's tags
//! equal, rep after rep. The centralized decision (Theorem 3.17) makes
//! `Classifier` + schedule compilation a pure function of the
//! configuration, and a drawn configuration is a pure function of its
//! draw, so one compiled [`CompiledElection`] can serve every later
//! occurrence of it.
//!
//! # Two key routes, one map
//!
//! Every entry holds an election compiled once. [`ScheduleCache::draw_in`]
//! keys a drawn configuration by its [`Draw::key`], a hash of the draw
//! alone, and its entry also holds the configuration (behind an [`Arc`]):
//! a hit hands back both without generating, hashing or classifying
//! anything, and a miss builds, compiles and stores one entry.
//! [`ScheduleCache::compile_in`] keys a configuration the caller already
//! holds (an inline one) by [`config_fingerprint`], a 128-bit fingerprint
//! of its contents, and its entry holds the election alone: the caller
//! has the configuration, so the cache neither copies nor keeps it. Both
//! keys live in the one map; the same configuration reached by both
//! routes takes two entries.
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
//! [`ClassifySummary`](radio_classifier::ClassifySummary) and a schedule
//! equal (by value) to what a fresh compile would produce, and a draw hit
//! the configuration a fresh build would produce. What *is*
//! nondeterministic under concurrency is the hit/miss split itself (two
//! workers can race to first-miss the same key), which is why campaign
//! JSONL emits cache counters after `wall_ns` — outside the byte range
//! golden tests compare.

use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use radio_classifier::ClassifierWorkspace;
use radio_graph::{Configuration, Draw, DrawError};
use radio_util::fxhash::{FxHashMap, FxHasher128};

use crate::dedicated::CompiledElection;

/// Number of independently-locked shards (fixed power of two).
pub const SHARDS: usize = 16;

/// Default total entry capacity of a [`ScheduleCache`]: one entry per
/// key, each holding the election compiled for it (and, on the draw
/// route, the configuration), so about 2 048 configurations.
pub const DEFAULT_CAPACITY: usize = 2048;

/// Cache policy knob carried by `CampaignSpec`, `ServeOptions` and the
/// CLI.
///
/// The default is no cache, which is what campaigns run unless they name
/// a capacity: a campaign's runs rarely repeat a configuration (132 of
/// 6 954 lookups per pass on perfbench's campaign-mixed), so a cache
/// would mostly hold one-off schedules. The daemon, whose jobs repeat,
/// takes [`CacheConfig::with_capacity`]`(`[`DEFAULT_CAPACITY`]`)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Whether the campaign or daemon attaches a schedule cache at all
    /// (`--no-cache` clears it).
    pub enabled: bool,
    /// Total entry budget across all shards.
    pub capacity: usize,
}

impl Default for CacheConfig {
    /// [`CacheConfig::disabled`].
    fn default() -> CacheConfig {
        CacheConfig::disabled()
    }
}

impl CacheConfig {
    /// No cache: the default, and the `--no-cache` configuration.
    pub fn disabled() -> CacheConfig {
        CacheConfig {
            enabled: false,
            capacity: DEFAULT_CAPACITY,
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
    /// Lookups answered from the cache (nothing was built or
    /// classified).
    pub exact_hits: u64,
    /// Lookups that built (on the draw route), classified *and* compiled
    /// from scratch.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Always 0: every hit is an exact hit. It stays only because
    /// perfbench reports it as its `cache.canonical_hits` metric, and
    /// goes with that metric in the benchmark change of ROADMAP item 6.
    pub fn canonical_hits(&self) -> u64 {
        0
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.exact_hits + self.misses
    }
}

/// How a single [`ScheduleCache::draw_in`] or
/// [`ScheduleCache::compile_in`] call was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// Key known — nothing was built or classified.
    ExactHit,
    /// Built (on the draw route), classified and compiled from scratch;
    /// one entry now populated.
    Miss,
}

impl CacheLookup {
    /// Whether the cached election was reused.
    pub fn is_hit(self) -> bool {
        self == CacheLookup::ExactHit
    }
}

/// The shard a key lives in. Its bits are already well-mixed FxHash
/// output, so the two halves XOR-folded pick the shard.
fn shard_of(key: u128) -> usize {
    ((key as u64) ^ ((key >> 64) as u64)) as usize & (SHARDS - 1)
}

/// What one entry holds: the election, and on the draw route the
/// configuration it was compiled from (`None` on the fingerprint route,
/// whose caller holds the configuration).
type Compiled = (Option<Arc<Configuration>>, CompiledElection);

#[derive(Debug)]
struct Entry {
    last_used: u64,
    value: Compiled,
}

#[derive(Debug, Default)]
struct Shard {
    map: FxHashMap<u128, Entry>,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, key: u128) -> Option<Compiled> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|entry| {
            entry.last_used = tick;
            entry.value.clone()
        })
    }

    /// Inserts under `key`, evicting the least-recently-used entry when
    /// the shard is at its budget. Returns the number of evictions (0/1).
    fn insert(&mut self, key: u128, value: Compiled, budget: usize) -> u64 {
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

/// A sharded-lock, bounded-LRU cache of configurations with their compiled
/// elections, keyed by [`Draw::key`] or [`config_fingerprint`] — see the
/// module docs.
pub struct ScheduleCache {
    shards: Box<[Mutex<Shard>]>,
    per_shard: usize,
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
            exact_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Current number of entries, one per cached key.
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
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn get(&self, key: u128) -> Option<Compiled> {
        self.shards[shard_of(key)]
            .lock()
            .expect("cache shard poisoned")
            .touch(key)
    }

    fn put(&self, key: u128, value: Compiled) {
        let evicted = self.shards[shard_of(key)]
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value, self.per_shard);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Counts a miss, compiles `config` and stores its election under
    /// `key`, with `stored` as the entry's configuration.
    fn miss(
        &self,
        workspace: &mut ClassifierWorkspace,
        key: u128,
        config: &Configuration,
        stored: Option<Arc<Configuration>>,
    ) -> CompiledElection {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = CompiledElection::compile_in(workspace, config);
        self.put(key, (stored, compiled.clone()));
        compiled
    }

    /// The memoized form of [`Draw::configuration`] followed by
    /// [`CompiledElection::compile_in`], keyed by [`Draw::key`]: a hit
    /// hands back the stored configuration and election without building
    /// anything. Both are bit-identical to a fresh build and compile.
    /// Infeasible configurations are cached like any other (their
    /// schedule is well-defined; only the leader is absent). A draw that
    /// does not build stores and counts nothing.
    pub fn draw_in(
        &self,
        workspace: &mut ClassifierWorkspace,
        draw: &Draw,
    ) -> Result<(Arc<Configuration>, CompiledElection, CacheLookup), DrawError> {
        let key = draw.key();
        // Only this route stores a configuration, so an entry without one
        // is a fingerprint that collided with `key`: rebuild over it.
        if let Some((Some(config), compiled)) = self.get(key) {
            self.exact_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((config, compiled, CacheLookup::ExactHit));
        }
        let config = Arc::new(draw.configuration()?);
        let compiled = self.miss(workspace, key, &config, Some(config.clone()));
        Ok((config, compiled, CacheLookup::Miss))
    }

    /// The memoized form of [`CompiledElection::compile_in`] for a
    /// configuration the caller already holds, keyed by
    /// [`config_fingerprint`]: returns a compiled election bit-identical
    /// to a fresh compile, plus how the lookup resolved. A miss stores the
    /// election alone.
    pub fn compile_in(
        &self,
        workspace: &mut ClassifierWorkspace,
        config: &Configuration,
    ) -> (CompiledElection, CacheLookup) {
        let key = config_fingerprint(config);
        if let Some((_, compiled)) = self.get(key) {
            self.exact_hits.fetch_add(1, Ordering::Relaxed);
            return (compiled, CacheLookup::ExactHit);
        }
        (self.miss(workspace, key, config, None), CacheLookup::Miss)
    }
}

/// Fingerprints the raw configuration — node count, span, node-ordered
/// tags, and the CSR adjacency — without classifying. Equal
/// configurations always collide (the fingerprint is a pure function of
/// the configuration's canonical representation); distinct ones separate
/// up to the two-lane 128-bit birthday bound.
pub fn config_fingerprint(config: &Configuration) -> u128 {
    let mut lanes = FxHasher128::new(0xC0FF_EE00_D15C_0B1A);
    let n = config.size();
    lanes.write_usize(n);
    lanes.write_u64(config.span());
    for &tag in config.tags() {
        lanes.write_u64(tag);
    }
    let csr = config.csr();
    for v in 0..n as radio_graph::NodeId {
        lanes.write_usize(csr.degree(v));
        for &u in csr.neighbors(v) {
            lanes.write_u32(u);
        }
    }
    lanes.finish128()
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
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(cache.len(), 1, "a miss stores one entry");
    }

    #[test]
    fn draw_hits_share_the_stored_configuration() {
        let cache = ScheduleCache::default();
        let mut ws = ClassifierWorkspace::new();
        let draw = Draw {
            family: radio_graph::FamilySpec::RandomTree,
            n: 12,
            span: 5,
            tags: radio_graph::TagStrategy::Uniform,
            graph_seed: 7,
            tag_seed: 8,
        };
        let (config, first, l1) = cache.draw_in(&mut ws, &draw).unwrap();
        assert_eq!(l1, CacheLookup::Miss);
        let (again, second, l2) = cache.draw_in(&mut ws, &draw).unwrap();
        assert_eq!(l2, CacheLookup::ExactHit);
        assert!(Arc::ptr_eq(&config, &again), "a hit builds nothing");
        assert!(Arc::ptr_eq(
            &first.shared_schedule(),
            &second.shared_schedule()
        ));
        // what the entry holds is what a fresh build and compile give
        let fresh = draw.configuration().unwrap();
        assert_eq!(*again, fresh);
        let compiled = CompiledElection::compile_in(&mut ws, &fresh);
        assert_eq!(second.summary(), compiled.summary());
        assert_eq!(second.schedule().lists, compiled.schedule().lists);
        // the fingerprint route keys the same configuration apart
        let (_, l3) = cache.compile_in(&mut ws, &fresh);
        assert_eq!(l3, CacheLookup::Miss);
        assert_eq!(cache.len(), 2);
        // a draw that does not build stores and counts nothing, and its
        // error reads as the family's
        let bad = Draw { n: 0, ..draw };
        let err = cache.draw_in(&mut ws, &bad).unwrap_err();
        let family_err = draw.family.check_size(0).unwrap_err();
        assert_eq!(err.to_string(), family_err.to_string());
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!((stats.exact_hits, stats.misses), (1, 2));
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
    fn trace_identical_configurations_take_one_entry_each() {
        // uniform-tag C_4 and K_4 drive the classifier through identical
        // traces (one collision triple each, partition freezes) but have
        // different adjacency: each misses once and keeps its own entry,
        // and the two compiled elections are equal by value.
        let cycle = Configuration::with_uniform_tags(generators::cycle(4), 0).unwrap();
        let complete = Configuration::with_uniform_tags(generators::complete(4), 0).unwrap();
        let cache = ScheduleCache::default();
        let mut ws = ClassifierWorkspace::new();
        let (from_cycle, l1) = cache.compile_in(&mut ws, &cycle);
        assert_eq!(l1, CacheLookup::Miss);
        let (from_complete, l2) = cache.compile_in(&mut ws, &complete);
        assert_eq!(l2, CacheLookup::Miss);
        assert_eq!(cache.len(), 2);
        assert_eq!(from_cycle.summary(), from_complete.summary());
        assert_eq!(from_cycle.schedule().lists, from_complete.schedule().lists);
        let (_, l3) = cache.compile_in(&mut ws, &complete);
        assert_eq!(l3, CacheLookup::ExactHit);
        let stats = cache.stats();
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.canonical_hits(), 0);
    }

    #[test]
    fn lru_evicts_and_reinserts() {
        // per-shard budget 1 ⇒ each shard holds one entry, so a dozen
        // configurations over 16 shards forces evictions.
        let cache = ScheduleCache::with_budget(1);
        let mut ws = ClassifierWorkspace::new();
        let configs: Vec<Configuration> = (1..=12u64).map(families::h_m).collect();
        for c in &configs {
            let _ = cache.compile_in(&mut ws, c);
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "budget 1 must evict: {stats:?}");
        assert!(cache.len() <= SHARDS);
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
        assert!(stats.exact_hits >= stats.lookups() - 4 * 6);
    }

    #[test]
    fn config_default_and_knobs() {
        let d = CacheConfig::default();
        assert!(
            !d.enabled,
            "campaigns run uncached unless they name a capacity"
        );
        assert_eq!(d, CacheConfig::disabled());
        assert!(!CacheConfig::disabled().enabled);
        let c = CacheConfig::with_capacity(64);
        assert!(c.enabled);
        assert_eq!(c.capacity, 64);
    }
}
