//! Heap allocations per election: a warmed run's own state is a constant
//! number of blocks whatever the network's size, and compiling makes one
//! per list entry (its label) plus a constant.
//!
//! Under time-leap the engine's calendar files the rounds less than
//! `RING_ROUNDS` ahead in a ring of buckets that keep their capacity, so a
//! run whose rounds all fit there allocates exactly what it does without
//! time-leap. Rounds further ahead go to a far-future map whose nodes grow
//! with the number of far rounds pending at once rather than with n alone;
//! that share is pinned separately, for this grid only.
//!
//! A counting global allocator tallies the heap blocks the test thread
//! creates (`alloc` and `alloc_zeroed`; resizing a block through `realloc`
//! is not a new block). The counts are deterministic, so these bounds are
//! a performance guard that holds on every machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anon_radio::CompiledElection;
use radio_classifier::{ClassifierWorkspace, Level};
use radio_graph::{Configuration, FamilySpec, TagStrategy};
use radio_sim::workspace::RING_ROUNDS;
use radio_sim::{ModelKind, RunOpts, SimWorkspace};
use radio_util::rng::{derive, rng_from};

struct Counting;

thread_local! {
    /// Blocks this thread allocated. A const-initialized `Cell` has no
    /// destructor and needs no lazy setup, so bumping it never allocates.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // During thread teardown the slot may be gone; those blocks are not
    // the test's.
    let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
}

// Every method forwards its arguments unchanged to the system allocator,
// and counting touches only a thread-local `Cell`, never the allocator.
// SAFETY: `System` upholds the `GlobalAlloc` contract for those calls.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `alloc` contract is passed on to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    // SAFETY: the caller's `alloc_zeroed` contract is passed on to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the blocks it allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (out, BLOCKS.with(Cell::get) - before)
}

/// A warmed `run_in` without time-leap allocates at most this many blocks
/// at every size: the canonical DRIP's per-node planes and the leader
/// list (5 blocks); the grid measures 5 everywhere. Without time-leap the
/// calendar holds the wake-ups only, and on this grid (σ ≤ 64) every tag
/// lands in its ring.
const RUN_BLOCKS: u64 = 6;

/// What the calendar's far-future map adds to a warmed `run_in` under
/// time-leap, on this grid (n ≤ 4 096). Only rounds at least
/// `RING_ROUNDS` ahead of the calendar reach the map. Its nodes are freed
/// as it drains and allocated again by the next run, so this share is not
/// constant: it grows with the far rounds pending at once (the grid's
/// worst case is `path` n = 4 096, σ = 3, at 65 blocks; `grid:64x64`,
/// σ = 3, adds 5, and every other configuration none).
const CALENDAR_BLOCKS: u64 = 72;

/// Compiling allocates at most this many blocks beyond one per list entry
/// (the grid's worst case is 16).
const COMPILE_EXTRA_BLOCKS: u64 = 64;

/// The grid: four families at n ∈ {64, 512, 4 096} and three grids of
/// the same sizes, each at σ ∈ {3, 64}.
fn configurations() -> Vec<(String, Configuration)> {
    let mut specs: Vec<(FamilySpec, usize)> = Vec::new();
    for family in ["path", "star", "random-tree", "gnp"] {
        for n in [64, 512, 4096] {
            specs.push((family.parse().expect("family"), n));
        }
    }
    for (grid, n) in [("grid:8x8", 64), ("grid:16x32", 512), ("grid:64x64", 4096)] {
        specs.push((grid.parse().expect("grid"), n));
    }
    let mut out = Vec::new();
    for (spec, n) in specs {
        let seed = derive(0xA110C, &format!("{spec}/{n}"));
        let graph = spec.build_csr(n, seed).unwrap_or_else(|e| panic!("{e}"));
        for sigma in [3, 64] {
            let mut rng = rng_from(derive(seed, &sigma.to_string()));
            let config = TagStrategy::Uniform.configure(graph.clone(), sigma, &mut rng);
            out.push((format!("{spec} n={n} σ={sigma}"), config));
        }
    }
    out
}

/// Every list entry of the compiled schedule, over all levels and the
/// final would-be list.
fn list_entries(compiled: &CompiledElection) -> u64 {
    let lists = &compiled.schedule().lists;
    let levels: usize = (1..=lists.phases())
        .map(|j| match lists.level(j) {
            Level::Blocks(entries) => entries.len(),
            Level::Terminate => 0,
        })
        .sum();
    (levels + lists.final_entries.len()) as u64
}

#[test]
fn warmed_runs_allocate_a_constant_number_of_blocks() {
    let mut classifier = ClassifierWorkspace::new();
    let mut sim = SimWorkspace::new();
    let model = ModelKind::default();
    let mut in_ring = 0;
    for (what, config) in configurations() {
        let compiled = CompiledElection::compile_in(&mut classifier, &config);
        let mut warmed_run = |opts: RunOpts| {
            // Warm the workspace on this very configuration and options.
            let warm = compiled.run_in(&mut sim, &config, model, opts);
            let (run, blocks) = counted(|| compiled.run_in(&mut sim, &config, model, opts));
            let outcome = |r: &anon_radio::ElectionReport| (r.leader, r.completion_round);
            assert_eq!(
                run.as_ref().map(outcome).ok(),
                warm.as_ref().map(outcome).ok(),
                "{what}: a warmed run elects what the first did"
            );
            (run.as_ref().map(outcome).ok(), blocks)
        };
        let (flat_outcome, flat) = warmed_run(RunOpts::default().no_leap());
        assert!(
            flat <= RUN_BLOCKS,
            "{what}: a warmed run_in without time-leap allocated {flat} blocks \
             (bound {RUN_BLOCKS})"
        );
        let (outcome, leap) = warmed_run(RunOpts::default());
        assert_eq!(
            outcome, flat_outcome,
            "{what}: time-leap changed the outcome"
        );
        assert!(
            leap <= flat + CALENDAR_BLOCKS,
            "{what}: a warmed run_in allocated {leap} blocks, {flat} without \
             time-leap (calendar bound {CALENDAR_BLOCKS})"
        );
        // Every round is filed from a round at or after the first tag, for
        // a round no later than the completion round: when those are at
        // most `RING_ROUNDS` apart, the far map is never touched.
        if outcome.is_some_and(|(_, done)| done - config.min_tag() <= RING_ROUNDS) {
            assert_eq!(
                leap, flat,
                "{what}: every round fits the calendar's ring, yet time-leap \
                 allocated {leap} blocks against {flat} without it"
            );
            in_ring += 1;
        }
    }
    assert!(in_ring >= 12, "only {in_ring} runs fit the calendar's ring");
}

#[test]
fn compiling_allocates_one_block_per_list_entry() {
    let mut classifier = ClassifierWorkspace::new();
    let mut largest_entries = 0;
    for (what, config) in configurations() {
        // Warm the workspace on this very configuration.
        drop(CompiledElection::compile_in(&mut classifier, &config));
        let (compiled, blocks) = counted(|| CompiledElection::compile_in(&mut classifier, &config));
        let entries = list_entries(&compiled);
        assert!(
            blocks <= entries + COMPILE_EXTRA_BLOCKS,
            "{what}: compile_in allocated {blocks} blocks for {entries} list entries"
        );
        largest_entries = largest_entries.max(entries);
    }
    // The entry counts must dwarf the slack, or the bound says nothing
    // about per-entry work.
    assert!(
        largest_entries > 8 * COMPILE_EXTRA_BLOCKS,
        "largest schedule has only {largest_entries} entries"
    );
}
