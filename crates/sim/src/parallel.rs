//! Parallel batch execution over `std::thread::scope`, with worker-scoped
//! state.
//!
//! The sweeps in `radio-bench` run thousands — campaigns, millions — of
//! independent simulations. [`par_map_init`] distributes them over the
//! machine's cores with dynamic work-stealing, which handles the highly
//! skewed per-item costs of configuration sweeps (an `H_4096` run is
//! ~1000× an `H_4` run) far better than static chunking, and gives every
//! worker thread one long-lived piece of state built by an `init` closure
//! — in the batch layers that state is a [`SimWorkspace`], so back-to-back
//! runs on a worker recycle all engine buffers instead of reallocating
//! them per item.
//!
//! Results are written without contention: the output buffer is pre-split
//! into fixed-size chunks, the shared atomic cursor hands out *chunks*
//! (not items), and the worker that claims a chunk takes its mutex exactly
//! once and writes every slot directly. No lock is ever contended (each
//! chunk has exactly one owner), unlike per-item `Mutex<Option<R>>`
//! slots, which would pay a lock round-trip per item.
//!
//! `std::thread::scope` + `std::sync::Mutex` keep this dependency-free and
//! data-race-free; the scope guarantees all borrows end before the
//! function returns, and panics in workers propagate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::workspace::SimWorkspace;

/// Applies `f` to every item, in parallel, preserving order of results.
///
/// `f` runs on `min(available_parallelism, items.len())` worker threads.
/// Panics in `f` propagate (the scope unwinds). A shim over
/// [`par_map_init`] with unit worker state.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_init(items, default_threads(), || (), move |_, item| f(item))
}

/// Worker-scoped parallel map: every worker thread builds one `state` via
/// `init()` and reuses it for all items it processes.
///
/// Items are handed out dynamically in contiguous chunks via a shared
/// atomic cursor; each chunk's result slots are written directly by its
/// single owner (one uncontended lock per chunk). Order of results is
/// preserved. The worker count is clamped to `min(threads, items.len())`
/// (never more threads than items — and no threads at all for an empty
/// slice, which returns immediately).
///
/// This is the substrate of the campaign runner: `init` builds a
/// [`SimWorkspace`] per worker, so a shard of ten thousand elections
/// allocates engine state once per *worker*, not once per run.
pub fn par_map_init<T, R, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }

    let chunk = chunk_size(n, threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let slots: Vec<Mutex<&mut [Option<R>]>> = out.chunks_mut(chunk).map(Mutex::new).collect();
    let n_chunks = slots.len();
    let workers = threads.min(n_chunks);
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let base = c * chunk;
                    // Exactly one worker ever claims chunk `c`: the lock is
                    // taken once and never contended.
                    let mut guard = slots[c].lock().expect("no poisoned chunk");
                    for (j, slot) in guard.iter_mut().enumerate() {
                        *slot = Some(f(&mut state, &items[base + j]));
                    }
                }
            });
        }
    });

    drop(slots);
    out.into_iter()
        .map(|slot| slot.expect("every slot filled"))
        .collect()
}

/// Picks the chunk size [`par_map_init`] hands out per cursor claim.
///
/// Two regimes meet here. For large batches, `n / (threads * 8)` keeps
/// several chunks per worker so skewed item costs still balance, while
/// the cap bounds the tail a slow worker can strand. For *small* batches
/// (`n` up to a few multiples of `threads`), that quotient collapses to
/// 0 and the old `clamp(1, …)` floor degraded to chunk = 1 — every item
/// a separate cursor claim and a separate lock round-trip, the atomic
/// thrashing worst case, precisely on the tiny-grid workloads where
/// per-item cost is also lowest. The floor now grows toward an even
/// one-chunk-per-worker split (capped at 8 so a handful of expensive
/// items cannot all land in one claim): with 8 threads, n = 64 yields
/// chunk 8 (one claim per worker) instead of 64 separate claims, n = 9
/// yields 2, and n ≥ 65_536 is unchanged by the floor.
fn chunk_size(n: usize, threads: usize) -> usize {
    let balanced = n / (threads * 8);
    let even = n.div_ceil(threads);
    balanced.max(even.min(8)).clamp(1, 1024)
}

/// The worker count [`par_map`] uses: `available_parallelism`, or 1 if the
/// platform cannot report it.
pub fn default_threads() -> usize {
    // lint:allow(thread-identity): worker-*count* selection only — results are
    // geometry-invariant by contract (identical across any thread/shard split;
    // pinned by tests/campaign.rs and the par_map unit tests)
    std::thread::available_parallelism()
        .map(|nz| nz.get())
        .unwrap_or(1)
}

/// Runs one DRIP over a batch of configurations in parallel, under the
/// given channel model — the entry point sweep harnesses use to cross a
/// workload axis with a [`ModelKind`](crate::ModelKind) axis. Each worker
/// thread owns one long-lived [`SimWorkspace`], recycled across its runs.
pub fn run_batch(
    configs: &[radio_graph::Configuration],
    factory: &(dyn crate::drip::DripFactory + Sync),
    model: crate::model::ModelKind,
    opts: crate::engine::RunOpts,
) -> Vec<Result<crate::engine::Execution, crate::engine::SimError>> {
    par_map_init(
        configs,
        default_threads(),
        SimWorkspace::new,
        |ws, config| ws.run_kind(model, config, factory, opts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map() {
        let items: Vec<u64> = (0..500).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        let parallel = par_map(&items, |x| x * x + 1);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn preserves_order_with_skewed_costs() {
        // items with wildly different costs must still land in order
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u8> = par_map(&[] as &[u8], |x| *x);
        assert!(out.is_empty());
        let out: Vec<u8> = par_map_init(&[] as &[u8], 8, || (), |_, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_and_single_thread() {
        assert_eq!(par_map(&[41], |x| x + 1), vec![42]);
        assert_eq!(
            par_map_init(&[1, 2, 3], 1, || (), |_, x| x * 2),
            vec![2, 4, 6]
        );
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let items: Vec<u32> = (0..100).collect();
        let expect: Vec<u32> = items.iter().map(|x| x + 7).collect();
        for threads in [1, 2, 3, 8, 200] {
            assert_eq!(par_map_init(&items, threads, || (), |_, x| x + 7), expect);
        }
    }

    #[test]
    fn worker_clamp_never_exceeds_items() {
        // n = 1, n = threads − 1, and thread counts far above n: the clamp
        // must keep results correct (and the scoped spawn path bounded by
        // the item count) in every case.
        let threads = 8usize;
        for n in [1usize, threads - 1, threads, threads + 1, 3] {
            let items: Vec<usize> = (0..n).collect();
            let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
            assert_eq!(
                par_map_init(&items, threads, || (), |_, x| x * 3),
                expect,
                "n={n} threads={threads}"
            );
        }
    }

    #[test]
    fn chunk_size_covers_both_regimes() {
        // Tiny batches: an even one-chunk-per-worker split, not chunk = 1.
        assert_eq!(chunk_size(1, 8), 1);
        assert_eq!(chunk_size(7, 8), 1); // n = threads − 1: still 1 item/worker
        assert_eq!(chunk_size(9, 8), 2);
        assert_eq!(chunk_size(64, 8), 8); // exactly one claim per worker
        assert_eq!(chunk_size(100, 8), 8); // floor caps at 8 for balance
                                           // Large batches: the balanced quotient, unchanged by the floor.
        assert_eq!(chunk_size(10_000, 8), 156);
        assert_eq!(chunk_size(1 << 20, 8), 1024); // cap
                                                  // Every chunk size stays within bounds across a sweep.
        for n in 1..300 {
            for threads in 1..16 {
                let c = chunk_size(n, threads);
                assert!((1..=1024).contains(&c), "n={n} threads={threads} c={c}");
            }
        }
    }

    #[test]
    fn init_builds_one_state_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..200).collect();
        let threads = 4usize;
        let out = par_map_init(
            &items,
            threads,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64 // per-worker accumulator: state is genuinely mutable
            },
            |acc, &x| {
                *acc += 1;
                x + 1
            },
        );
        assert_eq!(out, (1..=200).collect::<Vec<u64>>());
        let built = inits.load(Ordering::Relaxed);
        assert!(
            built <= threads,
            "at most one state per worker (got {built})"
        );
        assert!(built >= 1);
    }

    #[test]
    fn workspace_state_reuses_across_items() {
        use crate::drip::SilentFactory;
        use radio_graph::{generators, Configuration};
        let configs: Vec<Configuration> = (2..10)
            .map(|n| Configuration::new(generators::path(n), (0..n as u64).collect()).unwrap())
            .collect();
        let factory = SilentFactory { lifetime: 4 };
        let results = run_batch(
            &configs,
            &factory,
            crate::model::ModelKind::default(),
            crate::engine::RunOpts::default(),
        );
        for (config, result) in configs.iter().zip(&results) {
            let fresh =
                crate::Executor::run(config, &factory, crate::engine::RunOpts::default()).unwrap();
            let batched = result.as_ref().unwrap();
            assert_eq!(batched.histories, fresh.histories);
            assert_eq!(batched.rounds, fresh.rounds);
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let items = vec![1, 2, 3];
        let _ = par_map_init(
            &items,
            2,
            || (),
            |_, &x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            },
        );
    }
}
