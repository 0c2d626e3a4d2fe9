//! Reusable per-run engine state — the batch-execution substrate.
//!
//! A single election allocates a dozen vectors (arena segments, wake/done
//! rounds, the visit calendar, round-stamped counters). That is
//! irrelevant for one run and dominant for a campaign of millions: the
//! batch layers (`parallel`, `anon_radio::campaign`) therefore run every
//! simulation through a long-lived [`SimWorkspace`], which owns all of
//! that state and recycles it run after run.
//!
//! [`SimWorkspace::reset_for`] re-dimensions the buffers for the next
//! configuration *without freeing them*, and files every node's wake-up
//! in the visit calendar: once a workspace has warmed up to the largest
//! configuration in a batch, back-to-back runs allocate almost nothing in
//! the hot loop. What is left is the run's node state — the boxes a
//! factory spawns, or the planes of flat [`DripNodes`] — and the owned
//! histories of the returned [`Execution`], both part of the run's
//! inputs/outputs, not the engine, plus the index nodes of the calendar's
//! far-future map, which only rounds at least [`RING_ROUNDS`] ahead of the
//! calendar reach.
//!
//! The one-shot entry points ([`Executor::run`](crate::Executor::run),
//! [`ModelKind::run`](crate::ModelKind::run)) are thin wrappers that build
//! a fresh workspace per call, so single-run callers see no API change —
//! and the differential suite (`tests/workspace_reuse.rs`) pins that a
//! workspace reused across a shuffled mix of configurations, channel
//! models, and trace settings produces bit-identical executions to fresh
//! runs.

use std::collections::BTreeMap;

use radio_graph::{Configuration, NodeId};

use crate::drip::{DripFactory, DripNode, DripNodes};
use crate::engine::{ExecStats, Execution, RunOpts, SimError};
use crate::history::{History, HistoryView};
use crate::model::{
    record_listener_obs, Beeping, CollisionDetection, ModelKind, NoCollisionDetection, RadioModel,
};
use crate::msg::{Action, Msg, Obs};
use crate::trace::{RoundEvent, Trace};

/// One shared observation arena: every node's history is an
/// `(offset, len, capacity)` segment of a single flat `Vec<Obs>`.
///
/// Appending into a full segment relocates it to the end of the arena with
/// doubled capacity (amortized O(1)); the backing vector itself grows
/// geometrically, so steady-state rounds perform no allocation at all.
/// Relocation abandons the old segment in place; once that garbage would
/// exceed the live observations the arena compacts itself (an O(live)
/// rewrite, amortized against the pushes that created the garbage), so the
/// buffer never holds more than ~2× the live observations. At million-node
/// scale this is the difference between the arena tracking the histories
/// and the arena dwarfing them. [`ObsArena::reset`] clears the segments
/// while keeping the backing vector's capacity — how a [`SimWorkspace`]
/// carries its warmed-up arena from run to run.
///
/// Only nodes that read their stored histories
/// ([`DripNodes::READS_HISTORY`]) use it. For the others the engine keeps
/// no history at all: a node's history length in global round `r` is
/// `r − wake`, which is all their views carry.
#[derive(Debug, Default)]
pub(crate) struct ObsArena {
    /// Backing buffer (one `Obs` per recorded round).
    data: Vec<Obs>,
    /// Per-node segment offsets into `data`.
    off: Vec<usize>,
    /// Per-node count of stored observations.
    len: Vec<u32>,
    /// Per-node segment capacities.
    cap: Vec<u32>,
    /// Slots abandoned by segment relocations since the last compaction.
    dead: usize,
}

impl ObsArena {
    /// Initial per-node segment capacity (allocated on first push).
    const FIRST_CAP: u32 = 8;

    #[cfg(test)]
    fn new(n: usize) -> ObsArena {
        let mut arena = ObsArena::default();
        arena.reset(n);
        arena
    }

    /// Backing-buffer footprint in bytes (capacities, not lengths). The
    /// arena never shrinks, so this is its high-water mark.
    pub(crate) fn mem_bytes(&self) -> u64 {
        (self.data.capacity() * std::mem::size_of::<Obs>()
            + self.off.capacity() * std::mem::size_of::<usize>()
            + self.len.capacity() * std::mem::size_of::<u32>()
            + self.cap.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// Re-dimensions for `n` empty segments, retaining all buffer capacity.
    pub(crate) fn reset(&mut self, n: usize) {
        self.data.clear();
        self.off.clear();
        self.off.resize(n, 0);
        self.len.clear();
        self.len.resize(n, 0);
        self.cap.clear();
        self.cap.resize(n, 0);
        self.dead = 0;
    }

    #[inline]
    pub(crate) fn push(&mut self, v: usize, obs: Obs) {
        if self.len[v] == self.cap[v] {
            self.grow(v, self.len[v] as usize + 1);
        }
        self.data[self.off[v] + self.len[v] as usize] = obs;
        self.len[v] += 1;
    }

    /// Appends `k` `(∅)` entries to segment `v` in one go — how
    /// [`ObsArena::pad_to`] delivers the silent rounds a node spent
    /// unvisited.
    ///
    /// O(1) past capacity checks, because a segment's unused tail
    /// `[len..cap)` still holds the `Obs::Silence` the backing vector was
    /// resized with (pushes only ever write at `len`), so appending
    /// silence is just a length bump.
    pub(crate) fn push_silence_n(&mut self, v: usize, k: usize) {
        let need = self.len[v] as usize + k;
        if need > self.cap[v] as usize {
            self.grow(v, need);
        }
        self.len[v] += k as u32;
    }

    /// Pads segment `v` with `(∅)` entries up to length `len` (a no-op
    /// when it is already that long).
    #[inline]
    pub(crate) fn pad_to(&mut self, v: usize, len: u64) {
        if len > u64::from(self.len[v]) {
            self.push_silence_n(v, (len - u64::from(self.len[v])) as usize);
        }
    }

    /// Relocates segment `v` to the end with capacity
    /// `max(2×cap, FIRST_CAP, need)`, compacting the whole buffer first
    /// when relocation garbage would outweigh the live data.
    #[cold]
    fn grow(&mut self, v: usize, need: usize) {
        // At least double (amortization), but satisfy big jumps — a
        // node unvisited for a long stretch can demand millions of slots
        // at once — exactly, so a huge silent run is not over-allocated
        // (and over-filled) by up to 2×.
        let new_cap = (self.cap[v] as usize * 2)
            .max(ObsArena::FIRST_CAP as usize)
            .max(need);
        // The whole abandoned segment (live prefix and unused tail alike)
        // becomes garbage; compact once garbage would outweigh the live
        // data, keeping the buffer within ~2× of the live elements.
        self.dead += self.cap[v] as usize;
        if self.dead * 2 > self.data.len() {
            self.compact();
            // Compaction shrank `v`'s segment to its live length; the
            // relocation below abandons exactly those slots.
            self.dead = self.len[v] as usize;
        }
        let new_off = self.data.len();
        let old_off = self.off[v];
        let live = self.len[v] as usize;
        // Relocate by appending: the live prefix is copied once (not
        // fill-initialized first and then overwritten), only the fresh tail
        // is filled — establishing the all-silence-beyond-`len` invariant
        // `push_silence_n` relies on.
        self.data.extend_from_within(old_off..old_off + live);
        self.data.resize(new_off + new_cap, Obs::Silence);
        self.off[v] = new_off;
        self.cap[v] = u32::try_from(new_cap).expect("history exceeds u32 capacity");
    }

    /// Rewrites every segment contiguously at the front of the buffer,
    /// dropping all relocation garbage. Segments keep their contents;
    /// capacities shrink to the live lengths, so the next append per segment
    /// relocates — which the doubling policy amortizes as usual.
    #[cold]
    fn compact(&mut self) {
        let mut order: Vec<u32> = (0..self.off.len() as u32).collect();
        order.sort_unstable_by_key(|&v| self.off[v as usize]);
        let mut write = 0usize;
        for &v in &order {
            let vi = v as usize;
            let live = self.len[vi] as usize;
            self.data
                .copy_within(self.off[vi]..self.off[vi] + live, write);
            self.off[vi] = write;
            self.cap[vi] = self.len[vi];
            write += live;
        }
        self.data.truncate(write);
    }

    #[inline]
    pub(crate) fn view(&self, v: usize) -> HistoryView<'_> {
        HistoryView::new(&self.data[self.off[v]..self.off[v] + self.len[v] as usize])
    }

    /// Materializes all segments as owned histories, leaving the arena
    /// intact for the next run.
    pub(crate) fn histories(&self) -> Vec<History> {
        (0..self.off.len())
            .map(|v| self.view(v).to_history())
            .collect()
    }
}

/// Sentinel for "has not happened yet" in the wake/done planes, and for
/// "no calendar entry" in the due plane.
const ASLEEP: u64 = u64::MAX;

/// How many rounds the calendar's ring holds: a round less than this many
/// rounds after the calendar's next round is filed in the ring, a later
/// one in its far-future map.
pub const RING_ROUNDS: u64 = 256;

/// Words of the ring's occupancy mask.
const RING_WORDS: usize = (RING_ROUNDS / 64) as usize;

/// The round-bucketed visit calendar: which nodes the engine must visit
/// in which global round.
///
/// [`SimWorkspace::reset_for`] files every node under its wake-up tag. An
/// entry whose node is still asleep when its round comes is that node's
/// spontaneous wake-up. Every awake, unterminated node also has exactly
/// one live entry, at the round recorded in the workspace's due plane.
/// Rescheduling a node pushes a new entry and leaves the old one behind;
/// [`SimWorkspace`] skips an entry whose round no longer matches the
/// node's due round, so stale entries cost one check each and never a
/// visit.
///
/// Rounds less than [`RING_ROUNDS`] after the calendar's next round (the
/// one after the last round taken) go in a ring of buckets indexed by
/// `round % RING_ROUNDS`, with one occupancy bit per bucket: a push is an
/// index and a `Vec` push, the first due round is a scan of four words,
/// and the buckets keep their capacity from run to run. Rounds further
/// ahead sit in an ordered map of buckets, so a push costs a lookup among
/// the distinct far rounds, never among the pending nodes (a heap would
/// pay log n per visit). Emptied map buckets are kept for reuse. A round
/// filed in the map stays there until it is taken, so taking a round
/// looks in both.
#[derive(Debug, Default)]
struct Calendar {
    /// The round after the last one taken (at reset, the calendar's
    /// start): no entry is ever filed before it, and the ring holds the
    /// rounds `base .. base + RING_ROUNDS`.
    base: u64,
    /// `RING_ROUNDS` buckets (sized by the first reset); round `x` sits
    /// at index `x % RING_ROUNDS`.
    ring: Vec<Vec<NodeId>>,
    /// Bit `i` is set iff `ring[i]` holds an entry.
    occupied: [u64; RING_WORDS],
    /// Entries filed at least `RING_ROUNDS` rounds ahead of `base`.
    far: BTreeMap<u64, Vec<NodeId>>,
    /// Emptied map buckets, kept for their capacity.
    spare: Vec<Vec<NodeId>>,
}

impl Calendar {
    /// Empties the calendar, keeping every bucket's capacity, and makes
    /// `start` its first round.
    fn reset(&mut self, start: u64) {
        if self.ring.is_empty() {
            self.ring.resize_with(RING_ROUNDS as usize, Vec::new);
        }
        for (w, word) in self.occupied.iter_mut().enumerate() {
            while *word != 0 {
                self.ring[w * 64 + word.trailing_zeros() as usize].clear();
                *word &= *word - 1;
            }
        }
        while let Some((_, mut bucket)) = self.far.pop_first() {
            bucket.clear();
            self.spare.push(bucket);
        }
        self.base = start;
    }

    /// Files `v` under `round`, which is never before the calendar's next
    /// round.
    #[inline]
    fn push(&mut self, round: u64, v: NodeId) {
        debug_assert!(
            round >= self.base,
            "round {round} filed behind the calendar"
        );
        if round - self.base < RING_ROUNDS {
            let i = (round % RING_ROUNDS) as usize;
            self.occupied[i / 64] |= 1 << (i % 64);
            self.ring[i].push(v);
        } else {
            let spare = &mut self.spare;
            self.far
                .entry(round)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push(v);
        }
    }

    /// The earliest round of the ring holding an entry: the first set
    /// occupancy bit at or after `base`'s index, wrapping around. The
    /// scan visits `base`'s word twice, first for the bits at or after
    /// `base`, last for the bits before it.
    fn ring_first(&self) -> Option<u64> {
        let start = (self.base % RING_ROUNDS) as usize;
        let from_start = u64::MAX << (start % 64);
        for k in 0..=RING_WORDS {
            let w = (start / 64 + k) % RING_WORDS;
            let bits = match k {
                0 => self.occupied[w] & from_start,
                RING_WORDS => self.occupied[w] & !from_start,
                _ => self.occupied[w],
            };
            if bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                let ahead = (i + RING_ROUNDS as usize - start) % RING_ROUNDS as usize;
                return Some(self.base + ahead as u64);
            }
        }
        None
    }

    /// The earliest round holding an entry (stale or live).
    fn first_round(&self) -> Option<u64> {
        let far = self.far.keys().next().copied();
        match (self.ring_first(), far) {
            (Some(ring), Some(far)) => Some(ring.min(far)),
            (ring, far) => ring.or(far),
        }
    }

    /// Moves every entry of round `r` into `out` (cleared first), and makes
    /// `r + 1` the next round. `r` is never before the calendar's next
    /// round and never after [`Calendar::first_round`].
    ///
    /// The entries are copied, not swapped out with their buffer: every
    /// bucket keeps its own capacity, so a workspace warmed by one run
    /// allocates nothing for the ring's rounds in the next.
    fn take(&mut self, r: u64, out: &mut Vec<NodeId>) {
        out.clear();
        debug_assert!(r >= self.base, "round {r} taken behind the calendar");
        if r - self.base < RING_ROUNDS {
            let i = (r % RING_ROUNDS) as usize;
            let bit = 1 << (i % 64);
            if self.occupied[i / 64] & bit != 0 {
                self.occupied[i / 64] &= !bit;
                out.extend_from_slice(&self.ring[i]);
                self.ring[i].clear();
            }
        } else {
            debug_assert!(
                self.ring_first().is_none(),
                "ring entries left behind round {r}"
            );
        }
        debug_assert!(
            self.far.keys().next().is_none_or(|&k| k >= r),
            "far entries left behind round {r}"
        );
        if let Some(mut bucket) = self.far.remove(&r) {
            out.append(&mut bucket);
            self.spare.push(bucket);
        }
        self.base = r.saturating_add(1);
    }

    fn mem_bytes(&self) -> u64 {
        let ids = |v: &Vec<NodeId>| (v.capacity() * std::mem::size_of::<NodeId>()) as u64;
        (self.ring.capacity() * std::mem::size_of::<Vec<NodeId>>()) as u64
            + self.ring.iter().map(ids).sum::<u64>()
            + self.far.values().map(ids).sum::<u64>()
            + self.spare.iter().map(ids).sum::<u64>()
    }
}

/// Reusable engine state for back-to-back simulations.
///
/// Create one per worker thread, then call [`SimWorkspace::run`] /
/// [`SimWorkspace::run_model`] / [`SimWorkspace::run_kind`] as many times
/// as needed — each call resets and recycles every internal buffer, so a
/// warmed-up workspace executes runs without engine-side allocation. The
/// produced [`Execution`]s are bit-identical to one-shot
/// [`Executor`](crate::Executor) runs.
#[derive(Default)]
pub struct SimWorkspace {
    /// High-water mark of the runs' node state
    /// ([`DripNodes::mem_bytes`]), which the nodes themselves own.
    node_bytes: u64,
    arena: ObsArena,
    wake: Vec<u64>,
    done: Vec<u64>,
    calendar: Calendar,
    /// Per node: the round of its live calendar entry (`ASLEEP` while it
    /// has none — asleep, terminated, or being visited this round). A
    /// sleeping node's wake-up entry is not recorded here.
    due: Vec<u64>,
    /// The entries of the round being executed.
    bucket: Vec<NodeId>,
    /// Nodes to reschedule at the end of the round: every node that
    /// decided or woke, and every node that heard something and asked to
    /// be re-asked.
    visited: Vec<NodeId>,
    actions: Vec<(NodeId, Action)>,
    transmitters: Vec<(NodeId, Msg)>,
    touched: Vec<NodeId>,
    cnt: Vec<u32>,
    cnt_stamp: Vec<u64>,
    heard_msg: Vec<Msg>,
}

impl std::fmt::Debug for SimWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorkspace")
            .field("nodes", &self.wake.len())
            .field("arena_obs", &self.arena.data.len())
            .finish()
    }
}

impl SimWorkspace {
    /// An empty workspace; buffers are dimensioned lazily by the first run.
    pub fn new() -> SimWorkspace {
        SimWorkspace::default()
    }

    /// Approximate footprint of the workspace's backing buffers in bytes.
    /// Counts plane *capacities* — capacities never shrink across runs, so
    /// this is the high-water mark of everything the workspace ever held —
    /// plus the largest per-node state a run brought along
    /// ([`DripNodes::mem_bytes`]: the canonical DRIP's planes, or a boxed
    /// run's pointer plane; boxed node internals and the calendar's map
    /// nodes are excluded). Feeds the campaign `mem_hw` column.
    pub fn mem_bytes(&self) -> u64 {
        fn plane<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        self.arena.mem_bytes()
            + self.calendar.mem_bytes()
            + self.node_bytes
            + plane(&self.wake)
            + plane(&self.done)
            + plane(&self.due)
            + plane(&self.bucket)
            + plane(&self.visited)
            + plane(&self.cnt)
            + plane(&self.cnt_stamp)
            + plane(&self.actions)
            + plane(&self.transmitters)
            + plane(&self.touched)
            + plane(&self.heard_msg)
    }

    /// Re-dimensions every buffer for `config` without freeing capacity:
    /// the per-run state (arena segments, wake/done/due/counter planes,
    /// the calendar) is cleared in place, and every node is filed in the
    /// calendar under its wake-up tag, which makes the smallest tag the
    /// calendar's start. Called automatically at the start of every run.
    pub fn reset_for(&mut self, config: &Configuration) {
        self.reset_run(config, true);
    }

    /// [`SimWorkspace::reset_for`], with one arena segment per node only
    /// when the nodes read their stored histories.
    fn reset_run(&mut self, config: &Configuration, store_histories: bool) {
        let n = config.size();
        self.arena.reset(if store_histories { n } else { 0 });
        self.wake.clear();
        self.wake.resize(n, ASLEEP);
        self.done.clear();
        self.done.resize(n, ASLEEP);
        self.calendar.reset(config.min_tag());
        for (v, &tag) in config.tags().iter().enumerate() {
            self.calendar.push(tag, v as NodeId);
        }
        self.due.clear();
        self.due.resize(n, ASLEEP);
        self.bucket.clear();
        self.visited.clear();
        self.actions.clear();
        self.transmitters.clear();
        self.touched.clear();
        self.cnt.clear();
        self.cnt.resize(n, 0);
        // Stamps compare against round numbers that restart at 0 each run,
        // so stale stamps must be cleared or a new run's round `r` could
        // collide with an old one's.
        self.cnt_stamp.clear();
        self.cnt_stamp.resize(n, u64::MAX);
        self.heard_msg.clear();
        self.heard_msg.resize(n, Msg(0));
    }

    /// Runs `factory`'s DRIP on `config` under the paper's channel model
    /// ([`NoCollisionDetection`]), recycling this workspace's buffers.
    pub fn run(
        &mut self,
        config: &Configuration,
        factory: &dyn DripFactory,
        opts: RunOpts,
    ) -> Result<Execution, SimError> {
        self.run_model::<NoCollisionDetection>(config, factory, opts)
    }

    /// [`SimWorkspace::run`] under a runtime-selected channel model.
    pub fn run_kind(
        &mut self,
        model: ModelKind,
        config: &Configuration,
        factory: &dyn DripFactory,
        opts: RunOpts,
    ) -> Result<Execution, SimError> {
        match model {
            ModelKind::NoCollisionDetection => {
                self.run_model::<NoCollisionDetection>(config, factory, opts)
            }
            ModelKind::CollisionDetection => {
                self.run_model::<CollisionDetection>(config, factory, opts)
            }
            ModelKind::Beeping => self.run_model::<Beeping>(config, factory, opts),
        }
    }

    /// [`SimWorkspace::run`] under an explicit channel model `M`.
    pub fn run_model<M: RadioModel>(
        &mut self,
        config: &Configuration,
        factory: &dyn DripFactory,
        opts: RunOpts,
    ) -> Result<Execution, SimError> {
        let mut nodes: Vec<Box<dyn DripNode>> =
            (0..config.size()).map(|_| factory.spawn()).collect();
        let run = self.run_loop::<M, _>(config, &mut nodes, opts)?;
        Ok(Execution {
            wake_round: std::mem::take(&mut self.wake),
            done_round: std::mem::take(&mut self.done),
            histories: self.arena.histories(),
            rounds: run.rounds,
            rounds_stepped: run.rounds_stepped,
            rounds_leapt: run.rounds_leapt,
            stats: run.stats,
            trace: run.trace,
        })
    }

    /// Node `v`'s history at the start of global round `r`: its local
    /// rounds `0 .. r − wake`. Nodes that read history get their arena
    /// segment, first padded with the silent rounds they spent unvisited;
    /// for the others the length is all there is.
    #[inline]
    fn history<N: DripNodes>(&mut self, v: usize, r: u64) -> HistoryView<'_> {
        let len = r - self.wake[v];
        if N::READS_HISTORY {
            self.arena.pad_to(v, len);
            self.arena.view(v)
        } else {
            HistoryView::silent(len as usize)
        }
    }

    /// Records observation `obs` as node `v`'s entry for global round `r`
    /// (local round `r − wake`), streaming it to the node when it is not
    /// silence. Returns whether the node asked to have its horizon
    /// re-asked ([`DripNodes::observe`]).
    #[inline]
    fn record<N: DripNodes>(&mut self, nodes: &mut N, v: usize, r: u64, obs: Obs) -> bool {
        let t = r - self.wake[v];
        if N::READS_HISTORY {
            self.arena.pad_to(v, t);
            self.arena.push(v, obs);
        }
        !matches!(obs, Obs::Silence) && nodes.observe(v as NodeId, t, obs)
    }

    /// Runs `nodes` on `config` under a runtime-selected channel model
    /// without materializing an [`Execution`]: the run's state stays
    /// resident in the workspace until the next run resets it, and the
    /// returned summary carries the rest of what an [`Execution`] would.
    /// Its delivery counters count the deliveries made: a node that
    /// [`DripNodes::deaf`] names is delivered nothing.
    ///
    /// This is the engine's million-node path. Materializing a 10⁶-node
    /// execution clones every observation into per-node vectors — for
    /// history-heavy runs that clone alone can exceed the configuration
    /// footprint by an order of magnitude. The nodes bring their own
    /// state, so the run spawns nothing, and
    /// [`DripNodes::READS_HISTORY`] decides whether histories are stored:
    /// nodes that fold what they hear through [`DripNodes::observe`] get
    /// no history storage at all — each view is the all-silence history of
    /// length `r − wake`, computed from the node's wake round — and they
    /// are re-asked for their horizon after a delivery only when `observe`
    /// says so. Whatever the nodes concluded (a leader verdict, say) stays
    /// in `nodes` for the caller to read. A factory's DRIP runs here as the
    /// boxed nodes it spawns (`Vec<Box<dyn DripNode>>`), with histories
    /// stored in full.
    pub fn run_nodes<N: DripNodes>(
        &mut self,
        model: ModelKind,
        config: &Configuration,
        nodes: &mut N,
        opts: RunOpts,
    ) -> Result<ResidentRun, SimError> {
        match model {
            ModelKind::NoCollisionDetection => {
                self.run_loop::<NoCollisionDetection, N>(config, nodes, opts)
            }
            ModelKind::CollisionDetection => {
                self.run_loop::<CollisionDetection, N>(config, nodes, opts)
            }
            ModelKind::Beeping => self.run_loop::<Beeping, N>(config, nodes, opts),
        }
    }

    /// The run loop itself, compiled once per channel model and node type.
    fn run_loop<M: RadioModel, N: DripNodes>(
        &mut self,
        config: &Configuration,
        nodes: &mut N,
        opts: RunOpts,
    ) -> Result<ResidentRun, SimError> {
        self.reset_run(config, N::READS_HISTORY);
        self.node_bytes = self.node_bytes.max(nodes.mem_bytes());
        let n = config.size();
        let csr = config.csr();

        let mut done_count = 0usize;
        let mut stats = ExecStats::default();
        let mut trace = if opts.record_trace {
            Some(Trace::default())
        } else {
            None
        };
        let mut rounds = 0u64;
        let mut rounds_stepped = 0u64;
        let mut decides = 0u64;
        let mut horizon_queries = 0u64;

        while done_count < n {
            // Skip straight to the next round in which some node is due or
            // wakes spontaneously: nothing happens in between. Every
            // sleeping node has its wake-up entry and every awake one a
            // live entry, so the calendar is empty only when every
            // unfinished node's horizon is past the last round.
            let r = self.calendar.first_round().unwrap_or(ASLEEP);
            if r >= opts.max_rounds {
                return Err(SimError::RoundLimit {
                    max_rounds: opts.max_rounds,
                    still_running: n - done_count,
                });
            }

            let mut event = RoundEvent {
                round: r,
                ..Default::default()
            };

            // 1. Decide: every node due this round. A node whose entry was
            //    superseded (rescheduled since) is skipped, and a consumed
            //    entry is marked so a duplicate cannot decide twice; an
            //    entry of a sleeping node is its wake-up, handled in
            //    step 5.
            self.actions.clear();
            self.visited.clear();
            let mut bucket = std::mem::take(&mut self.bucket);
            self.calendar.take(r, &mut bucket);
            // Whether some entry is a node's tag: a sleeping node's
            // wake-up, or the tag of a node a message already woke.
            let mut tag_fires = false;
            for &v in &bucket {
                let vi = v as usize;
                if self.wake[vi] == ASLEEP {
                    tag_fires = true;
                    continue;
                }
                if self.due[vi] != r {
                    tag_fires |= config.tag(v) == r;
                    continue;
                }
                self.due[vi] = ASLEEP;
                let action = nodes.decide(v, self.history::<N>(vi, r));
                self.actions.push((v, action));
            }
            decides += self.actions.len() as u64;

            // 2. Collect transmitters and stamp neighbour counters. An awake
            //    deaf neighbour is skipped: it is neither stamped nor
            //    touched, so steps 3 and 4 deliver nothing to it. A sleeping
            //    one is always stamped, since the transmission may wake it.
            self.transmitters.clear();
            self.touched.clear();
            for &(v, action) in &self.actions {
                if let Action::Transmit(m) = action {
                    self.transmitters.push((v, m));
                }
            }
            for &(u, m) in &self.transmitters {
                for &w in csr.neighbors(u) {
                    let wi = w as usize;
                    if nodes.deaf(w) && self.wake[wi] != ASLEEP {
                        continue;
                    }
                    if self.cnt_stamp[wi] != r {
                        self.cnt_stamp[wi] = r;
                        self.cnt[wi] = 0;
                        self.touched.push(w);
                    }
                    self.cnt[wi] += 1;
                    self.heard_msg[wi] = m;
                }
            }
            stats.transmissions += self.transmitters.len() as u64;

            // 3. Deliver to the deciders. A transmitter hears nothing and
            //    an unreached listener hears silence: both `(∅)` entries
            //    are appended lazily, by the node's next visit. Every
            //    surviving decider is re-asked below.
            for i in 0..self.actions.len() {
                let (v, action) = self.actions[i];
                let vi = v as usize;
                match action {
                    Action::Transmit(_) => self.visited.push(v),
                    Action::Listen => {
                        if self.cnt_stamp[vi] == r {
                            let obs = M::listener_obs(self.cnt[vi], self.listened_msg(vi));
                            let traced = trace.is_some().then_some(&mut event);
                            self.listen(nodes, vi, r, obs, &mut stats, traced);
                        }
                        self.visited.push(v);
                    }
                    Action::Terminate => {
                        self.done[vi] = r;
                        done_count += 1;
                        if trace.is_some() {
                            event.terminated.push(v);
                        }
                    }
                }
            }

            // 4. Reach the other neighbours of transmitters: a node with a
            //    calendar entry is awake and covered by its horizon — it
            //    listens without deciding, and is re-asked only if it says
            //    its horizon may have moved; a sleeping node wakes exactly
            //    when the model says so (under the default model a
            //    collision leaves it asleep).
            for i in 0..self.touched.len() {
                let w = self.touched[i];
                let wi = w as usize;
                let msg = self.listened_msg(wi);
                if self.due[wi] != ASLEEP {
                    let obs = M::listener_obs(self.cnt[wi], msg);
                    if !matches!(obs, Obs::Silence) {
                        let traced = trace.is_some().then_some(&mut event);
                        if self.listen(nodes, wi, r, obs, &mut stats, traced) {
                            self.visited.push(w);
                        }
                    }
                } else if self.wake[wi] == ASLEEP {
                    if let Some(obs) = M::wake_obs(self.cnt[wi], msg) {
                        self.wake[wi] = r;
                        self.record(nodes, wi, r, obs);
                        self.visited.push(w);
                        stats.forced_wakeups += 1;
                        if trace.is_some() {
                            event.woke.push((w, obs));
                        }
                    }
                }
            }

            // 5. Spontaneous wake-ups: the round's entries whose nodes are
            //    still asleep (their tag is `r`), after the forced ones.
            //    The wake-up entry `H[0] = (∅)` is appended lazily, like
            //    any silence.
            if tag_fires {
                for &w in &bucket {
                    let wi = w as usize;
                    if self.wake[wi] == ASLEEP {
                        self.wake[wi] = r;
                        self.visited.push(w);
                        if trace.is_some() {
                            event.woke.push((w, Obs::Silence));
                        }
                    }
                }
            }

            // 6. Reschedule: every node in `visited` is re-asked for its
            //    horizon with its end-of-round history.
            for i in 0..self.visited.len() {
                let v = self.visited[i];
                let vi = v as usize;
                horizon_queries += 1;
                let horizon = nodes.quiet_until(v, self.history::<N>(vi, r + 1));
                // A horizon past the round limit only has to reach the
                // limit. (Only with `max_rounds == u64::MAX` can that be
                // the `ASLEEP` sentinel: the node is then never due again,
                // and the run ends at the limit.)
                let due = match horizon {
                    Some(q) => self.wake[vi]
                        .saturating_add(q)
                        .clamp(r + 1, opts.max_rounds),
                    None => r + 1,
                };
                if self.due[vi] != due {
                    self.due[vi] = due;
                    self.calendar.push(due, v);
                }
            }
            self.bucket = bucket;

            if let Some(t) = trace.as_mut() {
                // The calendar visits nodes in filing order, and forced
                // wake-ups come before spontaneous ones; sorting by node
                // lists each round's events in node order, as the
                // reference engine records them. An eventful round hands
                // its transmitter buffer to the trace outright (no clone);
                // the next round starts from the empty vector the take
                // leaves behind.
                if !self.transmitters.is_empty() || !event.is_quiet() {
                    event.transmitters = std::mem::take(&mut self.transmitters);
                    event.transmitters.sort_unstable_by_key(|&(v, _)| v);
                    event.woke.sort_unstable_by_key(|&(v, _)| v);
                    event.received.sort_unstable_by_key(|&(v, _)| v);
                    event.collisions.sort_unstable();
                    event.terminated.sort_unstable();
                    t.events.push(event);
                }
            }

            // A round counts as stepped iff some node decided in it or a
            // wake-up tag equals it; every other round was leapt.
            if !self.actions.is_empty() || tag_fires {
                rounds_stepped += 1;
            }
            rounds = r + 1;
        }

        Ok(ResidentRun {
            rounds,
            rounds_stepped,
            rounds_leapt: rounds - rounds_stepped,
            completion_round: self.done.iter().copied().max().unwrap_or(0),
            decides,
            horizon_queries,
            stats,
            trace,
        })
    }

    /// The message a reached node heard this round: the transmitter's
    /// when exactly one neighbour transmitted, `Msg(0)` otherwise.
    #[inline]
    fn listened_msg(&self, v: usize) -> Msg {
        if self.cnt[v] == 1 {
            self.heard_msg[v]
        } else {
            Msg(0)
        }
    }

    /// Delivers listener observation `obs` to awake node `v` in round `r`,
    /// noting it in `event` when the run is traced. Returns whether the
    /// node asked to have its horizon re-asked.
    #[inline]
    fn listen<N: DripNodes>(
        &mut self,
        nodes: &mut N,
        v: usize,
        r: u64,
        obs: Obs,
        stats: &mut ExecStats,
        event: Option<&mut RoundEvent>,
    ) -> bool {
        record_listener_obs(obs, stats);
        let re_ask = self.record(nodes, v, r, obs);
        if let Some(event) = event {
            match obs {
                Obs::Heard(m) => event.received.push((v as NodeId, m)),
                Obs::Collision | Obs::Noise => event.collisions.push(v as NodeId),
                Obs::Silence => {}
            }
        }
        re_ask
    }
}

/// Summary of a run whose histories stayed resident in the workspace
/// arena (see [`SimWorkspace::run_nodes`]): an [`Execution`]'s rounds and
/// counters without the materialized per-node vectors, plus the engine's
/// work counters.
///
/// Its delivery counters ([`ExecStats::messages_received`] and
/// [`ExecStats::collisions_observed`]) count the deliveries the engine
/// made. Those are the deliveries the channel carries, as an
/// [`Execution`] counts them, unless some nodes are deaf
/// ([`DripNodes::deaf`]): nothing is delivered to a deaf node, and then
/// the counters are at most the channel's. The rounds, the transmissions
/// and the forced wake-ups do not depend on deafness, and neither does
/// the trace's list of transmitters, wake-ups and terminations; a deaf
/// node's missed receptions are absent from its `received` and
/// `collisions` lists.
#[derive(Debug, Clone)]
pub struct ResidentRun {
    /// Number of global rounds simulated (identical to
    /// [`Execution::rounds`]).
    pub rounds: u64,
    /// Global rounds in which some node decided or a wake-up tag fell.
    pub rounds_stepped: u64,
    /// Global rounds the time-leap scheduler skipped as provably quiet.
    pub rounds_leapt: u64,
    /// Global round by which every node had terminated (`max` over the
    /// done plane; 0 for an empty configuration).
    pub completion_round: u64,
    /// Node visits that called [`DripNodes::decide`].
    pub decides: u64,
    /// Calls to [`DripNodes::quiet_until`].
    pub horizon_queries: u64,
    /// Aggregate counters; the delivery counters count the deliveries
    /// made (see above).
    pub stats: ExecStats,
    /// Recorded trace, when requested via [`RunOpts::record_trace`].
    pub trace: Option<Trace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_segments_grow_and_relocate_correctly() {
        // Long histories force many segment relocations; the final owned
        // histories must be exactly the per-round observations.
        let mut arena = ObsArena::new(3);
        for i in 0..100u64 {
            arena.push(0, Obs::Heard(Msg(i)));
            if i % 2 == 0 {
                arena.push(1, Obs::Silence);
            }
            if i % 3 == 0 {
                arena.push(2, Obs::Collision);
            }
        }
        assert_eq!(arena.view(0).len(), 100);
        assert_eq!(arena.view(0).message_at(73), Some(Msg(73)));
        let hs = arena.histories();
        assert_eq!(hs[0].len(), 100);
        assert_eq!(hs[1].len(), 50);
        assert_eq!(hs[2].len(), 34);
        assert!(hs[1].all_silent());
        assert!((0..100).all(|i| hs[0].message_at(i) == Some(Msg(i as u64))));
    }

    #[test]
    fn arena_push_silence_n_appends_bulk_silence() {
        let mut arena = ObsArena::new(2);
        arena.push(0, Obs::Heard(Msg(1)));
        arena.push_silence_n(0, 1000);
        arena.push(0, Obs::Heard(Msg(2)));
        arena.push_silence_n(1, 3);
        let hs = arena.histories();
        assert_eq!(hs[0].len(), 1002);
        assert_eq!(hs[0].message_at(0), Some(Msg(1)));
        assert!(hs[0].as_slice()[1..1001].iter().all(|o| o.is_silence()));
        assert_eq!(hs[0].message_at(1001), Some(Msg(2)));
        assert_eq!(hs[1].len(), 3);
        assert!(hs[1].all_silent());
    }

    /// Takes round `r` from `calendar` and from the model `want`, and
    /// checks they hand out the same entries (in any order within the
    /// round).
    fn take_both(calendar: &mut Calendar, want: &mut BTreeMap<u64, Vec<NodeId>>, r: u64) -> usize {
        let mut out = Vec::new();
        calendar.take(r, &mut out);
        let mut expect = want.remove(&r).unwrap_or_default();
        out.sort_unstable();
        expect.sort_unstable();
        assert_eq!(out, expect, "round {r}");
        out.len()
    }

    #[test]
    fn calendar_matches_an_ordered_map_model() {
        use radio_util::rng::splitmix64;
        let mut calendar = Calendar::default();
        let starts = [0, 1, 200, 1_000_003, u64::MAX - 5_000, u64::MAX - 300];
        for (case, start) in starts.into_iter().enumerate() {
            let mut draws = 0u64;
            let mut draw = |bound: u64| {
                draws += 1;
                splitmix64(((case as u64) << 32) ^ draws) % bound
            };
            calendar.reset(start);
            let mut want: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
            // The calendar's next round: no entry may be filed before it.
            let mut next = start;
            let (mut pushed, mut taken) = (0usize, 0usize);
            for _ in 0..6_000 {
                assert_eq!(calendar.first_round(), want.keys().next().copied());
                let first = want.keys().next().copied();
                if draw(5) < 3 || first.is_none() {
                    let room = u64::MAX - next;
                    let ahead = match draw(4) {
                        0 => draw(8),
                        // Straddle the ring's edge.
                        1 => RING_ROUNDS - 4 + draw(8),
                        2 => draw(8 * RING_ROUNDS),
                        _ => draw(room.max(1)),
                    };
                    let round = next + ahead.min(room);
                    calendar.push(round, pushed as NodeId);
                    want.entry(round).or_default().push(pushed as NodeId);
                    pushed += 1;
                } else if let Some(first) = first.filter(|&f| f < u64::MAX) {
                    // The first round, or sometimes an empty one before it.
                    let r = if draw(4) == 0 {
                        next + draw(first - next + 1)
                    } else {
                        first
                    };
                    taken += take_both(&mut calendar, &mut want, r);
                    next = r + 1;
                }
            }
            while let Some(first) = calendar.first_round() {
                assert_eq!(Some(first), want.keys().next().copied());
                taken += take_both(&mut calendar, &mut want, first);
                if first == u64::MAX {
                    break;
                }
            }
            assert!(want.is_empty(), "start {start}: entries never taken");
            assert_eq!(taken, pushed, "start {start}");
            assert!(pushed > 2_000, "start {start}: only {pushed} pushes");
        }
    }

    #[test]
    fn arena_reset_clears_segments_but_keeps_capacity() {
        let mut arena = ObsArena::new(2);
        for i in 0..500u64 {
            arena.push(0, Obs::Heard(Msg(i)));
            arena.push(1, Obs::Silence);
        }
        let warm = arena.data.capacity();
        assert!(warm >= 1000);
        arena.reset(3);
        assert_eq!(arena.data.len(), 0);
        assert_eq!(arena.data.capacity(), warm, "backing capacity survives");
        assert_eq!(arena.view(0).len(), 0);
        // segments work as new after the reset, and the silence-tail
        // invariant holds for the recycled buffer
        arena.push(2, Obs::Heard(Msg(9)));
        arena.push_silence_n(2, 20);
        let hs = arena.histories();
        assert!(hs[0].is_empty() && hs[1].is_empty());
        assert_eq!(hs[2].len(), 21);
        assert_eq!(hs[2].message_at(0), Some(Msg(9)));
        assert!(hs[2].as_slice()[1..].iter().all(|o| o.is_silence()));
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs_across_sizes() {
        use crate::drip::{SilentFactory, WaitThenTransmitFactory};
        use radio_graph::{generators, Configuration};

        let small = Configuration::new(generators::path(3), vec![0, 1, 2]).unwrap();
        let large = Configuration::new(generators::star(8), vec![0, 1, 1, 1, 2, 3, 4, 9]).unwrap();
        let wtt = WaitThenTransmitFactory {
            wait: 1,
            msg: Msg(7),
            lifetime: 12,
        };
        let silent = SilentFactory { lifetime: 5 };

        let mut ws = SimWorkspace::new();
        // grow, shrink, grow again — every run must equal its fresh twin
        for (config, factory) in [
            (&large, &wtt as &dyn DripFactory),
            (&small, &silent as &dyn DripFactory),
            (&large, &wtt as &dyn DripFactory),
        ] {
            let reused = ws.run(config, factory, RunOpts::default()).unwrap();
            let fresh = crate::Executor::run(config, factory, RunOpts::default()).unwrap();
            assert_eq!(reused.histories, fresh.histories);
            assert_eq!(reused.wake_round, fresh.wake_round);
            assert_eq!(reused.done_round, fresh.done_round);
            assert_eq!(reused.rounds, fresh.rounds);
            assert_eq!(reused.stats, fresh.stats);
        }
    }

    #[test]
    fn workspace_survives_a_round_limit_error() {
        use crate::drip::SilentFactory;
        use radio_graph::{generators, Configuration};

        let config = Configuration::new(generators::path(2), vec![0, 0]).unwrap();
        let mut ws = SimWorkspace::new();
        let err = ws
            .run(
                &config,
                &SilentFactory { lifetime: 100 },
                RunOpts::with_max_rounds(10),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::RoundLimit { .. }));
        // the aborted run must not poison the next one
        let ok = ws
            .run(&config, &SilentFactory { lifetime: 4 }, RunOpts::default())
            .unwrap();
        let fresh =
            crate::Executor::run(&config, &SilentFactory { lifetime: 4 }, RunOpts::default())
                .unwrap();
        assert_eq!(ok.histories, fresh.histories);
        assert_eq!(ok.rounds, fresh.rounds);
    }

    #[test]
    fn horizons_at_the_end_of_time_stop_at_the_round_limit() {
        use crate::drip::SilentFactory;
        use radio_graph::{generators, Configuration};

        // The late node wakes one round before the largest round number;
        // its horizon saturates, and the run must end at the limit — no
        // overflow, no panic, no spin.
        let config = Configuration::new(generators::path(2), vec![0, u64::MAX - 1]).unwrap();
        let err = SimWorkspace::new()
            .run(
                &config,
                &SilentFactory { lifetime: 3 },
                RunOpts::with_max_rounds(u64::MAX),
            )
            .unwrap_err();
        assert_eq!(
            err,
            SimError::RoundLimit {
                max_rounds: u64::MAX,
                still_running: 1
            }
        );
    }

    #[test]
    fn traced_run_hands_transmitter_buffers_to_the_trace() {
        use crate::drip::WaitThenTransmitFactory;
        use radio_graph::{generators, Configuration};

        let config = Configuration::new(generators::path(3), vec![0, 9, 9]).unwrap();
        let factory = WaitThenTransmitFactory {
            wait: 0,
            msg: Msg(5),
            lifetime: 8,
        };
        let mut ws = SimWorkspace::new();
        let reused = ws
            .run(&config, &factory, RunOpts::default().traced())
            .unwrap();
        let fresh = crate::Executor::run(&config, &factory, RunOpts::default().traced()).unwrap();
        assert_eq!(
            reused.trace.as_ref().unwrap().events,
            fresh.trace.as_ref().unwrap().events
        );
        // the transmission rounds made it into the trace with their payload
        assert!(reused
            .trace
            .unwrap()
            .events
            .iter()
            .any(|e| !e.transmitters.is_empty()));
    }
}
