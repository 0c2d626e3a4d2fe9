//! Reusable per-run engine state — the batch-execution substrate.
//!
//! A single election allocates a dozen vectors (arena segments, wake/done
//! rounds, active lists, round-stamped counters, quiescence horizons).
//! That is irrelevant for one run and dominant for a campaign of millions:
//! the batch layers (`parallel`, `anon_radio::campaign`) therefore run
//! every simulation through a long-lived [`SimWorkspace`], which owns all
//! of that state and recycles it run after run.
//!
//! [`SimWorkspace::reset_for`] re-dimensions the buffers for the next
//! configuration *without freeing them*: once a workspace has warmed up to
//! the largest configuration in a batch, back-to-back runs allocate
//! nothing in the hot loop (the only steady-state allocations left are the
//! per-node DRIP boxes the factory spawns and the owned histories of the
//! returned [`Execution`] — both part of the run's inputs/outputs, not the
//! engine).
//!
//! The one-shot entry points ([`Executor::run`](crate::Executor::run),
//! [`ModelKind::run`](crate::ModelKind::run)) are thin wrappers that build
//! a fresh workspace per call, so single-run callers see no API change —
//! and the differential suite (`tests/workspace_reuse.rs`) pins that a
//! workspace reused across a shuffled mix of configurations, channel
//! models, and leap modes produces bit-identical executions to fresh runs.

use radio_graph::{Configuration, NodeId};

use crate::drip::DripFactory;
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
/// # Length-only mode
///
/// Under [`RunOpts::len_only_histories`](crate::RunOpts::len_only_histories)
/// the arena stores nothing: each history is a per-node virtual length,
/// and a leap's bulk silence ([`ObsArena::push_silence_n`]) is a counter
/// bump — O(1) time *and* memory — which is what lets a 10⁶-node
/// election run within a small multiple of its configuration footprint.
#[derive(Debug, Default)]
pub(crate) struct ObsArena {
    /// Length-only mode: nothing is stored, histories exist purely as
    /// per-node virtual lengths (`vlen`). See [`RunOpts::len_only_histories`].
    len_only: bool,
    /// Backing buffer (one `Obs` per recorded round).
    data: Vec<Obs>,
    /// Per-node segment offsets into `data`.
    off: Vec<usize>,
    /// Per-node count of stored observations.
    len: Vec<u32>,
    /// Per-node segment capacities.
    cap: Vec<u32>,
    /// Length-only mode: per-node virtual history length in rounds.
    vlen: Vec<u64>,
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
            + self.cap.capacity() * std::mem::size_of::<u32>()
            + self.vlen.capacity() * std::mem::size_of::<u64>()) as u64
    }

    /// Selects the storage mode for the *next* [`ObsArena::reset`]. Must
    /// not be flipped mid-run.
    pub(crate) fn set_len_only(&mut self, len_only: bool) {
        self.len_only = len_only;
    }

    /// The virtual length of node `v`'s history — the local round index
    /// the *next* recorded entry will land at, in either storage mode.
    #[inline]
    pub(crate) fn pos(&self, v: usize) -> u64 {
        if self.len_only {
            self.vlen[v]
        } else {
            u64::from(self.len[v])
        }
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
        self.vlen.clear();
        self.vlen.resize(n, 0);
        self.dead = 0;
    }

    #[inline]
    pub(crate) fn push(&mut self, v: usize, obs: Obs) {
        if self.len_only {
            self.vlen[v] += 1;
            return;
        }
        if self.len[v] == self.cap[v] {
            self.grow(v, self.len[v] as usize + 1);
        }
        self.data[self.off[v] + self.len[v] as usize] = obs;
        self.len[v] += 1;
    }

    /// Appends `k` `(∅)` entries to segment `v` in one go — how the
    /// time-leap scheduler delivers a skipped silent stretch.
    ///
    /// Length-only mode: a pure counter bump, O(1) time and memory — a
    /// leap over a million quiet rounds costs nothing per node. Dense
    /// mode: O(1) past capacity checks, because a segment's unused tail
    /// `[len..cap)` still holds the `Obs::Silence` the backing vector was
    /// resized with (pushes only ever write at `len`), so appending
    /// silence is just a length bump.
    pub(crate) fn push_silence_n(&mut self, v: usize, k: usize) {
        if self.len_only {
            self.vlen[v] += k as u64;
            return;
        }
        let need = self.len[v] as usize + k;
        if need > self.cap[v] as usize {
            self.grow(v, need);
        }
        self.len[v] += k as u32;
    }

    /// Relocates segment `v` to the end with capacity
    /// `max(2×cap, FIRST_CAP, need)`, compacting the whole buffer first
    /// when relocation garbage would outweigh the live data.
    #[cold]
    fn grow(&mut self, v: usize, need: usize) {
        // At least double (amortization), but satisfy big jumps — a
        // time-leap can demand millions of slots at once — exactly, so a
        // huge silent run is not over-allocated (and over-filled) by up
        // to 2×.
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
        if self.len_only {
            // Length-only views have the right `len()` but report every
            // entry as silence; sound only under the `observe`-folding
            // DRIP contract of `RunOpts::len_only_histories`.
            return HistoryView::silent(self.vlen[v] as usize);
        }
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

/// Sentinel for "has not happened yet" in the wake/done planes.
const ASLEEP: u64 = u64::MAX;

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
    nodes: Vec<Box<dyn crate::drip::DripNode>>,
    arena: ObsArena,
    wake: Vec<u64>,
    done: Vec<u64>,
    by_tag: Vec<NodeId>,
    active: Vec<NodeId>,
    actions: Vec<(NodeId, Action)>,
    transmitters: Vec<(NodeId, Msg)>,
    touched: Vec<NodeId>,
    cnt: Vec<u32>,
    cnt_stamp: Vec<u64>,
    heard_msg: Vec<Msg>,
    quiet_horizon: Vec<u64>,
}

impl std::fmt::Debug for SimWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorkspace")
            .field("nodes", &self.nodes.len())
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
    /// this is the high-water mark of everything the workspace ever held
    /// (boxed node internals excluded). Feeds the campaign `mem_hw` column.
    pub fn mem_bytes(&self) -> u64 {
        fn plane<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        self.arena.mem_bytes()
            + plane(&self.nodes)
            + plane(&self.wake)
            + plane(&self.done)
            + plane(&self.by_tag)
            + plane(&self.active)
            + plane(&self.cnt)
            + plane(&self.cnt_stamp)
            + plane(&self.quiet_horizon)
            + plane(&self.actions)
            + plane(&self.transmitters)
            + plane(&self.touched)
            + plane(&self.heard_msg)
    }

    /// Re-dimensions every buffer for `config` without freeing capacity:
    /// the per-run state (arena segments, wake/done/counter/horizon
    /// vectors, active lists) is cleared in place. Called automatically at
    /// the start of every run.
    pub fn reset_for(&mut self, config: &Configuration) {
        let n = config.size();
        self.nodes.clear();
        self.arena.reset(n);
        self.wake.clear();
        self.wake.resize(n, ASLEEP);
        self.done.clear();
        self.done.resize(n, ASLEEP);
        self.by_tag.clear();
        self.by_tag.extend(0..n as NodeId);
        self.by_tag.sort_by_key(|&v| config.tag(v));
        self.active.clear();
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
        self.quiet_horizon.clear();
        self.quiet_horizon.resize(n, 0);
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
        debug_assert!(
            !opts.len_only_histories,
            "length-only histories cannot be materialized into an Execution"
        );
        let run = self.run_model_resident::<M>(config, factory, opts)?;
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

    /// [`SimWorkspace::run_kind`] without materializing an [`Execution`]:
    /// the run's state stays resident in the workspace until the next run
    /// resets it, and the returned summary carries everything else an
    /// [`Execution`] would.
    ///
    /// This is the engine's million-node path. Materializing a 10⁶-node
    /// execution clones every observation into per-node vectors — for
    /// history-heavy runs that clone alone can exceed the configuration
    /// footprint by an order of magnitude. A DRIP that decides as it goes
    /// runs resident over length-only histories
    /// ([`RunOpts::len_only_histories`]) and reports its verdict through
    /// [`SimWorkspace::leader_claim`].
    pub fn run_kind_resident(
        &mut self,
        model: ModelKind,
        config: &Configuration,
        factory: &dyn DripFactory,
        opts: RunOpts,
    ) -> Result<ResidentRun, SimError> {
        match model {
            ModelKind::NoCollisionDetection => {
                self.run_model_resident::<NoCollisionDetection>(config, factory, opts)
            }
            ModelKind::CollisionDetection => {
                self.run_model_resident::<CollisionDetection>(config, factory, opts)
            }
            ModelKind::Beeping => self.run_model_resident::<Beeping>(config, factory, opts),
        }
    }

    /// Leader verdict of node `v`'s DRIP from the last run, if the
    /// algorithm resolved one at termination (see
    /// [`DripNode::leader_claim`](crate::drip::DripNode::leader_claim)).
    /// This is how length-only runs report
    /// election outcomes without stored histories.
    #[inline]
    pub fn leader_claim(&self, v: NodeId) -> Option<bool> {
        self.nodes[v as usize].leader_claim()
    }

    /// [`SimWorkspace::run_kind_resident`] under an explicit channel model
    /// `M`. This is the run loop itself; [`SimWorkspace::run_model`] wraps
    /// it and materializes the [`Execution`].
    pub fn run_model_resident<M: RadioModel>(
        &mut self,
        config: &Configuration,
        factory: &dyn DripFactory,
        opts: RunOpts,
    ) -> Result<ResidentRun, SimError> {
        self.arena.set_len_only(opts.len_only_histories);
        self.reset_for(config);
        let n = config.size();
        let csr = config.csr();
        self.nodes.extend((0..n).map(|_| factory.spawn()));

        let mut tag_ptr = 0usize;
        let mut done_count = 0usize;
        let mut stats = ExecStats::default();
        let mut trace = if opts.record_trace {
            Some(Trace::default())
        } else {
            None
        };
        let mut rounds_executed = 0u64;
        let mut rounds_stepped = 0u64;
        let mut rounds_leapt = 0u64;

        let mut r: u64 = 0;
        while done_count < n {
            if r >= opts.max_rounds {
                return Err(SimError::RoundLimit {
                    max_rounds: opts.max_rounds,
                    still_running: n - done_count,
                });
            }

            // Time-leap scheduler: fast-forward over provably quiet
            // stretches. Sound because every active node at this point
            // woke in an earlier round (this round's wake-ups have not
            // happened yet), so all of them decide in every skipped round
            // — and all have committed those decisions to `Listen`, which
            // means no transmissions, hence no deliveries other than
            // `(∅)`, no forced wake-ups, and no cache invalidations
            // during the skipped stretch.
            if opts.leap {
                if self.active.is_empty() {
                    // Nothing is awake: the next possible event is the
                    // next spontaneous wake-up (the loop condition
                    // guarantees one exists).
                    let next_tag = config.tag(self.by_tag[tag_ptr]).min(opts.max_rounds);
                    if next_tag > r {
                        rounds_leapt += next_tag - r;
                        r = next_tag;
                        continue;
                    }
                } else {
                    let mut target = u64::MAX;
                    let mut all_quiet = true;
                    for &v in &self.active {
                        let vi = v as usize;
                        if self.quiet_horizon[vi] <= r {
                            match self.nodes[vi].quiet_until(self.arena.view(vi)) {
                                Some(q) => self.quiet_horizon[vi] = self.wake[vi].saturating_add(q),
                                None => {
                                    all_quiet = false;
                                    break;
                                }
                            }
                            if self.quiet_horizon[vi] <= r {
                                all_quiet = false;
                                break;
                            }
                        }
                        target = target.min(self.quiet_horizon[vi]);
                    }
                    if tag_ptr < n {
                        target = target.min(config.tag(self.by_tag[tag_ptr]));
                    }
                    target = target.min(opts.max_rounds);
                    if all_quiet && target > r {
                        // Every active node would have decided (and
                        // listened) in each skipped round: deliver the
                        // silent observations in bulk.
                        let skipped = (target - r) as usize;
                        for &v in &self.active {
                            self.arena.push_silence_n(v as usize, skipped);
                        }
                        rounds_leapt += skipped as u64;
                        r = target;
                        continue;
                    }
                }
            }

            let mut event = RoundEvent {
                round: r,
                ..Default::default()
            };

            // 1. Decide.
            self.actions.clear();
            for &v in &self.active {
                if self.wake[v as usize] < r {
                    let action = self.nodes[v as usize].decide(self.arena.view(v as usize));
                    self.actions.push((v, action));
                }
            }

            // 2. Collect transmitters and stamp neighbour counters.
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

            // 3. Deliver to acting nodes.
            let mut retired = false;
            for &(v, action) in &self.actions {
                let vi = v as usize;
                match action {
                    Action::Transmit(_) => {
                        // A transmitter hears nothing: (∅). It was no
                        // committed listener, whatever it once claimed.
                        self.quiet_horizon[vi] = 0;
                        self.arena.push(vi, Obs::Silence);
                    }
                    Action::Listen => {
                        let heard = if self.cnt_stamp[vi] == r {
                            self.cnt[vi]
                        } else {
                            0
                        };
                        let msg = if heard == 1 {
                            self.heard_msg[vi]
                        } else {
                            Msg(0)
                        };
                        let obs = M::listener_obs(heard, msg);
                        record_listener_obs(obs, &mut stats);
                        if !matches!(obs, Obs::Silence) {
                            // Quiet claims hold only while the channel
                            // stays silent for the node: re-ask later.
                            self.quiet_horizon[vi] = 0;
                        }
                        if trace.is_some() {
                            match obs {
                                Obs::Heard(m) => event.received.push((v, m)),
                                Obs::Collision | Obs::Noise => event.collisions.push(v),
                                Obs::Silence => {}
                            }
                        }
                        let t = self.arena.pos(vi);
                        self.arena.push(vi, obs);
                        if !matches!(obs, Obs::Silence) {
                            // Streaming hook: non-silent entries are fed
                            // to the node as they land (see
                            // `DripNode::observe`).
                            self.nodes[vi].observe(t, obs);
                        }
                    }
                    Action::Terminate => {
                        self.done[vi] = r;
                        done_count += 1;
                        retired = true;
                        if trace.is_some() {
                            event.terminated.push(v);
                        }
                    }
                }
            }
            if retired {
                let done = &self.done;
                self.active.retain(|&v| done[v as usize] == ASLEEP);
            }

            // 4. Forced wake-ups: sleeping neighbours of transmitters, as
            //    the model dictates. Under the default model a collision
            //    leaves them asleep; other models may wake them with (~).
            for &w in &self.touched {
                let wi = w as usize;
                if self.wake[wi] == ASLEEP {
                    let msg = if self.cnt[wi] == 1 {
                        self.heard_msg[wi]
                    } else {
                        Msg(0)
                    };
                    if let Some(obs) = M::wake_obs(self.cnt[wi], msg) {
                        self.wake[wi] = r;
                        let t = self.arena.pos(wi);
                        self.arena.push(wi, obs);
                        if !matches!(obs, Obs::Silence) {
                            self.nodes[wi].observe(t, obs);
                        }
                        self.active.push(w);
                        stats.forced_wakeups += 1;
                        if trace.is_some() {
                            event.woke.push((w, obs));
                        }
                    }
                }
            }

            // 5. Spontaneous wake-ups at tag == r.
            while tag_ptr < n && config.tag(self.by_tag[tag_ptr]) == r {
                let w = self.by_tag[tag_ptr];
                tag_ptr += 1;
                let wi = w as usize;
                if self.wake[wi] == ASLEEP {
                    self.wake[wi] = r;
                    self.arena.push(wi, Obs::Silence);
                    self.active.push(w);
                    if trace.is_some() {
                        event.woke.push((w, Obs::Silence));
                    }
                }
            }

            if let Some(t) = trace.as_mut() {
                // An eventful round hands its transmitter buffer to the
                // trace outright (no clone); the next round starts from
                // the empty vector the take leaves behind. A quiet round
                // has nothing to hand over.
                if !self.transmitters.is_empty() || !event.is_quiet() {
                    event.transmitters = std::mem::take(&mut self.transmitters);
                    t.events.push(event);
                }
            }

            rounds_executed = r + 1;
            rounds_stepped += 1;
            r += 1;
        }

        Ok(ResidentRun {
            rounds: rounds_executed,
            rounds_stepped,
            rounds_leapt,
            completion_round: self.done.iter().copied().max().unwrap_or(0),
            stats,
            trace,
        })
    }
}

/// Summary of a run whose histories stayed resident in the workspace
/// arena (see [`SimWorkspace::run_kind_resident`]): everything an
/// [`Execution`] reports except the materialized per-node vectors.
#[derive(Debug, Clone)]
pub struct ResidentRun {
    /// Number of global rounds simulated (identical to
    /// [`Execution::rounds`], leap or no leap).
    pub rounds: u64,
    /// Global rounds executed one by one.
    pub rounds_stepped: u64,
    /// Global rounds the time-leap scheduler skipped as provably quiet.
    pub rounds_leapt: u64,
    /// Global round by which every node had terminated (`max` over the
    /// done plane; 0 for an empty configuration).
    pub completion_round: u64,
    /// Aggregate counters.
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

    #[test]
    fn arena_len_only_mode_counts_without_storing() {
        let mut arena = ObsArena::default();
        arena.set_len_only(true);
        arena.reset(2);
        arena.push(0, Obs::Heard(Msg(7)));
        arena.push_silence_n(0, 1000);
        arena.push(0, Obs::Collision);
        arena.push_silence_n(1, 3);
        // Lengths are exact in every accessor…
        assert_eq!(arena.pos(0), 1002);
        assert_eq!(arena.pos(1), 3);
        assert_eq!(arena.view(0).len(), 1002);
        assert_eq!(arena.view(1).len(), 3);
        // …but nothing was stored: views report silence everywhere and no
        // backing buffer grew.
        assert_eq!(arena.view(0).message_at(0), None);
        assert_eq!(arena.view(0).get(1001), Some(Obs::Silence));
        assert_eq!(arena.data.capacity(), 0);
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
