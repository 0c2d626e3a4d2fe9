//! Reusable, allocation-free classifier state — the batch-classification
//! substrate mirroring [`radio_sim`'s `SimWorkspace`] on the decision side
//! of the paper.
//!
//! A one-shot [`classify`](crate::classify) call allocates per iteration:
//! a fresh `Vec<Label>` (one heap label per node), two clones of the class
//! vector (one for `Refine`'s old/new split, one for the materialized
//! [`Partition`]), and an eager
//! [`IterationRecord`]. None of that is needed to
//! *decide* feasibility — and for a campaign sweeping millions of
//! configurations, classification (not simulation) is the throughput
//! ceiling. The [`ClassifierWorkspace`] removes all of it:
//!
//! * **Label interner** — label contents live in one flat [`Triple`] arena
//!   (`LabelInterner`); a node's label is a `u32` id, and `Refine` hashes
//!   `(old class, label id)` — two machine words — through a *persistent*
//!   table instead of re-walking triple sequences.
//! * **Double-buffered classes** — old/new class vectors swap inside
//!   `RefState`; no per-pass clone.
//! * **Incremental worklist** — an iteration recomputes labels only for
//!   nodes whose own class or some neighbour's class changed in the
//!   previous pass. A node with a stable neighbourhood keeps its interned
//!   label id (ids are stable for the whole run), so stable regions cost
//!   nothing per iteration. The reference engine deliberately does *not*
//!   use the worklist: its step counts are the paper's measured `O(n³Δ)`
//!   quantity.
//! * **Streaming records** — instead of an eager `Vec<IterationRecord>`,
//!   each iteration is offered to a caller-chosen [`RecordSink`]:
//!   [`FullRecords`] reproduces the classic eager outcome, [`FinalOnly`]
//!   keeps just the final partition, [`ListsSink`] compiles the canonical
//!   lists `L_1 … L_{T+1}` on the fly (per-representative, not per-node),
//!   and `()` discards everything (the campaign's feasibility-rate path).
//!
//! The class *numbering* produced by the workspace is pinned identical to
//! the paper-literal reference engine — same table seeding, same node
//! order — so canonical lists compiled from any path are interchangeable;
//! `tests/classifier_reuse.rs` and the crate's property suite assert this
//! bit for bit, including across workspace reuse.

use radio_graph::{Configuration, NodeId};
use radio_util::fxhash::hash_one;
use radio_util::FxHashMap;

use crate::fast::refine_fast_by;
use crate::lists::{CanonicalLists, Level, ListEntry};
use crate::outcome::{Cost, Engine, IterationRecord, Outcome};
use crate::partition::Partition;
use crate::partitioner::{labels_reference_in, node_triples_into};
use crate::reference::{refine_reference, RefState};
use crate::triple::{Label, Triple};

/// Interns label triple-sequences into dense `u32` ids.
///
/// Contents live in one flat arena (`triples` + per-id `starts`); lookup
/// is open addressing over a power-of-two slot table with stored hashes,
/// so a warm intern of an already-seen label touches no allocation at all.
/// Ids are stable for the lifetime of one classification run (the
/// incremental worklist relies on that); [`LabelInterner::reset`] recycles
/// every buffer for the next run.
#[derive(Debug, Default)]
struct LabelInterner {
    /// Flat arena of label contents.
    triples: Vec<Triple>,
    /// `starts[id] .. starts[id+1]` delimits label `id` in `triples`.
    starts: Vec<u32>,
    /// FxHash of each interned label (cheap pre-compare + rehash).
    hashes: Vec<u64>,
    /// Open-addressing slots: `0` = empty, else `id + 1`.
    slots: Vec<u32>,
    mask: usize,
}

impl LabelInterner {
    const FIRST_SLOTS: usize = 64;

    /// Backing-buffer footprint in bytes (capacities, not lengths) — the
    /// interner's high-water mark, since none of its buffers ever shrink.
    fn mem_bytes(&self) -> u64 {
        (self.triples.capacity() * std::mem::size_of::<Triple>()
            + self.starts.capacity() * 4
            + self.hashes.capacity() * 8
            + self.slots.capacity() * 4) as u64
    }

    /// Clears all interned labels, keeping buffer capacity. Re-interns the
    /// empty label as id 0 (every node's label before its first
    /// relabeling).
    fn reset(&mut self) {
        self.triples.clear();
        self.starts.clear();
        self.starts.push(0);
        self.hashes.clear();
        if self.slots.len() < Self::FIRST_SLOTS {
            self.slots.resize(Self::FIRST_SLOTS, 0);
        }
        self.slots.fill(0);
        self.mask = self.slots.len() - 1;
        let empty = self.intern(&[]);
        debug_assert_eq!(empty, 0, "the empty label is always id 0");
    }

    /// The triples of label `id`.
    #[inline]
    fn get(&self, id: u32) -> &[Triple] {
        let lo = self.starts[id as usize] as usize;
        let hi = self.starts[id as usize + 1] as usize;
        &self.triples[lo..hi]
    }

    /// Returns the id of `label`, interning it if unseen. Same content ⟺
    /// same id (content equality is checked on hash match, so ids are
    /// injective).
    fn intern(&mut self, label: &[Triple]) -> u32 {
        let h = hash_one(&label);
        let mut i = (h as usize) & self.mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                break;
            }
            let id = slot - 1;
            if self.hashes[id as usize] == h && self.get(id) == label {
                return id;
            }
            i = (i + 1) & self.mask;
        }
        let id = self.hashes.len() as u32;
        self.slots[i] = id + 1;
        self.hashes.push(h);
        self.triples.extend_from_slice(label);
        self.starts.push(self.triples.len() as u32);
        // Keep load factor below ~3/4.
        if (self.hashes.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        id
    }

    #[cold]
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(new_len, 0);
        self.mask = new_len - 1;
        for id in 0..self.hashes.len() as u32 {
            let mut i = (self.hashes[id as usize] as usize) & self.mask;
            while self.slots[i] != 0 {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = id + 1;
        }
    }
}

/// How the per-node labels of one iteration are backed: interned ids in
/// the workspace arena (fast engine) or an owned slice (reference engine,
/// whose labels are materialized for step counting anyway).
#[derive(Clone, Copy)]
enum LabelsRef<'a> {
    Interned {
        interner: &'a LabelInterner,
        ids: &'a [u32],
    },
    Owned(&'a [Label]),
}

/// A borrowed view of the classifier state after one iteration — what a
/// [`RecordSink`] sees. Everything is exposed without allocation; the
/// materializing accessors ([`IterationView::to_partition`],
/// [`IterationView::to_labels`]) are for sinks that choose to pay for
/// owned copies.
#[derive(Clone, Copy)]
pub struct IterationView<'a> {
    classes: &'a [u32],
    prev_classes: &'a [u32],
    num_classes: u32,
    reps: &'a [NodeId],
    labels: LabelsRef<'a>,
}

impl IterationView<'_> {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when the node set is empty (never constructed; API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Class of node `v` after this iteration (1-based).
    pub fn class_of(&self, v: NodeId) -> u32 {
        self.classes[v as usize]
    }

    /// Class of node `v` *before* this iteration — the `oldClass` the
    /// canonical lists record per representative.
    pub fn prev_class_of(&self, v: NodeId) -> u32 {
        self.prev_classes[v as usize]
    }

    /// Number of classes after this iteration.
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// Representative of class `k` (1-based).
    pub fn rep(&self, k: u32) -> NodeId {
        self.reps[(k - 1) as usize]
    }

    /// The label triples node `v` acquired this iteration (`≺_hist`-sorted).
    pub fn label_triples(&self, v: NodeId) -> &[Triple] {
        match &self.labels {
            LabelsRef::Interned { interner, ids } => interner.get(ids[v as usize]),
            LabelsRef::Owned(labels) => labels[v as usize].triples(),
        }
    }

    /// Materializes the partition after this iteration (allocates).
    pub fn to_partition(&self) -> Partition {
        Partition::from_parts(self.classes.to_vec(), self.num_classes, self.reps.to_vec())
    }

    /// Materializes every node's label (allocates).
    pub fn to_labels(&self) -> Vec<Label> {
        (0..self.classes.len())
            .map(|v| Label::from_triples(self.label_triples(v as NodeId).to_vec()))
            .collect()
    }
}

/// Receives each classifier iteration as it completes, instead of the old
/// eager `Vec<IterationRecord>`. Implementations choose what to retain —
/// from everything ([`FullRecords`]) down to nothing (`()`).
pub trait RecordSink {
    /// Called once per iteration (1-based), including the exit iteration.
    fn record(&mut self, iteration: usize, view: IterationView<'_>);
}

/// Discards every record — the pure-decision path ([`summarize`] /
/// campaign feasibility sweeps).
impl RecordSink for () {
    fn record(&mut self, _iteration: usize, _view: IterationView<'_>) {}
}

/// Materializes every [`IterationRecord`] — the classic
/// [`classify`](crate::classify) behaviour.
#[derive(Debug, Default)]
pub struct FullRecords {
    /// The records, `records[i-1]` for iteration `i`.
    pub records: Vec<IterationRecord>,
}

impl RecordSink for FullRecords {
    fn record(&mut self, _iteration: usize, view: IterationView<'_>) {
        self.records.push(IterationRecord {
            labels: view.to_labels(),
            partition: view.to_partition(),
        });
    }
}

/// Keeps only the final iteration's partition — enough for infeasibility
/// explanation and leader identification without per-node label storage.
/// The class/rep buffers are reused across iterations (each overwrite is
/// an `O(n)` copy into retained capacity, not a fresh allocation); the
/// [`Partition`] is materialized once, on demand.
#[derive(Debug, Default)]
pub struct FinalOnly {
    classes: Vec<u32>,
    reps: Vec<NodeId>,
    num_classes: u32,
    recorded: bool,
}

impl FinalOnly {
    /// The partition after the last recorded iteration, if any iteration
    /// ran.
    pub fn into_partition(self) -> Option<Partition> {
        self.recorded
            .then(|| Partition::from_parts(self.classes, self.num_classes, self.reps))
    }
}

impl RecordSink for FinalOnly {
    fn record(&mut self, _iteration: usize, view: IterationView<'_>) {
        self.classes.clear();
        self.classes.extend_from_slice(view.classes);
        self.reps.clear();
        self.reps.extend_from_slice(view.reps);
        self.num_classes = view.num_classes;
        self.recorded = true;
    }
}

/// Streams the canonical-list compilation: per iteration it extracts one
/// [`ListEntry`] per class *representative* (old class + label), which is
/// exactly what the lists `L_2 … L_{T+1}` hard-code — so a
/// `CanonicalSchedule` can be compiled without ever materializing per-node
/// records. Memory is `O(Σ numClasses_j)` instead of `O(n · T)`.
#[derive(Debug, Default)]
pub struct ListsSink {
    entries: Vec<Vec<ListEntry>>,
}

impl RecordSink for ListsSink {
    fn record(&mut self, _iteration: usize, view: IterationView<'_>) {
        let entries = (1..=view.num_classes())
            .map(|k| {
                let rep = view.rep(k);
                ListEntry {
                    old_class: view.prev_class_of(rep),
                    label: Label::from_triples(view.label_triples(rep).to_vec()),
                }
            })
            .collect();
        self.entries.push(entries);
    }
}

impl ListsSink {
    /// Compiles the streamed entries into [`CanonicalLists`], identical to
    /// [`CanonicalLists::from_outcome`] on the same run: `L_1` is the
    /// fixed `(1, null)` level, `L_j` (for `2 ≤ j ≤ T`) is iteration
    /// `j−1`'s entry list, `L_{T+1}` terminates, and the would-be final
    /// entries come from the exit iteration.
    pub fn into_lists(mut self, sigma: u64, leader_class: Option<u32>) -> CanonicalLists {
        let t = self.entries.len();
        assert!(t >= 1, "Classifier always runs at least one iteration");
        let final_entries = self.entries.pop().expect("t >= 1");
        let mut levels: Vec<Level> = Vec::with_capacity(t + 1);
        levels.push(Level::Blocks(vec![ListEntry {
            old_class: 1,
            label: Label::empty(),
        }]));
        levels.extend(self.entries.into_iter().map(Level::Blocks));
        levels.push(Level::Terminate);
        CanonicalLists {
            sigma,
            levels,
            final_entries,
            leader_class,
        }
    }
}

/// The lean result of a streamed classification — everything the decision
/// (and a campaign cell) needs, in a few machine words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassifySummary {
    /// `true` = "Yes" (leader election feasible), `false` = "No".
    pub feasible: bool,
    /// Number of iterations executed (the exit iteration `T`).
    pub iterations: usize,
    /// Classes in the final partition.
    pub num_classes: u32,
    /// The leader class `m̂` (smallest singleton), when feasible.
    pub leader_class: Option<u32>,
    /// The predicted leader: the representative of the leader class.
    pub leader: Option<NodeId>,
    /// Label computations performed across the run. For the fast engine
    /// this is the incremental worklist's total (≤ `n · T`, and far below
    /// it when refinement is local); the reference engine always relabels
    /// all `n` per iteration.
    pub relabels: u64,
    /// Elementary-step counters (reference engine only; zeros for fast).
    pub cost: Cost,
    /// The engine that produced this summary.
    pub engine: Engine,
}

/// Reusable classifier state for back-to-back classifications.
///
/// Create one per worker thread, then call
/// [`classify_in`](ClassifierWorkspace::classify_in) /
/// [`summarize_in`](ClassifierWorkspace::summarize_in) /
/// [`classify_with_sink`](ClassifierWorkspace::classify_with_sink) as many
/// times as needed — each call resets and recycles every internal buffer
/// (interner arena, class double-buffer, refine table, worklist, scratch),
/// so a warmed-up workspace classifies without allocation on the fast
/// path. Results are pinned bit-identical to fresh one-shot runs
/// (`tests/classifier_reuse.rs`).
#[derive(Default)]
pub struct ClassifierWorkspace {
    state: RefState,
    interner: LabelInterner,
    /// Interned label id per node (fast engine).
    label_id: Vec<u32>,
    /// Worklist: nodes whose label must be recomputed this iteration.
    dirty: Vec<bool>,
    /// Persistent refine table keyed on `(old class, label id)`.
    table: FxHashMap<(u32, u32), u32>,
    /// Sort scratch for one node's `(class, block-round)` pairs.
    pairs: Vec<(u32, u64)>,
    /// Triple scratch for one node's merged label.
    scratch: Vec<Triple>,
    /// Class sizes of the current partition (recomputed per iteration).
    sizes: Vec<u32>,
}

impl std::fmt::Debug for ClassifierWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassifierWorkspace")
            .field("nodes", &self.label_id.len())
            .field("interned_labels", &self.interner.hashes.len())
            .finish()
    }
}

impl ClassifierWorkspace {
    /// An empty workspace; buffers are dimensioned lazily by the first run.
    pub fn new() -> ClassifierWorkspace {
        ClassifierWorkspace::default()
    }

    /// Approximate footprint of the workspace's backing buffers in bytes
    /// (capacities, not lengths — the high-water mark across every
    /// classification this workspace has run; the refine table is estimated
    /// from its capacity). Feeds the campaign `mem_hw` column.
    pub fn mem_bytes(&self) -> u64 {
        fn plane<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        self.interner.mem_bytes()
            + plane(&self.state.classes)
            + plane(&self.state.prev)
            + plane(&self.state.reps)
            + plane(&self.label_id)
            + plane(&self.dirty)
            + plane(&self.pairs)
            + plane(&self.scratch)
            + plane(&self.sizes)
            + (self.table.capacity() * (std::mem::size_of::<((u32, u32), u32)>() + 1)) as u64
    }

    fn reset_for(&mut self, n: usize) {
        self.state.reset(n);
        self.interner.reset();
        self.label_id.clear();
        self.label_id.resize(n, 0); // id 0 = empty label
        self.dirty.clear();
        self.dirty.resize(n, true); // iteration 1 relabels everyone
        self.table.clear();
        self.sizes.clear();
    }

    /// Runs `Classifier` with the chosen engine, offering each iteration
    /// to `sink`, and returns the lean summary. This is the single
    /// classification loop behind every public entry point
    /// ([`crate::classify`] = fast engine + [`FullRecords`]).
    pub fn classify_with_sink<S: RecordSink>(
        &mut self,
        config: &Configuration,
        engine: Engine,
        sink: &mut S,
    ) -> ClassifySummary {
        match engine {
            Engine::Fast => self.classify_fast(config, sink),
            Engine::Reference => self.classify_reference(config, sink),
        }
    }

    /// [`ClassifierWorkspace::classify_with_sink`] with a [`FullRecords`]
    /// sink, packaged as the classic [`Outcome`] — the drop-in recycling
    /// variant of [`crate::classify_with`].
    pub fn classify_in(&mut self, config: &Configuration, engine: Engine) -> Outcome {
        let mut sink = FullRecords::default();
        let summary = self.classify_with_sink(config, engine, &mut sink);
        Outcome {
            feasible: summary.feasible,
            iterations: summary.iterations,
            records: sink.records,
            cost: summary.cost,
            engine,
        }
    }

    /// Pure decision through the fast engine: no records are retained at
    /// all. The campaign classify phase routes every run through this.
    pub fn summarize_in(&mut self, config: &Configuration) -> ClassifySummary {
        self.classify_with_sink(config, Engine::Fast, &mut ())
    }

    /// The incremental fast engine: interned labels, double-buffered
    /// refine, dirty-neighbourhood worklist.
    fn classify_fast<S: RecordSink>(
        &mut self,
        config: &Configuration,
        sink: &mut S,
    ) -> ClassifySummary {
        let n = config.size();
        self.reset_for(n);
        let csr = config.csr();
        let sigma = config.span();
        let max_iterations = n.div_ceil(2);
        let mut relabels = 0u64;

        for iteration in 1..=max_iterations {
            let old_count = self.state.num_classes;

            // 1. Labels — only for nodes whose neighbourhood changed class
            //    last pass (everyone, in iteration 1). A clean node's
            //    interned id still denotes exactly the label it would
            //    recompute, because ids are stable for the whole run.
            for v in 0..n {
                if !self.dirty[v] {
                    continue;
                }
                relabels += 1;
                node_triples_into(
                    config,
                    sigma,
                    &self.state.classes,
                    v as NodeId,
                    &mut self.pairs,
                    &mut self.scratch,
                );
                self.label_id[v] = self.interner.intern(&self.scratch);
            }

            // 2. Refine on (old class, label id) — two-word keys through
            //    the persistent table.
            let label_id = &self.label_id;
            refine_fast_by(&mut self.state, |v| label_id[v], &mut self.table);

            // 3. Sizes, leader, sink, exit — the epilogue shared with the
            //    reference engine.
            if let Some(summary) = iteration_epilogue(
                &self.state,
                &mut self.sizes,
                LabelsRef::Interned {
                    interner: &self.interner,
                    ids: &self.label_id,
                },
                sink,
                iteration,
                old_count,
                relabels,
                Cost::default(),
                Engine::Fast,
            ) {
                return summary;
            }

            // 4. Next worklist: nodes touched by a class that split.
            self.dirty.fill(false);
            for v in 0..n {
                if self.state.classes[v] != self.state.prev[v] {
                    self.dirty[v] = true;
                    for &w in csr.neighbors(v as NodeId) {
                        self.dirty[w as usize] = true;
                    }
                }
            }
        }
        unreachable!(
            "Lemma 3.4: Classifier must exit within ⌈n/2⌉ = {max_iterations} iterations (n = {n})"
        )
    }

    /// The paper-literal reference engine through the same sink interface.
    /// No worklist, no interner — its labels are materialized and its
    /// elementary steps counted, exactly as Lemma 3.5 measures them; only
    /// the refine state buffers are recycled.
    fn classify_reference<S: RecordSink>(
        &mut self,
        config: &Configuration,
        sink: &mut S,
    ) -> ClassifySummary {
        let n = config.size();
        self.reset_for(n);
        let max_iterations = n.div_ceil(2);
        let mut cost = Cost::default();
        let mut relabels = 0u64;

        for iteration in 1..=max_iterations {
            let old_count = self.state.num_classes;

            let (labels, steps) = labels_reference_in(config, &self.state.classes);
            cost.label_steps += steps;
            relabels += n as u64;

            cost.refine_steps += refine_reference(&mut self.state, &labels);

            if let Some(summary) = iteration_epilogue(
                &self.state,
                &mut self.sizes,
                LabelsRef::Owned(&labels),
                sink,
                iteration,
                old_count,
                relabels,
                cost,
                Engine::Reference,
            ) {
                return summary;
            }
        }
        unreachable!(
            "Lemma 3.4: Classifier must exit within ⌈n/2⌉ = {max_iterations} iterations (n = {n})"
        )
    }
}

/// The post-refine tail of one iteration, shared by both engines: the
/// class-size histogram, leader detection (smallest singleton), the sink
/// offer, and — when an exit predicate fires (singleton ⇒ feasible,
/// unchanged class count ⇒ fixed point ⇒ infeasible) — the summary.
/// Living in one place, it pins the two engines' exit and leader
/// semantics together by construction.
#[allow(clippy::too_many_arguments)]
fn iteration_epilogue<S: RecordSink>(
    state: &RefState,
    sizes: &mut Vec<u32>,
    labels: LabelsRef<'_>,
    sink: &mut S,
    iteration: usize,
    old_count: u32,
    relabels: u64,
    cost: Cost,
    engine: Engine,
) -> Option<ClassifySummary> {
    let num_classes = state.num_classes;
    sizes.clear();
    sizes.resize(num_classes as usize, 0);
    for &c in &state.classes {
        sizes[(c - 1) as usize] += 1;
    }
    let leader_class = sizes.iter().position(|&s| s == 1).map(|i| i as u32 + 1);

    sink.record(
        iteration,
        IterationView {
            classes: &state.classes,
            prev_classes: &state.prev,
            num_classes,
            reps: &state.reps,
            labels,
        },
    );

    if leader_class.is_some() || num_classes == old_count {
        Some(ClassifySummary {
            feasible: leader_class.is_some(),
            iterations: iteration,
            num_classes,
            leader_class,
            leader: leader_class.map(|k| state.reps[(k - 1) as usize]),
            relabels,
            cost,
            engine,
        })
    } else {
        None
    }
}

/// One-shot lean decision: a fresh workspace, the fast engine, no records.
/// For repeated classification hold a [`ClassifierWorkspace`] and call
/// [`summarize_in`](ClassifierWorkspace::summarize_in) instead.
pub fn summarize(config: &Configuration) -> ClassifySummary {
    ClassifierWorkspace::new().summarize_in(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{classify_with, Engine};
    use radio_graph::{families, generators, tags, Configuration};

    fn assert_outcomes_identical(a: &Outcome, b: &Outcome, what: &str) {
        assert_eq!(a.feasible, b.feasible, "{what}: feasible");
        assert_eq!(a.iterations, b.iterations, "{what}: iterations");
        assert_eq!(a.records.len(), b.records.len(), "{what}: record count");
        for (i, (ra, rb)) in a.records.iter().zip(&b.records).enumerate() {
            assert_eq!(ra.partition, rb.partition, "{what}: partition iter {i}");
            assert_eq!(ra.labels, rb.labels, "{what}: labels iter {i}");
        }
    }

    #[test]
    fn interner_ids_are_injective_and_stable() {
        let mut interner = LabelInterner::default();
        interner.reset();
        let t = |a, b| Triple::new(a, b, crate::triple::Multi::One);
        let a = interner.intern(&[t(1, 2)]);
        let b = interner.intern(&[t(1, 3)]);
        let c = interner.intern(&[t(1, 2), t(2, 5)]);
        assert_eq!(interner.intern(&[t(1, 2)]), a);
        assert_eq!(interner.intern(&[t(1, 3)]), b);
        assert_eq!(interner.intern(&[t(1, 2), t(2, 5)]), c);
        assert_eq!(interner.intern(&[]), 0);
        assert!(a != b && b != c && a != c);
        assert_eq!(interner.get(a), &[t(1, 2)]);
        assert_eq!(interner.get(c), &[t(1, 2), t(2, 5)]);
    }

    #[test]
    fn interner_survives_growth() {
        let mut interner = LabelInterner::default();
        interner.reset();
        let mut ids = Vec::new();
        for i in 0..2000u64 {
            ids.push(interner.intern(&[Triple::new(
                (i % 97) as u32 + 1,
                i,
                crate::triple::Multi::Star,
            )]));
        }
        // re-intern everything: same ids back
        for (i, &id) in ids.iter().enumerate() {
            let i = i as u64;
            assert_eq!(
                interner.intern(&[Triple::new(
                    (i % 97) as u32 + 1,
                    i,
                    crate::triple::Multi::Star
                )]),
                id
            );
        }
    }

    #[test]
    fn workspace_fast_matches_eager_classify_on_families() {
        let mut ws = ClassifierWorkspace::new();
        for config in [
            families::h_m(3),
            families::s_m(2),
            families::g_m(4),
            Configuration::new(generators::path(1), vec![0]).unwrap(),
            Configuration::with_uniform_tags(generators::cycle(5), 0).unwrap(),
        ] {
            let reused = ws.classify_in(&config, Engine::Fast);
            let eager = classify_with(&config, Engine::Fast);
            assert_outcomes_identical(&reused, &eager, &format!("{config}"));
        }
    }

    #[test]
    fn workspace_reference_matches_eager_reference() {
        let mut ws = ClassifierWorkspace::new();
        for config in [families::h_m(2), families::g_m(3), families::s_m(3)] {
            let reused = ws.classify_in(&config, Engine::Reference);
            let eager = classify_with(&config, Engine::Reference);
            assert_outcomes_identical(&reused, &eager, &format!("{config}"));
            assert_eq!(reused.cost, eager.cost, "{config}: step counters");
        }
    }

    #[test]
    fn summary_agrees_with_full_outcome_across_random_configs() {
        use radio_util::rng::rng_from;
        let mut rng = rng_from(42);
        let mut ws = ClassifierWorkspace::new();
        for trial in 0..40 {
            let n = 2 + (trial % 13);
            let g = generators::gnp_connected(n, 0.35, &mut rng);
            let config = tags::random_in_span(g, 5, &mut rng);
            let summary = ws.summarize_in(&config);
            let outcome = classify_with(&config, Engine::Fast);
            assert_eq!(summary.feasible, outcome.feasible, "{config}");
            assert_eq!(summary.iterations, outcome.iterations, "{config}");
            assert_eq!(
                summary.num_classes,
                outcome.final_partition().num_classes(),
                "{config}"
            );
            assert_eq!(summary.leader_class, outcome.leader_class(), "{config}");
            let predicted = outcome
                .leader_class()
                .map(|k| outcome.final_partition().rep(k));
            assert_eq!(summary.leader, predicted, "{config}");
        }
    }

    #[test]
    fn incremental_worklist_relabels_fewer_nodes_on_local_refinement() {
        // G_m refines one "ring" at a time: after the first iterations the
        // frontier is local, so the worklist must be well below n per
        // iteration.
        let config = families::g_m(8);
        let n = config.size() as u64;
        let mut ws = ClassifierWorkspace::new();
        let summary = ws.summarize_in(&config);
        assert!(summary.iterations >= 8);
        let full_relabels = n * summary.iterations as u64;
        assert!(
            summary.relabels < full_relabels,
            "worklist did no work: {} vs full {}",
            summary.relabels,
            full_relabels
        );
    }

    #[test]
    fn lists_sink_matches_from_outcome() {
        use radio_util::rng::rng_from;
        let mut rng = rng_from(9);
        let mut ws = ClassifierWorkspace::new();
        let mut configs = vec![
            families::h_m(2),
            families::s_m(2),
            families::g_m(3),
            Configuration::new(generators::path(1), vec![0]).unwrap(),
        ];
        for _ in 0..10 {
            let g = generators::gnp_connected(7, 0.4, &mut rng);
            configs.push(tags::random_in_span(g, 3, &mut rng));
        }
        for config in configs {
            let mut sink = ListsSink::default();
            let summary = ws.classify_with_sink(&config, Engine::Fast, &mut sink);
            let streamed = sink.into_lists(config.span(), summary.leader_class);
            let outcome = classify_with(&config, Engine::Fast);
            let eager = CanonicalLists::from_outcome(&config, &outcome);
            assert_eq!(streamed, eager, "{config}");
        }
    }

    #[test]
    fn final_only_sink_keeps_the_final_partition() {
        let config = families::g_m(3);
        let mut ws = ClassifierWorkspace::new();
        let mut sink = FinalOnly::default();
        let summary = ws.classify_with_sink(&config, Engine::Fast, &mut sink);
        let outcome = classify_with(&config, Engine::Fast);
        assert_eq!(
            sink.into_partition().as_ref(),
            Some(outcome.final_partition())
        );
        assert_eq!(summary.iterations, outcome.iterations);
    }

    #[test]
    fn reuse_across_shrinking_and_growing_sizes() {
        // grow, shrink, grow — recycled buffers must never leak state
        let mut ws = ClassifierWorkspace::new();
        let configs = [
            families::g_m(6), // n = 33
            families::h_m(1), // n = 4
            families::g_m(4), // n = 21
            families::s_m(5), // n = 4
        ];
        for _ in 0..2 {
            for config in &configs {
                for engine in [Engine::Fast, Engine::Reference] {
                    let reused = ws.classify_in(config, engine);
                    let fresh = classify_with(config, engine);
                    assert_outcomes_identical(&reused, &fresh, &format!("{config} {engine:?}"));
                }
            }
        }
    }

    #[test]
    fn summarize_one_shot_matches_workspace() {
        let config = families::h_m(4);
        let a = summarize(&config);
        let b = ClassifierWorkspace::new().summarize_in(&config);
        assert_eq!(a, b);
        assert!(a.feasible);
        assert_eq!(a.leader, Some(0));
    }
}
