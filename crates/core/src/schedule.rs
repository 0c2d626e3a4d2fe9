//! The canonical schedule: phase geometry plus the hard-coded lists.
//!
//! The canonical DRIP (paper Section 3.3.1) is parameterized entirely by
//! the configuration-specific data compiled here:
//!
//! * the span `σ`,
//! * the lists `L_1 … L_{T+1}` ([`radio_classifier::CanonicalLists`]),
//! * the derived phase geometry: phase `P_j` (for `j ≤ T`) consists of
//!   `numClasses_j` transmission blocks of `2σ+1` rounds followed by `σ`
//!   listening rounds, so it ends at local round
//!   `r_j = r_{j-1} + numClasses_j·(2σ+1) + σ`, with `r_0 = 0`. Every node
//!   terminates in local round `r_T + 1`.
//!
//! The other half of this module is **phase matching**: the procedure by
//! which a node (or the decision function replaying a history) determines
//! its transmission block for phase `j` by comparing its recorded history
//! of phase `P_{j-1}` against the `L_j` entries. A history matches entry
//! `k = (oldClass_k, label_k)` iff the node transmitted in block
//! `oldClass_k` of the previous phase and the non-silent rounds of the
//! previous phase's block region are exactly the triples of `label_k`.

use std::sync::Arc;

use radio_classifier::{
    CanonicalLists, ClassifierWorkspace, ClassifySummary, Engine, Label, Level, ListEntry,
    ListsSink, Multi, Outcome, Triple,
};
use radio_graph::Configuration;
use radio_sim::Obs;

/// The complete dedicated knowledge of the canonical DRIP for one
/// configuration, plus derived geometry.
#[derive(Debug, Clone)]
pub struct CanonicalSchedule {
    /// Span of the configuration.
    pub sigma: u64,
    /// The compiled lists.
    pub lists: CanonicalLists,
    /// `phase_end[j]` = `r_j` for `j = 0..=T` (`phase_end[0] = 0`).
    pub phase_end: Vec<u64>,
    /// `block_region[j-1]` = the length of phase `j`'s block region,
    /// `numClasses_j·(2σ+1)` (saturating): the rounds whose observations
    /// are matched.
    block_region: Vec<u64>,
    /// The one matcher: phase `j < T`'s judged entries (see
    /// [`CanonicalSchedule::entries_after_phase`]), and for phase `T` the
    /// leader class's entry alone.
    matcher: MatchAutomaton,
}

impl CanonicalSchedule {
    /// Runs `Classifier` (fast engine) and compiles the schedule. Works for
    /// infeasible configurations too — the canonical DRIP is well-defined
    /// there; only the leader class is absent.
    ///
    /// This eager form materializes the full [`Outcome`] (every
    /// iteration's labels and partition). Callers that only need the
    /// compiled algorithm — the election pipeline, batch sweeps — use
    /// [`CanonicalSchedule::build_in`], which streams the list entries
    /// straight out of a recycled classifier workspace instead.
    pub fn build(config: &Configuration) -> (Outcome, CanonicalSchedule) {
        let outcome = radio_classifier::classify(config);
        let schedule = CanonicalSchedule::from_outcome(config, &outcome);
        (outcome, schedule)
    }

    /// [`CanonicalSchedule::build`] through a caller-provided
    /// [`ClassifierWorkspace`]: the classifier runs incrementally on
    /// recycled buffers and the canonical lists are compiled *while it
    /// iterates* (via [`ListsSink`]) — per-representative entries only,
    /// never per-node records. Returns the lean [`ClassifySummary`] in
    /// place of the eager outcome. The compiled schedule is identical to
    /// [`CanonicalSchedule::build`]'s.
    pub fn build_in(
        workspace: &mut ClassifierWorkspace,
        config: &Configuration,
    ) -> (ClassifySummary, CanonicalSchedule) {
        let mut sink = ListsSink::default();
        let summary = workspace.classify_with_sink(config, Engine::Fast, &mut sink);
        let lists = sink.into_lists(config.span(), summary.leader_class);
        (summary, CanonicalSchedule::from_lists(lists))
    }

    /// Compiles the schedule from an existing classifier outcome.
    pub fn from_outcome(config: &Configuration, outcome: &Outcome) -> CanonicalSchedule {
        CanonicalSchedule::from_lists(CanonicalLists::from_outcome(config, outcome))
    }

    /// Derives the phase geometry from compiled lists — the single home of
    /// the `r_j = r_{j-1} + numClasses_j·(2σ+1) + σ` arithmetic.
    ///
    /// Round arithmetic saturates at `u64::MAX`: a span σ ≥ 2⁶³ has
    /// rounds past any representable one, and no round budget reaches
    /// them. Every schedule whose rounds fit in `u64` is exact.
    pub fn from_lists(lists: CanonicalLists) -> CanonicalSchedule {
        let sigma = lists.sigma;
        let width = block_width(sigma);
        let mut phase_end = Vec::with_capacity(lists.phases() + 1);
        let mut block_region = Vec::with_capacity(lists.phases());
        phase_end.push(0u64);
        for j in 1..=lists.phases() {
            let region = (lists.level(j).num_blocks() as u64).saturating_mul(width);
            let prev = *phase_end.last().expect("non-empty");
            phase_end.push(prev.saturating_add(region).saturating_add(sigma));
            block_region.push(region);
        }
        let matcher = {
            // Phase T is judged for the leader verdict alone: m̂'s entry,
            // under its own index, or nothing when there is no leader.
            let t = lists.phases();
            let judged: Vec<(u32, &[ListEntry])> = (1..t)
                .map(|j| (0, entries_after(&lists, j)))
                .chain(std::iter::once(match lists.leader_class {
                    Some(m) => (m - 1, &lists.final_entries[m as usize - 1..m as usize]),
                    None => (0, &[][..]),
                }))
                .collect();
            MatchAutomaton::compile(width, &judged)
        };
        CanonicalSchedule {
            sigma,
            lists,
            phase_end,
            block_region,
            matcher,
        }
    }

    /// Number of non-terminate phases `T`.
    pub fn phases(&self) -> usize {
        self.lists.phases()
    }

    /// `r_j`, the local round at which phase `j` ends (`r_0 = 0`).
    pub fn phase_end(&self, j: usize) -> u64 {
        self.phase_end[j]
    }

    /// The local round in which every node terminates: `r_T + 1`.
    pub fn done_local(&self) -> u64 {
        self.phase_end[self.phases()].saturating_add(1)
    }

    /// Rounds per transmission block, `2σ + 1` (saturating).
    pub fn block_width(&self) -> u64 {
        block_width(self.sigma)
    }

    /// Number of transmission blocks of phase `j`.
    pub fn blocks(&self, j: usize) -> u64 {
        self.lists.level(j).num_blocks() as u64
    }

    /// The local round within phase `j` at which a node assigned block
    /// `t_block` transmits: `r_{j-1} + (t_block−1)(2σ+1) + σ + 1`.
    pub fn transmit_round(&self, j: usize, t_block: u32) -> u64 {
        self.phase_end(j - 1)
            .saturating_add((t_block as u64 - 1).saturating_mul(self.block_width()))
            .saturating_add(self.sigma)
            .saturating_add(1)
    }

    /// Quiescence horizon of an on-schedule node (the
    /// [`DripNode::quiet_until`](radio_sim::DripNode::quiet_until)
    /// contract): given that the node is about to decide local round `i`,
    /// sits in phase `phase`, and has its transmission pinned at local
    /// round `transmit_at`, returns the next local round at which it may
    /// act — transmit, re-derive its block at a phase entry, or terminate.
    /// `None` when round `i` itself is such a round (no quiet claim).
    ///
    /// The schedule knows its entire transmission timetable, so within a
    /// phase the horizon is exact: the node's own `transmit_at` if still
    /// ahead, otherwise the first round of the next phase (where the block
    /// for that phase is re-derived from the just-recorded history).
    pub fn quiet_horizon(&self, i: u64, phase: usize, transmit_at: u64) -> Option<u64> {
        if i > self.phase_end(self.phases()) {
            return None; // terminates this round
        }
        if i > self.phase_end(phase) {
            return None; // phase-entry round: matching must run
        }
        let next_act = if transmit_at >= i {
            transmit_at
        } else {
            self.phase_end(phase).saturating_add(1)
        };
        (next_act > i).then_some(next_act)
    }

    /// Extracts the triples a history realized during phase `j`'s block
    /// region: each non-silent entry at local round
    /// `t = r_{j-1} + (a−1)(2σ+1) + b` becomes `(a, b, c)` with `c = 1` for
    /// a message and `∗` for a collision. Rounds beyond the block region
    /// (the trailing `σ` listening rounds) are ignored, as in the paper.
    pub fn observed_triples(&self, history: radio_sim::HistoryView<'_>, j: usize) -> Vec<Triple> {
        let start = self.phase_end(j - 1); // r_{j-1}; phase rounds start at +1
        let width = self.block_width();
        let block_region = self.blocks(j).saturating_mul(width);
        let mut triples = Vec::new();
        for off in 1..=block_region {
            let t = start.saturating_add(off) as usize;
            let obs = match history.get(t) {
                Some(o) => o,
                None => break,
            };
            let c = match obs {
                radio_sim::Obs::Silence => continue,
                radio_sim::Obs::Heard(_) => Multi::One,
                // Noise only arises off-model; treat it like collision
                // noise for matching purposes (the node goes off-schedule
                // anyway on any foreign channel).
                radio_sim::Obs::Collision | radio_sim::Obs::Noise => Multi::Star,
            };
            let a = ((off - 1) / width + 1) as u32;
            let b = (off - 1) % width + 1;
            triples.push(Triple::new(a, b, c));
        }
        triples
    }

    /// Matches a node's phase-`(j-1)` history against the entries of
    /// `L_j`, given the block `prev_block` it transmitted in during phase
    /// `j-1`. Returns the 1-based index of the unique matching entry.
    ///
    /// `entries` is `L_j`'s entry list (or the final would-be list when the
    /// decision function resolves the leader class).
    pub fn match_entries(
        &self,
        history: radio_sim::HistoryView<'_>,
        j_prev: usize,
        prev_block: u32,
        entries: &[ListEntry],
    ) -> MatchResult {
        let observed = self.observed_triples(history, j_prev);
        let mut found: Option<u32> = None;
        for (idx, entry) in entries.iter().enumerate() {
            if entry.old_class != prev_block {
                continue;
            }
            if labels_equal(&observed, &entry.label) {
                match found {
                    None => found = Some(idx as u32 + 1),
                    Some(first) => {
                        return MatchResult::Ambiguous {
                            first,
                            second: idx as u32 + 1,
                        }
                    }
                }
            }
        }
        match found {
            Some(k) => MatchResult::Unique(k),
            None => MatchResult::NoMatch,
        }
    }

    /// The entries phase `j`'s observations are judged against at the
    /// phase boundary: `L_{j+1}`'s for `j < T`, the final would-be list's
    /// for `j = T`.
    pub fn entries_after_phase(&self, j: usize) -> &[ListEntry] {
        entries_after(&self.lists, j)
    }

    /// The precompiled matcher — the streaming twin of
    /// [`CanonicalSchedule::match_entries`]: a node starts a
    /// [`MatchCursor`] at each phase entry, feeds it the key of every
    /// non-silent observation as it lands
    /// ([`CanonicalSchedule::observation_key`]) and resolves it at the
    /// boundary, never re-reading its history.
    ///
    /// For phases `j < T` it resolves exactly like `match_entries` over
    /// [`CanonicalSchedule::entries_after_phase`]`(j)`. Phase `T` holds
    /// only the leader class `m̂`'s entry, the one final class a verdict
    /// reads: a cursor there resolves to `Unique(m̂)` exactly when
    /// `match_entries` does, and to `NoMatch` otherwise (always, on an
    /// infeasible schedule).
    pub fn matcher(&self) -> &MatchAutomaton {
        &self.matcher
    }

    /// The match key of observation `obs` at local round `t` of phase
    /// `j`, or `None` when it is silence or lies outside the phase's block
    /// region (the wake round, an earlier phase, the trailing `σ`
    /// listening rounds). This is the key of the triple
    /// [`CanonicalSchedule::observed_triples`] extracts for that round
    /// (see [`CanonicalSchedule::triple_key`]), computed from the
    /// phase-local offset directly, without dividing it into `(a, b)`.
    #[inline]
    pub fn observation_key(&self, j: usize, t: u64, obs: Obs) -> Option<MatchKey> {
        let star = match obs {
            Obs::Silence => return None,
            Obs::Heard(_) => 0,
            // Noise only arises off-model; it matches like a collision, as
            // in `observed_triples`.
            Obs::Collision | Obs::Noise => 1,
        };
        let off = t.checked_sub(self.phase_end[j - 1])?;
        if off == 0 || off > self.block_region[j - 1] {
            return None;
        }
        Some(MatchKey::from(off) * 2 + star)
    }

    /// The match key of label triple `(a, b, c)`: its phase-local offset
    /// `(a−1)(2σ+1) + b`, doubled, plus 1 for `c = ∗`. Since `b` ranges
    /// over `1 ..= 2σ+1`, offsets order triples by `(a, b)`, and the
    /// doubling leaves room for `1 ≺ ∗`: keys order and compare exactly
    /// like `≺_hist`. The width is the geometry's saturating `2σ+1`; a
    /// doubled offset can pass 2⁶⁴ in a run that completes, so keys are
    /// `u128`.
    pub fn triple_key(&self, triple: &Triple) -> MatchKey {
        triple_key(self.block_width(), triple)
    }
}

/// The entries phase `j` of `lists` is judged against (see
/// [`CanonicalSchedule::entries_after_phase`]).
fn entries_after(lists: &CanonicalLists, j: usize) -> &[ListEntry] {
    if j == lists.phases() {
        &lists.final_entries
    } else {
        match lists.level(j + 1) {
            Level::Blocks(entries) => entries,
            Level::Terminate => unreachable!("levels 1..=T are block levels"),
        }
    }
}

/// [`CanonicalSchedule::triple_key`] under block width `width`.
fn triple_key(width: u64, triple: &Triple) -> MatchKey {
    let off = (MatchKey::from(triple.a).saturating_sub(1)) * MatchKey::from(width)
        + MatchKey::from(triple.b);
    off * 2 + MatchKey::from(triple.c == Multi::Star)
}

/// The integer a matcher edge is keyed by: one observation, or one label
/// triple (see [`CanonicalSchedule::triple_key`]).
pub type MatchKey = u128;

/// Result of matching a phase history against list entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchResult {
    /// Exactly one entry matched (the on-configuration guarantee of
    /// Lemma 3.8).
    Unique(u32),
    /// No entry matched — the node's history is off-schedule (running the
    /// dedicated algorithm on a foreign configuration).
    NoMatch,
    /// Two entries matched — impossible on-configuration; indicates a
    /// foreign configuration or a bug.
    Ambiguous {
        /// First matching entry (1-based).
        first: u32,
        /// Second matching entry (1-based).
        second: u32,
    },
}

/// A precompiled trie matcher over every phase's judged entries, the
/// streaming equivalent of [`CanonicalSchedule::match_entries`].
///
/// A schedule judges phases `1 … T−1` against all of `L_{j+1}`, since
/// resolving them gives a node its next block, but phase `T` against the
/// leader class `m̂`'s entry alone (see [`CanonicalSchedule::matcher`]).
/// Within one list the `(old_class, label)` pairs are pairwise distinct,
/// so that one path decides the verdict, and the automaton does not grow
/// with the number of final classes.
///
/// Each phase's entries sharing an `old_class` share a root; each root's
/// trie follows the entry labels key by key. A phase's non-silent
/// observations land in increasing local rounds, so their keys arrive in
/// ascending order — the `≺_hist` order label triples are stored in —
/// and sequence equality against a label is a root-to-leaf walk: advance
/// the cursor once per observation, then read the terminal entries at the
/// final state. A node therefore needs only a cursor (one `u32`) of
/// per-phase match state instead of its recorded history, which is what
/// lets million-node elections run with length-only histories.
///
/// The states of every phase form one forest stored in offset-indexed
/// arrays, in breadth-first order: each state's outgoing edges are one
/// contiguous slice of sorted keys, and edge `e` leads to state
/// `root_count + e`, so an edge stores nothing but its key. Compiling
/// sorts the entries by `(phase, old_class, label)` and lays the forest
/// out one depth at a time, with no per-state allocation.
#[derive(Debug, Clone, Default)]
pub struct MatchAutomaton {
    /// Phase `j`'s root table is `roots[root_start[j-1]..root_start[j]]`.
    root_start: Vec<u32>,
    /// Per phase, per `old_class`: the root state (`NO_STATE` when no
    /// entry of that phase has that class).
    roots: Vec<u32>,
    /// Number of root states; edge `e` leads to state `root_count + e`.
    root_count: u32,
    /// State `s`'s edges are `child_start[s]..child_start[s + 1]`.
    child_start: Vec<u32>,
    /// Each edge's key; sorted and unique within each state's slice.
    keys: Vec<MatchKey>,
    /// The entries ending at state `s` are
    /// `terminal[term_start[s]..term_start[s + 1]]`.
    term_start: Vec<u32>,
    /// 1-based indices of entries, in entry order within each state.
    terminal: Vec<u32>,
}

/// Sentinel for "no such state": a dead cursor, or an absent root.
const NO_STATE: u32 = u32::MAX;

impl MatchAutomaton {
    /// Builds the forest over `phases[j-1] = (skip, entries)`, the entries
    /// phase `j` is judged against: a window of a list that starts after
    /// its first `skip` entries, so `entries[i]` resolves as entry
    /// `skip + i + 1`. Label triples are keyed under block width `width`.
    pub(crate) fn compile(width: u64, phases: &[(u32, &[ListEntry])]) -> MatchAutomaton {
        let key = |t: &Triple| triple_key(width, t);
        let entry = |(p, i): (u32, u32)| &phases[p as usize].1[i as usize];
        let mut order: Vec<(u32, u32)> =
            Vec::with_capacity(phases.iter().map(|(_, e)| e.len()).sum());
        let mut a = MatchAutomaton::default();
        a.root_start.reserve(phases.len() + 1);
        a.root_start.push(0);
        for (p, (_, entries)) in phases.iter().enumerate() {
            order.extend((0..entries.len() as u32).map(|i| (p as u32, i)));
            let classes = entries.iter().map(|e| e.old_class as usize + 1).max();
            a.roots
                .resize(a.roots.len() + classes.unwrap_or(0), NO_STATE);
            a.root_start.push(a.roots.len() as u32);
        }
        // Entries sharing a phase, a class and a label prefix are then
        // contiguous, shorter labels first, equal labels in entry order.
        order.sort_unstable_by(|&x, &y| {
            let (ex, ey) = (entry(x), entry(y));
            (x.0, ex.old_class)
                .cmp(&(y.0, ey.old_class))
                .then_with(|| {
                    let kx = ex.label.triples().iter().map(key);
                    kx.cmp(ey.label.triples().iter().map(key))
                })
                .then(x.1.cmp(&y.1))
        });

        // Depth 0: one root per (phase, class) run. `groups` holds the
        // runs of entries sharing a state, in state order.
        let mut groups: Vec<(usize, usize)> = Vec::new();
        let mut lo = 0;
        while lo < order.len() {
            let (p, class) = (order[lo].0, entry(order[lo]).old_class);
            let mut hi = lo + 1;
            while hi < order.len() && order[hi].0 == p && entry(order[hi]).old_class == class {
                hi += 1;
            }
            a.roots[a.root_start[p as usize] as usize + class as usize] = groups.len() as u32;
            groups.push((lo, hi));
            lo = hi;
        }
        a.root_count = groups.len() as u32;

        // Each depth's states, in order: first the entries whose label
        // ends here, then one edge (and one next-depth state) per run of
        // equal keys at this depth.
        let mut next = Vec::new();
        let mut depth = 0;
        while !groups.is_empty() {
            next.clear();
            for &(lo, hi) in &groups {
                a.child_start.push(a.keys.len() as u32);
                a.term_start.push(a.terminal.len() as u32);
                let triples = |k: usize| entry(order[k]).label.triples();
                let mut i = lo;
                while i < hi && triples(i).len() == depth {
                    a.terminal
                        .push(phases[order[i].0 as usize].0 + order[i].1 + 1);
                    i += 1;
                }
                while i < hi {
                    let k = key(&triples(i)[depth]);
                    let mut j = i + 1;
                    while j < hi && key(&triples(j)[depth]) == k {
                        j += 1;
                    }
                    a.keys.push(k);
                    next.push((i, j));
                    i = j;
                }
            }
            std::mem::swap(&mut groups, &mut next);
            depth += 1;
        }
        a.child_start.push(a.keys.len() as u32);
        a.term_start.push(a.terminal.len() as u32);
        a
    }

    /// A cursor at phase `phase`'s root for `old_class` — dead from the
    /// start when no entry of that phase has that class (the `prev_block`
    /// filter of [`CanonicalSchedule::match_entries`]).
    pub fn start(&self, phase: usize, old_class: u32) -> MatchCursor {
        let (lo, hi) = (self.root_start[phase - 1], self.root_start[phase]);
        let state = lo
            .checked_add(old_class)
            .filter(|&i| i < hi)
            .map_or(NO_STATE, |i| self.roots[i as usize]);
        MatchCursor { state }
    }
}

/// Incremental match state: one trie position (or dead). `Copy`, so a
/// node's entire per-phase match state is a single word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchCursor {
    state: u32,
}

impl MatchCursor {
    /// The dead cursor: it resolves to `NoMatch` whatever it is fed.
    pub const DEAD: MatchCursor = MatchCursor { state: NO_STATE };

    /// Whether the cursor is dead: it resolves to `NoMatch` whatever it is
    /// fed next, so a caller may skip computing further keys.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.state == NO_STATE
    }

    /// Feeds the key of the next observation. A transition miss kills the
    /// cursor permanently (the observation sequence is not a prefix of any
    /// entry's label).
    #[inline]
    pub fn advance(&mut self, automaton: &MatchAutomaton, key: MatchKey) {
        if self.is_dead() {
            return;
        }
        let s = self.state as usize;
        let lo = automaton.child_start[s] as usize;
        let hi = automaton.child_start[s + 1] as usize;
        self.state = match automaton.keys[lo..hi].binary_search(&key) {
            Ok(i) => automaton.root_count + (lo + i) as u32,
            Err(_) => NO_STATE,
        };
    }

    /// Resolves the match at a phase boundary: the entries terminating at
    /// the current state, reported exactly like
    /// [`CanonicalSchedule::match_entries`] over the entries the automaton
    /// holds for that phase.
    pub fn resolve(&self, automaton: &MatchAutomaton) -> MatchResult {
        if self.is_dead() {
            return MatchResult::NoMatch;
        }
        let s = self.state as usize;
        let ends = automaton.term_start[s] as usize..automaton.term_start[s + 1] as usize;
        match &automaton.terminal[ends] {
            [] => MatchResult::NoMatch,
            [k] => MatchResult::Unique(*k),
            [first, second, ..] => MatchResult::Ambiguous {
                first: *first,
                second: *second,
            },
        }
    }
}

fn labels_equal(observed: &[Triple], label: &Label) -> bool {
    // `observed` is produced in ascending (a, b) order and label triples
    // are ≺_hist-sorted with unique (a, b), so elementwise comparison is
    // exact set comparison.
    observed == label.triples()
}

impl CanonicalSchedule {
    /// Renders the compiled dedicated algorithm as human-readable text:
    /// the phase geometry, every list `L_j` with its entries, and the
    /// leader class — literally *the algorithm* the paper's Section 3.3.1
    /// hard-codes for this configuration.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "canonical DRIP: σ = {}, {} phase(s), every node terminates in local round {}",
            self.sigma,
            self.phases(),
            self.done_local()
        );
        for j in 1..=self.phases() {
            let blocks = self.blocks(j);
            let _ = writeln!(
                out,
                "phase P_{j}: local rounds {}..={} ({} block(s) of {} rounds + {} trailing)",
                self.phase_end(j - 1).saturating_add(1),
                self.phase_end(j),
                blocks,
                self.block_width(),
                self.sigma
            );
            match self.lists.level(j) {
                radio_classifier::Level::Blocks(entries) => {
                    for (k, entry) in entries.iter().enumerate() {
                        let _ = writeln!(
                            out,
                            "  L_{j}[{}] = (oldClass {}, label {})  → transmit in local round {}",
                            k + 1,
                            entry.old_class,
                            entry.label,
                            self.transmit_round(j, k as u32 + 1)
                        );
                    }
                }
                radio_classifier::Level::Terminate => unreachable!("levels 1..=T are blocks"),
            }
        }
        let _ = writeln!(out, "L_{}: terminate", self.phases() + 1);
        match self.lists.leader_class {
            Some(m_hat) => {
                let _ = writeln!(
                    out,
                    "decision f: history landing in final class {m_hat} (of {}) elects itself",
                    self.lists.final_entries.len()
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "decision f: no leader class — configuration infeasible"
                );
            }
        }
        out
    }
}

/// Shared handle used by the factory and the decision function.
pub type SharedSchedule = Arc<CanonicalSchedule>;

/// `2σ + 1`, saturating at `u64::MAX` for σ ≥ 2⁶³.
fn block_width(sigma: u64) -> u64 {
    sigma.saturating_mul(2).saturating_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::families;
    use radio_sim::{History, Msg, Obs};

    fn h2_schedule() -> CanonicalSchedule {
        let c = families::h_m(2);
        CanonicalSchedule::build(&c).1
    }

    #[test]
    fn geometry_of_h_2() {
        // H_2: σ=3, T=1, one block in phase 1:
        // r_1 = 0 + 1·(2·3+1) + 3 = 10; done at 11.
        let s = h2_schedule();
        assert_eq!(s.sigma, 3);
        assert_eq!(s.phases(), 1);
        assert_eq!(s.phase_end(0), 0);
        assert_eq!(s.phase_end(1), 10);
        assert_eq!(s.done_local(), 11);
        assert_eq!(s.blocks(1), 1);
        // block 1 transmit: r_0 + 0 + σ + 1 = 4
        assert_eq!(s.transmit_round(1, 1), 4);
    }

    #[test]
    fn geometry_of_g_2() {
        // G_2: n=9, σ=1. Classifier needs 2 iterations; block counts are
        // 1 then numClasses after iter 1.
        let c = families::g_m(2);
        let (out, s) = CanonicalSchedule::build(&c);
        assert_eq!(s.phases(), out.iterations);
        assert_eq!(s.phase_end(0), 0);
        // phase 1: 1 block of 3 rounds + 1 trailing = 4
        assert_eq!(s.phase_end(1), 4);
        let blocks2 = out.records[0].partition.num_classes() as u64;
        assert_eq!(s.phase_end(2), 4 + blocks2 * 3 + 1);
    }

    #[test]
    fn observed_triples_extraction() {
        let s = h2_schedule(); // σ=3, width 7, 1 block in phase 1
                               // craft a history: wake at 0, then phase-1 rounds 1..=7 (block) and
                               // 8..=10 (trailing). Put a message at round 2 (b=2) and a collision
                               // at round 6 (b=6).
        let mut entries = vec![Obs::Silence]; // H[0]
        for t in 1..=10u64 {
            entries.push(match t {
                2 => Obs::Heard(Msg::ONE),
                6 => Obs::Collision,
                _ => Obs::Silence,
            });
        }
        let h = History::from_entries(entries);
        let observed = s.observed_triples(h.view(), 1);
        assert_eq!(
            observed,
            vec![
                Triple::new(1, 2, Multi::One),
                Triple::new(1, 6, Multi::Star)
            ]
        );
    }

    #[test]
    fn observed_triples_ignore_trailing_rounds() {
        let s = h2_schedule();
        let mut entries = vec![Obs::Silence];
        for t in 1..=10u64 {
            // message in trailing round 9 — outside the block region
            entries.push(if t == 9 {
                Obs::Heard(Msg::ONE)
            } else {
                Obs::Silence
            });
        }
        let h = History::from_entries(entries);
        assert!(s.observed_triples(h.view(), 1).is_empty());
    }

    #[test]
    fn matching_is_unique_on_configuration_histories() {
        // On H_2, node a's phase-1 history: hears b's transmission. b is in
        // class 2 → transmits in block... phase 1 has ONE block (all in
        // class 1 at phase 1), so a hears b at (1, σ+1+t_b−t_a = 2).
        let s = h2_schedule();
        let mut entries = vec![Obs::Silence];
        for t in 1..=10u64 {
            entries.push(if t == 2 {
                Obs::Heard(Msg::ONE)
            } else {
                Obs::Silence
            });
        }
        let h = History::from_entries(entries);
        let m = s.match_entries(h.view(), 1, 1, &s.lists.final_entries);
        assert_eq!(
            m,
            MatchResult::Unique(1),
            "node a's history must match final entry 1"
        );
    }

    #[test]
    fn render_shows_the_whole_algorithm() {
        let s = h2_schedule();
        let text = s.render();
        assert!(text.contains("σ = 3"));
        assert!(text.contains("phase P_1: local rounds 1..=10"));
        assert!(text.contains("L_1[1] = (oldClass 1, label null)"));
        assert!(text.contains("transmit in local round 4"));
        assert!(text.contains("L_2: terminate"));
        assert!(text.contains("final class 1"));
    }

    #[test]
    fn build_in_compiles_the_same_schedule_as_build() {
        use radio_util::rng::rng_from;
        let mut rng = rng_from(31);
        let mut ws = ClassifierWorkspace::new();
        let mut configs = vec![families::h_m(3), families::s_m(2), families::g_m(3)];
        for _ in 0..8 {
            let g = radio_graph::generators::gnp_connected(8, 0.35, &mut rng);
            configs.push(radio_graph::tags::random_in_span(g, 4, &mut rng));
        }
        for config in configs {
            let (outcome, eager) = CanonicalSchedule::build(&config);
            let (summary, streamed) = CanonicalSchedule::build_in(&mut ws, &config);
            assert_eq!(summary.feasible, outcome.feasible, "{config}");
            assert_eq!(summary.iterations, outcome.iterations, "{config}");
            assert_eq!(streamed.sigma, eager.sigma, "{config}");
            assert_eq!(streamed.phase_end, eager.phase_end, "{config}");
            assert_eq!(streamed.lists, eager.lists, "{config}");
        }
    }

    #[test]
    fn automaton_resolves_exactly_like_match_entries() {
        // On real canonical executions, a cursor fed the keys of each
        // phase's observations must resolve to the same MatchResult as the
        // eager sequence comparison — for every node and every phase
        // j < T, on feasible and infeasible configs. At j = T the
        // automaton holds m̂'s path alone: it must resolve to Unique(m̂)
        // exactly when the comparison against the final would-be list
        // does, and to NoMatch otherwise.
        use crate::canonical::CanonicalFactory;
        use radio_sim::{Executor, RunOpts};
        use radio_util::rng::rng_from;
        use std::sync::Arc;
        let mut rng = rng_from(23);
        let mut configs = vec![
            families::h_m(3),
            families::g_m(3),
            families::s_m(2),
            families::h_m(1),
        ];
        for _ in 0..6 {
            let g = radio_graph::generators::gnp_connected(9, 0.35, &mut rng);
            configs.push(radio_graph::tags::random_in_span(g, 5, &mut rng));
        }
        for config in configs {
            let (_, s) = CanonicalSchedule::build(&config);
            let shared = Arc::new(s);
            let factory = CanonicalFactory::new(shared.clone());
            let ex = Executor::run(&config, &factory, RunOpts::default()).unwrap();
            let s = &*shared;
            let automaton = s.matcher();
            let judged = |j: usize, result: MatchResult| match result {
                _ if j < s.phases() => result,
                MatchResult::Unique(k) if s.lists.leader_class == Some(k) => result,
                _ => MatchResult::NoMatch,
            };
            for v in 0..config.size() as u32 {
                let h = ex.history(v).view();
                let mut t_block = 1u32;
                for j in 1..=s.phases() {
                    let entries = s.entries_after_phase(j);
                    let expected = s.match_entries(h, j, t_block, entries);
                    // the engine's keys are exactly the observed triples'
                    let keys: Vec<MatchKey> = h
                        .iter()
                        .filter_map(|(t, obs)| s.observation_key(j, t as u64, obs))
                        .collect();
                    let triples = s.observed_triples(h, j);
                    let triple_keys: Vec<MatchKey> =
                        triples.iter().map(|t| s.triple_key(t)).collect();
                    assert_eq!(keys, triple_keys, "{config}: node {v} phase {j}");
                    let mut cursor = automaton.start(j, t_block);
                    for &key in &keys {
                        cursor.advance(automaton, key);
                    }
                    assert_eq!(
                        cursor.resolve(automaton),
                        judged(j, expected),
                        "{config}: node {v} phase {j}"
                    );
                    // a foreign previous block must miss in both
                    let mut foreign = automaton.start(j, u32::MAX - 1);
                    for &key in &keys {
                        foreign.advance(automaton, key);
                    }
                    assert_eq!(
                        foreign.resolve(automaton),
                        judged(j, s.match_entries(h, j, u32::MAX - 1, entries)),
                        "{config}: node {v} phase {j} foreign block"
                    );
                    match expected {
                        MatchResult::Unique(k) => t_block = k,
                        _ => break,
                    }
                }
            }
        }
    }

    /// The edges reachable from phase `j`'s roots.
    fn phase_edges(a: &MatchAutomaton, j: usize) -> usize {
        let roots = &a.roots[a.root_start[j - 1] as usize..a.root_start[j] as usize];
        let mut stack: Vec<u32> = roots.iter().copied().filter(|&r| r != NO_STATE).collect();
        let mut edges = 0;
        while let Some(s) = stack.pop() {
            let (lo, hi) = (a.child_start[s as usize], a.child_start[s as usize + 1]);
            edges += (hi - lo) as usize;
            stack.extend((lo..hi).map(|e| a.root_count + e));
        }
        edges
    }

    #[test]
    fn final_phase_holds_only_the_leader_path() {
        // One phase and hundreds of final classes: a trie over every
        // final entry would hold about one path per class, but phase T
        // keeps m̂'s label alone, which still resolves to Unique(m̂).
        let csr = radio_graph::FamilySpec::RandomTree
            .build_csr(512, 5)
            .unwrap();
        let config = radio_graph::tags::random_in_span(csr, 64, &mut radio_util::rng::rng_from(5));
        let s = CanonicalSchedule::build(&config).1;
        assert_eq!(s.phases(), 1);
        assert!(
            s.lists.final_entries.len() >= 200,
            "{}",
            s.lists.final_entries.len()
        );
        let m = s.lists.leader_class.expect("feasible");
        let leader = &s.lists.final_entries[m as usize - 1];
        let a = s.matcher();
        assert_eq!(phase_edges(a, 1), leader.label.triples().len());
        let mut cursor = a.start(1, leader.old_class);
        for t in leader.label.triples() {
            cursor.advance(a, s.triple_key(t));
        }
        assert_eq!(cursor.resolve(a), MatchResult::Unique(m));

        // An infeasible schedule judges phase T for no one: no root.
        let s = CanonicalSchedule::build(&families::s_m(2)).1;
        let (t, a) = (s.phases(), s.matcher());
        assert_eq!(a.root_start[t - 1], a.root_start[t]);
        assert_eq!(a.start(t, 1).resolve(a), MatchResult::NoMatch);
    }

    #[test]
    fn maximal_span_geometry_saturates() {
        // σ = u64::MAX: 2σ+1 and every phase end lie past u64. They
        // saturate instead of overflowing, so no round budget reaches them
        // (`cli.rs::maximal_span_stops_at_the_round_limit` runs it).
        let c =
            radio_graph::Configuration::new(radio_graph::generators::path(2), vec![0, u64::MAX])
                .unwrap();
        let (out, s) = CanonicalSchedule::build(&c);
        assert!(out.feasible);
        assert_eq!(s.sigma, u64::MAX);
        assert_eq!(s.block_width(), u64::MAX);
        assert_eq!(s.phase_end(1), u64::MAX);
        assert_eq!(s.done_local(), u64::MAX);
        assert_eq!(s.transmit_round(1, 1), u64::MAX);
        assert_eq!(
            s.quiet_horizon(1, 1, s.transmit_round(1, 1)),
            Some(u64::MAX)
        );
        assert!(s.render().contains("σ = 18446744073709551615"));
    }

    #[test]
    fn render_marks_infeasible_schedules() {
        let c = radio_graph::families::s_m(2);
        let (_, s) = CanonicalSchedule::build(&c);
        assert!(s.render().contains("infeasible"));
    }

    #[test]
    fn matching_detects_foreign_histories() {
        let s = h2_schedule();
        // all-silent phase (no neighbour heard): matches no final entry of
        // H_2, where every node hears something in phase 1.
        let h = History::from_entries(vec![Obs::Silence; 11]);
        assert_eq!(
            s.match_entries(h.view(), 1, 1, &s.lists.final_entries),
            MatchResult::NoMatch
        );
        // wrong previous block also fails
        let mut entries = vec![Obs::Silence];
        for t in 1..=10u64 {
            entries.push(if t == 2 {
                Obs::Heard(Msg::ONE)
            } else {
                Obs::Silence
            });
        }
        let h = History::from_entries(entries);
        assert_eq!(
            s.match_entries(h.view(), 1, 99, &s.lists.final_entries),
            MatchResult::NoMatch
        );
    }
}
