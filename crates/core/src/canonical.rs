//! The canonical DRIP `D_G` (paper Section 3.3.1) as an executable node.
//!
//! Per phase `j ≤ T`, a node transmits `'1'` exactly once — in the
//! `(σ+1)`-th round of its transmission block — and listens in every other
//! round. Its block for phase 1 is 1 (all nodes); for each later phase it
//! re-derives the block by matching its recorded history of the previous
//! phase against the hard-coded `L_j` entries. In the first round after
//! phase `T` every node terminates.
//!
//! Two node types run it, round for round alike:
//!
//! * [`CanonicalFactory`] spawns boxed [`DripNode`]s that re-read their
//!   stored histories at each phase boundary — the paper's definition,
//!   run by the oracles that judge histories with `f_G`;
//! * `CanonicalNodes` keeps every node's state in flat per-node arrays and
//!   folds each observation into a match cursor as it lands, so the
//!   engine stores no history. Every election runs it
//!   ([`CompiledElection::simulate_in`](crate::CompiledElection::simulate_in)).
//!
//! ## Off-schedule histories
//!
//! On its own configuration the matching is guaranteed to succeed uniquely
//! (Lemma 3.8). When the dedicated algorithm is (ab)used on a *different*
//! configuration — e.g. in the universal-algorithm counterexample — a
//! node's history may match zero or two entries. Such a node downgrades to
//! a silent observer: it listens for the rest of the schedule and
//! terminates on time. This keeps the DRIP total (every node terminates)
//! without inventing behaviour the paper doesn't define.

use radio_graph::NodeId;
use radio_sim::{Action, DripFactory, DripNode, DripNodes, HistoryView, Msg, Obs};

use crate::schedule::{CanonicalSchedule, MatchCursor, MatchResult, SharedSchedule};

/// Factory installing the canonical DRIP of one configuration at every
/// node, as boxed nodes that re-read their stored histories: at each
/// phase boundary a node matches its recorded phase against the list
/// entries ([`CanonicalSchedule::match_entries`]). Runs through it
/// materialize full [`Execution`](radio_sim::Execution)s, which the
/// decision function `f_G` then judges node by node.
pub struct CanonicalFactory {
    schedule: SharedSchedule,
}

impl CanonicalFactory {
    /// Wraps a compiled schedule.
    pub fn new(schedule: SharedSchedule) -> CanonicalFactory {
        CanonicalFactory { schedule }
    }

    /// The shared schedule.
    pub fn schedule(&self) -> &SharedSchedule {
        &self.schedule
    }
}

impl DripFactory for CanonicalFactory {
    fn spawn(&self) -> Box<dyn DripNode> {
        Box::new(CanonicalNode {
            schedule: self.schedule.clone(),
            phase: 1,
            t_block: 1,
            transmit_at: self.schedule.transmit_round(1, 1),
            off_schedule: false,
        })
    }

    fn name(&self) -> String {
        format!(
            "canonical(σ={}, T={})",
            self.schedule.sigma,
            self.schedule.phases()
        )
    }
}

struct CanonicalNode {
    schedule: SharedSchedule,
    /// Current phase `j` (1-based).
    phase: usize,
    /// Transmission block within the current phase.
    t_block: u32,
    /// Local round of this phase's transmission.
    transmit_at: u64,
    /// Set when matching failed (foreign configuration): listen-only mode.
    off_schedule: bool,
}

impl DripNode for CanonicalNode {
    fn decide(&mut self, history: HistoryView<'_>) -> Action {
        let i = history.len() as u64; // local round to act in
        let s = &self.schedule;

        if i > s.phase_end(s.phases()) {
            // r_T + 1: all nodes terminate (L_{T+1} = terminate).
            return Action::Terminate;
        }

        if i > s.phase_end(self.phase) {
            // First round of the next phase: derive the new block from the
            // history of the phase that just ended.
            let next = self.phase + 1;
            debug_assert!(next <= s.phases());
            if !self.off_schedule {
                let entries = s.entries_after_phase(self.phase);
                match s.match_entries(history, self.phase, self.t_block, entries) {
                    MatchResult::Unique(k) => {
                        self.t_block = k;
                        self.transmit_at = s.transmit_round(next, k);
                    }
                    MatchResult::NoMatch | MatchResult::Ambiguous { .. } => {
                        self.off_schedule = true;
                    }
                }
            }
            self.phase = next;
        }

        if !self.off_schedule && i == self.transmit_at {
            Action::Transmit(Msg::ONE)
        } else {
            Action::Listen
        }
    }

    fn quiet_until(&self, history: HistoryView<'_>) -> Option<u64> {
        let i = history.len() as u64;
        if self.off_schedule {
            // A silent observer listens until the scheduled termination
            // round (its decide short-circuits to Terminate there, before
            // any phase bookkeeping).
            let done = self.schedule.done_local();
            return (done > i).then_some(done);
        }
        // On schedule, the compiled timetable answers exactly.
        self.schedule.quiet_horizon(i, self.phase, self.transmit_at)
    }
}

/// Flag: matching failed (foreign configuration), listen-only mode.
const OFF_SCHEDULE: u8 = 1;
/// Flag: the node terminated in the leader class.
const LEADER: u8 = 2;

/// The canonical DRIP at every node of one run, as flat per-node arrays
/// ("planes") over one borrowed schedule: the run spawns no boxes and
/// shares no reference count.
///
/// A node folds each non-silent observation into its [`MatchCursor`] as
/// the engine records it ([`DripNodes::observe`]), resolves the cursor at
/// each phase boundary, and at termination resolves its leader verdict the
/// way `f_G` would. It never reads history content, so the engine stores
/// no history: a node's history length is its global round less its wake
/// round. Hearing never moves a node's horizon, so the engine never
/// re-asks it after a delivery. Behaviour is round for round that of
/// [`CanonicalFactory`]'s nodes, and the verdicts are exactly `f_G`'s: the
/// cursor walks the trie of the same list entries the decision replay
/// compares against, under every channel model — in phase `T`, only the
/// leader class's path, since no node reads which other final class it
/// lands in.
///
/// A node is deaf ([`DripNodes::deaf`]) exactly when its cursor is dead,
/// and the engine then delivers nothing to it. The hint is exact:
///
/// * a dead cursor stays dead and resolves to `NoMatch`, so the node goes
///   off schedule at its next phase boundary, or terminates as a
///   non-leader;
/// * a node that goes off schedule gets a dead cursor, and an off-schedule
///   node ignores what it hears;
/// * horizons depend on the local round, the phase and the transmit round
///   only, never on what a node heard in its current phase.
///
/// On its own configuration a cursor never dies before phase `T`: phases
/// 1 … T−1 hold full tries, and every node's observations spell its
/// class's label (Lemma 3.8). In phase `T` the nodes off m̂'s path go deaf
/// at their first observation off it, so a phase-`T` transmission reaches
/// only the nodes still on it. The run's delivery counters then count the
/// deliveries made, not the ones the channel carries
/// ([`radio_sim::ResidentRun`]).
pub(crate) struct CanonicalNodes<'s> {
    schedule: &'s CanonicalSchedule,
    /// Current phase `j` (1-based).
    phase: Vec<u32>,
    /// Local round of this phase's transmission.
    transmit_at: Vec<u64>,
    /// Trie position within the current phase's matcher.
    cursor: Vec<MatchCursor>,
    /// `OFF_SCHEDULE` and `LEADER` bits.
    flags: Vec<u8>,
}

impl<'s> CanonicalNodes<'s> {
    /// `n` nodes at the start of phase 1, in block 1.
    pub(crate) fn new(schedule: &'s CanonicalSchedule, n: usize) -> CanonicalNodes<'s> {
        CanonicalNodes {
            schedule,
            phase: vec![1; n],
            transmit_at: vec![schedule.transmit_round(1, 1); n],
            cursor: vec![schedule.matcher().start(1, 1); n],
            flags: vec![0; n],
        }
    }

    /// The nodes that terminated claiming leadership, in node order.
    pub(crate) fn leaders(&self) -> Vec<NodeId> {
        (0..self.flags.len() as NodeId)
            .filter(|&v| self.flags[v as usize] & LEADER != 0)
            .collect()
    }
}

impl DripNodes for CanonicalNodes<'_> {
    const READS_HISTORY: bool = false;

    fn decide(&mut self, v: NodeId, history: HistoryView<'_>) -> Action {
        let v = v as usize;
        let i = history.len() as u64; // local round to act in
        let s = self.schedule;
        let phase = self.phase[v] as usize;

        if i > s.phase_end(s.phases()) {
            // r_T + 1: every node terminates, and the decision function
            // collapses into the node: phase T's cursor follows m̂'s path
            // alone and resolves to `Unique(m̂)` exactly when the node's
            // history lands in the leader class (an off-schedule node's
            // cursor is dead).
            if matches!(
                self.cursor[v].resolve(s.matcher()),
                MatchResult::Unique(k) if s.lists.leader_class == Some(k)
            ) {
                self.flags[v] |= LEADER;
            }
            return Action::Terminate;
        }

        if i > s.phase_end(phase) {
            // First round of the next phase: the cursor fed during the
            // phase that just ended names the new block.
            let next = phase + 1;
            debug_assert!(next <= s.phases());
            if self.flags[v] & OFF_SCHEDULE == 0 {
                match self.cursor[v].resolve(s.matcher()) {
                    MatchResult::Unique(k) => {
                        self.transmit_at[v] = s.transmit_round(next, k);
                        self.cursor[v] = s.matcher().start(next, k);
                    }
                    MatchResult::NoMatch | MatchResult::Ambiguous { .. } => {
                        self.flags[v] |= OFF_SCHEDULE;
                        self.cursor[v] = MatchCursor::DEAD;
                    }
                }
            }
            self.phase[v] = next as u32;
        }

        if self.flags[v] & OFF_SCHEDULE == 0 && i == self.transmit_at[v] {
            Action::Transmit(Msg::ONE)
        } else {
            Action::Listen
        }
    }

    fn quiet_until(&self, v: NodeId, history: HistoryView<'_>) -> Option<u64> {
        let v = v as usize;
        let i = history.len() as u64;
        if self.flags[v] & OFF_SCHEDULE != 0 {
            // A silent observer listens until the scheduled termination.
            let done = self.schedule.done_local();
            return (done > i).then_some(done);
        }
        self.schedule
            .quiet_horizon(i, self.phase[v] as usize, self.transmit_at[v])
    }

    /// Folds `obs` into the node's cursor. The horizon is a function of
    /// the local round, the phase and the transmit round, and none of
    /// them changes here, so the engine never needs to re-ask it.
    #[inline]
    fn observe(&mut self, v: NodeId, t: u64, obs: Obs) -> bool {
        let v = v as usize;
        // A dead cursor stays dead: in phase T, every node off m̂'s path,
        // and every off-schedule node.
        if self.cursor[v].is_dead() {
            return false;
        }
        let s = self.schedule;
        if let Some(key) = s.observation_key(self.phase[v] as usize, t, obs) {
            self.cursor[v].advance(s.matcher(), key);
        }
        false
    }

    /// A dead cursor: nothing the node hears from now on is read.
    #[inline]
    fn deaf(&self, v: NodeId) -> bool {
        self.cursor[v as usize].is_dead()
    }

    fn mem_bytes(&self) -> u64 {
        fn plane<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        plane(&self.phase) + plane(&self.transmit_at) + plane(&self.cursor) + plane(&self.flags)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schedule::CanonicalSchedule;
    use radio_graph::{families, generators, Configuration};
    use radio_sim::{Executor, RunOpts};
    use std::sync::Arc;

    fn run_canonical(config: &Configuration) -> radio_sim::Execution {
        let (_, schedule) = CanonicalSchedule::build(config);
        let factory = CanonicalFactory::new(Arc::new(schedule));
        Executor::run(config, &factory, RunOpts::default().traced()).unwrap()
    }

    #[test]
    fn all_nodes_terminate_simultaneously_in_local_time() {
        let c = families::h_m(2);
        let (_, schedule) = CanonicalSchedule::build(&c);
        let done = schedule.done_local();
        let ex = run_canonical(&c);
        for v in 0..4u32 {
            assert_eq!(ex.done_local(v), done, "node {v}");
        }
    }

    #[test]
    fn canonical_is_patient_lemma_3_6() {
        // No transmission in global rounds 0..=σ; every wake-up is
        // spontaneous at the node's tag.
        for c in [families::h_m(3), families::g_m(2), families::s_m(2)] {
            let sigma = c.span();
            let ex = run_canonical(&c);
            let trace = ex.trace.as_ref().unwrap();
            for e in &trace.events {
                if !e.transmitters.is_empty() {
                    assert!(
                        e.round > sigma,
                        "{c}: transmission at round {} ≤ σ",
                        e.round
                    );
                }
            }
            for v in 0..c.size() as u32 {
                assert!(ex.woke_spontaneously(v), "{c}: node {v}");
                assert_eq!(ex.wake_round[v as usize], c.tag(v));
            }
        }
    }

    #[test]
    fn every_node_transmits_once_per_phase() {
        let c = families::g_m(2);
        let (out, schedule) = CanonicalSchedule::build(&c);
        let ex = run_canonical(&c);
        let total_tx: u64 = ex.stats.transmissions;
        // every node transmits exactly once per phase
        assert_eq!(total_tx, (c.size() * out.iterations) as u64);
        let _ = schedule;
    }

    #[test]
    fn transmit_blocks_match_classifier_classes() {
        // Lemma 3.8(2): node v transmits in block k of phase j iff its
        // class at the start of phase j is k.
        let c = families::g_m(3);
        let (out, schedule) = CanonicalSchedule::build(&c);
        let ex = run_canonical(&c);
        let trace = ex.trace.as_ref().unwrap();
        let width = schedule.block_width();

        // expected: class of v at phase j = v_CLASS,j = partition after
        // iteration j-1 (phase 1: class 1 for all).
        for j in 1..=schedule.phases() {
            let class_of = |v: u32| -> u32 {
                if j == 1 {
                    1
                } else {
                    out.records[j - 2].partition.class_of(v)
                }
            };
            for v in 0..c.size() as u32 {
                let k = class_of(v);
                let local = schedule.phase_end(j - 1) + (k as u64 - 1) * width + schedule.sigma + 1;
                let global = c.tag(v) + local; // spontaneous wake at tag
                let ev = trace
                    .round(global)
                    .unwrap_or_else(|| panic!("phase {j} node {v}: no event at round {global}"));
                assert!(
                    ev.transmitters.iter().any(|&(u, _)| u == v),
                    "phase {j}: node {v} must transmit in block {k} (global round {global})"
                );
            }
        }
    }

    #[test]
    fn histories_partition_matches_final_classes() {
        // Lemma 3.9 at the final iteration: equal final histories ⟺ equal
        // final classes.
        for c in [families::h_m(1), families::s_m(2), families::g_m(2)] {
            let (out, _) = CanonicalSchedule::build(&c);
            let ex = run_canonical(&c);
            let p = out.final_partition();
            for v in 0..c.size() as u32 {
                for w in 0..c.size() as u32 {
                    let same_class = p.class_of(v) == p.class_of(w);
                    let same_hist = ex.history(v) == ex.history(w);
                    assert_eq!(same_class, same_hist, "{c}: nodes {v},{w}");
                }
            }
        }
    }

    #[test]
    fn off_schedule_node_goes_silent_but_terminates() {
        // Run H_2's dedicated DRIP on S_2 (same span σ... S_2 has σ=2 but
        // H_2 has σ=3 — geometry differs, matching will fail for some
        // nodes). All nodes must still terminate on schedule.
        let h2 = families::h_m(2);
        let (_, schedule) = CanonicalSchedule::build(&h2);
        let done = schedule.done_local();
        let factory = CanonicalFactory::new(Arc::new(schedule));
        let s2 = families::s_m(2);
        let ex = Executor::run(&s2, &factory, RunOpts::default()).unwrap();
        for v in 0..4u32 {
            assert_eq!(ex.done_local(v), done);
        }
    }

    #[test]
    fn leap_engine_runs_high_span_schedules_in_few_steps() {
        // H_m with m = 2^12: σ = 4097, schedule ≈ 3·(2σ+1)+… rounds of
        // which only a handful are eventful. The leap engine must step a
        // tiny fraction and still match the step-by-step reference engine
        // bit for bit.
        let c = families::h_m(1 << 12);
        let (_, schedule) = CanonicalSchedule::build(&c);
        let factory = CanonicalFactory::new(Arc::new(schedule));
        let leap = Executor::run(&c, &factory, RunOpts::default()).unwrap();
        let step = radio_sim::engine_ref::run_reference(&c, &factory, RunOpts::default()).unwrap();
        assert_eq!(leap.histories, step.histories);
        assert_eq!(leap.done_round, step.done_round);
        assert_eq!(leap.wake_round, step.wake_round);
        assert_eq!(leap.stats, step.stats);
        assert_eq!(leap.rounds, step.rounds);
        assert!(leap.rounds > 8_000, "σ-scale schedule");
        assert!(
            leap.rounds_stepped * 100 < leap.rounds,
            "stepped {} of {} rounds — the schedule is silence-dominated",
            leap.rounds_stepped,
            leap.rounds
        );
    }

    /// `CanonicalNodes` that hear every delivery: the hint
    /// [`DripNodes::deaf`] keeps its default `false`, so the engine
    /// delivers everything the channel carries, as it does to boxed nodes.
    struct Hearing<'s>(CanonicalNodes<'s>);

    impl DripNodes for Hearing<'_> {
        const READS_HISTORY: bool = false;

        fn decide(&mut self, v: NodeId, history: HistoryView<'_>) -> Action {
            self.0.decide(v, history)
        }

        fn quiet_until(&self, v: NodeId, history: HistoryView<'_>) -> Option<u64> {
            self.0.quiet_until(v, history)
        }

        fn observe(&mut self, v: NodeId, t: u64, obs: Obs) -> bool {
            self.0.observe(v, t, obs)
        }

        fn mem_bytes(&self) -> u64 {
            self.0.mem_bytes()
        }
    }

    /// Runs `compiled` on `config` three ways under every channel model
    /// within `max_rounds`: the history-reading DRIP judged node by node by
    /// `f_G` (the oracle), the streaming nodes with every delivery made
    /// (the hearing run), and the simulate step every election takes,
    /// which delivers nothing to deaf nodes. The hearing run must match
    /// the oracle exactly: leaders, counters and run shape. The simulate
    /// step must match the hearing run in everything but its two delivery
    /// counters, and each of those may only be smaller. A round-limit
    /// error must be the same in all three. Returns how many of the three
    /// models hit the limit.
    pub(crate) fn assert_streaming_matches_the_oracle(
        compiled: &crate::CompiledElection,
        config: &Configuration,
        sim: &mut radio_sim::SimWorkspace,
        max_rounds: u64,
    ) -> usize {
        let decision = compiled.decision();
        let mut limited = 0;
        let opts = RunOpts::with_max_rounds(max_rounds);
        for model in radio_sim::ModelKind::ALL {
            let what = format!("{config} model={model}");
            let dense = sim.run_kind(model, config, &compiled.factory(), opts);
            let mut hearing = Hearing(CanonicalNodes::new(compiled.schedule(), config.size()));
            let heard = sim
                .run_nodes(model, config, &mut hearing, opts)
                .map(|run| (hearing.0.leaders(), run));
            let streamed = compiled.simulate_in(sim, config, model, opts);
            let (ex, (heard_leaders, heard), (leaders, run)) = match (dense, heard, streamed) {
                (Ok(ex), Ok(heard), Ok(streamed)) => (ex, heard, streamed),
                (Err(dense), Err(heard), Err(streamed)) => {
                    assert_eq!(heard, dense, "{what}");
                    assert_eq!(streamed, dense, "{what}");
                    limited += 1;
                    continue;
                }
                (dense, heard, streamed) => panic!(
                    "{what}: dense {:?}, hearing {:?} but streaming {:?}",
                    dense.map(|_| ()),
                    heard.map(|_| ()),
                    streamed.map(|_| ())
                ),
            };
            let oracle: Vec<_> = (0..config.size() as NodeId)
                .filter(|&v| decision.is_leader(ex.history(v)))
                .collect();
            let done = ex.done_round.iter().copied().max().unwrap_or(0);
            assert_eq!(heard_leaders, oracle, "{what}");
            assert_eq!(
                (
                    heard.stats,
                    heard.rounds,
                    heard.rounds_stepped,
                    heard.rounds_leapt
                ),
                (ex.stats, ex.rounds, ex.rounds_stepped, ex.rounds_leapt),
                "{what}"
            );
            assert_eq!(heard.completion_round, done, "{what}");

            // Skipping deaf listeners changes the delivery counters alone.
            assert_eq!(leaders, heard_leaders, "{what}");
            let shape = |run: &radio_sim::ResidentRun| {
                let radio_sim::ExecStats {
                    transmissions,
                    forced_wakeups,
                    ..
                } = run.stats;
                (
                    (transmissions, forced_wakeups),
                    (run.rounds, run.rounds_stepped, run.rounds_leapt),
                    (run.completion_round, run.decides, run.horizon_queries),
                )
            };
            assert_eq!(shape(&run), shape(&heard), "{what}");
            assert!(
                run.stats.messages_received <= heard.stats.messages_received
                    && run.stats.collisions_observed <= heard.stats.collisions_observed,
                "{what}: {:?} delivered, the channel carries {:?}",
                run.stats,
                heard.stats
            );
        }
        limited
    }

    #[test]
    fn streaming_mode_survives_foreign_configurations() {
        // Off-schedule nodes must go silent and claim non-leadership —
        // never panic, never claim — when the dedicated DRIP runs on a
        // configuration it was not compiled for.
        let mut cls = radio_classifier::ClassifierWorkspace::new();
        let compiled = crate::CompiledElection::compile_in(&mut cls, &families::h_m(2));
        let mut sim = radio_sim::SimWorkspace::new();
        let limit = RunOpts::default().max_rounds;
        for foreign in [families::s_m(2), families::h_m(5), families::g_m(2)] {
            let limited = assert_streaming_matches_the_oracle(&compiled, &foreign, &mut sim, limit);
            assert_eq!(limited, 0, "{foreign}");
        }
    }

    #[test]
    fn deaf_sleepers_still_wake() {
        // The symmetric two-node path is infeasible after one phase, so
        // its schedule holds no match path: every cursor is dead from the
        // start and every node deaf. Run on a path whose second node
        // sleeps through the first one's transmission, that transmission
        // must still wake it.
        let mut cls = radio_classifier::ClassifierWorkspace::new();
        let symmetric = Configuration::new(generators::path(2), vec![0, 0]).unwrap();
        let compiled = crate::CompiledElection::compile_in(&mut cls, &symmetric);
        assert!(compiled.schedule().matcher().start(1, 1).is_dead());
        let late = Configuration::new(generators::path(2), vec![0, 5]).unwrap();
        let mut sim = radio_sim::SimWorkspace::new();
        let limit = RunOpts::default().max_rounds;
        let limited = assert_streaming_matches_the_oracle(&compiled, &late, &mut sim, limit);
        assert_eq!(limited, 0);
        let (_, run) = compiled
            .simulate_in(
                &mut sim,
                &late,
                radio_sim::ModelKind::default(),
                RunOpts::default(),
            )
            .unwrap();
        assert_eq!(run.stats.forced_wakeups, 1);
    }

    #[test]
    fn keys_past_two_to_the_64_keep_label_order_and_elect() {
        // At this span one label triple of the 6-node path has doubled
        // offset 2⁶⁴ + 14, and the run still completes within a u64
        // budget. Keys must not wrap there: they order and compare
        // exactly like the triples, and the streaming run elects node 0.
        // (The dense oracle cannot run this: its histories would need
        // about 10¹⁹ entries.)
        let sigma = 1_537_228_672_809_129_302;
        let config =
            Configuration::new(generators::path(6), vec![0, 0, 0, sigma, sigma, 0]).unwrap();
        let mut cls = radio_classifier::ClassifierWorkspace::new();
        let compiled = crate::CompiledElection::compile_in(&mut cls, &config);
        let s = compiled.schedule();
        let triples: Vec<radio_classifier::Triple> = (1..=s.phases())
            .flat_map(|j| s.entries_after_phase(j))
            .flat_map(|e| e.label.triples().iter().copied())
            .collect();
        let past = u128::from(u64::MAX);
        assert!(
            triples.iter().any(|t| s.triple_key(t) > past),
            "{triples:?}"
        );
        for a in &triples {
            for b in &triples {
                assert_eq!(
                    s.triple_key(a).cmp(&s.triple_key(b)),
                    a.cmp(b),
                    "{a} vs {b}"
                );
            }
        }
        let report = compiled
            .run_in(
                &mut radio_sim::SimWorkspace::new(),
                &config,
                radio_sim::ModelKind::default(),
                RunOpts::with_max_rounds(u64::MAX),
            )
            .unwrap();
        assert_eq!(report.leader, 0);
    }

    #[test]
    fn factory_name_is_descriptive() {
        let c = generators::path(1);
        let c = Configuration::new(c, vec![0]).unwrap();
        let (_, schedule) = CanonicalSchedule::build(&c);
        let f = CanonicalFactory::new(Arc::new(schedule));
        assert_eq!(f.name(), "canonical(σ=0, T=1)");
    }
}
