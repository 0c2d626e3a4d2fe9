//! The canonical DRIP `D_G` (paper Section 3.3.1) as an executable node.
//!
//! Per phase `j ≤ T`, a node transmits `'1'` exactly once — in the
//! `(σ+1)`-th round of its transmission block — and listens in every other
//! round. Its block for phase 1 is 1 (all nodes); for each later phase it
//! re-derives the block by matching its recorded history of the previous
//! phase against the hard-coded `L_j` entries. In the first round after
//! phase `T` every node terminates.
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

use radio_sim::{Action, DripFactory, DripNode, HistoryView, Msg, Obs};

use crate::schedule::{MatchCursor, MatchResult, SharedSchedule};
use radio_classifier::{Level, Multi, Triple};

/// Factory installing the canonical DRIP of one configuration at every
/// node.
pub struct CanonicalFactory {
    schedule: SharedSchedule,
    streaming: bool,
}

impl CanonicalFactory {
    /// Wraps a compiled schedule.
    pub fn new(schedule: SharedSchedule) -> CanonicalFactory {
        CanonicalFactory {
            schedule,
            streaming: false,
        }
    }

    /// Wraps a compiled schedule in *streaming-match* mode: nodes fold
    /// every observation into a [`MatchCursor`] as it lands (via
    /// [`DripNode::observe`]) and resolve their phase matches — and the
    /// final leader verdict — without ever re-reading history content.
    /// Behaviour is bit-identical to [`CanonicalFactory::new`]; the point
    /// is that it stays correct under
    /// [`RunOpts::len_only_histories`](radio_sim::RunOpts), where
    /// histories have lengths but no content, which removes the dominant
    /// memory term of million-node elections.
    pub fn streaming(schedule: SharedSchedule) -> CanonicalFactory {
        CanonicalFactory {
            schedule,
            streaming: true,
        }
    }

    /// The shared schedule.
    pub fn schedule(&self) -> &SharedSchedule {
        &self.schedule
    }
}

impl DripFactory for CanonicalFactory {
    fn spawn(&self) -> Box<dyn DripNode> {
        Box::new(CanonicalNode {
            cursor: self.schedule.matcher_after_phase(1).start(1),
            schedule: self.schedule.clone(),
            phase: 1,
            t_block: 1,
            transmit_at: self.schedule.transmit_round(1, 1),
            off_schedule: false,
            streaming: self.streaming,
            is_leader: None,
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
    /// Streaming-match mode: phase matches (and the leader verdict) come
    /// from `cursor`, fed by `observe`, instead of re-reading history.
    streaming: bool,
    /// Trie position within `matcher_after_phase(phase)` (streaming only).
    cursor: MatchCursor,
    /// The leader verdict, resolved once at termination (streaming only).
    is_leader: Option<bool>,
}

impl DripNode for CanonicalNode {
    fn decide(&mut self, history: HistoryView<'_>) -> Action {
        let i = history.len() as u64; // local round to act in
        let s = &self.schedule;

        if i > s.phase_end(s.phases()) {
            // r_T + 1: all nodes terminate (L_{T+1} = terminate). In
            // streaming mode this is also where the decision function
            // collapses into the node: resolve phase T's cursor against
            // the final would-be list and compare with the leader class.
            if self.streaming && self.is_leader.is_none() {
                let claim = !self.off_schedule
                    && match self.cursor.resolve(s.matcher_after_phase(self.phase)) {
                        MatchResult::Unique(k) => s.lists.leader_class == Some(k),
                        MatchResult::NoMatch | MatchResult::Ambiguous { .. } => false,
                    };
                self.is_leader = Some(claim);
            }
            return Action::Terminate;
        }

        if i > s.phase_end(self.phase) {
            // First round of the next phase: derive the new block from the
            // history of the phase that just ended.
            let next = self.phase + 1;
            debug_assert!(next <= s.phases());
            if !self.off_schedule {
                let result = if self.streaming {
                    self.cursor.resolve(s.matcher_after_phase(self.phase))
                } else {
                    let entries = match s.lists.level(next) {
                        Level::Blocks(entries) => entries,
                        Level::Terminate => unreachable!("terminate level handled above"),
                    };
                    s.match_entries(history, self.phase, self.t_block, entries)
                };
                match result {
                    MatchResult::Unique(k) => {
                        self.t_block = k;
                        self.transmit_at = s.transmit_round(next, k);
                        if self.streaming {
                            self.cursor = s.matcher_after_phase(next).start(k);
                        }
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

    fn observe(&mut self, t: u64, obs: Obs) {
        if !self.streaming || self.off_schedule || self.is_leader.is_some() {
            return;
        }
        // Project the observation onto phase geometry exactly as
        // `CanonicalSchedule::observed_triples` does: only non-silent
        // rounds inside the current phase's block region become triples
        // (the engine already filters silence; `t` outside the region —
        // the wake round 0 or the trailing σ listening rounds — is
        // ignored).
        let s = &self.schedule;
        let start = s.phase_end(self.phase - 1);
        if t <= start {
            return;
        }
        let off = t - start;
        let width = s.block_width();
        if off > s.blocks(self.phase).saturating_mul(width) {
            return;
        }
        let c = match obs {
            Obs::Silence => return,
            Obs::Heard(_) => Multi::One,
            Obs::Collision | Obs::Noise => Multi::Star,
        };
        let a = ((off - 1) / width + 1) as u32;
        let b = (off - 1) % width + 1;
        self.cursor
            .advance(s.matcher_after_phase(self.phase), Triple::new(a, b, c));
    }

    fn leader_claim(&self) -> Option<bool> {
        self.is_leader
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

#[cfg(test)]
mod tests {
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
        // tiny fraction and still match the step engine bit for bit.
        let c = families::h_m(1 << 12);
        let (_, schedule) = CanonicalSchedule::build(&c);
        let factory = CanonicalFactory::new(Arc::new(schedule));
        let leap = Executor::run(&c, &factory, RunOpts::default()).unwrap();
        let step = Executor::run(&c, &factory, RunOpts::default().no_leap()).unwrap();
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

    /// Runs `compiled` on `config` both ways under every channel model,
    /// leaping and stepping: the history-reading DRIP judged node by node
    /// by `f_G` (the oracle), and the streaming simulate step every
    /// election takes. Leaders and run shape must agree exactly.
    fn assert_streaming_matches_the_oracle(
        compiled: &crate::CompiledElection,
        config: &Configuration,
        sim: &mut radio_sim::SimWorkspace,
    ) {
        let decision = compiled.decision();
        for model in radio_sim::ModelKind::ALL {
            for opts in [RunOpts::default(), RunOpts::default().no_leap()] {
                let what = format!("{config} model={model} leap={}", opts.leap);
                let ex = sim
                    .run_kind(model, config, &compiled.factory(), opts)
                    .unwrap();
                let oracle: Vec<_> = (0..config.size() as radio_graph::NodeId)
                    .filter(|&v| decision.is_leader(ex.history(v)))
                    .collect();
                let done = ex.done_round.iter().copied().max().unwrap_or(0);
                let (leaders, run) = compiled.simulate_in(sim, config, model, opts).unwrap();
                assert_eq!(leaders, oracle, "{what}");
                assert_eq!(
                    (run.stats, run.rounds, run.rounds_stepped, run.rounds_leapt),
                    (ex.stats, ex.rounds, ex.rounds_stepped, ex.rounds_leapt),
                    "{what}"
                );
                assert_eq!(run.completion_round, done, "{what}");
            }
        }
    }

    #[test]
    fn streaming_len_only_elects_exactly_like_the_dense_path() {
        // The streaming factory under length-only histories must produce
        // the same leaders and run shape as the dense factory judged by
        // the decision function — across feasible, infeasible, and random
        // configurations, under every channel model, with and without
        // leaps. Campaign `elected` counts under cd and beep come from
        // these claims, so this is their guard.
        let mut rng = radio_util::rng::rng_from(29);
        let mut configs = vec![
            families::h_m(3),
            families::g_m(3),
            families::s_m(2),
            families::h_m(1),
        ];
        for _ in 0..6 {
            let g = generators::gnp_connected(9, 0.35, &mut rng);
            configs.push(radio_graph::tags::random_in_span(g, 5, &mut rng));
        }
        let mut cls = radio_classifier::ClassifierWorkspace::new();
        let mut sim = radio_sim::SimWorkspace::new();
        for config in configs {
            let compiled = crate::CompiledElection::compile_in(&mut cls, &config);
            assert_streaming_matches_the_oracle(&compiled, &config, &mut sim);
        }
    }

    #[test]
    fn streaming_mode_survives_foreign_configurations() {
        // Off-schedule nodes must go silent and claim non-leadership —
        // never panic, never claim — when the dedicated DRIP runs on a
        // configuration it was not compiled for.
        let mut cls = radio_classifier::ClassifierWorkspace::new();
        let compiled = crate::CompiledElection::compile_in(&mut cls, &families::h_m(2));
        let mut sim = radio_sim::SimWorkspace::new();
        for foreign in [families::s_m(2), families::h_m(5), families::g_m(2)] {
            assert_streaming_matches_the_oracle(&compiled, &foreign, &mut sim);
        }
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
