//! The decision function `f_G` of the dedicated leader-election algorithm.
//!
//! The paper (Lemma 3.11) defines `f_G` extensionally: it maps the unique
//! history of the singleton-class node to 1 and every other history to 0.
//! The constructive equivalent implemented here replays the phase-matching
//! procedure over the full recorded history — the same computation a node
//! itself performs during phases, extended by one step using the *would-be*
//! list `L_{T+1}`'s entries — and outputs 1 iff the history lands in the
//! leader class `m̂`. By Lemmas 3.8/3.9 this agrees with the extensional
//! definition, and it is manifestly a pure function of the history, so
//! anonymity is preserved.

use radio_sim::History;

use crate::schedule::{MatchResult, SharedSchedule};

/// The decision function `f_G`; cheap to clone (shares the schedule).
#[derive(Clone)]
pub struct LeaderDecision {
    schedule: SharedSchedule,
}

impl LeaderDecision {
    /// Builds the decision function for a compiled schedule.
    pub fn new(schedule: SharedSchedule) -> LeaderDecision {
        LeaderDecision { schedule }
    }

    /// Replays the matching over `history` and returns the final class it
    /// lands in, or `None` if the history is off-schedule.
    pub fn final_class(&self, history: &History) -> Option<u32> {
        let history = history.view();
        let s = &self.schedule;
        let mut t_block = 1u32; // phase 1: everyone in block 1 (L_1 = [(1, null)])
        for j in 1..=s.phases() {
            // Phase T is judged against the would-be list: its block is
            // the final class.
            match s.match_entries(history, j, t_block, s.entries_after_phase(j)) {
                MatchResult::Unique(k) => t_block = k,
                _ => return None,
            }
        }
        Some(t_block)
    }

    /// `f_G(history)`: 1 iff the history is the leader's.
    pub fn is_leader(&self, history: &History) -> bool {
        match self.schedule.lists.leader_class {
            Some(m_hat) => self.final_class(history) == Some(m_hat),
            None => false, // infeasible configuration: nobody is leader
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::CanonicalFactory;
    use crate::schedule::CanonicalSchedule;
    use radio_graph::families;
    use radio_sim::{Executor, RunOpts};
    use std::sync::Arc;

    fn setup(
        c: &radio_graph::Configuration,
    ) -> (radio_sim::Execution, LeaderDecision, Option<u32>) {
        let (out, schedule) = CanonicalSchedule::build(c);
        let shared = Arc::new(schedule);
        let factory = CanonicalFactory::new(shared.clone());
        let ex = Executor::run(c, &factory, RunOpts::default()).unwrap();
        let leader_class = out.leader_class();
        (ex, LeaderDecision::new(shared), leader_class)
    }

    #[test]
    fn exactly_one_leader_on_h_m() {
        for m in [1u64, 2, 6] {
            let c = families::h_m(m);
            let (ex, f, _) = setup(&c);
            let leaders: Vec<u32> = (0..4).filter(|&v| f.is_leader(ex.history(v))).collect();
            assert_eq!(leaders.len(), 1, "H_{m}");
            assert_eq!(leaders[0], 0, "H_{m}: node a (smallest class) leads");
        }
    }

    #[test]
    fn final_class_reproduces_classifier_partition() {
        let c = families::g_m(2);
        let (out, schedule) = CanonicalSchedule::build(&c);
        let shared = Arc::new(schedule);
        let factory = CanonicalFactory::new(shared.clone());
        let ex = Executor::run(&c, &factory, RunOpts::default()).unwrap();
        let f = LeaderDecision::new(shared);
        let p = out.final_partition();
        for v in 0..c.size() as u32 {
            assert_eq!(
                f.final_class(ex.history(v)),
                Some(p.class_of(v)),
                "node {v}"
            );
        }
    }

    #[test]
    fn decision_from_streamed_schedule_matches_eager_build() {
        // The decision function compiled via the workspace/ListsSink path
        // must classify every canonical history exactly like the one from
        // the eager records path.
        let c = families::g_m(2);
        let mut ws = radio_classifier::ClassifierWorkspace::new();
        let (_, streamed) = CanonicalSchedule::build_in(&mut ws, &c);
        let (_, eager) = CanonicalSchedule::build(&c);
        let f_streamed = LeaderDecision::new(Arc::new(streamed));
        let f_eager = LeaderDecision::new(Arc::new(eager));
        let factory = CanonicalFactory::new(Arc::new(CanonicalSchedule::build(&c).1));
        let ex = Executor::run(&c, &factory, RunOpts::default()).unwrap();
        for v in 0..c.size() as u32 {
            assert_eq!(
                f_streamed.final_class(ex.history(v)),
                f_eager.final_class(ex.history(v)),
                "node {v}"
            );
            assert_eq!(
                f_streamed.is_leader(ex.history(v)),
                f_eager.is_leader(ex.history(v)),
                "node {v}"
            );
        }
    }

    #[test]
    fn nobody_leads_on_infeasible_configs() {
        let c = families::s_m(3);
        let (ex, f, leader_class) = setup(&c);
        assert!(leader_class.is_none());
        for v in 0..4u32 {
            assert!(!f.is_leader(ex.history(v)));
        }
    }

    #[test]
    fn off_schedule_history_is_never_leader() {
        let c = families::h_m(2);
        let (_, f, _) = setup(&c);
        let silent = radio_sim::History::from_entries(vec![radio_sim::Obs::Silence; 11]);
        assert_eq!(f.final_class(&silent), None);
        assert!(!f.is_leader(&silent));
    }
}
