//! The dedicated leader-election algorithm `(D_G, f_G)` of one
//! configuration, compiled, and its one run path.

use std::sync::Arc;

use radio_graph::{Configuration, NodeId};
use radio_sim::{ModelKind, ResidentRun, RunOpts, SimError, SimWorkspace};

use crate::api::{ElectError, ElectionReport};
use crate::canonical::{CanonicalFactory, CanonicalNodes};
use crate::decision::LeaderDecision;
use crate::schedule::{CanonicalSchedule, SharedSchedule};
use radio_classifier::{ClassifierWorkspace, ClassifySummary};

/// The dedicated leader-election algorithm compiled for one configuration:
/// the canonical DRIP `D_G` and its decision function `f_G`
/// (Theorem 3.15), held as the classifier's lean summary plus the compiled
/// schedule behind its shared [`Arc`].
///
/// This is what the classify + compile pipeline actually *produces* — and
/// therefore what the [`ScheduleCache`](crate::ScheduleCache) stores and
/// shares: cloning a `CompiledElection` copies a `Copy` summary and bumps
/// one `Arc` count, never the canonical lists. It borrows the
/// configuration it runs on instead of storing a copy.
///
/// A `CompiledElection` exists for infeasible configurations too (the
/// canonical DRIP is well-defined there; only the leader is absent) —
/// check [`CompiledElection::feasible`] before asking for the leader, or
/// compile through [`solve`](crate::solve), which rejects them.
///
/// Every election runs through one simulate step: [`CompiledElection::run_in`]
/// for one-shot and served elections, the campaign's
/// [`election_metrics_batched`](crate::campaign::election_metrics_batched)
/// for campaign runs. Callers that want the full [`Execution`](radio_sim::Execution)
/// run [`CompiledElection::factory`] through the executor themselves.
#[derive(Debug, Clone)]
pub struct CompiledElection {
    summary: ClassifySummary,
    schedule: SharedSchedule,
}

impl CompiledElection {
    /// Classifies `config` through a caller-provided workspace and
    /// compiles its schedule — the canonical lists stream out of the run
    /// (see [`CanonicalSchedule::build_in`]); nothing is cloned.
    pub fn compile_in(
        workspace: &mut ClassifierWorkspace,
        config: &Configuration,
    ) -> CompiledElection {
        let (summary, schedule) = CanonicalSchedule::build_in(workspace, config);
        CompiledElection {
            summary,
            schedule: Arc::new(schedule),
        }
    }

    /// The classifier summary (feasibility, iterations, class count,
    /// leader class).
    pub fn summary(&self) -> ClassifySummary {
        self.summary
    }

    /// Whether the configuration admits leader election.
    pub fn feasible(&self) -> bool {
        self.summary.feasible
    }

    /// The compiled schedule (σ, lists, phase geometry).
    pub fn schedule(&self) -> &CanonicalSchedule {
        &self.schedule
    }

    /// The schedule's shared handle (one `Arc` bump, no list copy).
    pub fn shared_schedule(&self) -> SharedSchedule {
        self.schedule.clone()
    }

    /// The DRIP factory (`D_G`) in the mode that re-reads each node's
    /// stored history — install at every node of an executor run that
    /// materializes an [`Execution`](radio_sim::Execution).
    pub fn factory(&self) -> CanonicalFactory {
        CanonicalFactory::new(self.schedule.clone())
    }

    /// The decision function (`f_G`), the oracle the streaming verdicts
    /// are tested against.
    pub fn decision(&self) -> LeaderDecision {
        LeaderDecision::new(self.schedule.clone())
    }

    /// The leader `Classifier` predicts: the representative of the
    /// singleton leader class.
    ///
    /// # Panics
    /// Panics when the configuration is infeasible (no leader class).
    pub fn predicted_leader(&self) -> NodeId {
        self.summary.leader.expect("feasible ⇒ leader class rep")
    }

    /// The number of local rounds until every node terminates
    /// (`r_T + 1` — the `O(n²σ)` bound of Lemma 3.10 applies).
    pub fn rounds_bound(&self) -> u64 {
        self.schedule.done_local()
    }

    /// The simulate step: runs `D_G` on `config` resident in `workspace`
    /// under `model`, and returns the nodes that claimed leadership with
    /// the run summary. Every election takes it — [`run_in`](Self::run_in)
    /// validates its result; campaigns count it.
    ///
    /// The nodes are flat per-node arrays over the borrowed schedule (the
    /// run spawns no boxes). Each folds every observation into a match
    /// cursor as it lands and resolves its leader verdict itself at
    /// termination, so the engine stores no observation content at all —
    /// only per-node history lengths. This removes the dominant memory
    /// term of dense-neighbourhood elections (each stored heard-event
    /// costs 24 B; a 10⁶-node bipartite run stores ~10⁸ of them). The
    /// claims are exactly `f_G`'s verdicts, under every channel model:
    /// the cursor walks the same list entries the decision replay compares
    /// against.
    pub fn simulate_in(
        &self,
        workspace: &mut SimWorkspace,
        config: &Configuration,
        model: ModelKind,
        opts: RunOpts,
    ) -> Result<(Vec<NodeId>, ResidentRun), SimError> {
        let mut nodes = CanonicalNodes::new(&self.schedule, config.size());
        let run = workspace.run_nodes(model, config, &mut nodes, opts)?;
        Ok((nodes.leaders(), run))
    }

    /// Simulates `(D_G, f_G)` on `config` — which must be the
    /// configuration this algorithm was compiled for — through a
    /// caller-provided [`SimWorkspace`], and returns a validated report.
    ///
    /// The canonical DRIP's correctness proof (Theorem 3.15) only covers
    /// the paper's model — the default [`ModelKind::NoCollisionDetection`].
    /// Under a foreign channel the run is still deterministic and total,
    /// but the exactly-one-leader contract may fail, surfacing as
    /// [`ElectError::Contract`] or [`ElectError::PredictionMismatch`].
    /// The engine time-leaps the schedule's silent stretches.
    pub fn run_in(
        &self,
        workspace: &mut SimWorkspace,
        config: &Configuration,
        model: ModelKind,
        opts: RunOpts,
    ) -> Result<ElectionReport, ElectError> {
        let (leaders, run) =
            self.simulate_in(workspace, config, model, opts)
                .map_err(|e| match e {
                    SimError::RoundLimit {
                        max_rounds,
                        still_running,
                    } => ElectError::RoundLimit {
                        max_rounds,
                        still_running,
                    },
                })?;
        let &[leader] = leaders.as_slice() else {
            return Err(ElectError::Contract { leaders });
        };
        let predicted = self.predicted_leader();
        if leader != predicted {
            return Err(ElectError::PredictionMismatch {
                elected: leader,
                predicted,
            });
        }
        Ok(ElectionReport {
            leader,
            n: config.size(),
            sigma: config.span(),
            phases: self.schedule.phases(),
            rounds_local: self.schedule.done_local(),
            completion_round: run.completion_round,
            transmissions: run.stats.transmissions,
            rounds_stepped: run.rounds_stepped,
            rounds_leapt: run.rounds_leapt,
            decides: run.decides,
            horizon_queries: run.horizon_queries,
            deliveries: run.stats.messages_received + run.stats.collisions_observed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::{families, generators, tags, Configuration};

    fn elect(config: &Configuration) -> (CompiledElection, ElectionReport) {
        let compiled = crate::solve(config).expect("feasible");
        (compiled, crate::elect_leader(config).expect("elects"))
    }

    #[test]
    fn solve_rejects_infeasible() {
        let err = crate::solve(&families::s_m(2)).unwrap_err();
        assert_eq!(err.iterations, 2);
    }

    #[test]
    fn h_m_elects_node_a() {
        for m in [1u64, 3, 10] {
            let (d, report) = elect(&families::h_m(m));
            assert_eq!(d.predicted_leader(), 0);
            assert_eq!(report.leader, 0, "H_{m}");
            assert_eq!(report.n, 4);
            assert_eq!(report.phases, 1);
        }
    }

    #[test]
    fn g_m_elects_some_unique_node() {
        for m in [2usize, 3] {
            let (d, report) = elect(&families::g_m(m));
            // Classifier's singleton class contains the centre... the
            // smallest singleton may be another separated node; what the
            // contract guarantees is *uniqueness* and prediction agreement.
            assert_eq!(report.leader, d.predicted_leader());
            assert_eq!(report.phases, m);
        }
    }

    #[test]
    fn rounds_respect_the_n2_sigma_bound() {
        let mut rng = radio_util::rng::rng_from(5);
        for _ in 0..10 {
            let g = generators::gnp_connected(8, 0.3, &mut rng);
            let c = tags::distinct_shuffled(g, &mut rng);
            let (_, report) = elect(&c);
            let n = report.n as u64;
            let sigma = report.sigma.max(1);
            // Lemma 3.10: ⌈n/2⌉ phases × (n blocks × (2σ+1) + σ) rounds.
            let bound = n.div_ceil(2) * (n * (2 * sigma + 1) + sigma) + 1;
            assert!(
                report.rounds_local <= bound,
                "rounds {} exceed bound {bound}",
                report.rounds_local
            );
        }
    }

    #[test]
    fn compiled_election_exists_for_infeasible_configurations() {
        let mut ws = radio_classifier::ClassifierWorkspace::new();
        let compiled = CompiledElection::compile_in(&mut ws, &families::s_m(2));
        assert!(!compiled.feasible());
        assert_eq!(compiled.summary().iterations, 2);
        // the schedule is well-defined; only the leader class is absent
        assert!(compiled.schedule().lists.leader_class.is_none());
        assert!(compiled.rounds_bound() >= 1);
    }

    #[test]
    fn shared_schedule_is_shared_not_copied() {
        let mut ws = radio_classifier::ClassifierWorkspace::new();
        let compiled = CompiledElection::compile_in(&mut ws, &families::h_m(2));
        let a = compiled.shared_schedule();
        let clone = compiled.clone();
        let b = clone.shared_schedule();
        assert!(Arc::ptr_eq(&a, &b), "clones share one schedule allocation");
    }

    #[test]
    fn singleton_graph_elects_its_node() {
        let c = Configuration::new(generators::path(1), vec![0]).unwrap();
        let (_, report) = elect(&c);
        assert_eq!(report.leader, 0);
        assert_eq!(report.n, 1);
    }
}
