//! Top-level convenience API: feasibility, solving, and one-call election.

use radio_graph::{Configuration, NodeId};
use radio_sim::{ModelKind, RunOpts, SimWorkspace};

use crate::dedicated::CompiledElection;

/// The configuration admits no deterministic leader-election algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Infeasible {
    /// The iteration at which `Classifier` found the partition stable.
    pub iterations: usize,
}

impl std::fmt::Display for Infeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "configuration is infeasible (partition stabilized after {} iteration(s))",
            self.iterations
        )
    }
}

impl std::error::Error for Infeasible {}

/// Failure while running a dedicated election.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElectError {
    /// The simulator hit its round budget before every node terminated —
    /// the structured deadline surface (`RunOpts::max_rounds` is the
    /// per-job deadline knob of the serve layer).
    RoundLimit {
        /// The budget that ran out.
        max_rounds: u64,
        /// Nodes still running when it did.
        still_running: usize,
    },
    /// The simulator aborted for any other reason (e.g. the configuration
    /// turned out infeasible at solve time).
    Simulation(String),
    /// The decision function did not mark exactly one node — a broken
    /// invariant for a feasible configuration.
    Contract {
        /// Nodes that claimed leadership.
        leaders: Vec<NodeId>,
    },
    /// The elected node differs from `Classifier`'s prediction — a broken
    /// invariant.
    PredictionMismatch {
        /// Node the simulation elected.
        elected: NodeId,
        /// Node the classifier predicted.
        predicted: NodeId,
    },
}

impl std::fmt::Display for ElectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElectError::RoundLimit {
                max_rounds,
                still_running,
            } => write!(
                f,
                "simulation failed: round limit {max_rounds} reached with {still_running} \
                 node(s) still running"
            ),
            ElectError::Simulation(msg) => write!(f, "simulation failed: {msg}"),
            ElectError::Contract { leaders } => {
                write!(
                    f,
                    "decision function marked {} nodes: {leaders:?}",
                    leaders.len()
                )
            }
            ElectError::PredictionMismatch { elected, predicted } => {
                write!(
                    f,
                    "elected v{elected} but classifier predicted v{predicted}"
                )
            }
        }
    }
}

impl std::error::Error for ElectError {}

impl From<Infeasible> for ElectError {
    fn from(e: Infeasible) -> ElectError {
        ElectError::Simulation(e.to_string())
    }
}

/// Summary of a successful dedicated election run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElectionReport {
    /// The elected node.
    pub leader: NodeId,
    /// Configuration size `n`.
    pub n: usize,
    /// Configuration span `σ`.
    pub sigma: u64,
    /// Number of phases `T` the canonical DRIP ran.
    pub phases: usize,
    /// Local rounds until termination (`r_T + 1`; the `O(n²σ)` quantity).
    pub rounds_local: u64,
    /// Global round by which every node had terminated.
    pub completion_round: u64,
    /// Total transmissions over the run (= `n · T`).
    pub transmissions: u64,
    /// Global rounds the engine executed one by one (see
    /// [`radio_sim::Execution::rounds_stepped`]).
    pub rounds_stepped: u64,
    /// Global rounds the time-leap scheduler skipped as provably quiet.
    pub rounds_leapt: u64,
    /// Node visits that decided an action (see
    /// [`radio_sim::ResidentRun::decides`]).
    pub decides: u64,
    /// Horizon queries the engine made (see
    /// [`radio_sim::ResidentRun::horizon_queries`]).
    pub horizon_queries: u64,
}

/// Decides feasibility of leader election on `config` (Theorem 3.17).
///
/// Routed through the record-free classifier path: nothing but the
/// verdict is materialized. For repeated decisions hold a
/// [`ClassifierWorkspace`](radio_classifier::ClassifierWorkspace) and use
/// [`is_feasible_in`].
pub fn is_feasible(config: &Configuration) -> bool {
    radio_classifier::summarize(config).feasible
}

/// [`is_feasible`] through a caller-provided
/// [`ClassifierWorkspace`](radio_classifier::ClassifierWorkspace) — the
/// batch path: one workspace per worker thread makes back-to-back
/// feasibility decisions allocation-free.
pub fn is_feasible_in(
    workspace: &mut radio_classifier::ClassifierWorkspace,
    config: &Configuration,
) -> bool {
    workspace.summarize_in(config).feasible
}

/// Compiles the dedicated leader-election algorithm `(D_G, f_G)` for a
/// feasible configuration (Theorem 3.15); [`Infeasible`] otherwise.
/// Run the result with [`CompiledElection::run_in`].
pub fn solve(config: &Configuration) -> Result<CompiledElection, Infeasible> {
    let compiled =
        CompiledElection::compile_in(&mut radio_classifier::ClassifierWorkspace::new(), config);
    if !compiled.feasible() {
        return Err(Infeasible {
            iterations: compiled.summary().iterations,
        });
    }
    Ok(compiled)
}

/// One call: classify, compile, simulate, validate under the paper's
/// model — returns the elected leader and run metrics. Callers choosing a
/// model, executor options or a recycled workspace hold the
/// [`CompiledElection`] and call [`CompiledElection::run_in`].
pub fn elect_leader(config: &Configuration) -> Result<ElectionReport, ElectError> {
    solve(config)?.run_in(
        &mut SimWorkspace::new(),
        config,
        ModelKind::default(),
        RunOpts::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::{families, generators, Configuration};

    #[test]
    fn feasibility_shortcuts() {
        assert!(is_feasible(&families::h_m(2)));
        assert!(!is_feasible(&families::s_m(2)));
        let mut ws = radio_classifier::ClassifierWorkspace::new();
        assert!(is_feasible_in(&mut ws, &families::h_m(2)));
        assert!(!is_feasible_in(&mut ws, &families::s_m(2)));
    }

    #[test]
    fn elect_leader_end_to_end() {
        let report = elect_leader(&families::h_m(4)).unwrap();
        assert_eq!(report.leader, 0);
        assert_eq!(report.transmissions, 4, "n · T = 4 · 1");
    }

    #[test]
    fn elect_leader_on_infeasible_is_an_error() {
        let err = elect_leader(&families::s_m(1)).unwrap_err();
        assert!(matches!(err, ElectError::Simulation(_)));
        assert!(err.to_string().contains("infeasible"));
    }

    #[test]
    fn error_displays_are_informative() {
        let e = ElectError::Contract {
            leaders: vec![1, 2],
        };
        assert!(e.to_string().contains("2 nodes"));
        let e = ElectError::PredictionMismatch {
            elected: 3,
            predicted: 1,
        };
        assert!(e.to_string().contains("v3"));
        assert!(e.to_string().contains("v1"));
        let i = Infeasible { iterations: 2 };
        assert!(i.to_string().contains("2 iteration"));
    }

    #[test]
    fn feasible_iff_shift_invariant() {
        let base = Configuration::new(generators::path(3), vec![0, 2, 1]).unwrap();
        let shifted = base.shift_tags(7);
        assert_eq!(is_feasible(&base), is_feasible(&shifted.normalize()));
    }
}
