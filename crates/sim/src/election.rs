//! Leader election = DRIP + decision function (paper Section 2.3).
//!
//! A *dedicated leader election algorithm* for a configuration `G` is a pair
//! `(D, f)`: a DRIP `D` and a decision function `f` mapping each node's
//! final history `H[0..done]` to 0 or 1, such that exactly one node of `G`
//! maps to 1. [`run_election`] executes the pair and reports which nodes
//! declared themselves leader; the contract is validated by the caller via
//! [`ElectionOutcome::elected`].

use radio_graph::{Configuration, NodeId};

use crate::drip::DripFactory;
use crate::engine::{Execution, Executor, RunOpts, SimError};
use crate::history::History;
use crate::model::{NoCollisionDetection, RadioModel};

/// A leader-election algorithm: the DRIP and its decision function.
pub struct LeaderAlgorithm<'a> {
    /// The communication protocol.
    pub drip: &'a dyn DripFactory,
    /// The decision function `f`: final local history → leader?
    pub decide: &'a (dyn Fn(&History) -> bool + Sync),
}

/// The outcome of running a leader-election algorithm.
#[derive(Debug)]
pub struct ElectionOutcome {
    /// Nodes whose decision function returned 1.
    pub leaders: Vec<NodeId>,
    /// The underlying execution (histories, rounds, stats).
    pub execution: Execution,
}

impl ElectionOutcome {
    /// The elected leader, if the algorithm satisfied the exactly-one
    /// contract.
    pub fn elected(&self) -> Option<NodeId> {
        match self.leaders.as_slice() {
            [v] => Some(*v),
            _ => None,
        }
    }

    /// True iff exactly one node declared itself leader.
    pub fn is_valid(&self) -> bool {
        self.leaders.len() == 1
    }

    /// Global round by which every node had terminated — the algorithm's
    /// running time.
    pub fn completion_round(&self) -> u64 {
        self.execution.done_round.iter().copied().max().unwrap_or(0)
    }
}

/// Runs `(D, f)` on `config` under the paper's channel model.
pub fn run_election(
    config: &Configuration,
    algorithm: &LeaderAlgorithm<'_>,
    opts: RunOpts,
) -> Result<ElectionOutcome, SimError> {
    run_election_model::<NoCollisionDetection>(config, algorithm, opts)
}

/// [`run_election`] under an explicit channel model `M`.
pub fn run_election_model<M: RadioModel>(
    config: &Configuration,
    algorithm: &LeaderAlgorithm<'_>,
    opts: RunOpts,
) -> Result<ElectionOutcome, SimError> {
    let execution = Executor::run_model::<M>(config, algorithm.drip, opts)?;
    let leaders = (0..config.size() as NodeId)
        .filter(|&v| (algorithm.decide)(execution.history(v)))
        .collect();
    Ok(ElectionOutcome { leaders, execution })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drip::WaitThenTransmitFactory;
    use crate::msg::Msg;
    use radio_graph::generators;

    #[test]
    fn election_by_forced_wakeup_history() {
        // Path 0-1 with tags 0, 5: node 0 transmits at global 1, waking
        // node 1. Decide: leader iff your history starts with a message
        // (i.e. you were woken). Exactly node 1 qualifies.
        let c = Configuration::new(generators::path(2), vec![0, 5]).unwrap();
        let drip = WaitThenTransmitFactory {
            wait: 0,
            msg: Msg(1),
            lifetime: 10,
        };
        let algo = LeaderAlgorithm {
            drip: &drip,
            decide: &|h: &History| h[0].is_message(),
        };
        let out = run_election(&c, &algo, RunOpts::default()).unwrap();
        assert_eq!(out.leaders, vec![1]);
        assert_eq!(out.elected(), Some(1));
        assert!(out.is_valid());
        assert_eq!(out.completion_round(), 11); // node 1 woke at 1, done at local 10
    }

    #[test]
    fn symmetric_history_elects_nobody_or_everybody() {
        // Uniform tags on a cycle: all histories identical, so any f maps
        // all nodes to the same bit → never exactly one leader.
        let c = Configuration::new(generators::cycle(4), vec![2; 4]).unwrap();
        let drip = WaitThenTransmitFactory {
            wait: 0,
            msg: Msg(1),
            lifetime: 6,
        };
        let all = LeaderAlgorithm {
            drip: &drip,
            decide: &|_h: &History| true,
        };
        let out = run_election(&c, &all, RunOpts::default()).unwrap();
        assert_eq!(out.leaders.len(), 4);
        assert!(!out.is_valid());
        assert_eq!(out.elected(), None);
        let none = LeaderAlgorithm {
            drip: &drip,
            decide: &|_h: &History| false,
        };
        let out = run_election(&c, &none, RunOpts::default()).unwrap();
        assert!(out.leaders.is_empty());
        assert!(!out.is_valid());
    }
}
