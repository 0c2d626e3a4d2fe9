//! Proposition 4.5: no distributed algorithm decides feasibility — made
//! executable.
//!
//! A hypothetical distributed decision algorithm would make all nodes
//! output "yes" on feasible configurations and some node output "no" on
//! infeasible ones. The paper kills this with an indistinguishability
//! argument: for any DRIP, let `t` be the first round in which the tag-0
//! nodes transmit; then every node's history on the *feasible* `H_{t+1}`
//! (tags `t+1, 0, 0, t+2`) is identical to its counterpart's on the
//! *infeasible* `S_{t+1}` (tags `t+1, 0, 0, t+1`) — the two configurations
//! differ only in node `d`'s tag, which in both cases is pre-empted by the
//! forced wake-up at round `t`. Identical histories force identical
//! verdicts, so any verdict is wrong on one of the two.
//!
//! [`refute_distributed_decision`] produces this evidence for any DRIP.

use radio_sim::{DripFactory, Executor, History, RunOpts};

use crate::universal::silence_breaking_round;
use radio_graph::families;

/// Evidence that a DRIP cannot power a distributed feasibility decision.
#[derive(Debug)]
pub struct DecisionRefutation {
    /// The DRIP's silence-breaking round.
    pub t: u64,
    /// Index of the configuration pair: `H_{t+1}` vs `S_{t+1}`.
    pub m: u64,
    /// `H_m` is feasible (checked via `Classifier`).
    pub h_feasible: bool,
    /// `S_m` is infeasible (checked via `Classifier`).
    pub s_feasible: bool,
    /// Per-node history equality across the two executions.
    pub histories_identical: [bool; 4],
    /// The four histories on `H_m` (for reporting).
    pub h_histories: Vec<History>,
    /// The four histories on `S_m`.
    pub s_histories: Vec<History>,
}

impl DecisionRefutation {
    /// True when the evidence is complete: the pair differs in feasibility
    /// yet every node's history coincides.
    pub fn is_conclusive(&self) -> bool {
        self.h_feasible && !self.s_feasible && self.histories_identical.iter().all(|&b| b)
    }
}

/// Failure modes of the refutation construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefuteError {
    /// The DRIP never transmits on silent histories; it cannot gather any
    /// information to decide anything (all histories are all-silent on
    /// every `H_m`/`S_m`, which is itself an indistinguishability proof,
    /// but there is no round `t` to exhibit).
    NeverTransmits {
        /// Rounds probed.
        probed_rounds: u64,
    },
    /// The simulation exceeded its round budget.
    Simulation(String),
}

/// Runs the Proposition 4.5 construction against a DRIP.
pub fn refute_distributed_decision(
    factory: &dyn DripFactory,
    probe_limit: u64,
) -> Result<DecisionRefutation, RefuteError> {
    let t = silence_breaking_round(factory, probe_limit).ok_or(RefuteError::NeverTransmits {
        probed_rounds: probe_limit,
    })?;
    let m = t + 1;
    let h = families::h_m(m);
    let s = families::s_m(m);

    let opts = RunOpts::with_max_rounds(8 * (probe_limit + m) + 64);
    let ex_h =
        Executor::run(&h, factory, opts).map_err(|e| RefuteError::Simulation(e.to_string()))?;
    let ex_s =
        Executor::run(&s, factory, opts).map_err(|e| RefuteError::Simulation(e.to_string()))?;

    let histories_identical =
        core::array::from_fn(|v| ex_h.history(v as u32) == ex_s.history(v as u32));

    Ok(DecisionRefutation {
        t,
        m,
        h_feasible: radio_classifier::classify(&h).feasible,
        s_feasible: radio_classifier::classify(&s).feasible,
        histories_identical,
        h_histories: ex_h.histories,
        s_histories: ex_s.histories,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::drip::{SilentFactory, WaitThenTransmitFactory};
    use radio_sim::Msg;

    #[test]
    fn wait_then_transmit_is_refuted() {
        for wait in [0u64, 2, 6] {
            let f = WaitThenTransmitFactory {
                wait,
                msg: Msg::ONE,
                lifetime: wait + 12,
            };
            let r = refute_distributed_decision(&f, 1_000).unwrap();
            assert_eq!(r.t, wait + 1);
            assert!(r.is_conclusive(), "wait={wait}: {r:?}");
            assert!(r.h_feasible && !r.s_feasible);
        }
    }

    #[test]
    fn canonical_drip_of_h1_is_refuted() {
        // Even the paper's own dedicated DRIP cannot power a distributed
        // feasibility decision.
        let dedicated = crate::solve(&families::h_m(1)).unwrap();
        let factory = dedicated.factory();
        let r = refute_distributed_decision(&factory, 1_000).unwrap();
        assert!(r.is_conclusive(), "{r:?}");
    }

    #[test]
    fn silent_drips_cannot_be_probed() {
        let f = SilentFactory { lifetime: 4 };
        let err = refute_distributed_decision(&f, 50).unwrap_err();
        assert_eq!(err, RefuteError::NeverTransmits { probed_rounds: 50 });
    }

    #[test]
    fn histories_report_matches_flags() {
        let f = WaitThenTransmitFactory {
            wait: 1,
            msg: Msg::ONE,
            lifetime: 10,
        };
        let r = refute_distributed_decision(&f, 100).unwrap();
        for v in 0..4usize {
            assert_eq!(
                r.h_histories[v] == r.s_histories[v],
                r.histories_identical[v]
            );
        }
    }
}
