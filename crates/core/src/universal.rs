//! Proposition 4.4: no universal distributed leader-election algorithm
//! exists, even for 4-node feasible configurations — made executable.
//!
//! The paper's argument is constructive given *any* candidate: every
//! anonymous DRIP has a characteristic round `t` — the first local round in
//! which a node whose history is pure silence transmits (if no such round
//! exists, the DRIP never breaks silence and fails everywhere). On the
//! feasible configuration `H_{t+1}` (tags `a = t+1`, `b = c = 0`,
//! `d = t+2`), nodes `b` and `c` march in lock-step to their first
//! transmission at global round `t`, which *force-wakes* `a` and `d`
//! simultaneously — one round before either tag would have fired. From
//! then on the execution is mirror-symmetric (`a↔d`, `b↔c`): the history
//! pairs stay equal forever, so any decision function marks 0, 2 or 4
//! leaders — never exactly one.
//!
//! [`refute_universal`] runs this construction against a candidate and
//! returns the full evidence; [`gallery`] provides a spread of plausible
//! universal candidates (including the paper's own dedicated algorithm for
//! `H_1`, misused universally) that the experiments table E6 refutes one by
//! one.

use radio_graph::{families, Configuration, NodeId};
use radio_sim::{
    run_election, run_election_model, Action, DripFactory, History, HistoryView, LeaderAlgorithm,
    Msg, PureFactory, RadioModel, RunOpts,
};

/// A candidate universal leader-election algorithm: a DRIP plus a decision
/// function, both configuration-independent.
pub struct UniversalCandidate {
    /// Display name for tables.
    pub name: String,
    /// The protocol.
    pub factory: Box<dyn DripFactory + Send>,
    /// The decision function.
    pub decide: Box<dyn Fn(&History) -> bool + Send + Sync>,
}

/// The evidence refuting one candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refutation {
    /// The DRIP never transmits on an all-silent history: it cannot break
    /// symmetry anywhere (no node ever hears anything on any `H_m`).
    NeverTransmits {
        /// How many silent rounds were probed before giving up.
        probed_rounds: u64,
    },
    /// The constructed counterexample: `H_{t+1}` with the evidence of
    /// failure.
    FailsOn {
        /// The candidate's characteristic silence-breaking round.
        t: u64,
        /// The failing configuration's index `m = t+1` (i.e. `H_m`).
        m: u64,
        /// Nodes the candidate's decision function marked as leaders on
        /// `H_m` — by symmetry never exactly one.
        leaders: Vec<NodeId>,
        /// Whether histories of `a`/`d` were equal, and of `b`/`c`.
        symmetric_pairs: [bool; 2],
    },
}

impl Refutation {
    /// True when the refutation evidence is complete: either the DRIP is
    /// silent forever, or the leader count is not 1 *and* the symmetric
    /// history pairs coincide.
    pub fn is_conclusive(&self) -> bool {
        match self {
            Refutation::NeverTransmits { .. } => true,
            Refutation::FailsOn {
                leaders,
                symmetric_pairs,
                ..
            } => leaders.len() != 1 && symmetric_pairs.iter().all(|&b| b),
        }
    }
}

/// Finds the candidate's characteristic round `t`: the first local round in
/// which a node with an all-silent history transmits. Returns `None` if the
/// node terminates first or `probe_limit` rounds pass.
pub fn silence_breaking_round(factory: &dyn DripFactory, probe_limit: u64) -> Option<u64> {
    let mut node = factory.spawn();
    let mut history = History::from_entries(vec![radio_sim::Obs::Silence]); // spontaneous wake
    for i in 1..=probe_limit {
        match node.decide(history.view()) {
            Action::Transmit(_) => return Some(i),
            Action::Terminate => return None,
            Action::Listen => history.push(radio_sim::Obs::Silence),
        }
    }
    None
}

/// Runs the Proposition 4.4 construction against a candidate.
///
/// `probe_limit` bounds the search for `t` (a candidate that stays silent
/// longer is refuted as [`Refutation::NeverTransmits`], which is sound: its
/// election time on any `H_m` would exceed the probe limit anyway, and a
/// DRIP that *never* transmits fails on every `H_m`).
pub fn refute_universal(candidate: &UniversalCandidate, probe_limit: u64) -> Refutation {
    refute_universal_model::<radio_sim::NoCollisionDetection>(candidate, probe_limit)
}

/// [`refute_universal`] under an explicit channel model.
///
/// The mirror-symmetry argument is channel-agnostic: whatever the model
/// delivers to `a` it delivers to `d` (and to `b` what it delivers to
/// `c`), so the symmetric-pair evidence survives any [`RadioModel`].
pub fn refute_universal_model<M: RadioModel>(
    candidate: &UniversalCandidate,
    probe_limit: u64,
) -> Refutation {
    let t = match silence_breaking_round(candidate.factory.as_ref(), probe_limit) {
        Some(t) => t,
        None => {
            return Refutation::NeverTransmits {
                probed_rounds: probe_limit,
            }
        }
    };
    let m = t + 1;
    let config = families::h_m(m);
    debug_assert!(
        radio_classifier::summarize(&config).feasible,
        "H_m is feasible (Lemma 4.2)"
    );

    let algorithm = LeaderAlgorithm {
        drip: candidate.factory.as_ref(),
        decide: &|h: &History| (candidate.decide)(h),
    };
    // Generous limit: the candidate terminated its probe node within
    // probe_limit rounds of silence; give the real run ample room.
    let opts = RunOpts::with_max_rounds(8 * (probe_limit + m) + 64);
    let outcome = run_election_model::<M>(&config, &algorithm, opts)
        .expect("candidate DRIPs must terminate within the probe-derived bound");

    let ex = &outcome.execution;
    let symmetric_pairs = [
        ex.history(0) == ex.history(3),
        ex.history(1) == ex.history(2),
    ];
    Refutation::FailsOn {
        t,
        m,
        leaders: outcome.leaders,
        symmetric_pairs,
    }
}

/// A spread of natural universal candidates, each of which solves leader
/// election on *some* configurations — and each of which Proposition 4.4's
/// construction defeats.
pub fn gallery() -> Vec<UniversalCandidate> {
    let mut candidates: Vec<UniversalCandidate> = Vec::new();

    // 1. Claim-by-silence(k): listen k−1 rounds; if still all-silent,
    //    transmit in round k; leader iff the first k entries are silent.
    for k in [1u64, 5] {
        let lifetime = k + 8;
        candidates.push(UniversalCandidate {
            name: format!("claim-by-silence({k})"),
            factory: Box::new(PureFactory::new(
                format!("claim-by-silence({k})"),
                move |h: HistoryView| {
                    let i = h.len() as u64;
                    if i >= lifetime {
                        Action::Terminate
                    } else if i == k && h.all_silent() {
                        Action::Transmit(Msg::ONE)
                    } else {
                        Action::Listen
                    }
                },
            )),
            decide: Box::new(move |h: &History| {
                h.as_slice()
                    .iter()
                    .take(k as usize + 1)
                    .all(|o| o.is_silence())
            }),
        });
    }

    // 2. First-voice: spontaneous wakers shout immediately; forced wakers
    //    stay silent. Leader iff you woke spontaneously and never heard a
    //    message afterwards.
    candidates.push(UniversalCandidate {
        name: "first-voice".into(),
        factory: Box::new(PureFactory::new("first-voice", |h: HistoryView| {
            let i = h.len() as u64;
            if i >= 10 {
                Action::Terminate
            } else if i == 1 && h[0].is_silence() {
                Action::Transmit(Msg::ONE)
            } else {
                Action::Listen
            }
        })),
        decide: Box::new(|h: &History| h[0].is_silence() && h.first_message().is_none()),
    });

    // 3. Binary backoff: transmit at rounds 1, 2, 4, 8 while all-silent;
    //    leader iff still all-silent at round 12.
    candidates.push(UniversalCandidate {
        name: "binary-backoff".into(),
        factory: Box::new(PureFactory::new("binary-backoff", |h: HistoryView| {
            let i = h.len() as u64;
            if i >= 12 {
                Action::Terminate
            } else if h.all_silent() && i.is_power_of_two() && i <= 8 {
                Action::Transmit(Msg::ONE)
            } else {
                Action::Listen
            }
        })),
        decide: Box::new(|h: &History| h.all_silent()),
    });

    // 4. Relay-flood: everyone transmits once in their first round (be it
    //    after spontaneous or forced wake-up); leader iff woken
    //    spontaneously — "the sources claim".
    candidates.push(UniversalCandidate {
        name: "relay-flood".into(),
        factory: Box::new(PureFactory::new("relay-flood", |h: HistoryView| {
            let i = h.len() as u64;
            if i >= 8 {
                Action::Terminate
            } else if i == 1 {
                Action::Transmit(Msg::ONE)
            } else {
                Action::Listen
            }
        })),
        decide: Box::new(|h: &History| h[0].is_silence()),
    });

    // 5. The paper's own dedicated algorithm for H_1, misused as if it
    //    were universal: dedicated ≠ universal.
    let h1 = families::h_m(1);
    let dedicated = crate::solve(&h1).expect("H_1 is feasible");
    let decision = dedicated.decision();
    candidates.push(UniversalCandidate {
        name: "dedicated-H1-misused".into(),
        factory: Box::new(dedicated.factory()),
        decide: Box::new(move |h: &History| decision.is_leader(h)),
    });

    candidates
}

/// Convenience wrapper: refute every gallery candidate. Used by the E6
/// experiment and the negative-result integration tests.
pub fn refute_gallery(probe_limit: u64) -> Vec<(String, Refutation)> {
    gallery()
        .into_iter()
        .map(|c| {
            let r = refute_universal(&c, probe_limit);
            (c.name, r)
        })
        .collect()
}

/// Checks that a candidate does solve leader election on a specific
/// configuration (sanity: gallery members are not strawmen — each works
/// somewhere).
pub fn works_on(candidate: &UniversalCandidate, config: &Configuration) -> bool {
    let algorithm = LeaderAlgorithm {
        drip: candidate.factory.as_ref(),
        decide: &|h: &History| (candidate.decide)(h),
    };
    match run_election(config, &algorithm, RunOpts::with_max_rounds(100_000)) {
        Ok(outcome) => outcome.is_valid(),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generators;

    #[test]
    fn probe_finds_silence_breaking_round() {
        let gallery = gallery();
        // claim-by-silence(1) transmits at local round 1
        assert_eq!(
            silence_breaking_round(gallery[0].factory.as_ref(), 100),
            Some(1)
        );
        // claim-by-silence(5) at round 5
        assert_eq!(
            silence_breaking_round(gallery[1].factory.as_ref(), 100),
            Some(5)
        );
        // dedicated-H1 (σ=2): first transmission at σ+1 = 3
        let dedicated = gallery
            .iter()
            .find(|c| c.name == "dedicated-H1-misused")
            .unwrap();
        assert_eq!(
            silence_breaking_round(dedicated.factory.as_ref(), 100),
            Some(3)
        );
    }

    #[test]
    fn probe_detects_silent_drips() {
        let silent = radio_sim::drip::SilentFactory { lifetime: 5 };
        assert_eq!(silence_breaking_round(&silent, 100), None);
    }

    #[test]
    fn every_gallery_candidate_is_refuted() {
        for (name, refutation) in refute_gallery(1_000) {
            assert!(refutation.is_conclusive(), "{name}: {refutation:?}");
            match refutation {
                Refutation::FailsOn {
                    leaders,
                    symmetric_pairs,
                    m,
                    ..
                } => {
                    assert_ne!(
                        leaders.len(),
                        1,
                        "{name} must not elect exactly one on H_{m}"
                    );
                    assert!(symmetric_pairs[0], "{name}: H_a must equal H_d");
                    assert!(symmetric_pairs[1], "{name}: H_b must equal H_c");
                }
                Refutation::NeverTransmits { .. } => {
                    panic!("{name}: gallery candidates all transmit eventually")
                }
            }
        }
    }

    #[test]
    fn candidates_are_not_strawmen() {
        // Each candidate genuinely elects a leader on some configuration:
        // the generic ones on a strongly asymmetric 2-path, the misused
        // dedicated algorithm on its own configuration H_1.
        let asym = Configuration::new(generators::path(2), vec![0, 7]).unwrap();
        for c in gallery() {
            let works_somewhere = if c.name == "dedicated-H1-misused" {
                works_on(&c, &families::h_m(1))
            } else {
                works_on(&c, &asym)
            };
            assert!(
                works_somewhere,
                "{} should solve election somewhere",
                c.name
            );
        }
    }

    #[test]
    fn refutation_counterexample_is_feasible() {
        // The failing configuration must itself be feasible — that is the
        // point of Proposition 4.4.
        let gallery = gallery();
        for c in &gallery {
            if let Refutation::FailsOn { m, .. } = refute_universal(c, 1_000) {
                assert!(crate::api::is_feasible(&families::h_m(m)));
            }
        }
    }
}
