//! Integration tests for the paper's Section 4: the lower bounds and
//! impossibility results, exercised through the public API.

use anon_radio::distributed::refute_distributed_decision;
use anon_radio::lower_bounds::{canonical_divergences, divergence_round, g_m_central_pairs};
use anon_radio::universal::{gallery, refute_universal, Refutation};
use anon_radio::{elect_leader, is_feasible, solve};
use radio_graph::families;
use radio_sim::drip::WaitThenTransmitFactory;
use radio_sim::Msg;

// --- Proposition 4.1: Ω(n) for the G_m family ---------------------------

#[test]
fn prop_4_1_g_m_feasible_with_omega_n_horizon() {
    for m in [2usize, 3, 5, 8] {
        let config = families::g_m(m);
        assert!(is_feasible(&config), "G_{m} is feasible");
        // The proof: the three central b-nodes share histories in every
        // round t < m−1, so no algorithm can decide before then. Observe
        // the canonical DRIP obeying the bound.
        let (ex, divs) = canonical_divergences(&config, &g_m_central_pairs(m));
        for d in &divs {
            assert!(d.expect("eventually diverges") >= m as u64 - 1, "G_{m}");
        }
        // and the election indeed takes Ω(n) = Ω(4m+1) global rounds
        let completion = ex.done_round.iter().max().copied().unwrap();
        assert!(
            completion >= m as u64,
            "G_{m}: completed in {completion} rounds"
        );
    }
}

// --- Lemma 4.2 / Proposition 4.3: Ω(σ) for the H_m family ---------------

#[test]
fn prop_4_3_h_m_needs_at_least_m_rounds() {
    for m in [1u64, 2, 8, 32, 128] {
        let config = families::h_m(m);
        assert!(is_feasible(&config), "H_{m} is feasible (Lemma 4.2)");
        let report = elect_leader(&config).unwrap();
        // Lemma 4.2: any election algorithm takes ≥ m rounds.
        assert!(
            report.completion_round >= m,
            "H_{m}: completed in {} < m rounds — violates Lemma 4.2",
            report.completion_round
        );
        // the canonical DRIP achieves O(σ) here: 4 singleton classes after
        // one phase of (2σ+1)+σ rounds.
        assert_eq!(report.phases, 1);
        assert!(report.rounds_local <= 3 * config.span() + 2);
    }
}

#[test]
fn h_m_tag_zero_nodes_cannot_split_before_hearing_outside() {
    // The first useful asymmetry for b,c comes from a/d's transmissions.
    for m in [2u64, 6, 20] {
        let config = families::h_m(m);
        let (_, divs) = canonical_divergences(&config, &[(1, 2)]);
        assert!(divs[0].expect("H_m feasible") >= m, "H_{m}");
    }
}

// --- Proposition 4.4: no universal algorithm ----------------------------

#[test]
fn prop_4_4_every_candidate_fails_on_some_h_m() {
    for candidate in gallery() {
        let name = candidate.name.clone();
        match refute_universal(&candidate, 4_096) {
            Refutation::FailsOn {
                m,
                leaders,
                symmetric_pairs,
                ..
            } => {
                assert_ne!(leaders.len(), 1, "{name} elected exactly one on H_{m}");
                assert!(symmetric_pairs[0] && symmetric_pairs[1], "{name}");
                assert!(
                    is_feasible(&families::h_m(m)),
                    "{name}: H_{m} must be feasible"
                );
            }
            Refutation::NeverTransmits { .. } => {
                panic!("{name}: gallery candidates transmit eventually")
            }
        }
    }
}

#[test]
fn prop_4_4_knowing_n_does_not_help() {
    // All counterexamples have n = 4: a universal algorithm even for the
    // class of 4-node feasible configurations cannot exist.
    for candidate in gallery() {
        if let Refutation::FailsOn { m, .. } = refute_universal(&candidate, 4_096) {
            assert_eq!(families::h_m(m).size(), 4);
        }
    }
}

// --- Proposition 4.5: no distributed decision ---------------------------

#[test]
fn prop_4_5_h_and_s_are_indistinguishable() {
    for wait in [0u64, 1, 4, 9] {
        let drip = WaitThenTransmitFactory {
            wait,
            msg: Msg::ONE,
            lifetime: wait + 20,
        };
        let r = refute_distributed_decision(&drip, 4_096).unwrap();
        assert!(r.is_conclusive(), "wait={wait}: {r:?}");
        assert!(r.h_feasible);
        assert!(!r.s_feasible);
        assert!(r.histories_identical.iter().all(|&b| b));
    }
}

#[test]
fn prop_4_5_even_the_canonical_drip_cannot_decide() {
    // The dedicated DRIP compiled for H_3, run as a probe: identical
    // histories on H_{t+1} vs S_{t+1}.
    let dedicated = solve(&families::h_m(3)).unwrap();
    let factory = dedicated.factory();
    let r = refute_distributed_decision(&factory, 4_096).unwrap();
    assert!(r.is_conclusive(), "{r:?}");
}

// --- stress: very large spans -------------------------------------------

#[test]
#[ignore = "heavy: ~1.3M simulated rounds; run with --ignored (release recommended)"]
fn h_m_mega_span_stress() {
    // H_{300000}: σ ≈ 3·10⁵, a ~1.2M-round canonical execution on 4 nodes.
    // Exercises the engine's long-quiet-round path and u64 round
    // arithmetic far beyond the usual sweeps.
    let m = 300_000u64;
    let config = families::h_m(m);
    let report = elect_leader(&config).expect("H_m elects");
    assert_eq!(report.leader, 0);
    assert!(report.completion_round >= m);
    assert_eq!(report.phases, 1);
}

#[test]
fn h_m_large_span_smoke() {
    // The affordable version of the stress test, always on.
    let m = 20_000u64;
    let config = families::h_m(m);
    let report = elect_leader(&config).unwrap();
    assert_eq!(report.leader, 0);
    assert!(report.completion_round >= m);
}

// --- divergence helper sanity -------------------------------------------

#[test]
fn divergence_round_is_symmetric_and_reflexive() {
    let config = families::g_m(2);
    let (ex, _) = canonical_divergences(&config, &[]);
    for v in 0..config.size() as u32 {
        assert_eq!(
            divergence_round(&ex, v, v),
            None,
            "a node never diverges from itself"
        );
        for w in 0..config.size() as u32 {
            assert_eq!(divergence_round(&ex, v, w), divergence_round(&ex, w, v));
        }
    }
}
