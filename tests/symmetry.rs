//! Symmetry and equivariance: the model-level facts the paper's
//! impossibility arguments stand on.
//!
//! * **Equivariance**: if `π` is a configuration automorphism (preserves
//!   adjacency and tags), then under *any* DRIP, `H_v = H_{π(v)}` for all
//!   nodes, forever. Deterministic + anonymous + symmetric input ⇒
//!   symmetric execution.
//! * **Leader rigidity**: a node moved by some automorphism can never be
//!   the unique leader; hence if *every* node is moved, the configuration
//!   is infeasible — and `Classifier` must agree.

use radio_graph::{families, generators, Configuration, NodeId};
use radio_sim::drip::WaitThenTransmitFactory;
use radio_sim::{DripFactory, Executor, Msg, RunOpts};

fn histories_equal_under(
    config: &Configuration,
    perm: &[NodeId],
    factory: &dyn DripFactory,
) -> bool {
    let ex = Executor::run(config, factory, RunOpts::default()).expect("terminates");
    (0..config.size()).all(|v| ex.histories[v] == ex.histories[perm[v] as usize])
}

#[test]
fn g_m_mirror_pairs_stay_identical_under_any_drip() {
    // Prop 4.1's symmetry core: G_m is mirror-symmetric; a_i ↔ c_i and
    // b_i ↔ b_{2m+2−i} keep equal histories under every algorithm.
    for m in [2usize, 3, 4] {
        let config = families::g_m(m);
        let n = config.size();
        let mirror: Vec<NodeId> = (0..n as NodeId).rev().collect();
        assert!(config.is_automorphism(&mirror), "G_{m} is mirror-symmetric");

        // an arbitrary DRIP
        let drip = WaitThenTransmitFactory {
            wait: 2,
            msg: Msg::ONE,
            lifetime: 30,
        };
        assert!(
            histories_equal_under(&config, &mirror, &drip),
            "G_{m} under wait-then-transmit"
        );

        // and the canonical DRIP of the configuration itself
        let dedicated = anon_radio::solve(&config).expect("G_m feasible");
        let factory = dedicated.factory();
        assert!(
            histories_equal_under(&config, &mirror, &factory),
            "G_{m} under canonical"
        );

        // the centre is the mirror's fixed point — and the only electable
        // node.
        let center = families::g_m_center(m);
        assert_eq!(mirror[center as usize], center);
        assert_eq!(
            anon_radio::elect_leader(&config).unwrap().leader,
            center,
            "G_{m} must elect its centre"
        );
    }
}

#[test]
fn s_m_mirror_forces_even_leader_counts() {
    let config = families::s_m(3);
    let mirror = vec![3, 2, 1, 0];
    assert!(config.is_automorphism(&mirror));
    let drip = WaitThenTransmitFactory {
        wait: 1,
        msg: Msg::ONE,
        lifetime: 20,
    };
    assert!(histories_equal_under(&config, &mirror, &drip));
    // H_m breaks the mirror: not an automorphism there
    assert!(!families::h_m(3).is_automorphism(&mirror));
}

#[test]
fn rotation_equivariance_on_periodic_cycles() {
    // 6-cycle with 2-periodic tags [0,1,0,1,0,1]: rotation by 2 is an
    // automorphism; histories repeat with period 2 under any DRIP.
    let tags = vec![0u64, 1, 0, 1, 0, 1];
    let config = Configuration::new(generators::cycle(6), tags).unwrap();
    let rot2: Vec<NodeId> = (0..6).map(|v| ((v + 2) % 6) as NodeId).collect();
    assert!(config.is_automorphism(&rot2));
    let drip = WaitThenTransmitFactory {
        wait: 0,
        msg: Msg::ONE,
        lifetime: 15,
    };
    assert!(histories_equal_under(&config, &rot2, &drip));
    // consequence: infeasible (every node is moved by rot2)
    assert!(!anon_radio::is_feasible(&config));
}

#[test]
fn predicted_leaders_are_fixed_by_all_automorphisms() {
    // Exhaustive cross-check on every connected 4-node configuration with
    // span ≤ 2: if feasible, the elected leader is moved by no
    // automorphism.
    for graph in radio_graph::enumerate::connected_graphs(4) {
        for tags in radio_graph::enumerate::tag_patterns(4, 2) {
            let config = Configuration::new(graph.clone(), tags).unwrap();
            if let Ok(dedicated) = anon_radio::solve(&config) {
                let leader = dedicated.predicted_leader();
                assert!(
                    !config.is_moved_by_some_automorphism(leader),
                    "{config}: leader v{leader} is moved by an automorphism"
                );
            }
        }
    }
}

#[test]
fn fully_moved_configurations_are_infeasible() {
    // If every node is moved by some automorphism, no unique leader can
    // exist; Classifier must answer No. Checked exhaustively on 4-node
    // configurations with span ≤ 1.
    let mut fully_moved = 0;
    for graph in radio_graph::enumerate::connected_graphs(4) {
        for tags in radio_graph::enumerate::tag_patterns(4, 1) {
            let config = Configuration::new(graph.clone(), tags).unwrap();
            let all_moved = (0..4).all(|v| config.is_moved_by_some_automorphism(v as NodeId));
            if all_moved {
                fully_moved += 1;
                assert!(
                    !anon_radio::is_feasible(&config),
                    "{config}: every node is in a non-trivial orbit, yet feasible?"
                );
            }
        }
    }
    assert!(
        fully_moved > 10,
        "the census should contain fully-symmetric configurations"
    );
}

#[test]
fn rigidity_does_not_imply_feasibility() {
    // The converse is false: P_3 with uniform tags has a fixed centre
    // (not fully moved) yet is infeasible — structure alone cannot be
    // exploited without timing asymmetry.
    let p3 = Configuration::with_uniform_tags(generators::path(3), 0).unwrap();
    assert!(!p3.is_moved_by_some_automorphism(1));
    assert!(!anon_radio::is_feasible(&p3));
}
