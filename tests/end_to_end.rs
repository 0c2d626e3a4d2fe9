//! End-to-end integration: classify → compile → simulate → validate, across
//! a labelled corpus of configurations spanning every generator family.

use anon_radio::{elect_leader, is_feasible, solve};
use radio_graph::{families, generators, tags, Configuration};
use radio_util::rng::rng_from;

/// A corpus of configurations with known feasibility.
fn corpus() -> Vec<(Configuration, bool, &'static str)> {
    let mut rng = rng_from(0xE2E);
    vec![
        (families::h_m(1), true, "H_1"),
        (families::h_m(7), true, "H_7"),
        (families::s_m(1), false, "S_1"),
        (families::s_m(9), false, "S_9"),
        (families::g_m(2), true, "G_2"),
        (families::g_m(4), true, "G_4"),
        (
            Configuration::with_uniform_tags(generators::cycle(6), 2).unwrap(),
            false,
            "uniform cycle",
        ),
        (
            Configuration::with_uniform_tags(generators::complete(4), 0).unwrap(),
            false,
            "uniform K4",
        ),
        (
            Configuration::new(generators::path(1), vec![5]).unwrap(),
            true,
            "singleton (even with nonzero tag)",
        ),
        (
            Configuration::new(generators::path(2), vec![0, 1]).unwrap(),
            true,
            "2-path distinct",
        ),
        (
            Configuration::new(generators::path(2), vec![4, 4]).unwrap(),
            false,
            "2-path equal",
        ),
        (
            tags::distinct_shuffled(generators::star(9), &mut rng),
            true,
            "star distinct tags",
        ),
        (
            tags::distinct_shuffled(generators::hypercube(3), &mut rng),
            true,
            "hypercube distinct tags",
        ),
        (
            tags::bfs_wave(generators::balanced_tree(10, 2), 1),
            true,
            "tree BFS wave",
        ),
        (
            // two-value tags on a star: all leaves late — the leaves stay
            // mutually symmetric, but centre vs leaves splits; with 8
            // leaves in one class, no singleton among them.
            tags::two_values(generators::star(9), &[1, 2, 3, 4, 5, 6, 7, 8], 1),
            true, // centre is a singleton class → feasible
            "star centre-first",
        ),
    ]
}

#[test]
fn corpus_feasibility_matches_expectations() {
    for (config, expected, name) in corpus() {
        assert_eq!(is_feasible(&config), expected, "{name}: {config}");
    }
}

#[test]
fn feasible_corpus_elects_exactly_one_leader() {
    for (config, expected, name) in corpus() {
        if !expected {
            continue;
        }
        let report = elect_leader(&config).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.leader < config.size() as u32, "{name}");
        // Lemma 3.10: O(n²σ) — concretely ⌈n/2⌉ phases of
        // ≤ n(2σ+1)+σ rounds each.
        let n = config.size() as u64;
        let sigma = config.span();
        let bound = n.div_ceil(2) * (n * (2 * sigma + 1) + sigma) + 1;
        assert!(
            report.rounds_local <= bound,
            "{name}: {} > {bound}",
            report.rounds_local
        );
    }
}

#[test]
fn infeasible_corpus_has_no_singleton_history() {
    // Running the canonical DRIP on an infeasible configuration must leave
    // every node with at least one history twin.
    for (config, expected, name) in corpus() {
        if expected {
            continue;
        }
        let (outcome, schedule) = anon_radio::CanonicalSchedule::build(&config);
        assert!(!outcome.feasible, "{name}");
        let factory = anon_radio::CanonicalFactory::new(std::sync::Arc::new(schedule));
        let ex = radio_sim::Executor::run(&config, &factory, radio_sim::RunOpts::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            ex.unique_history_nodes().is_empty(),
            "{name}: infeasible configuration produced a unique history"
        );
    }
}

#[test]
fn solve_and_elect_agree() {
    for (config, expected, name) in corpus() {
        match solve(&config) {
            Ok(dedicated) => {
                assert!(expected, "{name}: solve succeeded on infeasible config");
                let report = elect_leader(&config).unwrap();
                assert_eq!(report.leader, dedicated.predicted_leader(), "{name}");
            }
            Err(_) => assert!(!expected, "{name}: solve failed on feasible config"),
        }
    }
}

#[test]
fn election_transmission_budget_is_exactly_n_times_phases() {
    // Every node transmits exactly once per phase (Lemma 3.7 machinery).
    for (config, expected, name) in corpus() {
        if !expected {
            continue;
        }
        let dedicated = solve(&config).unwrap();
        let report = elect_leader(&config).unwrap();
        assert_eq!(
            report.transmissions,
            (config.size() * dedicated.schedule().phases()) as u64,
            "{name}"
        );
    }
}

#[test]
fn random_feasible_configs_elect_across_families() {
    let mut rng = rng_from(0xFEED);
    type GraphMaker = Box<dyn Fn(&mut rand::rngs::StdRng) -> radio_graph::Graph>;
    let makers: Vec<(&str, GraphMaker)> = vec![
        ("tree", Box::new(|r| generators::random_tree(10, r))),
        ("gnp", Box::new(|r| generators::gnp_connected(10, 0.3, r))),
        (
            "caterpillar",
            Box::new(|r| generators::random_caterpillar(4, 6, r)),
        ),
    ];
    let mut elected = 0usize;
    for (name, make) in &makers {
        for _ in 0..10 {
            let g = make(&mut rng);
            let config = tags::distinct_shuffled(g, &mut rng);
            if let Ok(report) = elect_leader(&config) {
                elected += 1;
                assert!(report.leader < config.size() as u32, "{name}");
            }
        }
    }
    assert!(
        elected >= 25,
        "distinct tags should make nearly every configuration feasible, got {elected}/30"
    );
}
