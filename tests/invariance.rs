//! Property-based invariance suite: the model's symmetries, checked with
//! proptest over random configurations.
//!
//! * Feasibility (and the classifier's whole iteration structure) is
//!   invariant under common tag shifts — nodes cannot see the global
//!   clock.
//! * Feasibility is invariant under node relabelling — nodes are
//!   anonymous.
//! * The reference and fast classifier engines agree *exactly*.
//! * Feasible ⟹ the compiled algorithm elects exactly one leader;
//!   infeasible ⟹ the canonical execution leaves no unique history.
//! * Within every canonical list, no two entries share both their
//!   previous class and their label.

use proptest::prelude::*;

use radio_classifier::{classify_with, Engine};
use radio_graph::{generators, Configuration, NodeId};
use radio_util::rng::rng_from;

/// Deterministic random configuration from compact parameters.
fn build_config(n: usize, extra: usize, span: u64, seed: u64) -> Configuration {
    let mut rng = rng_from(seed);
    let max_extra = n * (n - 1) / 2 - n.saturating_sub(1);
    let g = generators::random_connected(n, extra.min(max_extra), &mut rng);
    radio_graph::tags::random_in_span(g, span, &mut rng)
}

fn config_strategy() -> impl Strategy<Value = Configuration> {
    (1usize..12, 0usize..8, 0u64..6, any::<u64>())
        .prop_map(|(n, extra, span, seed)| build_config(n, extra, span, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engines_agree(config in config_strategy()) {
        let r = classify_with(&config, Engine::Reference);
        let f = classify_with(&config, Engine::Fast);
        prop_assert_eq!(r.feasible, f.feasible);
        prop_assert_eq!(r.iterations, f.iterations);
        for (a, b) in r.records.iter().zip(&f.records) {
            prop_assert_eq!(&a.partition, &b.partition);
            prop_assert_eq!(&a.labels, &b.labels);
        }
    }

    #[test]
    fn tag_shift_invariance(config in config_strategy(), shift in 0u64..40) {
        let shifted = config.shift_tags(shift);
        let a = radio_classifier::classify(&config);
        let b = radio_classifier::classify(&shifted);
        prop_assert_eq!(a.feasible, b.feasible);
        prop_assert_eq!(a.iterations, b.iterations);
        // the whole class structure is shift-invariant
        for (ra, rb) in a.records.iter().zip(&b.records) {
            prop_assert_eq!(&ra.partition, &rb.partition);
        }
    }

    #[test]
    fn relabel_invariance(config in config_strategy(), perm_seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        let n = config.size();
        let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
        perm.shuffle(&mut rng_from(perm_seed));
        let relabelled = config.relabel(&perm);
        let a = radio_classifier::classify(&config);
        let b = radio_classifier::classify(&relabelled);
        prop_assert_eq!(a.feasible, b.feasible, "{} vs {}", config, relabelled);
        prop_assert_eq!(a.iterations, b.iterations);
        // class blocks correspond through the permutation
        let pa = a.final_partition();
        let pb = b.final_partition();
        for v in 0..n as NodeId {
            for w in 0..n as NodeId {
                let same_a = pa.class_of(v) == pa.class_of(w);
                let same_b = pb.class_of(perm[v as usize]) == pb.class_of(perm[w as usize]);
                prop_assert_eq!(same_a, same_b);
            }
        }
    }

    #[test]
    fn feasible_elects_exactly_one(config in config_strategy()) {
        match anon_radio::solve(&config) {
            Ok(dedicated) => {
                let report = dedicated.run_in(
                    &mut radio_sim::SimWorkspace::new(),
                    &config,
                    radio_sim::ModelKind::default(),
                    radio_sim::RunOpts::default(),
                );
                prop_assert!(report.is_ok(), "{}: {:?}", config, report.err());
            }
            Err(_) => {
                // infeasible: canonical execution must leave no unique history
                let (outcome, schedule) = anon_radio::CanonicalSchedule::build(&config);
                prop_assert!(!outcome.feasible);
                let factory =
                    anon_radio::CanonicalFactory::new(std::sync::Arc::new(schedule));
                let ex = radio_sim::Executor::run(
                    &config,
                    &factory,
                    radio_sim::RunOpts::default(),
                )
                .unwrap();
                prop_assert!(ex.unique_history_nodes().is_empty(), "{}", config);
            }
        }
    }

    #[test]
    fn classifier_iterations_bounded_by_half_n(config in config_strategy()) {
        let out = radio_classifier::classify(&config);
        prop_assert!(out.iterations <= config.size().div_ceil(2));
        // Corollary 3.3: strictly increasing class counts until exit
        let counts = out.class_counts();
        for w in counts.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        for w in counts[..counts.len().saturating_sub(1)].windows(2) {
            prop_assert!(w[0] < w[1], "strict growth before the exit iteration");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn list_entries_are_pairwise_distinct(
        n in 1usize..40,
        extra in 0usize..20,
        span in 0u64..65,
        seed in any::<u64>(),
    ) {
        // Each entry of a list is a distinct class's representative, so no
        // two entries share both the previous class and the label. The
        // streaming election matches phase T against m̂'s entry alone,
        // which decides the leader verdict only because of this.
        let config = build_config(n, extra, span, seed);
        let mut sink = radio_classifier::ListsSink::default();
        let summary = radio_classifier::ClassifierWorkspace::new()
            .classify_with_sink(&config, Engine::Fast, &mut sink);
        let lists = sink.into_lists(config.span(), summary.leader_class);
        let levels = lists.levels.iter().filter_map(|level| match level {
            radio_classifier::Level::Blocks(entries) => Some(entries),
            radio_classifier::Level::Terminate => None,
        });
        for entries in levels.chain([&lists.final_entries]) {
            let mut pairs: Vec<_> =
                entries.iter().map(|e| (e.old_class, e.label.triples())).collect();
            pairs.sort_unstable();
            prop_assert!(pairs.windows(2).all(|w| w[0] != w[1]), "{}", config);
        }
    }
}
