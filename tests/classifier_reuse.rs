//! Differential testing of classifier-workspace reuse, mirroring
//! `tests/workspace_reuse.rs` on the decision side: one
//! `ClassifierWorkspace` driven through a shuffled mix of configurations
//! and engines must produce results bit-identical to fresh one-shot runs
//! — partition *and numbering*, per-iteration labels, iteration count,
//! leader class, and reference-engine step counters.
//!
//! This is the contract that lets the campaign layers keep one classifier
//! workspace per worker thread: if any state leaked across runs — a stale
//! interned label id, a dirty-worklist bit, a refine-table entry, a class
//! buffer dimensioned for the previous configuration — a reused run would
//! diverge from its fresh twin somewhere in this mix. Sizes grow and
//! shrink between consecutive runs on purpose.

use radio_classifier::{classify_with, ClassifierWorkspace, Engine, Outcome};
use radio_graph::{families, generators, tags, Configuration};
use radio_util::rng::{rng_from, stream};

fn assert_bit_identical(reused: &Outcome, fresh: &Outcome, what: &str) {
    assert_eq!(reused.feasible, fresh.feasible, "{what}: feasible");
    assert_eq!(reused.iterations, fresh.iterations, "{what}: iterations");
    assert_eq!(reused.cost, fresh.cost, "{what}: cost counters");
    assert_eq!(
        reused.records.len(),
        fresh.records.len(),
        "{what}: record count"
    );
    for (i, (a, b)) in reused.records.iter().zip(&fresh.records).enumerate() {
        // structural equality of Partition includes the class *numbering*
        // and the representatives, not just the blocks
        assert_eq!(a.partition, b.partition, "{what}: partition iter {}", i + 1);
        assert_eq!(a.labels, b.labels, "{what}: labels iter {}", i + 1);
    }
    assert_eq!(
        reused.leader_class(),
        fresh.leader_class(),
        "{what}: leader class"
    );
}

/// A deterministic shuffled case list: paper families plus random
/// configurations of varying size and span, ordered so the workspace
/// repeatedly grows and shrinks.
fn cases(seed: u64) -> Vec<(String, Configuration)> {
    let mut cases: Vec<(String, Configuration)> = Vec::new();
    // the paper families: feasible in one iteration (H_m), infeasible at a
    // two-class fixed point (S_m), and Θ(m)-iteration refinement (G_m)
    for m in [1u64, 5] {
        cases.push((format!("H_{m}"), families::h_m(m)));
        cases.push((format!("S_{m}"), families::s_m(m)));
    }
    for m in [2usize, 6] {
        cases.push((format!("G_{m}"), families::g_m(m)));
    }
    cases.push((
        "singleton".into(),
        Configuration::new(generators::path(1), vec![0]).unwrap(),
    ));
    cases.push((
        "uniform-cycle".into(),
        Configuration::with_uniform_tags(generators::cycle(6), 0).unwrap(),
    ));
    let mut k = 0u64;
    for n in [3usize, 14, 5, 20, 8] {
        for span in [0u64, 4, 40] {
            k += 1;
            let mut rng = stream(seed, "cls-reuse", k);
            let graph = if n % 2 == 0 {
                generators::gnp_connected(n, 0.3, &mut rng)
            } else {
                generators::star(n)
            };
            let config = tags::random_in_span(graph, span, &mut rng);
            cases.push((format!("case {k}: n={n} span={span}"), config));
        }
    }
    // Deterministic shuffle so consecutive runs mix sizes and shapes.
    use rand::Rng;
    let mut rng = rng_from(seed ^ 0xC1A5);
    for i in (1..cases.len()).rev() {
        let j = rng.random_range(0..=i);
        cases.swap(i, j);
    }
    cases
}

#[test]
fn one_workspace_matches_fresh_runs_across_a_shuffled_mix() {
    let mut ws = ClassifierWorkspace::new();
    for (label, config) in cases(0xFEED) {
        for engine in [Engine::Fast, Engine::Reference] {
            let reused = ws.classify_in(&config, engine);
            let fresh = classify_with(&config, engine);
            assert_bit_identical(&reused, &fresh, &format!("{label} {engine:?}"));
        }
    }
}

#[test]
fn reused_fast_engine_numbering_matches_the_reference_engine() {
    // The pinned property of the whole refactor: the *reused* fast engine
    // (interned labels, incremental worklist, recycled buffers) numbers
    // classes exactly like the paper-literal reference engine, run after
    // run.
    let mut ws = ClassifierWorkspace::new();
    for (label, config) in cases(0xBEAD) {
        let fast = ws.classify_in(&config, Engine::Fast);
        let reference = classify_with(&config, Engine::Reference);
        assert_eq!(fast.feasible, reference.feasible, "{label}");
        assert_eq!(fast.iterations, reference.iterations, "{label}");
        for (i, (f, r)) in fast.records.iter().zip(&reference.records).enumerate() {
            assert_eq!(f.partition, r.partition, "{label}: iter {}", i + 1);
            assert_eq!(f.labels, r.labels, "{label}: iter {}", i + 1);
        }
        assert_eq!(fast.leader_class(), reference.leader_class(), "{label}");
    }
}

#[test]
fn summaries_through_one_workspace_match_fresh_summaries() {
    let mut ws = ClassifierWorkspace::new();
    for (label, config) in cases(0xABBA) {
        let reused = ws.summarize_in(&config);
        let fresh = radio_classifier::summarize(&config);
        assert_eq!(reused, fresh, "{label}");
        // and the summary agrees with the eager outcome
        let outcome = radio_classifier::classify(&config);
        assert_eq!(reused.feasible, outcome.feasible, "{label}");
        assert_eq!(reused.iterations, outcome.iterations, "{label}");
        assert_eq!(
            reused.num_classes,
            outcome.final_partition().num_classes(),
            "{label}"
        );
        assert_eq!(reused.leader_class, outcome.leader_class(), "{label}");
    }
}

#[test]
fn solve_in_through_one_workspace_matches_fresh_elections() {
    // End to end: the dedicated algorithm compiled through a reused
    // classifier workspace is the fresh compile — same summary, leader,
    // lists and phase geometry — and elects the same leader with the same
    // report as the fresh path, across a mix of feasible configurations.
    let mut cls = ClassifierWorkspace::new();
    let mut sim = radio_sim::SimWorkspace::new();
    let mut rng = rng_from(99);
    let mut configs: Vec<Configuration> =
        vec![families::h_m(2), families::g_m(3), families::h_m(7)];
    for n in [4usize, 9, 6] {
        let g = generators::gnp_connected(n, 0.4, &mut rng);
        configs.push(tags::distinct_shuffled(g, &mut rng));
    }
    for config in configs {
        let compiled = anon_radio::CompiledElection::compile_in(&mut cls, &config);
        let fresh = anon_radio::solve(&config).expect("feasible");
        assert_eq!(compiled.summary(), fresh.summary(), "{config}");
        assert_eq!(compiled.predicted_leader(), fresh.predicted_leader());
        assert_eq!(compiled.schedule().lists, fresh.schedule().lists);
        assert_eq!(compiled.schedule().phase_end, fresh.schedule().phase_end);
        let reused = compiled
            .run_in(
                &mut sim,
                &config,
                radio_sim::ModelKind::default(),
                radio_sim::RunOpts::default(),
            )
            .expect("elects");
        let fresh = anon_radio::elect_leader(&config).expect("elects");
        assert_eq!(reused, fresh, "{config}");
    }
    // an infeasible verdict through the reused workspace too
    let infeasible = anon_radio::CompiledElection::compile_in(&mut cls, &families::s_m(2));
    assert!(!infeasible.feasible());
    assert_eq!(infeasible.summary().iterations, 2);
}
