//! Differential coverage of the `FamilySpec × TagStrategy` scenario
//! matrix: every family the scenario grammar can name, under every
//! channel model and both engine modes, must behave exactly like the
//! naive reference engine — same executions, same elected leader — and
//! classification through a recycled [`ClassifierWorkspace`] must stay
//! bit-identical to fresh runs across a shuffled mix of the new
//! topologies.
//!
//! This is the scenario-grammar analogue of `tests/differential_engines.rs`
//! (which sweeps random connected graphs): the zoo instances pin the
//! *structured* shapes — tori, hypercubes, barbells, wheels — whose
//! symmetries are precisely what the classifier and the schedules have to
//! break.

use radio_classifier::{classify_with, ClassifierWorkspace, Engine};
use radio_graph::{Configuration, FamilySpec, TagStrategy};
use radio_sim::drip::WaitThenTransmitFactory;
use radio_sim::{DripFactory, Execution, ModelKind, Msg, RunOpts};
use radio_util::rng::{derive, rng_from};

/// The deterministic configuration of one `(family, strategy)` scenario
/// cell: the zoo instance at its default size, tags drawn by the strategy
/// with span 6.
fn scenario(spec: FamilySpec, strategy: TagStrategy) -> Configuration {
    let seed = derive(derive(0xFA417, &spec.to_string()), &strategy.to_string());
    let graph = spec
        .build_csr(spec.default_size(), seed)
        .unwrap_or_else(|e| panic!("{e}"));
    strategy.configure(graph, 6, &mut rng_from(derive(seed, "tags")))
}

fn assert_same_execution(fast: &Execution, naive: &Execution, what: &str) {
    assert_eq!(fast.wake_round, naive.wake_round, "{what}: wake rounds");
    assert_eq!(fast.done_round, naive.done_round, "{what}: done rounds");
    assert_eq!(fast.histories, naive.histories, "{what}: histories");
    assert_eq!(fast.rounds, naive.rounds, "{what}: rounds");
    assert_eq!(fast.stats, naive.stats, "{what}: stats");
}

/// Runs `factory` on `config` under every model with the time-leaping
/// engine, the stepping engine, and the naive reference — all three must
/// agree byte for byte.
fn assert_engines_agree(config: &Configuration, factory: &dyn DripFactory, what: &str) {
    for model in ModelKind::ALL {
        let leap = model.run(config, factory, RunOpts::default()).unwrap();
        let step = model
            .run(config, factory, RunOpts::default().no_leap())
            .unwrap();
        let naive = model
            .run_reference(config, factory, RunOpts::default())
            .unwrap();
        assert_same_execution(&leap, &naive, &format!("{what} [{model} leap]"));
        assert_same_execution(&step, &naive, &format!("{what} [{model} step]"));
        assert_eq!(
            leap.rounds_stepped + leap.rounds_leapt,
            leap.rounds,
            "{what} [{model}]: leap round accounting"
        );
    }
}

/// The full matrix: every zoo family × every tag strategy, a generic DRIP
/// under all three models × leap/step vs the reference engine.
#[test]
fn every_family_and_strategy_is_engine_differentially_clean() {
    let drip = WaitThenTransmitFactory {
        wait: 1,
        msg: Msg(7),
        lifetime: 10,
    };
    for spec in FamilySpec::zoo() {
        for strategy in TagStrategy::ALL {
            let config = scenario(spec, strategy);
            assert_engines_agree(&config, &drip, &format!("{spec}/{strategy}"));
        }
    }
}

/// Election equivalence: on every feasible scenario cell, the compiled
/// dedicated algorithm elects the same single predicted leader under the
/// fast engine (leaping and stepping) and the naive reference engine.
#[test]
fn feasible_scenarios_elect_the_same_leader_on_every_engine() {
    let mut feasible_cells = 0usize;
    for spec in FamilySpec::zoo() {
        for strategy in TagStrategy::ALL {
            let config = scenario(spec, strategy);
            let Ok(dedicated) = anon_radio::solve(&config) else {
                continue;
            };
            feasible_cells += 1;
            let factory = dedicated.factory();
            let what = format!("{spec}/{strategy}");
            // the canonical DRIP itself must be differentially clean …
            assert_engines_agree(&config, &factory, &what);
            // … and each engine's execution must elect exactly the
            // predicted leader under the paper's model
            let model = ModelKind::NoCollisionDetection;
            for (engine, opts) in [
                ("leap", RunOpts::default()),
                ("step", RunOpts::default().no_leap()),
            ] {
                let ex = model.run(&config, &factory, opts).unwrap();
                let leaders: Vec<_> = (0..config.size() as radio_graph::NodeId)
                    .filter(|&v| dedicated.decision().is_leader(ex.history(v)))
                    .collect();
                assert_eq!(
                    leaders,
                    vec![dedicated.predicted_leader()],
                    "{what} [{engine}]"
                );
            }
            let ex = model
                .run_reference(&config, &factory, RunOpts::default())
                .unwrap();
            let leaders: Vec<_> = (0..config.size() as radio_graph::NodeId)
                .filter(|&v| dedicated.decision().is_leader(ex.history(v)))
                .collect();
            assert_eq!(leaders, vec![dedicated.predicted_leader()], "{what} [ref]");
        }
    }
    // the zoo × strategy matrix must actually exercise elections: if the
    // scenario seeds ever drifted all-infeasible this test would silently
    // hollow out
    assert!(
        feasible_cells >= 30,
        "only {feasible_cells} feasible scenario cells"
    );
}

/// Classifier-workspace reuse across a shuffled mix of the new families:
/// one recycled [`ClassifierWorkspace`] must classify every scenario cell
/// bit-identically to a fresh run — both engines, partition numbering and
/// all — exactly the contract the campaign layer's per-worker workspaces
/// rely on when a shard mixes tori with barbells with hypercubes.
#[test]
fn classifier_workspace_reuse_is_bit_identical_across_the_zoo() {
    let mut cells: Vec<(String, Configuration)> = Vec::new();
    for spec in FamilySpec::zoo() {
        for strategy in TagStrategy::ALL {
            cells.push((format!("{spec}/{strategy}"), scenario(spec, strategy)));
        }
    }
    // deterministic shuffle so consecutive runs mix sizes and shapes and
    // the workspace repeatedly grows and shrinks
    use rand::Rng;
    let mut rng = rng_from(0x500_FFE);
    for i in (1..cells.len()).rev() {
        let j = rng.random_range(0..=i);
        cells.swap(i, j);
    }
    let mut ws = ClassifierWorkspace::new();
    for (what, config) in &cells {
        for engine in [Engine::Fast, Engine::Reference] {
            let reused = ws.classify_in(config, engine);
            let fresh = classify_with(config, engine);
            assert_eq!(reused.feasible, fresh.feasible, "{what} {engine:?}");
            assert_eq!(reused.iterations, fresh.iterations, "{what} {engine:?}");
            assert_eq!(reused.cost, fresh.cost, "{what} {engine:?}");
            assert_eq!(
                reused.leader_class(),
                fresh.leader_class(),
                "{what} {engine:?}"
            );
            assert_eq!(
                reused.records.len(),
                fresh.records.len(),
                "{what} {engine:?}"
            );
            for (i, (a, b)) in reused.records.iter().zip(&fresh.records).enumerate() {
                assert_eq!(a.partition, b.partition, "{what} {engine:?} iter {}", i + 1);
                assert_eq!(a.labels, b.labels, "{what} {engine:?} iter {}", i + 1);
            }
        }
    }
}

/// Classify-phase campaigns over a shuffled-equivalent grid: the
/// workspace-recycling campaign path must agree with eager classification
/// on every scenario cell (the summary-level version of the bit-identity
/// test above, through the real campaign entry point).
#[test]
fn classify_campaign_matches_eager_classification_on_the_scenario_grid() {
    use anon_radio::campaign::{CampaignRunner, CampaignSpec, Phase};

    let spec = CampaignSpec {
        phase: Phase::Classify,
        families: vec![
            "torus:3x3".parse().unwrap(),
            "hypercube:3".parse().unwrap(),
            "caterpillar:3x1".parse().unwrap(),
            "bipartite:2x3".parse().unwrap(),
        ],
        tags: TagStrategy::ALL.to_vec(),
        sizes: vec![6],
        spans: vec![4],
        models: vec![ModelKind::NoCollisionDetection],
        reps: 2,
        seed: 99,
        opts: RunOpts::default(),
        cache: anon_radio::cache::CacheConfig::default(),
        batch: anon_radio::campaign::BatchConfig::default(),
    };
    let mut runner = CampaignRunner::new(spec.clone(), 3);
    runner.run_to_completion(2);
    for (cell, agg) in runner.aggregates() {
        let feasible = (0..spec.reps)
            .filter(|&rep| radio_classifier::classify(&spec.configuration(cell, rep)).feasible)
            .count() as u64;
        assert_eq!(agg.feasible, feasible, "{cell}");
        assert_eq!(agg.runs, spec.reps as u64, "{cell}");
    }
}
