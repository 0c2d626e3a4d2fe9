//! Work counters: the engine pays per transmission and delivery, not per
//! round × n.
//!
//! The canonical DRIP transmits once per node per phase and otherwise
//! listens. A node then needs a visit only at wake-up, when its quiet
//! horizon runs out (transmit slot, phase entry, termination), and when a
//! neighbour's transmission reaches it — O(n + (n + m)·T) visits for T
//! phases. This pins that bound, with a constant of 4, on every canonical
//! run over the zoo × every tag strategy × every channel model × four
//! spans × three sizes. Hearing never moves a canonical node's horizon,
//! so a delivery costs no horizon query: a completed run asks exactly one
//! per decide (each node's wake-up takes the query its termination does
//! not). The counts are deterministic, so the bounds hold on every
//! machine.

use anon_radio::{CanonicalFactory, CompiledElection};
use radio_classifier::ClassifierWorkspace;
use radio_graph::{FamilySpec, TagStrategy};
use radio_sim::{DripFactory, DripNode, ModelKind, RunOpts, SimWorkspace};
use radio_util::rng::{derive, rng_from};

#[test]
fn canonical_runs_visit_nodes_in_proportion_to_their_traffic() {
    let mut classifier = ClassifierWorkspace::new();
    let mut sim = SimWorkspace::new();
    let (mut runs, mut visits, mut node_rounds) = (0u64, 0u64, 0u64);
    for spec in FamilySpec::zoo() {
        for n in spec.sizes_for(&[8, 33, 128]) {
            if spec.check_size(n).is_err() {
                continue; // e.g. an odd ladder
            }
            let seed = derive(derive(0x71_5117, &spec.to_string()), &n.to_string());
            for strategy in TagStrategy::ALL {
                for sigma in [0, 1, 17, 200] {
                    let graph = spec.build_csr(n, seed).unwrap_or_else(|e| panic!("{e}"));
                    let tags_seed = derive(seed, &format!("{strategy}/{sigma}"));
                    let config = strategy.configure(graph, sigma, &mut rng_from(tags_seed));
                    let compiled = CompiledElection::compile_in(&mut classifier, &config);
                    let m = config.csr().edge_count() as u64;
                    let phases = compiled.schedule().phases() as u64;
                    let n = n as u64;
                    let bound = 4 * (n + (n + m) * phases);
                    for model in ModelKind::ALL {
                        let (_, run) = compiled
                            .simulate_in(&mut sim, &config, model, RunOpts::default())
                            .unwrap_or_else(|e| panic!("{spec} n={n}: {e}"));
                        let work = run.decides + run.horizon_queries;
                        assert!(
                            work <= bound,
                            "{spec} n={n} m={m} {strategy} σ={sigma} T={phases} [{model}]: \
                             {} decides + {} horizon queries > {bound}",
                            run.decides,
                            run.horizon_queries
                        );
                        // every transmission is a decide
                        assert!(run.decides >= run.stats.transmissions);
                        assert_eq!(
                            run.horizon_queries, run.decides,
                            "{spec} n={n} m={m} {strategy} σ={sigma} T={phases} [{model}]: \
                             a delivery re-asked a horizon"
                        );
                        runs += 1;
                        visits += work;
                        node_rounds += run.rounds_stepped * n;
                    }
                }
            }
        }
    }
    assert!(runs >= 2_000, "the grid shrank to {runs} runs");
    // The whole point: far fewer visits than a per-round sweep of every
    // node in every stepped round would make.
    assert!(
        visits * 2 < node_rounds,
        "{visits} visits against {node_rounds} stepped node-rounds"
    );
}

/// Without time-leap the engine makes no horizon queries and every awake
/// node decides in every round, so decides are exactly the summed
/// awake-and-running rounds; with it, decides only shrink.
#[test]
fn stepping_decides_every_awake_round_and_leaping_never_decides_more() {
    let mut classifier = ClassifierWorkspace::new();
    let mut sim = SimWorkspace::new();
    for spec in FamilySpec::zoo() {
        let n = spec.default_size();
        let graph = spec.build_csr(n, 7).unwrap_or_else(|e| panic!("{e}"));
        let config = TagStrategy::Uniform.configure(graph, 5, &mut rng_from(derive(7, "tags")));
        let compiled = CompiledElection::compile_in(&mut classifier, &config);
        let factory = CanonicalFactory::new(compiled.shared_schedule());
        for model in ModelKind::ALL {
            let step = sim
                .run_kind(model, &config, &factory, RunOpts::default().no_leap())
                .unwrap();
            let awake_rounds: u64 = (0..n)
                .map(|v| step.done_round[v] - step.wake_round[v])
                .sum();
            let spawn = || -> Vec<Box<dyn DripNode>> { (0..n).map(|_| factory.spawn()).collect() };
            let step_run = sim
                .run_nodes(model, &config, &mut spawn(), RunOpts::default().no_leap())
                .unwrap();
            assert_eq!(step_run.horizon_queries, 0, "{spec} [{model}]");
            assert_eq!(step_run.decides, awake_rounds, "{spec} [{model}]");
            let leap = sim
                .run_nodes(model, &config, &mut spawn(), RunOpts::default())
                .unwrap();
            assert!(leap.decides <= step_run.decides, "{spec} [{model}]");
        }
    }
}
