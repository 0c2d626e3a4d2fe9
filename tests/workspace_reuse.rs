//! Differential testing of workspace reuse: one `SimWorkspace` driven
//! through a shuffled mix of configurations, protocols, channel models,
//! and trace settings must produce bit-identical `Execution`s (histories,
//! wake/done rounds, stats, rounds split, traces) to fresh one-shot runs.
//!
//! This is the contract that lets the batch layers keep one workspace per
//! worker thread: if any per-run state leaked across `reset_for`, a
//! reused run would diverge from its fresh twin somewhere in this mix —
//! sizes grow and shrink between consecutive runs on purpose, so stale
//! segment lengths, counter stamps, or quiescence horizons would surface.

use radio_graph::{generators, tags, Configuration};
use radio_sim::drip::{BeaconFactory, EchoFactory, SilentFactory, WaitThenTransmitFactory};
use radio_sim::{DripFactory, Execution, ModelKind, Msg, PatientFactory, RunOpts, SimWorkspace};
use radio_util::rng::{rng_from, stream};

fn assert_bit_identical(reused: &Execution, fresh: &Execution, what: &str) {
    assert_eq!(reused.histories, fresh.histories, "{what}: histories");
    assert_eq!(reused.wake_round, fresh.wake_round, "{what}: wake rounds");
    assert_eq!(reused.done_round, fresh.done_round, "{what}: done rounds");
    assert_eq!(reused.rounds, fresh.rounds, "{what}: rounds");
    assert_eq!(
        reused.rounds_stepped, fresh.rounds_stepped,
        "{what}: stepped"
    );
    assert_eq!(reused.rounds_leapt, fresh.rounds_leapt, "{what}: leapt");
    assert_eq!(reused.stats, fresh.stats, "{what}: stats");
    match (&reused.trace, &fresh.trace) {
        (None, None) => {}
        (Some(a), Some(b)) => assert_eq!(a.events, b.events, "{what}: trace"),
        _ => panic!("{what}: trace presence diverged"),
    }
}

/// A deterministic shuffled case list: configurations of varying size and
/// span crossed with protocols, models, and run options, ordered so the
/// workspace repeatedly grows and shrinks.
fn cases(seed: u64) -> Vec<(String, Configuration, Box<dyn DripFactory>, RunOpts)> {
    let mut cases: Vec<(String, Configuration, Box<dyn DripFactory>, RunOpts)> = Vec::new();
    let mut k = 0u64;
    for n in [2usize, 9, 3, 12, 5] {
        for span in [0u64, 3, 50] {
            k += 1;
            let mut rng = stream(seed, "ws-reuse", k);
            let graph = if n % 2 == 0 {
                let max_extra = n * (n - 1) / 2 - (n - 1);
                generators::random_connected(n, (n / 2).min(max_extra), &mut rng)
            } else {
                generators::star(n)
            };
            let config = tags::random_in_span(graph, span, &mut rng);
            let factory: Box<dyn DripFactory> = match k % 5 {
                0 => Box::new(SilentFactory { lifetime: 6 }),
                1 => Box::new(WaitThenTransmitFactory {
                    wait: k % 3,
                    msg: Msg(k),
                    lifetime: 10 + k % 7,
                }),
                2 => Box::new(EchoFactory { lifetime: 12 }),
                3 => Box::new(BeaconFactory {
                    start: 2,
                    lifetime: 7,
                    msg: Msg(k),
                }),
                _ => Box::new(PatientFactory::new(
                    WaitThenTransmitFactory {
                        wait: 1,
                        msg: Msg::ONE,
                        lifetime: 8,
                    },
                    config.span(),
                )),
            };
            let opts = if k % 3 == 2 {
                RunOpts::default().traced()
            } else {
                RunOpts::default()
            };
            cases.push((
                format!("case {k}: n={n} span={span}"),
                config,
                factory,
                opts,
            ));
        }
    }
    // Deterministic shuffle so consecutive runs mix sizes/models/options.
    use rand::Rng;
    let mut rng = rng_from(seed ^ 0xD1CE);
    for i in (1..cases.len()).rev() {
        let j = rng.random_range(0..=i);
        cases.swap(i, j);
    }
    cases
}

#[test]
fn one_workspace_matches_fresh_runs_across_a_shuffled_mix() {
    let mut ws = SimWorkspace::new();
    for (label, config, factory, opts) in cases(0xBEEF) {
        for model in ModelKind::ALL {
            let reused = ws
                .run_kind(model, &config, factory.as_ref(), opts)
                .expect("terminates");
            let fresh = model
                .run(&config, factory.as_ref(), opts)
                .expect("terminates");
            assert_bit_identical(&reused, &fresh, &format!("{label} model={model}"));
        }
    }
}

#[test]
fn one_workspace_matches_fresh_canonical_elections() {
    // The compiled canonical DRIP (the paper's algorithm, quiet_until
    // timetable and all) through a reused workspace, untraced and traced.
    let mut ws = SimWorkspace::new();
    for m in [1u64, 4, 9] {
        let config = radio_graph::families::h_m(m);
        let compiled = anon_radio::solve(&config).expect("H_m feasible");
        let factory = compiled.factory();
        for opts in [RunOpts::default(), RunOpts::default().traced()] {
            let reused = ws.run(&config, &factory, opts).expect("terminates");
            let fresh = radio_sim::Executor::run(&config, &factory, opts).expect("terminates");
            let what = format!("H_{m} traced={}", opts.record_trace);
            assert_bit_identical(&reused, &fresh, &what);
        }
        // and the full election pipeline through the workspace API
        let report = compiled
            .run_in(&mut ws, &config, ModelKind::default(), RunOpts::default())
            .expect("elects");
        assert_eq!(
            report.leader,
            anon_radio::elect_leader(&config).unwrap().leader
        );
    }
}

#[test]
fn workspace_batches_match_reference_engine() {
    // Round-trip through the batch entry point too: the reference engine
    // is the oracle, the workspace batch must agree with it exactly.
    let mut rng = rng_from(7);
    let configs: Vec<Configuration> = (3..10)
        .map(|n| {
            let max_extra = n * (n - 1) / 2 - (n - 1);
            let g = generators::random_connected(n, 2.min(max_extra), &mut rng);
            tags::random_in_span(g, 4, &mut rng)
        })
        .collect();
    let factory = WaitThenTransmitFactory {
        wait: 0,
        msg: Msg(3),
        lifetime: 9,
    };
    for model in ModelKind::ALL {
        let batch = radio_sim::parallel::run_batch(&configs, &factory, model, RunOpts::default());
        for (config, result) in configs.iter().zip(batch) {
            let naive = model
                .run_reference(config, &factory, RunOpts::default())
                .expect("terminates");
            let ex = result.expect("terminates");
            assert_eq!(ex.histories, naive.histories);
            assert_eq!(ex.wake_round, naive.wake_round);
            assert_eq!(ex.done_round, naive.done_round);
            assert_eq!(ex.stats, naive.stats);
            assert_eq!(ex.rounds, naive.rounds);
        }
    }
}
