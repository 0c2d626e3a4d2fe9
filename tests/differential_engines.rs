//! Differential testing: the optimized executor vs the naive reference
//! executor, across random configurations, protocols, and *every* channel
//! model — including the canonical DRIP itself. Any divergence is a bug in
//! the optimized engine.

use proptest::prelude::*;

use radio_graph::{generators, Configuration};
use radio_sim::drip::{BeaconFactory, EchoFactory, WaitThenTransmitFactory};
use radio_sim::engine_ref::run_reference;
use radio_sim::workspace::RING_ROUNDS;
use radio_sim::{DripFactory, Executor, ModelKind, Msg, PatientFactory, RunOpts};

fn build_config(n: usize, extra: usize, span: u64, seed: u64) -> Configuration {
    let mut rng = radio_util::rng::rng_from(seed);
    let max_extra = n * (n - 1) / 2 - n.saturating_sub(1);
    let g = generators::random_connected(n, extra.min(max_extra), &mut rng);
    radio_graph::tags::random_in_span(g, span, &mut rng)
}

fn config_strategy() -> impl Strategy<Value = Configuration> {
    (1usize..12, 0usize..8, 0u64..7, any::<u64>())
        .prop_map(|(n, extra, span, seed)| build_config(n, extra, span, seed))
}

fn assert_identical(
    config: &Configuration,
    factory: &dyn DripFactory,
) -> Result<(), TestCaseError> {
    // The default model first (also exercised via the legacy entry points
    // so `Executor::run`/`run_reference` stay bit-for-bit with the seed
    // semantics) …
    let fast = Executor::run(config, factory, RunOpts::default()).unwrap();
    let naive = run_reference(config, factory, RunOpts::default()).unwrap();
    prop_assert_eq!(&fast.wake_round, &naive.wake_round, "{}", config);
    prop_assert_eq!(&fast.done_round, &naive.done_round, "{}", config);
    prop_assert_eq!(&fast.histories, &naive.histories, "{}", config);
    prop_assert_eq!(fast.rounds, naive.rounds, "{}", config);
    prop_assert_eq!(fast.stats, naive.stats, "{}", config);
    let default_fast = fast;

    // … then every model through the dispatching entry points: the
    // time-leaping engine, the same engine with leaping disabled, and the
    // naive reference — all three must agree byte for byte.
    for kind in ModelKind::ALL {
        let leap = kind.run(config, factory, RunOpts::default()).unwrap();
        let step = kind
            .run(config, factory, RunOpts::default().no_leap())
            .unwrap();
        let naive = kind
            .run_reference(config, factory, RunOpts::default())
            .unwrap();
        for (engine, fast) in [("leap", &leap), ("step", &step)] {
            prop_assert_eq!(
                &fast.wake_round,
                &naive.wake_round,
                "{} [{} {}]",
                config,
                kind,
                engine
            );
            prop_assert_eq!(
                &fast.done_round,
                &naive.done_round,
                "{} [{} {}]",
                config,
                kind,
                engine
            );
            prop_assert_eq!(
                &fast.histories,
                &naive.histories,
                "{} [{} {}]",
                config,
                kind,
                engine
            );
            prop_assert_eq!(
                fast.rounds,
                naive.rounds,
                "{} [{} {}]",
                config,
                kind,
                engine
            );
            prop_assert_eq!(fast.stats, naive.stats, "{} [{} {}]", config, kind, engine);
        }
        // round accounting: stepped + leapt always partitions the run
        prop_assert_eq!(
            leap.rounds_stepped + leap.rounds_leapt,
            leap.rounds,
            "{} [{}]",
            config,
            kind
        );
        prop_assert_eq!(step.rounds_stepped, step.rounds, "{} [{}]", config, kind);
        prop_assert_eq!(step.rounds_leapt, 0, "{} [{}]", config, kind);
        if kind == ModelKind::NoCollisionDetection {
            // the dispatcher's default must be the legacy behaviour
            prop_assert_eq!(&leap.histories, &default_fast.histories, "{}", config);
            prop_assert_eq!(leap.stats, default_fast.stats, "{}", config);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wait_then_transmit_differential(config in config_strategy(), wait in 0u64..5) {
        let f = WaitThenTransmitFactory { wait, msg: Msg(9), lifetime: wait + 12 };
        assert_identical(&config, &f)?;
    }

    #[test]
    fn beacon_differential(config in config_strategy(), start in 1u64..4, extra in 1u64..5) {
        let f = BeaconFactory { start, lifetime: start + extra, msg: Msg(2) };
        assert_identical(&config, &f)?;
    }

    #[test]
    fn echo_differential(config in config_strategy()) {
        let f = EchoFactory { lifetime: 18 };
        assert_identical(&config, &f)?;
    }

    #[test]
    fn patient_differential(config in config_strategy(), wait in 0u64..4) {
        let f = PatientFactory::new(
            WaitThenTransmitFactory { wait, msg: Msg(5), lifetime: wait + 10 },
            config.span(),
        );
        assert_identical(&config, &f)?;
    }

    #[test]
    fn canonical_drip_differential(config in config_strategy()) {
        let (_, schedule) = anon_radio::CanonicalSchedule::build(&config);
        let factory = anon_radio::CanonicalFactory::new(std::sync::Arc::new(schedule));
        assert_identical(&config, &factory)?;
    }
}

// High-span configurations make every naive run cost Θ(span) rounds, so
// these cases are fewer — the point is that the *leaping* engine crosses
// huge silent stretches and still agrees with both step-by-step engines,
// under every model, with patient-wrapped DRIPs layered on top.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn high_span_patient_differential(
        n in 2usize..7,
        extra in 0usize..4,
        big in 0u64..2,
        span_off in 0u64..50_000,
        seed in any::<u64>(),
        wait in 0u64..4,
    ) {
        // bimodal spans: moderate (10..2010) and huge (50k..100k)
        let span = if big == 0 { 10 + span_off % 2_000 } else { 50_000 + span_off };
        let config = build_config(n, extra, span, seed);
        let f = PatientFactory::new(
            WaitThenTransmitFactory { wait, msg: Msg(5), lifetime: wait + 10 },
            config.span(),
        );
        assert_identical(&config, &f)?;
    }

    #[test]
    fn high_span_plain_differential(
        n in 2usize..7,
        span in 50_000u64..100_000,
        seed in any::<u64>(),
        wait in 0u64..4,
    ) {
        let config = build_config(n, 2, span, seed);
        let f = WaitThenTransmitFactory { wait, msg: Msg(2), lifetime: wait + 12 };
        assert_identical(&config, &f)?;
    }
}

/// Where the far-tag configurations' first tag falls.
const FAR: u64 = 100_000;

/// `build_config`'s graph with tags in `FAR ..= FAR + span`, both ends
/// taken, so the calendar starts at `FAR` and files wake-ups on both
/// sides of its ring's edge when `span ≥ RING_ROUNDS`.
fn far_config(n: usize, extra: usize, span: u64, seed: u64) -> Configuration {
    let config = build_config(n, extra, span, seed);
    let mut tags = config.tags().to_vec();
    tags[0] = 0;
    tags[n - 1] = span;
    let tags = tags.into_iter().map(|t| FAR + t).collect();
    Configuration::new(config.csr().clone(), tags).unwrap()
}

/// A round whose entries sit in both halves of the calendar: node 2's
/// wake-up was filed in the far-future map, more than `RING_ROUNDS` past
/// the first tag, and node 1, woken the round before, is due in that same
/// round from the ring. Neither may be dropped.
#[test]
fn a_round_filed_in_both_the_ring_and_the_far_map_visits_both() {
    let late = FAR + RING_ROUNDS + 44;
    let config = Configuration::new(generators::path(3), vec![FAR, late, late + 1]).unwrap();
    assert_identical(&config, &radio_sim::drip::SilentFactory { lifetime: 1 }).unwrap();
}

// Tags that start far from round 0 and span more than the calendar's ring:
// every DRIP the traced differential draws from, leaping and stepping under
// every model, against the reference engine (which steps through the
// 10⁵ rounds before the first tag one by one). `FAR` is not a multiple of
// the ring's size, so the ring's window starts mid-ring and wraps.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn far_tags_spanning_more_than_the_ring_differential(
        n in 2usize..7,
        extra in 0usize..4,
        span in RING_ROUNDS..4 * RING_ROUNDS,
        seed in any::<u64>(),
        which in 0usize..6,
        wait in 0u64..4,
    ) {
        let config = far_config(n, extra, span, seed);
        prop_assert_eq!((config.min_tag(), config.span()), (FAR, span));
        assert_identical(&config, traced_drip(&config, which, wait).as_ref())?;
    }
}

/// Regression: a span-10⁶ all-silent configuration must complete in a
/// number of *executed* loop iterations that is tiny compared to the
/// simulated span — the whole point of the time-leap scheduler. (Before
/// it, this workload spun a million empty iterations per silent stretch.)
#[test]
fn million_span_silent_config_is_event_bound() {
    let span = 1_000_000u64;
    let config = Configuration::new(generators::path(4), vec![0, span / 2, span, 7]).unwrap();
    let f = radio_sim::drip::SilentFactory { lifetime: 5 };
    let ex = Executor::run(&config, &f, RunOpts::default()).unwrap();
    assert_eq!(ex.rounds, span + 6, "last waker terminates 5 rounds in");
    assert_eq!(ex.rounds_stepped + ex.rounds_leapt, ex.rounds);
    assert!(
        ex.rounds_stepped <= 32,
        "{} rounds stepped for a {}-round run: the engine failed to leap",
        ex.rounds_stepped,
        ex.rounds
    );
    // And the result is exactly the one the step-by-step engine computes.
    let step = Executor::run(&config, &f, RunOpts::default().no_leap()).unwrap();
    assert_eq!(ex.histories, step.histories);
    assert_eq!(ex.wake_round, step.wake_round);
    assert_eq!(ex.done_round, step.done_round);
    assert_eq!(ex.stats, step.stats);
    assert_eq!(step.rounds_stepped, step.rounds);
}

/// Leap and step runs record the same trace, round for round, under every
/// model: the calendar visits nodes in a mode-dependent order, so this pins
/// that each round's event lists come out in a mode-independent one, and
/// that no eventful round is skipped or invented by the leap.
fn assert_traces_identical(
    config: &Configuration,
    factory: &dyn DripFactory,
) -> Result<(), TestCaseError> {
    for kind in ModelKind::ALL {
        let leap = kind
            .run(config, factory, RunOpts::default().traced())
            .unwrap();
        let step = kind
            .run(config, factory, RunOpts::default().no_leap().traced())
            .unwrap();
        let (leap, step) = (leap.trace.unwrap(), step.trace.unwrap());
        prop_assert_eq!(&leap.events, &step.events, "{} [{}]", config, kind);
    }
    Ok(())
}

/// The DRIPs the traced differential draws from: every elementary DRIP,
/// the patient transform over one, and the canonical DRIP of the
/// configuration itself.
fn traced_drip(config: &Configuration, which: usize, wait: u64) -> Box<dyn DripFactory> {
    match which {
        0 => Box::new(radio_sim::drip::SilentFactory { lifetime: wait + 3 }),
        1 => Box::new(WaitThenTransmitFactory {
            wait,
            msg: Msg(9),
            lifetime: wait + 12,
        }),
        2 => Box::new(BeaconFactory {
            start: wait + 1,
            lifetime: wait + 4,
            msg: Msg(2),
        }),
        3 => Box::new(EchoFactory { lifetime: 18 }),
        4 => Box::new(PatientFactory::new(
            WaitThenTransmitFactory {
                wait,
                msg: Msg(5),
                lifetime: wait + 10,
            },
            config.span(),
        )),
        _ => {
            let (_, schedule) = anon_radio::CanonicalSchedule::build(config);
            Box::new(anon_radio::CanonicalFactory::new(std::sync::Arc::new(
                schedule,
            )))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn traced_leap_matches_traced_step(
        config in config_strategy(),
        which in 0usize..6,
        wait in 0u64..5,
    ) {
        assert_traces_identical(&config, traced_drip(&config, which, wait).as_ref())?;
    }

    #[test]
    fn traced_leap_matches_traced_step_at_wide_spans(
        n in 2usize..9,
        extra in 0usize..6,
        span in 10u64..300,
        seed in any::<u64>(),
        which in 0usize..6,
        wait in 0u64..5,
    ) {
        let config = build_config(n, extra, span, seed);
        assert_traces_identical(&config, traced_drip(&config, which, wait).as_ref())?;
    }
}
