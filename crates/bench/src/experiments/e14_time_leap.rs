//! E14 — time-leap scheduler speedup on silence-dominated workloads.
//!
//! The paper's constructions are almost entirely silence: the patient
//! transform (Lemma 3.12) listens for σ local rounds before acting, and
//! the canonical schedule spends all but `n` rounds per phase listening.
//! Before the event-driven engine these regimes were unreachable at
//! realistic spans — a span-10⁶ configuration spun a million empty loop
//! iterations before the first wake-up. This experiment sweeps the span
//! on three workload shapes and reports, per span, the stepped/leapt round
//! split and the wall-clock of two engines on the identical workload —
//! the naive reference (full per-round rescan) and the leaping engine —
//! asserting along the way that both produce bit-identical executions.
//! The leaping engine's residual cost is the history materialization
//! itself (the output is Θ(rounds) observations); everything
//! round-proportional in the *loop* is gone.

use std::time::Instant;

use radio_graph::{families, generators, Configuration};
use radio_sim::drip::WaitThenTransmitFactory;
use radio_sim::{PatientFactory, RunOpts};
use radio_util::rng::derive;
use radio_util::table::{fmt_f64, Table};

use crate::workloads::with_random_tags;
use crate::Effort;

/// Times the naive reference engine (one full scan per round, always) and
/// the leaping engine on one workload, checks that they produce identical
/// executions, and appends the row.
fn push_comparison_row(
    table: &mut Table,
    what: &str,
    span: u64,
    config: &Configuration,
    factory: &dyn radio_sim::DripFactory,
) {
    let what = format!("{what} σ={span}");
    let start = Instant::now();
    let naive = radio_sim::engine_ref::run_reference(config, factory, RunOpts::default()).unwrap();
    let naive_wall = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let ex = radio_sim::Executor::run(config, factory, RunOpts::default()).unwrap();
    let leap_wall = start.elapsed().as_secs_f64();
    assert_eq!(ex.histories, naive.histories, "{what}: histories");
    assert_eq!(ex.wake_round, naive.wake_round, "{what}: wake rounds");
    assert_eq!(ex.done_round, naive.done_round, "{what}: done rounds");
    assert_eq!(ex.stats, naive.stats, "{what}: stats");
    assert_eq!(ex.rounds, naive.rounds, "{what}: round count");
    table.push_row(vec![
        span.to_string(),
        ex.rounds.to_string(),
        ex.rounds_stepped.to_string(),
        ex.rounds_leapt.to_string(),
        fmt_f64(naive_wall * 1e3, 3),
        fmt_f64(leap_wall * 1e3, 3),
        fmt_f64(naive_wall / leap_wall.max(1e-9), 1),
    ]);
}

const COLUMNS: [&str; 7] = [
    "span σ", "rounds", "stepped", "leapt", "naive ms", "leap ms", "vs naive",
];

/// Runs E14.
pub fn run(effort: Effort, seed: u64) -> Vec<Table> {
    let spans: Vec<u64> = match effort {
        Effort::Quick => vec![1_000, 10_000],
        Effort::Full => vec![10_000, 100_000, 1_000_000],
    };

    // Workload 1: duty-cycled wake bursts. Leaf pairs of a star wake
    // together, transmit simultaneously — a collision at the sleeping
    // centre, which therefore sleeps on — and terminate; between bursts
    // the whole network is asleep. Histories stay O(n · lifetime) while
    // the simulated span grows without bound: the regime where the
    // event-driven engine fully decouples wall-clock from rounds (the
    // round-driven reference pays Θ(σ · n) regardless).
    let mut bursts = Table::new(
        "E14a: duty-cycled wake bursts on a star — naive vs leap",
        &COLUMNS,
    );
    for &span in &spans {
        let pairs = 12u64;
        let mut tags = vec![span]; // the centre wakes long after the last burst
        for p in 0..pairs {
            let t = p * (span / pairs);
            tags.extend([t, t]);
        }
        let config =
            Configuration::new(generators::star(tags.len()), tags).expect("star is connected");
        let factory = WaitThenTransmitFactory {
            wait: 2,
            msg: radio_sim::Msg::ONE,
            lifetime: 16,
        };
        push_comparison_row(&mut bursts, "bursts", span, &config, &factory);
    }

    // Workload 2: patient-wrapped wait-then-transmit on a path with random
    // tags in 0..=σ — the Lemma 3.12 regime. Every node listens through a
    // σ-round window before the inner DRIP may act; here the *output*
    // (every node's σ-long history) is itself Θ(rounds), so the leap
    // engine's win is bounded by the materialization floor both engines
    // share.
    let mut patient = Table::new(
        "E14b: patient transform (Lemma 3.12) — naive vs leap",
        &COLUMNS,
    );
    for &span in &spans {
        let config = with_random_tags(generators::path(6), span, derive(seed, "e14a"));
        let factory = PatientFactory::new(
            WaitThenTransmitFactory {
                wait: 1,
                msg: radio_sim::Msg::ONE,
                lifetime: 12,
            },
            config.span(),
        );
        push_comparison_row(&mut patient, "patient", span, &config, &factory);
    }

    // Workload 3: the compiled canonical schedule on H_m (n = 4, σ = m+1)
    // — Θ(σ) schedule rounds with a handful of transmissions. The DRIP
    // advertises its timetable via `quiet_until`, so the leaping engine
    // executes only the eventful rounds.
    let mut canonical = Table::new(
        "E14c: canonical dedicated schedule on H_m — naive vs leap",
        &COLUMNS,
    );
    for &span in &spans {
        let config = families::h_m(span - 1); // σ = span
        let dedicated = anon_radio::solve(&config).expect("H_m is feasible");
        let factory = dedicated.factory();
        push_comparison_row(&mut canonical, "canonical", span, &config, &factory);
    }

    vec![bursts, patient, canonical]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_expected_shape() {
        let tables = run(Effort::Quick, 3);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.len(), 2, "one row per span");
        }
    }

    #[test]
    fn burst_workload_is_event_bound() {
        // Deterministic proxy for the wall-clock table: at span 10⁶ the
        // burst workload has ~12 bursts of a handful of eventful rounds
        // each — the leap engine must step O(bursts), not O(span).
        let span = 1_000_000u64;
        let mut tags = vec![span];
        for p in 0..12u64 {
            tags.extend([p * (span / 12), p * (span / 12)]);
        }
        let config = Configuration::new(generators::star(tags.len()), tags).unwrap();
        let factory = WaitThenTransmitFactory {
            wait: 2,
            msg: radio_sim::Msg::ONE,
            lifetime: 16,
        };
        let ex = radio_sim::Executor::run(&config, &factory, RunOpts::default()).unwrap();
        assert!(ex.rounds > span, "the centre wakes only at {span}");
        assert_eq!(ex.stats.transmissions, 25, "two per burst, one centre");
        assert!(
            ex.rounds_stepped < 128,
            "stepped {} of {} rounds",
            ex.rounds_stepped,
            ex.rounds
        );
    }

    #[test]
    fn leap_engine_steps_a_tiny_fraction() {
        // Not a wall-clock assertion (timers are noisy in CI) — the
        // stepped/leapt split is the deterministic proxy: at span 10⁴ the
        // leaping engine must execute well under 1% of the rounds.
        let config = with_random_tags(generators::path(6), 10_000, derive(3, "e14a"));
        let factory = PatientFactory::new(
            WaitThenTransmitFactory {
                wait: 1,
                msg: radio_sim::Msg::ONE,
                lifetime: 12,
            },
            config.span(),
        );
        let ex = radio_sim::Executor::run(&config, &factory, RunOpts::default()).unwrap();
        assert!(ex.rounds > config.span(), "whole σ window is simulated");
        assert!(
            ex.rounds_stepped * 100 < ex.rounds,
            "stepped {} of {}",
            ex.rounds_stepped,
            ex.rounds
        );
    }
}
