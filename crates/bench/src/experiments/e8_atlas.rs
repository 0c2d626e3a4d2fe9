//! E8 — the feasibility landscape implied by Section 3: how often do
//! topology × wake-up-pattern combinations admit leader election?
//!
//! Shape targets: uniform wake-ups are never feasible for `n ≥ 2` (zero
//! column); feasibility rises with span; distinct wake-up times make
//! almost everything feasible. Trials are distributed over worker threads
//! with `radio-sim`'s parallel batch map.

use radio_graph::{tags, Configuration};
use radio_sim::parallel::par_map;
use radio_util::rng::{derive, rng_from};
use radio_util::table::{fmt_f64, Table};

use crate::workloads::{scaling_families, Family};
use crate::Effort;

fn feasible_fraction(family: &Family, n: usize, strategy: &str, trials: usize, seed: u64) -> f64 {
    let jobs: Vec<u64> = (0..trials as u64).collect();
    let outcomes = par_map(&jobs, |&trial| {
        let s = derive(seed, &format!("atlas/{n}/{strategy}/{trial}"));
        let mut rng = rng_from(s);
        let graph = family.make(n, s);
        let config: Configuration = match strategy {
            "uniform" => tags::uniform(graph, 0),
            "coin σ=1" => tags::coin_flip(graph, 1, &mut rng),
            "random σ=2" => tags::random_in_span(graph, 2, &mut rng),
            "random σ=8" => tags::random_in_span(graph, 8, &mut rng),
            "distinct" => tags::distinct_shuffled(graph, &mut rng),
            other => unreachable!("unknown strategy {other}"),
        };
        radio_classifier::classify(&config).feasible
    });
    outcomes.iter().filter(|&&b| b).count() as f64 / trials as f64
}

/// Runs E8.
pub fn run(effort: Effort, seed: u64) -> Vec<Table> {
    let (n, trials) = match effort {
        Effort::Quick => (10usize, 12usize),
        Effort::Full => (16, 100),
    };
    let strategies = [
        "uniform",
        "coin σ=1",
        "random σ=2",
        "random σ=8",
        "distinct",
    ];

    let mut table = Table::new(
        format!("E8: feasible fraction by family × wake-up strategy (n = {n}, {trials} seeds)"),
        &[
            "family",
            strategies[0],
            strategies[1],
            strategies[2],
            strategies[3],
            strategies[4],
        ],
    );

    for family in scaling_families() {
        let mut row = vec![family.name.to_string()];
        for strategy in &strategies {
            let frac = feasible_fraction(&family, n, strategy, trials, seed);
            row.push(fmt_f64(frac, 2));
        }
        table.push_row(row);
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_column_is_zero_and_distinct_is_high() {
        let tables = run(Effort::Quick, 5);
        let t = &tables[0];
        for row in 0..t.len() {
            let uniform: f64 = t.cell(row, 1).unwrap().parse().unwrap();
            assert_eq!(
                uniform, 0.0,
                "row {row}: uniform wake-ups can never be feasible"
            );
            let distinct: f64 = t.cell(row, 5).unwrap().parse().unwrap();
            assert!(
                distinct >= 0.75,
                "row {row}: distinct tags should almost always work"
            );
        }
    }

    #[test]
    fn feasibility_rises_with_span() {
        let tables = run(Effort::Quick, 5);
        let t = &tables[0];
        // aggregate across families: mean(random σ=8) ≥ mean(random σ=2)
        let mean = |col: usize| -> f64 {
            (0..t.len())
                .map(|r| t.cell(r, col).unwrap().parse::<f64>().unwrap())
                .sum::<f64>()
                / t.len() as f64
        };
        assert!(
            mean(4) + 1e-9 >= mean(3),
            "σ=8 should not be less feasible than σ=2"
        );
    }
}
