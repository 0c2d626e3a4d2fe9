//! E3 — Theorem 3.15 / Lemma 3.10: the dedicated algorithm elects a leader
//! within `O(n²σ)` rounds.
//!
//! For feasible configurations across families, sizes and spans, the sweep
//! reports the canonical DRIP's actual termination round (local), the
//! concrete bound `⌈n/2⌉·(n(2σ+1)+σ)+1` from Lemma 3.10, and their ratio —
//! which must never exceed 1 and in practice sits far below (few phases,
//! few classes).

use radio_sim::{ModelKind, RunOpts, SimWorkspace};
use radio_util::table::{fmt_f64, Table};

use crate::workloads::{feasible_with_span, scaling_families};
use crate::Effort;

/// The concrete Lemma 3.10 budget.
pub fn lemma_3_10_bound(n: u64, sigma: u64) -> u64 {
    n.div_ceil(2) * (n * (2 * sigma + 1) + sigma) + 1
}

/// Runs E3.
pub fn run(effort: Effort, seed: u64) -> Vec<Table> {
    let (sizes, spans): (Vec<usize>, Vec<u64>) = match effort {
        Effort::Quick => (vec![4, 8, 16], vec![1, 4]),
        Effort::Full => (vec![8, 16, 32, 64], vec![1, 4, 16]),
    };

    let mut detail = Table::new(
        "E3: canonical DRIP termination round vs the Lemma 3.10 budget",
        &[
            "family",
            "n",
            "σ",
            "phases",
            "rounds",
            "budget",
            "rounds/budget",
        ],
    );

    let mut sim = SimWorkspace::new();
    for family in scaling_families() {
        for &n in &sizes {
            for &span in &spans {
                let graph = family.make(n, seed);
                let real_n = graph.node_count() as u64;
                let config = feasible_with_span(graph, span, seed ^ (n as u64) ^ (span << 32));
                let sigma = config.span();
                let Ok(compiled) = anon_radio::solve(&config) else {
                    continue; // extremely unlikely after retries
                };
                let report = compiled
                    .run_in(&mut sim, &config, ModelKind::default(), RunOpts::default())
                    .expect("dedicated elections succeed");
                let budget = lemma_3_10_bound(real_n, sigma);
                assert!(
                    report.rounds_local <= budget,
                    "{}: bound violated",
                    family.name
                );
                detail.push_row(vec![
                    family.name.to_string(),
                    real_n.to_string(),
                    sigma.to_string(),
                    report.phases.to_string(),
                    report.rounds_local.to_string(),
                    budget.to_string(),
                    fmt_f64(report.rounds_local as f64 / budget as f64, 4),
                ]);
            }
        }
    }

    vec![detail]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_formula_matches_lemma() {
        // n=4, σ=3: ⌈2⌉ * (4·7+3) + 1 = 2·31+1 = 63
        assert_eq!(lemma_3_10_bound(4, 3), 63);
    }

    #[test]
    fn all_ratios_at_most_one() {
        let tables = run(Effort::Quick, 11);
        let t = &tables[0];
        assert!(t.len() > 10, "sweep should cover most cells");
        for row in 0..t.len() {
            let ratio: f64 = t.cell(row, 6).unwrap().parse().unwrap();
            assert!(ratio <= 1.0, "row {row}");
        }
    }
}
