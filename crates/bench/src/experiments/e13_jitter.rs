//! E13 — wake-up jitter sensitivity (extension).
//!
//! In a deployment, tags are physical power-on times and jitter by a round
//! or two. Feasibility is a property of the *exact* tag vector — so how
//! fragile is it? For feasible base configurations, perturb a single
//! node's tag by ±1 (every node, both directions) and measure
//!
//! * how often the perturbed configuration stays feasible, and
//! * how often it still elects the *same* leader.
//!
//! Shape target: distinct-tag bases are robust (perturbations mostly keep
//! distinctness), while span-1 coin-flip bases are brittle — a single
//! round of jitter frequently lands two neighbours on the same tag and
//! re-symmetrizes the network. Leader *identity* is far more fragile than
//! feasibility in both regimes.

use radio_graph::{tags, Configuration};
use radio_sim::parallel::par_map;
use radio_util::rng::{derive, rng_from};
use radio_util::table::{fmt_f64, Table};

use crate::workloads::scaling_families;
use crate::Effort;

/// All single-node ±1 perturbations of a configuration's tags (clamped at
/// 0, then normalized).
fn perturbations(config: &Configuration) -> Vec<Configuration> {
    let mut out = Vec::new();
    for v in 0..config.size() {
        for delta in [-1i64, 1] {
            let mut tags = config.tags().to_vec();
            let t = tags[v] as i64 + delta;
            if t < 0 {
                continue;
            }
            tags[v] = t as u64;
            out.push(
                Configuration::new(config.graph().clone(), tags)
                    .expect("graph unchanged")
                    .normalize(),
            );
        }
    }
    out
}

/// Runs E13.
pub fn run(effort: Effort, seed: u64) -> Vec<Table> {
    let (n, bases_per_cell): (usize, usize) = match effort {
        Effort::Quick => (8, 4),
        Effort::Full => (12, 12),
    };

    let mut table = Table::new(
        format!("E13: single-node ±1 tag jitter on feasible bases (n = {n})"),
        &[
            "family",
            "base tags",
            "bases",
            "perturbations",
            "still feasible",
            "same leader",
        ],
    );

    for family in scaling_families() {
        for regime in ["distinct", "coin σ=1"] {
            let mut total_perturbed = 0usize;
            let mut still_feasible = 0usize;
            let mut same_leader = 0usize;
            let mut bases_used = 0usize;

            for b in 0..bases_per_cell * 4 {
                if bases_used == bases_per_cell {
                    break;
                }
                let cell_seed = derive(seed, &format!("e13/{}/{regime}/{b}", family.name));
                let graph = family.make(n, cell_seed);
                let mut rng = rng_from(cell_seed);
                let base = match regime {
                    "distinct" => tags::distinct_shuffled(graph, &mut rng),
                    _ => tags::coin_flip(graph, 1, &mut rng),
                };
                let Ok(dedicated) = anon_radio::solve(&base) else {
                    continue; // need a feasible base
                };
                let base_leader = dedicated.predicted_leader();
                bases_used += 1;

                let variants = perturbations(&base);
                let outcomes = par_map(&variants, |variant| match anon_radio::solve(variant) {
                    Ok(d) => (true, d.predicted_leader() == base_leader),
                    Err(_) => (false, false),
                });
                total_perturbed += outcomes.len();
                still_feasible += outcomes.iter().filter(|&&(f, _)| f).count();
                same_leader += outcomes.iter().filter(|&&(_, s)| s).count();
            }

            if bases_used == 0 {
                continue;
            }
            table.push_row(vec![
                family.name.to_string(),
                regime.to_string(),
                bases_used.to_string(),
                total_perturbed.to_string(),
                fmt_f64(still_feasible as f64 / total_perturbed as f64, 3),
                fmt_f64(same_leader as f64 / total_perturbed as f64, 3),
            ]);
        }
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generators;

    #[test]
    fn perturbations_have_expected_count_and_validity() {
        let base = Configuration::new(generators::path(4), vec![0, 1, 2, 3]).unwrap();
        let variants = perturbations(&base);
        // node 0 cannot go below 0 → 2n − 1 variants
        assert_eq!(variants.len(), 7);
        for v in &variants {
            assert!(v.is_normalized());
            assert_eq!(v.size(), 4);
        }
    }

    #[test]
    fn distinct_bases_are_more_robust_than_coin_bases() {
        let tables = run(Effort::Quick, 3);
        let t = &tables[0];
        let mut distinct = Vec::new();
        let mut coin = Vec::new();
        for row in 0..t.len() {
            let frac: f64 = t.cell(row, 4).unwrap().parse().unwrap();
            match t.cell(row, 1) {
                Some("distinct") => distinct.push(frac),
                _ => coin.push(frac),
            }
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        assert!(!distinct.is_empty());
        if !coin.is_empty() {
            assert!(
                mean(&distinct) + 0.10 >= mean(&coin),
                "distinct {:.2} vs coin {:.2}",
                mean(&distinct),
                mean(&coin)
            );
        }
    }
}
