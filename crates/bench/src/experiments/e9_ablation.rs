//! E9 — ablation for the paper's open problem #1: can the `O(n³Δ)`
//! classifier be improved?
//!
//! The `fast` engine replaces the representative-scan `Refine` with hashed
//! `(old class, label)` refinement — `O(nΔ)` expected per iteration instead
//! of `O(n²Δ)` — while provably (and property-tested) producing the same
//! partitions, numbering, and lists. The table reports wall time of both
//! engines and the speedup; the shape target is a superlinearly growing
//! advantage.

use std::time::Instant;

use radio_classifier::{classify_with, Engine};
use radio_util::table::{fmt_f64, Table};

use crate::workloads::{scaling_families, with_random_tags};
use crate::Effort;

fn time_engine(config: &radio_graph::Configuration, engine: Engine, reps: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        let out = classify_with(config, engine);
        std::hint::black_box(out.iterations);
    }
    start.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// Runs E9.
pub fn run(effort: Effort, seed: u64) -> Vec<Table> {
    let (sizes, reps): (Vec<usize>, u32) = match effort {
        Effort::Quick => (vec![16, 32, 64], 3),
        Effort::Full => (vec![32, 64, 128, 256, 512], 5),
    };

    let mut table = Table::new(
        "E9: Classifier engines — paper-literal vs hash refinement (identical outcomes)",
        &["family", "n", "reference ms", "fast ms", "speedup", "agree"],
    );

    for family in scaling_families().into_iter().filter(|f| f.name != "star") {
        for &n in &sizes {
            let graph = family.make(n, seed);
            let real_n = graph.node_count();
            let config = with_random_tags(graph, 4, seed ^ n as u64);
            let r = classify_with(&config, Engine::Reference);
            let f = classify_with(&config, Engine::Fast);
            let agree = r.feasible == f.feasible
                && r.iterations == f.iterations
                && r.records
                    .iter()
                    .zip(&f.records)
                    .all(|(a, b)| a.partition == b.partition && a.labels == b.labels);
            let t_ref = time_engine(&config, Engine::Reference, reps);
            let t_fast = time_engine(&config, Engine::Fast, reps);
            table.push_row(vec![
                family.name.to_string(),
                real_n.to_string(),
                fmt_f64(t_ref, 3),
                fmt_f64(t_fast, 3),
                fmt_f64(t_ref / t_fast.max(1e-9), 2),
                agree.to_string(),
            ]);
        }
    }

    // Where the ablation really matters: G_m takes Θ(n) iterations with
    // Θ(n) classes, so the reference Refine pays Θ(n²Δ) per iteration while
    // the hash engine pays Θ(nΔ) — the gap compounds to ~n× overall.
    let mut adversarial = Table::new(
        "E9 adversarial: G_m (Θ(n) iterations) — where hash refinement wins big",
        &["m", "n", "reference ms", "fast ms", "speedup"],
    );
    let ms: Vec<usize> = match effort {
        Effort::Quick => vec![4, 8, 16],
        Effort::Full => vec![8, 16, 32, 64, 128],
    };
    for m in ms {
        let config = radio_graph::families::g_m(m);
        let t_ref = time_engine(&config, Engine::Reference, reps.min(3));
        let t_fast = time_engine(&config, Engine::Fast, reps.min(3));
        adversarial.push_row(vec![
            m.to_string(),
            config.size().to_string(),
            fmt_f64(t_ref, 3),
            fmt_f64(t_fast, 3),
            fmt_f64(t_ref / t_fast.max(1e-9), 2),
        ]);
    }

    // The star family is where Δ = n−1 makes the reference engine's label
    // comparisons heaviest — a dedicated mini-table.
    let mut star = Table::new(
        "E9 star family (Δ = n−1): worst case for the reference engine",
        &["n", "reference ms", "fast ms", "speedup"],
    );
    for &n in &sizes {
        let config = with_random_tags(radio_graph::generators::star(n), 4, seed ^ n as u64);
        let t_ref = time_engine(&config, Engine::Reference, reps);
        let t_fast = time_engine(&config, Engine::Fast, reps);
        star.push_row(vec![
            n.to_string(),
            fmt_f64(t_ref, 3),
            fmt_f64(t_fast, 3),
            fmt_f64(t_ref / t_fast.max(1e-9), 2),
        ]);
    }

    vec![table, adversarial, star]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_always_agree_in_the_sweep() {
        let tables = run(Effort::Quick, 2);
        let t = &tables[0];
        for row in 0..t.len() {
            assert_eq!(t.cell(row, 5), Some("true"), "row {row}");
        }
    }
}
