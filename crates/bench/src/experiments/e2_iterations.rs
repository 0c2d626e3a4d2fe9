//! E2 — Corollary 3.3 + Lemma 3.4: `Classifier` exits within `⌈n/2⌉`
//! iterations, and the class count strictly grows until the exit.
//!
//! The sweep reports, per family and size, the iterations used, the proved
//! ceiling, their ratio, and whether monotonicity held (it must — the run
//! asserts it). The `G_m` family realizes the worst case `Θ(n)` of the
//! iteration count up to the constant: `m = (n−1)/4` iterations.

use radio_classifier::classify;
use radio_graph::families;
use radio_util::table::{fmt_f64, Table};

use crate::workloads::scaling_families;
use crate::Effort;

/// Runs E2.
pub fn run(effort: Effort, seed: u64) -> Vec<Table> {
    let sizes: Vec<usize> = match effort {
        Effort::Quick => vec![8, 16, 32],
        Effort::Full => vec![16, 32, 64, 128, 256],
    };

    let mut detail = Table::new(
        "E2: Classifier iterations vs the ⌈n/2⌉ ceiling",
        &[
            "family",
            "n",
            "iterations",
            "⌈n/2⌉",
            "ratio",
            "strictly-growing",
        ],
    );

    for family in scaling_families() {
        for &n in &sizes {
            let graph = family.make(n, seed);
            let real_n = graph.node_count();
            // Coin-flip tags with span 1: the least informative non-uniform
            // regime, which is what actually induces multi-iteration
            // refinement on structured graphs.
            let config = radio_graph::tags::coin_flip(
                graph,
                1,
                &mut radio_util::rng::rng_from(seed ^ n as u64),
            );
            let outcome = classify(&config);
            let ceiling = real_n.div_ceil(2);
            assert!(
                outcome.iterations <= ceiling,
                "{}: Lemma 3.4 violated",
                family.name
            );
            let counts = outcome.class_counts();
            let strictly = counts[..counts.len().saturating_sub(1)]
                .windows(2)
                .all(|w| w[0] < w[1]);
            assert!(strictly, "{}: Corollary 3.3 violated", family.name);
            detail.push_row(vec![
                family.name.to_string(),
                real_n.to_string(),
                outcome.iterations.to_string(),
                ceiling.to_string(),
                fmt_f64(outcome.iterations as f64 / ceiling as f64, 3),
                strictly.to_string(),
            ]);
        }
    }

    // The adversarial family: G_m forces Θ(n) iterations.
    let mut adversarial = Table::new(
        "E2 adversarial: G_m realizes Θ(n) iterations (m = (n−1)/4)",
        &["m", "n", "iterations", "⌈n/2⌉", "iterations/m"],
    );
    let ms: Vec<usize> = match effort {
        Effort::Quick => vec![2, 4, 8],
        Effort::Full => vec![2, 4, 8, 16, 32, 64],
    };
    for m in ms {
        let config = families::g_m(m);
        let outcome = classify(&config);
        adversarial.push_row(vec![
            m.to_string(),
            config.size().to_string(),
            outcome.iterations.to_string(),
            config.size().div_ceil(2).to_string(),
            fmt_f64(outcome.iterations as f64 / m as f64, 2),
        ]);
    }

    vec![detail, adversarial]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn g_m_uses_exactly_m_iterations() {
        let tables = run(Effort::Quick, 1);
        let adv = &tables[1];
        for row in 0..adv.len() {
            let ratio: f64 = adv.cell(row, 4).unwrap().parse().unwrap();
            assert_eq!(ratio, 1.0, "G_m must take exactly m iterations");
        }
    }
}
