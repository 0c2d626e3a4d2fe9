//! E5 — Lemma 4.2 / Proposition 4.3: the 4-node family `H_m` forces
//! election time `≥ m`, i.e. `Ω(σ)`.
//!
//! The canonical dedicated algorithm completes `H_m` in one phase of
//! `3σ+2` local rounds, so its completion round is `Θ(σ)` — the lower
//! bound is tight up to the constant. The sweep reports the measured
//! completion round, the `m` floor, the ratio (which must stay ≥ 1 and
//! settle near 3), and the log–log slope vs σ (≈ 1).

use radio_graph::families;
use radio_util::stats::loglog_slope;
use radio_util::table::{fmt_f64, Table};

use crate::Effort;

/// Runs E5.
pub fn run(effort: Effort, _seed: u64) -> Vec<Table> {
    let ms: Vec<u64> = match effort {
        Effort::Quick => vec![1, 4, 16, 64],
        Effort::Full => vec![1, 4, 16, 64, 256, 1024, 4096],
    };

    let mut detail = Table::new(
        "E5: H_m (n=4) — completion round vs the Lemma 4.2 floor m",
        &[
            "m",
            "σ",
            "floor m",
            "completion round",
            "completion/σ",
            "b,c divergence",
        ],
    );

    let mut sigmas = Vec::new();
    let mut completions = Vec::new();
    for &m in &ms {
        let config = families::h_m(m);
        let sigma = config.span();
        let report = anon_radio::elect_leader(&config).expect("H_m elects");
        assert!(report.completion_round >= m, "Lemma 4.2 violated at m={m}");
        let (_, divs) = anon_radio::lower_bounds::canonical_divergences(&config, &[(1, 2)]);
        let div = divs[0].expect("feasible");
        detail.push_row(vec![
            m.to_string(),
            sigma.to_string(),
            m.to_string(),
            report.completion_round.to_string(),
            fmt_f64(report.completion_round as f64 / sigma as f64, 3),
            div.to_string(),
        ]);
        sigmas.push(sigma as f64);
        completions.push(report.completion_round as f64);
    }

    let mut summary = Table::new(
        "E5 summary: log–log slope of completion round vs σ (claim: ≈ 1, i.e. Θ(σ))",
        &["series", "slope", "R²"],
    );
    if let Some(fit) = loglog_slope(&sigmas, &completions) {
        summary.push_row(vec![
            "completion vs σ".into(),
            fmt_f64(fit.slope, 3),
            fmt_f64(fit.r2, 3),
        ]);
    }

    vec![detail, summary]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_scales_linearly_in_sigma() {
        let tables = run(Effort::Quick, 0);
        let slope: f64 = tables[1].cell(0, 1).unwrap().parse().unwrap();
        assert!((0.85..=1.15).contains(&slope), "slope = {slope}");
    }

    #[test]
    fn completion_to_sigma_ratio_is_small_constant() {
        let tables = run(Effort::Quick, 0);
        let t = &tables[0];
        for row in 0..t.len() {
            let ratio: f64 = t.cell(row, 4).unwrap().parse().unwrap();
            assert!(ratio <= 5.0, "row {row}: ratio {ratio}");
        }
    }
}
