//! E1 — Theorem 3.17 / Lemma 3.5: `Classifier` decides feasibility in
//! `O(n³Δ)` elementary steps.
//!
//! We run the *reference* (paper-literal, instrumented) engine across graph
//! families and sizes, reporting measured steps, the normalized ratio
//! `steps / (n³Δ)` (which must stay bounded if the bound is right), and the
//! log–log slope of steps vs `n` per family (which must stay below 3 on
//! fixed-degree families — in practice far below, since the `⌈n/2⌉`
//! iteration worst case is rarely realized).
//!
//! The throughput side (open problem #1's practical face) is measured on
//! the worker-scoped API: a batch of repeated classifications through the
//! per-run fresh eager path versus per-worker recycled
//! [`ClassifierWorkspace`]s (E1b), plus the same sweep expressed as a
//! declarative `--phase classify` campaign (E1c).

use std::time::Instant;

use radio_classifier::{classify_with, ClassifierWorkspace, Engine};
use radio_graph::Configuration;
use radio_sim::parallel::{default_threads, par_map_init};
use radio_util::stats::loglog_slope;
use radio_util::table::{fmt_f64, Table};

use crate::campaign::{classify_spec, classify_table, CampaignRunner};
use crate::workloads::{scaling_families, with_random_tags};
use crate::Effort;

/// Runs E1.
pub fn run(effort: Effort, seed: u64) -> Vec<Table> {
    let sizes: Vec<usize> = match effort {
        Effort::Quick => vec![8, 16, 32],
        Effort::Full => vec![16, 32, 64, 128, 256],
    };
    let span = 4u64;

    let mut detail = Table::new(
        format!("E1: Classifier (reference engine) steps vs the n³Δ budget (span {span})"),
        &["family", "n", "Δ", "iters", "steps", "steps/(n³Δ)"],
    );
    let mut slopes = Table::new(
        "E1 summary: log–log slope of steps vs n per family (claim: ≤ 3 for fixed Δ)",
        &["family", "slope", "R²"],
    );

    for family in scaling_families() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for &n in &sizes {
            let graph = family.make(n, seed);
            let real_n = graph.node_count();
            let config = with_random_tags(graph, span, seed ^ n as u64);
            let delta = config.max_degree();
            let outcome = classify_with(&config, Engine::Reference);
            let steps = outcome.cost.total();
            let budget = (real_n as f64).powi(3) * delta as f64;
            detail.push_row(vec![
                family.name.to_string(),
                real_n.to_string(),
                delta.to_string(),
                outcome.iterations.to_string(),
                steps.to_string(),
                fmt_f64(steps as f64 / budget, 5),
            ]);
            xs.push(real_n as f64);
            ys.push(steps as f64);
        }
        if let Some(fit) = loglog_slope(&xs, &ys) {
            slopes.push_row(vec![
                family.name.to_string(),
                fmt_f64(fit.slope, 3),
                fmt_f64(fit.r2, 3),
            ]);
        }
    }

    // Adversarial case: random tags split everything in one iteration, so
    // the sweep above never stresses the ⌈n/2⌉-iterations dimension of the
    // bound. G_m does: Θ(n) iterations with growing class counts, the
    // regime where the reference engine's cost actually approaches cubic.
    let mut adversarial = Table::new(
        "E1 adversarial: G_m (Θ(n) iterations) — steps approach the cubic regime",
        &["m", "n", "iters", "steps", "steps/(n³Δ)"],
    );
    let ms: Vec<usize> = match effort {
        Effort::Quick => vec![2, 4, 8],
        Effort::Full => vec![2, 4, 8, 16, 32, 64],
    };
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for m in ms {
        let config = radio_graph::families::g_m(m);
        let n = config.size();
        let outcome = classify_with(&config, Engine::Reference);
        let steps = outcome.cost.total();
        adversarial.push_row(vec![
            m.to_string(),
            n.to_string(),
            outcome.iterations.to_string(),
            steps.to_string(),
            fmt_f64(steps as f64 / ((n as f64).powi(3) * 2.0), 5),
        ]);
        xs.push(n as f64);
        ys.push(steps as f64);
    }
    if let Some(fit) = loglog_slope(&xs, &ys) {
        slopes.push_row(vec![
            "G_m (adversarial)".to_string(),
            fmt_f64(fit.slope, 3),
            fmt_f64(fit.r2, 3),
        ]);
    }

    // E1b: repeated classification on the worker-scoped API — per-run
    // fresh state (the eager `classify` path: fresh refine buffers, a
    // `Vec<Label>` and two partition clones per iteration) versus one
    // recycled ClassifierWorkspace per worker (interned labels,
    // incremental worklist, record-free). Same batch, same threads.
    let batch_n = match effort {
        Effort::Quick => 128usize,
        Effort::Full => 512,
    };
    let batch: Vec<Configuration> = scaling_families()
        .into_iter()
        .flat_map(|family| {
            (0..4u64).map(move |i| {
                let graph = family.make(batch_n, seed ^ i);
                with_random_tags(graph, 8, seed ^ (i << 8) ^ batch_n as u64)
            })
        })
        .collect();
    let threads = default_threads();
    let fresh_pass = || {
        let start = Instant::now();
        let verdicts = par_map_init(
            &batch,
            threads,
            || (),
            |_, config| radio_classifier::classify(config).feasible,
        );
        std::hint::black_box(verdicts.len());
        start.elapsed().as_secs_f64()
    };
    let reuse_pass = || {
        let start = Instant::now();
        let verdicts = par_map_init(&batch, threads, ClassifierWorkspace::new, |ws, config| {
            ws.summarize_in(config).feasible
        });
        std::hint::black_box(verdicts.len());
        start.elapsed().as_secs_f64()
    };
    // A single pass over a few dozen configurations mostly times thread
    // start-up, so each path gets one warm-up pass and then the best of
    // five passes, alternating between the paths.
    const PASSES: usize = 5;
    fresh_pass();
    reuse_pass();
    let (mut timed_fresh, mut timed_reuse) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PASSES {
        timed_fresh = timed_fresh.min(fresh_pass());
        timed_reuse = timed_reuse.min(reuse_pass());
    }
    let mut reuse = Table::new(
        format!(
            "E1b: repeated classification of {} configs (n = {batch_n}) — fresh eager state \
             per run vs per-worker recycled ClassifierWorkspace ({threads} threads, best of \
             {PASSES} passes)",
            batch.len()
        ),
        &["path", "wall ms", "runs/s", "speedup"],
    );
    for (label, wall) in [
        ("fresh+records", timed_fresh),
        ("workspace+summary", timed_reuse),
    ] {
        reuse.push_row(vec![
            label.to_string(),
            fmt_f64(wall * 1e3, 2),
            fmt_f64(batch.len() as f64 / wall.max(1e-9), 0),
            fmt_f64(timed_fresh / wall.max(1e-9), 2),
        ]);
    }

    // E1c: the classify-phase campaign — the same decision workload as a
    // declarative family × n × span grid with streaming per-cell
    // aggregates (feasible rate, iterations, classes, relabel work).
    let mut runner = CampaignRunner::new(classify_spec(effort, seed), 4);
    runner.run_to_completion(threads);
    let campaign = classify_table(
        format!(
            "E1c: classify-phase campaign of {} runs over {} shards",
            runner.spec().total_runs(),
            runner.shard_count(),
        ),
        &runner,
    );

    vec![detail, adversarial, slopes, reuse, campaign]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_stay_bounded() {
        let tables = run(Effort::Quick, 3);
        let detail = &tables[0];
        for row in 0..detail.len() {
            let ratio: f64 = detail.cell(row, 5).unwrap().parse().unwrap();
            assert!(
                ratio <= 8.0,
                "row {row}: steps exceeded 8×n³Δ (ratio {ratio})"
            );
        }
    }

    #[test]
    fn slopes_below_cubic() {
        let tables = run(Effort::Quick, 3);
        let slopes = &tables[2];
        for row in 0..slopes.len() {
            let slope: f64 = slopes.cell(row, 1).unwrap().parse().unwrap();
            assert!(
                slope <= 3.3,
                "family {:?} slope {slope}",
                slopes.cell(row, 0)
            );
        }
    }

    #[test]
    fn adversarial_ratio_still_within_budget() {
        let tables = run(Effort::Quick, 3);
        let adv = &tables[1];
        for row in 0..adv.len() {
            let ratio: f64 = adv.cell(row, 4).unwrap().parse().unwrap();
            assert!(ratio <= 8.0, "row {row}: ratio {ratio}");
        }
    }

    #[test]
    fn throughput_tables_have_expected_shape() {
        let tables = run(Effort::Quick, 3);
        assert_eq!(tables.len(), 5);
        let reuse = &tables[3];
        assert_eq!(reuse.len(), 2, "fresh vs reuse");
        // wall times are positive; no speedup assertion here (CI timing is
        // noisy — benches/classify.rs is the measured claim)
        for row in 0..reuse.len() {
            let wall: f64 = reuse.cell(row, 1).unwrap().parse().unwrap();
            assert!(wall > 0.0);
        }
        let campaign = &tables[4];
        let spec = classify_spec(Effort::Quick, 3);
        assert_eq!(campaign.len(), spec.cells().len());
    }
}
