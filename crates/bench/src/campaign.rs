//! Bench-facing surface of the campaign layer.
//!
//! The machinery — [`CampaignSpec`], [`CampaignRunner`], streaming
//! per-cell aggregation, the positional seeding contract — lives in
//! [`anon_radio::campaign`] so the `anon-radio campaign` CLI can reach it;
//! this module re-exports it for the experiment harness and adds the
//! spec builders and table renderers the experiments share (E10 ports its
//! batch-throughput sweep onto the runner).

pub use anon_radio::cache::{CacheConfig, CacheStats, ScheduleCache};
pub use anon_radio::campaign::{
    classify_metrics, election_metrics_batched, BatchConfig, CampaignRunner, CampaignSpec,
    CampaignWorkspace, CellAggregate, CellKey, FamilySpec, Phase, RunMetrics, ShardReport,
    TagStrategy,
};

use radio_sim::{ModelKind, RunOpts};
use radio_util::table::{fmt_f64, Table};

use crate::Effort;

/// The election-campaign spec the harness uses at each effort level: a
/// small multi-family grid under the paper's model, sized so `Quick` runs
/// in CI seconds and `Full` exercises thousands of elections.
pub fn election_spec(effort: Effort, seed: u64) -> CampaignSpec {
    let (sizes, reps) = match effort {
        Effort::Quick => (vec![8, 16], 4),
        Effort::Full => (vec![8, 16, 32], 25),
    };
    CampaignSpec {
        phase: Phase::Elect,
        families: vec![FamilySpec::Path, FamilySpec::Star, FamilySpec::RandomTree],
        tags: vec![TagStrategy::Uniform],
        sizes,
        spans: vec![2, 8],
        models: vec![ModelKind::NoCollisionDetection],
        reps,
        seed,
        opts: RunOpts::default(),
        cache: CacheConfig::default(),
        batch: BatchConfig::default(),
    }
}

/// The classify-phase campaign spec the harness uses: a wider grid than
/// the election one (no simulation per run, so classification throughput
/// is the only cost), sweeping the decision phase across families, sizes
/// and spans.
pub fn classify_spec(effort: Effort, seed: u64) -> CampaignSpec {
    let (sizes, reps) = match effort {
        Effort::Quick => (vec![16, 64], 8),
        Effort::Full => (vec![16, 64, 256], 50),
    };
    CampaignSpec {
        phase: Phase::Classify,
        families: vec![
            FamilySpec::Path,
            FamilySpec::Star,
            FamilySpec::Gnp { ppm: None },
        ],
        tags: vec![TagStrategy::Uniform],
        sizes,
        spans: vec![0, 4, 32],
        models: vec![ModelKind::NoCollisionDetection],
        reps,
        seed,
        opts: RunOpts::default(),
        cache: CacheConfig::default(),
        batch: BatchConfig::default(),
    }
}

/// Renders a classify-phase runner's aggregates: feasibility rate plus
/// iteration/class/relabel summaries per cell.
pub fn classify_table(title: impl Into<String>, runner: &CampaignRunner) -> Table {
    let mut table = Table::new(
        title,
        &[
            "cell",
            "runs",
            "feasible",
            "iters p50",
            "classes p95",
            "relabels mean",
            "wall µs p50",
        ],
    );
    for (cell, agg) in runner.aggregates() {
        table.push_row(vec![
            format!("{}/{}/n{}/σ{}", cell.family, cell.tags, cell.n, cell.span),
            agg.runs.to_string(),
            agg.feasible.to_string(),
            fmt_f64(agg.iterations.p50().unwrap_or(0.0), 0),
            fmt_f64(agg.classes.p95().unwrap_or(0.0), 0),
            fmt_f64(agg.relabels.mean().unwrap_or(0.0), 0),
            fmt_f64(agg.wall_ns.p50().unwrap_or(0.0) / 1e3, 1),
        ]);
    }
    table
}

/// Renders a runner's per-cell aggregates as an experiment table:
/// feasibility/election rates plus round and wall-time summaries.
pub fn aggregate_table(title: impl Into<String>, runner: &CampaignRunner) -> Table {
    let mut table = Table::new(
        title,
        &[
            "cell",
            "runs",
            "feasible",
            "elected",
            "rounds p50",
            "rounds p95",
            "wall µs p50",
        ],
    );
    for (cell, agg) in runner.aggregates() {
        table.push_row(vec![
            cell.to_string(),
            agg.runs.to_string(),
            agg.feasible.to_string(),
            agg.elected.to_string(),
            fmt_f64(agg.rounds.p50().unwrap_or(0.0), 0),
            fmt_f64(agg.rounds.p95().unwrap_or(0.0), 0),
            fmt_f64(agg.wall_ns.p50().unwrap_or(0.0) / 1e3, 1),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn election_spec_scales_with_effort() {
        let quick = election_spec(Effort::Quick, 1);
        let full = election_spec(Effort::Full, 1);
        assert!(quick.total_runs() < full.total_runs());
        assert!(quick.total_runs() >= 24, "enough runs to aggregate");
    }

    #[test]
    fn aggregate_table_has_one_row_per_cell() {
        let spec = CampaignSpec {
            phase: Phase::Elect,
            families: vec![FamilySpec::Path],
            tags: vec![TagStrategy::Uniform],
            sizes: vec![5],
            spans: vec![2],
            models: vec![ModelKind::NoCollisionDetection],
            reps: 2,
            seed: 3,
            opts: RunOpts::default(),
            cache: CacheConfig::default(),
            batch: BatchConfig::default(),
        };
        let cells = spec.cells().len();
        let mut runner = CampaignRunner::new(spec, 2);
        runner.run_to_completion(2);
        let table = aggregate_table("t", &runner);
        assert_eq!(table.len(), cells);
    }
}
