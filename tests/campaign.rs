//! Integration tests of the campaign layer: grid enumeration, positional
//! seeding, shard-geometry invariance, resume semantics, and JSONL shape
//! — the same contract the CI smoke run asserts on the CLI — on both the
//! legacy six-family grid and the extended `FamilySpec × TagStrategy`
//! scenario grid.

use anon_radio::cache::CacheConfig;
use anon_radio::campaign::{
    BatchConfig, CampaignRunner, CampaignSpec, FamilySpec, Phase, TagStrategy,
};
use radio_sim::{ModelKind, RunOpts};

fn smoke_spec() -> CampaignSpec {
    CampaignSpec {
        phase: Phase::Elect,
        families: vec![FamilySpec::Path, FamilySpec::Star],
        tags: vec![TagStrategy::Uniform],
        sizes: vec![6],
        spans: vec![2, 4],
        models: ModelKind::ALL.to_vec(),
        reps: 2,
        seed: 7,
        opts: RunOpts::default(),
        cache: CacheConfig::default(),
        batch: BatchConfig::default(),
    }
}

fn classify_smoke_spec() -> CampaignSpec {
    CampaignSpec {
        phase: Phase::Classify,
        models: vec![ModelKind::NoCollisionDetection],
        reps: 3,
        ..smoke_spec()
    }
}

/// The extended scenario grid: generator-zoo families (including
/// size-pinned specs) crossed with every tag strategy — the acceptance
/// grid of the scenario-grammar issue.
fn extended_spec() -> CampaignSpec {
    CampaignSpec {
        phase: Phase::Elect,
        families: vec![
            "grid:3x2".parse().unwrap(),
            "torus:3x3".parse().unwrap(),
            "hypercube:3".parse().unwrap(),
            "barbell:3+1".parse().unwrap(),
            FamilySpec::Wheel,
            FamilySpec::Ladder,
        ],
        tags: TagStrategy::ALL.to_vec(),
        sizes: vec![6],
        spans: vec![5],
        models: vec![ModelKind::NoCollisionDetection],
        reps: 2,
        seed: 23,
        opts: RunOpts::default(),
        cache: CacheConfig::default(),
        batch: BatchConfig::default(),
    }
}

/// Strips the measured wall-clock summary, leaving only derived fields.
fn stable(rows: Vec<String>) -> Vec<String> {
    rows.into_iter()
        .map(|row| row.split(",\"wall_ns\"").next().unwrap().to_string())
        .collect()
}

#[test]
fn tiny_grid_produces_one_row_per_cell_with_stable_aggregates() {
    // The CI smoke grid: 2 families × 2 spans × 3 models, --shards 4.
    let mut runner = CampaignRunner::new(smoke_spec(), 4);
    runner.run_to_completion(2);
    let rows = runner.jsonl_rows();
    assert_eq!(rows.len(), 12, "one JSONL row per grid cell");
    for row in &rows {
        assert!(row.contains("\"runs\":2"), "stable aggregate field: {row}");
    }
    // the paper's model elects on every feasible draw of this grid
    for (cell, agg) in runner.aggregates() {
        if cell.model == ModelKind::NoCollisionDetection {
            assert_eq!(agg.elected, agg.feasible, "{cell}");
        }
    }
}

#[test]
fn shard_and_thread_geometry_are_invisible_in_the_rows() {
    let run = |shards: usize, threads: usize| {
        let mut runner = CampaignRunner::new(smoke_spec(), shards);
        runner.run_to_completion(threads);
        stable(runner.jsonl_rows())
    };
    let reference = run(1, 1);
    for (shards, threads) in [(4, 2), (3, 4), (24, 2), (50, 1)] {
        assert_eq!(
            reference,
            run(shards, threads),
            "shards={shards} threads={threads}"
        );
    }
}

#[test]
fn resumed_campaign_completes_the_interrupted_one() {
    // Simulate an interruption: process A reports shards 0..2, dies;
    // process B (fresh runner, same spec) resumes at the persisted cursor
    // and reports shards 2..4. A's rows folded with B's must equal an
    // uninterrupted campaign cell for cell — seeds are positional, so the
    // split point cannot leak into any run.
    let mut full = CampaignRunner::new(smoke_spec(), 4);
    full.run_to_completion(2);

    let mut a = CampaignRunner::new(smoke_spec(), 4);
    a.run_next_shard(2).expect("shard 0");
    a.run_next_shard(2).expect("shard 1");
    let cursor = a.cursor();
    assert_eq!(cursor, 2);
    assert!(!a.is_done());

    let mut b = CampaignRunner::new(smoke_spec(), 4);
    b.skip_to(cursor);
    b.run_to_completion(2);
    assert!(b.is_done());

    for (((cell, f), (_, ra)), (_, rb)) in full.aggregates().zip(a.aggregates()).zip(b.aggregates())
    {
        // merging the two halves recovers the uninterrupted campaign:
        // counters and moments exactly, quantiles at reservoir precision
        // (exact here — every sample fits the reservoir)
        let mut merged = ra.clone();
        merged.merge(rb);
        assert_eq!(f.runs, merged.runs, "{cell}: runs");
        assert_eq!(f.feasible, merged.feasible, "{cell}: feasible");
        assert_eq!(f.elected, merged.elected, "{cell}: elected");
        assert_eq!(f.rounds.count(), merged.rounds.count(), "{cell}: count");
        assert_eq!(f.rounds.min(), merged.rounds.min(), "{cell}: min");
        assert_eq!(f.rounds.max(), merged.rounds.max(), "{cell}: max");
        if let (Some(fm), Some(mm)) = (f.rounds.mean(), merged.rounds.mean()) {
            assert!((fm - mm).abs() < 1e-9, "{cell}: mean {fm} vs {mm}");
        }
        assert_eq!(f.rounds.p50(), merged.rounds.p50(), "{cell}: p50");
    }
}

#[test]
fn classify_campaign_rows_follow_the_classify_contract() {
    // The CI classify smoke grid: 2 families × 1 size × 2 spans, 1 model.
    let mut runner = CampaignRunner::new(classify_smoke_spec(), 4);
    runner.run_to_completion(2);
    let rows = runner.jsonl_rows();
    assert_eq!(rows.len(), 4, "one JSONL row per classify cell");
    for row in &rows {
        assert!(row.starts_with("{\"phase\":\"classify\""), "{row}");
        assert!(row.contains("\"runs\":3"), "{row}");
        assert!(row.contains("\"iterations\":{\"count\":3"), "{row}");
        assert!(
            !row.contains("\"model\""),
            "classify rows have no model axis: {row}"
        );
    }
    // the classify phase decides exactly what the eager classifier decides
    let spec = classify_smoke_spec();
    for (cell, agg) in runner.aggregates() {
        let feasible = (0..spec.reps)
            .filter(|&rep| radio_classifier::classify(&spec.configuration(cell, rep)).feasible)
            .count() as u64;
        assert_eq!(agg.feasible, feasible, "{cell}");
    }
}

#[test]
fn classify_campaign_is_geometry_invariant_and_resumable() {
    let run = |shards: usize, threads: usize| {
        let mut runner = CampaignRunner::new(classify_smoke_spec(), shards);
        runner.run_to_completion(threads);
        stable(runner.jsonl_rows())
    };
    let reference = run(1, 1);
    for (shards, threads) in [(4, 2), (3, 4), (24, 1)] {
        assert_eq!(
            reference,
            run(shards, threads),
            "shards={shards} threads={threads}"
        );
    }

    // interrupted-and-resumed halves merge into the uninterrupted whole
    let mut full = CampaignRunner::new(classify_smoke_spec(), 4);
    full.run_to_completion(2);
    let mut a = CampaignRunner::new(classify_smoke_spec(), 4);
    a.run_next_shard(2).expect("shard 0");
    let mut b = CampaignRunner::new(classify_smoke_spec(), 4);
    b.skip_to(a.cursor());
    b.run_to_completion(2);
    for (((cell, f), (_, ra)), (_, rb)) in full.aggregates().zip(a.aggregates()).zip(b.aggregates())
    {
        let mut merged = ra.clone();
        merged.merge(rb);
        assert_eq!(f.runs, merged.runs, "{cell}");
        assert_eq!(f.feasible, merged.feasible, "{cell}");
        assert_eq!(f.iterations.count(), merged.iterations.count(), "{cell}");
        assert_eq!(f.iterations.min(), merged.iterations.min(), "{cell}");
        assert_eq!(f.relabels.max(), merged.relabels.max(), "{cell}");
    }
}

#[test]
fn extended_grid_enumerates_families_by_tag_strategies() {
    let spec = extended_spec();
    assert!(spec.validate().is_ok());
    let cells = spec.cells();
    assert_eq!(cells.len(), 6 * 4, "6 families × 4 tag strategies");
    // size-pinned specs override the size axis; scalable ones follow it
    assert!(cells
        .iter()
        .filter(|c| c.family == "torus:3x3".parse().unwrap())
        .all(|c| c.n == 9));
    assert!(cells
        .iter()
        .filter(|c| c.family == FamilySpec::Wheel)
        .all(|c| c.n == 6));
    // every cell's drawn configuration matches its label
    for cell in cells.iter().step_by(5) {
        let config = spec.configuration(cell, 1);
        assert_eq!(config.size(), cell.n, "{cell}");
        assert!(config.span() <= cell.span, "{cell}");
        assert!(config.is_normalized(), "{cell}");
    }
}

#[test]
fn extended_grid_rows_are_phase_and_scenario_tagged() {
    let mut runner = CampaignRunner::new(extended_spec(), 4);
    runner.run_to_completion(2);
    let rows = runner.jsonl_rows();
    assert_eq!(rows.len(), 24);
    for strategy in ["uniform", "clustered", "extremes", "arith:2"] {
        assert_eq!(
            rows.iter()
                .filter(|r| r.contains(&format!("\"tags\":\"{strategy}\"")))
                .count(),
            6,
            "one row per family under {strategy}"
        );
    }
    for family in [
        "grid:3x2",
        "torus:3x3",
        "hypercube:3",
        "barbell:3+1",
        "wheel",
        "ladder",
    ] {
        assert_eq!(
            rows.iter()
                .filter(|r| r.contains(&format!("\"family\":\"{family}\"")))
                .count(),
            4,
            "one row per strategy for {family}"
        );
    }
    // the paper's model elects on every feasible draw, whatever the
    // topology or tag placement
    for (cell, agg) in runner.aggregates() {
        assert_eq!(agg.elected, agg.feasible, "{cell}");
        assert_eq!(agg.runs, 2, "{cell}");
    }
}

#[test]
fn extended_grid_is_shard_and_thread_invariant() {
    let run = |shards: usize, threads: usize| {
        let mut runner = CampaignRunner::new(extended_spec(), shards);
        runner.run_to_completion(threads);
        stable(runner.jsonl_rows())
    };
    let reference = run(1, 1);
    for (shards, threads) in [(4, 2), (5, 3), (48, 2)] {
        assert_eq!(
            reference,
            run(shards, threads),
            "shards={shards} threads={threads}"
        );
    }
}

#[test]
fn extended_grid_resume_completes_the_interrupted_campaign() {
    let mut full = CampaignRunner::new(extended_spec(), 6);
    full.run_to_completion(2);

    let mut a = CampaignRunner::new(extended_spec(), 6);
    a.run_next_shard(2).expect("shard 0");
    a.run_next_shard(2).expect("shard 1");
    a.run_next_shard(2).expect("shard 2");
    let cursor = a.cursor();
    assert_eq!(cursor, 3);

    let mut b = CampaignRunner::new(extended_spec(), 6);
    b.skip_to(cursor);
    b.run_to_completion(3);

    for (((cell, f), (_, ra)), (_, rb)) in full.aggregates().zip(a.aggregates()).zip(b.aggregates())
    {
        let mut merged = ra.clone();
        merged.merge(rb);
        assert_eq!(f.runs, merged.runs, "{cell}: runs");
        assert_eq!(f.feasible, merged.feasible, "{cell}: feasible");
        assert_eq!(f.elected, merged.elected, "{cell}: elected");
        assert_eq!(f.rounds.count(), merged.rounds.count(), "{cell}: count");
        assert_eq!(f.rounds.min(), merged.rounds.min(), "{cell}: min");
        assert_eq!(f.rounds.max(), merged.rounds.max(), "{cell}: max");
    }
}

#[test]
fn leap_mode_changes_the_split_but_not_the_executions() {
    // A span-64 grid leaves quiet stretches between the tags: every cell
    // that elects must have leapt some rounds.
    let mut spec = smoke_spec();
    spec.models = vec![ModelKind::NoCollisionDetection];
    spec.spans = vec![64];
    let mut leap = CampaignRunner::new(spec, 2);
    leap.run_to_completion(2);
    let mut feasible_cells = 0;
    for (cell, l) in leap.aggregates() {
        if l.feasible > 0 {
            assert!(l.leapt.max().unwrap_or(0.0) > 0.0, "{cell}: leap leaps");
            feasible_cells += 1;
        }
    }
    assert!(feasible_cells > 0, "no cell of the grid elects");
}
