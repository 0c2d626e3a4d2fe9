//! Campaign dedupe differential: elect rows with the slice dedupe on
//! (the default, at several slice lengths) match `--no-batch` rows
//! exactly after the measured tail, across the three channel models and
//! several shard/thread geometries. A deduped run copies an earlier
//! run's metrics instead of simulating, so this pins that equal
//! fingerprints really do mean equal elections.

use anon_radio::campaign::{
    BatchConfig, CampaignRunner, CampaignSpec, FamilySpec, Phase, TagStrategy,
};
use radio_sim::{ModelKind, RunOpts};

/// Elect-phase JSONL rows with dedupe on (default slice length and ragged
/// ones) are identical to `--no-batch` rows after the measured tail,
/// across shard/thread geometries.
#[test]
fn campaign_rows_unchanged_batch_on_vs_off() {
    let spec = |batch: BatchConfig| CampaignSpec {
        phase: Phase::Elect,
        families: vec![
            FamilySpec::Path,
            FamilySpec::Star,
            "torus:3x3".parse().unwrap(),
            "barbell:3+1".parse().unwrap(),
        ],
        tags: vec![TagStrategy::Uniform, TagStrategy::Arith { stride: 2 }],
        sizes: vec![6],
        spans: vec![3],
        models: ModelKind::ALL.to_vec(),
        reps: 5,
        seed: 0xBA7C4,
        opts: RunOpts::default(),
        cache: anon_radio::cache::CacheConfig::default(),
        batch,
    };
    let strip = |rows: Vec<String>| -> Vec<String> {
        rows.into_iter()
            .map(|row| row.split(",\"wall_ns\"").next().unwrap().to_string())
            .collect()
    };
    let run = |batch: BatchConfig, shards: usize, threads: usize| -> Vec<String> {
        let mut runner = CampaignRunner::new(spec(batch), shards);
        runner.run_to_completion(threads);
        strip(runner.jsonl_rows())
    };
    let unbatched = run(BatchConfig::disabled(), 4, 2);
    assert_eq!(
        run(BatchConfig::disabled(), 1, 1),
        unbatched,
        "off, 1 shard"
    );
    assert_eq!(run(BatchConfig::default(), 4, 2), unbatched, "default size");
    // ragged: 3 does not divide reps = 5, so every cell ends with a
    // 2-run last slice; 1 is the degenerate slice that dedupes nothing
    assert_eq!(run(BatchConfig::with_size(3), 4, 2), unbatched, "size 3");
    assert_eq!(run(BatchConfig::with_size(1), 4, 2), unbatched, "size 1");
    // geometry invariance holds with dedupe on too
    assert_eq!(run(BatchConfig::default(), 1, 1), unbatched, "1 shard");
    assert_eq!(run(BatchConfig::with_size(3), 7, 3), unbatched, "7 shards");
}
