//! Golden-file regression: a small fixed-seed campaign over the scenario
//! grammar's families × tag strategies writes JSONL that is compared
//! field for field against a checked-in corpus.
//!
//! This pins *everything* the campaign derives: the row schema (field
//! names and order), the seeding geometry (which configurations each cell
//! draws), the aggregation (counters, means, quantiles), and the JSON
//! rendering. Any drift — a reordered field, a perturbed seed stream, a
//! changed reservoir — fails with the exact field that moved.
//!
//! The only non-deterministic field, `wall_ns`, is stripped before
//! comparison (the same convention the geometry-invariance tests use).
//!
//! To regenerate after an *intentional* contract change:
//! `UPDATE_GOLDEN=1 cargo test --test golden_campaign` — then review the
//! corpus diff like any other code change.

use anon_radio::campaign::{CampaignRunner, CampaignSpec, Phase, TagStrategy};
use radio_sim::{ModelKind, RunOpts};

const ELECT_CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/campaign_elect.jsonl"
);
const CLASSIFY_CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/campaign_classify.jsonl"
);
const ELECT_MODELS_CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/campaign_elect_models.jsonl"
);

/// The pinned elect-phase grid: seven families across the grammar (three
/// size-pinned) × all four tag strategies, one model, two reps.
fn golden_elect_spec() -> CampaignSpec {
    CampaignSpec {
        phase: Phase::Elect,
        families: vec![
            "path".parse().unwrap(),
            "cycle".parse().unwrap(),
            "grid:3x2".parse().unwrap(),
            "torus:3x3".parse().unwrap(),
            "hypercube:3".parse().unwrap(),
            "gnp:0.25".parse().unwrap(),
            "barbell:3+2".parse().unwrap(),
        ],
        tags: TagStrategy::ALL.to_vec(),
        sizes: vec![6],
        spans: vec![3],
        models: vec![ModelKind::NoCollisionDetection],
        reps: 2,
        seed: 0x60_1DE4,
        opts: RunOpts::default(),
        cache: anon_radio::cache::CacheConfig::default(),
        // The default (deduped) path: the golden corpus itself pins that
        // the slice dedupe is invisible in the deterministic row prefix.
        batch: anon_radio::campaign::BatchConfig::default(),
    }
}

/// The pinned all-model elect grid: run shapes (`rounds`, `transmissions`
/// and the engine split `stepped`/`leapt`) under every channel model, at
/// a narrow and a wide span, on four drawn families at n = 24 plus two
/// size-pinned ones.
fn golden_elect_models_spec() -> CampaignSpec {
    CampaignSpec {
        families: vec![
            "path".parse().unwrap(),
            "star".parse().unwrap(),
            "random-tree".parse().unwrap(),
            "gnp".parse().unwrap(),
            "grid:4x8".parse().unwrap(),
            "hypercube:4".parse().unwrap(),
        ],
        sizes: vec![24],
        spans: vec![1, 40],
        models: ModelKind::ALL.to_vec(),
        seed: 0x60_1DE5,
        ..golden_elect_spec()
    }
}

/// The pinned classify-phase grid (no model axis in the rows).
fn golden_classify_spec() -> CampaignSpec {
    CampaignSpec {
        phase: Phase::Classify,
        families: vec![
            "star".parse().unwrap(),
            "wheel".parse().unwrap(),
            "caterpillar:3x1".parse().unwrap(),
            "bipartite:2x3".parse().unwrap(),
        ],
        ..golden_elect_spec()
    }
}

/// Runs the spec and returns its rows with the measured `wall_ns`
/// summary stripped.
fn stable_rows(spec: CampaignSpec) -> Vec<String> {
    let mut runner = CampaignRunner::new(spec, 3);
    runner.run_to_completion(2);
    runner
        .jsonl_rows()
        .into_iter()
        .map(|row| {
            let mut stable = row.split(",\"wall_ns\"").next().unwrap().to_string();
            stable.push('}');
            stable
        })
        .collect()
}

/// Splits a flat-with-nested-objects JSON row into its top-level fields,
/// so a mismatch names the exact field that drifted.
fn fields(row: &str) -> Vec<&str> {
    let body = row
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or(row);
    let mut out = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    for (i, b) in body.bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            b',' if depth == 0 => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&body[start..]);
    out
}

fn assert_matches_corpus(rows: &[String], corpus_path: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut body = rows.join("\n");
        body.push('\n');
        std::fs::write(corpus_path, body).expect("write corpus");
        eprintln!("regenerated {corpus_path} — review the diff before committing");
        return;
    }
    let corpus = std::fs::read_to_string(corpus_path)
        .unwrap_or_else(|e| panic!("missing corpus {corpus_path} ({e}); run with UPDATE_GOLDEN=1"));
    let expected: Vec<&str> = corpus.lines().collect();
    assert_eq!(
        rows.len(),
        expected.len(),
        "row count drifted from {corpus_path}"
    );
    for (i, (got, want)) in rows.iter().zip(&expected).enumerate() {
        if got == want {
            continue;
        }
        // fall through to a field-level message
        let got_fields = fields(got);
        let want_fields = fields(want);
        for (g, w) in got_fields.iter().zip(&want_fields) {
            assert_eq!(
                g,
                w,
                "row {} of {corpus_path}: field drifted\n  got row:  {got}\n  want row: {want}",
                i + 1
            );
        }
        assert_eq!(
            got_fields.len(),
            want_fields.len(),
            "row {} of {corpus_path}: field count drifted\n  got row:  {got}\n  want row: {want}",
            i + 1
        );
    }
}

#[test]
fn elect_rows_match_the_checked_in_corpus() {
    assert_matches_corpus(&stable_rows(golden_elect_spec()), ELECT_CORPUS);
}

#[test]
fn elect_rows_under_every_model_match_the_checked_in_corpus() {
    assert_matches_corpus(
        &stable_rows(golden_elect_models_spec()),
        ELECT_MODELS_CORPUS,
    );
}

#[test]
fn all_model_grid_has_the_expected_shape() {
    let rows = stable_rows(golden_elect_models_spec());
    assert_eq!(
        rows.len(),
        144,
        "6 families × 4 strategies × 2 spans × 3 models"
    );
    for model in ModelKind::ALL {
        let tag = format!("\"model\":\"{}\"", model.name());
        assert_eq!(
            rows.iter().filter(|r| r.contains(&tag)).count(),
            48,
            "{model}"
        );
    }
    for span in ["\"span\":1,", "\"span\":40,"] {
        assert_eq!(
            rows.iter().filter(|r| r.contains(span)).count(),
            72,
            "{span}"
        );
    }
}

#[test]
fn classify_rows_match_the_checked_in_corpus() {
    assert_matches_corpus(&stable_rows(golden_classify_spec()), CLASSIFY_CORPUS);
}

#[test]
fn golden_grids_have_the_expected_shape() {
    // a guard on the guards: the corpus must cover both row schemas and
    // all four strategies, or the regression test quietly narrows
    let elect = stable_rows(golden_elect_spec());
    assert_eq!(elect.len(), 28, "7 families × 4 strategies");
    assert!(elect.iter().all(|r| r.starts_with("{\"phase\":\"elect\"")));
    let classify = stable_rows(golden_classify_spec());
    assert_eq!(classify.len(), 16, "4 families × 4 strategies");
    assert!(classify
        .iter()
        .all(|r| r.starts_with("{\"phase\":\"classify\"")));
    for strategy in ["uniform", "clustered", "extremes", "arith:2"] {
        let tag = format!("\"tags\":\"{strategy}\"");
        assert!(elect.iter().any(|r| r.contains(&tag)), "{strategy}");
        assert!(classify.iter().any(|r| r.contains(&tag)), "{strategy}");
    }
}
