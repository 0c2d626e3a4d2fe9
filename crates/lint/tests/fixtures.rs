//! Fixture corpus: every rule fires on its fire-fixture with the expected
//! file:line:col spans, and stays silent on its clean-fixture.
//!
//! Fixtures are plain `.rs` data files under `tests/fixtures/` — never
//! compiled (the tree walker skips directories named `fixtures`, and Cargo
//! does not build subdirectories of `tests/`). Each fixture is scanned under
//! a *logical* path that places it in the scope its rule cares about.
//!
//! Expected findings live next to the fixtures as `expected/<name>.expected`,
//! one `line:col rule` entry per finding, in the scanner's sorted order.
//! Regenerate after an intentional rule change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p radio-lint --test fixtures
//! ```

use radio_lint::report::Report;
use radio_lint::rules::scan_source;
use std::path::Path;

/// (fixture file, logical path it is linted under, rules that must fire).
///
/// The rule list is a coverage floor on top of the span-exact expected file:
/// it keeps the corpus honest if a golden file is regenerated carelessly.
const FIRE: &[(&str, &str, &[&str])] = &[
    (
        "nondet_iter_fire.rs",
        "crates/sim/src/nondet_iter_fire.rs",
        &["nondet-iter", "allow-syntax"],
    ),
    (
        "wall_clock_fire.rs",
        "crates/core/src/wall_clock_fire.rs",
        &["wall-clock"],
    ),
    (
        "os_entropy_fire.rs",
        "crates/graph/src/os_entropy_fire.rs",
        &["os-entropy"],
    ),
    (
        "thread_identity_fire.rs",
        "crates/sim/src/thread_identity_fire.rs",
        &["thread-identity"],
    ),
    (
        "stdout_purity_fire.rs",
        "crates/classifier/src/stdout_purity_fire.rs",
        &["stdout-purity"],
    ),
    (
        "unsafe_guard_fire.rs",
        "crates/sim/src/lib.rs",
        &["unsafe-guard"],
    ),
    // Any file under crates/sim/ is result-affecting code, including one
    // no engine occupies today: hash-order sweeps and worker identity
    // steering a scheduler must fire there.
    (
        "batch_member_order_fire.rs",
        "crates/sim/src/batch.rs",
        &["nondet-iter", "thread-identity"],
    ),
];

/// (fixture file, logical path): must produce zero findings.
const CLEAN: &[(&str, &str)] = &[
    (
        "nondet_iter_clean.rs",
        "crates/sim/src/nondet_iter_clean.rs",
    ),
    // Same body as wall_clock_fire.rs — only the logical path differs, which
    // is exactly the scoping claim: the bench harness may read the clock.
    (
        "wall_clock_clean.rs",
        "crates/bench/src/wall_clock_clean.rs",
    ),
    (
        "os_entropy_clean.rs",
        "crates/graph/src/os_entropy_clean.rs",
    ),
    (
        "thread_identity_clean.rs",
        "crates/sim/src/thread_identity_clean.rs",
    ),
    (
        "stdout_purity_clean.rs",
        "crates/classifier/src/stdout_purity_clean.rs",
    ),
    ("unsafe_guard_clean.rs", "crates/sim/src/lib.rs"),
];

fn fixtures_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read_fixture(name: &str) -> String {
    let path = fixtures_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

fn render_expected(findings: &[radio_lint::rules::Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!("{}:{} {}\n", f.line, f.col, f.rule));
    }
    out
}

#[test]
fn fire_fixtures_match_expected_spans() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for &(name, logical, must_fire) in FIRE {
        let findings = scan_source(logical, &read_fixture(name));
        assert!(
            !findings.is_empty(),
            "{name}: fire fixture produced no findings"
        );
        for rule in must_fire {
            assert!(
                findings.iter().any(|f| f.rule == *rule),
                "{name}: expected rule {rule} to fire, got {findings:?}"
            );
        }
        for f in &findings {
            assert_eq!(f.file, logical, "{name}: finding carries wrong path");
            assert!(f.line > 0 && f.col > 0, "{name}: span must be 1-based");
        }

        let stem = name.trim_end_matches(".rs");
        let expected_path = fixtures_dir().join(format!("expected/{stem}.expected"));
        let got = render_expected(&findings);
        if update {
            std::fs::create_dir_all(expected_path.parent().unwrap()).unwrap();
            std::fs::write(&expected_path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
            panic!(
                "cannot read {} ({e}); regenerate with UPDATE_GOLDEN=1",
                expected_path.display()
            )
        });
        assert_eq!(
            got, want,
            "{name}: findings diverge from golden expected spans \
             (UPDATE_GOLDEN=1 to accept)"
        );
    }
}

/// The row-schema checker has its own fixture corpus: `empty_rows.jsonl`
/// is the truncated-output case (a file with no rows must be a distinct
/// `empty-rows` finding, never "clean"), with golden spans in
/// `expected/empty_rows.expected` like the source-rule fixtures.
#[test]
fn empty_row_file_fixture_matches_expected_spans() {
    let findings =
        radio_lint::schema::check_rows("empty_rows.jsonl", &read_fixture("empty_rows.jsonl"));
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, radio_lint::schema::EMPTY_ROWS);

    let expected_path = fixtures_dir().join("expected/empty_rows.expected");
    let got = render_expected(&findings);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&expected_path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with UPDATE_GOLDEN=1",
            expected_path.display()
        )
    });
    assert_eq!(got, want, "empty-rows finding diverges from golden spans");
}

#[test]
fn clean_fixtures_produce_no_findings() {
    for &(name, logical) in CLEAN {
        let findings = scan_source(logical, &read_fixture(name));
        assert!(
            findings.is_empty(),
            "{name}: clean fixture fired under {logical}: {findings:?}"
        );
    }
}

/// The same fire bodies are out of scope once the path moves them out of the
/// rule's blast radius — scoping is part of each rule's definition.
#[test]
fn fire_fixtures_are_scoped_by_path() {
    // Result-affecting rules do not police the lint crate itself (it is not
    // in the result path) …
    let src = read_fixture("nondet_iter_fire.rs");
    let findings = scan_source("crates/lint/src/elsewhere.rs", &src);
    assert!(
        findings.iter().all(|f| f.rule == "allow-syntax"),
        "nondet-iter leaked outside result scope: {findings:?}"
    );
    // … and stdout belongs to binaries.
    let src = read_fixture("stdout_purity_fire.rs");
    let findings = scan_source("crates/core/src/bin/stdout_purity_fire.rs", &src);
    assert!(
        findings.iter().all(|f| f.rule != "stdout-purity"),
        "stdout-purity fired inside a bin: {findings:?}"
    );
}

/// `--format json` output and the human report describe the same findings.
#[test]
fn json_report_round_trips_against_human_report() {
    let logical = "crates/sim/src/nondet_iter_fire.rs";
    let findings = scan_source(logical, &read_fixture("nondet_iter_fire.rs"));
    let n = findings.len();
    let report = Report {
        findings,
        files_scanned: 1,
    };

    let human = report.render_human();
    let json = report.render_json();

    // Human report: one line per finding plus the trailing summary line.
    let human_lines: Vec<&str> = human.lines().collect();
    assert_eq!(human_lines.len(), n + 1);
    assert!(human_lines[n].contains(&format!("{n} finding(s)")));

    // JSON report: structurally well formed, and its counts agree.
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert_eq!(json.matches("\"rule\":").count(), n);
    assert!(json.contains(&format!("\"finding_count\":{n}")));
    assert!(json.contains("\"files_scanned\":1"));
    // Every human-report span appears verbatim as JSON fields.
    for f in &report.findings {
        assert!(human.contains(&format!("{}:{}:{}", f.file, f.line, f.col)));
        assert!(json.contains(&format!("\"line\":{}", f.line)));
    }
}
