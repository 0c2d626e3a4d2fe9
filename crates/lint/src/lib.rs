//! `radio-lint` — the determinism-contract static analyzer for the
//! anon-radio workspace.
//!
//! Every headline claim in this repository is an `≡` claim: leap ≡
//! reference, cached ≡ uncached, reuse ≡ fresh, deduped ≡ plain —
//! all bit-for-bit. Differential tests enforce those equivalences after
//! the fact; this crate enforces the *preconditions* statically, so a PR
//! cannot introduce the bug classes that would rot the golden corpus
//! before any test notices:
//!
//! | rule            | contract                                             |
//! |-----------------|------------------------------------------------------|
//! | `nondet-iter`   | no hash-order iteration / std hash types in result-affecting code |
//! | `wall-clock`    | `Instant::now`/`SystemTime` only in `crates/bench` and annotated `wall_ns` sites |
//! | `os-entropy`    | no `thread_rng`/`RandomState`/`OsRng`; RNGs come from `radio_util::rng` seed streams |
//! | `thread-identity` | no `thread::current`/`available_parallelism` influencing results |
//! | `stdout-purity` | no `println!`/`print!`/`dbg!` in library code        |
//! | `unsafe-guard`  | crate roots keep `#![forbid(unsafe_code)]`; `unsafe` needs `// SAFETY:` |
//! | `allow-syntax`  | suppressions must name a known rule and carry a reason |
//!
//! Suppression is explicit and audited: `// lint:allow(rule-id): reason`
//! on (or directly above) the offending line. The `schema` module
//! separately checks the campaign JSONL row contract. See `DESIGN.md`
//! ("Determinism contract & static analysis") for the full story.
//!
//! The crate is dependency-free on purpose — it gates the rest of the
//! workspace, runs in the vendored-only build, and must be trivially
//! deterministic itself (it passes its own lint; see `tests/self_check.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod schema;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use report::Report;
pub use rules::{scan_source, Finding, Rule, ALL_RULES};

/// Directory names never descended into: build output, vendored shims
/// (external code is not under this contract), VCS metadata, and the
/// linter's own deliberately-violating test fixtures.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// The workspace directories a default scan covers.
pub const DEFAULT_ROOTS: &[&str] = &["crates", "src", "tests"];

/// Scans every `.rs` file under `root`'s `sub_roots` (workspace-relative
/// directory names). Files are visited in sorted path order, so reports
/// are deterministic byte-for-byte.
pub fn scan_tree(root: &Path, sub_roots: &[&str]) -> io::Result<Report> {
    let mut files = Vec::new();
    for sub in sub_roots {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        } else if dir.is_file() {
            files.push(dir);
        }
    }
    files.sort();

    let mut report = Report::default();
    for path in &files {
        let source = fs::read_to_string(path)?;
        let logical = logical_path(root, path);
        report.findings.extend(scan_source(&logical, &source));
        report.files_scanned += 1;
    }
    report.findings.sort();
    Ok(report)
}

/// Root-relative `/`-separated path (falls back to the full path when the
/// file is outside `root`).
fn logical_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut out = String::new();
    for comp in rel.components() {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(&comp.as_os_str().to_string_lossy());
    }
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_paths_are_root_relative_and_slash_separated() {
        let root = Path::new("/work/repo");
        let file = Path::new("/work/repo/crates/sim/src/engine.rs");
        assert_eq!(logical_path(root, file), "crates/sim/src/engine.rs");
    }

    #[test]
    fn scan_tree_skips_fixture_and_vendor_dirs() {
        // The lint crate's own tests/ contains a fixtures/ directory full
        // of deliberate violations; a tree scan over it must come back
        // clean because the walker never descends into `fixtures`.
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let report = scan_tree(manifest, &["tests"]).expect("scan");
        assert!(
            report.is_clean(),
            "fixtures leaked into the tree scan:\n{}",
            report.render_human()
        );
    }
}
