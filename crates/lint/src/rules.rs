//! The determinism-contract rules and the engine that applies them.
//!
//! Every rule is a named, documented invariant of the workspace's
//! bit-for-bit reproducibility story. The engine walks the token stream of
//! one file (see [`crate::lexer`]), consults a per-file symbol table of
//! hash-typed bindings, and emits [`Finding`]s. A finding can be
//! suppressed by an adjacent directive comment:
//!
//! ```text
//! // lint:allow(rule-id): non-empty reason
//! ```
//!
//! which covers its own line(s) and the next token-bearing line — so it
//! works both trailing a statement and on the line above (including inside
//! a method chain). A directive with an unknown rule id or an empty reason
//! never suppresses anything and is itself reported under the
//! `allow-syntax` rule, so CI's `--deny-all` run rejects reasonless allows
//! for free.
//!
//! Which rules apply where is decided by the *logical path* of the file
//! (workspace-relative, `/`-separated) — see [`Rule::applies_to`]. Scoping
//! is path-based because the contract is architectural: result-affecting
//! crates (`graph`, `sim`, `classifier`, `core`, plus the root `src/` and
//! `tests/` suites) carry the strict rules, `crates/bench` is the one
//! place allowed to read the wall clock, and binaries own stdout.

use crate::lexer::{lex, Comment, Tok, Token};

/// A single lint finding, pointing at a `file:line:col` span.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Logical (workspace-relative) path of the file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id, e.g. `nondet-iter`.
    pub rule: &'static str,
    /// Human-readable explanation of this occurrence.
    pub message: String,
}

/// The named rules. Ids are what `lint:allow(...)` and reports use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Hash-order iteration / std hash types in result-affecting code.
    NondetIter,
    /// `Instant::now` / `SystemTime` outside the measurement surface.
    WallClock,
    /// Ambient OS entropy (`thread_rng`, `RandomState`, `OsRng`, …).
    OsEntropy,
    /// Thread identity influencing results (`thread::current`,
    /// `available_parallelism`).
    ThreadIdentity,
    /// `println!` / `print!` / `dbg!` in library code.
    StdoutPurity,
    /// Missing `#![forbid(unsafe_code)]` at crate roots; `unsafe` without
    /// a `// SAFETY:` justification.
    UnsafeGuard,
    /// Malformed `lint:allow` directives (unknown rule, empty reason).
    AllowSyntax,
}

/// All rules, in report order.
pub const ALL_RULES: &[Rule] = &[
    Rule::NondetIter,
    Rule::WallClock,
    Rule::OsEntropy,
    Rule::ThreadIdentity,
    Rule::StdoutPurity,
    Rule::UnsafeGuard,
    Rule::AllowSyntax,
];

impl Rule {
    /// The stable id used in directives, reports, and docs.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NondetIter => "nondet-iter",
            Rule::WallClock => "wall-clock",
            Rule::OsEntropy => "os-entropy",
            Rule::ThreadIdentity => "thread-identity",
            Rule::StdoutPurity => "stdout-purity",
            Rule::UnsafeGuard => "unsafe-guard",
            Rule::AllowSyntax => "allow-syntax",
        }
    }

    /// One-line summary for `radio-lint rules` and the docs.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::NondetIter => {
                "no hash-order iteration or std HashMap/HashSet in result-affecting code \
                 (use radio_util::FxHashMap/FxHashSet; iterate sorted or justify)"
            }
            Rule::WallClock => {
                "no Instant::now/SystemTime outside crates/bench and annotated wall_ns sites"
            }
            Rule::OsEntropy => {
                "no ambient entropy (thread_rng, RandomState, OsRng); derive RNGs from \
                 radio_util::rng positional seed streams"
            }
            Rule::ThreadIdentity => {
                "no thread::current/available_parallelism influencing results \
                 (geometry invariance)"
            }
            Rule::StdoutPurity => {
                "no println!/print!/dbg! in library code; rows go through sinks, \
                 diagnostics through stderr"
            }
            Rule::UnsafeGuard => {
                "crate roots keep #![forbid(unsafe_code)]; any unsafe needs a // SAFETY: comment"
            }
            Rule::AllowSyntax => {
                "lint:allow directives must name a known rule and give a non-empty reason"
            }
        }
    }

    /// Parses a rule id as written in a directive.
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }

    /// Whether this rule is checked in the file at `path` (logical,
    /// workspace-relative, `/`-separated).
    pub fn applies_to(self, path: &str) -> bool {
        match self {
            // Hash-order iteration only corrupts results where results are
            // computed or verified: the four result-affecting crates, the
            // facade, and the integration suites (which gate ≡ claims).
            Rule::NondetIter => in_result_scope(path),
            // Bench is the measurement harness: the wall clock is its job.
            Rule::WallClock | Rule::ThreadIdentity => !in_crate(path, "bench"),
            Rule::OsEntropy => true,
            // Library code only: binaries own stdout, and integration
            // tests/benches report through the test harness.
            Rule::StdoutPurity => {
                is_library_source(path) && !is_bin_source(path) && !in_tests_dir(path)
            }
            Rule::UnsafeGuard | Rule::AllowSyntax => true,
        }
    }
}

/// True for files whose nondeterminism can reach result rows or ≡ gates.
/// Every file under `crates/sim/` is in scope, whatever its name — pinned
/// by the `batch_member_order_fire` fixture, linted under a `crates/sim/`
/// path no engine file occupies.
fn in_result_scope(path: &str) -> bool {
    in_crate(path, "graph")
        || in_crate(path, "sim")
        || in_crate(path, "classifier")
        || in_crate(path, "core")
        || path.starts_with("src/")
        || path.starts_with("tests/")
}

fn in_crate(path: &str, name: &str) -> bool {
    let mut prefix = String::from("crates/");
    prefix.push_str(name);
    prefix.push('/');
    path.starts_with(&prefix)
}

/// Files compiled into a library target: anything under a `src/` directory.
fn is_library_source(path: &str) -> bool {
    path.starts_with("src/") || path.contains("/src/")
}

/// Binary targets (`src/bin/*.rs` and `src/main.rs`) own stdout.
fn is_bin_source(path: &str) -> bool {
    path.contains("/src/bin/")
        || path.starts_with("src/bin/")
        || path.ends_with("/src/main.rs")
        || path == "src/main.rs"
}

fn in_tests_dir(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

/// Crate roots that must carry `#![forbid(unsafe_code)]`: library roots
/// and binary roots. (Integration tests and benches are dev-only targets;
/// the rule still checks their `unsafe` blocks for `// SAFETY:`.)
fn is_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs") || path.ends_with("src/main.rs") || is_bin_source(path)
}

/// Hash container type names whose iteration order is not a function of
/// the data (std's additionally seeded per-process via RandomState).
const HASH_TYPES: &[&str] = &["FxHashMap", "FxHashSet", "HashMap", "HashSet"];

/// Std hash types specifically: constructing one at all is a finding in
/// result scope (RandomState seeds the iteration order from OS entropy).
const STD_HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods that expose hash iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Identifiers that reach OS entropy.
const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "RandomState",
    "OsRng",
    "from_entropy",
    "from_os_rng",
    "getrandom",
];

/// A parsed `lint:allow` directive.
struct Allow {
    rule: Option<Rule>,
    reason_ok: bool,
    raw_rule: String,
    line_start: u32,
    line_end: u32,
}

/// Lints one file. `path` is the file's logical workspace-relative path —
/// it selects which rules run (tests pass fixture text under synthetic
/// paths to place it in any scope).
pub fn scan_source(path: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let toks = &lexed.tokens;
    let allows = parse_allows(&lexed.comments);
    let mut findings = Vec::new();

    // allow-syntax findings are never themselves suppressible.
    if Rule::AllowSyntax.applies_to(path) {
        for a in &allows {
            if a.rule.is_none() {
                findings.push(Finding {
                    file: path.to_string(),
                    line: a.line_start,
                    col: 1,
                    rule: Rule::AllowSyntax.id(),
                    message: format!("lint:allow names unknown rule `{}`", a.raw_rule),
                });
            } else if !a.reason_ok {
                findings.push(Finding {
                    file: path.to_string(),
                    line: a.line_start,
                    col: 1,
                    rule: Rule::AllowSyntax.id(),
                    message: format!(
                        "lint:allow({}) has no reason — write `// lint:allow({}): <why>`",
                        a.raw_rule, a.raw_rule
                    ),
                });
            }
        }
    }

    let hash_names = collect_hash_bindings(toks);
    let test_spans = cfg_test_spans(toks);
    let in_cfg_test = |idx: usize| {
        test_spans
            .iter()
            .any(|&(start, end)| idx >= start && idx <= end)
    };

    let mut emit = |rule: Rule, tok: &Token, message: String| {
        findings.push(Finding {
            file: path.to_string(),
            line: tok.line,
            col: tok.col,
            rule: rule.id(),
            message,
        });
    };

    for (i, t) in toks.iter().enumerate() {
        let name = match &t.tok {
            Tok::Ident(n) => n.as_str(),
            _ => continue,
        };

        // nondet-iter (a): std hash types at all.
        if Rule::NondetIter.applies_to(path) && STD_HASH_TYPES.contains(&name) {
            emit(
                Rule::NondetIter,
                t,
                format!(
                    "std {name} seeds iteration order from OS entropy (RandomState); \
                     use radio_util::Fx{name}"
                ),
            );
        }

        // nondet-iter (b): iteration over a hash-typed binding.
        if Rule::NondetIter.applies_to(path)
            && hash_names.iter().any(|h| h == name)
            && matches!(
                toks.get(i + 1),
                Some(Token {
                    tok: Tok::Punct('.'),
                    ..
                })
            )
        {
            if let Some(Token {
                tok: Tok::Ident(m), ..
            }) = toks.get(i + 2)
            {
                if ITER_METHODS.contains(&m.as_str())
                    && matches!(
                        toks.get(i + 3),
                        Some(Token {
                            tok: Tok::Punct('('),
                            ..
                        })
                    )
                {
                    let at = &toks[i + 2];
                    emit(
                        Rule::NondetIter,
                        at,
                        format!(
                            "`{name}.{m}()` iterates a hash container in hash order; \
                             sort first or justify with lint:allow"
                        ),
                    );
                }
            }
        }

        // nondet-iter (c): `for … in [&[mut]] [self.]map`.
        if Rule::NondetIter.applies_to(path) && name == "for" {
            if let Some((loop_tok, var)) = for_loop_over(toks, i, &hash_names) {
                emit(
                    Rule::NondetIter,
                    loop_tok,
                    format!("`for … in {var}` iterates a hash container in hash order"),
                );
            }
        }

        // wall-clock: `Instant::now` and any `SystemTime`.
        if Rule::WallClock.applies_to(path) {
            if name == "Instant" && path_segment_follows(toks, i, "now") {
                emit(
                    Rule::WallClock,
                    t,
                    "Instant::now() reads the wall clock; only annotated wall_ns \
                     measurement sites and crates/bench may"
                        .to_string(),
                );
            }
            if name == "SystemTime" {
                emit(
                    Rule::WallClock,
                    t,
                    "SystemTime reads the wall clock; results must not depend on it".to_string(),
                );
            }
        }

        // os-entropy.
        if Rule::OsEntropy.applies_to(path) && ENTROPY_IDENTS.contains(&name) {
            emit(
                Rule::OsEntropy,
                t,
                format!(
                    "`{name}` draws ambient OS entropy; derive randomness from \
                     radio_util::rng positional seed streams"
                ),
            );
        }

        // thread-identity.
        if Rule::ThreadIdentity.applies_to(path) {
            if name == "available_parallelism" {
                emit(
                    Rule::ThreadIdentity,
                    t,
                    "available_parallelism() makes behavior depend on the host's \
                     core count; results must be geometry-invariant"
                        .to_string(),
                );
            }
            if name == "thread" && path_segment_follows(toks, i, "current") {
                emit(
                    Rule::ThreadIdentity,
                    t,
                    "thread::current() exposes thread identity; results must not \
                     depend on which worker ran them"
                        .to_string(),
                );
            }
        }

        // stdout-purity (skipping #[cfg(test)] items).
        if Rule::StdoutPurity.applies_to(path)
            && matches!(name, "println" | "print" | "dbg")
            && matches!(
                toks.get(i + 1),
                Some(Token {
                    tok: Tok::Punct('!'),
                    ..
                })
            )
            && !in_cfg_test(i)
        {
            emit(
                Rule::StdoutPurity,
                t,
                format!(
                    "`{name}!` writes to stdout from library code; rows go through \
                     RecordSinks/JSONL writers, diagnostics through stderr"
                ),
            );
        }

        // unsafe-guard: every `unsafe` needs a nearby `// SAFETY:`.
        if Rule::UnsafeGuard.applies_to(path)
            && name == "unsafe"
            && !has_safety_comment(&lexed.comments, t.line)
        {
            emit(
                Rule::UnsafeGuard,
                t,
                "`unsafe` without a `// SAFETY:` comment on the preceding lines".to_string(),
            );
        }
    }

    // unsafe-guard: crate roots must forbid unsafe_code.
    if Rule::UnsafeGuard.applies_to(path) && is_crate_root(path) && !has_forbid_unsafe(toks) {
        findings.push(Finding {
            file: path.to_string(),
            line: 1,
            col: 1,
            rule: Rule::UnsafeGuard.id(),
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }

    findings.retain(|f| !suppressed(f, &allows, toks));
    findings.sort();
    findings
}

/// Parses every `lint:allow(rule): reason` directive in the comments.
///
/// Doc comments (`///`, `//!`, `/** … */`) are *not* scanned: a
/// suppression is a code annotation, not documentation — and this keeps
/// prose that merely describes the directive syntax (like this crate's
/// own docs) from parsing as a malformed directive.
fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        if c.text.starts_with('/') || c.text.starts_with('!') || c.text.starts_with('*') {
            continue;
        }
        let mut rest = c.text.as_str();
        while let Some(at) = rest.find("lint:allow(") {
            rest = &rest[at + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let raw_rule = rest[..close].trim().to_string();
            rest = &rest[close + 1..];
            let reason_ok = rest.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
            out.push(Allow {
                rule: Rule::from_id(&raw_rule),
                reason_ok,
                raw_rule,
                line_start: c.line_start,
                line_end: c.line_end,
            });
        }
    }
    out
}

/// A finding is suppressed when a *valid* allow for its rule sits on the
/// same line(s) or on the line(s) directly above its token-bearing line.
fn suppressed(f: &Finding, allows: &[Allow], toks: &[Token]) -> bool {
    allows.iter().any(|a| {
        a.reason_ok
            && a.rule.map(Rule::id) == Some(f.rule)
            && (f.line >= a.line_start && f.line <= a.line_end
                || next_code_line(toks, a.line_end) == Some(f.line))
    })
}

/// The first line after `line` that carries any token.
fn next_code_line(toks: &[Token], line: u32) -> Option<u32> {
    toks.iter().map(|t| t.line).filter(|&l| l > line).min()
}

/// Does `// SAFETY:` appear in a comment on `line` or the two lines above?
fn has_safety_comment(comments: &[Comment], line: u32) -> bool {
    comments
        .iter()
        .any(|c| c.text.contains("SAFETY:") && c.line_end + 2 >= line && c.line_start <= line)
}

/// Matches `ident :: segment` starting at the index of `ident`.
fn path_segment_follows(toks: &[Token], i: usize, segment: &str) -> bool {
    matches!(
        (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3)),
        (
            Some(Token { tok: Tok::Punct(':'), .. }),
            Some(Token { tok: Tok::Punct(':'), .. }),
            Some(Token { tok: Tok::Ident(seg), .. }),
        ) if seg == segment
    )
}

/// Detects `#![forbid(unsafe_code)]` anywhere in the token stream.
fn has_forbid_unsafe(toks: &[Token]) -> bool {
    toks.windows(8).any(|w| {
        matches!(
            (&w[0].tok, &w[1].tok, &w[2].tok, &w[3].tok, &w[4].tok, &w[5].tok, &w[6].tok, &w[7].tok),
            (
                Tok::Punct('#'),
                Tok::Punct('!'),
                Tok::Punct('['),
                Tok::Ident(f),
                Tok::Punct('('),
                Tok::Ident(u),
                Tok::Punct(')'),
                Tok::Punct(']'),
            ) if f == "forbid" && u == "unsafe_code"
        )
    })
}

/// Builds the per-file set of identifiers bound to hash-container types.
///
/// Two declaration shapes are recognized, which between them cover let
/// bindings with annotations, struct fields, and function parameters:
///
/// * `name: …Type…` where the type window (up to a delimiter at bracket
///   depth zero) mentions a hash type;
/// * `let [mut] name = HashType::…`.
///
/// This is a deliberate over-approximation at file granularity: a name
/// bound to a hash type anywhere in the file marks every use site. The
/// escape hatch for a false positive is the same as for a true positive
/// you can justify — an annotated `lint:allow`.
fn collect_hash_bindings(toks: &[Token]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let mut mark = |n: &str| {
        if !names.iter().any(|x| x == n) {
            names.push(n.to_string());
        }
    };

    for i in 0..toks.len() {
        // `name :` (single colon — `::` paths excluded on both sides).
        if let Tok::Ident(name) = &toks[i].tok {
            let single_colon = matches!(
                toks.get(i + 1),
                Some(Token {
                    tok: Tok::Punct(':'),
                    ..
                })
            ) && !matches!(
                toks.get(i + 2),
                Some(Token {
                    tok: Tok::Punct(':'),
                    ..
                })
            ) && !matches!(
                i.checked_sub(1).and_then(|p| toks.get(p)),
                Some(Token {
                    tok: Tok::Punct(':'),
                    ..
                })
            );
            if single_colon && type_window_mentions_hash(toks, i + 2) {
                mark(name);
            }
        }
        // `let [mut] name = HashType ::`
        if let Tok::Ident(kw) = &toks[i].tok {
            if kw == "let" {
                let mut j = i + 1;
                if matches!(&toks.get(j), Some(Token { tok: Tok::Ident(m), .. }) if m == "mut") {
                    j += 1;
                }
                if let (
                    Some(Token {
                        tok: Tok::Ident(name),
                        ..
                    }),
                    Some(Token {
                        tok: Tok::Punct('='),
                        ..
                    }),
                    Some(Token {
                        tok: Tok::Ident(ty),
                        ..
                    }),
                ) = (toks.get(j), toks.get(j + 1), toks.get(j + 2))
                {
                    if HASH_TYPES.contains(&ty.as_str())
                        && matches!(
                            toks.get(j + 3),
                            Some(Token {
                                tok: Tok::Punct(':'),
                                ..
                            })
                        )
                    {
                        mark(name);
                    }
                }
            }
        }
    }
    names
}

/// Scans the type position starting at `start` (just past `name:`) until a
/// delimiter at bracket depth zero, and reports whether it mentions a hash
/// container type. Depth counts `<>`, `()`, `[]` so `FxHashMap<K, V>`'s
/// inner comma doesn't end the window early.
fn type_window_mentions_hash(toks: &[Token], start: usize) -> bool {
    let mut depth: i32 = 0;
    for t in toks.iter().skip(start).take(48) {
        match &t.tok {
            Tok::Punct('<') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct('>') | Tok::Punct(')') | Tok::Punct(']') if depth > 0 => depth -= 1,
            // `>` at depth 0: end of enclosing generics (or `->`/`=>`).
            Tok::Punct('>') | Tok::Punct(')') | Tok::Punct(']') => return false,
            Tok::Punct('=') | Tok::Punct(';') | Tok::Punct('{') => return false,
            Tok::Punct(',') if depth == 0 => return false,
            Tok::Ident(n) if HASH_TYPES.contains(&n.as_str()) => return true,
            _ => {}
        }
    }
    false
}

/// If the `for` at index `i` heads a loop whose iterated expression is a
/// plain (possibly borrowed / `self.`-qualified) hash-typed name, returns
/// the `for` token and the rendered expression.
fn for_loop_over<'t>(
    toks: &'t [Token],
    i: usize,
    hash_names: &[String],
) -> Option<(&'t Token, String)> {
    // `impl Trait for Type` and HRTB `for<'a>` are not loops.
    if matches!(
        toks.get(i + 1),
        Some(Token {
            tok: Tok::Punct('<'),
            ..
        })
    ) {
        return None;
    }
    // Find the `in` keyword before the loop body's `{` at depth 0.
    let mut j = i + 1;
    let mut depth: i32 = 0;
    let in_idx = loop {
        match &toks.get(j)?.tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('{') if depth == 0 => return None,
            Tok::Ident(kw) if kw == "in" && depth == 0 => break j,
            _ => {}
        }
        j += 1;
        if j > i + 24 {
            return None;
        }
    };
    // Collect the iterated expression: tokens until the body `{`.
    let mut expr: Vec<&Tok> = Vec::new();
    let mut k = in_idx + 1;
    loop {
        match &toks.get(k)?.tok {
            Tok::Punct('{') => break,
            t => expr.push(t),
        }
        k += 1;
        if k > in_idx + 8 {
            return None;
        }
    }
    // Accept only `[&][mut] name`, `[&][mut] self . name`, `[&][mut] x . name`.
    let mut idents: Vec<&str> = Vec::new();
    for t in &expr {
        match t {
            Tok::Punct('&') | Tok::Punct('.') => {}
            Tok::Ident(n) if n == "mut" => {}
            Tok::Ident(n) => idents.push(n),
            _ => return None,
        }
    }
    let last = idents.last()?;
    if idents.len() <= 2 && hash_names.iter().any(|h| h == last) {
        let rendered = idents.join(".");
        Some((&toks[i], rendered))
    } else {
        None
    }
}

/// Spans (token index ranges, inclusive) of items annotated
/// `#[cfg(test)]` — used by stdout-purity to let unit-test modules print.
fn cfg_test_spans(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = matches!(
            (
                &toks[i].tok,
                &toks[i + 1].tok,
                &toks[i + 2].tok,
                &toks[i + 3].tok,
                &toks[i + 4].tok,
                &toks[i + 5].tok,
                &toks[i + 6].tok,
            ),
            (
                Tok::Punct('#'),
                Tok::Punct('['),
                Tok::Ident(c),
                Tok::Punct('('),
                Tok::Ident(t),
                Tok::Punct(')'),
                Tok::Punct(']'),
            ) if c == "cfg" && t == "test"
        );
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes, then find the item's body braces.
        let mut j = i + 7;
        while matches!(
            toks.get(j),
            Some(Token {
                tok: Tok::Punct('#'),
                ..
            })
        ) {
            // skip `#[...]`
            let mut depth = 0;
            j += 1;
            while let Some(t) = toks.get(j) {
                match t.tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Find the opening `{` of the annotated item, then its match.
        let mut open = None;
        let mut depth: i32 = 0;
        for (k, t) in toks.iter().enumerate().skip(j) {
            match t.tok {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Punct(';') if depth == 0 => break, // braceless item
                Tok::Punct('{') if depth == 0 => {
                    open = Some(k);
                    break;
                }
                _ => {}
            }
            if k > j + 64 {
                break;
            }
        }
        let Some(open) = open else {
            i += 1;
            continue;
        };
        let mut brace = 0i32;
        let mut end = open;
        for (k, t) in toks.iter().enumerate().skip(open) {
            match t.tok {
                Tok::Punct('{') => brace += 1,
                Tok::Punct('}') => {
                    brace -= 1;
                    if brace == 0 {
                        end = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        spans.push((i, end));
        i = end + 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
        scan_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    const SIM: &str = "crates/sim/src/x.rs";

    #[test]
    fn std_hash_types_fire_in_result_scope_only() {
        let src = "use std::collections::HashSet;\n";
        assert_eq!(rules_of(SIM, src), ["nondet-iter"]);
        assert!(rules_of("crates/bench/src/x.rs", src).is_empty());
        assert!(rules_of("crates/util/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_iteration_is_flagged_via_binding_types() {
        let src = "fn f(m: &radio_util::FxHashMap<u32, u32>) -> u32 {\n    m.values().sum()\n}\n";
        let f = &scan_source(SIM, src)[0];
        assert_eq!((f.rule, f.line), ("nondet-iter", 2));
        // lookups on the same binding are fine
        let src = "fn f(m: &radio_util::FxHashMap<u32, u32>) -> Option<u32> {\n    m.get(&1).copied()\n}\n";
        assert!(scan_source(SIM, src).is_empty());
    }

    #[test]
    fn for_loops_over_hash_bindings_fire() {
        let src = "struct S { map: FxHashMap<u32, u32> }\nimpl S {\n    fn f(&self) {\n        for (k, v) in &self.map { let _ = (k, v); }\n    }\n}\n";
        assert_eq!(rules_of(SIM, src), ["nondet-iter"]);
        // vectors aren't flagged
        let src = "fn f(v: &Vec<u32>) { for x in v { let _ = x; } }\n";
        assert!(scan_source(SIM, src).is_empty());
        // BTreeMap iteration is ordered: clean
        let src = "fn f(m: &std::collections::BTreeMap<u32, u32>) { for x in m { let _ = x; } }\n";
        assert!(scan_source(SIM, src).is_empty());
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let src = "struct W { set: FxHashSet<u32> }\nimpl Default for W { fn default() -> W { W { set: FxHashSet::default() } } }\n";
        assert!(scan_source(SIM, src).is_empty());
    }

    #[test]
    fn wall_clock_scoping_and_allow() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        assert_eq!(rules_of(SIM, src), ["wall-clock"]);
        assert!(rules_of("crates/bench/src/x.rs", src).is_empty());
        let allowed =
            "fn f() { let t = Instant::now(); let _ = t; } // lint:allow(wall-clock): measured tail\n";
        assert!(scan_source(SIM, allowed).is_empty());
    }

    #[test]
    fn allow_on_preceding_line_covers_next_code_line() {
        let src = "fn f(m: &FxHashMap<u32, u32>) -> Vec<u32> {\n    let mut v: Vec<u32> = m\n        // lint:allow(nondet-iter): sorted right below\n        .values()\n        .copied()\n        .collect();\n    v.sort_unstable();\n    v\n}\n";
        assert!(scan_source(SIM, src).is_empty());
    }

    #[test]
    fn reasonless_or_unknown_allows_are_findings_and_do_not_suppress() {
        let src = "fn f() { let t = Instant::now(); let _ = t; } // lint:allow(wall-clock)\n";
        let mut rules = rules_of(SIM, src);
        rules.sort();
        assert_eq!(rules, ["allow-syntax", "wall-clock"]);
        let src = "// lint:allow(no-such-rule): whatever\nfn f() {}\n";
        assert_eq!(rules_of(SIM, src), ["allow-syntax"]);
    }

    #[test]
    fn stdout_purity_spares_bins_tests_and_cfg_test_mods() {
        let src = "pub fn f() { println!(\"x\"); }\n";
        assert_eq!(rules_of(SIM, src), ["stdout-purity"]);
        // a binary root may print (it still owes #![forbid(unsafe_code)],
        // which is the only thing flagged here)
        assert_eq!(
            rules_of("crates/core/src/bin/anon-radio.rs", src),
            ["unsafe-guard"]
        );
        assert!(rules_of("tests/end_to_end.rs", src).is_empty());
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { println!(\"ok\"); }\n}\n";
        assert!(scan_source(SIM, src).is_empty());
        // eprintln is diagnostics: always fine
        assert!(rules_of(SIM, "pub fn f() { eprintln!(\"x\"); }\n").is_empty());
    }

    #[test]
    fn unsafe_guard_roots_and_safety_comments() {
        let root = "crates/sim/src/lib.rs";
        assert_eq!(rules_of(root, "pub fn f() {}\n"), ["unsafe-guard"]);
        assert!(rules_of(root, "#![forbid(unsafe_code)]\npub fn f() {}\n").is_empty());
        // non-roots don't need the attribute
        assert!(rules_of(SIM, "pub fn f() {}\n").is_empty());
        let src = "fn f() { unsafe { g(); } }\n";
        assert_eq!(rules_of(SIM, src), ["unsafe-guard"]);
        let src = "fn f() {\n    // SAFETY: g has no preconditions\n    unsafe { g(); }\n}\n";
        assert!(scan_source(SIM, src).is_empty());
    }

    #[test]
    fn entropy_and_thread_identity() {
        assert_eq!(
            rules_of(SIM, "fn f() { let r = rand::thread_rng(); let _ = r; }\n"),
            ["os-entropy"]
        );
        assert_eq!(
            rules_of(SIM, "fn f() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }\n"),
            ["thread-identity"]
        );
        assert_eq!(
            rules_of(
                SIM,
                "fn f() { let id = std::thread::current().id(); let _ = id; }\n"
            ),
            ["thread-identity"]
        );
        // bench may size its pools however it likes
        assert!(rules_of(
            "crates/bench/src/x.rs",
            "fn f() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }\n"
        )
        .is_empty());
    }

    #[test]
    fn doc_comments_describing_directives_are_not_directives() {
        let src = "//! Suppress with `// lint:allow(rule-id): reason`.\n/// Same: lint:allow(other-id): prose\npub fn f() {}\n";
        assert!(scan_source(SIM, src).is_empty());
        // …and a doc comment cannot *suppress* either
        let src = "fn f() {\n    /// lint:allow(wall-clock): not a real directive\n    let t = Instant::now();\n    let _ = t;\n}\n";
        assert_eq!(rules_of(SIM, src), ["wall-clock"]);
    }

    #[test]
    fn banned_names_inside_strings_and_comments_never_fire() {
        let src = "// mentions thread_rng and HashMap in prose\npub const DOC: &str = \"println! Instant::now SystemTime HashSet\";\n";
        assert!(scan_source(SIM, src).is_empty());
    }
}
