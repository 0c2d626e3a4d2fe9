//! Configuration IO: a line-oriented text format plus DOT export.
//!
//! The text format is deliberately small and fully round-trippable:
//!
//! ```text
//! # comments and blank lines are ignored
//! config <n> <m>
//! tags <t_0> <t_1> … <t_{n-1}>
//! edge <u> <v>        (m lines, any order)
//! ```
//!
//! Example for the paper's `H_2` (path `a‒b‒c‒d`, tags `2 0 0 3`):
//!
//! ```text
//! config 4 3
//! tags 2 0 0 3
//! edge 0 1
//! edge 1 2
//! edge 2 3
//! ```

use std::fmt::Write as _;

use crate::config::{ConfigError, Configuration, Tag};
use crate::csr::{Csr, GraphError};

/// Errors from parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line did not match any directive.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The reason the line was rejected.
        reason: String,
    },
    /// The `config` header is missing or duplicated.
    Header(String),
    /// Edge/tag counts did not match the header.
    CountMismatch(String),
    /// Structural error from graph construction.
    Graph(GraphError),
    /// Semantic error from configuration validation.
    Config(ConfigError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
            ParseError::Header(msg) => write!(f, "header: {msg}"),
            ParseError::CountMismatch(msg) => write!(f, "count mismatch: {msg}"),
            ParseError::Graph(e) => write!(f, "graph: {e}"),
            ParseError::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<GraphError> for ParseError {
    fn from(e: GraphError) -> Self {
        ParseError::Graph(e)
    }
}

impl From<ConfigError> for ParseError {
    fn from(e: ConfigError) -> Self {
        ParseError::Config(e)
    }
}

/// Serializes a configuration to the text format.
pub fn to_text(config: &Configuration) -> String {
    let g = config.csr();
    let mut out = String::new();
    let _ = writeln!(out, "config {} {}", g.node_count(), g.edge_count());
    let tags: Vec<String> = config.tags().iter().map(|t| t.to_string()).collect();
    let _ = writeln!(out, "tags {}", tags.join(" "));
    for (u, v) in g.edges() {
        let _ = writeln!(out, "edge {u} {v}");
    }
    out
}

/// Parses the text format back into a configuration.
pub fn from_text(text: &str) -> Result<Configuration, ParseError> {
    let mut header: Option<(usize, usize)> = None;
    let mut tags: Option<Vec<Tag>> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let directive = parts.next().expect("non-empty line has a token");
        let rest: Vec<&str> = parts.collect();
        match directive {
            "config" => {
                if header.is_some() {
                    return Err(ParseError::Header("duplicate `config` line".into()));
                }
                if rest.len() != 2 {
                    return Err(ParseError::BadLine {
                        line: line_no,
                        reason: "`config` needs exactly <n> <m>".into(),
                    });
                }
                let n = rest[0].parse::<usize>().map_err(|e| ParseError::BadLine {
                    line: line_no,
                    reason: format!("bad n: {e}"),
                })?;
                let m = rest[1].parse::<usize>().map_err(|e| ParseError::BadLine {
                    line: line_no,
                    reason: format!("bad m: {e}"),
                })?;
                header = Some((n, m));
            }
            "tags" => {
                if tags.is_some() {
                    return Err(ParseError::Header("duplicate `tags` line".into()));
                }
                let parsed: Result<Vec<Tag>, _> = rest.iter().map(|s| s.parse::<Tag>()).collect();
                tags = Some(parsed.map_err(|e| ParseError::BadLine {
                    line: line_no,
                    reason: format!("bad tag: {e}"),
                })?);
            }
            "edge" => {
                if rest.len() != 2 {
                    return Err(ParseError::BadLine {
                        line: line_no,
                        reason: "`edge` needs exactly <u> <v>".into(),
                    });
                }
                let u = rest[0].parse::<u32>().map_err(|e| ParseError::BadLine {
                    line: line_no,
                    reason: format!("bad endpoint: {e}"),
                })?;
                let v = rest[1].parse::<u32>().map_err(|e| ParseError::BadLine {
                    line: line_no,
                    reason: format!("bad endpoint: {e}"),
                })?;
                edges.push((u, v));
            }
            other => {
                return Err(ParseError::BadLine {
                    line: line_no,
                    reason: format!("unknown directive `{other}`"),
                });
            }
        }
    }

    let (n, m) = header.ok_or_else(|| ParseError::Header("missing `config` line".into()))?;
    let tags = tags.ok_or_else(|| ParseError::Header("missing `tags` line".into()))?;
    if tags.len() != n {
        return Err(ParseError::CountMismatch(format!(
            "{} tags for n={n}",
            tags.len()
        )));
    }
    if edges.len() != m {
        return Err(ParseError::CountMismatch(format!(
            "{} edges, header says {m}",
            edges.len()
        )));
    }
    let graph = Csr::from_edges(n, &edges)?;
    if graph.edge_count() != m {
        return Err(ParseError::CountMismatch(format!(
            "{} distinct edges after dedup, header says {m}",
            graph.edge_count()
        )));
    }
    Ok(Configuration::new(graph, tags)?)
}

/// Exports the configuration as Graphviz DOT, labelling every node with its
/// index and tag (`v3\nt=5`).
pub fn to_dot(config: &Configuration, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph {name} {{");
    let _ = writeln!(out, "  node [shape=circle];");
    for v in config.csr().nodes() {
        let _ = writeln!(out, "  v{v} [label=\"v{v}\\nt={}\"];", config.tag(v));
    }
    for (u, v) in config.csr().edges() {
        let _ = writeln!(out, "  v{u} -- v{v};");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    #[test]
    fn round_trip_h_m() {
        let c = families::h_m(2);
        let text = to_text(&c);
        let back = from_text(&text).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn parses_with_comments_and_blank_lines() {
        let text = "# demo\n\nconfig 3 2\ntags 0 1 2\n# middle\nedge 0 1\nedge 1 2\n";
        let c = from_text(text).unwrap();
        assert_eq!(c.size(), 3);
        assert_eq!(c.tags(), &[0, 1, 2]);
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(matches!(from_text(""), Err(ParseError::Header(_))));
        assert!(matches!(
            from_text("config 2 1\ntags 0\nedge 0 1\n"),
            Err(ParseError::CountMismatch(_))
        ));
        assert!(matches!(
            from_text("config 2 2\ntags 0 1\nedge 0 1\n"),
            Err(ParseError::CountMismatch(_))
        ));
        assert!(matches!(
            from_text("config 2 1\ntags 0 1\nedge 0 0\n"),
            Err(ParseError::Graph(GraphError::SelfLoop(0)))
        ));
        assert!(matches!(
            from_text("config 2 1\ntags 0 1\nfrob 0 1\n"),
            Err(ParseError::BadLine { .. })
        ));
        assert!(matches!(
            from_text("config 4 2\ntags 0 1 2 3\nedge 0 1\nedge 2 3\n"),
            Err(ParseError::Config(ConfigError::Disconnected))
        ));
    }

    #[test]
    fn duplicate_edges_detected_via_header_mismatch() {
        let text = "config 3 3\ntags 0 1 2\nedge 0 1\nedge 1 0\nedge 1 2\n";
        assert!(matches!(from_text(text), Err(ParseError::CountMismatch(_))));
    }

    #[test]
    fn dot_export_mentions_every_node_and_edge() {
        let c = families::s_m(1);
        let dot = to_dot(&c, "s1");
        assert!(dot.contains("graph s1 {"));
        for v in 0..4 {
            assert!(dot.contains(&format!("v{v} [label=")));
        }
        assert!(dot.contains("v0 -- v1;"));
        assert!(dot.contains("v2 -- v3;"));
    }

    #[test]
    fn example_in_docs_parses() {
        let text = "config 4 3\ntags 2 0 0 3\nedge 0 1\nedge 1 2\nedge 2 3\n";
        let c = from_text(text).unwrap();
        assert_eq!(c, families::h_m(2));
    }
}
