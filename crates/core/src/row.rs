//! Campaign row model: typed rows, JSONL rendering/parsing, and a compact
//! binary codec.
//!
//! A campaign's machine-readable output is one row per grid cell. PR 5
//! pinned the JSONL schema with a golden corpus and PR 7's `radio-lint
//! schema` enforces it; this module gives the same rows a typed in-memory
//! form ([`CampaignRow`]) plus two interchangeable wire encodings:
//!
//! * **JSONL** — the canonical, human-greppable format. [`CampaignRow::
//!   to_jsonl`] reproduces the pinned field order byte for byte, and
//!   [`CampaignRow::parse_jsonl`] inverts it exactly and rejects every
//!   other spelling (both through [`radio_util::json`]).
//! * **Binary** — a length-prefixed little-endian encoding for
//!   million-node campaigns, where JSONL rendering and disk volume start
//!   to matter. `anon-radio rows convert` maps between the two formats
//!   losslessly in either direction.
//!
//! ## Measured tail
//!
//! Both row shapes end in a *measured tail* — everything from `wall_ns`
//! on is execution-dependent (wall time, cache counter split across
//! workers, workspace high-water marks), so deterministic consumers strip
//! it. The tail is a strict prefix: a field may be absent only if every
//! field after it is too. Golden-corpus rows carry no tail at all; the
//! runner emits the full tail.
//!
//! ## Binary layout (version 1)
//!
//! | section | bytes |
//! |---|---|
//! | file header | magic `ARBR` (4) + version u16 LE |
//! | per row | payload length u32 LE + payload |
//!
//! Payload fields in JSONL field order: phase byte (1 = elect,
//! 2 = classify); strings as u16 LE length + UTF-8 bytes; counters as
//! u64 LE; stats objects as a tag byte (0 = `null`, 1 = present) followed
//! (when present) by count u64 LE and the five summary floats as f64 LE
//! bit patterns (NaN bits encode a JSON `null` summary value). The
//! measured tail is a length byte (0–4 for elect, 0–2 for classify)
//! followed by that many tail fields in order.

use radio_util::json::{Object, Value, Writer};
use radio_util::stats::StreamingStats;
use std::fmt;

/// Magic bytes opening every binary row file ("Anon-Radio Binary Rows").
pub const BINARY_MAGIC: [u8; 4] = *b"ARBR";
/// Binary schema version written after the magic; readers reject others.
pub const BINARY_VERSION: u16 = 1;

/// A malformed row (either encoding). Carries a human-readable reason —
/// row handling is an offline tool path, not a hot loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowError(String);

impl RowError {
    fn new(msg: impl Into<String>) -> Self {
        RowError(msg.into())
    }
}

impl fmt::Display for RowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed campaign row: {}", self.0)
    }
}

impl std::error::Error for RowError {}

impl From<String> for RowError {
    fn from(msg: String) -> Self {
        RowError(msg)
    }
}

/// A `{count, mean, min, max, p50, p95}` summary, or `null` when the
/// metric folded no samples.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RowStats {
    /// No samples were folded — rendered as JSON `null`.
    #[default]
    Null,
    /// A non-empty summary. Non-finite floats render as JSON `null` and
    /// are stored as NaN in memory and in the binary encoding.
    Present {
        /// Number of samples folded.
        count: u64,
        /// Arithmetic mean.
        mean: f64,
        /// Smallest sample.
        min: f64,
        /// Largest sample.
        max: f64,
        /// Median estimate from the reservoir.
        p50: f64,
        /// 95th-percentile estimate from the reservoir.
        p95: f64,
    },
}

impl From<&StreamingStats> for RowStats {
    fn from(s: &StreamingStats) -> Self {
        if s.is_empty() {
            return RowStats::Null;
        }
        RowStats::Present {
            count: s.count(),
            mean: s.mean().expect("non-empty"),
            min: s.min().expect("non-empty"),
            max: s.max().expect("non-empty"),
            p50: s.p50().expect("non-empty"),
            p95: s.p95().expect("non-empty"),
        }
    }
}

impl RowStats {
    /// The stats block as a JSON value: `null` or a six-field object.
    fn to_json(self) -> String {
        match self {
            RowStats::Null => "null".to_string(),
            RowStats::Present {
                count,
                mean,
                min,
                max,
                p50,
                p95,
            } => Writer::default()
                .u64("count", count)
                .f64("mean", mean)
                .f64("min", min)
                .f64("max", max)
                .f64("p50", p50)
                .f64("p95", p95)
                .finish(),
        }
    }

    /// Takes the stats field `key` of a parsed row, if present. A missing
    /// summary field reads as zero and a value other than an object as
    /// `null`; the caller's re-render check rejects either row.
    fn take(row: &mut Object, key: &str) -> Result<Option<RowStats>, RowError> {
        Ok(match row.take(key) {
            Some(Value::Object(mut s)) => Some(RowStats::Present {
                count: s.take_u64("count")?.unwrap_or_default(),
                mean: s.take_f64("mean")?.unwrap_or_default(),
                min: s.take_f64("min")?.unwrap_or_default(),
                max: s.take_f64("max")?.unwrap_or_default(),
                p50: s.take_f64("p50")?.unwrap_or_default(),
                p95: s.take_f64("p95")?.unwrap_or_default(),
            }),
            other => other.map(|_| RowStats::Null),
        })
    }
}

/// One elect-phase row. The measured tail (`wall_ns`, `cache_hits`,
/// `cache_misses`, `mem_hw`) is a strict prefix: each field may be
/// present only if all earlier tail fields are.
#[derive(Debug, Clone, PartialEq)]
pub struct ElectRow {
    /// Family axis label (e.g. `gnp:0.25`).
    pub family: String,
    /// Tag-strategy axis label (e.g. `arith:2`).
    pub tags: String,
    /// Size axis.
    pub n: u64,
    /// Tag-span axis.
    pub span: u64,
    /// Collision-model axis label.
    pub model: String,
    /// Repetitions folded into this cell.
    pub runs: u64,
    /// Runs whose configuration admitted a leader.
    pub feasible: u64,
    /// Runs that elected a leader.
    pub elected: u64,
    /// Runs aborted by the round cap.
    pub aborted: u64,
    /// Rounds-to-termination summary.
    pub rounds: RowStats,
    /// Transmission-count summary.
    pub transmissions: RowStats,
    /// Stepped-advance summary.
    pub stepped: RowStats,
    /// Leapt-advance summary.
    pub leapt: RowStats,
    /// Wall-clock summary (measured tail).
    pub wall_ns: Option<RowStats>,
    /// Schedule-cache hits (measured tail).
    pub cache_hits: Option<u64>,
    /// Schedule-cache misses (measured tail).
    pub cache_misses: Option<u64>,
    /// Workspace high-water-mark summary in bytes (measured tail).
    pub mem_hw: Option<RowStats>,
}

/// One classify-phase row (no model axis — classification never consults
/// it). The measured tail is `wall_ns` then `mem_hw`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyRow {
    /// Family axis label.
    pub family: String,
    /// Tag-strategy axis label.
    pub tags: String,
    /// Size axis.
    pub n: u64,
    /// Tag-span axis.
    pub span: u64,
    /// Repetitions folded into this cell.
    pub runs: u64,
    /// Runs whose configuration admitted a leader.
    pub feasible: u64,
    /// Refinement-iteration summary.
    pub iterations: RowStats,
    /// Class-count summary.
    pub classes: RowStats,
    /// Relabel-count summary.
    pub relabels: RowStats,
    /// Wall-clock summary (measured tail).
    pub wall_ns: Option<RowStats>,
    /// Workspace high-water-mark summary in bytes (measured tail).
    pub mem_hw: Option<RowStats>,
}

/// A campaign row of either phase.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignRow {
    /// An elect-phase row.
    Elect(ElectRow),
    /// A classify-phase row.
    Classify(ClassifyRow),
}

impl CampaignRow {
    /// Renders the pinned JSONL form, byte for byte.
    pub fn to_jsonl(&self) -> String {
        match self {
            CampaignRow::Elect(r) => {
                let mut w = Writer::default()
                    .str("phase", "elect")
                    .str("family", &r.family)
                    .str("tags", &r.tags)
                    .u64("n", r.n)
                    .u64("span", r.span)
                    .str("model", &r.model)
                    .u64("runs", r.runs)
                    .u64("feasible", r.feasible)
                    .u64("elected", r.elected)
                    .u64("aborted", r.aborted)
                    .raw("rounds", &r.rounds.to_json())
                    .raw("transmissions", &r.transmissions.to_json())
                    .raw("stepped", &r.stepped.to_json())
                    .raw("leapt", &r.leapt.to_json());
                if let Some(wall) = &r.wall_ns {
                    w = w.raw("wall_ns", &wall.to_json());
                    if let Some(hits) = r.cache_hits {
                        w = w.u64("cache_hits", hits);
                        if let Some(misses) = r.cache_misses {
                            w = w.u64("cache_misses", misses);
                            if let Some(mem) = &r.mem_hw {
                                w = w.raw("mem_hw", &mem.to_json());
                            }
                        }
                    }
                }
                w.finish()
            }
            CampaignRow::Classify(r) => {
                let mut w = Writer::default()
                    .str("phase", "classify")
                    .str("family", &r.family)
                    .str("tags", &r.tags)
                    .u64("n", r.n)
                    .u64("span", r.span)
                    .u64("runs", r.runs)
                    .u64("feasible", r.feasible)
                    .raw("iterations", &r.iterations.to_json())
                    .raw("classes", &r.classes.to_json())
                    .raw("relabels", &r.relabels.to_json());
                if let Some(wall) = &r.wall_ns {
                    w = w.raw("wall_ns", &wall.to_json());
                    if let Some(mem) = &r.mem_hw {
                        w = w.raw("mem_hw", &mem.to_json());
                    }
                }
                w.finish()
            }
        }
    }

    /// Parses one JSONL row produced by [`to_jsonl`](Self::to_jsonl) (or
    /// any prior schema version — the measured tail may be any prefix).
    /// The parser is exact, not lenient: a row is accepted only if it
    /// re-renders to the same bytes, which enforces field order, spelling,
    /// the absence of whitespace, number form and the tail prefix rule —
    /// the contract `radio-lint schema` checks.
    pub fn parse_jsonl(line: &str) -> Result<CampaignRow, RowError> {
        let mut obj = Object::parse(line)?;
        // A missing field reads as a default; the re-render check rejects it.
        let phase = obj.take_str("phase")?.unwrap_or_default();
        let row = match phase.as_str() {
            "elect" => CampaignRow::Elect(ElectRow {
                family: take_label(&mut obj, "family")?,
                tags: take_label(&mut obj, "tags")?,
                n: obj.take_u64("n")?.unwrap_or_default(),
                span: obj.take_u64("span")?.unwrap_or_default(),
                model: take_label(&mut obj, "model")?,
                runs: obj.take_u64("runs")?.unwrap_or_default(),
                feasible: obj.take_u64("feasible")?.unwrap_or_default(),
                elected: obj.take_u64("elected")?.unwrap_or_default(),
                aborted: obj.take_u64("aborted")?.unwrap_or_default(),
                rounds: RowStats::take(&mut obj, "rounds")?.unwrap_or_default(),
                transmissions: RowStats::take(&mut obj, "transmissions")?.unwrap_or_default(),
                stepped: RowStats::take(&mut obj, "stepped")?.unwrap_or_default(),
                leapt: RowStats::take(&mut obj, "leapt")?.unwrap_or_default(),
                wall_ns: RowStats::take(&mut obj, "wall_ns")?,
                cache_hits: obj.take_u64("cache_hits")?,
                cache_misses: obj.take_u64("cache_misses")?,
                mem_hw: RowStats::take(&mut obj, "mem_hw")?,
            }),
            "classify" => CampaignRow::Classify(ClassifyRow {
                family: take_label(&mut obj, "family")?,
                tags: take_label(&mut obj, "tags")?,
                n: obj.take_u64("n")?.unwrap_or_default(),
                span: obj.take_u64("span")?.unwrap_or_default(),
                runs: obj.take_u64("runs")?.unwrap_or_default(),
                feasible: obj.take_u64("feasible")?.unwrap_or_default(),
                iterations: RowStats::take(&mut obj, "iterations")?.unwrap_or_default(),
                classes: RowStats::take(&mut obj, "classes")?.unwrap_or_default(),
                relabels: RowStats::take(&mut obj, "relabels")?.unwrap_or_default(),
                wall_ns: RowStats::take(&mut obj, "wall_ns")?,
                mem_hw: RowStats::take(&mut obj, "mem_hw")?,
            }),
            other => return Err(RowError::new(format!("unknown phase {other:?}"))),
        };
        if let Some(key) = obj.leftover() {
            return Err(RowError::new(format!("unknown field \"{key}\"")));
        }
        let canonical = row.to_jsonl();
        if canonical != line {
            return Err(RowError::new(format!(
                "not in canonical form (field order, spacing or number spelling); \
                 expected {canonical}"
            )));
        }
        Ok(row)
    }
}

/// Takes an axis label. The binary format stores a label's length as a
/// `u16`, so a longer one is rejected here rather than in the encoder.
fn take_label(row: &mut Object, key: &str) -> Result<String, RowError> {
    let label = row.take_str(key)?.unwrap_or_default();
    match label.len() > usize::from(u16::MAX) {
        true => Err(RowError::new(format!("\"{key}\" is over 65535 bytes"))),
        false => Ok(label),
    }
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

/// True when `bytes` opens with the binary-row magic — the format sniff
/// used by `anon-radio rows convert` and `radio-lint schema`.
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.starts_with(&BINARY_MAGIC)
}

/// Encodes a full binary row file: header plus one length-prefixed
/// payload per row.
pub fn write_binary(rows: &[CampaignRow]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + rows.len() * 256);
    out.extend_from_slice(&BINARY_MAGIC);
    out.extend_from_slice(&BINARY_VERSION.to_le_bytes());
    for row in rows {
        let payload = encode_row(row);
        out.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("row fits u32")
                .to_le_bytes(),
        );
        out.extend_from_slice(&payload);
    }
    out
}

/// Decodes a binary row file, rejecting bad magic, unknown versions,
/// truncation, and trailing garbage.
pub fn read_binary(bytes: &[u8]) -> Result<Vec<CampaignRow>, RowError> {
    if bytes.len() < 6 {
        return Err(RowError::new("file shorter than the 6-byte header"));
    }
    if !is_binary(bytes) {
        return Err(RowError::new(format!(
            "bad magic {:?} (expected {:?})",
            &bytes[..4],
            BINARY_MAGIC
        )));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != BINARY_VERSION {
        return Err(RowError::new(format!(
            "unsupported binary schema version {version} (reader supports {BINARY_VERSION})"
        )));
    }
    let mut rest = &bytes[6..];
    let mut rows = Vec::new();
    while !rest.is_empty() {
        if rest.len() < 4 {
            return Err(RowError::new("truncated row length prefix"));
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        rest = &rest[4..];
        if rest.len() < len {
            return Err(RowError::new(format!(
                "truncated row payload: declared {len} bytes, {} remain",
                rest.len()
            )));
        }
        let (payload, tail) = rest.split_at(len);
        rest = tail;
        let mut d = Decoder { rest: payload };
        rows.push(d.row()?);
        if !d.rest.is_empty() {
            return Err(RowError::new(format!(
                "{} stray bytes after a decoded row payload",
                d.rest.len()
            )));
        }
    }
    Ok(rows)
}

const PHASE_ELECT: u8 = 1;
const PHASE_CLASSIFY: u8 = 2;
const STATS_NULL: u8 = 0;
const STATS_PRESENT: u8 = 1;

fn encode_row(row: &CampaignRow) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    match row {
        CampaignRow::Elect(r) => {
            out.push(PHASE_ELECT);
            put_str(&mut out, &r.family);
            put_str(&mut out, &r.tags);
            put_u64(&mut out, r.n);
            put_u64(&mut out, r.span);
            put_str(&mut out, &r.model);
            for v in [r.runs, r.feasible, r.elected, r.aborted] {
                put_u64(&mut out, v);
            }
            for s in [&r.rounds, &r.transmissions, &r.stepped, &r.leapt] {
                put_stats(&mut out, s);
            }
            let tail_len = [
                r.wall_ns.is_some(),
                r.cache_hits.is_some(),
                r.cache_misses.is_some(),
                r.mem_hw.is_some(),
            ]
            .iter()
            .take_while(|p| **p)
            .count();
            out.push(tail_len as u8);
            if let Some(wall) = &r.wall_ns {
                put_stats(&mut out, wall);
            }
            if let Some(hits) = r.cache_hits {
                put_u64(&mut out, hits);
            }
            if let Some(misses) = r.cache_misses {
                put_u64(&mut out, misses);
            }
            if let Some(mem) = &r.mem_hw {
                put_stats(&mut out, mem);
            }
        }
        CampaignRow::Classify(r) => {
            out.push(PHASE_CLASSIFY);
            put_str(&mut out, &r.family);
            put_str(&mut out, &r.tags);
            put_u64(&mut out, r.n);
            put_u64(&mut out, r.span);
            put_u64(&mut out, r.runs);
            put_u64(&mut out, r.feasible);
            for s in [&r.iterations, &r.classes, &r.relabels] {
                put_stats(&mut out, s);
            }
            let tail_len = [r.wall_ns.is_some(), r.mem_hw.is_some()]
                .iter()
                .take_while(|p| **p)
                .count();
            out.push(tail_len as u8);
            if let Some(wall) = &r.wall_ns {
                put_stats(&mut out, wall);
            }
            if let Some(mem) = &r.mem_hw {
                put_stats(&mut out, mem);
            }
        }
    }
    out
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("axis labels are short");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_stats(out: &mut Vec<u8>, s: &RowStats) {
    match s {
        RowStats::Null => out.push(STATS_NULL),
        RowStats::Present {
            count,
            mean,
            min,
            max,
            p50,
            p95,
        } => {
            out.push(STATS_PRESENT);
            put_u64(out, *count);
            for f in [mean, min, max, p50, p95] {
                out.extend_from_slice(&f.to_le_bytes());
            }
        }
    }
}

struct Decoder<'a> {
    rest: &'a [u8],
}

impl Decoder<'_> {
    fn take(&mut self, n: usize, what: &str) -> Result<&[u8], RowError> {
        if self.rest.len() < n {
            return Err(RowError::new(format!(
                "truncated {what}: needed {n} bytes, {} remain",
                self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &str) -> Result<u8, RowError> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> Result<u64, RowError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self, what: &str) -> Result<f64, RowError> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn str(&mut self, what: &str) -> Result<String, RowError> {
        let len = u16::from_le_bytes(self.take(2, what)?.try_into().expect("2 bytes")) as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| RowError::new(format!("{what} is not UTF-8: {e}")))
    }

    fn stats(&mut self, what: &str) -> Result<RowStats, RowError> {
        match self.u8(what)? {
            STATS_NULL => Ok(RowStats::Null),
            STATS_PRESENT => Ok(RowStats::Present {
                count: self.u64(what)?,
                mean: self.f64(what)?,
                min: self.f64(what)?,
                max: self.f64(what)?,
                p50: self.f64(what)?,
                p95: self.f64(what)?,
            }),
            tag => Err(RowError::new(format!("unknown stats tag {tag} in {what}"))),
        }
    }

    fn row(&mut self) -> Result<CampaignRow, RowError> {
        match self.u8("phase byte")? {
            PHASE_ELECT => {
                let family = self.str("family")?;
                let tags = self.str("tags")?;
                let n = self.u64("n")?;
                let span = self.u64("span")?;
                let model = self.str("model")?;
                let runs = self.u64("runs")?;
                let feasible = self.u64("feasible")?;
                let elected = self.u64("elected")?;
                let aborted = self.u64("aborted")?;
                let rounds = self.stats("rounds")?;
                let transmissions = self.stats("transmissions")?;
                let stepped = self.stats("stepped")?;
                let leapt = self.stats("leapt")?;
                let tail_len = self.u8("tail length")?;
                if tail_len > 4 {
                    return Err(RowError::new(format!(
                        "elect tail length {tail_len} exceeds the 4 defined tail fields"
                    )));
                }
                let wall_ns = (tail_len >= 1).then(|| self.stats("wall_ns")).transpose()?;
                let cache_hits = (tail_len >= 2)
                    .then(|| self.u64("cache_hits"))
                    .transpose()?;
                let cache_misses = (tail_len >= 3)
                    .then(|| self.u64("cache_misses"))
                    .transpose()?;
                let mem_hw = (tail_len >= 4).then(|| self.stats("mem_hw")).transpose()?;
                Ok(CampaignRow::Elect(ElectRow {
                    family,
                    tags,
                    n,
                    span,
                    model,
                    runs,
                    feasible,
                    elected,
                    aborted,
                    rounds,
                    transmissions,
                    stepped,
                    leapt,
                    wall_ns,
                    cache_hits,
                    cache_misses,
                    mem_hw,
                }))
            }
            PHASE_CLASSIFY => {
                let family = self.str("family")?;
                let tags = self.str("tags")?;
                let n = self.u64("n")?;
                let span = self.u64("span")?;
                let runs = self.u64("runs")?;
                let feasible = self.u64("feasible")?;
                let iterations = self.stats("iterations")?;
                let classes = self.stats("classes")?;
                let relabels = self.stats("relabels")?;
                let tail_len = self.u8("tail length")?;
                if tail_len > 2 {
                    return Err(RowError::new(format!(
                        "classify tail length {tail_len} exceeds the 2 defined tail fields"
                    )));
                }
                let wall_ns = (tail_len >= 1).then(|| self.stats("wall_ns")).transpose()?;
                let mem_hw = (tail_len >= 2).then(|| self.stats("mem_hw")).transpose()?;
                Ok(CampaignRow::Classify(ClassifyRow {
                    family,
                    tags,
                    n,
                    span,
                    runs,
                    feasible,
                    iterations,
                    classes,
                    relabels,
                    wall_ns,
                    mem_hw,
                }))
            }
            byte => Err(RowError::new(format!("unknown phase byte {byte}"))),
        }
    }
}

/// Converts JSONL text to a binary row file (exact inverse of
/// [`binary_to_jsonl`]). Blank lines are skipped.
pub fn jsonl_to_binary(text: &str) -> Result<Vec<u8>, RowError> {
    let rows: Vec<CampaignRow> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(CampaignRow::parse_jsonl)
        .collect::<Result<_, _>>()?;
    Ok(write_binary(&rows))
}

/// Converts a binary row file to JSONL text (one row per line, trailing
/// newline), the exact inverse of [`jsonl_to_binary`].
pub fn binary_to_jsonl(bytes: &[u8]) -> Result<String, RowError> {
    let rows = read_binary(bytes)?;
    let mut out = String::with_capacity(rows.len() * 256);
    for row in &rows {
        out.push_str(&row.to_jsonl());
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_elect(tail: bool) -> CampaignRow {
        CampaignRow::Elect(ElectRow {
            family: "gnp:0.25".into(),
            tags: "arith:2".into(),
            n: 1_000_000,
            span: 3,
            model: "no-collision-detection".into(),
            runs: 2,
            feasible: 2,
            elected: 2,
            aborted: 0,
            rounds: RowStats::Present {
                count: 2,
                mean: 13.5,
                min: 11.0,
                max: 15.0,
                p50: 15.0,
                p95: 15.0,
            },
            transmissions: RowStats::Null,
            stepped: RowStats::Present {
                count: 2,
                mean: 10.123456789012345,
                min: 9.0,
                max: 12.0,
                p50: 12.0,
                p95: 12.0,
            },
            leapt: RowStats::Null,
            wall_ns: tail.then_some(RowStats::Present {
                count: 2,
                mean: 1.25e9,
                min: 1.0e9,
                max: 1.5e9,
                p50: 1.5e9,
                p95: 1.5e9,
            }),
            cache_hits: tail.then_some(1),
            cache_misses: tail.then_some(1),
            mem_hw: tail.then_some(RowStats::Null),
        })
    }

    fn sample_classify() -> CampaignRow {
        CampaignRow::Classify(ClassifyRow {
            family: "star".into(),
            tags: "uniform".into(),
            n: 6,
            span: 3,
            runs: 2,
            feasible: 2,
            iterations: RowStats::Present {
                count: 2,
                mean: 1.0,
                min: 1.0,
                max: 1.0,
                p50: 1.0,
                p95: 1.0,
            },
            classes: RowStats::Null,
            relabels: RowStats::Present {
                count: 2,
                mean: 6.0,
                min: 6.0,
                max: 6.0,
                p50: 6.0,
                p95: 6.0,
            },
            wall_ns: Some(RowStats::Present {
                count: 2,
                mean: 42.0,
                min: 41.0,
                max: 43.0,
                p50: 43.0,
                p95: 43.0,
            }),
            mem_hw: Some(RowStats::Present {
                count: 2,
                mean: 65536.0,
                min: 65536.0,
                max: 65536.0,
                p50: 65536.0,
                p95: 65536.0,
            }),
        })
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        for row in [sample_elect(true), sample_elect(false), sample_classify()] {
            let line = row.to_jsonl();
            let parsed = CampaignRow::parse_jsonl(&line).expect("parses");
            assert_eq!(parsed.to_jsonl(), line);
        }
    }

    #[test]
    fn binary_round_trips_exactly() {
        let rows = vec![sample_elect(true), sample_elect(false), sample_classify()];
        let bytes = write_binary(&rows);
        assert!(is_binary(&bytes));
        let back = read_binary(&bytes).expect("decodes");
        assert_eq!(back, rows);
        // and through the text form: jsonl → binary → jsonl is identity
        let jsonl: String = rows.iter().map(|r| r.to_jsonl() + "\n").collect();
        let bin = jsonl_to_binary(&jsonl).expect("encodes");
        assert_eq!(binary_to_jsonl(&bin).expect("decodes"), jsonl);
    }

    #[test]
    fn parser_rejects_schema_drift() {
        // reordered field
        assert!(CampaignRow::parse_jsonl(
            "{\"phase\":\"elect\",\"tags\":\"uniform\",\"family\":\"path\"}"
        )
        .is_err());
        // whitespace is drift, not style
        let line = sample_classify().to_jsonl().replace(":", ": ");
        assert!(CampaignRow::parse_jsonl(&line).is_err());
        // truncated tail mid-object
        let line = sample_elect(true).to_jsonl();
        assert!(CampaignRow::parse_jsonl(&line[..line.len() - 2]).is_err());
        // unknown phase
        assert!(CampaignRow::parse_jsonl("{\"phase\":\"audit\"}").is_err());
        // number spelling (`1e0` reads as 1, `.5` is not JSON); a tail
        // field without its predecessors
        let (line, elect) = (sample_classify().to_jsonl(), sample_elect(false).to_jsonl());
        for drifted in [
            line.replacen("\"mean\":1,", "\"mean\":1e0,", 1),
            line.replacen("\"mean\":1,", "\"mean\":.5,", 1),
            format!("{},\"cache_hits\":1}}", &elect[..elect.len() - 1]),
        ] {
            assert!(CampaignRow::parse_jsonl(&drifted).is_err(), "{drifted}");
        }
    }

    #[test]
    fn binary_reader_rejects_corruption() {
        let good = write_binary(&[sample_classify()]);
        // bad magic
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(read_binary(&bad).is_err());
        // unsupported version
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(read_binary(&bad).is_err());
        // truncated payload
        assert!(read_binary(&good[..good.len() - 3]).is_err());
        // truncated header
        assert!(read_binary(&good[..5]).is_err());
        // declared length longer than file
        let mut bad = good.clone();
        bad[6] = 0xFF;
        bad[7] = 0xFF;
        assert!(read_binary(&bad).is_err());
    }

    #[test]
    fn non_finite_floats_render_as_null_and_round_trip() {
        let row = CampaignRow::Classify(match sample_classify() {
            CampaignRow::Classify(mut r) => {
                r.wall_ns = Some(RowStats::Present {
                    count: 1,
                    mean: f64::NAN,
                    min: 0.0,
                    max: 0.0,
                    p50: 0.0,
                    p95: 0.0,
                });
                r.mem_hw = None;
                r
            }
            _ => unreachable!(),
        });
        let line = row.to_jsonl();
        assert!(line.contains("\"mean\":null"));
        let parsed = CampaignRow::parse_jsonl(&line).expect("parses");
        assert_eq!(parsed.to_jsonl(), line);
        // binary carries the NaN bits; jsonl render collapses back to null
        let back = read_binary(&write_binary(&[row])).expect("decodes");
        assert_eq!(back[0].to_jsonl(), line);
    }
}
