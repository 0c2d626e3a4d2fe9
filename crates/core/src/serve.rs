//! `anon-radio serve` — the resident election service (ROADMAP item 1).
//!
//! The reuse machinery of the campaign layer — warm [`SimWorkspace`]s,
//! warm [`ClassifierWorkspace`]s, the process-wide [`ScheduleCache`] —
//! only pays off when workspaces survive across requests. This module is the
//! long-running process that makes that true: a supervised daemon
//! accepting **jobs** over a line-delimited JSON protocol and streaming
//! one **reply** line back per job.
//!
//! # Protocol
//!
//! Every request is one line holding one flat JSON object; every reply is
//! one line holding one flat JSON object (`campaign-cell` replies embed
//! the nested row object). Requests are answered **in submission order**
//! per connection, whatever order the connection's lanes finish them in.
//!
//! ```text
//! {"op":"elect","id":1,"family":"path","n":8,"span":4,"seed":42,"model":"no-cd"}
//! {"op":"classify","id":2,"family":"star","n":6,"span":3,"seed":7}
//! {"op":"campaign-cell","id":3,"phase":"elect","family":"path","n":8,"span":4,"reps":3,"seed":9}
//! {"op":"shutdown"}
//! ```
//!
//! * `op` (required): `elect`, `classify`, `campaign-cell`, `shutdown`.
//! * `id` (optional, unsigned): echoed verbatim in the reply; defaults to
//!   the connection-local sequence number.
//! * `elect`/`classify` name a configuration either **drawn** — `family`
//!   (a [`FamilySpec`] string) with optional `n` (default
//!   [`FamilySpec::default_size`]: a size-pinned spec's own node count,
//!   else 8), `span` (default 4), `tags` (a [`TagStrategy`], default
//!   `uniform`), `seed` (default the root seed) — or **inline** via
//!   `config` holding a `radio-graph` text-format document. The CLI's
//!   `elect` (from a file or `--family`) and `check` build the same
//!   [`OneShotJob`] and run the same executor ([`elect`], [`classify`]),
//!   so a served reply and the one-shot text carry the same result.
//! * `elect` additionally takes `model` (default `no-cd`), and the
//!   per-job deadline knob `max_rounds` (unsigned; the existing
//!   [`RunOpts::max_rounds`] plumbing).
//! * `campaign-cell` takes `phase` (default `elect`), `family` (required),
//!   `n`/`span`/`tags`/`seed`, `reps` (default 1), and for the elect
//!   phase `model`/`max_rounds`. It executes one grid cell
//!   through [`run_cell`] — positional seeds, same as a full `campaign`
//!   over the single-cell spec — and embeds the cell's row (the PR 6/PR 9
//!   row schema, full measured tail) under `"row"`.
//! * Unknown fields, unknown ops, type mismatches, and malformed JSON are
//!   answered with a structured error reply — never by closing the
//!   connection.
//!
//! Replies: `{"ok":true,"id":…,"op":…,…}` on success — elect replies
//! carry the election report plus the cache verdict for *this* job
//! (`"cache":"exact-hit"|"miss"|"off"`; a `family` job is looked up by
//! its draw, an inline `config` job by its configuration's fingerprint,
//! so the two never share an entry) and the shared
//! cache's cumulative `cache_hits`/`cache_misses` counters. A `family`
//! `classify` job on a cached worker is looked up by its draw too, and a
//! hit answers from the entry's classifier summary without building or
//! classifying; a miss stores nothing. Its reply carries no verdict, so
//! it reads the same with the cache on or off, but its lookup counts in
//! the cumulative counters of later elect replies. Failures are
//! `{"ok":false,"id":…,"error":…,"message":…}` with `error` one of
//! `bad-request` (unparseable or invalid job), `deadline` (the round
//! budget ran out; [`ElectError::RoundLimit`]), `election` (contract or
//! prediction violation), `shutting-down`, or `internal` (the job
//! panicked; its reply reports it and its workspace is rebuilt — a panic
//! never takes down the daemon). A line that is not UTF-8 is a
//! `bad-request` like any other malformed line, and a refused job's
//! `shutting-down` reply carries its `id` when the line parses.
//!
//! # Supervision
//!
//! The daemon keeps [`ServeOptions::threads`] warm [`CampaignWorkspace`]s,
//! all wired to one shared [`ScheduleCache`], and serves each connection
//! on [`ServeOptions::lanes`] **lanes** — `min(threads, queue)` threads,
//! the first of them the connection's own. A lane takes the connection's
//! next line under its intake lock (the one admission point: blank lines
//! skipped, malformed lines answered, `shutdown` acked), runs the job on a
//! workspace it borrows for that job alone, holding no connection lock,
//! and hands the reply to the connection's in-order reply buffer, which
//! writes it once every earlier reply is out. So `threads` bounds the jobs
//! running at once, daemon-wide, and `queue` the jobs one connection has
//! read and not yet answered; on a one-lane connection each job is read,
//! run and answered on one thread.
//!
//! Backpressure: a connection reads its next line only when one of its
//! lanes is free, so a flooding client feels write pressure, not
//! unbounded buffering. A write failure (client gone, broken pipe) is a
//! *per-connection* event — the connection's later replies are counted as
//! dropped, and the process never exits on EPIPE. A client that stops
//! reading pins only its own lanes: a lane gives its workspace back before
//! it writes, so other connections keep running. A panicking job is
//! answered `internal` and its workspace is rebuilt. `{"op":"shutdown"}`
//! (or EOF on stdin) stops intake, answers every accepted job, and emits
//! the shutdown ack last. A socket daemon then gives every other
//! connection still open one second, in which each line it sends is
//! refused `shutting-down`; after that it shuts down the connection's
//! read half, so an idle client cannot keep the daemon alive: the
//! connection answers the jobs it accepted and ends.
//!
//! [`SimWorkspace`]: radio_sim::SimWorkspace
//! [`ClassifierWorkspace`]: radio_classifier::ClassifierWorkspace
//! [`ElectError::RoundLimit`]: crate::api::ElectError::RoundLimit

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::ScopedJoinHandle;
use std::time::Duration;

use radio_classifier::{ClassifierWorkspace, ClassifySummary};
use radio_graph::{Configuration, Draw};
use radio_sim::{ModelKind, RunOpts, SimWorkspace};
use radio_util::json::{Object, Writer};
use radio_util::rng::{derive, DEFAULT_ROOT_SEED};

use crate::api::{ElectError, ElectionReport, Infeasible};
use crate::cache::{CacheConfig, CacheLookup, ScheduleCache, DEFAULT_CAPACITY};
use crate::campaign::{
    cell_row, run_cell, BatchConfig, CampaignSpec, CampaignWorkspace, FamilySpec, Phase,
    TagStrategy,
};
use crate::row::CampaignRow;

/// Supervisor knobs for a serve session or daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Jobs run at once, daemon-wide (clamped to ≥ 1): the daemon keeps
    /// this many warm [`CampaignWorkspace`]s, and a job runs on one it
    /// borrows. The CLI defaults this to
    /// [`radio_sim::parallel::default_threads`].
    pub threads: usize,
    /// Jobs one connection has read and not yet answered (clamped to
    /// ≥ 1): a connection runs on [`ServeOptions::lanes`] lanes and reads
    /// its next line only when one is free — backpressure instead of
    /// unbounded buffering.
    pub queue: usize,
    /// Schedule-cache policy for the process-wide cache every worker
    /// shares ([`CacheConfig::disabled`] runs uncached). The default is a
    /// [`DEFAULT_CAPACITY`]-entry cache, not [`CacheConfig::default`]: a
    /// daemon's jobs repeat configurations, so its compiles hit.
    pub cache: CacheConfig,
}

impl ServeOptions {
    /// Lanes per connection, `min(threads, queue)` with both clamped to
    /// ≥ 1: the threads that read, run and answer one connection's jobs.
    pub fn lanes(&self) -> usize {
        self.threads.max(1).min(self.queue.max(1))
    }
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 4,
            queue: 16,
            cache: CacheConfig::with_capacity(DEFAULT_CAPACITY),
        }
    }
}

/// What one connection did, reported when it ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionSummary {
    /// Reply lines produced (jobs executed + parse-error replies + the
    /// shutdown ack).
    pub jobs: u64,
    /// Replies actually written to the client.
    pub answered: u64,
    /// Replies discarded because the client was gone (write failure) —
    /// per-connection failures, never process exits.
    pub dropped: u64,
    /// The session ended on `{"op":"shutdown"}` (as opposed to EOF).
    pub shutdown: bool,
}

// ---------------------------------------------------------------------------
// Request grammar
// ---------------------------------------------------------------------------

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen correlation id (echoed in the reply; defaults to the
    /// connection-local sequence number when absent).
    pub id: Option<u64>,
    /// The work itself.
    pub kind: JobKind,
}

/// The operation a request names.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Full election pipeline on one configuration.
    Elect(OneShotJob),
    /// Decision phase only on one configuration.
    Classify(OneShotJob),
    /// One campaign grid cell (`reps` positional runs, one row back).
    CampaignCell(CellJob),
    /// Stop intake, answer every accepted job, ack last.
    Shutdown,
}

/// Where an `elect`/`classify` job's configuration comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigSource {
    /// A `radio-graph` text-format document sent inline.
    Inline(String),
    /// Drawn from a scenario spec (the CLI's `elect --family`).
    Drawn {
        /// Graph family.
        family: FamilySpec,
        /// Node count.
        n: usize,
        /// Tag span σ.
        span: u64,
        /// Tag-placement strategy.
        tags: TagStrategy,
        /// Root seed of the draw.
        seed: u64,
    },
}

/// An `elect` or `classify` request.
#[derive(Debug, Clone, PartialEq)]
pub struct OneShotJob {
    /// The configuration to run on.
    pub source: ConfigSource,
    /// Channel model (elect only; always the default for classify).
    pub model: ModelKind,
    /// Per-job deadline: round budget override (elect only).
    pub max_rounds: Option<u64>,
}

/// A `campaign-cell` request: one grid cell, `reps` positional runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CellJob {
    /// Which pipeline stage each run executes.
    pub phase: Phase,
    /// Graph family (required — positional seeding needs the spec).
    pub family: FamilySpec,
    /// Node count.
    pub n: usize,
    /// Tag span σ.
    pub span: u64,
    /// Tag-placement strategy.
    pub tags: TagStrategy,
    /// Channel model (elect phase only).
    pub model: ModelKind,
    /// Runs in the cell.
    pub reps: usize,
    /// Campaign root seed.
    pub seed: u64,
    /// Per-job deadline: round budget override.
    pub max_rounds: Option<u64>,
}

/// The run options a job's `max_rounds` names.
fn run_opts(max_rounds: Option<u64>) -> RunOpts {
    max_rounds.map_or_else(RunOpts::default, RunOpts::with_max_rounds)
}

/// A request that failed to parse — carries the `id` when one was
/// readable, so even a rejected job's error reply correlates.
#[derive(Debug, Clone, PartialEq)]
pub struct JobParseError {
    /// The request's `id` field, when the line parsed far enough to have
    /// one.
    pub id: Option<u64>,
    /// What was wrong.
    pub message: String,
}

impl JobRequest {
    /// Parses one request line. Errors carry the request's `id` whenever
    /// the line parsed far enough to expose one, so the error reply still
    /// correlates.
    pub fn parse(line: &str) -> Result<JobRequest, JobParseError> {
        let mut fields =
            Object::parse(line).map_err(|message| JobParseError { id: None, message })?;
        let id = fields
            .take_u64("id")
            .map_err(|message| JobParseError { id: None, message })?;
        let fail = |message: String| JobParseError { id, message };
        let op = fields
            .take_str("op")
            .map_err(&fail)?
            .ok_or_else(|| fail("every job needs an \"op\" field".to_string()))?;
        let kind = match op.as_str() {
            "elect" => JobKind::Elect(OneShotJob::from_fields(&mut fields, true).map_err(&fail)?),
            "classify" => {
                JobKind::Classify(OneShotJob::from_fields(&mut fields, false).map_err(&fail)?)
            }
            "campaign-cell" => {
                JobKind::CampaignCell(CellJob::from_fields(&mut fields).map_err(&fail)?)
            }
            "shutdown" => JobKind::Shutdown,
            other => {
                return Err(fail(format!(
                    "unknown op \"{other}\" (expected elect, classify, campaign-cell, or \
                     shutdown)"
                )))
            }
        };
        if let Some(name) = fields.leftover() {
            return Err(fail(format!("\"{name}\" is not a field of \"{op}\" jobs")));
        }
        Ok(JobRequest { id, kind })
    }
}

impl OneShotJob {
    fn from_fields(fields: &mut Object, is_elect: bool) -> Result<OneShotJob, String> {
        let source = ConfigSource::from_fields(fields)?;
        let (model, max_rounds) = if is_elect {
            (
                parse_model(fields.take_str("model")?)?,
                fields.take_u64("max_rounds")?,
            )
        } else {
            for knob in ["model", "max_rounds"] {
                if fields.take(knob).is_some() {
                    return Err(format!(
                        "\"{knob}\" does not apply to \"classify\" jobs (no simulation runs)"
                    ));
                }
            }
            (ModelKind::default(), None)
        };
        Ok(OneShotJob {
            source,
            model,
            max_rounds,
        })
    }

    /// Builds the configuration — inline text or the `elect --family`
    /// derivation streams.
    pub fn configuration(&self) -> Result<Configuration, String> {
        self.source.configuration()
    }
}

impl ConfigSource {
    /// Builds the configuration: parses inline text, or builds the
    /// [`Draw`] of a drawn source, whose graph and tags come from the
    /// `derive(seed, "graph")` / `derive(seed, "tags")` streams — the one
    /// builder behind served jobs and every CLI subcommand that reads a
    /// configuration.
    pub fn configuration(&self) -> Result<Configuration, String> {
        match self {
            ConfigSource::Inline(text) => {
                radio_graph::io::from_text(text).map_err(|e| format!("invalid configuration: {e}"))
            }
            ConfigSource::Drawn { .. } => self
                .draw()
                .expect("a drawn source has a draw")
                .configuration()
                .map_err(|e| e.to_string()),
        }
    }

    /// A drawn source's [`Draw`]; `None` for an inline source.
    fn draw(&self) -> Option<Draw> {
        match *self {
            ConfigSource::Inline(_) => None,
            ConfigSource::Drawn {
                family,
                n,
                span,
                tags,
                seed,
            } => Some(Draw {
                family,
                n,
                span,
                tags,
                graph_seed: derive(seed, "graph"),
                tag_seed: derive(seed, "tags"),
            }),
        }
    }

    fn from_fields(fields: &mut Object) -> Result<ConfigSource, String> {
        if let Some(text) = fields.take_str("config")? {
            for drawn in ["family", "n", "span", "tags", "seed"] {
                if fields.take(drawn).is_some() {
                    return Err(format!(
                        "\"config\" is self-contained — it cannot combine with \"{drawn}\""
                    ));
                }
            }
            return Ok(ConfigSource::Inline(text));
        }
        let family = fields
            .take_str("family")?
            .ok_or("jobs need a \"family\" spec (or an inline \"config\")")?
            .parse::<FamilySpec>()?;
        Ok(ConfigSource::Drawn {
            family,
            n: match fields.take_u64("n")? {
                Some(n) => n as usize,
                // A size-pinned spec (`grid:10x10`) names its own node count.
                None => family.default_size(),
            },
            span: fields.take_u64("span")?.unwrap_or(4),
            tags: parse_tags(fields.take_str("tags")?)?,
            seed: fields.take_u64("seed")?.unwrap_or(DEFAULT_ROOT_SEED),
        })
    }
}

impl CellJob {
    fn from_fields(fields: &mut Object) -> Result<CellJob, String> {
        if fields.take("config").is_some() {
            return Err(
                "\"campaign-cell\" draws its configurations positionally from the spec — \
                 inline \"config\" does not apply"
                    .to_string(),
            );
        }
        let phase = match fields.take_str("phase")? {
            Some(p) => p.parse::<Phase>()?,
            None => Phase::Elect,
        };
        let model_field = fields.take_str("model")?;
        if phase == Phase::Classify && model_field.is_some() {
            return Err(
                "\"model\" does not apply to classify-phase cells (no simulation runs)".to_string(),
            );
        }
        Ok(CellJob {
            phase,
            family: fields
                .take_str("family")?
                .ok_or("\"campaign-cell\" jobs need a \"family\" spec")?
                .parse::<FamilySpec>()?,
            n: fields.take_u64("n")?.unwrap_or(8) as usize,
            span: fields.take_u64("span")?.unwrap_or(4),
            tags: parse_tags(fields.take_str("tags")?)?,
            model: parse_model(model_field)?,
            reps: fields.take_u64("reps")?.unwrap_or(1) as usize,
            seed: fields.take_u64("seed")?.unwrap_or(DEFAULT_ROOT_SEED),
            max_rounds: fields.take_u64("max_rounds")?,
        })
    }

    /// The single-cell [`CampaignSpec`] this job names. Runs route
    /// through the worker's shared cache when one is attached and dedupe
    /// exactly as a one-shot campaign does; neither changes anything but
    /// the measured tail.
    pub fn spec(&self, cached: bool) -> CampaignSpec {
        CampaignSpec {
            phase: self.phase,
            families: vec![self.family],
            tags: vec![self.tags],
            sizes: vec![self.n],
            spans: vec![self.span],
            models: vec![self.model],
            reps: self.reps,
            seed: self.seed,
            opts: run_opts(self.max_rounds),
            cache: if cached {
                CacheConfig::with_capacity(DEFAULT_CAPACITY)
            } else {
                CacheConfig::disabled()
            },
            batch: BatchConfig::default(),
        }
    }
}

fn parse_model(value: Option<String>) -> Result<ModelKind, String> {
    match value {
        Some(m) => m.parse(),
        None => Ok(ModelKind::default()),
    }
}

fn parse_tags(value: Option<String>) -> Result<TagStrategy, String> {
    match value {
        Some(t) => t.parse(),
        None => Ok(TagStrategy::Uniform),
    }
}

// ---------------------------------------------------------------------------
// Reply rendering
// ---------------------------------------------------------------------------

fn ok_reply(id: u64, op: &str) -> Writer {
    Writer::default()
        .bool("ok", true)
        .u64("id", id)
        .str("op", op)
}

fn error_reply(id: u64, code: &str, message: &str) -> String {
    let head = Writer::default().bool("ok", false).u64("id", id);
    head.str("error", code).str("message", message).finish()
}

fn lookup_name(lookup: Option<CacheLookup>) -> &'static str {
    match lookup {
        None => "off",
        Some(CacheLookup::ExactHit) => "exact-hit",
        Some(CacheLookup::Miss) => "miss",
    }
}

// ---------------------------------------------------------------------------
// Job execution (worker side)
// ---------------------------------------------------------------------------

/// Appends the per-job cache verdict and the shared cache's cumulative
/// counters — the reply-visible form of the campaign rows' cache columns.
fn with_cache_fields(
    mut reply: Writer,
    ws: &CampaignWorkspace,
    lookup: Option<CacheLookup>,
) -> Writer {
    reply = reply.str("cache", lookup_name(lookup));
    if let Some(cache) = &ws.cache {
        let stats = cache.stats();
        reply = reply
            .u64("cache_hits", stats.exact_hits)
            .u64("cache_misses", stats.misses);
    }
    reply
}

/// Renders one job's result as its reply line.
fn execute_job(ws: &mut CampaignWorkspace, id: u64, job: &JobKind) -> String {
    let reply = match job {
        JobKind::Elect(job) => elect(ws, job, &mut |_| {}).map(|elected| {
            let reply = match elected.outcome {
                Ok(report) => ok_reply(id, "elect")
                    .bool("feasible", true)
                    .str("model", &job.model.to_string())
                    .u64("leader", u64::from(report.leader))
                    .u64("phases", report.phases as u64)
                    .u64("rounds_local", report.rounds_local)
                    .u64("completion_round", report.completion_round)
                    .u64("transmissions", report.transmissions)
                    .u64("rounds_stepped", report.rounds_stepped)
                    .u64("rounds_leapt", report.rounds_leapt),
                Err(infeasible) => ok_reply(id, "elect")
                    .bool("feasible", false)
                    .u64("iterations", infeasible.iterations as u64),
            };
            with_cache_fields(reply, ws, elected.lookup)
        }),
        JobKind::Classify(job) => classify(ws, job).map(|(_, summary)| {
            let leader = summary.leader.map_or("null".to_string(), |l| l.to_string());
            ok_reply(id, "classify")
                .bool("feasible", summary.feasible)
                .u64("iterations", summary.iterations as u64)
                .u64("classes", u64::from(summary.num_classes))
                .raw("leader", &leader)
                .u64("relabels", summary.relabels)
        }),
        JobKind::CampaignCell(job) => campaign_cell(ws, job).map(|row| {
            ok_reply(id, "campaign-cell")
                .u64("reps", job.reps as u64)
                .raw("row", &row.to_jsonl())
        }),
        // Shutdown is answered by the intake; a job never carries it.
        JobKind::Shutdown => return error_reply(id, "internal", "shutdown reached a worker"),
    };
    match reply {
        Ok(reply) => reply.finish(),
        Err(e) => error_reply(id, e.code(), &e.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Executors: one per action, shared by the workers and the one-shot CLI
// ---------------------------------------------------------------------------

/// Why a job produced no result: served as [`JobError::code`], and the
/// CLI's exit 2 (bad request) or 1 (failed election).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The configuration does not build, or the grid does not validate.
    BadRequest(String),
    /// The election ran and failed.
    Election(ElectError),
}

impl JobError {
    /// The reply's `error` code: `bad-request`, `deadline` (the round
    /// budget ran out) or `election` (a contract or prediction violation).
    pub fn code(&self) -> &'static str {
        match self {
            JobError::BadRequest(_) => "bad-request",
            JobError::Election(ElectError::RoundLimit { .. }) => "deadline",
            JobError::Election(_) => "election",
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::BadRequest(msg) => f.write_str(msg),
            JobError::Election(e) => e.fmt(f),
        }
    }
}

/// A stage boundary of an [`elect`] job, handed to the caller's probe in
/// order. Workers ignore them; the one-shot CLI reports memory at each.
pub enum Stage<'a> {
    /// The configuration is in hand: built, or (a drawn job on a cached
    /// worker) handed back by the cache with its compiled election.
    Built(&'a Configuration),
    /// A feasible election is compiled and simulates next; the job is done
    /// with the classifier workspace (the CLI frees its buffers here).
    Compiled(&'a mut ClassifierWorkspace),
    /// The simulation has run, whatever its outcome.
    Simulated(&'a SimWorkspace),
}

/// What an [`elect`] job produced.
#[derive(Debug)]
pub struct Elected {
    /// The configuration the job ran on (shared with the cache entry
    /// when the cache held its draw).
    pub config: Arc<Configuration>,
    /// The validated report, or why the configuration admits no election.
    pub outcome: Result<ElectionReport, Infeasible>,
    /// This job's schedule-cache outcome (`None` when `ws` has no cache).
    pub lookup: Option<CacheLookup>,
}

/// Runs an `elect` job: builds its configuration, compiles it through `ws`
/// (and its cache, when attached) and simulates a feasible one, calling
/// `probe` at each [`Stage`]. An infeasible configuration is a result.
/// With a cache attached, a drawn job is looked up by its draw
/// ([`ScheduleCache::draw_in`]), so a draw the cache holds is neither
/// built nor classified; an inline job is looked up by its configuration's
/// fingerprint.
pub fn elect(
    ws: &mut CampaignWorkspace,
    job: &OneShotJob,
    probe: &mut dyn FnMut(Stage<'_>),
) -> Result<Elected, JobError> {
    let (config, compiled, lookup) = match (&ws.cache, job.source.draw()) {
        (Some(cache), Some(draw)) => {
            let (config, compiled, lookup) = cache
                .draw_in(&mut ws.classifier, &draw)
                .map_err(|e| JobError::BadRequest(e.to_string()))?;
            probe(Stage::Built(&config));
            (config, compiled, Some(lookup))
        }
        _ => {
            let config = Arc::new(job.configuration().map_err(JobError::BadRequest)?);
            probe(Stage::Built(&config));
            let (compiled, lookup) = ws.compile(&config);
            (config, compiled, lookup)
        }
    };
    let outcome = if compiled.feasible() {
        probe(Stage::Compiled(&mut ws.classifier));
        let opts = run_opts(job.max_rounds);
        let run = compiled.run_in(&mut ws.sim, &config, job.model, opts);
        probe(Stage::Simulated(&ws.sim));
        Ok(run.map_err(JobError::Election)?)
    } else {
        let iterations = compiled.summary().iterations;
        Err(Infeasible { iterations })
    };
    Ok(Elected {
        config,
        outcome,
        lookup,
    })
}

/// Runs a `classify` job, returning the configuration with its summary.
/// With a cache attached, a drawn job is looked up by its draw
/// ([`ScheduleCache::get_draw`]): a hit hands back the entry's
/// configuration and the summary its compile recorded, and builds and
/// classifies nothing. Otherwise (a miss, an inline job, no cache) the job
/// builds its configuration and summarizes it through `ws`'s classifier
/// workspace, and stores nothing: compiling would cost more than the
/// summary. The two summaries are equal, since a compile runs the same
/// classifier with a sink that only records.
pub fn classify(
    ws: &mut CampaignWorkspace,
    job: &OneShotJob,
) -> Result<(Arc<Configuration>, ClassifySummary), JobError> {
    if let (Some(cache), Some(draw)) = (&ws.cache, job.source.draw()) {
        if let Some((config, compiled)) = cache.get_draw(&draw) {
            return Ok((config, compiled.summary()));
        }
    }
    let config = job.configuration().map_err(JobError::BadRequest)?;
    let summary = ws.classifier.summarize_in(&config);
    Ok((Arc::new(config), summary))
}

/// Runs a `campaign-cell` job: validates its one-cell spec and folds the
/// cell's runs through `ws` into its row.
pub fn campaign_cell(ws: &mut CampaignWorkspace, job: &CellJob) -> Result<CampaignRow, JobError> {
    let spec = job.spec(ws.cache.is_some());
    spec.validate().map_err(JobError::BadRequest)?;
    let cells = spec.cells();
    debug_assert_eq!(cells.len(), 1, "single-value axes name one cell");
    let agg = run_cell(ws, &spec, &cells[0]);
    Ok(cell_row(spec.phase, &cells[0], &agg))
}

// ---------------------------------------------------------------------------
// Supervisor: warm workspaces, connection lanes
// ---------------------------------------------------------------------------

/// Locks `mutex`, reading through poison: no lock here is held across a
/// job, so a poisoned lock still guards consistent state.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// The daemon's warm [`CampaignWorkspace`]s, all wired to one shared
/// cache: a lane borrows one per job, so at most [`ServeOptions::threads`]
/// jobs run at once, daemon-wide.
struct Workers {
    cache: Option<Arc<ScheduleCache>>,
    pool: Mutex<Pool>,
    /// Signalled when a workspace comes back while a lane waits for one.
    freed: Condvar,
}

struct Pool {
    idle: Vec<CampaignWorkspace>,
    waiting: usize,
}

impl Workers {
    fn new(opts: &ServeOptions) -> Workers {
        let cache = make_cache(&opts.cache);
        let idle = (0..opts.threads.max(1))
            .map(|_| CampaignWorkspace::with_cache(cache.clone()))
            .collect();
        Workers {
            cache,
            pool: Mutex::new(Pool { idle, waiting: 0 }),
            freed: Condvar::new(),
        }
    }

    /// Runs one job on a borrowed workspace and renders its reply. A
    /// panicking job is answered with an `internal` error and its
    /// workspace is rebuilt — the daemon survives.
    fn run(&self, id: u64, job: &JobKind) -> String {
        let mut ws = self.borrow();
        let line = match catch_unwind(AssertUnwindSafe(|| execute_job(&mut ws, id, job))) {
            Ok(line) => line,
            Err(payload) => {
                // The workspace may be mid-mutation; discard it rather
                // than trust its invariants.
                ws = CampaignWorkspace::with_cache(self.cache.clone());
                error_reply(
                    id,
                    "internal",
                    &format!(
                        "job panicked ({}); worker workspace rebuilt",
                        panic_message(payload.as_ref())
                    ),
                )
            }
        };
        self.give_back(ws);
        line
    }

    fn borrow(&self) -> CampaignWorkspace {
        let mut pool = lock(&self.pool);
        loop {
            if let Some(ws) = pool.idle.pop() {
                return ws;
            }
            pool.waiting += 1;
            pool = self
                .freed
                .wait(pool)
                .unwrap_or_else(PoisonError::into_inner);
            pool.waiting -= 1;
        }
    }

    fn give_back(&self, ws: CampaignWorkspace) {
        let mut pool = lock(&self.pool);
        pool.idle.push(ws);
        // An uncontended job wakes nobody.
        if pool.waiting > 0 {
            drop(pool);
            self.freed.notify_one();
        }
    }
}

/// What [`Intake::take`] hands a lane.
enum Work {
    /// A job to run, with its effective correlation id.
    Run(u64, JobKind),
    /// A reply the intake wrote itself: a `bad-request`, a
    /// `shutting-down` refusal, or the shutdown ack.
    Reply(String),
}

/// One connection's request reader — the daemon's one admission point:
/// every line a connection sends is numbered and answered here or run.
struct Intake<R> {
    input: R,
    /// The current line's bytes, reused across lines.
    line: Vec<u8>,
    /// The next line's connection-local sequence number.
    seq: u64,
    /// Cleared at EOF, a read error, the shutdown line or a refusal.
    open: bool,
    saw_shutdown: bool,
}

impl<R: BufRead> Intake<R> {
    fn new(input: R) -> Intake<R> {
        Intake {
            input,
            line: Vec::new(),
            seq: 0,
            open: true,
            saw_shutdown: false,
        }
    }

    /// Reads the next non-blank line and numbers it: a job to run, or a
    /// reply the intake answers itself. A line that is not UTF-8 or does
    /// not parse is a `bad-request`; once `shutdown` is raised (by this
    /// connection or another), the next line is refused with
    /// `shutting-down` and intake stops. `{"op":"shutdown"}` raises the
    /// flag, is acked with the highest sequence number — so the in-order
    /// replies emit it only after every earlier job — and stops intake.
    /// `None` once intake has stopped.
    fn take(&mut self, shutdown: &AtomicBool) -> Option<(u64, Work)> {
        while self.open {
            self.line.clear();
            if !matches!(self.input.read_until(b'\n', &mut self.line), Ok(n) if n > 0) {
                self.open = false; // EOF, or the client is gone
                break;
            }
            // Strip the line ending as `BufRead::lines` does.
            if self.line.last() == Some(&b'\n') {
                self.line.pop();
                if self.line.last() == Some(&b'\r') {
                    self.line.pop();
                }
            }
            let text = std::str::from_utf8(&self.line);
            if text.is_ok_and(|text| text.trim().is_empty()) {
                continue;
            }
            let seq = self.seq;
            self.seq += 1;
            let request = text
                .map_err(|e| JobParseError {
                    id: None,
                    message: format!(
                        "request line is not UTF-8 (invalid byte at offset {})",
                        e.valid_up_to()
                    ),
                })
                .and_then(JobRequest::parse);
            if shutdown.load(Ordering::SeqCst) {
                // Another connection shut the daemon down; refuse new work
                // (structured, not a dropped connection) and stop reading.
                self.open = false;
                let id = match &request {
                    Ok(request) => request.id,
                    Err(e) => e.id,
                };
                let refusal = "the daemon is draining; job refused";
                return Some((
                    seq,
                    Work::Reply(error_reply(id.unwrap_or(seq), "shutting-down", refusal)),
                ));
            }
            let work = match request {
                Ok(JobRequest {
                    id,
                    kind: JobKind::Shutdown,
                }) => {
                    self.saw_shutdown = true;
                    self.open = false;
                    shutdown.store(true, Ordering::SeqCst);
                    let ack = ok_reply(id.unwrap_or(seq), "shutdown").u64("jobs", seq);
                    Work::Reply(ack.finish())
                }
                Ok(JobRequest { id, kind }) => Work::Run(id.unwrap_or(seq), kind),
                Err(e) => Work::Reply(error_reply(e.id.unwrap_or(seq), "bad-request", &e.message)),
            };
            return Some((seq, work));
        }
        None
    }
}

/// One connection's reply stream: reorders replies into submission order
/// and writes one line each. A write failure marks the client dead; later
/// replies are counted as drops and never written.
struct Replies<W> {
    output: W,
    /// Replies that finished ahead of an earlier one, keyed by sequence
    /// number; fewer than the connection's lanes.
    pending: BTreeMap<u64, String>,
    /// The sequence number the client is owed next.
    next: u64,
    dead: bool,
    answered: u64,
    dropped: u64,
}

impl<W: Write> Replies<W> {
    fn new(output: W) -> Replies<W> {
        Replies {
            output,
            pending: BTreeMap::new(),
            next: 0,
            dead: false,
            answered: 0,
            dropped: 0,
        }
    }

    /// Takes reply `seq`, and writes it and every buffered reply after it
    /// once no earlier reply is missing.
    fn deliver(&mut self, seq: u64, mut line: String) {
        if seq != self.next {
            self.pending.insert(seq, line);
            return;
        }
        loop {
            self.next += 1;
            self.write(line);
            match self.pending.remove(&self.next) {
                Some(later) => line = later,
                None => return,
            }
        }
    }

    fn write(&mut self, mut line: String) {
        if !self.dead {
            // Reply and newline go out in one write: as two writes on a
            // TCP stream, Nagle's algorithm holds the newline back until
            // the client's delayed ACK, ~40 ms per reply.
            line.push('\n');
            let wrote = self
                .output
                .write_all(line.as_bytes())
                .and_then(|()| self.output.flush());
            match wrote {
                Ok(()) => {
                    self.answered += 1;
                    return;
                }
                Err(_) => self.dead = true, // broken pipe or peer gone
            }
        }
        self.dropped += 1;
    }
}

/// One lane of a connection: takes the next line under the intake lock,
/// runs it on a borrowed workspace holding no connection lock, and
/// delivers the reply under the replies lock — never two locks at once.
fn lane<R: BufRead, W: Write>(
    intake: &Mutex<Intake<R>>,
    replies: &Mutex<Replies<W>>,
    workers: &Workers,
    shutdown: &AtomicBool,
) {
    loop {
        let Some((seq, work)) = lock(intake).take(shutdown) else {
            return;
        };
        let line = match work {
            Work::Run(id, job) => workers.run(id, &job),
            Work::Reply(line) => line,
        };
        lock(replies).deliver(seq, line);
    }
}

/// Serves one connection on `lanes` lanes: lane 0 on the calling thread,
/// the others on scoped threads. Returns once intake has stopped and
/// every accepted job is answered.
fn serve_connection<R, W>(
    input: R,
    output: W,
    workers: &Workers,
    lanes: usize,
    shutdown: &AtomicBool,
) -> SessionSummary
where
    R: BufRead + Send,
    W: Write + Send,
{
    let intake = Mutex::new(Intake::new(input));
    let replies = Mutex::new(Replies::new(output));
    std::thread::scope(|scope| {
        for _ in 1..lanes {
            scope.spawn(|| lane(&intake, &replies, workers, shutdown));
        }
        lane(&intake, &replies, workers, shutdown);
    });
    let intake = intake.into_inner().unwrap_or_else(PoisonError::into_inner);
    let replies = replies.into_inner().unwrap_or_else(PoisonError::into_inner);
    SessionSummary {
        jobs: intake.seq,
        answered: replies.answered,
        dropped: replies.dropped,
        shutdown: intake.saw_shutdown,
    }
}

fn make_cache(config: &CacheConfig) -> Option<Arc<ScheduleCache>> {
    config
        .enabled
        .then(|| Arc::new(ScheduleCache::new(config.capacity.max(1))))
}

/// Serves one connection's worth of jobs from `input` to `output` — the
/// `--stdin-stdout` mode, and the library surface the end-to-end tests
/// drive over in-memory streams. Builds its own [`ServeOptions::threads`]
/// warm [`CampaignWorkspace`]s on one shared [`ScheduleCache`], serves the
/// connection on `min(threads, queue)` lanes (the calling thread is the
/// first; with one lane no thread is spawned), reads until EOF or
/// `{"op":"shutdown"}`, answers every accepted job, and writes replies in
/// submission order before returning.
pub fn serve_session<R, W>(input: R, output: &mut W, opts: &ServeOptions) -> SessionSummary
where
    R: BufRead + Send,
    W: Write + Send,
{
    let workers = Workers::new(opts);
    serve_connection(
        input,
        output,
        &workers,
        opts.lanes(),
        &AtomicBool::new(false),
    )
}

// ---------------------------------------------------------------------------
// Socket daemon (TCP / Unix)
// ---------------------------------------------------------------------------

/// A connection stream that can hand out an independently-owned read half
/// (`try_clone` on both socket types).
pub trait Splittable {
    /// The read half.
    type Reader: Read + Send;
    /// Clones out the read half.
    fn split(&self) -> std::io::Result<Self::Reader>;
    /// Shuts down the reading side of the connection `reader` was split
    /// from: a read blocked on any of its halves, and every later one,
    /// returns EOF.
    fn shutdown_read(reader: &Self::Reader) -> std::io::Result<()>;
}

impl Splittable for std::net::TcpStream {
    type Reader = std::net::TcpStream;
    fn split(&self) -> std::io::Result<std::net::TcpStream> {
        self.try_clone()
    }
    fn shutdown_read(reader: &std::net::TcpStream) -> std::io::Result<()> {
        reader.shutdown(std::net::Shutdown::Read)
    }
}

#[cfg(unix)]
impl Splittable for std::os::unix::net::UnixStream {
    type Reader = std::os::unix::net::UnixStream;
    fn split(&self) -> std::io::Result<std::os::unix::net::UnixStream> {
        self.try_clone()
    }
    fn shutdown_read(reader: &std::os::unix::net::UnixStream) -> std::io::Result<()> {
        reader.shutdown(std::net::Shutdown::Read)
    }
}

enum Accept<S> {
    Conn(S),
    Idle,
    Fatal(std::io::Error),
}

/// Serves a pre-bound TCP listener until a client sends
/// `{"op":"shutdown"}`: one set of warm workspaces (and one shared cache)
/// for the whole process, each connection served on its own lanes.
/// Returns once every connection has ended: a connection still open one
/// second after the shutdown has its read half shut down.
/// Binding is the caller's job so tests can bind port 0 and
/// the CLI can report the address before handing over.
pub fn serve_tcp(listener: std::net::TcpListener, opts: &ServeOptions) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    serve_listener(opts, || match listener.accept() {
        Ok((stream, _)) => {
            // Connections block on reads; only the accept loop polls.
            let _ = stream.set_nonblocking(false);
            Accept::Conn(stream)
        }
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Accept::Idle,
        Err(e) => Accept::Fatal(e),
    })
}

/// [`serve_tcp`] over a Unix-domain socket listener.
#[cfg(unix)]
pub fn serve_unix(
    listener: std::os::unix::net::UnixListener,
    opts: &ServeOptions,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    serve_listener(opts, || match listener.accept() {
        Ok((stream, _)) => {
            let _ = stream.set_nonblocking(false);
            Accept::Conn(stream)
        }
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Accept::Idle,
        Err(e) => Accept::Fatal(e),
    })
}

/// How long connections still open at shutdown may keep sending lines —
/// each refused `shutting-down` — before their read halves are shut down:
/// `GRACE_POLLS` checks `GRACE_POLL` apart, about one second.
const GRACE_POLLS: u32 = 200;
const GRACE_POLL: Duration = Duration::from_millis(5);

fn serve_listener<S, A>(opts: &ServeOptions, mut accept: A) -> std::io::Result<()>
where
    S: Splittable + Write + Send,
    A: FnMut() -> Accept<S>,
{
    let workers = Workers::new(opts);
    let lanes = opts.lanes();
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (workers, shutdown) = (&workers, &shutdown);
        // The connections not yet known to have ended: a read half to shut
        // down, and the thread serving the connection.
        let mut open: Vec<(S::Reader, ScopedJoinHandle<'_, SessionSummary>)> = Vec::new();
        while !shutdown.load(Ordering::SeqCst) {
            open.retain(|(_, conn)| !conn.is_finished());
            match accept() {
                Accept::Conn(stream) => {
                    let (Ok(read_half), Ok(closer)) = (stream.split(), stream.split()) else {
                        continue;
                    };
                    let conn = scope.spawn(move || {
                        let input = BufReader::new(read_half);
                        serve_connection(input, stream, workers, lanes, shutdown)
                    });
                    open.push((closer, conn));
                }
                Accept::Idle => std::thread::sleep(Duration::from_millis(20)),
                Accept::Fatal(e) => return Err(e),
            }
        }
        // The connection that shut down stops reading and ends once its
        // jobs are answered. Every other one gets the grace period to end
        // on its own; one still open after it has its read half shut down,
        // so its lanes see EOF, answer the jobs they accepted, and end.
        // Scope exit joins them all.
        for _ in 0..GRACE_POLLS {
            if open.iter().all(|(_, conn)| conn.is_finished()) {
                break;
            }
            std::thread::sleep(GRACE_POLL);
        }
        for (closer, conn) in &open {
            if !conn.is_finished() {
                let _ = S::shutdown_read(closer);
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn parse_ok(line: &str) -> JobRequest {
        JobRequest::parse(line).expect(line)
    }

    fn parse_err(line: &str) -> JobParseError {
        JobRequest::parse(line).expect_err(line)
    }

    #[test]
    fn parses_the_job_grammar() {
        let req = parse_ok(
            r#"{"op":"elect","id":7,"family":"path","n":6,"span":3,"tags":"uniform","seed":9,"model":"beep","max_rounds":100}"#,
        );
        assert_eq!(req.id, Some(7));
        let JobKind::Elect(job) = req.kind else {
            panic!("not elect")
        };
        assert_eq!(job.model, ModelKind::Beeping);
        assert_eq!(job.max_rounds, Some(100));
        assert_eq!(
            job.source,
            ConfigSource::Drawn {
                family: FamilySpec::Path,
                n: 6,
                span: 3,
                tags: TagStrategy::Uniform,
                seed: 9
            }
        );

        let req = parse_ok(r#"{"op":"classify","family":"star"}"#);
        assert_eq!(req.id, None);
        assert!(matches!(req.kind, JobKind::Classify(_)));

        // Without "n", a size-pinned spec builds at its own node count.
        for (family, n) in [("star", 8), ("grid:10x10", 100)] {
            let line = format!(r#"{{"op":"elect","family":"{family}"}}"#);
            let JobKind::Elect(job) = parse_ok(&line).kind else {
                panic!("not elect")
            };
            assert!(
                matches!(job.source, ConfigSource::Drawn { n: drawn, .. } if drawn == n),
                "{line}"
            );
        }

        let req = parse_ok(r#"{"op":"campaign-cell","family":"path","reps":3,"phase":"classify"}"#);
        let JobKind::CampaignCell(cell) = req.kind else {
            panic!("not a cell")
        };
        assert_eq!(cell.phase, Phase::Classify);
        assert_eq!(cell.reps, 3);

        assert!(matches!(
            parse_ok(r#"{"op":"shutdown"}"#).kind,
            JobKind::Shutdown
        ));
    }

    #[test]
    fn inline_configs_parse_with_escapes() {
        // `json.dumps` writes a character outside the BMP as a surrogate pair.
        for emoji in ["", r#"# \ud83d\ude00 sensor field\n"#] {
            let line = format!(
                r#"{{"op":"classify","config":"{emoji}config 2 1\ntags 0 5\nedge 0 1\n"}}"#
            );
            let req = parse_ok(&line);
            let JobKind::Classify(job) = req.kind else {
                panic!("not classify")
            };
            let config = job.configuration().expect("valid inline config");
            assert_eq!(config.size(), 2);
        }
    }

    #[test]
    fn structured_errors_name_the_problem() {
        assert!(parse_err("not json").message.contains("expected `{`"));
        assert!(parse_err(r#"{"id":1}"#).message.contains("\"op\""));
        let e = parse_err(r#"{"op":"frobnicate","id":4}"#);
        assert_eq!(e.id, Some(4), "id survives an unknown op");
        assert!(e.message.contains("unknown op"));
        let e = parse_err(r#"{"op":"elect","id":5,"family":"path","bogus":1}"#);
        assert_eq!(e.id, Some(5));
        assert!(e.message.contains("\"bogus\""));
        // The retired stepping-mode knob is an unknown field like any other.
        for (line, op) in [
            (r#"{"op":"elect","family":"path","no_leap":true}"#, "elect"),
            (
                r#"{"op":"campaign-cell","family":"path","no_leap":true}"#,
                "campaign-cell",
            ),
        ] {
            assert_eq!(
                parse_err(line).message,
                format!("\"no_leap\" is not a field of \"{op}\" jobs"),
                "{line}"
            );
        }
        assert!(parse_err(r#"{"op":"elect","family":"path","n":-3}"#)
            .message
            .contains("unsigned"));
        // A type error keeps the request's id; a lone surrogate and `\u+06f` are malformed.
        let e = parse_err(r#"{"op":"elect","id":6,"family":"path","n":1.5}"#);
        assert_eq!(e.id, Some(6));
        assert_eq!(e.message, "\"n\" must be an unsigned integer, got number");
        for (config, needle) in [
            (r#"\ud83d"#, "not a scalar value"),
            (r#"\u+06f"#, "bad \\u"),
        ] {
            let line = format!(r#"{{"op":"classify","config":"{config}"}}"#);
            assert!(parse_err(&line).message.contains(needle), "{line}");
        }
        assert!(parse_err(r#"{"op":"elect"}"#)
            .message
            .contains("\"family\""));
        assert!(
            parse_err(r#"{"op":"classify","family":"path","model":"cd"}"#)
                .message
                .contains("does not apply")
        );
        assert!(parse_err(r#"{"op":"elect","config":"x","family":"path"}"#)
            .message
            .contains("self-contained"));
        assert!(parse_err(r#"{"op":"elect","op":"elect"}"#)
            .message
            .contains("duplicate"));
    }

    #[test]
    fn writer_reorders_replies_into_submission_order() {
        let mut replies = Replies::new(Vec::new());
        replies.deliver(2, "two".to_string());
        replies.deliver(0, "zero".to_string());
        replies.deliver(1, "one".to_string());
        assert_eq!(replies.answered, 3);
        assert_eq!(replies.dropped, 0);
        assert_eq!(
            String::from_utf8(replies.output).unwrap(),
            "zero\none\ntwo\n"
        );
    }

    /// A sink that counts its `write` calls.
    #[derive(Default)]
    struct CountingSink {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_sends_each_reply_in_one_write() {
        let mut replies = Replies::new(CountingSink::default());
        for seq in 0..3u64 {
            replies.deliver(seq, format!("r{seq}"));
        }
        assert_eq!((replies.answered, replies.dropped), (3, 0));
        assert_eq!(
            replies.output.writes, 3,
            "payload and newline share one write"
        );
        assert_eq!(replies.output.bytes, b"r0\nr1\nr2\n");
    }

    /// A sink that fails after `live` writes — the gone-client stand-in.
    struct DyingSink {
        live: usize,
    }

    impl Write for DyingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.live == 0 {
                return Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe));
            }
            self.live -= 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_survives_a_broken_pipe_and_keeps_draining() {
        // 1 write call per reply: one reply lands, the second reply's
        // write breaks the pipe.
        let mut replies = Replies::new(DyingSink { live: 1 });
        for seq in 0..4u64 {
            replies.deliver(seq, format!("r{seq}"));
        }
        assert_eq!(replies.answered, 1);
        assert_eq!(
            replies.dropped, 3,
            "remaining replies drain as drops, no panic"
        );
    }

    /// A client that stops reading: its first write reports on `entered`,
    /// then blocks until `release` sends or hangs up.
    struct StalledSink {
        entered: mpsc::Sender<()>,
        release: mpsc::Receiver<()>,
        stalled: bool,
        bytes: Vec<u8>,
    }

    impl Write for StalledSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if !self.stalled {
                self.stalled = true;
                let _ = self.entered.send(());
                let _ = self.release.recv();
            }
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_stalled_client_holds_no_workspace() {
        use std::time::Duration;
        // One workspace: B can run only if A's stalled lane gave it back.
        let workers = Workers::new(&ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        });
        let shutdown = AtomicBool::new(false);
        let job = |id: u64| {
            format!(
                "{{\"op\":\"elect\",\"id\":{id},\"family\":\"path\",\"n\":6,\"span\":3,\"seed\":{id}}}\n"
            )
        };
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let a_input = job(1) + &job(2);
        let b_input = job(3);
        std::thread::scope(|scope| {
            let (workers, shutdown) = (&workers, &shutdown);
            let a = scope.spawn(move || {
                let mut out = StalledSink {
                    entered: entered_tx,
                    release: release_rx,
                    stalled: false,
                    bytes: Vec::new(),
                };
                let summary = serve_connection(a_input.as_bytes(), &mut out, workers, 1, shutdown);
                (summary, String::from_utf8(out.bytes).unwrap())
            });
            let a_blocked = entered.recv_timeout(Duration::from_secs(60));
            let (b_done, b_answered) = mpsc::channel();
            scope.spawn(move || {
                let mut out = Vec::new();
                let summary = serve_connection(b_input.as_bytes(), &mut out, workers, 1, shutdown);
                let _ = b_done.send((summary, String::from_utf8(out).unwrap()));
            });
            let b = b_answered.recv_timeout(Duration::from_secs(60));
            // Release A before asserting, so a failure cannot hang the scope.
            drop(release);
            assert!(a_blocked.is_ok(), "A never reached its first write");
            let (b_summary, b_text) = b.expect("B is answered while A's client stalls");
            assert_eq!(b_summary.answered, 1);
            assert!(b_text.starts_with("{\"ok\":true,\"id\":3,"), "{b_text}");
            let (a_summary, a_text) = a.join().unwrap();
            assert_eq!(a_summary.answered, 2);
            let lines: Vec<&str> = a_text.lines().collect();
            assert_eq!(lines.len(), 2, "{a_text}");
            for (line, id) in lines.iter().zip([1, 2]) {
                assert!(
                    line.starts_with(&format!("{{\"ok\":true,\"id\":{id},")),
                    "{line}"
                );
            }
        });
    }

    #[test]
    fn the_daemon_caches_by_default() {
        // Campaigns run uncached by default; a daemon does not.
        let cache = ServeOptions::default().cache;
        assert!(cache.enabled);
        assert_eq!(cache.capacity, DEFAULT_CAPACITY);
        assert_ne!(cache, CacheConfig::default());
    }

    #[test]
    fn serve_session_answers_in_order_and_acks_shutdown_last() {
        let input = concat!(
            "{\"op\":\"classify\",\"id\":10,\"family\":\"star\",\"n\":6,\"span\":3}\n",
            "garbage\n",
            "{\"op\":\"elect\",\"id\":11,\"family\":\"path\",\"n\":6,\"span\":3}\n",
            "{\"op\":\"shutdown\",\"id\":99}\n",
            "{\"op\":\"elect\",\"id\":12,\"family\":\"path\"}\n",
        );
        let mut out = Vec::new();
        let summary = serve_session(
            input.as_bytes(),
            &mut out,
            &ServeOptions {
                threads: 3,
                queue: 2,
                cache: CacheConfig::with_capacity(DEFAULT_CAPACITY),
            },
        );
        assert!(summary.shutdown);
        assert_eq!(summary.jobs, 4, "the post-shutdown line is never read");
        assert_eq!(summary.answered, 4);
        assert_eq!(summary.dropped, 0);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"ok\":true,\"id\":10,\"op\":\"classify\""));
        assert!(lines[1].contains("\"error\":\"bad-request\""));
        assert!(lines[2].starts_with("{\"ok\":true,\"id\":11,\"op\":\"elect\""));
        assert!(
            lines[3].starts_with("{\"ok\":true,\"id\":99,\"op\":\"shutdown\""),
            "ack must come last: {}",
            lines[3]
        );
    }
}
