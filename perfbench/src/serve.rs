//! `serve-mixed`: one client connection runs a closed loop with four jobs
//! in flight against the socket daemon (`serve_unix`, one worker) in this
//! process, so the worker always has the next job queued. The job mix is
//! 70% `elect`, 20% `classify` and 10% `campaign-cell` (10 reps) over a
//! pool of 384 drawn shapes of 128–256 nodes, so shapes repeat and the
//! daemon's warm cache answers every compile. Jobs are large enough that
//! compute, not thread hand-offs, dominates a reply's latency; hand-off
//! latency on a shared virtual machine drifts by 2× and would swamp the
//! daemon's own cost. One worker, not two: with two, the workers, the
//! daemon's reader and writer and the client contended for the test host's
//! two cores, and pass times varied twice as much.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::os::linux::net::SocketAddrExt;
use std::os::unix::net::{SocketAddr, UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

use anon_radio::campaign::{cell_row, run_cell};
use anon_radio::serve::JobKind;
use anon_radio::{CacheConfig, CampaignWorkspace, FamilySpec, JobRequest, ServeOptions};
use radio_sim::RunOpts;
use radio_util::rng::{derive, derive_index, splitmix64};

use crate::cpu;
use crate::layers::{classify_apart, elect_config, CacheCounts, Counters, Engines, Layers};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{finish_traced, replay_traced, run_cycles, Cycle, Meter, Outcome, Settings, REPLAYS};

/// Daemon worker threads.
pub const WORKERS: usize = 1;
/// Jobs the client keeps in flight.
pub const WINDOW: usize = 4;
/// Distinct drawn shapes the jobs pick from (smoke mode: 24). The pass
/// cost is a sum over the shapes' draws, so it varies from seed to seed
/// less the more shapes there are: with 96, by ±10%.
pub const POOL: u64 = 384;

fn pool(smoke: bool) -> u64 {
    if smoke {
        24
    } else {
        POOL
    }
}

/// Entries of the daemon's schedule cache: room for every configuration
/// the warm-up compiles (each shape's `elect` job and the reps of its
/// `campaign-cell` job, about 6 400 entries) with room to spare, so the
/// warm cache answers every compile of a pass. With the default 4 096 it
/// evicted and missed.
pub const CACHE_CAPACITY: usize = 16_384;
/// Repetitions of a `campaign-cell` job.
pub const CELL_REPS: u64 = 10;
/// Jobs per timed segment of a pass: two blocks of the job mix, about
/// 5 ms. The client sends a segment's jobs, keeping [`WINDOW`] in flight,
/// and reads every reply before the probe that ends the segment.
pub const SEGMENT_JOBS: usize = 20;
/// Every this-many-th job of a pass is replayed through the one-shot path.
/// Coprime with the ten-job block, so the sample holds every job type.
pub const SAMPLE_EVERY: usize = 7;

const FAMILIES: [&str; 8] = [
    "path",
    "cycle",
    "star",
    "random-tree",
    "gnp",
    "grid:12x16",
    "hypercube:8",
    "caterpillar:32x5",
];
const SPANS: [u64; 3] = [4, 8, 16];
const TAGS: [&str; 3] = ["uniform", "clustered", "arith:2"];

/// The request fields naming pool shape `k`. The family, size (128, 192
/// or 256 nodes; pinned families use their own), span and tag strategy
/// are fixed by `k`, so every seed serves the same mix of shapes; the seed
/// only draws the graphs and tags.
fn shape(seed: u64, k: u64) -> String {
    let k = k as usize;
    let family = FAMILIES[k % FAMILIES.len()];
    let n = family
        .parse::<FamilySpec>()
        .expect("valid family spec")
        .node_count()
        .unwrap_or(128 + 64 * (k / FAMILIES.len() % 3));
    format!(
        "\"family\":\"{family}\",\"n\":{n},\"span\":{},\"tags\":\"{}\",\"seed\":{}",
        SPANS[k % SPANS.len()],
        TAGS[(k / SPANS.len()) % TAGS.len()],
        derive_index(derive(seed, "serve-mixed/pool"), k as u64) >> 24
    )
}

fn elect_line(id: u64, shape: &str) -> String {
    format!("{{\"op\":\"elect\",\"id\":{id},{shape}}}")
}

fn classify_line(id: u64, shape: &str) -> String {
    format!("{{\"op\":\"classify\",\"id\":{id},{shape}}}")
}

fn cell_line(id: u64, shape: &str) -> String {
    format!(
        "{{\"op\":\"campaign-cell\",\"id\":{id},\"phase\":\"elect\",{shape},\"reps\":{CELL_REPS}}}"
    )
}

/// The job lines of one pass: in every block of ten jobs, seven `elect`,
/// two `classify` and one `campaign-cell`, cycling through the pool's
/// shapes. The mix is the same on every seed, and 2 000 jobs leave twenty
/// samples beyond a pass's 99th percentile.
pub fn jobs(seed: u64, smoke: bool) -> Vec<String> {
    let count = if smoke { 120 } else { 2000 };
    (0..count)
        .map(|j| {
            let shape = shape(seed, (j + j / 10) % pool(smoke));
            match j % 10 {
                0..=6 => elect_line(j, &shape),
                7 | 8 => classify_line(j, &shape),
                _ => cell_line(j, &shape),
            }
        })
        .collect()
}

/// Every pool shape as an `elect`, a `classify` and a `campaign-cell` job:
/// the set-up pass that fills the daemon's cache.
pub fn warm_up_jobs(seed: u64, smoke: bool) -> Vec<String> {
    (0..pool(smoke))
        .flat_map(|k| {
            let shape = shape(seed, k);
            [
                elect_line(3 * k, &shape),
                classify_line(3 * k + 1, &shape),
                cell_line(3 * k + 2, &shape),
            ]
        })
        .collect()
}

/// Daemons started by this process; numbers their socket names.
static DAEMONS: AtomicU64 = AtomicU64::new(0);

/// A daemon serving on an abstract Unix socket, and the client's
/// connection to it.
struct Daemon {
    handle: JoinHandle<std::io::Result<()>>,
    writer: BufWriter<UnixStream>,
    reader: BufReader<UnixStream>,
}

impl Daemon {
    /// Binds, connects, and starts `serve_unix`. The client connects
    /// before the daemon's accept loop starts, so the first accept finds
    /// it. `name` must be unique among live daemons.
    fn start(name: &str) -> std::io::Result<Daemon> {
        let addr = SocketAddr::from_abstract_name(name.as_bytes())?;
        let listener = UnixListener::bind_addr(&addr)?;
        let stream = UnixStream::connect_addr(&addr)?;
        let opts = ServeOptions {
            threads: WORKERS,
            queue: 16,
            cache: CacheConfig::with_capacity(CACHE_CAPACITY),
        };
        let handle = std::thread::spawn(move || anon_radio::serve::serve_unix(listener, &opts));
        Ok(Daemon {
            handle,
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends `jobs` with at most [`WINDOW`] in flight and hands each reply
    /// to `on_reply` with its index, send time and receive time.
    fn exchange(
        &mut self,
        jobs: &[String],
        mut on_reply: impl FnMut(usize, Instant, Instant, &str),
    ) -> std::io::Result<()> {
        let mut sent_at = Vec::with_capacity(jobs.len());
        let mut line = String::new();
        for done in 0..jobs.len() {
            while sent_at.len() < jobs.len() && sent_at.len() - done < WINDOW {
                sent_at.push(Instant::now());
                self.writer.write_all(jobs[sent_at.len() - 1].as_bytes())?;
                self.writer.write_all(b"\n")?;
            }
            self.writer.flush()?;
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            on_reply(done, sent_at[done], Instant::now(), line.trim_end());
        }
        Ok(())
    }

    /// Sends `{"op":"shutdown"}`, reads the ack, and joins the daemon.
    fn shutdown(mut self) -> Result<(), String> {
        let mut ack = String::new();
        self.writer
            .write_all(b"{\"op\":\"shutdown\"}\n")
            .and_then(|()| self.writer.flush())
            .and_then(|()| self.reader.read_line(&mut ack))
            .map_err(|e| format!("shutdown: {e}"))?;
        if !ack.contains("\"op\":\"shutdown\"") {
            return Err(format!("unexpected shutdown ack: {ack}"));
        }
        drop(self.writer);
        drop(self.reader);
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// A reply without the fields that depend on cache state: the verdict and
/// counters of `elect` replies, the measured tail of a `campaign-cell` row.
fn strip(reply: &str) -> &str {
    [",\"cache\":", ",\"wall_ns\":"]
        .iter()
        .find_map(|marker| reply.find(marker).map(|i| &reply[..i]))
        .unwrap_or(reply)
}

/// The stripped reply the one-shot path gives for `line`: an uncached
/// compile for `elect`, the classifier for `classify`, and a fresh
/// single-cell campaign for `campaign-cell`, whose runs are also replayed
/// one by one through the layer calls.
fn one_shot(
    line: &str,
    engines: &mut Engines,
    cells: &mut CampaignWorkspace,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<String, String> {
    let request = JobRequest::parse(line).map_err(|e| format!("{line}: {}", e.message))?;
    let id = request.id.expect("benchmark jobs carry ids");
    match request.kind {
        JobKind::Elect(job) => {
            tracer.enter("op", id);
            tracer.enter("graph.generate", id);
            let config = job.configuration();
            tracer.exit();
            let result = config
                .as_ref()
                .map_err(String::clone)
                .and_then(|c| elect_config(c, engines, tracer, id, counters));
            tracer.exit();
            if let Ok(c) = &config {
                classify_apart(c, engines, tracer, id);
            }
            Ok(match result? {
                (_, Some(r)) => format!(
                    "{{\"ok\":true,\"id\":{id},\"op\":\"elect\",\"feasible\":true,\"model\":\"{}\",\
                     \"leader\":{},\"phases\":{},\"rounds_local\":{},\"completion_round\":{},\
                     \"transmissions\":{},\"rounds_stepped\":{},\"rounds_leapt\":{}",
                    job.model,
                    r.leader,
                    r.phases,
                    r.rounds_local,
                    r.completion_round,
                    r.transmissions,
                    r.rounds_stepped,
                    r.rounds_leapt
                ),
                (summary, None) => format!(
                    "{{\"ok\":true,\"id\":{id},\"op\":\"elect\",\"feasible\":false,\"iterations\":{}",
                    summary.iterations
                ),
            })
        }
        JobKind::Classify(job) => {
            tracer.enter("op", id);
            tracer.enter("graph.generate", id);
            let config = job.configuration();
            tracer.exit();
            let summary = config.map(|c| {
                tracer.enter("classifier.classify", id);
                let s = engines.classifier.summarize_in(&c);
                tracer.exit();
                counters.configs += 1;
                counters.nodes += c.size() as u64;
                counters.iterations += s.iterations as u64;
                counters.relabels += s.relabels;
                s
            });
            tracer.exit();
            let s = summary?;
            Ok(format!(
                "{{\"ok\":true,\"id\":{id},\"op\":\"classify\",\"feasible\":{},\"iterations\":{},\
                 \"classes\":{},\"leader\":{},\"relabels\":{}}}",
                s.feasible,
                s.iterations,
                s.num_classes,
                s.leader.map_or("null".to_string(), |l| l.to_string()),
                s.relabels
            ))
        }
        JobKind::CampaignCell(job) => {
            let spec = job.spec(false);
            let cell = spec.cells()[0];
            for rep in 0..spec.reps {
                tracer.enter("op", id);
                tracer.enter("graph.generate", id);
                let config = spec.configuration(&cell, rep);
                tracer.exit();
                let result = elect_config(&config, engines, tracer, id, counters);
                tracer.exit();
                classify_apart(&config, engines, tracer, id);
                result?;
            }
            let row = cell_row(spec.phase, &cell, &run_cell(cells, &spec, &cell)).to_jsonl();
            Ok(format!(
                "{{\"ok\":true,\"id\":{id},\"op\":\"campaign-cell\",\"reps\":{},\"row\":{}",
                spec.reps,
                strip(&row)
            ))
        }
        JobKind::Shutdown => Err("shutdown is not a benchmark job".to_string()),
    }
}

/// What a served job costs without the daemon: `line` run the way a
/// worker runs it, on a workspace wired to a warm cache.
fn served_compute(line: &str, ws: &mut CampaignWorkspace) -> Result<(), String> {
    let request = JobRequest::parse(line).map_err(|e| e.message)?;
    match request.kind {
        JobKind::Elect(job) => {
            let config = job.configuration()?;
            let cache = ws.cache.clone().expect("compute workspace has a cache");
            let (compiled, _) = cache.compile_in(&mut ws.classifier, &config);
            if compiled.feasible() {
                let report = compiled
                    .run_in(&mut ws.sim, &config, job.model, RunOpts::default())
                    .map_err(|e| e.to_string())?;
                std::hint::black_box(report);
            }
        }
        JobKind::Classify(job) => {
            let config = job.configuration()?;
            std::hint::black_box(ws.classifier.summarize_in(&config));
        }
        JobKind::CampaignCell(job) => {
            let spec = job.spec(true);
            let cell = spec.cells()[0];
            let agg = run_cell(ws, &spec, &cell);
            std::hint::black_box(cell_row(spec.phase, &cell, &agg).to_jsonl());
        }
        JobKind::Shutdown => {}
    }
    Ok(())
}

/// Per-pass reply statistics.
#[derive(Debug, Default, Clone)]
struct PassReplies {
    digest: u64,
    replies: u64,
    errors: u64,
    cache: CacheCounts,
    /// Stripped replies of the sampled jobs.
    sampled: Vec<(usize, String)>,
    /// Latency in seconds of the sampled jobs.
    sampled_latency: Vec<f64>,
}

fn record_reply(out: &mut PassReplies, j: usize, reply: &str) {
    let stripped = strip(reply);
    out.digest = stripped
        .bytes()
        .fold(out.digest, |acc, b| splitmix64(acc ^ u64::from(b)));
    out.replies += 1;
    if reply.starts_with("{\"ok\":false") {
        out.errors += 1;
    }
    if let Some(i) = reply.find(",\"cache\":\"") {
        let verdict = &reply[i + 10..];
        out.cache.lookups += 1;
        if verdict.starts_with("exact-hit") {
            out.cache.exact_hits += 1;
        } else if verdict.starts_with("canonical-hit") {
            out.cache.canonical_hits += 1;
        } else if verdict.starts_with("miss") {
            out.cache.misses += 1;
        }
    }
    if j.is_multiple_of(SAMPLE_EVERY) {
        out.sampled.push((j, stripped.to_string()));
    }
}

/// The set-up of a cycle, timed by `meter`: starts a daemon on a fresh
/// socket name, on the calling thread's CPU, then moves the calling
/// thread, the client, to allowed CPU `client_slot` and fills the daemon's
/// cache with the warm-up jobs, [`SEGMENT_JOBS`] at a time.
fn set_up(
    meter: &mut Meter,
    warm: &[String],
    client_slot: usize,
    failures: &mut Vec<String>,
) -> std::io::Result<Daemon> {
    let name = format!(
        "radio-perfbench-{}-{}",
        std::process::id(),
        DAEMONS.fetch_add(1, Ordering::Relaxed)
    );
    let mut daemon = meter.setup(|| Daemon::start(&name))?;
    cpu::pin(&cpu::allowed(), client_slot);
    for block in warm.chunks(SEGMENT_JOBS) {
        meter.setup(|| {
            daemon.exchange(block, |_, _, _, reply| {
                if reply.starts_with("{\"ok\":false") {
                    failures.push(format!("warm-up job failed: {reply}"));
                }
            })
        })?;
    }
    Ok(daemon)
}

/// Runs `serve-mixed`. Each cycle's set-up starts a daemon and warms its
/// cache; after the pass the daemon is shut down, outside the timing.
pub fn run(settings: &Settings) -> Outcome {
    let mut outcome = Outcome::default();
    let warm = warm_up_jobs(settings.seed, settings.smoke);
    let jobs = jobs(settings.seed, settings.smoke);
    let mut tracer = Tracer::new(false);
    let mut per_pass: Vec<PassReplies> = Vec::new();
    let mut timing = run_cycles(settings.seconds, |cycle| {
        // The daemon's threads and the prober start on the CPU this thread
        // is pinned to, and the client moves to the next one, so the
        // daemon's work and the probes share a CPU.
        let prober = cpu::Prober::spawn();
        let mut meter = Meter::with_probe(|| prober.probe());
        let daemon = set_up(&mut meter, &warm, cycle / 2 + 1, &mut outcome.failures);
        let mut daemon = match daemon {
            Ok(d) => d,
            Err(e) => {
                outcome.failures.push(format!("starting the daemon: {e}"));
                per_pass.push(PassReplies::default());
                return Cycle::default();
            }
        };
        tracer.set_on(settings.trace && cycle % 2 == 1);
        let mut out = PassReplies::default();
        let mut latencies = Vec::with_capacity(jobs.len());
        for (b, block) in jobs.chunks(SEGMENT_JOBS).enumerate() {
            let first = latencies.len();
            let exchanged = meter.time(|| {
                daemon.exchange(block, |i, sent, received, reply| {
                    let j = b * SEGMENT_JOBS + i;
                    let latency = (received - sent).as_secs_f64();
                    latencies.push(latency);
                    tracer.record("serve.job", (cycle * jobs.len() + j) as u64, sent, received);
                    if j.is_multiple_of(SAMPLE_EVERY) {
                        out.sampled_latency.push(latency);
                    }
                    record_reply(&mut out, j, reply);
                })
            });
            let scale = meter.last_scale();
            latencies[first..].iter_mut().for_each(|l| *l *= scale);
            if let Err(e) = exchanged {
                outcome.failures.push(format!("cycle {cycle}: {e}"));
                break;
            }
        }
        if let Err(e) = daemon.shutdown() {
            outcome.failures.push(e);
        }
        per_pass.push(out);
        meter.cycle(latencies)
    });

    // Checks: every reply arrived and succeeded, the stripped replies are
    // the same on every pass, and the sampled ones match the one-shot path.
    let first = &per_pass[0];
    for (pass, out) in per_pass.iter().enumerate() {
        if out.replies != jobs.len() as u64 || out.errors > 0 {
            outcome.failures.push(format!(
                "pass {pass}: {} replies ({} errors) to {} jobs",
                out.replies,
                out.errors,
                jobs.len()
            ));
        }
        if out.digest != first.digest {
            outcome
                .failures
                .push(format!("pass {pass}: replies differ from pass 0"));
        }
    }
    // A traced run replays the sampled jobs with the tracer off and on, for
    // the per-layer split and the tracing overhead; the first replay checks.
    let mut engines = Engines::default();
    let mut cells = CampaignWorkspace::new();
    let mut counters = Counters::default();
    let mut sample_pass = |tracer: &mut Tracer, rep: usize| {
        counters = Counters::default();
        for (j, served) in &first.sampled {
            let result = one_shot(&jobs[*j], &mut engines, &mut cells, tracer, &mut counters);
            match result {
                _ if rep > 0 => {}
                Ok(expected) if expected == *served => {}
                Ok(expected) => outcome.failures.push(format!(
                    "job {j}: served {served} but one-shot gives {expected}"
                )),
                Err(e) => outcome.failures.push(format!("job {j}: {e}")),
            }
        }
    };
    let overhead = if settings.trace {
        replay_traced(&mut tracer, &mut sample_pass)
    } else {
        sample_pass(&mut tracer, 0);
        0.0
    };
    outcome.attempted = (jobs.len() * per_pass.len()) as u64;
    timing.runs_per_pass = jobs
        .iter()
        .map(|line| match line {
            l if l.contains("\"op\":\"elect\"") => 1,
            l if l.contains("\"op\":\"campaign-cell\"") => CELL_REPS,
            _ => 0,
        })
        .sum();
    let last = per_pass.last().expect("every run makes cycles").clone();
    outcome.notes.push(format!(
        "{} cycles of {} jobs, reply digest {:016x}, {} sampled replies match the one-shot path",
        per_pass.len(),
        jobs.len(),
        first.digest,
        first.sampled.len()
    ));
    if settings.trace {
        let mut layers = Layers {
            counters,
            cache: last.cache,
            replies: last.replies,
            errors: last.errors,
            dropped: jobs.len() as u64 - last.replies,
            trace_overhead: overhead,
            ..Layers::default()
        };
        layers.attribute(&tracer, REPLAYS);
        layers.workspaces(&engines);
        let (compute, cache_len, evictions) = replay_compute(&warm, &jobs, &last);
        layers.cache.entries = cache_len;
        layers.cache.evictions = evictions;
        layers.compute_ms = median(&compute) * 1e3;
        let overhead: Vec<f64> = last
            .sampled_latency
            .iter()
            .zip(&compute)
            .map(|(latency, c)| latency - c)
            .collect();
        layers.overhead_ms = median(&overhead) * 1e3;
        finish_traced(settings, &tracer, &layers, &mut outcome);
    } else {
        timing.finish(&mut outcome);
    }
    outcome
}

/// Times the sampled jobs of `last` the way a daemon worker runs them, on
/// a cache warmed with the set-up jobs. Returns per-job seconds and the
/// cache's final size and evictions.
fn replay_compute(warm: &[String], jobs: &[String], last: &PassReplies) -> (Vec<f64>, u64, u64) {
    let cache = std::sync::Arc::new(anon_radio::ScheduleCache::new(CACHE_CAPACITY));
    let mut ws = CampaignWorkspace::with_cache(Some(cache.clone()));
    for line in warm {
        let _ = served_compute(line, &mut ws);
    }
    let compute = last
        .sampled
        .iter()
        .map(|(j, _)| {
            let start = Instant::now();
            let _ = served_compute(&jobs[*j], &mut ws);
            start.elapsed().as_secs_f64()
        })
        .collect();
    (compute, cache.len() as u64, cache.stats().evictions)
}
