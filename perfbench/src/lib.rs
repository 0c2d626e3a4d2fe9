//! The repository benchmark: four seeded workloads (`BENCHMARK.json` runs
//! campaign-mixed and serve-mixed) driven through the public calls of each
//! layer: generate → classify → compile → cache → simulate →
//! campaign → row encode → serve.
//!
//! A run builds its inputs from `--seed`, then repeats cycles for
//! `--seconds`: each cycle sets up afresh and makes one timed pass over the
//! inputs, pinned to one CPU, with every timed piece scaled to a reference
//! CPU speed (see [`cpu`] and [`Meter`]). Outputs are checked outside the
//! timed region. With tracing off the result carries the end-to-end
//! metrics; a traced run carries the per-layer metrics instead, derived
//! from spans around the layer calls.
//! `BENCHMARK.md` in this directory maps layers, metrics and workloads.

pub mod campaign;
pub mod cpu;
pub mod elect;
pub mod layers;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

use layers::Layers;
use stats::{median, quantile, ratio};

/// Fewest cycles a run makes, however short `--seconds` is.
pub const MIN_CYCLES: usize = 3;

/// Traced repetitions of a replayed attribution set (campaign-mixed,
/// serve-mixed); as many untraced ones are interleaved with them.
pub const REPLAYS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eight sparse elections with many stepped rounds; simulation dominates.
    ElectSparse,
    /// 32 dense or high-degree elections; few stepped rounds.
    ElectDense,
    /// A 9 000-run elect campaign on one worker thread, rows encoded.
    CampaignMixed,
    /// A closed-loop client against the in-process socket daemon.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ElectSparse,
        Workload::ElectDense,
        Workload::CampaignMixed,
        Workload::ServeMixed,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ElectSparse => "elect-sparse",
            Workload::ElectDense => "elect-dense",
            Workload::CampaignMixed => "campaign-mixed",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the cycles may take, in seconds (at least [`MIN_CYCLES`]
    /// always run).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Toy-size inputs that finish in well under a second.
    pub smoke: bool,
    /// Where a traced run writes its spans (`None`: not written).
    pub trace_out: Option<PathBuf>,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Times the consecutive pieces of one cycle (its set-up, then each
/// segment of its pass) and scales each piece to the reference speed: a
/// [`cpu::probe`] runs after every piece, and a piece's wall time is
/// multiplied by [`cpu::PROBE_REFERENCE_S`] over the mean of the probes
/// before and after it.
pub struct Meter<'p> {
    probe_with: Box<dyn FnMut() -> f64 + 'p>,
    probe: f64,
    /// Scaled set-up seconds so far.
    pub setup: f64,
    /// Scaled seconds of each pass segment, in order.
    pub segments: Vec<f64>,
    /// The factor each piece was scaled by.
    pub scales: Vec<f64>,
    /// Wall seconds of the pass segments.
    pub wall: f64,
}

impl Meter<'static> {
    /// Starts a cycle with a probe on the calling thread's CPU.
    pub fn new() -> Meter<'static> {
        Meter::with_probe(cpu::probe)
    }
}

impl<'p> Meter<'p> {
    /// Starts a cycle whose probes `probe_with` takes, on the CPU the
    /// timed work runs on.
    pub fn with_probe(mut probe_with: impl FnMut() -> f64 + 'p) -> Meter<'p> {
        Meter {
            probe: probe_with(),
            probe_with: Box::new(probe_with),
            setup: 0.0,
            segments: Vec::new(),
            scales: Vec::new(),
            wall: 0.0,
        }
    }

    /// Wall seconds of `f`, its scaled seconds, and its result.
    fn measure<R>(&mut self, f: impl FnOnce() -> R) -> (f64, f64, R) {
        let (took, result) = time_it(f);
        let after = (self.probe_with)();
        let scale = cpu::PROBE_REFERENCE_S / (0.5 * (self.probe + after));
        self.probe = after;
        self.scales.push(scale);
        (took, took * scale, result)
    }

    /// Times `f` as part of the set-up.
    pub fn setup<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (_, scaled, result) = self.measure(f);
        self.setup += scaled;
        result
    }

    /// Times `f` as the pass's next segment.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (took, scaled, result) = self.measure(f);
        self.wall += took;
        self.segments.push(scaled);
        result
    }

    /// The factor the last piece was scaled by.
    pub fn last_scale(&self) -> f64 {
        self.scales.last().copied().unwrap_or(1.0)
    }

    /// The cycle. `latencies` are already scaled.
    pub fn cycle(self, latencies: Vec<f64>) -> Cycle {
        Cycle {
            setup: self.setup,
            pass: self.segments.iter().sum(),
            wall: self.wall,
            scale: stats::median(&self.scales),
            segments: self.segments,
            latencies,
        }
    }
}

impl Default for Meter<'static> {
    fn default() -> Meter<'static> {
        Meter::new()
    }
}

/// One cycle of a run: a fresh set-up, then one timed pass over the
/// workload's inputs. Times are scaled to the reference speed (see
/// [`Meter`]) unless said otherwise.
#[derive(Debug, Default)]
pub struct Cycle {
    /// Set-up seconds.
    pub setup: f64,
    /// Pass seconds: the sum of the segments.
    pub pass: f64,
    /// Pass wall seconds, unscaled.
    pub wall: f64,
    /// Median factor the cycle's pieces were scaled by.
    pub scale: f64,
    /// Seconds of the pass's consecutive segments: one election each, one
    /// campaign cell each plus the runner's creation and the row encoding,
    /// or one block of served replies each.
    pub segments: Vec<f64>,
    /// Per-op latencies of the pass, in seconds: one election, campaign
    /// cell or served job each.
    pub latencies: Vec<f64>,
}

/// What the cycles of a run measured.
#[derive(Debug, Default)]
pub struct Timing {
    /// The cycles, in order.
    pub cycles: Vec<Cycle>,
    /// Pipeline runs (configurations sent through classify → compile →
    /// simulate) in one pass.
    pub runs_per_pass: u64,
    /// Peak RSS in bytes after the first cycle: one set-up and one pass.
    /// Later cycles only repeat them, so how many run does not move it.
    pub peak_rss: u64,
}

impl Timing {
    /// The end-to-end metrics, in `BENCHMARK.json` order, from scaled
    /// times. `setup_s` is the median set-up. The pass time is the sum of
    /// each segment's median over the cycles, and the latency quantiles
    /// are taken over each op's median latency over the cycles.
    pub fn metrics(&self) -> Vec<Metric> {
        let pass: f64 = median_each(&self.cycles, |c| &c.segments).iter().sum();
        let latencies = median_each(&self.cycles, |c| &c.latencies);
        let setups: Vec<f64> = self.cycles.iter().map(|c| c.setup).collect();
        vec![
            metric("setup_s", "s", median(&setups)),
            metric("elect_s", "s", pass),
            metric(
                "campaign_runs_per_s",
                "runs/s",
                ratio(self.runs_per_pass as f64, pass),
            ),
            metric(
                "serve_jobs_per_s",
                "jobs/s",
                ratio(latencies.len() as f64, pass),
            ),
            metric("serve_p50_ms", "ms", quantile(&latencies, 0.50) * 1e3),
            metric("serve_p99_ms", "ms", quantile(&latencies, 0.99) * 1e3),
        ]
    }

    /// End-to-end figures left out of the result line: the unscaled pass
    /// time and the scale factor, and peak RSS. Peak RSS after the same
    /// first cycle moves by up to 50% from run to run (serve-mixed: 10.5
    /// to 16.8 MiB), more than any bound `BENCHMARK.json` permits.
    pub fn report_only(&self) -> Vec<Metric> {
        let walls: Vec<f64> = self.cycles.iter().map(|c| c.wall).collect();
        let scales: Vec<f64> = self.cycles.iter().map(|c| c.scale).collect();
        vec![
            metric("pass_wall_s", "s", median(&walls)),
            metric("speed_scale", "factor", median(&scales)),
            metric(
                "peak_rss_mib",
                "MiB",
                self.peak_rss as f64 / (1u64 << 20) as f64,
            ),
        ]
    }

    /// Puts the end-to-end metrics into `outcome`.
    pub fn finish(&self, outcome: &mut Outcome) {
        outcome.metrics = self.metrics();
        outcome.report_only = self.report_only();
    }
}

/// A finished run: the checks' verdict and the metrics to print.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops whose outputs were checked.
    pub attempted: u64,
    /// Messages of ops that failed or produced wrong output.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Figures for the human-readable report only.
    pub report_only: Vec<Metric>,
    /// Extra lines for the human-readable report on stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every checked op succeeded with the expected output.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }

    /// The human-readable report: every metric with its unit, the error
    /// rate, the first failures and the workload's notes.
    pub fn report(&self, workload: Workload) -> String {
        let mut out = format!("== {} ==\n", workload.name());
        for m in self.metrics.iter().chain(&self.report_only) {
            out.push_str(&format!("{:<28} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        let error_rate = ratio(self.failures.len() as f64, self.attempted as f64);
        out.push_str(&format!(
            "{:<28} {:>16.6} fraction\n",
            "error_rate", error_rate
        ));
        for f in self.failures.iter().take(5) {
            out.push_str(&format!("FAILED: {f}\n"));
        }
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        out
    }
}

/// The median of each position in the per-cycle lists `times` picks out
/// (segments or op latencies), over all cycles.
fn median_each(cycles: &[Cycle], times: impl Fn(&Cycle) -> &Vec<f64>) -> Vec<f64> {
    let len = cycles.iter().map(|c| times(c).len()).min().unwrap_or(0);
    (0..len)
        .map(|i| median(&cycles.iter().map(|c| times(c)[i]).collect::<Vec<_>>()))
        .collect()
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Runs the workload `settings` names.
pub fn run(settings: &Settings) -> Outcome {
    let mut outcome = match settings.workload {
        Workload::ElectSparse | Workload::ElectDense => elect::run(settings),
        Workload::CampaignMixed => campaign::run(settings),
        Workload::ServeMixed => serve::run(settings),
    };
    outcome.failures.dedup();
    outcome
}

/// Runs cycles until the next one would end past `seconds`, with at
/// least [`MIN_CYCLES`]. The callback gets the cycle index. Each pair of
/// cycles runs pinned to the next allowed CPU (see [`cpu`]), with every
/// thread it starts; a pair, so that a traced run's untraced and traced
/// cycles share a CPU.
pub fn run_cycles(seconds: f64, mut cycle: impl FnMut(usize) -> Cycle) -> Timing {
    let cpus = cpu::allowed();
    let started = Instant::now();
    let mut timing = Timing::default();
    loop {
        cpu::pin(&cpus, timing.cycles.len() / 2);
        let (last, c) = time_it(|| cycle(timing.cycles.len()));
        if timing.cycles.is_empty() {
            timing.peak_rss = radio_util::mem::peak_rss_bytes().unwrap_or(0);
        }
        timing.cycles.push(c);
        let elapsed = started.elapsed().as_secs_f64();
        if timing.cycles.len() >= MIN_CYCLES && elapsed + last > seconds {
            cpu::unpin(&cpus);
            return timing;
        }
    }
}

/// Wall seconds `f` takes, and its result.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64(), result)
}

/// Traced elect runs alternate untraced (even) and traced (odd) cycles,
/// which make the same calls; this turns their best scaled pass times into
/// the tracing overhead, as a fraction of the untraced pass.
pub fn trace_overhead(timing: &Timing) -> f64 {
    let best = |parity: usize| {
        timing
            .cycles
            .iter()
            .skip(parity)
            .step_by(2)
            .map(|c| c.pass)
            .fold(f64::INFINITY, f64::min)
    };
    ratio(best(1) - best(0), best(0))
}

/// Runs a replayed attribution set [`REPLAYS`] times with the tracer on,
/// interleaved with as many runs with it off; `set` gets the repetition
/// index. Returns the tracing overhead: the best traced time over the best
/// untraced one, minus one. Only the traced repetitions leave spans.
pub fn replay_traced(
    tracer: &mut trace::Tracer,
    mut set: impl FnMut(&mut trace::Tracer, usize),
) -> f64 {
    let mut best = [f64::INFINITY; 2];
    for rep in 0..2 * REPLAYS {
        let on = rep % 2 == 1;
        tracer.set_on(on);
        let (took, ()) = time_it(|| set(tracer, rep));
        best[usize::from(on)] = best[usize::from(on)].min(took);
    }
    ratio(best[1] - best[0], best[0])
}

/// Finishes a traced run: writes the spans and turns the layer record into
/// metrics and report lines.
pub fn finish_traced(
    settings: &Settings,
    tracer: &trace::Tracer,
    layers: &Layers,
    outcome: &mut Outcome,
) {
    outcome.metrics = layers.metrics();
    outcome.report_only = layers.report_only();
    if let Some(path) = &settings.trace_out {
        match tracer.write_jsonl(path) {
            Ok(()) => outcome.notes.push(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => outcome
                .failures
                .push(format!("writing spans to {}: {e}", path.display())),
        }
    }
}
