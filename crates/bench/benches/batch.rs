//! Criterion: batch execution architecture — one long-lived
//! `SimWorkspace` per worker with the chunked cursor on a ≥10k-run
//! campaign, plus the single-threaded engine-only fresh-vs-reuse
//! comparison.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use radio_graph::{generators, Configuration};
use radio_sim::drip::WaitThenTransmitFactory;
use radio_sim::parallel::{default_threads, par_map_init};
use radio_sim::{Executor, Msg, RunOpts, SimWorkspace};

/// 10k small flood configurations with varied shapes and tag spreads —
/// enough runs that per-run allocation dominates the measured difference.
fn campaign_configs() -> Vec<Configuration> {
    (0..10_000u64)
        .map(|i| {
            let n = 4 + (i % 5) as usize; // 4..=8 nodes
            let tags: Vec<u64> = (0..n as u64).map(|v| (v * 3 + i) % 7).collect();
            let graph = if i % 2 == 0 {
                generators::path(n)
            } else {
                generators::star(n)
            };
            Configuration::new(graph, tags).expect("valid configuration")
        })
        .collect()
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(3000));

    let configs = campaign_configs();
    let factory = WaitThenTransmitFactory {
        wait: 1,
        msg: Msg::ONE,
        lifetime: 16,
    };
    let threads = default_threads();
    group.throughput(Throughput::Elements(configs.len() as u64));

    // The campaign path: one workspace per worker, chunked direct writes.
    group.bench_function("workspace_reuse_chunked_10k", |b| {
        b.iter(|| {
            let out = par_map_init(&configs, threads, SimWorkspace::new, |ws, config| {
                ws.run(config, &factory, RunOpts::default()).unwrap().rounds
            });
            out.iter().sum::<u64>()
        })
    });

    // Engine-only comparison, single thread: how much of the gain is the
    // workspace itself (no parallel layer in the loop).
    group.bench_function("fresh_run_serial_10k", |b| {
        b.iter(|| {
            configs
                .iter()
                .map(|config| {
                    Executor::run(config, &factory, RunOpts::default())
                        .unwrap()
                        .rounds
                })
                .sum::<u64>()
        })
    });
    group.bench_function("workspace_reuse_serial_10k", |b| {
        let mut ws = SimWorkspace::new();
        b.iter(|| {
            configs
                .iter()
                .map(|config| ws.run(config, &factory, RunOpts::default()).unwrap().rounds)
                .sum::<u64>()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
