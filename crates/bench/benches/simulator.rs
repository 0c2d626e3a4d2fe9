//! Criterion: raw simulator throughput — the E10 companion timing — plus
//! a channel-model comparison on an identical workload (the default model
//! is the regression-watch baseline; the other two price the model layer).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use radio_graph::{generators, Configuration};
use radio_sim::drip::{SilentFactory, WaitThenTransmitFactory};
use radio_sim::{Executor, ModelKind, Msg, RunOpts};

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1500));

    for n in [64usize, 512] {
        let config = Configuration::new(generators::path(n), (0..n as u64).collect()).unwrap();
        let rounds = (n as u64 + 20) * n as u64; // node-rounds metric
        group.throughput(Throughput::Elements(rounds));
        group.bench_with_input(BenchmarkId::new("silent_path", n), &config, |b, config| {
            b.iter(|| {
                Executor::run(config, &SilentFactory { lifetime: 20 }, RunOpts::default())
                    .unwrap()
                    .rounds
            })
        });
        group.bench_with_input(BenchmarkId::new("flood_path", n), &config, |b, config| {
            b.iter(|| {
                Executor::run(
                    config,
                    &WaitThenTransmitFactory {
                        wait: 0,
                        msg: Msg::ONE,
                        lifetime: 20,
                    },
                    RunOpts::default(),
                )
                .unwrap()
                .stats
                .transmissions
            })
        });
    }

    // canonical DRIP on a mid-size feasible configuration
    let config = radio_graph::families::g_m(6);
    let factory = anon_radio::solve(&config).unwrap().factory();
    group.bench_function("canonical_G6", |b| {
        b.iter(|| {
            Executor::run(&config, &factory, RunOpts::default())
                .unwrap()
                .rounds
        })
    });
    group.finish();
}

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("models");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(1500));

    // One fixed flood workload per model: identical configuration and
    // DRIP, only the channel semantics vary.
    let n = 256usize;
    let config = Configuration::new(generators::path(n), (0..n as u64).collect()).unwrap();
    let rounds = (n as u64 + 20) * n as u64;
    group.throughput(Throughput::Elements(rounds));
    for model in ModelKind::ALL {
        group.bench_with_input(
            BenchmarkId::new("flood_path_256", model),
            &config,
            |b, config| {
                b.iter(|| {
                    model
                        .run(
                            config,
                            &WaitThenTransmitFactory {
                                wait: 0,
                                msg: Msg::ONE,
                                lifetime: 20,
                            },
                            RunOpts::default(),
                        )
                        .unwrap()
                        .rounds
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simulator, bench_models);
criterion_main!(benches);
