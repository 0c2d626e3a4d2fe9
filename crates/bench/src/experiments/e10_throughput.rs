//! E10 — substrate sanity: simulator throughput and parallel batch
//! speedup.
//!
//! The scaling experiments (E3–E5, E8) lean on the simulator sustaining
//! millions of node-rounds per second and on the batch runner spreading
//! independent runs across cores; the campaign layer additionally leans
//! on per-worker workspace reuse making back-to-back runs allocation-free.
//! This experiment measures:
//!
//! * single-run throughput (node-rounds/s) of the canonical DRIP across
//!   configuration sizes;
//! * wall-clock speedup of a batch of independent elections at 1, 2, 4, …
//!   worker threads — each worker owning one long-lived [`SimWorkspace`]
//!   through the worker-scoped [`par_map_init`];
//! * a declarative campaign executed through
//!   [`CampaignRunner`] with streaming
//!   per-cell aggregation.

use std::time::Instant;

use radio_graph::families;
use radio_sim::parallel::{default_threads, par_map_init};
use radio_sim::SimWorkspace;
use radio_util::table::{fmt_f64, Table};

use crate::campaign::{aggregate_table, election_spec, CampaignRunner};
use crate::workloads::{feasible_with_span, scaling_families};
use crate::Effort;

/// Runs E10.
pub fn run(effort: Effort, seed: u64) -> Vec<Table> {
    let sizes: Vec<usize> = match effort {
        Effort::Quick => vec![16, 64],
        Effort::Full => vec![16, 64, 256],
    };

    let mut throughput = Table::new(
        "E10a: canonical-DRIP simulation throughput",
        &["family", "n", "rounds", "wall ms", "node-rounds/s"],
    );
    for family in scaling_families().into_iter().take(3) {
        for &n in &sizes {
            let graph = family.make(n, seed);
            let real_n = graph.node_count();
            let config = feasible_with_span(graph, 4, seed ^ n as u64);
            let dedicated = match anon_radio::solve(&config) {
                Ok(d) => d,
                Err(_) => continue,
            };
            let start = Instant::now();
            let ex = radio_sim::Executor::run(
                &config,
                &dedicated.factory(),
                radio_sim::RunOpts::default(),
            )
            .unwrap();
            let wall = start.elapsed().as_secs_f64();
            let node_rounds = ex.rounds as f64 * real_n as f64;
            throughput.push_row(vec![
                family.name.to_string(),
                real_n.to_string(),
                ex.rounds.to_string(),
                fmt_f64(wall * 1e3, 3),
                fmt_f64(node_rounds / wall.max(1e-12), 0),
            ]);
        }
    }

    // Batch speedup: independent G_m elections across worker threads
    // (each item runs a multi-phase election on 33–65 nodes, heavy enough
    // to amortize thread handoff). Every worker owns one SimWorkspace for
    // its whole share of the batch.
    let batch: Vec<u64> = match effort {
        Effort::Quick => (1..=16u64).collect(),
        Effort::Full => (1..=64u64).collect(),
    };
    let configs: Vec<_> = batch
        .iter()
        .map(|&i| families::g_m(8 + (i % 9) as usize))
        .collect();
    let run_batch = |threads: usize| -> f64 {
        let start = Instant::now();
        let reports = par_map_init(&configs, threads, SimWorkspace::new, |ws, config| {
            anon_radio::solve(config)
                .expect("G_m feasible")
                .run_in(
                    ws,
                    config,
                    radio_sim::ModelKind::default(),
                    radio_sim::RunOpts::default(),
                )
                .expect("G_m elects")
        });
        std::hint::black_box(reports.len());
        start.elapsed().as_secs_f64() * 1e3
    };

    let mut speedup = Table::new(
        format!(
            "E10b: batch of {} elections — wall time vs worker threads (host has {})",
            configs.len(),
            default_threads()
        ),
        &["threads", "wall ms", "speedup vs 1 thread"],
    );
    let base = run_batch(1);
    let mut threads = 1usize;
    while threads <= default_threads().max(2) {
        let wall = if threads == 1 {
            base
        } else {
            run_batch(threads)
        };
        speedup.push_row(vec![
            threads.to_string(),
            fmt_f64(wall, 2),
            fmt_f64(base / wall.max(1e-9), 2),
        ]);
        threads *= 2;
    }

    let threads = default_threads();

    // Declarative campaign with streaming aggregation: the E10 sweep
    // expressed as a CampaignSpec and folded shard by shard.
    let mut runner = CampaignRunner::new(election_spec(effort, seed), 4);
    let start = Instant::now();
    runner.run_to_completion(threads);
    let wall = start.elapsed().as_secs_f64();
    let campaign = aggregate_table(
        format!(
            "E10c: campaign of {} elections over {} shards — streaming per-cell aggregates \
             ({:.0} runs/s)",
            runner.spec().total_runs(),
            runner.shard_count(),
            runner.spec().total_runs() as f64 / wall.max(1e-9),
        ),
        &runner,
    );

    vec![throughput, speedup, campaign]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_expected_shape() {
        let tables = run(Effort::Quick, 1);
        assert_eq!(tables.len(), 3);
        assert!(tables[0].len() >= 4);
        assert!(tables[1].len() >= 2);
        // one campaign row per grid cell
        let spec = election_spec(Effort::Quick, 1);
        assert_eq!(tables[2].len(), spec.cells().len());
    }
}
