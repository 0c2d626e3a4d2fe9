//! Feasibility atlas: which (topology × wake-up pattern) combinations admit
//! deterministic leader election?
//!
//! Sweeps graph families against tag strategies and prints the fraction of
//! feasible configurations, reproducing the qualitative landscape implied
//! by the paper's Section 3: symmetry in both topology *and* timing kills
//! feasibility; distinct timing nearly always rescues it.
//!
//! ```sh
//! cargo run --release --example feasibility_atlas
//! ```

use anon_radio_repro::prelude::*;
use radio_graph::tags;
use radio_util::rng::{derive, rng_from, DEFAULT_ROOT_SEED};
use radio_util::table::Table;

const TRIALS: usize = 30;

fn main() {
    let strategies: Vec<&str> = vec!["uniform", "coin-flip σ=1", "random σ=3", "distinct"];
    let mut table = Table::new(
        format!("feasible fraction over {TRIALS} seeds (n = 12)"),
        &[
            "family",
            strategies[0],
            strategies[1],
            strategies[2],
            strategies[3],
        ],
    );

    type GraphMaker = Box<dyn Fn() -> Csr>;
    let families: Vec<(&str, GraphMaker)> = vec![
        ("path", Box::new(|| generators::path(12))),
        ("cycle", Box::new(|| generators::cycle(12))),
        ("star", Box::new(|| generators::star(12))),
        ("grid 3×4", Box::new(|| generators::grid(3, 4))),
        ("complete", Box::new(|| generators::complete(12))),
        ("binary tree", Box::new(|| generators::balanced_tree(12, 2))),
    ];

    for (name, make) in &families {
        let mut row = vec![name.to_string()];
        for strategy in &strategies {
            let mut feasible = 0usize;
            for trial in 0..TRIALS {
                let seed = derive(
                    DEFAULT_ROOT_SEED,
                    &format!("atlas/{name}/{strategy}/{trial}"),
                );
                let mut rng = rng_from(seed);
                let config = match *strategy {
                    "uniform" => tags::uniform((make)(), 0),
                    "coin-flip σ=1" => tags::coin_flip((make)(), 1, &mut rng),
                    "random σ=3" => tags::random_in_span((make)(), 3, &mut rng),
                    "distinct" => tags::distinct_shuffled((make)(), &mut rng),
                    _ => unreachable!(),
                };
                if is_feasible(&config) {
                    feasible += 1;
                }
            }
            row.push(format!("{:.2}", feasible as f64 / TRIALS as f64));
        }
        table.push_row(row);
    }

    println!("{}", table.to_markdown());
    println!("reading: 0.00 = never feasible, 1.00 = always. Uniform wake-ups are never");
    println!("feasible (no symmetry breaker at all); distinct wake-ups almost always are.");
}
