//! Quickstart: decide feasibility and elect a leader on a small anonymous
//! radio network.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use anon_radio_repro::prelude::*;

fn main() {
    // A 6-node path where nodes wake up at staggered times. Wake-up time is
    // the ONLY symmetry breaker available in this model — nodes have no ids.
    let graph = generators::path(6);
    let config = Configuration::new(graph, vec![0, 2, 1, 4, 0, 3]).expect("valid configuration");
    println!("configuration: {config}");
    println!("tags by node:  {:?}", config.tags());

    // 1. Feasibility (Theorem 3.17): polynomial-time central decision.
    if !is_feasible(&config) {
        println!("leader election is IMPOSSIBLE here — no algorithm can break the symmetry");
        return;
    }
    println!("feasible: yes — compiling the dedicated algorithm");

    // 2. Compile the dedicated algorithm (D_G, f_G) (Theorem 3.15)…
    let dedicated = solve(&config).expect("checked feasible above");
    println!(
        "canonical DRIP: {} phase(s), terminates at local round {}",
        dedicated.schedule().phases(),
        dedicated.schedule().done_local()
    );
    println!(
        "classifier predicts leader: v{}",
        dedicated.predicted_leader()
    );

    // 3. …and run it in the radio-model simulator, under the paper's
    //    channel model.
    let report = dedicated
        .run_in(
            &mut SimWorkspace::new(),
            &config,
            ModelKind::default(),
            RunOpts::default(),
        )
        .expect("dedicated algorithms elect exactly one leader");
    println!(
        "elected leader: v{} (n = {}, σ = {}, {} transmissions, all nodes done by global round {})",
        report.leader, report.n, report.sigma, report.transmissions, report.completion_round
    );

    // A fully symmetric configuration, for contrast: everyone wakes at once.
    let symmetric =
        Configuration::with_uniform_tags(generators::cycle(5), 0).expect("valid configuration");
    println!();
    println!(
        "contrast — {symmetric}: feasible? {}",
        is_feasible(&symmetric)
    );
    println!("(with identical wake-ups, all nodes transmit or listen in lock-step forever)");
}
