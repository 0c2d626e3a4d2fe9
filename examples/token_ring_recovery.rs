//! Token-ring recovery — the scenario that motivated leader election in the
//! first place (Le Lann 1977, cited as the paper's origin story).
//!
//! A ring of identical radio stations coordinates medium access by
//! circulating a token; the station holding the token transmits. After a
//! power incident the token is lost and the stations crash-reboot at
//! slightly different times. Nobody has an id — the *reboot times* are the
//! only asymmetry. This example uses the paper's machinery to (a) check
//! the reboot pattern actually breaks the ring's symmetry, and (b) elect
//! the new token owner, narrating the radio traffic.
//!
//! ```sh
//! cargo run --example token_ring_recovery
//! ```

use anon_radio_repro::prelude::*;

fn main() {
    let n = 8;
    // Reboot rounds measured by the (invisible) global clock. Two stations
    // happen to reboot simultaneously — fine, as long as the multiset of
    // wake-ups breaks every rotational/reflective symmetry of the ring.
    let reboot_rounds = vec![3, 0, 2, 5, 0, 4, 1, 2];
    let ring = generators::cycle(n);
    let config = Configuration::new(ring, reboot_rounds).expect("valid configuration");

    println!(
        "ring of {n} anonymous stations, reboot rounds {:?}",
        config.tags()
    );
    println!("span σ = {} (largest reboot offset)", config.span());
    println!();

    match solve(&config) {
        Err(infeasible) => {
            println!("cannot recover a token owner: {infeasible}");
            println!("(the reboot pattern left the ring symmetric — wait for another reboot)");
        }
        Ok(dedicated) => {
            println!(
                "recovery is possible; dedicated protocol has {} phase(s), \
                 every station done after {} local rounds",
                dedicated.schedule().phases(),
                dedicated.schedule().done_local(),
            );

            // Narrate the radio traffic of the recovery.
            let factory = dedicated.factory();
            let execution = Executor::run(&config, &factory, RunOpts::default().traced())
                .expect("canonical DRIP terminates");
            let trace = execution.trace.as_ref().expect("tracing enabled");
            println!("radio traffic ({} eventful rounds):", trace.events.len());
            for event in trace.events.iter().take(12) {
                println!("  {}", event.render());
            }
            if trace.events.len() > 12 {
                println!("  … {} more", trace.events.len() - 12);
            }

            let report = dedicated
                .run_in(
                    &mut SimWorkspace::new(),
                    &config,
                    ModelKind::default(),
                    RunOpts::default(),
                )
                .expect("feasible rings elect exactly one owner");
            println!();
            println!(
                "station v{} holds the new token (elected in {} global rounds, {} transmissions)",
                report.leader, report.completion_round, report.transmissions
            );
        }
    }

    // For contrast: a perfectly synchronized reboot is unrecoverable.
    println!();
    let synced = Configuration::with_uniform_tags(generators::cycle(n), 0).unwrap();
    println!(
        "if all {n} stations had rebooted in the same round: feasible? {}",
        is_feasible(&synced)
    );
}
