//! Smoke mode: every workload at toy size, untraced and traced, passes its
//! own output checks and prints exactly the metrics `BENCHMARK.json` names.

use radio_perfbench::{run, Outcome, Settings, Workload};

/// Metric names listed under `section` in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> Outcome {
    let outcome = run(&Settings {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        smoke: true,
        trace_out: None,
    });
    assert!(
        outcome.correct(),
        "{} (trace {trace}): {:?}",
        workload.name(),
        outcome.failures
    );
    assert!(outcome.attempted > 0);
    let names: Vec<String> = outcome.metrics.iter().map(|m| m.name.to_string()).collect();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(names, listed(section), "{} metrics", workload.name());
    let json = outcome.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    outcome
}

#[test]
fn every_workload_passes_untraced() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, false);
        for m in &outcome.metrics {
            assert!(
                m.value > 0.0,
                "{} {} should be positive",
                workload.name(),
                m.name
            );
        }
    }
}

#[test]
fn every_workload_passes_traced() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, true);
        let value = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric present")
        };
        // `schedule.compile_s` is a difference of two timings and may read
        // below 0 on toy inputs, so only the spans it comes from are checked.
        for layer in [
            "graph.generate_s",
            "classifier.classify_s",
            "sim.simulate_s",
            "schedule.phases",
            "sim.node_rounds",
        ] {
            assert!(value(layer) > 0.0, "{} {layer}", workload.name());
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_elections() {
    let digest = |seed| {
        let outcome = run(&Settings {
            workload: Workload::ElectSparse,
            seed,
            seconds: 0.0,
            trace: false,
            smoke: true,
            trace_out: None,
        });
        outcome
            .notes
            .iter()
            .find_map(|n| n.split("election digest ").nth(1).map(str::to_string))
            .expect("digest note")
    };
    assert_eq!(digest(3), digest(3));
    assert_ne!(digest(3), digest(4));
}
