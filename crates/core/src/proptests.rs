//! Property-based tests of the canonical schedule, the decision function,
//! the streaming simulate step against it, off-schedule robustness
//! (failure injection), and the row and request parsers under hostile
//! input.

use proptest::prelude::*;

use radio_graph::{generators, Configuration};
use radio_sim::{Executor, RunOpts};

use crate::canonical::tests::assert_streaming_matches_the_oracle;
use crate::canonical::CanonicalFactory;
use crate::decision::LeaderDecision;
use crate::row::{binary_to_jsonl, jsonl_to_binary, CampaignRow};
use crate::schedule::CanonicalSchedule;
use crate::serve::JobRequest;

fn build_config(n: usize, extra: usize, span: u64, seed: u64) -> Configuration {
    let mut rng = radio_util::rng::rng_from(seed);
    let max_extra = n * (n - 1) / 2 - n.saturating_sub(1);
    let g = generators::random_connected(n, extra.min(max_extra), &mut rng);
    radio_graph::tags::random_in_span(g, span, &mut rng)
}

fn config_strategy() -> impl Strategy<Value = Configuration> {
    (1usize..10, 0usize..6, 0u64..5, any::<u64>())
        .prop_map(|(n, extra, span, seed)| build_config(n, extra, span, seed))
}

/// Connected configurations with n ≤ 24 — random graphs, paths and
/// cycles — and a span of 0, a draw ≤ 8 or a draw ≤ 200. Tags are drawn
/// in the span, or from `{0, σ}`, or are σ on one run of consecutive
/// nodes and 0 elsewhere (`G_m`'s pattern): the last two keep paths and
/// cycles symmetric enough to need several phases. Larger spans do not
/// fit the dense oracle's stored histories.
fn sim_config_strategy() -> impl Strategy<Value = Configuration> {
    (
        1usize..=24,
        0u8..3,
        0usize..12,
        0u8..3,
        0u8..3,
        any::<u64>(),
    )
        .prop_map(|(n, shape, extra, budget, pattern, seed)| {
            use rand::Rng;
            let span = match budget {
                0 => 0,
                1 => seed % 9,
                _ => seed % 201,
            };
            let mut rng = radio_util::rng::rng_from(seed);
            let g = match shape {
                0 => {
                    let max_extra = n * (n - 1) / 2 - (n - 1);
                    generators::random_connected(n, extra.min(max_extra), &mut rng)
                }
                1 => generators::path(n),
                _ if n >= 3 => generators::cycle(n),
                _ => generators::path(n),
            };
            let tags = match pattern {
                0 => return radio_graph::tags::random_in_span(g, span, &mut rng),
                1 => (0..n)
                    .map(|_| if rng.random() { span } else { 0 })
                    .collect(),
                _ => {
                    let lo = rng.random_range(0..n);
                    let hi = rng.random_range(lo..=n);
                    (0..n)
                        .map(|v| if (lo..hi).contains(&v) { span } else { 0 })
                        .collect()
                }
            };
            Configuration::new(g, tags).expect("connected")
        })
}

/// The golden row corpus: every line is a canonical row.
const GOLDEN: [&str; 2] = [
    include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/campaign_elect.jsonl"
    )),
    include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/campaign_classify.jsonl"
    )),
];

/// Valid request lines: every op, the drawn and inline config routes, and
/// the escapes (`\n`, `\u00e9`, a surrogate pair) a client may send.
const REQUESTS: [&str; 4] = [
    r#"{"op":"elect","id":7,"family":"path","n":6,"span":3,"tags":"arith:2","seed":9,"model":"beep","max_rounds":100,"no_leap":true}"#,
    r##"{"op":"classify","id":1,"config":"# \u00e9 \ud83d\ude00\nconfig 2 1\ntags 0 5\nedge 0 1\n"}"##,
    r#"{"op":"campaign-cell","id":3,"phase":"classify","family":"grid:3x2","span":4,"reps":3}"#,
    r#"{"op":"shutdown","id":9}"#,
];

/// What a hostile edit writes: JSON structure, escapes, number spellings,
/// a NUL and multi-byte characters.
const EDIT_CHARS: [char; 19] = [
    '{', '}', '[', ']', ':', ',', '"', '\\', 'u', '0', '1', '9', '-', 'e', '.', 'n', '\0', 'é',
    '😀',
];

/// Applies `(kind, position, character)` edits at char boundaries: kind 0
/// inserts, 1 deletes, 2 replaces.
fn mutate(text: &str, edits: &[(u8, u32, usize)]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for &(kind, at, c) in edits {
        let at = at as usize;
        match kind {
            0 => chars.insert(at % (chars.len() + 1), EDIT_CHARS[c]),
            _ if chars.is_empty() => {}
            1 => {
                chars.remove(at % chars.len());
            }
            _ => {
                let i = at % chars.len();
                chars[i] = EDIT_CHARS[c];
            }
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn hostile_rows_and_requests_never_panic(
        pick in 0usize..4096,
        edits in proptest::collection::vec((0u8..3, any::<u32>(), 0usize..EDIT_CHARS.len()), 1..6),
    ) {
        let inputs: Vec<&str> = GOLDEN.iter().flat_map(|c| c.lines()).chain(REQUESTS).collect();
        let original = inputs[pick % inputs.len()];
        if REQUESTS.contains(&original) {
            prop_assert!(JobRequest::parse(original).is_ok(), "{}", original);
        } else {
            prop_assert!(CampaignRow::parse_jsonl(original).is_ok(), "{}", original);
        }
        let text = mutate(original, &edits);
        // A panic in any of these fails the test.
        let _ = JobRequest::parse(&text);
        let parsed = CampaignRow::parse_jsonl(&text);
        let binary = jsonl_to_binary(&text);
        prop_assert_eq!(parsed.is_ok(), binary.is_ok(), "{}", text);
        if let (Ok(row), Ok(binary)) = (parsed, binary) {
            // An accepted row is canonical: it re-renders to its own bytes.
            prop_assert_eq!(row.to_jsonl(), text.clone());
            prop_assert_eq!(binary_to_jsonl(&binary).expect("own encoding decodes"), text + "\n");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streaming_elects_exactly_like_the_oracle(
        config in sim_config_strategy(),
        other in sim_config_strategy(),
        foreign in any::<bool>(),
    ) {
        // The streaming simulate step must produce the leaders `f_G`
        // reads off the dense histories, and the same run shape, under
        // every channel model, leaping or not — on its own configuration
        // and, with a foreign schedule, off schedule. Campaign `elected`
        // counts under cd and beep come from these claims, so this is
        // their guard.
        let mut cls = radio_classifier::ClassifierWorkspace::new();
        let mut sim = radio_sim::SimWorkspace::new();
        let compiled_on = if foreign { &other } else { &config };
        let compiled = crate::CompiledElection::compile_in(&mut cls, compiled_on);
        let limit = RunOpts::default().max_rounds;
        let limited = assert_streaming_matches_the_oracle(&compiled, &config, &mut sim, limit);
        prop_assert_eq!(limited, 0, "{}", config);
    }
}

#[test]
fn streaming_elects_like_the_oracle_on_multi_phase_families() {
    // G_m runs T = m phases, so every node's cursor crosses full tries
    // for phases 1 … T−1 before the leader-only path of phase T.
    let mut cls = radio_classifier::ClassifierWorkspace::new();
    let mut sim = radio_sim::SimWorkspace::new();
    for m in 2..=5 {
        let config = radio_graph::families::g_m(m);
        let compiled = crate::CompiledElection::compile_in(&mut cls, &config);
        assert_eq!(compiled.schedule().phases(), m, "{config}");
        let limit = RunOpts::default().max_rounds;
        let limited = assert_streaming_matches_the_oracle(&compiled, &config, &mut sim, limit);
        assert_eq!(limited, 0, "{config}");
    }
}

#[test]
fn streaming_and_oracle_stop_at_the_same_round_limit() {
    let config = radio_graph::families::g_m(3);
    let mut cls = radio_classifier::ClassifierWorkspace::new();
    let compiled = crate::CompiledElection::compile_in(&mut cls, &config);
    let half = compiled.rounds_bound() / 2;
    let mut sim = radio_sim::SimWorkspace::new();
    let limited = assert_streaming_matches_the_oracle(&compiled, &config, &mut sim, half);
    assert_eq!(
        limited, 6,
        "every model and leap mode stops at round {half}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedule_geometry_invariants(config in config_strategy()) {
        let (outcome, schedule) = CanonicalSchedule::build(&config);
        let sigma = config.span();
        prop_assert_eq!(schedule.sigma, sigma);
        prop_assert_eq!(schedule.phases(), outcome.iterations);
        prop_assert_eq!(schedule.phase_end(0), 0);
        for j in 1..=schedule.phases() {
            // phase j spans blocks_j·(2σ+1)+σ rounds
            let width = schedule.blocks(j) * (2 * sigma + 1) + sigma;
            prop_assert_eq!(schedule.phase_end(j), schedule.phase_end(j - 1) + width);
            // transmit rounds lie strictly inside the block region
            for k in 1..=schedule.blocks(j) as u32 {
                let t = schedule.transmit_round(j, k);
                prop_assert!(t > schedule.phase_end(j - 1));
                prop_assert!(t <= schedule.phase_end(j - 1) + schedule.blocks(j) * (2 * sigma + 1));
            }
        }
        prop_assert_eq!(schedule.done_local(), schedule.phase_end(schedule.phases()) + 1);
    }

    #[test]
    fn decision_replay_matches_classifier_classes(config in config_strategy()) {
        let (outcome, schedule) = CanonicalSchedule::build(&config);
        let shared = std::sync::Arc::new(schedule);
        let factory = CanonicalFactory::new(shared.clone());
        let ex = Executor::run(&config, &factory, RunOpts::default()).unwrap();
        let decision = LeaderDecision::new(shared);
        let partition = outcome.final_partition();
        for v in 0..config.size() as u32 {
            prop_assert_eq!(
                decision.final_class(ex.history(v)),
                Some(partition.class_of(v)),
                "node {} of {}", v, config
            );
        }
    }

    #[test]
    fn foreign_schedules_never_panic_and_terminate(
        config_a in config_strategy(),
        config_b in config_strategy(),
    ) {
        // Failure injection: install A's dedicated DRIP on configuration B.
        // Nodes may go off-schedule (silent-observer mode) but every node
        // must terminate at A's done_local, and the decision function must
        // mark at most... anything — but never panic.
        let (_, schedule) = CanonicalSchedule::build(&config_a);
        let done = schedule.done_local();
        let shared = std::sync::Arc::new(schedule);
        let factory = CanonicalFactory::new(shared.clone());
        let ex = Executor::run(&config_b, &factory, RunOpts::default()).unwrap();
        let decision = LeaderDecision::new(shared);
        for v in 0..config_b.size() as u32 {
            prop_assert_eq!(ex.done_local(v), done);
            let _ = decision.is_leader(ex.history(v)); // must not panic
        }
    }

    #[test]
    fn canonical_transmission_budget_is_phases_times_n(config in config_strategy()) {
        // Every node transmits exactly once per phase on its own
        // configuration (Lemma 3.7 consequence).
        let (outcome, schedule) = CanonicalSchedule::build(&config);
        let factory = CanonicalFactory::new(std::sync::Arc::new(schedule));
        let ex = Executor::run(&config, &factory, RunOpts::default()).unwrap();
        prop_assert_eq!(
            ex.stats.transmissions,
            (config.size() * outcome.iterations) as u64
        );
    }
}
