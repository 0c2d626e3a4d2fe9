//! A deliberately naive reference executor for differential testing.
//!
//! [`run_reference`] implements the radio model with no optimizations at
//! all: every global round it scans *every* node, recomputes its state
//! from first principles, and counts transmitting neighbours by walking
//! the adjacency list of every node. No visit calendar, no round-stamped
//! counters, no tag-sorted wake sweep, no observation arena — just the
//! model's definition, transcribed over plain per-node `Vec`s.
//!
//! Like the optimized engine it is generic over the channel semantics:
//! [`run_reference_model`] accepts any [`RadioModel`], and the two engines
//! must produce byte-identical executions under *every* model; the
//! property suite checks this across random configurations and protocols.
//! When the two engines disagree, the naive one is almost certainly right
//! — that is the point.

use radio_graph::{Configuration, NodeId};

use crate::drip::DripFactory;
use crate::engine::{ExecStats, Execution, RunOpts, SimError};
use crate::history::History;
use crate::model::{record_listener_obs, NoCollisionDetection, RadioModel};
use crate::msg::{Action, Msg};

/// Runs `factory`'s DRIP on `config` with the naive engine under the
/// paper's model. Options are honoured except `record_trace` (the
/// reference engine keeps no trace) and `leap` (the reference engine
/// executes every round one by one, always — it is the oracle the
/// time-leap scheduler is differenced against, so it must never leap).
pub fn run_reference(
    config: &Configuration,
    factory: &dyn DripFactory,
    opts: RunOpts,
) -> Result<Execution, SimError> {
    run_reference_model::<NoCollisionDetection>(config, factory, opts)
}

/// [`run_reference`] under an explicit channel model `M`.
pub fn run_reference_model<M: RadioModel>(
    config: &Configuration,
    factory: &dyn DripFactory,
    opts: RunOpts,
) -> Result<Execution, SimError> {
    let n = config.size();
    let graph = config.csr();

    #[derive(PartialEq)]
    enum State {
        Asleep,
        Awake,
        Done,
    }

    let mut nodes: Vec<Box<dyn crate::drip::DripNode>> = (0..n).map(|_| factory.spawn()).collect();
    let mut state: Vec<State> = (0..n).map(|_| State::Asleep).collect();
    let mut histories: Vec<History> = vec![History::new(); n];
    let mut wake: Vec<u64> = vec![u64::MAX; n];
    let mut done: Vec<u64> = vec![u64::MAX; n];
    let mut stats = ExecStats::default();
    let mut rounds = 0u64;

    let mut r = 0u64;
    loop {
        if state.iter().all(|s| *s == State::Done) {
            break;
        }
        if r >= opts.max_rounds {
            let still = state.iter().filter(|s| **s != State::Done).count();
            return Err(SimError::RoundLimit {
                max_rounds: opts.max_rounds,
                still_running: still,
            });
        }

        // 1. Every awake node that woke before this round decides.
        let mut actions: Vec<Option<Action>> = vec![None; n];
        for v in 0..n {
            if state[v] == State::Awake && wake[v] < r {
                actions[v] = Some(nodes[v].decide(histories[v].view()));
            }
        }

        // 2. Who transmits?
        let transmits: Vec<Option<Msg>> = actions
            .iter()
            .map(|a| match a {
                Some(Action::Transmit(m)) => Some(*m),
                _ => None,
            })
            .collect();
        stats.transmissions += transmits.iter().flatten().count() as u64;

        // 3. What does each node perceive? (Recomputed from scratch.)
        let perceive = |v: usize| -> (u32, Msg) {
            let mut count = 0u32;
            let mut msg = Msg(0);
            for &w in graph.neighbors(v as NodeId) {
                if let Some(m) = transmits[w as usize] {
                    count += 1;
                    msg = m;
                }
            }
            // Pin the model-hook contract (`RadioModel`): `msg` carries
            // content only for a clean single transmission. This keeps the
            // two engines bit-identical for any model, including ones that
            // (incorrectly) read `msg` outside `count == 1`.
            if count != 1 {
                msg = Msg(0);
            }
            (count, msg)
        };

        // 4. Deliver to awake actors, as the model dictates.
        for v in 0..n {
            match actions[v] {
                Some(Action::Transmit(_)) => histories[v].push(crate::msg::Obs::Silence),
                Some(Action::Listen) => {
                    let (count, msg) = perceive(v);
                    let obs = M::listener_obs(count, msg);
                    record_listener_obs(obs, &mut stats);
                    histories[v].push(obs);
                }
                Some(Action::Terminate) => {
                    state[v] = State::Done;
                    done[v] = r;
                }
                None => {}
            }
        }

        // 5. Wake-ups: forced first (the model decides what channel
        //    activity wakes a sleeper), then spontaneous at the tag round.
        for v in 0..n {
            if state[v] != State::Asleep {
                continue;
            }
            let (count, msg) = perceive(v);
            let forced = if count >= 1 {
                M::wake_obs(count, msg)
            } else {
                None
            };
            if let Some(obs) = forced {
                state[v] = State::Awake;
                wake[v] = r;
                histories[v].push(obs);
                stats.forced_wakeups += 1;
            } else if config.tag(v as NodeId) == r {
                state[v] = State::Awake;
                wake[v] = r;
                histories[v].push(crate::msg::Obs::Silence);
            }
        }

        rounds = r + 1;
        r += 1;
    }

    Ok(Execution {
        wake_round: wake,
        done_round: done,
        histories,
        rounds,
        // The reference engine never leaps: that is what makes it the
        // step-by-step oracle the leaping engine is differenced against.
        rounds_stepped: rounds,
        rounds_leapt: 0,
        stats,
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drip::{BeaconFactory, EchoFactory, SilentFactory, WaitThenTransmitFactory};
    use crate::engine::Executor;
    use crate::model::ModelKind;
    use crate::patient::PatientFactory;
    use radio_graph::generators;

    fn assert_engines_agree(config: &Configuration, factory: &dyn DripFactory) {
        for kind in ModelKind::ALL {
            let fast = kind.run(config, factory, RunOpts::default()).unwrap();
            let naive = kind
                .run_reference(config, factory, RunOpts::default())
                .unwrap();
            assert_eq!(
                fast.wake_round, naive.wake_round,
                "{config} [{kind}]: wake rounds"
            );
            assert_eq!(
                fast.done_round, naive.done_round,
                "{config} [{kind}]: done rounds"
            );
            assert_eq!(
                fast.histories, naive.histories,
                "{config} [{kind}]: histories"
            );
            assert_eq!(fast.rounds, naive.rounds, "{config} [{kind}]: round count");
            assert_eq!(fast.stats, naive.stats, "{config} [{kind}]: stats");
        }
    }

    #[test]
    fn engines_agree_on_fixed_scenarios() {
        let configs = vec![
            Configuration::new(generators::path(3), vec![0, 5, 5]).unwrap(),
            Configuration::new(generators::star(4), vec![0, 1, 1, 1]).unwrap(),
            Configuration::new(generators::star(3), vec![9, 0, 0]).unwrap(), // sleeping-collision case
            Configuration::with_uniform_tags(generators::cycle(5), 2).unwrap(),
            radio_graph::families::h_m(3),
            radio_graph::families::g_m(2),
        ];
        for config in &configs {
            assert_engines_agree(config, &SilentFactory { lifetime: 6 });
            assert_engines_agree(
                config,
                &WaitThenTransmitFactory {
                    wait: 0,
                    msg: Msg(4),
                    lifetime: 12,
                },
            );
            assert_engines_agree(
                config,
                &BeaconFactory {
                    start: 1,
                    lifetime: 5,
                    msg: Msg(2),
                },
            );
            assert_engines_agree(config, &EchoFactory { lifetime: 15 });
            assert_engines_agree(
                config,
                &PatientFactory::new(
                    WaitThenTransmitFactory {
                        wait: 1,
                        msg: Msg(3),
                        lifetime: 10,
                    },
                    config.span(),
                ),
            );
        }
    }

    #[test]
    fn engines_agree_on_round_limit_errors() {
        let config = Configuration::new(generators::path(2), vec![0, 0]).unwrap();
        let opts = RunOpts::with_max_rounds(5);
        let fast = Executor::run(&config, &SilentFactory { lifetime: 100 }, opts).unwrap_err();
        let naive = run_reference(&config, &SilentFactory { lifetime: 100 }, opts).unwrap_err();
        assert_eq!(fast, naive);
    }
}
