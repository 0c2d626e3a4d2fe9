//! The round-by-round executor of the radio model.
//!
//! [`Executor::run`] plays a [`DripFactory`] on a
//! [`radio_graph::Configuration`] and produces an
//! [`Execution`]: per-node histories, wake and termination rounds, and
//! aggregate statistics. The engine is fully deterministic — same
//! configuration, DRIP, and channel model, same execution, bit for bit.
//!
//! Channel semantics are pluggable: [`Executor::run_model`] is generic
//! over a [`RadioModel`], which decides what listeners perceive and what
//! wakes sleepers. [`Executor::run`] is the paper's model
//! ([`NoCollisionDetection`]).
//!
//! # Round anatomy (global round `r`)
//!
//! 1. **Decide** — every node *due* in round `r` (see below) computes its
//!    action from its history (its local round is `r − wake`).
//! 2. **Transmit** — transmitters are collected; for every neighbour of a
//!    transmitter the engine counts transmitting neighbours (round-stamped
//!    counters, no per-round clearing). An awake neighbour that is deaf
//!    ([`DripNodes::deaf`](crate::drip::DripNodes::deaf): nothing it hears
//!    can change it) is skipped, so steps 3 and 4 deliver nothing to it;
//!    a sleeping one is always counted, since the transmission may wake
//!    it. Boxed nodes are never deaf.
//! 3. **Deliver** — transmitters record silence (they hear nothing);
//!    listeners record what [`RadioModel::listener_obs`] dictates — the
//!    deciders that chose to listen, and every other awake neighbour of a
//!    transmitter, which listens under its quiet claim; terminators are
//!    retired.
//! 4. **Forced wake-ups** — sleeping neighbours of transmitters wake
//!    exactly when [`RadioModel::wake_obs`] says so, with the entry it
//!    returns as `H[0]`. Under the default model that is "exactly one
//!    message heard" and sleeping nodes under a collision stay asleep
//!    (noise is not a message).
//! 5. **Spontaneous wake-ups** — sleeping nodes whose tag equals `r` wake
//!    with `H[0] = (∅)`.
//! 6. **Reschedule** — every node that decided or woke in round `r`, and
//!    every node that heard something there and says its horizon may have
//!    moved ([`DripNodes::observe`](crate::drip::DripNodes::observe)), is
//!    re-asked for its horizon with its end-of-round history, which sets
//!    the next round it is due in.
//!
//! Step 4 runs before step 5 so a message arriving exactly in a node's tag
//! round yields the forced-style `H[0] = (M)` — in every model.
//!
//! # Activity-proportional scheduling
//!
//! Real workloads are dominated by silence (the patient transform listens
//! for σ rounds; the canonical schedule transmits once per node per phase
//! and listens through σ-wide gaps), so the engine visits a node only when
//! it acts or hears. A round-bucketed calendar files every node under its
//! wake-up tag at the start of the run, and every awake node under its
//! next due round:
//!
//! * an entry whose node is still asleep when its round comes is that
//!   node's spontaneous wake-up (step 5, after the forced ones);
//! * after a visit the node is asked
//!   [`DripNode::quiet_until`](crate::drip::DripNode::quiet_until); a
//!   claim `q` files it under its local round `q` — its transmit slot,
//!   phase entry or termination — and no claim files it under the next
//!   round;
//! * in between it is not visited at all, unless a neighbour's
//!   transmission reaches it: it records what it hears (without deciding:
//!   it listens by its claim), and it is re-asked at the end of that round
//!   only if [`DripNodes::observe`](crate::drip::DripNodes::observe) says
//!   its horizon may have moved (boxed nodes always; the canonical DRIP's
//!   flat nodes never, since hearing does not move their horizon);
//! * the silent rounds a node spends unvisited are appended to its history
//!   in one go on its next visit (padded with `(∅)` up to its local
//!   round); nodes that keep no stored history need nothing, since their
//!   history length is the global round less their wake round.
//!
//! The calendar files the rounds less than
//! [`RING_ROUNDS`](crate::workspace::RING_ROUNDS) ahead of its next round
//! in a ring of buckets with an occupancy mask, and later ones in an
//! ordered map of buckets. The engine executes only rounds in which some
//! node is due or a wake-up tag falls, and skips straight from one to the
//! next. A round counts as *stepped* iff some node decides in it or some
//! node's tag equals it (including the tag of a node a message already
//! woke); every other round is *leapt*. Work is therefore O(visits) — for the canonical DRIP
//! O(n + (n + m)·T) over T phases — instead of O(stepped rounds × n).
//!
//! Leaping is a pure wall-clock optimization: the resulting [`Execution`]
//! (histories, wake/done rounds, stats, trace round numbers and event
//! lists) is bit-identical to the naive reference engine's
//! ([`crate::engine_ref`], which executes every round and scans every
//! node in it) — the differential suite enforces this. Only
//! [`Execution::rounds_stepped`] / [`Execution::rounds_leapt`] and the work
//! counters of [`ResidentRun`](crate::ResidentRun) reveal the difference.
//!
//! # Hot-loop memory layout
//!
//! All per-node engine state is struct-of-arrays. Nodes that read their
//! histories ([`DripNodes::READS_HISTORY`](crate::drip::DripNodes::READS_HISTORY))
//! get one [`History`] each, as the reference engine keeps them: a
//! node's history reaches its DRIP as a borrowed
//! [`HistoryView`](crate::HistoryView) of it, and the [`Execution`] takes
//! the histories over when the run ends, without copying them. Nodes that
//! do not read their histories get no storage at all. The calendar's ring
//! buckets keep their capacity from run to run, so steady-state rounds
//! allocate nothing but history growth and the far-future map's
//! occasional node, and only rounds at least
//! [`RING_ROUNDS`](crate::workspace::RING_ROUNDS) ahead reach that map.
//!
//! # Batch execution
//!
//! The run loop itself lives in [`SimWorkspace`],
//! which owns all of the state above and recycles it across runs;
//! [`Executor`] is the stateless one-shot façade (a fresh workspace per
//! call). Batch workloads — [`crate::parallel`], the campaign layer —
//! keep one long-lived workspace per worker thread instead.

use radio_graph::{Configuration, NodeId};

use crate::drip::DripFactory;
use crate::history::History;
use crate::model::{NoCollisionDetection, RadioModel};
use crate::msg::Obs;
use crate::trace::Trace;
use crate::workspace::SimWorkspace;

/// Execution limits and instrumentation switches.
///
/// How histories are stored is not an option: it follows the nodes being
/// run ([`DripNodes::READS_HISTORY`](crate::drip::DripNodes::READS_HISTORY)).
/// Boxed nodes spawned from a factory get full histories; nodes that fold
/// what they hear online get lengths only.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Abort with [`SimError::RoundLimit`] if any node is still running
    /// once exactly this many global rounds (`0..max_rounds`) have been
    /// played. `max_rounds` itself is never executed.
    pub max_rounds: u64,
    /// Record a [`Trace`] of eventful rounds.
    pub record_trace: bool,
}

impl Default for RunOpts {
    fn default() -> RunOpts {
        RunOpts {
            max_rounds: 50_000_000,
            record_trace: false,
        }
    }
}

impl RunOpts {
    /// Default options with a custom round limit.
    pub fn with_max_rounds(max_rounds: u64) -> RunOpts {
        RunOpts {
            max_rounds,
            ..Default::default()
        }
    }

    /// Enables trace recording.
    pub fn traced(mut self) -> RunOpts {
        self.record_trace = true;
        self
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The DRIP did not terminate on every node within `max_rounds`.
    RoundLimit {
        /// The configured limit that was hit.
        max_rounds: u64,
        /// Number of nodes still not terminated.
        still_running: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::RoundLimit {
                max_rounds,
                still_running,
            } => write!(
                f,
                "round limit {max_rounds} reached with {still_running} node(s) still running"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate counters over one execution.
///
/// The two delivery counters count what awake listeners received. On an
/// [`Execution`] (every run of a factory's nodes, and every run of the
/// reference engine) that is every delivery the channel carries. On a
/// [`ResidentRun`](crate::ResidentRun) it is the deliveries the engine
/// made: a node that says it is deaf ([`DripNodes::deaf`]) is delivered
/// nothing, so there the counters may fall short of the channel's.
///
/// [`DripNodes::deaf`]: crate::drip::DripNodes::deaf
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total transmissions over all nodes and rounds.
    pub transmissions: u64,
    /// Total messages delivered to awake listeners.
    pub messages_received: u64,
    /// Total collision/noise observations delivered to awake listeners
    /// (`(∗)` plus, under carrier-sensing models, `(~)`).
    pub collisions_observed: u64,
    /// Number of nodes woken by channel activity rather than their tag
    /// (a message under the default model; possibly noise under others).
    pub forced_wakeups: u64,
}

/// The result of running a DRIP on a configuration.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Global round in which each node woke.
    pub wake_round: Vec<u64>,
    /// Global round in which each node decided `terminate`.
    pub done_round: Vec<u64>,
    /// Final local history of each node.
    pub histories: Vec<History>,
    /// Number of global rounds simulated (index of the last eventful round
    /// plus one).
    pub rounds: u64,
    /// Global rounds in which some node decided or a wake-up tag fell.
    /// Always `rounds_stepped + rounds_leapt == rounds`.
    pub rounds_stepped: u64,
    /// Global rounds the time-leap scheduler skipped as provably quiet.
    pub rounds_leapt: u64,
    /// Aggregate counters.
    pub stats: ExecStats,
    /// Recorded trace, when requested via [`RunOpts::record_trace`].
    pub trace: Option<Trace>,
}

impl Execution {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.histories.len()
    }

    /// The local round in which node `v` terminated (the paper's
    /// `done_v`).
    pub fn done_local(&self, v: NodeId) -> u64 {
        self.done_round[v as usize] - self.wake_round[v as usize]
    }

    /// History of node `v`.
    pub fn history(&self, v: NodeId) -> &History {
        &self.histories[v as usize]
    }

    /// The wake-up observation `H[0]` of node `v`.
    pub fn wake_obs(&self, v: NodeId) -> Obs {
        self.histories[v as usize][0]
    }

    /// True if node `v` woke spontaneously (in its tag round, hearing
    /// nothing).
    pub fn woke_spontaneously(&self, v: NodeId) -> bool {
        self.wake_obs(v).is_silence()
    }

    /// Nodes grouped by identical history — the partition the whole theory
    /// revolves around. Groups are in first-seen order.
    ///
    /// Grouping is a single pass through an [`radio_util::FxHashMap`] keyed
    /// on the history contents (one hash of each node's observation
    /// segment), not a linear scan over existing groups per node.
    pub fn history_classes(&self) -> Vec<Vec<NodeId>> {
        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        let mut index: radio_util::FxHashMap<&History, usize> = radio_util::FxHashMap::default();
        for (v, h) in self.histories.iter().enumerate() {
            match index.get(h) {
                Some(&g) => groups[g].push(v as NodeId),
                None => {
                    index.insert(h, groups.len());
                    groups.push(vec![v as NodeId]);
                }
            }
        }
        groups
    }

    /// Nodes whose history is unique in the execution.
    pub fn unique_history_nodes(&self) -> Vec<NodeId> {
        self.history_classes()
            .into_iter()
            .filter(|g| g.len() == 1)
            .map(|g| g[0])
            .collect()
    }
}

/// The simulator. Stateless; [`Executor::run`] may be called freely from
/// multiple threads. Each call builds a fresh [`SimWorkspace`] — callers
/// running many simulations back to back should hold a workspace of their
/// own and call [`SimWorkspace::run`] instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct Executor;

impl Executor {
    /// Runs `factory`'s DRIP on `config` under the paper's channel model
    /// ([`NoCollisionDetection`]) until every node has terminated, or
    /// fails with [`SimError::RoundLimit`].
    pub fn run(
        config: &Configuration,
        factory: &dyn DripFactory,
        opts: RunOpts,
    ) -> Result<Execution, SimError> {
        Self::run_model::<NoCollisionDetection>(config, factory, opts)
    }

    /// [`Executor::run`] under an explicit channel model `M`.
    pub fn run_model<M: RadioModel>(
        config: &Configuration,
        factory: &dyn DripFactory,
        opts: RunOpts,
    ) -> Result<Execution, SimError> {
        SimWorkspace::new().run_model::<M>(config, factory, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drip::{BeaconFactory, EchoFactory, SilentFactory, WaitThenTransmitFactory};
    use crate::engine_ref::run_reference;
    use crate::model::{Beeping, CollisionDetection};
    use crate::msg::Msg;
    use radio_graph::{generators, Configuration};

    fn cfg(graph: radio_graph::Csr, tags: Vec<u64>) -> Configuration {
        Configuration::new(graph, tags).unwrap()
    }

    #[test]
    fn silent_drip_runs_and_terminates() {
        let c = cfg(generators::path(3), vec![0, 1, 2]);
        let ex = Executor::run(&c, &SilentFactory { lifetime: 4 }, RunOpts::default()).unwrap();
        assert_eq!(ex.wake_round, vec![0, 1, 2]);
        // each node terminates 4 local rounds after wake
        assert_eq!(ex.done_round, vec![4, 5, 6]);
        assert_eq!(ex.done_local(2), 4);
        assert!(ex.histories.iter().all(|h| h.all_silent()));
        assert_eq!(ex.stats.transmissions, 0);
        assert_eq!(ex.rounds, 7);
    }

    #[test]
    fn simultaneous_transmitters_hear_nothing() {
        // path 0-1-2, all awake at 0: everyone transmits in local round 1
        // (= global 1). The middle node has 2 transmitting neighbours but it
        // also transmits, so it hears nothing — the paper's "a node that
        // transmits in a given round does not hear anything".
        let c = cfg(generators::path(3), vec![0, 0, 0]);
        let ex = Executor::run(
            &c,
            &WaitThenTransmitFactory {
                wait: 0,
                msg: Msg(7),
                lifetime: 3,
            },
            RunOpts::default(),
        )
        .unwrap();
        assert_eq!(ex.stats.transmissions, 3);
        assert_eq!(ex.stats.messages_received, 0);
        assert_eq!(ex.stats.collisions_observed, 0);
        assert!(ex.histories.iter().all(|h| h.all_silent()));
    }

    #[test]
    fn staggered_transmission_delivers_message() {
        // node 0 wakes at 0 and transmits at global 1; nodes 1,2 wake at 5:
        // they are asleep during the transmission → node 1 is force-woken.
        let c = cfg(generators::path(3), vec![0, 5, 5]);
        let ex = Executor::run(
            &c,
            &WaitThenTransmitFactory {
                wait: 0,
                msg: Msg(9),
                lifetime: 8,
            },
            RunOpts::default(),
        )
        .unwrap();
        assert_eq!(ex.wake_round[1], 1, "forced wake-up at transmission round");
        assert_eq!(ex.wake_obs(1), Obs::Heard(Msg(9)));
        assert!(!ex.woke_spontaneously(1));
        // node 1, once awake, itself transmits in its local round 1
        // (global 2), force-waking node 2 well before its tag 5.
        assert_eq!(ex.wake_round[2], 2);
        assert_eq!(ex.wake_obs(2), Obs::Heard(Msg(9)));
        assert_eq!(ex.stats.forced_wakeups, 2);
    }

    #[test]
    fn collision_observed_by_listener() {
        // star: centre 0 (tag 0) with leaves 1,2,3 (tag 1). The centre
        // transmits at global 1 alone; the leaves are woken by it and all
        // transmit at global 2, while the centre listens → collision.
        let c = cfg(generators::star(4), vec![0, 1, 1, 1]);
        let ex = Executor::run(
            &c,
            &WaitThenTransmitFactory {
                wait: 0,
                msg: Msg(2),
                lifetime: 6,
            },
            RunOpts::default(),
        )
        .unwrap();
        // center transmits at global 1 (alone → leaves asleep get woken...
        // leaves are asleep at r=1 with tag 1: spontaneous wake also at 1.
        // Forced wake runs first: each leaf hears exactly one transmitter
        // (the center) → H[0]=(M).
        for leaf in 1..4 {
            assert_eq!(ex.wake_obs(leaf), Obs::Heard(Msg(2)));
            assert_eq!(ex.wake_round[leaf as usize], 1);
        }
        // leaves transmit at global 2 (their local round 1): center listens
        // and observes a collision (3 transmitting neighbours).
        assert_eq!(ex.history(0).get(2), Some(Obs::Collision));
        assert_eq!(ex.stats.collisions_observed, 1);
        let _ = c;
    }

    #[test]
    fn collisions_do_not_wake_sleepers() {
        // path 1-0-2 shape: use star(3): center 0, leaves 1,2. Leaves wake
        // at 0, transmit at global 1 simultaneously; center tag is 9. The
        // collision at the sleeping center must NOT wake it.
        let c = cfg(generators::star(3), vec![9, 0, 0]);
        let ex = Executor::run(
            &c,
            &WaitThenTransmitFactory {
                wait: 0,
                msg: Msg(1),
                lifetime: 12,
            },
            RunOpts::default(),
        )
        .unwrap();
        assert_eq!(
            ex.wake_round[0], 9,
            "collision must not wake the sleeping centre"
        );
        assert!(ex.woke_spontaneously(0));
        assert_eq!(ex.stats.forced_wakeups, 0);
        // and the collision is not even observed (nobody awake listened)
        assert_eq!(ex.stats.collisions_observed, 0);
    }

    #[test]
    fn collision_detection_model_wakes_sleepers_with_noise() {
        // Same scenario as collisions_do_not_wake_sleepers, but under the
        // CollisionDetection model the sleeping centre IS woken — by noise,
        // recording (~) as its wake-up entry.
        let c = cfg(generators::star(3), vec![9, 0, 0]);
        let ex = Executor::run_model::<CollisionDetection>(
            &c,
            &WaitThenTransmitFactory {
                wait: 0,
                msg: Msg(1),
                lifetime: 12,
            },
            RunOpts::default(),
        )
        .unwrap();
        assert_eq!(ex.wake_round[0], 1, "noise wakes the centre at global 1");
        assert_eq!(ex.wake_obs(0), Obs::Noise);
        assert!(!ex.woke_spontaneously(0));
        assert_eq!(ex.stats.forced_wakeups, 1);
    }

    #[test]
    fn beeping_model_delivers_beeps_not_messages() {
        // path 0-1, node 0 transmits at global 1; under Beeping node 1 is
        // woken by a content-free beep, and no message is ever received.
        let c = cfg(generators::path(2), vec![0, 9]);
        let ex = Executor::run_model::<Beeping>(
            &c,
            &WaitThenTransmitFactory {
                wait: 0,
                msg: Msg(4),
                lifetime: 5,
            },
            RunOpts::default(),
        )
        .unwrap();
        assert_eq!(ex.wake_round[1], 1);
        assert_eq!(ex.wake_obs(1), Obs::Noise);
        assert_eq!(ex.stats.messages_received, 0);
        assert_eq!(ex.stats.forced_wakeups, 1);
        // node 0 listens from local 2 on; node 1 beeps back at global 2
        assert_eq!(ex.history(0).get(2), Some(Obs::Noise));
    }

    #[test]
    fn message_in_tag_round_is_forced_style() {
        // path 0-1: node 0 wakes at 0, transmits at global 1; node 1's tag
        // is exactly 1 → wake with H[0]=(M).
        let c = cfg(generators::path(2), vec![0, 1]);
        let ex = Executor::run(
            &c,
            &WaitThenTransmitFactory {
                wait: 0,
                msg: Msg(4),
                lifetime: 5,
            },
            RunOpts::default(),
        )
        .unwrap();
        assert_eq!(ex.wake_round[1], 1);
        assert_eq!(
            ex.wake_obs(1),
            Obs::Heard(Msg(4)),
            "tag-round message is forced-style"
        );
        assert_eq!(ex.stats.forced_wakeups, 1);
    }

    #[test]
    fn round_limit_errors() {
        let c = cfg(generators::path(2), vec![0, 0]);
        // lifetime beyond the limit → RoundLimit
        let err = Executor::run(
            &c,
            &SilentFactory { lifetime: 100 },
            RunOpts::with_max_rounds(10),
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::RoundLimit {
                max_rounds: 10,
                still_running: 2
            }
        );
    }

    #[test]
    fn round_limit_boundary_is_exact() {
        // silent(4) on tags [0,1,2] needs rounds 0..=6: exactly 7 rounds.
        let run = |max_rounds| {
            Executor::run(
                &cfg(generators::path(3), vec![0, 1, 2]),
                &SilentFactory { lifetime: 4 },
                RunOpts::with_max_rounds(max_rounds),
            )
        };
        let ex = run(7).expect("exactly enough rounds");
        assert_eq!(ex.rounds, 7);
        assert_eq!(
            run(6).unwrap_err(),
            SimError::RoundLimit {
                max_rounds: 6,
                still_running: 1
            },
            "6 rounds must not be enough"
        );
    }

    #[test]
    fn echo_chain_wakes_a_path() {
        // node 0 wakes at 0 and transmits at 1 (wait=0); echo nodes relay
        // the message down the path, force-waking each in turn.
        // Combine: node 0 should transmit spontaneously; others echo. A
        // single anonymous DRIP: transmit in local round 1 iff woken
        // spontaneously AND global... can't see global. Trick: wait-then-
        // transmit with wait=0 transmits at local 1 regardless — every
        // newly woken node rebroadcasts: exactly an echo chain.
        let n = 6;
        let c = cfg(generators::path(n), vec![0, 9, 9, 9, 9, 9]);
        let ex = Executor::run(
            &c,
            &WaitThenTransmitFactory {
                wait: 0,
                msg: Msg(1),
                lifetime: 20,
            },
            RunOpts::default(),
        )
        .unwrap();
        // wake wave: node v woken at round v by node v-1's transmission
        for v in 0..n {
            assert_eq!(ex.wake_round[v], v as u64, "node {v}");
        }
        assert_eq!(ex.stats.forced_wakeups, (n - 1) as u64);
        let _ = EchoFactory { lifetime: 1 }; // keep the import exercised
    }

    #[test]
    fn leap_engine_matches_step_engine_and_skips_quiet_rounds() {
        // Huge tag span: the step-by-step reference engine iterates
        // through the whole stretch, the engine jumps it — with identical
        // results. The ends transmit simultaneously, so their collision
        // leaves the sleeping centre asleep until its distant tag.
        let span = 100_000u64;
        let c = cfg(generators::path(3), vec![0, span, 0]);
        let f = WaitThenTransmitFactory {
            wait: 3,
            msg: Msg(5),
            lifetime: 20,
        };
        let leap = Executor::run(&c, &f, RunOpts::default()).unwrap();
        let step = run_reference(&c, &f, RunOpts::default()).unwrap();
        assert_eq!(leap.wake_round, step.wake_round);
        assert_eq!(leap.done_round, step.done_round);
        assert_eq!(leap.histories, step.histories);
        assert_eq!(leap.rounds, step.rounds);
        assert_eq!(leap.stats, step.stats);
        // accounting: every round is either stepped or leapt
        assert_eq!(leap.rounds_stepped + leap.rounds_leapt, leap.rounds);
        // and the engine actually leapt the dead stretch
        assert!(leap.rounds > span, "the last node only wakes at {span}");
        assert!(
            leap.rounds_stepped < 64,
            "leap engine stepped {} rounds of {}",
            leap.rounds_stepped,
            leap.rounds
        );
    }

    #[test]
    fn leap_preserves_traces_and_their_round_numbers() {
        // Ends of the path transmit simultaneously at round 3, so the
        // sleeping centre stays asleep (collision), the ends run out, the
        // engine leaps the dead stretch, and the centre wakes at its tag
        // with traffic on both sides of the leap.
        let c = cfg(generators::path(3), vec![0, 5_000, 0]);
        let f = WaitThenTransmitFactory {
            wait: 2,
            msg: Msg(1),
            lifetime: 9,
        };
        let leap = Executor::run(&c, &f, RunOpts::default().traced()).unwrap();
        let step = run_reference(&c, &f, RunOpts::default().traced()).unwrap();
        assert!(leap.rounds_stepped < 20, "dead stretch must be leapt");
        let (lt, st) = (leap.trace.unwrap(), step.trace.unwrap());
        assert_eq!(lt.events, st.events, "trace must be round-for-round equal");
        // sparse round numbers survive the leap
        assert!(lt.round(5_000).is_some(), "spontaneous wake at 5000");
        assert!(lt.round(5_003).is_some(), "centre transmits after the leap");
    }

    #[test]
    fn trace_records_eventful_rounds_only() {
        let c = cfg(generators::path(2), vec![0, 3]);
        let ex = Executor::run(
            &c,
            &WaitThenTransmitFactory {
                wait: 1,
                msg: Msg(1),
                lifetime: 6,
            },
            RunOpts::default().traced(),
        )
        .unwrap();
        let trace = ex.trace.as_ref().unwrap();
        // round 0: node 0 wakes; round 2: node 0 transmits (local 2 = wait+1)
        // and node 1 is woken...
        assert!(trace.round(0).is_some());
        let r2 = trace.round(2).expect("transmission round recorded");
        assert_eq!(r2.transmitters, vec![(0, Msg(1))]);
        assert_eq!(r2.woke, vec![(1, Obs::Heard(Msg(1)))]);
        // quiet round 1 is skipped
        assert!(trace.round(1).is_none());
    }

    #[test]
    fn history_classes_group_identical_histories() {
        // symmetric path with uniform tags: all three nodes silent forever,
        // but end nodes (degree 1) and middle node still have identical
        // histories (all silence) → one class.
        let c = cfg(generators::path(3), vec![0, 0, 0]);
        let ex = Executor::run(&c, &SilentFactory { lifetime: 5 }, RunOpts::default()).unwrap();
        let classes = ex.history_classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0], vec![0, 1, 2]);
        assert!(ex.unique_history_nodes().is_empty());
    }

    #[test]
    fn beacon_floods_and_terminates() {
        let c = cfg(generators::cycle(5), vec![0, 0, 0, 0, 0]);
        let ex = Executor::run(
            &c,
            &BeaconFactory {
                start: 1,
                lifetime: 3,
                msg: Msg(1),
            },
            RunOpts::default(),
        )
        .unwrap();
        // all transmit rounds 1,2 → 10 transmissions
        assert_eq!(ex.stats.transmissions, 10);
        // everyone transmits simultaneously → nobody ever hears anything
        assert_eq!(ex.stats.messages_received, 0);
        assert_eq!(ex.rounds, 4);
    }
}
