//! DRIP traits and a library of elementary DRIPs.
//!
//! A **DRIP** (Distributed Radio Interaction Protocol, paper Section 2.2) is
//! a function `D` from local histories to actions; every node runs the same
//! `D`. Two representations are provided:
//!
//! * [`PureDrip`] / [`PureFactory`] — literally a function
//!   `Fn(HistoryView) -> Action`, the paper's definition verbatim. Great
//!   for
//!   tests and adversary candidates.
//! * [`DripNode`] / [`DripFactory`] — a per-node state machine spawned from
//!   a shared factory. The engine calls [`DripNode::decide`] in local-round
//!   order — once per round, except the rounds a
//!   [`DripNode::quiet_until`] horizon covers — so implementations may
//!   cache derived state instead of re-scanning their history; the
//!   contract is that the decision must remain a function of the history
//!   alone (anonymity/uniformity).
//!
//! The factory receives no node identity — the only per-configuration
//! knowledge a *dedicated* algorithm may embed is whatever the factory
//! itself closes over (e.g. the canonical schedule of `anon-radio`), which
//! mirrors the paper's "algorithm dedicated to configuration G".
//!
//! The engine itself drives a run's nodes through [`DripNodes`]: the state
//! of every node of one run, addressed by node id. Boxed nodes spawned
//! from a factory are one implementation; flat per-node arrays that hold
//! one protocol's state for the whole network (`anon-radio`'s canonical
//! DRIP) are the other.

use radio_graph::NodeId;

use crate::history::HistoryView;
use crate::msg::{Action, Msg, Obs};

/// A per-node DRIP state machine, boxed once per node by a [`DripFactory`].
///
/// A boxed node reads what it heard off the history it is handed, so the
/// engine stores full histories for it (see [`DripNodes`], which
/// `Vec<Box<dyn DripNode>>` implements).
pub trait DripNode {
    /// Returns the action for the next local round `i`, given the history
    /// `H[0..i-1]` (so `history.len() == i ≥ 1`; entry 0 is the wake-up
    /// observation).
    ///
    /// The history arrives as a borrowed [`HistoryView`] — in the engine's
    /// hot loop it is a view of the node's own stored history, so deciding
    /// a round allocates nothing. Call
    /// [`History::view`](crate::history::History::view) to drive a node from an owned history.
    ///
    /// The engines guarantee calls happen in increasing local-round order
    /// and never again after `Action::Terminate` is returned. The
    /// reference engine ([`crate::engine_ref`]) calls it once per local
    /// round. The engine skips `decide` in every round the node's last
    /// [`DripNode::quiet_until`] horizon
    /// covers — including a round in which the node hears something: the
    /// node listens there by its claim, and a round's decision cannot
    /// depend on that round's own observation. The engine re-asks for a
    /// horizon after every round in which the node decided, woke, or
    /// observed anything but silence (a boxed node is always re-asked
    /// after an observation; see [`DripNodes::observe`]), and the next
    /// `decide` sees every observation made in between (skipped silent
    /// rounds as `(∅)` entries). A node that returns `Some(q)` must
    /// therefore behave identically whether or not the covered calls
    /// happen.
    fn decide(&mut self, history: HistoryView<'_>) -> Action;

    /// Quiescence horizon for the time-leap scheduler.
    ///
    /// Called with the same history the next [`DripNode::decide`] would
    /// receive (`history.len()` = the next local round `i`). Returning
    /// `Some(q)` with `q > i` commits the node to `Action::Listen` for
    /// every local round `j` with `i ≤ j < q`, **provided** all
    /// observations it makes in those rounds are `(∅)`; the engine then
    /// visits it next at local round `q` and calls `decide` there. Anything
    /// else it hears before `q` is recorded without a `decide`, and the
    /// engine re-asks at the end of that round. Returning `None` (the
    /// default), or a `q ≤ i`, makes no claim: the node decides in round
    /// `i`.
    ///
    /// An exact horizon (the node's next transmission, phase entry or
    /// termination, as the canonical DRIP gives) is what makes a run cost
    /// in proportion to its traffic; a shorter claim is sound but buys
    /// extra `decide` calls. Implementations must not mutate state here.
    fn quiet_until(&self, history: HistoryView<'_>) -> Option<u64> {
        let _ = history;
        None
    }
}

/// Spawns identical [`DripNode`]s — one per node of the network.
pub trait DripFactory: Sync {
    /// Creates the state machine installed at each node.
    fn spawn(&self) -> Box<dyn DripNode>;

    /// Human-readable protocol name (used in traces and experiment tables).
    fn name(&self) -> String {
        "drip".to_string()
    }
}

/// The nodes of one run, as the engine drives them: every node's protocol
/// state, addressed by node id.
///
/// [`SimWorkspace`](crate::SimWorkspace)'s run loop is generic over this
/// trait, so it is compiled once per node type, as it is per channel
/// model. `Vec<Box<dyn DripNode>>` — one boxed state machine per node,
/// spawned from a [`DripFactory`] — is what every factory-taking entry
/// point runs. A protocol that keeps its state in flat per-node arrays
/// implements the trait directly and spawns nothing.
///
/// `decide` and `quiet_until` carry [`DripNode`]'s contracts for node `v`.
pub trait DripNodes {
    /// Whether the nodes read the content of their stored histories. When
    /// `false` the engine stores no history at all: a node's history in
    /// global round `r` has length `r − wake`, every view reads as `(∅)`,
    /// a leap over silent rounds costs nothing, and the nodes learn what
    /// they hear through [`DripNodes::observe`] alone. This is the
    /// million-node mode: per-node history memory drops to nothing beyond
    /// the wake round the engine keeps anyway.
    const READS_HISTORY: bool;

    /// Node `v`'s action in its next local round (see
    /// [`DripNode::decide`]).
    fn decide(&mut self, v: NodeId, history: HistoryView<'_>) -> Action;

    /// Node `v`'s quiescence horizon (see [`DripNode::quiet_until`]).
    fn quiet_until(&self, v: NodeId, history: HistoryView<'_>) -> Option<u64>;

    /// Streams one non-silent observation as it is recorded: `H[t] = obs`
    /// for node `v`, including rounds a horizon let the engine skip
    /// `decide` in. Silence — also the bulk `(∅)` stretches appended for
    /// skipped rounds — is never reported; a node that cares about silent
    /// rounds reads them off `history.len()`.
    ///
    /// Returns whether the engine must re-ask `v`'s horizon
    /// ([`DripNodes::quiet_until`]) at the end of the round. Return `true`
    /// when the observation may move it; `false` promises that the
    /// horizon, asked with the end-of-round history, would name the same
    /// global round as before. A node that decided or woke in the round is
    /// re-asked whatever this returns.
    fn observe(&mut self, v: NodeId, t: u64, obs: Obs) -> bool;

    /// Whether awake node `v` is deaf: nothing it hears from now on can
    /// change its state, its actions or what the caller reads off it. The
    /// promise is that every later [`DripNodes::observe`] of `v` would
    /// return `false` and change no state, and that `v`'s `decide` and
    /// `quiet_until` never depend on what it hears from here on.
    ///
    /// The engine asks it after the round's decisions, for the
    /// neighbours of a transmitter, and delivers nothing to a deaf one: no
    /// observation is recorded, counted in [`ExecStats`](crate::ExecStats)
    /// or traced. The hint holds for awake nodes only: a sleeping node is
    /// reached whatever it says, since a transmission may wake it. The
    /// default, `false`, keeps every delivery; boxed nodes read their
    /// stored histories, so they are never deaf.
    #[inline]
    fn deaf(&self, v: NodeId) -> bool {
        let _ = v;
        false
    }

    /// Bytes of per-node state, counted into
    /// [`SimWorkspace::mem_bytes`](crate::SimWorkspace::mem_bytes).
    fn mem_bytes(&self) -> u64;
}

/// Boxed nodes read their stored histories; they fold nothing online, and
/// since their horizons read history, every observation re-asks one. They
/// are never deaf (the default), so their runs count every delivery.
impl DripNodes for Vec<Box<dyn DripNode>> {
    const READS_HISTORY: bool = true;

    #[inline]
    fn decide(&mut self, v: NodeId, history: HistoryView<'_>) -> Action {
        self[v as usize].decide(history)
    }

    #[inline]
    fn quiet_until(&self, v: NodeId, history: HistoryView<'_>) -> Option<u64> {
        self[v as usize].quiet_until(history)
    }

    #[inline]
    fn observe(&mut self, _v: NodeId, _t: u64, _obs: Obs) -> bool {
        true
    }

    /// The pointer plane only: the boxed internals are the protocol's.
    fn mem_bytes(&self) -> u64 {
        (self.capacity() * std::mem::size_of::<Box<dyn DripNode>>()) as u64
    }
}

/// The paper's definition made executable: a pure function of the history.
pub struct PureDrip<F: Fn(HistoryView<'_>) -> Action> {
    f: std::sync::Arc<F>,
}

impl<F: Fn(HistoryView<'_>) -> Action> DripNode for PureDrip<F> {
    fn decide(&mut self, history: HistoryView<'_>) -> Action {
        (self.f)(history)
    }
}

/// Factory for [`PureDrip`]s sharing one decision function.
pub struct PureFactory<F: Fn(HistoryView<'_>) -> Action> {
    f: std::sync::Arc<F>,
    name: String,
}

impl<F: Fn(HistoryView<'_>) -> Action> PureFactory<F> {
    /// Wraps a pure decision function as a DRIP factory.
    pub fn new(name: impl Into<String>, f: F) -> PureFactory<F> {
        PureFactory {
            f: std::sync::Arc::new(f),
            name: name.into(),
        }
    }
}

impl<F: Fn(HistoryView<'_>) -> Action + Send + Sync + 'static> DripFactory for PureFactory<F> {
    fn spawn(&self) -> Box<dyn DripNode> {
        Box::new(PureDrip {
            f: std::sync::Arc::clone(&self.f),
        })
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

// ---------------------------------------------------------------------------
// Elementary DRIPs
// ---------------------------------------------------------------------------

/// Listens for `lifetime` rounds, then terminates. Never transmits.
pub struct SilentFactory {
    /// Local round at which to terminate.
    pub lifetime: u64,
}

impl DripFactory for SilentFactory {
    fn spawn(&self) -> Box<dyn DripNode> {
        let lifetime = self.lifetime;
        Box::new(StepDrip::with_quiet(
            Box::new(move |i, _| {
                if i >= lifetime {
                    Action::Terminate
                } else {
                    Action::Listen
                }
            }),
            // Listens in every round before the terminating one.
            Box::new(move |i, _| (i < lifetime).then_some(lifetime)),
        ))
    }

    fn name(&self) -> String {
        format!("silent({})", self.lifetime)
    }
}

/// Transmits `msg` every round from local round `start` until terminating
/// at local round `lifetime`.
pub struct BeaconFactory {
    /// First transmitting local round.
    pub start: u64,
    /// Local round at which to terminate.
    pub lifetime: u64,
    /// The transmitted message.
    pub msg: Msg,
}

impl DripFactory for BeaconFactory {
    fn spawn(&self) -> Box<dyn DripNode> {
        let (start, lifetime, msg) = (self.start, self.lifetime, self.msg);
        Box::new(StepDrip::with_quiet(
            Box::new(move |i, _| {
                if i >= lifetime {
                    Action::Terminate
                } else if i >= start {
                    Action::Transmit(msg)
                } else {
                    Action::Listen
                }
            }),
            // Quiet only during the initial listening window.
            Box::new(move |i, _| (i < start.min(lifetime)).then_some(start.min(lifetime))),
        ))
    }

    fn name(&self) -> String {
        format!("beacon(start={}, life={})", self.start, self.lifetime)
    }
}

/// Listens for `wait` rounds, transmits `msg` once in local round
/// `wait + 1`, then listens until terminating at `lifetime`.
pub struct WaitThenTransmitFactory {
    /// Number of initial listening rounds.
    pub wait: u64,
    /// The transmitted message.
    pub msg: Msg,
    /// Local round at which to terminate.
    pub lifetime: u64,
}

impl DripFactory for WaitThenTransmitFactory {
    fn spawn(&self) -> Box<dyn DripNode> {
        let (wait, msg, lifetime) = (self.wait, self.msg, self.lifetime);
        Box::new(StepDrip::with_quiet(
            Box::new(move |i, _| {
                if i >= lifetime {
                    Action::Terminate
                } else if i == wait + 1 {
                    Action::Transmit(msg)
                } else {
                    Action::Listen
                }
            }),
            // Two quiet stretches: before the transmission and after it.
            Box::new(move |i, _| {
                if i >= lifetime || i == (wait + 1).min(lifetime) {
                    None
                } else if i < wait + 1 {
                    Some((wait + 1).min(lifetime))
                } else {
                    Some(lifetime)
                }
            }),
        ))
    }

    fn name(&self) -> String {
        format!("wait-then-transmit(wait={})", self.wait)
    }
}

/// Echo: transmits once in the round right after first hearing a message
/// (re-broadcasting it), otherwise listens; terminates at `lifetime`.
/// A building block for wake-up chains in tests.
pub struct EchoFactory {
    /// Local round at which to terminate.
    pub lifetime: u64,
}

impl DripFactory for EchoFactory {
    fn spawn(&self) -> Box<dyn DripNode> {
        let lifetime = self.lifetime;
        Box::new(StepDrip::with_quiet(
            Box::new(move |i, h: HistoryView| {
                if i >= lifetime {
                    return Action::Terminate;
                }
                match h.first_message() {
                    Some(r) if (r + 1) as u64 == i => {
                        Action::Transmit(h.message_at(r).expect("entry is Heard"))
                    }
                    _ => Action::Listen,
                }
            }),
            // While no message was heard, continued silence means listening
            // until termination — the quiet_until contract is conditioned
            // on exactly that. A heard message pins the echo round.
            Box::new(move |i, h: HistoryView| {
                if i >= lifetime {
                    return None;
                }
                let next_act = match h.first_message() {
                    // The echo round is still ahead.
                    Some(r) if (r + 1) as u64 >= i => ((r + 1) as u64).min(lifetime),
                    // Echo already sent (or nothing heard): silent to the end.
                    _ => lifetime,
                };
                (next_act > i).then_some(next_act)
            }),
        ))
    }

    fn name(&self) -> String {
        format!("echo(life={})", self.lifetime)
    }
}

/// The boxed step function of a [`StepDrip`].
type StepFn = Box<dyn Fn(u64, HistoryView<'_>) -> Action + Send>;

/// The boxed quiescence hint of a [`StepDrip`] (see
/// [`DripNode::quiet_until`]).
type QuietFn = Box<dyn Fn(u64, HistoryView<'_>) -> Option<u64> + Send>;

/// Internal adapter: a DRIP given as `(local_round, history) -> action`,
/// optionally with a matching quiescence hint. The round argument is
/// redundant (it equals `history.len()`) but makes the elementary DRIPs
/// above read like the paper's prose.
struct StepDrip {
    step: StepFn,
    quiet: Option<QuietFn>,
}

impl StepDrip {
    fn with_quiet(step: StepFn, quiet: QuietFn) -> StepDrip {
        StepDrip {
            step,
            quiet: Some(quiet),
        }
    }
}

impl DripNode for StepDrip {
    fn decide(&mut self, history: HistoryView<'_>) -> Action {
        (self.step)(history.len() as u64, history)
    }

    fn quiet_until(&self, history: HistoryView<'_>) -> Option<u64> {
        self.quiet
            .as_ref()
            .and_then(|q| q(history.len() as u64, history))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use crate::msg::Obs;

    fn hist(n: usize) -> History {
        History::from_entries(vec![Obs::Silence; n])
    }

    #[test]
    fn silent_listens_then_terminates() {
        let f = SilentFactory { lifetime: 3 };
        let mut node = f.spawn();
        assert_eq!(node.decide(hist(1).view()), Action::Listen);
        assert_eq!(node.decide(hist(2).view()), Action::Listen);
        assert_eq!(node.decide(hist(3).view()), Action::Terminate);
        assert_eq!(f.name(), "silent(3)");
    }

    #[test]
    fn beacon_transmits_in_window() {
        let f = BeaconFactory {
            start: 2,
            lifetime: 4,
            msg: Msg(5),
        };
        let mut node = f.spawn();
        assert_eq!(node.decide(hist(1).view()), Action::Listen);
        assert_eq!(node.decide(hist(2).view()), Action::Transmit(Msg(5)));
        assert_eq!(node.decide(hist(3).view()), Action::Transmit(Msg(5)));
        assert_eq!(node.decide(hist(4).view()), Action::Terminate);
    }

    #[test]
    fn wait_then_transmit_fires_once() {
        let f = WaitThenTransmitFactory {
            wait: 2,
            msg: Msg::ONE,
            lifetime: 6,
        };
        let mut node = f.spawn();
        assert_eq!(node.decide(hist(1).view()), Action::Listen);
        assert_eq!(node.decide(hist(2).view()), Action::Listen);
        assert_eq!(node.decide(hist(3).view()), Action::Transmit(Msg::ONE));
        assert_eq!(node.decide(hist(4).view()), Action::Listen);
        assert_eq!(node.decide(hist(6).view()), Action::Terminate);
    }

    #[test]
    fn echo_rebroadcasts_first_message() {
        let f = EchoFactory { lifetime: 10 };
        let mut node = f.spawn();
        // woken by message in round 0 → transmit in round 1
        let woken = History::from_entries(vec![Obs::Heard(Msg(3))]);
        assert_eq!(node.decide(woken.view()), Action::Transmit(Msg(3)));
        // heard in round 2 → transmit in round 3 only
        let mut node2 = f.spawn();
        let h = History::from_entries(vec![Obs::Silence, Obs::Silence, Obs::Heard(Msg(8))]);
        assert_eq!(node2.decide(h.view()), Action::Transmit(Msg(8)));
        let h4 = History::from_entries(vec![
            Obs::Silence,
            Obs::Silence,
            Obs::Heard(Msg(8)),
            Obs::Silence,
        ]);
        assert_eq!(node2.decide(h4.view()), Action::Listen);
    }

    #[test]
    fn quiet_hints_match_step_behaviour() {
        // silent: committed listener until the terminating round
        let silent = SilentFactory { lifetime: 5 }.spawn();
        assert_eq!(silent.quiet_until(hist(1).view()), Some(5));
        assert_eq!(silent.quiet_until(hist(4).view()), Some(5));
        assert_eq!(silent.quiet_until(hist(5).view()), None);

        // beacon: quiet only before `start`
        let beacon = BeaconFactory {
            start: 3,
            lifetime: 6,
            msg: Msg(1),
        }
        .spawn();
        assert_eq!(beacon.quiet_until(hist(1).view()), Some(3));
        assert_eq!(beacon.quiet_until(hist(3).view()), None);
        assert_eq!(beacon.quiet_until(hist(4).view()), None);

        // wait-then-transmit: quiet before and after the single transmission
        let wtt = WaitThenTransmitFactory {
            wait: 2,
            msg: Msg(1),
            lifetime: 8,
        }
        .spawn();
        assert_eq!(wtt.quiet_until(hist(1).view()), Some(3));
        assert_eq!(wtt.quiet_until(hist(3).view()), None, "transmit round");
        assert_eq!(wtt.quiet_until(hist(4).view()), Some(8));
        assert_eq!(wtt.quiet_until(hist(8).view()), None, "terminate round");

        // pure DRIPs make no claim (trait default)
        let pure = PureFactory::new("listen", |_h: HistoryView| Action::Listen).spawn();
        assert_eq!(pure.quiet_until(hist(1).view()), None);
    }

    #[test]
    fn echo_quiet_hint_tracks_the_first_message() {
        let f = EchoFactory { lifetime: 10 };
        let node = f.spawn();
        // nothing heard: silence means silent to the end
        assert_eq!(node.quiet_until(hist(3).view()), Some(10));
        // message at local 2 → echo at 3: claim stops there
        let h = History::from_entries(vec![Obs::Silence, Obs::Silence, Obs::Heard(Msg(4))]);
        assert_eq!(node.quiet_until(h.view()), None, "echo round is next");
        // echo sent: quiet until termination
        let mut h4 = h.clone();
        h4.push(Obs::Silence);
        h4.push(Obs::Silence);
        assert_eq!(node.quiet_until(h4.view()), Some(10));
    }

    #[test]
    fn pure_factory_shares_one_function() {
        let f = PureFactory::new("always-listen", |_h: HistoryView| Action::Listen);
        let mut a = f.spawn();
        let mut b = f.spawn();
        assert_eq!(a.decide(hist(1).view()), Action::Listen);
        assert_eq!(b.decide(hist(5).view()), Action::Listen);
        assert_eq!(f.name(), "always-listen");
    }
}
