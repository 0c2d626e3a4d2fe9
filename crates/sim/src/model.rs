//! Pluggable channel semantics — the `RadioModel` layer.
//!
//! The paper proves its results for one fixed channel: synchronous rounds,
//! forced wake-up on a clean single message, collision noise audible to
//! awake listeners but inert for sleepers. The neighbouring literature
//! (Gorain–Miller–Pelc's *Four Shades*, Kowalski–Mosteiro) varies exactly
//! these rules, so the engines are generic over a [`RadioModel`]: the
//! *only* two decisions a channel makes each round are
//!
//! 1. what an **awake listener** with `k` transmitting neighbours
//!    perceives ([`RadioModel::listener_obs`]), and
//! 2. whether a **sleeping node** with `k ≥ 1` transmitting neighbours is
//!    woken, and with what wake-up entry `H[0]`
//!    ([`RadioModel::wake_obs`]).
//!
//! Three models ship:
//!
//! | model | listener (k = 0 / 1 / ≥2) | sleeper (k = 1 / ≥2) |
//! |---|---|---|
//! | [`NoCollisionDetection`] | `(∅)` / `(M)` / `(∗)` | wakes `(M)` / stays asleep |
//! | [`CollisionDetection`]   | `(∅)` / `(M)` / `(∗)` | wakes `(M)` / wakes `(~)` |
//! | [`Beeping`]              | `(∅)` / `(~)` / `(~)` | wakes `(~)` / wakes `(~)` |
//!
//! [`NoCollisionDetection`] is the paper's model and the default: its rules
//! are bit-for-bit the ones the original engine hard-coded ("collisions do
//! not wake sleeping nodes — noise is not a message"). The name follows the
//! literature's axis: the *radio hardware* of a sleeping node cannot detect
//! collision energy. [`CollisionDetection`] upgrades the hardware: noise is
//! detectable even while asleep, and wakes the node with the new
//! [`Obs::Noise`] entry — carrier sensed, nothing decodable, distinct from
//! both silence and an in-protocol collision observation. [`Beeping`] is
//! the carrier-sense-only model: messages have no payload at all; any
//! transmission is heard as the same beep, one transmitter or many.
//!
//! Models are zero-sized: the engines monomorphize over them, so the
//! default model pays nothing for the indirection. For runtime selection
//! (CLI flags, sweep tables) use [`ModelKind`].

use crate::msg::{Msg, Obs};

/// Channel semantics: what listeners hear and what wakes sleepers.
///
/// Implementations must be pure — the same `(count, msg)` always yields
/// the same observation — or the engines' determinism guarantee breaks.
pub trait RadioModel: Copy + Clone + Default + Send + Sync + 'static {
    /// Human-readable model name (CLI values, sweep tables).
    const NAME: &'static str;

    /// What an awake listener with `count` transmitting neighbours
    /// perceives. `msg` is the message of the unique transmitter when
    /// `count == 1` and `Msg(0)` otherwise — both engines pin this, so a
    /// model can never decode content out of silence or a collision.
    /// `count == 0` must perceive `(∅)`: the optimized engine never asks,
    /// and records the rounds in which no neighbour transmitted as
    /// silence in bulk.
    fn listener_obs(count: u32, msg: Msg) -> Obs;

    /// Whether a sleeping node with `count ≥ 1` transmitting neighbours
    /// wakes this round, and with what `H[0]` entry. `None` = stays
    /// asleep. Never called with `count == 0`; `msg` is the unique
    /// transmitter's message when `count == 1` and `Msg(0)` otherwise.
    fn wake_obs(count: u32, msg: Msg) -> Option<Obs>;
}

/// The paper's channel (SPAA 2020, Sections 1.1/2.2) — the default.
///
/// Awake listeners distinguish silence, a clean message, and collision
/// noise; a sleeping node's radio detects nothing but a clean message, so
/// only `count == 1` forces a wake-up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoCollisionDetection;

impl RadioModel for NoCollisionDetection {
    const NAME: &'static str = "no-collision-detection";

    #[inline]
    fn listener_obs(count: u32, msg: Msg) -> Obs {
        match count {
            0 => Obs::Silence,
            1 => Obs::Heard(msg),
            _ => Obs::Collision,
        }
    }

    #[inline]
    fn wake_obs(count: u32, msg: Msg) -> Option<Obs> {
        (count == 1).then_some(Obs::Heard(msg))
    }
}

/// Full collision detection: collision energy is detectable even by a
/// sleeping radio.
///
/// Listeners behave as in [`NoCollisionDetection`]; a sleeping node under
/// two or more simultaneous transmitters is woken by the noise, recording
/// [`Obs::Noise`] as its wake-up entry (it sensed a carrier but decoded
/// nothing — unlike a forced `(M)` wake-up it learns no message, and
/// unlike `(∅)` it knows the channel was busy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollisionDetection;

impl RadioModel for CollisionDetection {
    const NAME: &'static str = "collision-detection";

    #[inline]
    fn listener_obs(count: u32, msg: Msg) -> Obs {
        match count {
            0 => Obs::Silence,
            1 => Obs::Heard(msg),
            _ => Obs::Collision,
        }
    }

    #[inline]
    fn wake_obs(count: u32, msg: Msg) -> Option<Obs> {
        match count {
            0 => None,
            1 => Some(Obs::Heard(msg)),
            _ => Some(Obs::Noise),
        }
    }
}

/// The beeping model: carrier sense only.
///
/// Transmissions carry no payload — any number of simultaneous
/// transmitters sounds like the same beep ([`Obs::Noise`]), to listeners
/// and sleepers alike. Message content never reaches a history, which is
/// the communication-starved regime the Kowalski–Mosteiro cost analyses
/// live in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Beeping;

impl RadioModel for Beeping {
    const NAME: &'static str = "beeping";

    #[inline]
    fn listener_obs(count: u32, _msg: Msg) -> Obs {
        if count == 0 {
            Obs::Silence
        } else {
            Obs::Noise
        }
    }

    #[inline]
    fn wake_obs(count: u32, _msg: Msg) -> Option<Obs> {
        debug_assert!(count >= 1);
        Some(Obs::Noise)
    }
}

/// Runtime-selectable model identifier, for CLI flags and sweep tables.
///
/// The engines themselves are monomorphized ([`RadioModel`]); `ModelKind`
/// is the bridge from run-time choice to the three compiled variants via
/// [`ModelKind::run`] and [`ModelKind::run_reference`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelKind {
    /// [`NoCollisionDetection`] — the paper's model.
    #[default]
    NoCollisionDetection,
    /// [`CollisionDetection`].
    CollisionDetection,
    /// [`Beeping`].
    Beeping,
}

impl ModelKind {
    /// All models, in declaration order (sweep axes iterate this).
    pub const ALL: [ModelKind; 3] = [
        ModelKind::NoCollisionDetection,
        ModelKind::CollisionDetection,
        ModelKind::Beeping,
    ];

    /// The model's canonical name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::NoCollisionDetection => NoCollisionDetection::NAME,
            ModelKind::CollisionDetection => CollisionDetection::NAME,
            ModelKind::Beeping => Beeping::NAME,
        }
    }

    /// Runs the optimized engine under this model (see
    /// [`Executor::run_model`](crate::Executor::run_model)).
    pub fn run(
        self,
        config: &radio_graph::Configuration,
        factory: &dyn crate::drip::DripFactory,
        opts: crate::engine::RunOpts,
    ) -> Result<crate::engine::Execution, crate::engine::SimError> {
        match self {
            ModelKind::NoCollisionDetection => {
                crate::engine::Executor::run_model::<NoCollisionDetection>(config, factory, opts)
            }
            ModelKind::CollisionDetection => {
                crate::engine::Executor::run_model::<CollisionDetection>(config, factory, opts)
            }
            ModelKind::Beeping => {
                crate::engine::Executor::run_model::<Beeping>(config, factory, opts)
            }
        }
    }

    /// Runs the naive reference engine under this model (see
    /// [`run_reference_model`](crate::engine_ref::run_reference_model)).
    pub fn run_reference(
        self,
        config: &radio_graph::Configuration,
        factory: &dyn crate::drip::DripFactory,
        opts: crate::engine::RunOpts,
    ) -> Result<crate::engine::Execution, crate::engine::SimError> {
        match self {
            ModelKind::NoCollisionDetection => crate::engine_ref::run_reference_model::<
                NoCollisionDetection,
            >(config, factory, opts),
            ModelKind::CollisionDetection => {
                crate::engine_ref::run_reference_model::<CollisionDetection>(config, factory, opts)
            }
            ModelKind::Beeping => {
                crate::engine_ref::run_reference_model::<Beeping>(config, factory, opts)
            }
        }
    }
}

impl std::str::FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<ModelKind, String> {
        match s {
            "no-cd" | "nocd" | "no-collision-detection" | "default" => {
                Ok(ModelKind::NoCollisionDetection)
            }
            "cd" | "collision-detection" => Ok(ModelKind::CollisionDetection),
            "beep" | "beeping" => Ok(ModelKind::Beeping),
            other => Err(format!(
                "unknown radio model `{other}` (expected no-cd, cd, or beep)"
            )),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Folds a listener observation into the aggregate counters. Shared by the
/// optimized and reference engines so their statistics cannot diverge.
#[inline]
pub(crate) fn record_listener_obs(obs: Obs, stats: &mut crate::engine::ExecStats) {
    match obs {
        Obs::Silence => {}
        Obs::Heard(_) => stats.messages_received += 1,
        Obs::Collision | Obs::Noise => stats.collisions_observed += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_the_papers() {
        assert_eq!(
            NoCollisionDetection::listener_obs(1, Msg(7)),
            Obs::Heard(Msg(7))
        );
        assert_eq!(NoCollisionDetection::listener_obs(0, Msg(7)), Obs::Silence);
        assert_eq!(
            NoCollisionDetection::listener_obs(3, Msg(7)),
            Obs::Collision
        );
        assert_eq!(
            NoCollisionDetection::wake_obs(1, Msg(7)),
            Some(Obs::Heard(Msg(7)))
        );
        assert_eq!(NoCollisionDetection::wake_obs(2, Msg(7)), None);
    }

    #[test]
    fn collision_detection_wakes_on_noise() {
        assert_eq!(CollisionDetection::wake_obs(2, Msg(1)), Some(Obs::Noise));
        assert_eq!(
            CollisionDetection::wake_obs(1, Msg(1)),
            Some(Obs::Heard(Msg(1)))
        );
        // listeners are unchanged from the default model
        assert_eq!(CollisionDetection::listener_obs(2, Msg(1)), Obs::Collision);
    }

    #[test]
    fn beeping_erases_content() {
        assert_eq!(Beeping::listener_obs(1, Msg(9)), Obs::Noise);
        assert_eq!(Beeping::listener_obs(5, Msg(9)), Obs::Noise);
        assert_eq!(Beeping::listener_obs(0, Msg(9)), Obs::Silence);
        assert_eq!(Beeping::wake_obs(1, Msg(9)), Some(Obs::Noise));
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in ModelKind::ALL {
            let parsed: ModelKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("frequency-hopping".parse::<ModelKind>().is_err());
        assert_eq!(ModelKind::default(), ModelKind::NoCollisionDetection);
    }
}
