//! Deterministic synchronous radio-network simulator with collision
//! detection — the execution substrate for the SPAA 2020 model.
//!
//! # The model (paper Sections 1.1 and 2.2)
//!
//! Nodes of a connected graph communicate in synchronous rounds. In each
//! round an awake node either **transmits** a message to all neighbours or
//! **listens**. A listener hears
//!
//! * the message, if *exactly one* neighbour transmits ([`Obs::Heard`]),
//! * noise, if two or more neighbours transmit ([`Obs::Collision`]),
//! * silence otherwise ([`Obs::Silence`]).
//!
//! A transmitter hears nothing in its own round (recorded as silence, the
//! paper's `(∅)`). A node wakes **spontaneously** in the global round equal
//! to its wake-up tag, or earlier (**forced**) in any round where it would
//! hear a message; its local clock reads 0 in the wake-up round and it acts
//! from local round 1 on. All nodes run the same deterministic algorithm —
//! a **DRIP** — whose action in local round `i` is a function of the local
//! history `H[0..i-1]` only.
//!
//! # Model ambiguities pinned by this implementation
//!
//! The paper leaves three corner cases implicit; this crate resolves them as
//! follows (each choice is enforced by a unit test in [`engine`]):
//!
//! 1. **Collisions do not wake sleeping nodes** — forced wake-up requires
//!    *receiving a message*, and noise is not a message. (Lemma 4.2's proof
//!    depends on this reading.)
//! 2. **A message arriving in the node's own tag round** still produces a
//!    forced-style first history entry `H[0] = (M)`.
//! 3. **Termination appends nothing**: a node's recorded history ends with
//!    the last round before it decided `terminate`.
//!
//! # Pluggable channel models
//!
//! The rules above are the *default* channel — the paper's. They live in
//! the [`model`] layer: both engines are generic over a
//! [`RadioModel`], and two alternative channels ship
//! alongside the default ([`model::CollisionDetection`],
//! [`model::Beeping`]). Everything documented here about collision
//! semantics and forced wake-ups is the contract of the default
//! [`model::NoCollisionDetection`] specifically.
//!
//! # Crate layout
//!
//! * [`msg`] — messages, observations, actions.
//! * [`history`] — per-node local histories (owned + borrowed views).
//! * [`drip`] — the DRIP traits plus a library of simple DRIPs.
//! * [`model`] — pluggable channel semantics (the `RadioModel` layer).
//! * [`engine`] — the executor (arena-backed hot loop; a round-bucketed
//!   calendar visits a node only when it acts or hears).
//! * [`election`] — leader-election runner (DRIP + decision function).
//! * [`patient`] — the patient-DRIP transform of Lemma 3.12.
//! * [`trace`] — optional round-by-round event recording.
//! * [`workspace`] — reusable per-run engine state ([`SimWorkspace`]);
//!   the run loop itself lives here — the crate's only one (the
//!   [`engine_ref`] oracle aside) — recycled across back-to-back runs.
//! * [`parallel`] — scoped-thread parallel batch execution with
//!   worker-scoped state (one long-lived workspace per worker).
//!
//! # Example
//!
//! Run a tiny protocol — every node transmits once in its first local
//! round — on a 3-node path where node 0 wakes first:
//!
//! ```
//! use radio_graph::{generators, Configuration};
//! use radio_sim::drip::WaitThenTransmitFactory;
//! use radio_sim::{Executor, Msg, RunOpts};
//!
//! let config = Configuration::new(generators::path(3), vec![0, 5, 5]).unwrap();
//! let drip = WaitThenTransmitFactory { wait: 0, msg: Msg(7), lifetime: 10 };
//! let execution = Executor::run(&config, &drip, RunOpts::default()).unwrap();
//!
//! // node 0 transmits in global round 1, force-waking node 1 (its tag 5
//! // never fires); node 1's relay wakes node 2 a round later.
//! assert_eq!(execution.wake_round, vec![0, 1, 2]);
//! assert!(execution.history(1)[0].is_message());
//! assert_eq!(execution.stats.forced_wakeups, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drip;
pub mod election;
pub mod engine;
pub mod engine_ref;
pub mod history;
pub mod model;
pub mod msg;
pub mod parallel;
pub mod patient;
pub mod trace;
pub mod workspace;

pub use drip::{DripFactory, DripNode, DripNodes, PureDrip, PureFactory};
pub use election::{run_election, run_election_model, ElectionOutcome, LeaderAlgorithm};
pub use engine::{ExecStats, Execution, Executor, RunOpts, SimError};
pub use history::{History, HistoryView};
pub use model::{Beeping, CollisionDetection, ModelKind, NoCollisionDetection, RadioModel};
pub use msg::{Action, Msg, Obs};
pub use patient::PatientFactory;
pub use workspace::{ResidentRun, SimWorkspace};
