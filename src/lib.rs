//! Workspace facade for the reproduction of *Deterministic Leader Election
//! in Anonymous Radio Networks* (Miller, Pelc, Yadav — SPAA 2020).
//!
//! This crate re-exports the workspace members so examples and downstream
//! users can depend on one crate:
//!
//! * [`graph`] — graphs, configurations (wake-up tags), generators, families.
//! * [`sim`] — the synchronous radio-network simulator and DRIP machinery.
//! * [`classifier`] — the centralized feasibility `Classifier` (Algs. 1–4).
//! * [`core`] — canonical DRIP, dedicated election, feasibility API,
//!   impossibility adversaries.
//! * [`util`] — shared statistics/hashing/table helpers.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]

pub use anon_radio as core;
pub use radio_classifier as classifier;
pub use radio_graph as graph;
pub use radio_sim as sim;
pub use radio_util as util;

/// Commonly used items, for `use anon_radio_repro::prelude::*`.
pub mod prelude {
    pub use anon_radio::{elect_leader, is_feasible, solve, CompiledElection, ElectionReport};
    pub use radio_graph::{families, generators, Configuration, Graph, NodeId};
    pub use radio_sim::{Action, Executor, ModelKind, Msg, Obs, RunOpts, SimWorkspace};
}
