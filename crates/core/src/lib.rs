//! # anon-radio — deterministic leader election in anonymous radio networks
//!
//! This crate is the primary contribution of the SPAA 2020 paper
//! *Deterministic Leader Election in Anonymous Radio Networks* (Miller,
//! Pelc, Yadav), made executable:
//!
//! * **Feasibility decision** — [`is_feasible`] wraps the polynomial-time
//!   centralized `Classifier` (Theorem 3.17).
//! * **Dedicated election** — [`solve`] compiles, for any feasible
//!   configuration `G`, the canonical DRIP `D_G` and its decision function
//!   `f_G` (Theorem 3.15, `O(n²σ)` rounds) into a [`CompiledElection`],
//!   whose [`run_in`](CompiledElection::run_in) simulates it and returns a
//!   validated [`ElectionReport`]; [`elect_leader`] does both in one call.
//! * **Impossibility machinery** — [`universal`] refutes any candidate
//!   *universal* election algorithm by constructing the failing
//!   configuration `H_{t+1}` (Proposition 4.4), and [`distributed`] shows
//!   per-node histories on feasible `H_{t+1}` and infeasible `S_{t+1}`
//!   coincide, killing distributed feasibility decision (Proposition 4.5).
//! * **Validators** — [`verify`] checks the paper's structural lemmas
//!   (3.6–3.9) on actual executions; [`lower_bounds`] measures the symmetry
//!   horizons behind the `Ω(n)`/`Ω(σ)` bounds (Propositions 4.1/4.3).
//!
//! ## Quickstart
//!
//! ```
//! use radio_graph::{families, Configuration, generators};
//!
//! // The paper's H_3: path a–b–c–d with tags 3,0,0,4 — feasible.
//! let config = families::h_m(3);
//! assert!(anon_radio::is_feasible(&config));
//!
//! let report = anon_radio::elect_leader(&config).expect("feasible");
//! assert_eq!(report.leader, 0); // node a is the unique leader
//!
//! // Uniform tags leave no symmetry to break: infeasible.
//! let symmetric = Configuration::with_uniform_tags(generators::cycle(4), 0).unwrap();
//! assert!(!anon_radio::is_feasible(&symmetric));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod campaign;
pub mod canonical;
pub mod decision;
pub mod dedicated;
pub mod distributed;
pub mod explain;
pub mod lower_bounds;
pub mod row;
pub mod schedule;
pub mod serve;
pub mod universal;
pub mod verify;

pub use api::{
    elect_leader, is_feasible, is_feasible_in, solve, ElectError, ElectionReport, Infeasible,
};
pub use cache::{CacheConfig, CacheLookup, CacheStats, ScheduleCache};
pub use campaign::{
    CampaignRunner, CampaignSpec, CampaignWorkspace, CellKey, FamilyError, FamilySpec, Phase,
    TagStrategy,
};
pub use canonical::CanonicalFactory;
pub use dedicated::CompiledElection;
pub use row::{CampaignRow, RowError, RowStats};
pub use schedule::CanonicalSchedule;
pub use serve::{serve_session, serve_tcp, JobRequest, ServeOptions, SessionSummary};

#[cfg(test)]
mod proptests;
