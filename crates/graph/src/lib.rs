//! Graph and configuration substrate for anonymous radio networks.
//!
//! The SPAA 2020 paper models a radio network as a *configuration*: a simple
//! undirected connected graph whose nodes carry non-negative integer
//! **wake-up tags**. This crate provides everything upstream crates need to
//! build, inspect, and serialize such configurations:
//!
//! * [`Graph`] — a mutable simple-graph builder with adjacency lists, and
//!   [`Csr`] — the compressed-sparse-row form used by the simulator's hot
//!   loop.
//! * [`generators`] — deterministic constructors for paths, cycles, trees,
//!   grids, hypercubes, complete/bipartite graphs, and seeded random
//!   families (connected G(n,p), random trees, caterpillars), each written
//!   once as an edge stream that builds either graph form.
//! * [`family`] — the [`FamilySpec`] scenario grammar: every generator
//!   reachable by a parseable name (`grid:16x4`, `hypercube:6`, `gnp:0.05`)
//!   for campaign axes and CLIs.
//! * [`Configuration`] — graph + tags, with span/normalization and
//!   validation, plus [`tags`] strategies for assigning tags (including the
//!   named [`TagStrategy`] axis: uniform/clustered/extremes/arithmetic).
//! * [`families`] — the configuration families the paper's Section 4 builds
//!   its lower bounds and impossibility results from (`G_m`, `H_m`, `S_m`).
//! * [`io`] — a line-oriented text format (round-trippable) and DOT export.
//! * [`algo`] — BFS, connectivity, eccentricity/diameter, degree statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod config;
pub mod csr;
pub mod enumerate;
pub mod families;
pub mod family;
pub mod generators;
pub mod graph;
pub mod io;
pub mod tags;

pub use config::Configuration;
pub use csr::Csr;
pub use family::{FamilyError, FamilySpec};
pub use graph::{Graph, NodeId};
pub use tags::TagStrategy;

#[cfg(test)]
mod proptests;
