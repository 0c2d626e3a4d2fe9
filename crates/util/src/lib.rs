//! Shared utilities for the `anon-radio` workspace.
//!
//! This crate deliberately has no domain knowledge: it provides the small,
//! heavily reused building blocks that every other crate in the workspace
//! leans on:
//!
//! * [`fxhash`] — the FxHash function (as used by rustc) plus `HashMap`/
//!   `HashSet` aliases keyed by it. Classifier refinement hashes millions of
//!   small integer-rich keys, where SipHash is needlessly slow and HashDoS
//!   resistance is irrelevant.
//! * [`stats`] — descriptive statistics and log–log slope fits used by the
//!   experiment harness to compare measured scaling against the paper's
//!   asymptotic bounds.
//! * [`table`] — a tiny table model rendering to aligned Markdown and CSV;
//!   every experiment in `radio-bench` reports through it.
//! * [`rng`] — deterministic seed derivation so that every workload in the
//!   repository is reproducible bit-for-bit from a single root seed.
//! * [`mem`] — best-effort process memory probes (Linux peak RSS) backing
//!   the campaign `mem_hw` observability column and the scale benches.
//! * [`json`] — the one JSON object codec: campaign rows, serve requests
//!   and replies, and bench trajectory rows all read and write through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fxhash;
pub mod json;
pub mod mem;
pub mod rng;
pub mod stats;
pub mod table;

pub use fxhash::{FxHashMap, FxHashSet};
