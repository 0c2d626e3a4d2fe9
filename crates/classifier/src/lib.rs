//! The `Classifier` feasibility-decision algorithm of the SPAA 2020 paper
//! (Algorithms 1–4), plus everything needed to compile its by-product — the
//! per-iteration class structure — into the canonical DRIP's hard-coded
//! lists `L_1 … L_{T+1}`.
//!
//! # What `Classifier` does
//!
//! Given a configuration `G`, the algorithm simulates, *centrally*, the
//! phase structure of the canonical DRIP: it maintains a partition of the
//! nodes into classes of equal history, and in each iteration refines the
//! partition by the "label" every node would acquire during one more phase
//! (which neighbours' classes it would hear, in which round of which
//! transmission block, and whether collisions would occur). It stops with
//!
//! * **Yes** as soon as some class has exactly one member (that node has a
//!   unique history and can be elected), or
//! * **No** as soon as an iteration does not change the partition (it never
//!   will again — the refinement is a fixed point).
//!
//! Lemma 3.4 guarantees one of the two happens within `⌈n/2⌉` iterations.
//!
//! # Engines
//!
//! * [`mod@reference`] — a line-by-line transcription of the paper's
//!   pseudocode, instrumented with step counters (`O(n³Δ)` overall). This
//!   is the ground truth the experiments measure against.
//! * [`fast`] — identical semantics (including class *numbering*), but
//!   refinement by hashing `(old class, label)` keys, `O(nΔ)` expected per
//!   iteration. This is the ablation for the paper's open problem #1
//!   ("can `O(n³Δ)` be improved?").
//!
//! Both produce an [`Outcome`]; the property suite asserts they agree
//! exactly on random configurations.
//!
//! # Example
//!
//! ```
//! use radio_graph::families;
//!
//! // H_3 (path a–b–c–d, tags 3,0,0,4) splits into four singleton classes
//! // after one iteration: feasible, leader class 1 (node a).
//! let outcome = radio_classifier::classify(&families::h_m(3));
//! assert!(outcome.feasible);
//! assert_eq!(outcome.iterations, 1);
//! assert_eq!(outcome.leader_class(), Some(1));
//!
//! // S_3 (tags 3,0,0,3) is mirror-symmetric: the partition freezes at
//! // two pair-classes — infeasible.
//! let outcome = radio_classifier::classify(&families::s_m(3));
//! assert!(!outcome.feasible);
//! assert_eq!(outcome.final_partition().num_classes(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fast;
pub mod lists;
pub mod outcome;
pub mod partition;
pub mod partitioner;
pub mod reference;
pub mod trace;
pub mod triple;
pub mod wl;
pub mod workspace;

pub use lists::{CanonicalLists, Level, ListEntry};
pub use outcome::{classify, classify_with, Cost, Engine, IterationRecord, Outcome};
pub use partition::Partition;
pub use triple::{Label, Multi, Triple};
pub use workspace::{
    summarize, ClassifierWorkspace, ClassifySummary, FinalOnly, FullRecords, IterationView,
    ListsSink, RecordSink,
};
