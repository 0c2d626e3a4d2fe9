//! The configuration families of the paper's Section 4.
//!
//! * [`g_m`] (Proposition 4.1): linear configurations with span 1 whose
//!   every dedicated leader-election algorithm needs `Ω(n)` rounds.
//! * [`h_m`] (Lemma 4.2): feasible 4-node paths needing at least `m` rounds
//!   — the `Ω(σ)` lower bound and the backbone of Proposition 4.4 (no
//!   universal algorithm).
//! * [`s_m`] (Proposition 4.5): infeasible 4-node paths indistinguishable
//!   from `h_m` before round `m`, killing distributed feasibility decision.
//!
//! Node layouts match the paper exactly so traces can be read against it.

use crate::config::{Configuration, Tag};
use crate::csr::NodeId;
use crate::generators::path;

/// Proposition 4.1's family `G_m` (requires `m ≥ 2`): a path of
/// `n = 4m + 1` nodes, listed left to right as
/// `a_1 … a_m  b_1 … b_{2m+1}  c_m … c_1`, where every `a_i` and `c_i` has
/// tag 0 and every `b_i` has tag 1.
///
/// The configuration is feasible (the centre `b_{m+1}` ends up alone in its
/// class after `m` iterations of `Classifier`), yet any dedicated algorithm
/// needs `Ω(n)` rounds: for every round `t < m − 1` the histories of
/// `b_m, b_{m+1}, b_{m+2}` coincide.
pub fn g_m(m: usize) -> Configuration {
    assert!(m >= 2, "G_m requires m >= 2, got {m}");
    let n = 4 * m + 1;
    let mut tags = vec![0 as Tag; n];
    tags[m..=3 * m].fill(1);
    Configuration::new(path(n), tags).expect("path is connected")
}

/// Index of the centre node `b_{m+1}` of [`g_m`] — the unique electable
/// leader.
pub fn g_m_center(m: usize) -> NodeId {
    (2 * m) as NodeId
}

/// Lemma 4.2's family `H_m` (requires `1 ≤ m < u64::MAX`): the 4-node path
/// `a ‒ b ‒ c ‒ d` with tags `t_a = m`, `t_b = t_c = 0`, `t_d = m + 1`.
///
/// Every `H_m` is feasible (all four nodes split into singleton classes
/// after one `Classifier` iteration), and every leader-election algorithm
/// for it needs at least `m` rounds.
pub fn h_m(m: Tag) -> Configuration {
    assert!(m >= 1, "H_m requires m >= 1");
    assert!(m < Tag::MAX, "H_m requires m < u64::MAX (t_d = m + 1)");
    Configuration::new(path(4), vec![m, 0, 0, m + 1]).expect("path is connected")
}

/// Proposition 4.5's family `S_m` (requires `m ≥ 1`): the 4-node path
/// `a ‒ b ‒ c ‒ d` with tags `t_a = t_d = m`, `t_b = t_c = 0`.
///
/// Every `S_m` is **infeasible** (the partition stabilizes at two 2-node
/// classes), yet if the first transmission of the tag-0 nodes under some
/// algorithm happens in round `t`, then every node's history on `S_{t+1}`
/// equals its counterpart's on `H_{t+1}` — so no distributed algorithm can
/// decide feasibility.
pub fn s_m(m: Tag) -> Configuration {
    assert!(m >= 1, "S_m requires m >= 1");
    Configuration::new(path(4), vec![m, 0, 0, m]).expect("path is connected")
}

/// Names for the four nodes of [`h_m`]/[`s_m`] in paper order.
pub const FOUR_NODE_NAMES: [&str; 4] = ["a", "b", "c", "d"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn g_m_layout_matches_paper() {
        let c = g_m(2); // n = 9: a1 a2 b1..b5 c2 c1
        assert_eq!(c.size(), 9);
        assert_eq!(c.tags(), &[0, 0, 1, 1, 1, 1, 1, 0, 0]);
        assert_eq!(c.span(), 1);
        assert_eq!(g_m_center(2), 4);
        // centre is the middle of the b-run
        assert_eq!(c.tag(g_m_center(2)), 1);
    }

    #[test]
    fn g_m_sizes() {
        for m in 2..8 {
            let c = g_m(m);
            assert_eq!(c.size(), 4 * m + 1);
            assert_eq!(c.span(), 1);
            assert_eq!(c.tag(g_m_center(m)), 1);
        }
    }

    #[test]
    #[should_panic(expected = "m >= 2")]
    fn g_m_rejects_small_m() {
        let _ = g_m(1);
    }

    #[test]
    #[should_panic(expected = "m < u64::MAX")]
    fn h_m_rejects_u64_max() {
        let _ = h_m(u64::MAX);
    }

    #[test]
    fn h_m_layout() {
        let c = h_m(5);
        assert_eq!(c.size(), 4);
        assert_eq!(c.tags(), &[5, 0, 0, 6]);
        assert_eq!(c.span(), 6);
    }

    #[test]
    fn s_m_layout() {
        let c = s_m(5);
        assert_eq!(c.tags(), &[5, 0, 0, 5]);
        assert_eq!(c.span(), 5);
        // S_m is mirror-symmetric: reversing the path maps tags onto
        // themselves — the symmetry that kills feasibility.
        let mirrored = c.relabel(&[3, 2, 1, 0]);
        assert_eq!(mirrored.tags(), c.tags());
        assert_eq!(mirrored.csr(), c.csr());
    }

    #[test]
    fn h_m_breaks_mirror_symmetry() {
        let c = h_m(5);
        let mirrored = c.relabel(&[3, 2, 1, 0]);
        assert_ne!(mirrored.tags(), c.tags());
    }
}
