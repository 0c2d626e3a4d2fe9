//! Exhaustive enumeration of small configurations.
//!
//! The census experiments sweep *every* connected labelled graph on up to
//! ~6 nodes and every normalized tag pattern up to a span bound — small
//! enough to brute-force, large enough to answer questions the paper
//! leaves implicit (e.g. *is every configuration with pairwise-distinct
//! tags feasible?*).

use crate::config::Tag;
use crate::csr::{Csr, NodeId};

/// All connected labelled simple graphs on `n` nodes (`n ≤ 7` is
/// practical: the loop enumerates `2^(n(n-1)/2)` edge subsets).
///
/// Counts follow OEIS A001187: 1, 1, 4, 38, 728, 26704 for n = 1…6.
pub fn connected_graphs(n: usize) -> Vec<Csr> {
    assert!(
        (1..=7).contains(&n),
        "exhaustive enumeration is for 1 ≤ n ≤ 7, got {n}"
    );
    let pairs: Vec<(NodeId, NodeId)> = (0..n as NodeId)
        .flat_map(|u| ((u + 1)..n as NodeId).map(move |v| (u, v)))
        .collect();
    let m = pairs.len();
    let mut out = Vec::new();
    for mask in 0u64..(1u64 << m) {
        let g = Csr::from_stream(n, |emit| {
            for (bit, &(u, v)) in pairs.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    emit(u, v);
                }
            }
        });
        if crate::algo::is_connected(&g) {
            out.push(g);
        }
    }
    out
}

/// All normalized tag patterns on `n` nodes with span ≤ `max_span`:
/// every entry in `0..=max_span` and at least one entry equal to 0
/// (patterns are considered up to common shift, so only normalized ones
/// are generated).
pub fn tag_patterns(n: usize, max_span: Tag) -> Vec<Vec<Tag>> {
    let base = max_span + 1;
    let total = base.pow(n as u32);
    let mut out = Vec::new();
    for code in 0..total {
        let mut c = code;
        let mut tags = Vec::with_capacity(n);
        let mut has_zero = false;
        for _ in 0..n {
            let t = c % base;
            has_zero |= t == 0;
            tags.push(t);
            c /= base;
        }
        if has_zero {
            out.push(tags);
        }
    }
    out
}

/// All `n!` pairwise-distinct tag patterns (permutations of `0..n`).
pub fn distinct_tag_patterns(n: usize) -> Vec<Vec<Tag>> {
    let mut current: Vec<Tag> = (0..n as Tag).collect();
    let mut out = Vec::new();
    permute(&mut current, 0, &mut out);
    out
}

fn permute(arr: &mut Vec<Tag>, k: usize, out: &mut Vec<Vec<Tag>>) {
    if k == arr.len() {
        out.push(arr.clone());
        return;
    }
    for i in k..arr.len() {
        arr.swap(k, i);
        permute(arr, k + 1, out);
        arr.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connected_graph_counts_match_oeis() {
        // A001187(n) for labelled connected graphs
        assert_eq!(connected_graphs(1).len(), 1);
        assert_eq!(connected_graphs(2).len(), 1);
        assert_eq!(connected_graphs(3).len(), 4);
        assert_eq!(connected_graphs(4).len(), 38);
        assert_eq!(connected_graphs(5).len(), 728);
    }

    #[test]
    fn enumerated_graphs_satisfy_invariants() {
        for g in connected_graphs(4) {
            g.check_invariants().unwrap();
            assert!(crate::algo::is_connected(&g));
        }
    }

    #[test]
    fn tag_pattern_counts() {
        // span ≤ 1 on 3 nodes: 2^3 − 1 (all-ones excluded for missing 0)
        assert_eq!(tag_patterns(3, 1).len(), 7);
        // span ≤ 2 on 2 nodes: 3² − 2² = 5
        assert_eq!(tag_patterns(2, 2).len(), 5);
        // all returned patterns are normalized
        for tags in tag_patterns(3, 2) {
            assert_eq!(*tags.iter().min().unwrap(), 0);
            assert!(tags.iter().all(|&t| t <= 2));
        }
    }

    #[test]
    fn distinct_patterns_are_permutations() {
        let pats = distinct_tag_patterns(4);
        assert_eq!(pats.len(), 24);
        let uniq: radio_util::FxHashSet<_> = pats.iter().collect();
        assert_eq!(uniq.len(), 24);
        for p in &pats {
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }
}
