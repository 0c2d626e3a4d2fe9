//! Compressed-sparse-row adjacency: the one graph form of the workspace,
//! built by the generators and the text parser and read by the simulator,
//! the classifier and everything else.
//!
//! Nodes are dense `u32` indices, edges are undirected and simple (no
//! self-loops, no repeats — the paper works with *simple* graphs).
//! Neighbour lists are stored back-to-back in one `Vec<NodeId>` with an
//! offsets array; neighbours of each node are sorted, which gives the fixed
//! node ordering the paper's `Classifier` relies on ("we fix an arbitrary
//! ordering of the vertices") and makes iteration branch-predictable.

use std::fmt;
use std::sync::Arc;

/// Dense node index. The paper's `n` tops out in the low thousands for every
/// experiment, so 32 bits are ample and keep hot structures compact.
pub type NodeId = u32;

/// Error type for graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint referenced a node index `>= n`.
    NodeOutOfRange {
        /// The offending node index.
        node: NodeId,
        /// The number of nodes in the graph.
        n: usize,
    },
    /// Both endpoints of an edge were the same node.
    SelfLoop(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v} (graphs are simple)"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The frozen buffers behind a [`Csr`], shared by every clone.
#[derive(Debug, PartialEq, Eq)]
struct CsrInner {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

/// Immutable CSR adjacency structure.
///
/// The offset/target buffers live behind an [`Arc`]: cloning a `Csr` (and
/// therefore a `Configuration`) is O(1) and never duplicates the adjacency
/// — at 10⁶ nodes and 10⁸ edges a deep copy would cost ~0.8 GB, and the
/// election pipeline clones configurations into compiled algorithms.
#[derive(Debug, Clone)]
pub struct Csr {
    inner: Arc<CsrInner>,
}

/// Content equality (same adjacency), with an `Arc` identity fast path.
impl PartialEq for Csr {
    fn eq(&self, other: &Csr) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner == other.inner
    }
}

impl Eq for Csr {}

impl Csr {
    fn from_parts(offsets: Vec<u32>, targets: Vec<NodeId>) -> Csr {
        Csr {
            inner: Arc::new(CsrInner { offsets, targets }),
        }
    }

    /// Builds a graph on `n` nodes from an edge list. Edges are checked in
    /// input order, so the first self-loop or out-of-range endpoint is the
    /// error returned; an edge repeated in either orientation is kept once.
    /// Repeats are removed by sorting, not by scanning neighbour lists.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Csr, GraphError> {
        let mut pairs = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            if let Some(node) = [u, v].into_iter().find(|&x| x as usize >= n) {
                return Err(GraphError::NodeOutOfRange { node, n });
            }
            pairs.push((u.min(v), u.max(v)));
        }
        pairs.sort_unstable();
        pairs.dedup();
        Ok(Csr::from_stream(n, |emit| {
            for &(u, v) in &pairs {
                emit(u, v);
            }
        }))
    }

    /// Builds a CSR from an edge stream in two passes: a counting pass
    /// sizes every row exactly, then a fill pass writes the targets and
    /// each row is sorted in place. `stream` must emit the same simple
    /// edges, each once, on both calls.
    ///
    /// # Panics
    /// Panics if the degree sum overflows the `u32` offset space, or if
    /// the two passes disagree.
    pub(crate) fn from_stream(n: usize, stream: impl Fn(&mut dyn FnMut(NodeId, NodeId))) -> Csr {
        let mut degrees = vec![0u32; n];
        stream(&mut |u, v| {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        });
        let mut b = CsrBuilder::from_degrees(&degrees);
        stream(&mut |u, v| b.push_edge(u, v));
        b.finish()
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.inner.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.inner.targets.len() / 2
    }

    /// Iterator over node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_count() as NodeId
    }

    /// Sorted neighbour slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.inner.offsets[v as usize] as usize;
        let hi = self.inner.offsets[v as usize + 1] as usize;
        &self.inner.targets[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.inner.offsets[v as usize + 1] - self.inner.offsets[v as usize]) as usize
    }

    /// Maximum degree Δ (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Binary-searches the sorted neighbour list for `v`–`w` adjacency.
    pub fn has_edge(&self, v: NodeId, w: NodeId) -> bool {
        self.neighbors(v).binary_search(&w).is_ok()
    }

    /// All edges as `(min, max)` pairs, sorted lexicographically (the
    /// rows are sorted, so they come out in order).
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut es = Vec::with_capacity(self.edge_count());
        for u in self.nodes() {
            for &v in self.neighbors(u) {
                if u < v {
                    es.push((u, v));
                }
            }
        }
        es
    }

    /// Returns the graph with nodes renamed by `perm` (node `v` becomes
    /// `perm[v]`).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn relabel(&self, perm: &[NodeId]) -> Csr {
        assert_permutation(perm, self.node_count());
        let edges = self.edges();
        Csr::from_stream(self.node_count(), |emit| {
            for &(u, v) in &edges {
                emit(perm[u as usize], perm[v as usize]);
            }
        })
    }

    /// Internal consistency check (used by tests): offsets that tile the
    /// targets, strictly increasing rows (sorted, no repeats), no
    /// self-loops, endpoints in range, and symmetric adjacency.
    pub fn check_invariants(&self) -> Result<(), String> {
        let CsrInner { offsets, targets } = &*self.inner;
        if offsets.first() != Some(&0) || offsets.last().map(|&o| o as usize) != Some(targets.len())
        {
            return Err(format!("offsets do not tile the {} targets", targets.len()));
        }
        if let Some(v) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("row {v} has a negative length"));
        }
        let n = self.node_count();
        for u in self.nodes() {
            let row = self.neighbors(u);
            if let Some(w) = row.windows(2).find(|w| w[0] >= w[1]) {
                return Err(format!(
                    "row {u} is unsorted or repeats an edge at {}",
                    w[1]
                ));
            }
            for &v in row {
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
                if v as usize >= n {
                    return Err(format!("neighbour {v} of {u} out of range"));
                }
                if !self.has_edge(v, u) {
                    return Err(format!("asymmetric edge {u}-{v}"));
                }
            }
        }
        Ok(())
    }
}

/// Checks that `perm` is a permutation of `0..n`.
///
/// # Panics
/// Panics with "not a permutation" if it is not.
pub(crate) fn assert_permutation(perm: &[NodeId], n: usize) {
    assert_eq!(perm.len(), n, "permutation arity mismatch");
    let mut seen = vec![false; n];
    for &p in perm {
        assert!(
            (p as usize) < n && !seen[p as usize],
            "not a permutation: {p} is out of range or repeats"
        );
        seen[p as usize] = true;
    }
}

/// Incremental CSR assembly from a pre-counted degree sequence — the fill
/// side of [`Csr::from_stream`].
///
/// Contract: [`CsrBuilder::from_degrees`] fixes the exact per-node slot
/// counts up front; every subsequent [`CsrBuilder::push_edge`] fills two
/// slots; and [`CsrBuilder::finish`] sorts each neighbour row in place, so
/// the result depends only on the edge set, not on the order of the
/// edges.
///
/// # Panics
/// `from_degrees` panics if the implied `targets` length overflows the
/// `u32` offset space; `push_edge` panics (via the indexing) on more edges
/// at a node than its declared degree; `finish` panics if any slot was
/// left unfilled.
#[derive(Debug)]
struct CsrBuilder {
    offsets: Vec<u32>,
    cursor: Vec<u32>,
    targets: Vec<NodeId>,
}

impl CsrBuilder {
    /// Allocates the exact CSR layout for the given degree sequence.
    fn from_degrees(degrees: &[u32]) -> CsrBuilder {
        let n = degrees.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut total = 0u64;
        for &d in degrees {
            total += u64::from(d);
            assert!(
                total <= u64::from(u32::MAX),
                "degree sum {total} overflows the u32 CSR offset space"
            );
            offsets.push(total as u32);
        }
        let cursor = offsets[..n].to_vec();
        CsrBuilder {
            offsets,
            cursor,
            targets: vec![0 as NodeId; total as usize],
        }
    }

    /// Records the undirected edge `u`–`v` (fills one slot on each side).
    #[inline]
    fn push_edge(&mut self, u: NodeId, v: NodeId) {
        debug_assert_ne!(u, v, "self-loops are not simple edges");
        let cu = self.cursor[u as usize];
        debug_assert!(cu < self.offsets[u as usize + 1], "degree overflow at {u}");
        self.targets[cu as usize] = v;
        self.cursor[u as usize] = cu + 1;
        let cv = self.cursor[v as usize];
        debug_assert!(cv < self.offsets[v as usize + 1], "degree overflow at {v}");
        self.targets[cv as usize] = u;
        self.cursor[v as usize] = cv + 1;
    }

    /// Sorts every neighbour row in place and freezes the [`Csr`].
    fn finish(mut self) -> Csr {
        let n = self.offsets.len() - 1;
        for v in 0..n {
            let lo = self.offsets[v] as usize;
            let hi = self.offsets[v + 1] as usize;
            assert_eq!(
                self.cursor[v] as usize, hi,
                "node {v} received fewer edges than its declared degree"
            );
            self.targets[lo..hi].sort_unstable();
        }
        Csr::from_parts(self.offsets, self.targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn round_trips_a_path() {
        let csr = generators::path(5);
        assert_eq!(csr.node_count(), 5);
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.neighbors(2), &[1, 3]);
        assert_eq!(csr.degree(2), 2);
        assert_eq!(csr.max_degree(), 2);
        assert!(csr.has_edge(1, 2));
        assert!(!csr.has_edge(0, 2));
        assert_eq!(Csr::from_edges(5, &csr.edges()), Ok(csr));
    }

    #[test]
    fn neighbors_are_sorted_even_from_unsorted_builder() {
        let csr = Csr::from_edges(4, &[(2, 0), (2, 3), (2, 1)]).unwrap();
        assert_eq!(csr.neighbors(2), &[0, 1, 3]);
        assert_eq!(csr.neighbors(1), &[2]);
    }

    #[test]
    fn from_edges_keeps_a_repeated_edge_once() {
        let csr = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 1), (0, 1)]).unwrap();
        assert_eq!(
            csr.edge_count(),
            2,
            "repeats in either orientation count once"
        );
        assert!(csr.has_edge(0, 1) && csr.has_edge(1, 0));
        assert!(!csr.has_edge(0, 2));
        assert_eq!(csr.degree(1), 2);
        assert_eq!(csr.degree(3), 0);
        assert_eq!(csr.max_degree(), 2);
        csr.check_invariants().unwrap();
    }

    #[test]
    fn from_edges_returns_the_first_error_in_input_order() {
        assert_eq!(Csr::from_edges(2, &[(1, 1)]), Err(GraphError::SelfLoop(1)));
        assert_eq!(
            Csr::from_edges(2, &[(0, 5)]),
            Err(GraphError::NodeOutOfRange { node: 5, n: 2 })
        );
        // A self-loop outranks its own out-of-range endpoint, and the
        // earlier of two bad edges wins.
        assert_eq!(
            Csr::from_edges(2, &[(0, 1), (7, 7), (0, 9)]),
            Err(GraphError::SelfLoop(7))
        );
        assert_eq!(
            Csr::from_edges(2, &[(9, 0), (1, 1)]),
            Err(GraphError::NodeOutOfRange { node: 9, n: 2 })
        );
        assert_eq!(
            Csr::from_edges(2, &[(0, 9), (8, 1)]),
            Err(GraphError::NodeOutOfRange { node: 9, n: 2 })
        );
    }

    #[test]
    fn edges_are_sorted_min_max_pairs() {
        let csr = Csr::from_edges(4, &[(2, 1), (0, 3), (0, 1)]).unwrap();
        assert_eq!(csr.edges(), vec![(0, 1), (0, 3), (1, 2)]);
        assert_eq!(csr.nodes().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn relabel_permutes() {
        let csr = generators::path(3);
        // swap 0 and 2
        assert_eq!(csr.relabel(&[2, 1, 0]).edges(), vec![(0, 1), (1, 2)]);
        // 0→1, 1→2, 2→0: edges (0,1)→(1,2) and (1,2)→(0,2)
        let rotated = csr.relabel(&[1, 2, 0]);
        assert_eq!(rotated.edges(), vec![(0, 2), (1, 2)]);
        rotated.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_non_permutation() {
        let _ = generators::path(2).relabel(&[0, 0]);
    }

    #[test]
    fn builder_matches_from_graph() {
        let mut b = CsrBuilder::from_degrees(&[1, 1, 3, 1]);
        b.push_edge(2, 0);
        b.push_edge(2, 3);
        b.push_edge(2, 1);
        assert_eq!(
            Ok(b.finish()),
            Csr::from_edges(4, &[(2, 0), (2, 3), (2, 1)])
        );
    }

    #[test]
    #[should_panic(expected = "fewer edges")]
    fn builder_rejects_underfilled_rows() {
        let b = CsrBuilder::from_degrees(&[1, 1]);
        let _ = b.finish();
    }

    #[test]
    fn empty_and_singleton() {
        let csr = Csr::from_edges(0, &[]).unwrap();
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.max_degree(), 0);
        assert_eq!(csr.edges(), vec![]);
        csr.check_invariants().unwrap();
        let csr1 = Csr::from_edges(1, &[]).unwrap();
        assert_eq!(csr1.node_count(), 1);
        assert_eq!(csr1.neighbors(0), &[] as &[NodeId]);
        csr1.check_invariants().unwrap();
    }

    #[test]
    fn empty_graph() {
        // Every route to a zero-node graph gives the same empty CSR.
        let csr = Csr::from_edges(0, &[]).unwrap();
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.max_degree(), 0);
        assert_eq!(csr.nodes().count(), 0);
        csr.check_invariants().unwrap();
        assert_eq!(generators::path(0), csr);
        assert_eq!(CsrBuilder::from_degrees(&[]).finish(), csr);
        assert_eq!(csr.relabel(&[]), csr);
    }

    #[test]
    fn sorted_neighbors() {
        // Rows are sorted whatever order the edges arrive in, and stay
        // sorted after a relabelling reorders the ids inside them.
        let csr = Csr::from_edges(4, &[(1, 3), (1, 0), (1, 2)]).unwrap();
        assert_eq!(csr.neighbors(1), &[0, 2, 3]);
        let reversed = csr.relabel(&[3, 2, 1, 0]);
        assert_eq!(reversed.neighbors(2), &[0, 1, 3]);
        for v in reversed.nodes() {
            assert!(reversed.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
        reversed.check_invariants().unwrap();
    }
}
