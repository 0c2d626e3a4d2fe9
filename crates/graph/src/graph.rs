//! Simple undirected graphs with adjacency-list storage.
//!
//! [`Graph`] is the mutable builder form: nodes are dense `u32` indices,
//! edges are undirected and deduplicated, self-loops are rejected (the paper
//! works with *simple* graphs). The simulator consumes the frozen
//! [`crate::Csr`] form instead.

use std::fmt;

use radio_util::FxHashSet;

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

/// A simple undirected graph under construction.
///
/// Edges are appended during building; neighbour lists keep insertion order
/// (use [`Graph::sorted_neighbors`] or freeze into a [`crate::Csr`] when a
/// canonical order matters). Equality is *semantic*: two graphs are equal
/// iff they have the same node count and edge set, regardless of the order
/// edges were inserted.
#[derive(Debug, Clone, Eq)]
pub struct Graph {
    n: usize,
    adj: Vec<Vec<NodeId>>,
    m: usize,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Graph) -> bool {
        self.n == other.n && self.m == other.m && self.edges() == other.edges()
    }
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Graph {
        Graph {
            n,
            adj: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Creates a graph from an edge list. Duplicate edges are ignored.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Graph, GraphError> {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Iterator over node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n as NodeId
    }

    /// Adds the undirected edge `{u, v}`. Returns `Ok(true)` if the edge was
    /// new, `Ok(false)` if it already existed.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        for &x in [u, v].iter() {
            if (x as usize) >= self.n {
                return Err(GraphError::NodeOutOfRange { node: x, n: self.n });
            }
        }
        if self.adj[u as usize].contains(&v) {
            return Ok(false);
        }
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);
        self.m += 1;
        Ok(true)
    }

    /// Builds a graph from an edge stream: `stream` calls its argument once
    /// per undirected edge, and each node's neighbour list keeps the
    /// emission order.
    ///
    /// Reserved for streams that provably never repeat an edge (the
    /// [`generators`](crate::generators), a frozen [`Csr`](crate::Csr)):
    /// there is no [`Graph::add_edge`] duplicate scan, whose O(deg) cost
    /// per edge makes dense builders like `complete(n)` O(n³) overall.
    /// Bounds, self-loops and duplicates are still checked in debug builds.
    pub(crate) fn from_stream(
        n: usize,
        stream: impl FnOnce(&mut dyn FnMut(NodeId, NodeId)),
    ) -> Graph {
        let mut g = Graph::new(n);
        stream(&mut |u, v| {
            debug_assert!(u != v, "self-loop at {u}");
            debug_assert!((u as usize) < n && (v as usize) < n);
            debug_assert!(!g.has_edge(u, v), "duplicate edge {u}-{v}");
            g.adj[u as usize].push(v);
            g.adj[v as usize].push(u);
            g.m += 1;
        });
        g
    }

    /// True if `{u, v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        (u as usize) < self.n && self.adj[u as usize].contains(&v)
    }

    /// Neighbour list of `v` (unsorted order of insertion; use
    /// [`Graph::sorted_neighbors`] when order matters).
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v as usize]
    }

    /// Sorted copy of the neighbour list of `v`.
    pub fn sorted_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let mut ns = self.adj[v as usize].clone();
        ns.sort_unstable();
        ns
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v as usize].len()
    }

    /// Maximum degree Δ over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// All edges as `(min, max)` pairs, sorted lexicographically.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut es = Vec::with_capacity(self.m);
        for u in 0..self.n as NodeId {
            for &v in &self.adj[u as usize] {
                if u < v {
                    es.push((u, v));
                }
            }
        }
        es.sort_unstable();
        es
    }

    /// Returns a graph with nodes renamed by `perm` (node `v` becomes
    /// `perm[v]`). `perm` must be a permutation of `0..n`; this is validated.
    pub fn relabel(&self, perm: &[NodeId]) -> Result<Graph, GraphError> {
        assert_eq!(perm.len(), self.n, "permutation arity mismatch");
        let mut seen = vec![false; self.n];
        for &p in perm {
            if (p as usize) >= self.n {
                return Err(GraphError::NodeOutOfRange { node: p, n: self.n });
            }
            assert!(!seen[p as usize], "perm is not a permutation: {p} repeats");
            seen[p as usize] = true;
        }
        let mut g = Graph::new(self.n);
        for (u, v) in self.edges() {
            g.add_edge(perm[u as usize], perm[v as usize])?;
        }
        Ok(g)
    }

    /// Internal consistency check (used by tests and debug assertions):
    /// symmetry of adjacency, no self-loops, no duplicates, and edge count.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut count = 0usize;
        for u in 0..self.n as NodeId {
            let mut seen: FxHashSet<NodeId> = FxHashSet::default();
            for &v in &self.adj[u as usize] {
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
                if (v as usize) >= self.n {
                    return Err(format!("neighbour {v} of {u} out of range"));
                }
                if !seen.insert(v) {
                    return Err(format!("duplicate edge {u}-{v}"));
                }
                if !self.adj[v as usize].contains(&u) {
                    return Err(format!("asymmetric edge {u}-{v}"));
                }
                count += 1;
            }
        }
        if count != 2 * self.m {
            return Err(format!(
                "edge count mismatch: counted {count}, expected {}",
                2 * self.m
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_queries_edges() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(0, 1).unwrap());
        assert!(g.add_edge(1, 2).unwrap());
        assert!(
            !g.add_edge(2, 1).unwrap(),
            "duplicate (reversed) edge must be ignored"
        );
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    fn rejects_self_loops_and_range() {
        let mut g = Graph::new(2);
        assert_eq!(g.add_edge(1, 1), Err(GraphError::SelfLoop(1)));
        assert_eq!(
            g.add_edge(0, 5),
            Err(GraphError::NodeOutOfRange { node: 5, n: 2 })
        );
    }

    #[test]
    fn edges_sorted_canonical() {
        let g = Graph::from_edges(4, &[(2, 1), (0, 3), (0, 1)]).unwrap();
        assert_eq!(g.edges(), vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn relabel_permutes() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        // swap 0 and 2
        let h = g.relabel(&[2, 1, 0]).unwrap();
        assert_eq!(h.edges(), vec![(0, 1), (1, 2)]);
        // 0→1, 1→2, 2→0: edges (0,1)→(1,2) and (1,2)→(0,2)
        let h2 = g.relabel(&[1, 2, 0]).unwrap();
        assert_eq!(h2.edges(), vec![(0, 2), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_non_permutation() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let _ = g.relabel(&[0, 0]);
    }

    #[test]
    fn sorted_neighbors() {
        let g = Graph::from_edges(4, &[(1, 3), (1, 0), (1, 2)]).unwrap();
        assert_eq!(g.sorted_neighbors(1), vec![0, 2, 3]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.max_degree(), 0);
        g.check_invariants().unwrap();
    }
}
