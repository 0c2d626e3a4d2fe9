//! Compressed-sparse-row adjacency: the frozen, cache-friendly graph form
//! consumed by the simulator's per-round loop and by the classifier.
//!
//! Neighbour lists are stored back-to-back in one `Vec<NodeId>` with an
//! offsets array; neighbours of each node are sorted, which gives the fixed
//! node ordering the paper's `Classifier` relies on ("we fix an arbitrary
//! ordering of the vertices") and makes iteration branch-predictable.

use std::sync::Arc;

use crate::graph::{Graph, NodeId};

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
    /// Freezes a [`Graph`] into CSR form (neighbour lists sorted): one
    /// counting pass sizes `targets` exactly, then each node's neighbours
    /// are copied into their final slice and sorted in place — no per-node
    /// scratch allocation.
    pub fn from_graph(g: &Graph) -> Csr {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for v in 0..n as NodeId {
            total += g.neighbors(v).len() as u32;
            offsets.push(total);
        }
        let mut targets = vec![0 as NodeId; total as usize];
        for v in 0..n as NodeId {
            let lo = offsets[v as usize] as usize;
            let hi = offsets[v as usize + 1] as usize;
            let row = &mut targets[lo..hi];
            row.copy_from_slice(g.neighbors(v));
            row.sort_unstable();
        }
        Csr::from_parts(offsets, targets)
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

    /// Maximum degree Δ.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Binary-searches the sorted neighbour list for `v`–`w` adjacency.
    pub fn has_edge(&self, v: NodeId, w: NodeId) -> bool {
        self.neighbors(v).binary_search(&w).is_ok()
    }

    /// Builds a CSR from an edge stream in two passes: a counting pass
    /// sizes every row exactly, then a fill pass writes the targets and
    /// each row is sorted in place — the same bytes as
    /// [`Csr::from_graph`] over the same edges, with no adjacency-list
    /// [`Graph`] in between. `stream` must emit the same edges, each
    /// once, on both calls.
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

    /// Thaws back into a mutable [`Graph`] (used by IO round-trips).
    pub fn to_graph(&self) -> Graph {
        let n = self.node_count();
        Graph::from_stream(n, |emit| {
            for v in 0..n as NodeId {
                for &w in self.neighbors(v) {
                    if v < w {
                        emit(v, w);
                    }
                }
            }
        })
    }
}

impl From<&Graph> for Csr {
    fn from(g: &Graph) -> Csr {
        Csr::from_graph(g)
    }
}

/// Incremental CSR assembly from a pre-counted degree sequence — the fill
/// side of [`Csr::from_stream`].
///
/// Contract: [`CsrBuilder::from_degrees`] fixes the exact per-node slot
/// counts up front; every subsequent [`CsrBuilder::push_edge`] fills two
/// slots; and [`CsrBuilder::finish`] sorts each neighbour row in place,
/// yielding a [`Csr`] byte-identical to `Csr::from_graph` over the same
/// edge set.
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
        let g = generators::path(5);
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.node_count(), 5);
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.neighbors(2), &[1, 3]);
        assert_eq!(csr.degree(2), 2);
        assert_eq!(csr.max_degree(), 2);
        assert!(csr.has_edge(1, 2));
        assert!(!csr.has_edge(0, 2));
        let back = csr.to_graph();
        assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn neighbors_are_sorted_even_from_unsorted_builder() {
        let g = Graph::from_edges(4, &[(2, 0), (2, 3), (2, 1)]).unwrap();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.neighbors(2), &[0, 1, 3]);
    }

    #[test]
    fn builder_matches_from_graph() {
        let g = Graph::from_edges(4, &[(2, 0), (2, 3), (2, 1)]).unwrap();
        let mut b = CsrBuilder::from_degrees(&[1, 1, 3, 1]);
        b.push_edge(2, 0);
        b.push_edge(2, 3);
        b.push_edge(2, 1);
        assert_eq!(b.finish(), Csr::from_graph(&g));
    }

    #[test]
    #[should_panic(expected = "fewer edges")]
    fn builder_rejects_underfilled_rows() {
        let b = CsrBuilder::from_degrees(&[1, 1]);
        let _ = b.finish();
    }

    #[test]
    fn empty_and_singleton() {
        let csr = Csr::from_graph(&Graph::new(0));
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.max_degree(), 0);
        let csr1 = Csr::from_graph(&Graph::new(1));
        assert_eq!(csr1.node_count(), 1);
        assert_eq!(csr1.neighbors(0), &[] as &[NodeId]);
    }
}
