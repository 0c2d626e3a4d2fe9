//! Graph generators: every family written once, as an edge stream.
//!
//! The deterministic constructors cover the shapes the paper's arguments use
//! (paths for the lower-bound families, rings for the token-ring motivation,
//! stars/trees/grids for degree and diameter extremes); the seeded random
//! constructors drive the feasibility-landscape and scaling experiments.
//!
//! Each family is one `<family>_edges` function that calls `emit(u, v)`
//! once per undirected edge — never a self-loop, never a repeated edge.
//! The stream's one consumer is the [`Csr`] builder: a count pass sizes
//! the rows, then a fill pass writes them. A deterministic stream is
//! replayed for the fill pass, so no edge list is held. A seeded stream
//! runs once (`freeze_once`): its edges are collected into a list, and
//! the list is replayed. That holds both for the constructors below that
//! borrow a caller's RNG and for
//! [`FamilySpec::build_csr`](crate::FamilySpec::build_csr), which seeds
//! its own RNG, so every seeded draw is made exactly once.
//!
//! Every connected-by-construction generator is covered by tests asserting
//! connectivity, node and edge counts.

use rand::seq::SliceRandom;
use rand::Rng;

use radio_util::FxHashSet;

use crate::csr::{Csr, NodeId};

/// Where a generator sends its edges.
pub(crate) type Emit<'a> = &'a mut dyn FnMut(NodeId, NodeId);

// --- deterministic families ---

/// Path `P_n`: nodes `0‒1‒…‒(n-1)`.
pub fn path(n: usize) -> Csr {
    Csr::from_stream(n, |emit| path_edges(n, emit))
}

pub(crate) fn path_edges(n: usize, emit: Emit) {
    for v in 1..n {
        emit((v - 1) as NodeId, v as NodeId);
    }
}

/// Cycle `C_n` (requires `n ≥ 3`).
///
/// # Panics
/// Panics if `n < 3` (a simple graph has no 1- or 2-cycles).
pub fn cycle(n: usize) -> Csr {
    Csr::from_stream(n, |emit| cycle_edges(n, emit))
}

pub(crate) fn cycle_edges(n: usize, emit: Emit) {
    assert!(n >= 3, "cycle requires n >= 3, got {n}");
    path_edges(n, emit);
    emit(0, (n - 1) as NodeId);
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Csr {
    Csr::from_stream(n, |emit| complete_edges(n, emit))
}

pub(crate) fn complete_edges(n: usize, emit: Emit) {
    clique_edges(0, n, emit);
}

/// All pairs of the node range `lo..hi`, lexicographically.
fn clique_edges(lo: usize, hi: usize, emit: Emit) {
    for u in lo..hi {
        for v in (u + 1)..hi {
            emit(u as NodeId, v as NodeId);
        }
    }
}

/// Star `S_{n-1}`: node 0 is the centre, nodes `1..n` are leaves
/// (requires `n ≥ 1`).
pub fn star(n: usize) -> Csr {
    Csr::from_stream(n, |emit| star_edges(n, emit))
}

pub(crate) fn star_edges(n: usize, emit: Emit) {
    for v in 1..n {
        emit(0, v as NodeId);
    }
}

/// Complete bipartite graph `K_{a,b}`: sides `0..a` and `a..a+b`.
pub fn complete_bipartite(a: usize, b: usize) -> Csr {
    Csr::from_stream(a + b, |emit| complete_bipartite_edges(a, b, emit))
}

pub(crate) fn complete_bipartite_edges(a: usize, b: usize, emit: Emit) {
    for u in 0..a {
        for v in 0..b {
            emit(u as NodeId, (a + v) as NodeId);
        }
    }
}

/// `rows × cols` grid; node `(r, c)` has index `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> Csr {
    Csr::from_stream(rows * cols, |emit| grid_edges(rows, cols, emit))
}

pub(crate) fn grid_edges(rows: usize, cols: usize, emit: Emit) {
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                emit(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                emit(id(r, c), id(r + 1, c));
            }
        }
    }
}

/// `d`-dimensional hypercube `Q_d` on `2^d` nodes; nodes adjacent iff their
/// indices differ in one bit.
pub fn hypercube(d: u32) -> Csr {
    Csr::from_stream(1usize << d, |emit| hypercube_edges(d, emit))
}

pub(crate) fn hypercube_edges(d: u32, emit: Emit) {
    for v in 0..1usize << d {
        for bit in 0..d {
            let w = v ^ (1usize << bit);
            if v < w {
                emit(v as NodeId, w as NodeId);
            }
        }
    }
}

/// Balanced `k`-ary tree with the given number of nodes, filled level by
/// level: node `v ≥ 1` attaches to `(v - 1) / k`.
///
/// # Panics
/// Panics if `k == 0`.
pub fn balanced_tree(n: usize, k: usize) -> Csr {
    Csr::from_stream(n, |emit| balanced_tree_edges(n, k, emit))
}

pub(crate) fn balanced_tree_edges(n: usize, k: usize, emit: Emit) {
    assert!(k > 0, "arity must be positive");
    for v in 1..n {
        emit(((v - 1) / k) as NodeId, v as NodeId);
    }
}

/// Caterpillar: a spine path of `spine` nodes, each carrying `legs` pendant
/// leaves. Total nodes `spine * (1 + legs)`. Spine nodes come first
/// (`0..spine`), then the leaves of spine node `s` are consecutive.
pub fn caterpillar(spine: usize, legs: usize) -> Csr {
    Csr::from_stream(spine * (1 + legs), |emit| {
        caterpillar_edges(spine, legs, emit)
    })
}

pub(crate) fn caterpillar_edges(spine: usize, legs: usize, emit: Emit) {
    path_edges(spine, emit);
    let mut next = spine;
    for s in 0..spine {
        for _ in 0..legs {
            emit(s as NodeId, next as NodeId);
            next += 1;
        }
    }
}

/// Spider: `legs` paths of length `len` glued at a centre node 0. Total
/// nodes `1 + legs * len`. Leg `i` occupies nodes
/// `1 + i*len .. 1 + (i+1)*len`, with the node closest to the centre first.
pub fn spider(legs: usize, len: usize) -> Csr {
    Csr::from_stream(1 + legs * len, |emit| spider_edges(legs, len, emit))
}

pub(crate) fn spider_edges(legs: usize, len: usize, emit: Emit) {
    if len == 0 {
        return;
    }
    for i in 0..legs {
        let base = (1 + i * len) as NodeId;
        emit(0, base);
        for j in 1..len as NodeId {
            emit(base + j - 1, base + j);
        }
    }
}

/// Barbell: two `K_k` cliques joined by a path of `bridge` intermediate
/// nodes. Total nodes `2k + bridge` (requires `k ≥ 1`).
pub fn barbell(k: usize, bridge: usize) -> Csr {
    Csr::from_stream(2 * k + bridge, |emit| barbell_edges(k, bridge, emit))
}

pub(crate) fn barbell_edges(k: usize, bridge: usize, emit: Emit) {
    assert!(k >= 1, "clique size must be at least 1");
    // left clique 0..k, right clique k+bridge..n
    let right0 = k + bridge;
    clique_edges(0, k, emit);
    clique_edges(right0, right0 + k, emit);
    // bridge path k-1 ↔ k ↔ … ↔ k+bridge (endpoint cliques attach at node
    // k-1 and node right0).
    tail_edges(k - 1, bridge + 1, emit);
}

/// A pendant path of `len` new nodes `from+1 ..= from+len` hanging off
/// node `from`.
fn tail_edges(from: usize, len: usize, emit: Emit) {
    for v in from + 1..=from + len {
        emit((v - 1) as NodeId, v as NodeId);
    }
}

/// Wheel `W_n`: a cycle of `n−1` rim nodes (`1..n`) plus hub node 0
/// adjacent to all of them (requires `n ≥ 4`).
pub fn wheel(n: usize) -> Csr {
    Csr::from_stream(n, |emit| wheel_edges(n, emit))
}

pub(crate) fn wheel_edges(n: usize, emit: Emit) {
    assert!(n >= 4, "wheel requires n >= 4, got {n}");
    for v in 1..n {
        emit(0, v as NodeId);
        let next = if v == n - 1 { 1 } else { v + 1 };
        emit(v as NodeId, next as NodeId);
    }
}

/// Ladder: two paths of `len` nodes joined by rungs. Node `(side, i)` is
/// `side * len + i`. Total nodes `2·len` (requires `len ≥ 1`).
pub fn ladder(len: usize) -> Csr {
    Csr::from_stream(2 * len, |emit| ladder_edges(len, emit))
}

pub(crate) fn ladder_edges(len: usize, emit: Emit) {
    assert!(len >= 1, "ladder requires len >= 1");
    for i in 0..len {
        if i + 1 < len {
            emit(i as NodeId, (i + 1) as NodeId);
            emit((len + i) as NodeId, (len + i + 1) as NodeId);
        }
        emit(i as NodeId, (len + i) as NodeId);
    }
}

/// `rows × cols` torus: the grid with wraparound in both dimensions
/// (requires `rows, cols ≥ 3` so the graph stays simple).
pub fn torus(rows: usize, cols: usize) -> Csr {
    Csr::from_stream(rows * cols, |emit| torus_edges(rows, cols, emit))
}

pub(crate) fn torus_edges(rows: usize, cols: usize, emit: Emit) {
    assert!(rows >= 3 && cols >= 3, "torus requires rows, cols >= 3");
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    for r in 0..rows {
        for c in 0..cols {
            emit(id(r, c), id(r, (c + 1) % cols));
            emit(id(r, c), id((r + 1) % rows, c));
        }
    }
}

/// Double star: two adjacent hubs (`0` and `1`) with `a` leaves on the
/// first and `b` on the second. Total nodes `2 + a + b`.
pub fn double_star(a: usize, b: usize) -> Csr {
    Csr::from_stream(2 + a + b, |emit| double_star_edges(a, b, emit))
}

pub(crate) fn double_star_edges(a: usize, b: usize, emit: Emit) {
    emit(0, 1);
    for leaf in 2..2 + a {
        emit(0, leaf as NodeId);
    }
    for leaf in 2 + a..2 + a + b {
        emit(1, leaf as NodeId);
    }
}

/// Lollipop: a `K_k` clique with a pendant path of `tail` nodes attached to
/// clique node `k-1`. Total nodes `k + tail` (requires `k ≥ 1`).
pub fn lollipop(k: usize, tail: usize) -> Csr {
    Csr::from_stream(k + tail, |emit| lollipop_edges(k, tail, emit))
}

pub(crate) fn lollipop_edges(k: usize, tail: usize, emit: Emit) {
    assert!(k >= 1, "clique size must be at least 1");
    clique_edges(0, k, emit);
    tail_edges(k - 1, tail, emit);
}

// --- seeded families ---
//
// Each takes an explicit `&mut impl Rng`; experiments derive their RNGs via
// [`radio_util::rng`] so results are reproducible.

/// Runs `stream` once, collecting its edges into a list with room for
/// `capacity` of them, and freezes them — the route of every seeded
/// stream, which would otherwise redraw its RNG for the fill pass (or, on
/// a caller's RNG, could not replay it at all).
pub(crate) fn freeze_once(n: usize, capacity: usize, stream: impl FnOnce(Emit)) -> Csr {
    let mut edges = Vec::with_capacity(capacity);
    stream(&mut |u, v| edges.push((u, v)));
    Csr::from_stream(n, |emit| {
        for &(u, v) in &edges {
            emit(u, v);
        }
    })
}

/// Uniform random labelled tree on `n` nodes via a random attachment
/// sequence: node `v` (in a random order) attaches to a uniformly chosen
/// earlier node. This is not the uniform spanning-tree distribution (that
/// would need Prüfer decoding) but produces well-varied trees and is what
/// the feasibility experiments need: diverse connected topologies.
pub fn random_tree(n: usize, rng: &mut impl Rng) -> Csr {
    freeze_once(n, n.saturating_sub(1), |emit| {
        random_tree_edges(n, rng, emit)
    })
}

pub(crate) fn random_tree_edges(n: usize, rng: &mut impl Rng, emit: Emit) {
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.shuffle(rng);
    for i in 1..n {
        let parent = order[rng.random_range(0..i)];
        emit(parent, order[i]);
    }
}

/// Connected Erdős–Rényi-style graph: a random tree backbone (guaranteeing
/// connectivity) plus each remaining pair added independently with
/// probability `p`.
///
/// For `p = 0` this is exactly a random tree; for `p = 1` the complete
/// graph.
pub fn gnp_connected(n: usize, p: f64, rng: &mut impl Rng) -> Csr {
    freeze_once(n, n.saturating_sub(1), |emit| {
        gnp_connected_edges(n, p, rng, emit)
    })
}

pub(crate) fn gnp_connected_edges(n: usize, p: f64, rng: &mut impl Rng, emit: Emit) {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    let mut tree = Vec::with_capacity(n.saturating_sub(1));
    random_tree_edges(n, rng, &mut |u, v| {
        tree.push((u.min(v), u.max(v)));
        emit(u, v);
    });
    if p > 0.0 {
        // `random_bool(p)` compares the next word's top 53 bits, as a
        // fraction of 2⁵³, with `p`; exactly that is an integer compare
        // with ⌈p·2⁵³⌉ (the product is exact: a power-of-two scaling).
        let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
        let mut coins = |u: NodeId, vs: std::ops::Range<NodeId>| {
            for v in vs {
                if rng.next_u64() >> 11 < threshold {
                    emit(u, v);
                }
            }
        };
        // No coin is flipped for a pair the backbone already joined. The
        // scan meets pairs in `(u, v)` order, so it meets the sorted
        // backbone pairs in order too: row `u`'s backbone partners split
        // it into runs of coins.
        tree.sort_unstable();
        let mut partners = tree.iter().peekable();
        for u in 0..n as NodeId {
            let mut v = u + 1;
            while let Some(&(_, w)) = partners.next_if(|&&(a, _)| a == u) {
                coins(u, v..w);
                v = w + 1;
            }
            coins(u, v..n as NodeId);
        }
    }
}

/// Connected graph with exactly `extra` edges beyond a spanning tree
/// (i.e. `n - 1 + extra` edges), sampled by rejection over non-edges.
///
/// # Panics
/// Panics if `extra` exceeds the number of available non-tree pairs.
pub fn random_connected(n: usize, extra: usize, rng: &mut impl Rng) -> Csr {
    freeze_once(n, n.saturating_sub(1), |emit| {
        random_connected_edges(n, extra, rng, emit)
    })
}

pub(crate) fn random_connected_edges(n: usize, extra: usize, rng: &mut impl Rng, emit: Emit) {
    let max_extra = n * (n - 1) / 2 - (n.saturating_sub(1));
    assert!(
        extra <= max_extra,
        "requested {extra} extra edges, only {max_extra} available"
    );
    // Rejection sampling tests arbitrary pairs, so the tree goes in a set.
    let mut joined = FxHashSet::default();
    random_tree_edges(n, rng, &mut |u, v| {
        joined.insert((u.min(v), u.max(v)));
        emit(u, v);
    });
    let mut added = 0;
    while added < extra {
        let u = rng.random_range(0..n) as NodeId;
        let v = rng.random_range(0..n) as NodeId;
        if u != v && joined.insert((u.min(v), u.max(v))) {
            emit(u, v);
            added += 1;
        }
    }
}

/// Random caterpillar: a spine of `spine` nodes, with `leaves` pendant
/// leaves attached to uniformly chosen spine nodes.
pub fn random_caterpillar(spine: usize, leaves: usize, rng: &mut impl Rng) -> Csr {
    let n = spine + leaves;
    freeze_once(n, n.saturating_sub(1), |emit| {
        random_caterpillar_edges(spine, leaves, rng, emit)
    })
}

pub(crate) fn random_caterpillar_edges(
    spine: usize,
    leaves: usize,
    rng: &mut impl Rng,
    emit: Emit,
) {
    assert!(spine >= 1, "spine must be non-empty");
    path_edges(spine, emit);
    for leaf in spine..spine + leaves {
        let s = rng.random_range(0..spine) as NodeId;
        emit(s, leaf as NodeId);
    }
}

// The shape tests are grouped as `deterministic::tests` and
// `random::tests`, the names they are known by in test reports.
#[cfg(test)]
mod deterministic {
    mod tests {
        use crate::algo::{diameter, is_connected};
        use crate::generators::*;

        #[test]
        fn path_shape() {
            let g = path(6);
            assert_eq!(g.node_count(), 6);
            assert_eq!(g.edge_count(), 5);
            assert!(is_connected(&g));
            assert_eq!(g.max_degree(), 2);
            assert_eq!(g.degree(0), 1);
        }

        #[test]
        fn path_degenerate() {
            assert_eq!(path(0).node_count(), 0);
            assert_eq!(path(1).edge_count(), 0);
        }

        #[test]
        fn cycle_shape() {
            let g = cycle(5);
            assert_eq!(g.edge_count(), 5);
            assert!(g.nodes().all(|v| g.degree(v) == 2));
            assert!(is_connected(&g));
        }

        #[test]
        #[should_panic(expected = "n >= 3")]
        fn cycle_too_small() {
            let _ = cycle(2);
        }

        #[test]
        fn complete_shape() {
            let g = complete(6);
            assert_eq!(g.edge_count(), 15);
            assert!(g.nodes().all(|v| g.degree(v) == 5));
        }

        #[test]
        fn star_shape() {
            let g = star(7);
            assert_eq!(g.edge_count(), 6);
            assert_eq!(g.degree(0), 6);
            assert!((1..7).all(|v| g.degree(v) == 1));
        }

        #[test]
        fn bipartite_shape() {
            let g = complete_bipartite(3, 4);
            assert_eq!(g.node_count(), 7);
            assert_eq!(g.edge_count(), 12);
            assert!(!g.has_edge(0, 1), "no intra-side edges");
            assert!(g.has_edge(0, 3));
            assert!(is_connected(&g));
        }

        #[test]
        fn grid_shape() {
            let g = grid(3, 4);
            assert_eq!(g.node_count(), 12);
            assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // rows*(cols-1) + (rows-1)*cols
            assert!(is_connected(&g));
            assert_eq!(diameter(&g), Some(5)); // (3-1)+(4-1)
        }

        #[test]
        fn hypercube_shape() {
            let g = hypercube(4);
            assert_eq!(g.node_count(), 16);
            assert_eq!(g.edge_count(), 32); // d * 2^(d-1)
            assert!(g.nodes().all(|v| g.degree(v) == 4));
            assert_eq!(diameter(&g), Some(4));
        }

        #[test]
        fn balanced_tree_shape() {
            let g = balanced_tree(10, 2);
            assert_eq!(g.edge_count(), 9);
            assert!(is_connected(&g));
            assert_eq!(g.degree(0), 2);
        }

        #[test]
        fn caterpillar_shape() {
            let g = caterpillar(4, 2);
            assert_eq!(g.node_count(), 12);
            assert_eq!(g.edge_count(), 11); // tree
            assert!(is_connected(&g));
            // interior spine node: 2 spine edges + 2 legs
            assert_eq!(g.degree(1), 4);
        }

        #[test]
        fn spider_shape() {
            let g = spider(3, 4);
            assert_eq!(g.node_count(), 13);
            assert_eq!(g.edge_count(), 12);
            assert_eq!(g.degree(0), 3);
            assert_eq!(diameter(&g), Some(8));
        }

        #[test]
        fn barbell_shape() {
            let g = barbell(4, 2);
            assert_eq!(g.node_count(), 10);
            // 2 * C(4,2) + 3 bridge edges
            assert_eq!(g.edge_count(), 12 + 3);
            assert!(is_connected(&g));
        }

        #[test]
        fn barbell_no_bridge() {
            let g = barbell(3, 0);
            assert_eq!(g.node_count(), 6);
            assert_eq!(g.edge_count(), 6 + 1);
            assert!(is_connected(&g));
        }

        #[test]
        fn lollipop_shape() {
            let g = lollipop(4, 3);
            assert_eq!(g.node_count(), 7);
            assert_eq!(g.edge_count(), 6 + 3);
            assert!(is_connected(&g));
            assert_eq!(g.degree(6), 1);
        }

        #[test]
        fn wheel_shape() {
            let g = wheel(6); // hub + 5-cycle rim
            assert_eq!(g.node_count(), 6);
            assert_eq!(g.edge_count(), 10); // 5 spokes + 5 rim
            assert_eq!(g.degree(0), 5);
            assert!((1..6).all(|v| g.degree(v) == 3));
            assert_eq!(diameter(&g), Some(2));
        }

        #[test]
        #[should_panic(expected = "n >= 4")]
        fn wheel_too_small() {
            let _ = wheel(3);
        }

        #[test]
        fn ladder_shape() {
            let g = ladder(4);
            assert_eq!(g.node_count(), 8);
            assert_eq!(g.edge_count(), 3 + 3 + 4); // two rails + rungs
            assert!(is_connected(&g));
            assert_eq!(g.degree(0), 2); // corner
            assert_eq!(g.degree(1), 3); // interior rail
            assert_eq!(diameter(&g), Some(4));
        }

        #[test]
        fn ladder_single_rung() {
            let g = ladder(1);
            assert_eq!(g.node_count(), 2);
            assert_eq!(g.edge_count(), 1);
        }

        #[test]
        fn torus_shape() {
            let g = torus(3, 4);
            assert_eq!(g.node_count(), 12);
            assert_eq!(g.edge_count(), 24); // 2 edges per node
            assert!(g.nodes().all(|v| g.degree(v) == 4));
            assert!(is_connected(&g));
            assert_eq!(diameter(&g), Some(3)); // ⌊3/2⌋ + ⌊4/2⌋
        }

        #[test]
        #[should_panic(expected = "rows, cols >= 3")]
        fn torus_too_small() {
            let _ = torus(2, 5);
        }

        #[test]
        fn double_star_shape() {
            let g = double_star(3, 2);
            assert_eq!(g.node_count(), 7);
            assert_eq!(g.edge_count(), 6);
            assert_eq!(g.degree(0), 4); // hub + 3 leaves
            assert_eq!(g.degree(1), 3); // hub + 2 leaves
            assert!(is_connected(&g));
            assert_eq!(diameter(&g), Some(3));
        }

        #[test]
        fn double_star_no_leaves() {
            let g = double_star(0, 0);
            assert_eq!(g.node_count(), 2);
            assert_eq!(g.edge_count(), 1);
        }
    }
}

#[cfg(test)]
mod random {
    mod tests {
        use crate::algo::is_connected;
        use crate::generators::*;
        use radio_util::rng::rng_from;

        #[test]
        fn random_tree_is_a_tree() {
            let mut rng = rng_from(7);
            for n in [1usize, 2, 3, 10, 64] {
                let g = random_tree(n, &mut rng);
                assert_eq!(g.node_count(), n);
                assert_eq!(g.edge_count(), n.saturating_sub(1));
                assert!(is_connected(&g), "n={n}");
                g.check_invariants().unwrap();
            }
        }

        #[test]
        fn random_tree_is_seed_deterministic() {
            let a = random_tree(20, &mut rng_from(42));
            let b = random_tree(20, &mut rng_from(42));
            assert_eq!(a.edges(), b.edges());
            let c = random_tree(20, &mut rng_from(43));
            assert_ne!(
                a.edges(),
                c.edges(),
                "different seed should differ (overwhelmingly)"
            );
        }

        #[test]
        fn gnp_connected_spans_density_range() {
            let mut rng = rng_from(11);
            let sparse = gnp_connected(12, 0.0, &mut rng);
            assert_eq!(sparse.edge_count(), 11);
            let dense = gnp_connected(12, 1.0, &mut rng);
            assert_eq!(dense.edge_count(), 12 * 11 / 2);
            let mid = gnp_connected(12, 0.3, &mut rng);
            assert!(is_connected(&mid));
            assert!(mid.edge_count() >= 11);
        }

        #[test]
        fn random_connected_edge_budget() {
            let mut rng = rng_from(3);
            let g = random_connected(10, 5, &mut rng);
            assert_eq!(g.edge_count(), 9 + 5);
            assert!(is_connected(&g));
        }

        #[test]
        #[should_panic(expected = "extra edges")]
        fn random_connected_rejects_overfull() {
            let mut rng = rng_from(3);
            let _ = random_connected(4, 100, &mut rng);
        }

        #[test]
        fn random_caterpillar_shape() {
            let mut rng = rng_from(9);
            let g = random_caterpillar(5, 7, &mut rng);
            assert_eq!(g.node_count(), 12);
            assert_eq!(g.edge_count(), 11);
            assert!(is_connected(&g));
            // all leaves have degree 1
            assert!((5..12).all(|v| g.degree(v) == 1));
        }
    }
}
