//! Elementary graph algorithms used across the workspace: BFS layers,
//! connectivity, eccentricity/diameter, and degree statistics.

use crate::csr::{Csr, NodeId};

/// BFS distances from `src`; unreachable nodes get `u32::MAX`.
pub fn bfs_distances(g: &Csr, src: NodeId) -> Vec<u32> {
    let n = g.node_count();
    let mut dist = vec![u32::MAX; n];
    if n == 0 {
        return dist;
    }
    let mut queue = std::collections::VecDeque::with_capacity(n);
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// True iff the graph is connected (the empty graph counts as connected,
/// the paper never uses it; a singleton is trivially connected). Every
/// configuration is checked with it, so it marks nodes with a `bool`
/// rather than computing distances.
pub fn is_connected(g: &Csr) -> bool {
    let n = g.node_count();
    if n <= 1 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::with_capacity(n);
    seen[0] = true;
    queue.push_back(0 as NodeId);
    let mut visited = 1usize;
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                visited += 1;
                queue.push_back(v);
            }
        }
    }
    visited == n
}

/// Number of connected components.
pub fn component_count(g: &Csr) -> usize {
    let n = g.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0;
    for s in 0..n as NodeId {
        if comp[s as usize] != usize::MAX {
            continue;
        }
        let mut queue = std::collections::VecDeque::new();
        comp[s as usize] = count;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if comp[v as usize] == usize::MAX {
                    comp[v as usize] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    count
}

/// Eccentricity of `v` (greatest BFS distance from `v`); `None` if the graph
/// is disconnected from `v`.
pub fn eccentricity(g: &Csr, v: NodeId) -> Option<u32> {
    let d = bfs_distances(g, v);
    let mx = *d.iter().max()?;
    if mx == u32::MAX {
        None
    } else {
        Some(mx)
    }
}

/// Diameter (max eccentricity). `None` for disconnected or empty graphs.
pub fn diameter(g: &Csr) -> Option<u32> {
    let n = g.node_count();
    if n == 0 {
        return None;
    }
    let mut best = 0;
    for v in 0..n as NodeId {
        best = best.max(eccentricity(g, v)?);
    }
    Some(best)
}

/// Histogram of node degrees: `hist[d]` = number of nodes of degree `d`.
pub fn degree_histogram(g: &Csr) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in 0..g.node_count() as NodeId {
        hist[g.degree(v)] += 1;
    }
    hist
}

/// True iff the graph is a tree (connected with exactly `n − 1` edges).
pub fn is_tree(g: &Csr) -> bool {
    g.node_count() >= 1 && g.edge_count() == g.node_count() - 1 && is_connected(g)
}

/// The graph centre: all nodes of minimum eccentricity. `None` for
/// disconnected or empty graphs.
///
/// Notable connection to the paper: on the lower-bound family `G_m`, the
/// unique electable node `b_{m+1}` is exactly the centre of the path.
pub fn center(g: &Csr) -> Option<Vec<NodeId>> {
    let n = g.node_count();
    if n == 0 {
        return None;
    }
    let eccs: Option<Vec<u32>> = (0..n as NodeId).map(|v| eccentricity(g, v)).collect();
    let eccs = eccs?;
    let best = *eccs.iter().min().expect("non-empty");
    Some(
        (0..n as NodeId)
            .filter(|&v| eccs[v as usize] == best)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn connectivity() {
        assert!(is_connected(&generators::cycle(6)));
        let g = Csr::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!is_connected(&g));
        assert_eq!(component_count(&g), 2);
        assert!(is_connected(&generators::path(1)));
        assert!(is_connected(&generators::path(0)));
    }

    #[test]
    fn diameter_of_known_shapes() {
        assert_eq!(diameter(&generators::path(7)), Some(6));
        assert_eq!(diameter(&generators::cycle(8)), Some(4));
        assert_eq!(diameter(&generators::complete(5)), Some(1));
        assert_eq!(diameter(&generators::star(9)), Some(2));
        assert_eq!(diameter(&generators::path(1)), Some(0));
        assert_eq!(diameter(&generators::path(0)), None);
        let g = Csr::from_edges(2, &[]).unwrap();
        assert_eq!(diameter(&g), None, "disconnected");
        assert_eq!(diameter(&generators::path(2)), Some(1));
    }

    #[test]
    fn histogram() {
        let g = generators::star(5); // center degree 4, leaves degree 1
        let h = degree_histogram(&g);
        assert_eq!(h, vec![0, 4, 0, 0, 1]);
    }

    #[test]
    fn tree_detection() {
        assert!(is_tree(&generators::path(5)));
        assert!(is_tree(&generators::star(6)));
        assert!(is_tree(&generators::balanced_tree(9, 2)));
        assert!(!is_tree(&generators::cycle(4)));
        let forest = Csr::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(
            !is_tree(&forest),
            "disconnected with n-1... this has n-2 edges"
        );
        assert!(is_tree(&generators::path(1)));
    }

    #[test]
    fn center_of_known_shapes() {
        assert_eq!(center(&generators::path(5)), Some(vec![2]));
        assert_eq!(center(&generators::path(4)), Some(vec![1, 2]));
        assert_eq!(center(&generators::star(7)), Some(vec![0]));
        assert_eq!(center(&generators::cycle(4)), Some(vec![0, 1, 2, 3]));
        assert_eq!(center(&generators::path(0)), None);
        let disc = Csr::from_edges(2, &[]).unwrap();
        assert_eq!(center(&disc), None);
        assert_eq!(center(&generators::path(2)), Some(vec![0, 1]));
    }

    #[test]
    fn g_m_leader_is_the_path_center() {
        for m in [2usize, 3, 5] {
            let config = crate::families::g_m(m);
            assert_eq!(
                center(config.csr()),
                Some(vec![crate::families::g_m_center(m)]),
                "m={m}"
            );
        }
    }
}
