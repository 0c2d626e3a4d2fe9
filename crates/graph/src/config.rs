//! Configurations: the paper's central object (Section 2.1).
//!
//! A **configuration** is a simple undirected connected graph in which every
//! node `v` carries a non-negative integer wake-up tag `t_v`. Node `v` wakes
//! spontaneously in global round `t_v` unless it is woken earlier by
//! receiving a message. The **size** is the node count `n`; the **span** `σ`
//! is the difference between the largest and smallest tag. Since nodes have
//! no access to the global clock, configurations are considered up to a
//! common tag shift; [`Configuration::normalize`] shifts the minimum tag to
//! zero, after which the span equals the largest tag.

use std::fmt;

use crate::algo::is_connected;
use crate::csr::{assert_permutation, Csr, NodeId};

/// Wake-up tag type. Tags are global round numbers; `u64` avoids any
/// realistic overflow in span sweeps (`H_m` experiments push `σ` to 2^12+).
pub type Tag = u64;

/// Errors from configuration construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Tag vector length differs from the node count.
    TagArity {
        /// Number of nodes in the graph.
        nodes: usize,
        /// Number of tags supplied.
        tags: usize,
    },
    /// The underlying graph is not connected (the model requires it).
    Disconnected,
    /// The graph has no nodes.
    Empty,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TagArity { nodes, tags } => {
                write!(f, "{tags} tags supplied for {nodes} nodes")
            }
            ConfigError::Disconnected => write!(f, "configuration graphs must be connected"),
            ConfigError::Empty => write!(f, "configuration graphs must have at least one node"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A radio-network configuration: connected graph + wake-up tags.
///
/// The graph is a frozen [`Csr`]: everything (simulator, classifier,
/// fingerprinting, IO) iterates it directly, and cloning a configuration
/// shares it instead of copying it. Equality is semantic: same adjacency
/// and same tags (the tag extremes are a function of the tags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Configuration {
    csr: Csr,
    tags: Vec<Tag>,
    /// Smallest and largest tag, computed once by every constructor.
    min_tag: Tag,
    max_tag: Tag,
}

/// Smallest and largest of non-empty `tags`, in one pass.
fn extremes(tags: &[Tag]) -> (Tag, Tag) {
    tags.iter()
        .fold((Tag::MAX, Tag::MIN), |(lo, hi), &t| (lo.min(t), hi.max(t)))
}

impl Configuration {
    /// Builds a configuration, validating that the graph is non-empty and
    /// connected and that there is one tag per node.
    pub fn new(csr: Csr, tags: Vec<Tag>) -> Result<Configuration, ConfigError> {
        if csr.node_count() == 0 {
            return Err(ConfigError::Empty);
        }
        if tags.len() != csr.node_count() {
            return Err(ConfigError::TagArity {
                nodes: csr.node_count(),
                tags: tags.len(),
            });
        }
        if !is_connected(&csr) {
            return Err(ConfigError::Disconnected);
        }
        Ok(Configuration::assemble(csr, tags))
    }

    /// Wraps an already-validated graph and tag vector, computing the tag
    /// extremes.
    fn assemble(csr: Csr, tags: Vec<Tag>) -> Configuration {
        let (min_tag, max_tag) = extremes(&tags);
        Configuration {
            csr,
            tags,
            min_tag,
            max_tag,
        }
    }

    /// The same as [`Configuration::new`], kept for callers outside the
    /// workspace (`perfbench`) that still use this name.
    pub fn from_csr(csr: Csr, tags: Vec<Tag>) -> Result<Configuration, ConfigError> {
        Configuration::new(csr, tags)
    }

    /// Builds a configuration where every node has the same tag.
    pub fn with_uniform_tags(csr: Csr, tag: Tag) -> Result<Configuration, ConfigError> {
        let n = csr.node_count();
        Configuration::new(csr, vec![tag; n])
    }

    /// Replaces the tags, reusing the already-validated graph — no copy,
    /// no connectivity re-check. The cheap path for sweeps that draw many
    /// tag assignments over one graph.
    pub fn retag(self, tags: Vec<Tag>) -> Result<Configuration, ConfigError> {
        if tags.len() != self.csr.node_count() {
            return Err(ConfigError::TagArity {
                nodes: self.csr.node_count(),
                tags: tags.len(),
            });
        }
        Ok(Configuration::assemble(self.csr, tags))
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn size(&self) -> usize {
        self.csr.node_count()
    }

    /// The graph (what the simulator and classifier iterate).
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Wake-up tag of node `v`.
    #[inline]
    pub fn tag(&self, v: NodeId) -> Tag {
        self.tags[v as usize]
    }

    /// All tags, indexed by node.
    #[inline]
    pub fn tags(&self) -> &[Tag] {
        &self.tags
    }

    /// Smallest tag.
    #[inline]
    pub fn min_tag(&self) -> Tag {
        self.min_tag
    }

    /// Largest tag.
    #[inline]
    pub fn max_tag(&self) -> Tag {
        self.max_tag
    }

    /// Span `σ` = max tag − min tag.
    #[inline]
    pub fn span(&self) -> Tag {
        self.max_tag - self.min_tag
    }

    /// Maximum degree Δ of the graph.
    pub fn max_degree(&self) -> usize {
        self.csr.max_degree()
    }

    /// True if the smallest tag is zero (the canonical representative of the
    /// shift-equivalence class).
    pub fn is_normalized(&self) -> bool {
        self.min_tag() == 0
    }

    /// Returns the shift-normalized configuration (smallest tag 0). Nodes
    /// cannot observe a common shift of all tags, so this preserves
    /// feasibility and every algorithm's behaviour.
    pub fn normalize(&self) -> Configuration {
        let lo = self.min_tag();
        if lo == 0 {
            return self.clone();
        }
        Configuration {
            csr: self.csr.clone(),
            tags: self.tags.iter().map(|t| t - lo).collect(),
            min_tag: 0,
            max_tag: self.max_tag - lo,
        }
    }

    /// Returns the configuration with all tags shifted up by `delta`
    /// (useful for invariance tests).
    pub fn shift_tags(&self, delta: Tag) -> Configuration {
        let tags = self.tags.iter().map(|t| t + delta).collect();
        Configuration::assemble(self.csr.clone(), tags)
    }

    /// Relabels nodes by the permutation `perm` (node `v` becomes
    /// `perm[v]`), carrying tags along. Feasibility is invariant under
    /// relabelling since nodes are anonymous.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn relabel(&self, perm: &[NodeId]) -> Configuration {
        let csr = self.csr.relabel(perm);
        let mut tags = vec![0; self.tags.len()];
        for (v, &t) in self.tags.iter().enumerate() {
            tags[perm[v] as usize] = t;
        }
        // Relabelling keeps the graph connected, the tag arity and the
        // tag extremes.
        Configuration {
            csr,
            tags,
            min_tag: self.min_tag,
            max_tag: self.max_tag,
        }
    }

    /// Nodes grouped by tag, sorted by tag value — handy for traces.
    pub fn nodes_by_tag(&self) -> Vec<(Tag, Vec<NodeId>)> {
        let mut map: std::collections::BTreeMap<Tag, Vec<NodeId>> = Default::default();
        for (v, &t) in self.tags.iter().enumerate() {
            map.entry(t).or_default().push(v as NodeId);
        }
        map.into_iter().collect()
    }

    /// True iff `perm` is an automorphism of the *configuration*: a node
    /// permutation preserving both adjacency and tags.
    ///
    /// Automorphisms are the formal backbone of the paper's impossibility
    /// arguments: under any deterministic algorithm, nodes related by a
    /// configuration automorphism keep identical histories forever, so a
    /// node moved by some automorphism can never be the unique leader.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn is_automorphism(&self, perm: &[NodeId]) -> bool {
        let n = self.size();
        assert_permutation(perm, n);
        // tags preserved
        if (0..n).any(|v| self.tags[v] != self.tags[perm[v] as usize]) {
            return false;
        }
        // adjacency preserved (bijectivity makes one direction sufficient)
        for u in 0..n as NodeId {
            for &v in self.csr.neighbors(u) {
                if u < v && !self.csr.has_edge(perm[u as usize], perm[v as usize]) {
                    return false;
                }
            }
        }
        true
    }

    /// True iff some non-identity configuration automorphism moves node
    /// `v` — a *certificate of non-electability* for `v`. Exhaustive over
    /// all permutations, so only usable for small `n` (≤ 8); the census
    /// experiments use it as an oracle.
    pub fn is_moved_by_some_automorphism(&self, v: NodeId) -> bool {
        let n = self.size();
        assert!(
            n <= 8,
            "exhaustive automorphism search is exponential; n ≤ 8 only"
        );
        let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
        search_moving_automorphism(self, &mut perm, 0, v)
    }
}

/// DFS over permutations with early pruning: extends `perm[..k]` and
/// checks partial adjacency/tag consistency at each step.
fn search_moving_automorphism(
    config: &Configuration,
    perm: &mut Vec<NodeId>,
    k: usize,
    target: NodeId,
) -> bool {
    let n = config.size();
    if k == n {
        return perm[target as usize] != target && config.is_automorphism(perm);
    }
    for i in k..n {
        perm.swap(k, i);
        // prune: tags must match and adjacency to already-placed nodes
        // must be preserved
        let image = perm[k] as usize;
        let ok_tag = config.tags[k] == config.tags[image];
        let ok_adj = (0..k).all(|u| {
            config.csr.has_edge(u as NodeId, k as NodeId) == config.csr.has_edge(perm[u], perm[k])
        });
        if ok_tag && ok_adj && search_moving_automorphism(config, perm, k + 1, target) {
            perm.swap(k, i);
            return true;
        }
        perm.swap(k, i);
    }
    false
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Configuration(n={}, m={}, σ={}, Δ={})",
            self.size(),
            self.csr.edge_count(),
            self.span(),
            self.max_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn p4() -> Configuration {
        Configuration::new(generators::path(4), vec![3, 0, 0, 4]).unwrap()
    }

    #[test]
    fn validates_inputs() {
        assert_eq!(
            Configuration::new(generators::path(0), vec![]).unwrap_err(),
            ConfigError::Empty
        );
        assert_eq!(
            Configuration::new(generators::path(3), vec![0, 1]).unwrap_err(),
            ConfigError::TagArity { nodes: 3, tags: 2 }
        );
        let disconnected = Csr::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            Configuration::new(disconnected, vec![0; 4]).unwrap_err(),
            ConfigError::Disconnected
        );
    }

    #[test]
    fn from_csr_matches_graph_construction() {
        let edges = [(2, 3), (0, 1), (2, 1)];
        let via_new = Configuration::new(generators::path(4), vec![3, 0, 0, 4]).unwrap();
        let via_csr =
            Configuration::from_csr(Csr::from_edges(4, &edges).unwrap(), vec![3, 0, 0, 4]).unwrap();
        assert_eq!(via_new, via_csr);
        assert_eq!(via_csr.csr().edges(), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(format!("{via_csr}"), format!("{via_new}"));
    }

    #[test]
    fn from_csr_validates_like_new() {
        assert_eq!(
            Configuration::from_csr(generators::path(0), vec![]).unwrap_err(),
            ConfigError::Empty
        );
        assert_eq!(
            Configuration::from_csr(generators::path(3), vec![0, 1]).unwrap_err(),
            ConfigError::TagArity { nodes: 3, tags: 2 }
        );
        let disconnected = Csr::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            Configuration::from_csr(disconnected, vec![0; 4]).unwrap_err(),
            ConfigError::Disconnected
        );
    }

    #[test]
    fn span_and_extremes() {
        let c = p4();
        assert_eq!(c.size(), 4);
        assert_eq!(c.min_tag(), 0);
        assert_eq!(c.max_tag(), 4);
        assert_eq!(c.span(), 4);
        assert!(c.is_normalized());
        assert_eq!(c.max_degree(), 2);
    }

    #[test]
    fn tag_extremes_follow_every_constructor() {
        let scan = |c: &Configuration| {
            let lo = *c.tags().iter().min().unwrap();
            let hi = *c.tags().iter().max().unwrap();
            assert_eq!((c.min_tag(), c.max_tag(), c.span()), (lo, hi, hi - lo));
        };
        let c = Configuration::new(generators::path(4), vec![7, 3, 9, 5]).unwrap();
        scan(&c);
        scan(&Configuration::with_uniform_tags(generators::path(4), 6).unwrap());
        scan(&c.normalize());
        scan(&c.shift_tags(11));
        scan(&c.relabel(&[2, 0, 3, 1]));
        scan(&c.clone().retag(vec![1, 8, 2, 4]).unwrap());
        // equality is semantic: equal tags and graphs compare equal
        assert_eq!(c.shift_tags(4).normalize(), c.normalize());
    }

    #[test]
    fn normalization_shifts_min_to_zero() {
        let c = Configuration::new(generators::path(3), vec![5, 7, 6]).unwrap();
        assert!(!c.is_normalized());
        let nrm = c.normalize();
        assert_eq!(nrm.tags(), &[0, 2, 1]);
        assert_eq!(nrm.span(), c.span());
        // shifting then normalizing round-trips
        assert_eq!(c.shift_tags(10).normalize().tags(), nrm.tags());
    }

    #[test]
    fn relabel_carries_tags() {
        let c = p4();
        let r = c.relabel(&[3, 2, 1, 0]);
        assert_eq!(r.tags(), &[4, 0, 0, 3]);
        assert_eq!(r.csr(), c.csr(), "path reversal is an automorphism");
    }

    #[test]
    fn retag_swaps_tags_without_revalidation() {
        let c = p4();
        let csr_edges = c.csr().clone();
        let r = c.retag(vec![9, 8, 7, 6]).unwrap();
        assert_eq!(r.tags(), &[9, 8, 7, 6]);
        assert_eq!(r.csr().max_degree(), csr_edges.max_degree());
        assert_eq!(
            p4().retag(vec![1, 2]).unwrap_err(),
            ConfigError::TagArity { nodes: 4, tags: 2 }
        );
    }

    #[test]
    fn uniform_tags_constructor() {
        let c = Configuration::with_uniform_tags(generators::cycle(5), 2).unwrap();
        assert_eq!(c.span(), 0);
        assert_eq!(c.min_tag(), 2);
    }

    #[test]
    fn groups_by_tag() {
        let c = p4();
        assert_eq!(
            c.nodes_by_tag(),
            vec![(0, vec![1, 2]), (3, vec![0]), (4, vec![3])]
        );
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(format!("{}", p4()), "Configuration(n=4, m=3, σ=4, Δ=2)");
    }

    #[test]
    fn mirror_is_automorphism_of_symmetric_tags_only() {
        // path with palindromic tags: mirror is an automorphism
        let sym = Configuration::new(generators::path(4), vec![1, 0, 0, 1]).unwrap();
        assert!(sym.is_automorphism(&[3, 2, 1, 0]));
        // break the palindrome: no longer an automorphism
        let asym = Configuration::new(generators::path(4), vec![1, 0, 0, 2]).unwrap();
        assert!(!asym.is_automorphism(&[3, 2, 1, 0]));
        // identity is always an automorphism
        assert!(asym.is_automorphism(&[0, 1, 2, 3]));
        // a permutation breaking adjacency is not
        let uniform = Configuration::with_uniform_tags(generators::path(3), 0).unwrap();
        assert!(
            !uniform.is_automorphism(&[1, 0, 2]),
            "maps edge {{1,2}} to non-edge {{0,2}}"
        );
    }

    #[test]
    fn moved_by_automorphism_detects_symmetric_nodes() {
        // uniform 4-cycle: every node is moved by the rotation
        let cyc = Configuration::with_uniform_tags(generators::cycle(4), 0).unwrap();
        for v in 0..4 {
            assert!(cyc.is_moved_by_some_automorphism(v), "node {v}");
        }
        // uniform path P_3: ends are swapped, the centre is fixed by all
        let p3 = Configuration::with_uniform_tags(generators::path(3), 0).unwrap();
        assert!(p3.is_moved_by_some_automorphism(0));
        assert!(p3.is_moved_by_some_automorphism(2));
        assert!(
            !p3.is_moved_by_some_automorphism(1),
            "the centre is structurally unique"
        );
        // distinct tags: rigid, nothing moves
        let rigid = Configuration::new(generators::cycle(4), vec![0, 1, 2, 3]).unwrap();
        for v in 0..4 {
            assert!(!rigid.is_moved_by_some_automorphism(v));
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn automorphism_rejects_non_permutations() {
        let c = p4();
        let _ = c.is_automorphism(&[0, 0, 1, 2]);
    }
}
