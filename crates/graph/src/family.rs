//! The `FamilySpec` scenario grammar: every graph generator in
//! [`generators`], reachable by name.
//!
//! The paper's round complexity is driven jointly by topology and by the
//! label span, so campaign grids need the whole generator zoo — not a
//! hard-coded handful of shapes. A [`FamilySpec`] is a small parseable
//! value (`grid:16x4`, `torus:8x8`, `hypercube:6`, `barbell:20+10`,
//! `gnp:0.05`, …) that names one graph family together with its shape
//! parameters, parses from the CLI (`--families grid:16x4,torus:8x8`),
//! round-trips through [`Display`](std::fmt::Display), and builds
//! deterministic or seed-derived graphs through [`FamilySpec::build_csr`].
//!
//! ## Grammar
//!
//! | spec | graph | nodes |
//! |------|-------|-------|
//! | `path` | path `P_n` | size axis |
//! | `cycle` | cycle `C_n` (`n ≥ 3`) | size axis |
//! | `star` | star `K_{1,n-1}` | size axis |
//! | `complete` | complete `K_n` | size axis |
//! | `wheel` | hub + rim cycle (`n ≥ 4`) | size axis |
//! | `ladder` | two rails + rungs (`n` even) | size axis |
//! | `binary-tree` / `tree:K` | balanced `K`-ary tree | size axis |
//! | `random-tree` | uniform attachment tree | size axis |
//! | `gnp` / `gnp:P` | connected `G(n, p)`; bare `gnp` uses `p = 8/n` | size axis |
//! | `random-connected:E` | tree + `E` random extra edges | size axis |
//! | `grid:RxC` | `R × C` grid | `R·C` |
//! | `torus:RxC` | `R × C` torus (`R, C ≥ 3`) | `R·C` |
//! | `hypercube:D` | `D`-dimensional hypercube | `2^D` |
//! | `caterpillar:SxL` | spine `S`, `L` legs per spine node | `S·(1+L)` |
//! | `random-caterpillar:S+L` | spine `S`, `L` random leaves | `S+L` |
//! | `spider:LxK` | `L` legs of length `K` glued at a centre | `1+L·K` |
//! | `barbell:K+B` | two `K_K` cliques, `B`-node bridge | `2K+B` |
//! | `lollipop:K+T` | `K_K` clique + `T`-node tail | `K+T` |
//! | `double-star:A+B` | two adjacent hubs, `A`/`B` leaves | `2+A+B` |
//! | `bipartite:AxB` | complete bipartite `K_{A,B}` | `A+B` |
//!
//! Families in the upper block are **scalable**: the node count comes from
//! the campaign size axis and [`FamilySpec::node_count`] returns `None`.
//! Families in the lower block are **pinned**: the spec itself determines
//! the node count, and building at any other size is an error — never a
//! silent clamp, so a grid cell's label can't disagree with its graph.

use std::fmt;

use radio_util::rng::{derive, rng_from};

use crate::csr::Csr;
use crate::generators::{self, Emit};

/// Errors from [`FamilySpec::build_csr`] / [`FamilySpec::check_size`]: the
/// requested node count is not realizable by the family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyError {
    /// The family spec that rejected the size (its canonical rendering).
    pub spec: String,
    /// The requested node count.
    pub n: usize,
    /// Why the size is not realizable.
    pub reason: String,
}

impl fmt::Display for FamilyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "family `{}` cannot be built on n={} nodes: {}",
            self.spec, self.n, self.reason
        )
    }
}

impl std::error::Error for FamilyError {}

/// One parsed scenario-family spec: a generator plus its shape parameters.
///
/// `FamilySpec` is `Copy` and hash/order-free so it can sit inside campaign
/// cell keys; the grammar is documented at the [module level](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FamilySpec {
    /// Path `P_n` (scalable).
    Path,
    /// Cycle `C_n`, `n ≥ 3` (scalable).
    Cycle,
    /// Star `K_{1,n-1}` (scalable).
    Star,
    /// Complete graph `K_n` (scalable).
    Complete,
    /// Wheel: hub + rim cycle, `n ≥ 4` (scalable).
    Wheel,
    /// Ladder: two rails of `n/2` nodes + rungs, `n` even (scalable).
    Ladder,
    /// Balanced `arity`-ary tree (scalable). `arity = 2` renders as the
    /// legacy name `binary-tree`.
    Tree {
        /// Branching factor (`≥ 1`).
        arity: u32,
    },
    /// Uniform random attachment tree (scalable, seed-derived).
    RandomTree,
    /// Connected `G(n, p)` (scalable, seed-derived). `ppm` is the edge
    /// probability in parts per million; `None` means the legacy
    /// size-adaptive `p = min(8/n, 1)`.
    Gnp {
        /// Edge probability in parts per million (`None` = `8/n`).
        ppm: Option<u32>,
    },
    /// Random tree plus exactly `extra` additional edges (scalable,
    /// seed-derived).
    RandomConnected {
        /// Extra edges beyond the spanning tree.
        extra: u32,
    },
    /// `rows × cols` grid (pinned to `rows·cols` nodes).
    Grid {
        /// Grid rows (`≥ 1`).
        rows: u32,
        /// Grid columns (`≥ 1`).
        cols: u32,
    },
    /// `rows × cols` torus (pinned; `rows, cols ≥ 3`).
    Torus {
        /// Torus rows.
        rows: u32,
        /// Torus columns.
        cols: u32,
    },
    /// `dim`-dimensional hypercube (pinned to `2^dim` nodes; `1 ≤ dim ≤ 20`).
    Hypercube {
        /// Hypercube dimension.
        dim: u32,
    },
    /// Caterpillar: spine path with `legs` pendant leaves per spine node
    /// (pinned to `spine·(1+legs)` nodes).
    Caterpillar {
        /// Spine length (`≥ 1`).
        spine: u32,
        /// Leaves per spine node.
        legs: u32,
    },
    /// Random caterpillar: spine path plus `leaves` leaves on uniformly
    /// chosen spine nodes (pinned to `spine+leaves` nodes, seed-derived).
    RandomCaterpillar {
        /// Spine length (`≥ 1`).
        spine: u32,
        /// Total pendant leaves.
        leaves: u32,
    },
    /// Spider: `legs` paths of length `len` glued at a centre (pinned to
    /// `1+legs·len` nodes).
    Spider {
        /// Number of legs.
        legs: u32,
        /// Nodes per leg.
        len: u32,
    },
    /// Barbell: two `K_clique` cliques joined by a `bridge`-node path
    /// (pinned to `2·clique+bridge` nodes; `clique ≥ 1`).
    Barbell {
        /// Clique size.
        clique: u32,
        /// Intermediate bridge nodes.
        bridge: u32,
    },
    /// Lollipop: `K_clique` clique with a pendant `tail`-node path (pinned
    /// to `clique+tail` nodes; `clique ≥ 1`).
    Lollipop {
        /// Clique size.
        clique: u32,
        /// Tail length.
        tail: u32,
    },
    /// Double star: two adjacent hubs carrying `left`/`right` leaves
    /// (pinned to `2+left+right` nodes).
    DoubleStar {
        /// Leaves on the first hub.
        left: u32,
        /// Leaves on the second hub.
        right: u32,
    },
    /// Complete bipartite `K_{left,right}` (pinned to `left+right` nodes;
    /// both sides `≥ 1`).
    Bipartite {
        /// Left side size.
        left: u32,
        /// Right side size.
        right: u32,
    },
}

impl FamilySpec {
    /// The node count the spec pins, or `None` for scalable families whose
    /// size comes from a size axis.
    pub fn node_count(&self) -> Option<usize> {
        match *self {
            FamilySpec::Grid { rows, cols } | FamilySpec::Torus { rows, cols } => {
                Some(rows as usize * cols as usize)
            }
            FamilySpec::Hypercube { dim } => Some(1usize << dim),
            FamilySpec::Caterpillar { spine, legs } => Some(spine as usize * (1 + legs as usize)),
            FamilySpec::RandomCaterpillar { spine, leaves } => {
                Some(spine as usize + leaves as usize)
            }
            FamilySpec::Spider { legs, len } => Some(1 + legs as usize * len as usize),
            FamilySpec::Barbell { clique, bridge } => Some(2 * clique as usize + bridge as usize),
            FamilySpec::Lollipop { clique, tail } => Some(clique as usize + tail as usize),
            FamilySpec::DoubleStar { left, right } => Some(2 + left as usize + right as usize),
            FamilySpec::Bipartite { left, right } => Some(left as usize + right as usize),
            _ => None,
        }
    }

    /// The sizes this family contributes to a grid crossed with `axis`:
    /// pinned families contribute their own node count, scalable ones the
    /// axis verbatim.
    pub fn sizes_for(&self, axis: &[usize]) -> Vec<usize> {
        match self.node_count() {
            Some(n) => vec![n],
            None => axis.to_vec(),
        }
    }

    /// Checks that the family is buildable on exactly `n` nodes — `Err`,
    /// never a clamp, when it isn't. That includes fitting the CSR form:
    /// its offsets are `u32`, so a member whose `2m` target slots cannot
    /// fit is rejected here, before anything is allocated.
    pub fn check_size(&self, n: usize) -> Result<(), FamilyError> {
        let fail = |reason: String| {
            Err(FamilyError {
                spec: self.to_string(),
                n,
                reason,
            })
        };
        if let Some(pinned) = self.node_count() {
            if n != pinned {
                return fail(format!("the spec pins the node count to {pinned}"));
            }
        } else {
            match *self {
                FamilySpec::Cycle if n < 3 => fail("no cycle has fewer than 3 nodes".to_string()),
                FamilySpec::Wheel if n < 4 => {
                    fail("a wheel needs a hub and a 3-cycle rim".to_string())
                }
                FamilySpec::Ladder if n < 2 || !n.is_multiple_of(2) => {
                    fail("a ladder has two equal rails, so n must be even and ≥ 2".to_string())
                }
                _ if n == 0 => fail("a graph needs at least one node".to_string()),
                FamilySpec::RandomConnected { extra } => {
                    let n = n as u128;
                    let max_extra = n * (n - 1) / 2 - (n - 1);
                    if u128::from(extra) > max_extra {
                        fail(format!(
                            "only {max_extra} non-tree edge slots exist at this size"
                        ))
                    } else {
                        Ok(())
                    }
                }
                _ => Ok(()),
            }?;
        }
        // Only now is `n` known to be a valid size for the family, which
        // the edge-count arithmetic relies on.
        let slots = self.edge_count_hint(n).saturating_mul(2);
        if slots > u128::from(u32::MAX) {
            return fail(format!(
                "its edges need {slots} CSR target slots, more than the u32 offset space \
                 holds ({})",
                u32::MAX
            ));
        }
        Ok(())
    }

    /// Builds the family member on exactly `n` nodes. A deterministic
    /// family ignores the seed, and its edge stream runs twice, once to
    /// count degrees and once to fill the rows, so no edge list is held.
    /// A seeded family's stream runs once: its edges are collected into a
    /// list pre-sized by [`FamilySpec::edge_count_hint`] and frozen, so
    /// every value is drawn once. Seeded families use the same stream
    /// labels the legacy campaign axis used (`rtree`, `gnp`, …), so
    /// pre-existing draws are unchanged.
    pub fn build_csr(&self, n: usize, seed: u64) -> Result<Csr, FamilyError> {
        self.check_size(n)?;
        Ok(if self.stream_label().is_some() {
            let hint = self.edge_count_hint(n) as usize;
            generators::freeze_once(n, hint, |emit| self.edges(n, seed, emit))
        } else {
            Csr::from_stream(n, |emit| self.edges(n, seed, emit))
        })
    }

    /// The label of a seeded family's RNG stream, or `None` for a
    /// deterministic family. This one table decides both which families
    /// draw ([`FamilySpec::edges`] derives every RNG from it) and which
    /// take [`FamilySpec::build_csr`]'s one-pass route.
    fn stream_label(&self) -> Option<&'static str> {
        match *self {
            FamilySpec::RandomTree => Some("rtree"),
            FamilySpec::Gnp { .. } => Some("gnp"),
            FamilySpec::RandomConnected { .. } => Some("rconn"),
            FamilySpec::RandomCaterpillar { .. } => Some("rcat"),
            _ => None,
        }
    }

    /// Streams the edges of the member on `n` nodes (a size
    /// [`FamilySpec::check_size`] accepted) — the one dispatch behind
    /// [`FamilySpec::build_csr`]. Seeded families draw from an RNG created
    /// here from `seed` and their [`FamilySpec::stream_label`], so every
    /// call replays the same stream.
    pub(crate) fn edges(&self, n: usize, seed: u64, emit: Emit) {
        use generators::*;
        let rng = || {
            let label = self.stream_label().expect("only a labelled family draws");
            rng_from(derive(seed, label))
        };
        match *self {
            FamilySpec::Path => path_edges(n, emit),
            FamilySpec::Cycle => cycle_edges(n, emit),
            FamilySpec::Star => star_edges(n, emit),
            FamilySpec::Complete => complete_edges(n, emit),
            FamilySpec::Wheel => wheel_edges(n, emit),
            FamilySpec::Ladder => ladder_edges(n / 2, emit),
            FamilySpec::Tree { arity } => balanced_tree_edges(n, arity as usize, emit),
            FamilySpec::RandomTree => random_tree_edges(n, &mut rng(), emit),
            FamilySpec::Gnp { ppm } => {
                gnp_connected_edges(n, edge_probability(ppm, n), &mut rng(), emit)
            }
            FamilySpec::RandomConnected { extra } => {
                random_connected_edges(n, extra as usize, &mut rng(), emit)
            }
            FamilySpec::Grid { rows, cols } => grid_edges(rows as usize, cols as usize, emit),
            FamilySpec::Torus { rows, cols } => torus_edges(rows as usize, cols as usize, emit),
            FamilySpec::Hypercube { dim } => hypercube_edges(dim, emit),
            FamilySpec::Caterpillar { spine, legs } => {
                caterpillar_edges(spine as usize, legs as usize, emit)
            }
            FamilySpec::RandomCaterpillar { spine, leaves } => {
                random_caterpillar_edges(spine as usize, leaves as usize, &mut rng(), emit)
            }
            FamilySpec::Spider { legs, len } => spider_edges(legs as usize, len as usize, emit),
            FamilySpec::Barbell { clique, bridge } => {
                barbell_edges(clique as usize, bridge as usize, emit)
            }
            FamilySpec::Lollipop { clique, tail } => {
                lollipop_edges(clique as usize, tail as usize, emit)
            }
            FamilySpec::DoubleStar { left, right } => {
                double_star_edges(left as usize, right as usize, emit)
            }
            FamilySpec::Bipartite { left, right } => {
                complete_bipartite_edges(left as usize, right as usize, emit)
            }
        }
    }

    /// Edge count of the family member on `n` nodes, as a `u128` safe for
    /// overflow arithmetic. Exact for every family except [`FamilySpec::Gnp`]
    /// with `0 < p < 1`, where it is the *expected* count (the backbone tree
    /// plus `p` times the remaining pairs) — campaign validation uses this
    /// to reject grids whose CSR `targets` could not fit `u32` offsets.
    pub fn edge_count_hint(&self, n: usize) -> u128 {
        let n = n as u128;
        let tree = n.saturating_sub(1);
        let pairs = n * n.saturating_sub(1) / 2;
        match *self {
            FamilySpec::Path | FamilySpec::Star | FamilySpec::Tree { .. } => tree,
            FamilySpec::RandomTree => tree,
            FamilySpec::Cycle => n,
            FamilySpec::Complete => pairs,
            FamilySpec::Wheel => 2 * tree,
            FamilySpec::Ladder => 3 * (n / 2) - 2,
            FamilySpec::Gnp { ppm } => {
                let p = edge_probability(ppm, n as usize);
                tree + ((pairs - tree) as f64 * p).ceil() as u128
            }
            FamilySpec::RandomConnected { extra } => tree + extra as u128,
            FamilySpec::Grid { rows, cols } => {
                let (r, c) = (rows as u128, cols as u128);
                r * (c - 1) + c * (r - 1)
            }
            FamilySpec::Torus { rows, cols } => 2 * rows as u128 * cols as u128,
            FamilySpec::Hypercube { dim } => dim as u128 * (1u128 << (dim - 1)),
            FamilySpec::Caterpillar { .. }
            | FamilySpec::RandomCaterpillar { .. }
            | FamilySpec::Spider { .. }
            | FamilySpec::DoubleStar { .. } => tree,
            FamilySpec::Barbell { clique, bridge } => {
                let k = clique as u128;
                k * (k - 1) + bridge as u128 + 1
            }
            FamilySpec::Lollipop { clique, tail } => {
                let k = clique as u128;
                k * (k - 1) / 2 + tail as u128
            }
            FamilySpec::Bipartite { left, right } => left as u128 * right as u128,
        }
    }

    /// The registered base names, one per family, in grammar-table order —
    /// what CLI error messages and the CI matrix smoke enumerate.
    pub const FAMILY_NAMES: [&'static str; 20] = [
        "path",
        "cycle",
        "star",
        "complete",
        "wheel",
        "ladder",
        "binary-tree",
        "random-tree",
        "gnp",
        "random-connected",
        "grid",
        "torus",
        "hypercube",
        "caterpillar",
        "random-caterpillar",
        "spider",
        "barbell",
        "lollipop",
        "double-star",
        "bipartite",
    ];

    /// One small representative per registered family — the instance zoo
    /// the property tests, the cross-engine differential matrix, and the
    /// CI matrix smoke iterate. Every family name in
    /// [`FamilySpec::FAMILY_NAMES`] appears at least once; scalable
    /// entries build at [`FamilySpec::default_size`].
    pub fn zoo() -> Vec<FamilySpec> {
        vec![
            FamilySpec::Path,
            FamilySpec::Cycle,
            FamilySpec::Star,
            FamilySpec::Complete,
            FamilySpec::Wheel,
            FamilySpec::Ladder,
            FamilySpec::Tree { arity: 2 },
            FamilySpec::Tree { arity: 3 },
            FamilySpec::RandomTree,
            FamilySpec::Gnp { ppm: None },
            FamilySpec::Gnp { ppm: Some(200_000) },
            FamilySpec::RandomConnected { extra: 2 },
            FamilySpec::Grid { rows: 4, cols: 3 },
            FamilySpec::Torus { rows: 3, cols: 3 },
            FamilySpec::Hypercube { dim: 3 },
            FamilySpec::Caterpillar { spine: 4, legs: 2 },
            FamilySpec::RandomCaterpillar {
                spine: 4,
                leaves: 4,
            },
            FamilySpec::Spider { legs: 3, len: 2 },
            FamilySpec::Barbell {
                clique: 3,
                bridge: 2,
            },
            FamilySpec::Lollipop { clique: 4, tail: 3 },
            FamilySpec::DoubleStar { left: 3, right: 2 },
            FamilySpec::Bipartite { left: 2, right: 3 },
        ]
    }

    /// A valid node count for this spec: the pinned count, or 8 for
    /// scalable families (8 satisfies every scalable constraint: ≥ 3 for
    /// cycles, ≥ 4 for wheels, even for ladders).
    pub fn default_size(&self) -> usize {
        self.node_count().unwrap_or(8)
    }
}

/// The `G(n, p)` edge probability: `ppm` parts per million, or the
/// size-adaptive `min(8/n, 1)` when unset.
fn edge_probability(ppm: Option<u32>, n: usize) -> f64 {
    match ppm {
        Some(ppm) => f64::from(ppm) / 1e6,
        None => (8.0 / n.max(1) as f64).min(1.0),
    }
}

/// Splits `grid:4x3`-style parameters on the given separator into two
/// `u32`s.
fn split_pair(params: &str, sep: char, spec: &str) -> Result<(u32, u32), String> {
    let (a, b) = params
        .split_once(sep)
        .ok_or_else(|| format!("`{spec}` expects two `{sep}`-separated numbers"))?;
    let parse = |s: &str| {
        s.parse::<u32>()
            .map_err(|_| format!("`{spec}`: `{s}` is not a number"))
    };
    Ok((parse(a)?, parse(b)?))
}

impl std::str::FromStr for FamilySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<FamilySpec, String> {
        let (name, params) = match s.split_once(':') {
            Some((name, params)) => (name, Some(params)),
            None => (s, None),
        };
        let no_params = |spec: FamilySpec| match params {
            Some(p) => Err(format!("family `{name}` takes no parameter, got `{p}`")),
            None => Ok(spec),
        };
        let with_params = |what: &str| {
            params.ok_or_else(|| format!("family `{name}` needs a parameter: `{name}:{what}`"))
        };
        match name {
            "path" => no_params(FamilySpec::Path),
            "cycle" => no_params(FamilySpec::Cycle),
            "star" => no_params(FamilySpec::Star),
            "complete" => no_params(FamilySpec::Complete),
            "wheel" => no_params(FamilySpec::Wheel),
            "ladder" => no_params(FamilySpec::Ladder),
            "binary-tree" | "btree" => no_params(FamilySpec::Tree { arity: 2 }),
            "random-tree" | "rtree" => no_params(FamilySpec::RandomTree),
            "tree" => {
                let arity: u32 = with_params("K")?
                    .parse()
                    .map_err(|_| format!("`{s}`: arity must be a number"))?;
                if arity == 0 {
                    return Err(format!("`{s}`: tree arity must be ≥ 1"));
                }
                Ok(FamilySpec::Tree { arity })
            }
            "gnp" => match params {
                None => Ok(FamilySpec::Gnp { ppm: None }),
                Some(p) => {
                    let p: f64 = p
                        .parse()
                        .map_err(|_| format!("`{s}`: edge probability must be a number"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("`{s}`: edge probability must be in [0, 1]"));
                    }
                    Ok(FamilySpec::Gnp {
                        ppm: Some((p * 1e6).round() as u32),
                    })
                }
            },
            "random-connected" | "rconn" => {
                let extra: u32 = with_params("E")?
                    .parse()
                    .map_err(|_| format!("`{s}`: extra edge count must be a number"))?;
                Ok(FamilySpec::RandomConnected { extra })
            }
            "grid" => {
                let (rows, cols) = split_pair(with_params("RxC")?, 'x', s)?;
                if rows == 0 || cols == 0 {
                    return Err(format!("`{s}`: grid dimensions must be ≥ 1"));
                }
                Ok(FamilySpec::Grid { rows, cols })
            }
            "torus" => {
                let (rows, cols) = split_pair(with_params("RxC")?, 'x', s)?;
                if rows < 3 || cols < 3 {
                    return Err(format!("`{s}`: torus dimensions must be ≥ 3"));
                }
                Ok(FamilySpec::Torus { rows, cols })
            }
            "hypercube" => {
                let dim: u32 = with_params("D")?
                    .parse()
                    .map_err(|_| format!("`{s}`: dimension must be a number"))?;
                if !(1..=20).contains(&dim) {
                    return Err(format!("`{s}`: dimension must be in 1..=20"));
                }
                Ok(FamilySpec::Hypercube { dim })
            }
            "caterpillar" => {
                let (spine, legs) = split_pair(with_params("SxL")?, 'x', s)?;
                if spine == 0 {
                    return Err(format!("`{s}`: the spine must be non-empty"));
                }
                Ok(FamilySpec::Caterpillar { spine, legs })
            }
            "random-caterpillar" | "rcaterpillar" => {
                let (spine, leaves) = split_pair(with_params("S+L")?, '+', s)?;
                if spine == 0 {
                    return Err(format!("`{s}`: the spine must be non-empty"));
                }
                Ok(FamilySpec::RandomCaterpillar { spine, leaves })
            }
            "spider" => {
                let (legs, len) = split_pair(with_params("LxK")?, 'x', s)?;
                Ok(FamilySpec::Spider { legs, len })
            }
            "barbell" => {
                let (clique, bridge) = split_pair(with_params("K+B")?, '+', s)?;
                if clique == 0 {
                    return Err(format!("`{s}`: clique size must be ≥ 1"));
                }
                Ok(FamilySpec::Barbell { clique, bridge })
            }
            "lollipop" => {
                let (clique, tail) = split_pair(with_params("K+T")?, '+', s)?;
                if clique == 0 {
                    return Err(format!("`{s}`: clique size must be ≥ 1"));
                }
                Ok(FamilySpec::Lollipop { clique, tail })
            }
            "double-star" => {
                let (left, right) = split_pair(with_params("A+B")?, '+', s)?;
                Ok(FamilySpec::DoubleStar { left, right })
            }
            "bipartite" | "complete-bipartite" => {
                let (left, right) = split_pair(with_params("AxB")?, 'x', s)?;
                if left == 0 || right == 0 {
                    return Err(format!(
                        "`{s}`: both bipartite sides must be non-empty (the graph \
                         must be connected)"
                    ));
                }
                Ok(FamilySpec::Bipartite { left, right })
            }
            other => Err(format!(
                "unknown graph family `{other}` (registered: {})",
                FamilySpec::FAMILY_NAMES.join(", ")
            )),
        }
    }
}

impl fmt::Display for FamilySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FamilySpec::Path => write!(f, "path"),
            FamilySpec::Cycle => write!(f, "cycle"),
            FamilySpec::Star => write!(f, "star"),
            FamilySpec::Complete => write!(f, "complete"),
            FamilySpec::Wheel => write!(f, "wheel"),
            FamilySpec::Ladder => write!(f, "ladder"),
            // arity 2 keeps the legacy campaign-axis name so existing JSONL
            // rows and seed-derivation streams are unchanged
            FamilySpec::Tree { arity: 2 } => write!(f, "binary-tree"),
            FamilySpec::Tree { arity } => write!(f, "tree:{arity}"),
            FamilySpec::RandomTree => write!(f, "random-tree"),
            FamilySpec::Gnp { ppm: None } => write!(f, "gnp"),
            FamilySpec::Gnp { ppm: Some(ppm) } => write!(f, "gnp:{}", f64::from(ppm) / 1e6),
            FamilySpec::RandomConnected { extra } => write!(f, "random-connected:{extra}"),
            FamilySpec::Grid { rows, cols } => write!(f, "grid:{rows}x{cols}"),
            FamilySpec::Torus { rows, cols } => write!(f, "torus:{rows}x{cols}"),
            FamilySpec::Hypercube { dim } => write!(f, "hypercube:{dim}"),
            FamilySpec::Caterpillar { spine, legs } => write!(f, "caterpillar:{spine}x{legs}"),
            FamilySpec::RandomCaterpillar { spine, leaves } => {
                write!(f, "random-caterpillar:{spine}+{leaves}")
            }
            FamilySpec::Spider { legs, len } => write!(f, "spider:{legs}x{len}"),
            FamilySpec::Barbell { clique, bridge } => write!(f, "barbell:{clique}+{bridge}"),
            FamilySpec::Lollipop { clique, tail } => write!(f, "lollipop:{clique}+{tail}"),
            FamilySpec::DoubleStar { left, right } => write!(f, "double-star:{left}+{right}"),
            FamilySpec::Bipartite { left, right } => write!(f, "bipartite:{left}x{right}"),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::algo::is_connected;

    /// The single-pass build of the member on `n` nodes: the family's
    /// stream collected once into an edge list and built by
    /// [`Csr::from_edges`], which sorts and dedupes it — independent of
    /// both [`FamilySpec::build_csr`] routes (the stream replayed for a
    /// deterministic family, the list replayed for a seeded one), which
    /// must produce the same bytes.
    pub(crate) fn single_pass(spec: FamilySpec, n: usize, seed: u64) -> Result<Csr, FamilyError> {
        spec.check_size(n)?;
        let mut edges = Vec::new();
        spec.edges(n, seed, &mut |u, v| edges.push((u, v)));
        Ok(Csr::from_edges(n, &edges).expect("family streams are simple"))
    }

    #[test]
    fn zoo_covers_every_registered_name() {
        let zoo = FamilySpec::zoo();
        for name in FamilySpec::FAMILY_NAMES {
            assert!(
                zoo.iter().any(|s| {
                    let rendered = s.to_string();
                    rendered == name || rendered.starts_with(&format!("{name}:"))
                }),
                "no zoo instance for registered family `{name}`"
            );
        }
    }

    #[test]
    fn zoo_builds_connected_graphs_of_the_declared_size() {
        for spec in FamilySpec::zoo() {
            let n = spec.default_size();
            let g = spec.build_csr(n, 42).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(g.node_count(), n, "{spec}");
            assert!(is_connected(&g), "{spec}");
            g.check_invariants().unwrap();
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        for spec in FamilySpec::zoo() {
            let rendered = spec.to_string();
            let parsed: FamilySpec = rendered.parse().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(parsed, spec, "{rendered}");
        }
    }

    #[test]
    fn issue_grammar_examples_parse() {
        assert_eq!(
            "grid:16x4".parse::<FamilySpec>().unwrap(),
            FamilySpec::Grid { rows: 16, cols: 4 }
        );
        assert_eq!(
            "torus:8x8".parse::<FamilySpec>().unwrap(),
            FamilySpec::Torus { rows: 8, cols: 8 }
        );
        assert_eq!(
            "hypercube:6".parse::<FamilySpec>().unwrap(),
            FamilySpec::Hypercube { dim: 6 }
        );
        assert_eq!(
            "caterpillar:32x3".parse::<FamilySpec>().unwrap(),
            FamilySpec::Caterpillar { spine: 32, legs: 3 }
        );
        assert_eq!(
            "barbell:20+10".parse::<FamilySpec>().unwrap(),
            FamilySpec::Barbell {
                clique: 20,
                bridge: 10
            }
        );
        let gnp = "gnp:0.05".parse::<FamilySpec>().unwrap();
        assert_eq!(gnp, FamilySpec::Gnp { ppm: Some(50_000) });
        assert_eq!(gnp.to_string(), "gnp:0.05");
        // short aliases of the pre-grammar campaign names
        assert_eq!(
            "btree".parse::<FamilySpec>().unwrap(),
            FamilySpec::Tree { arity: 2 }
        );
        assert_eq!(
            "rtree".parse::<FamilySpec>().unwrap(),
            FamilySpec::RandomTree
        );
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for bad in [
            "kagome-lattice",
            "grid",
            "grid:4",
            "grid:0x4",
            "torus:2x5",
            "hypercube:0",
            "hypercube:64",
            "gnp:1.5",
            "gnp:x",
            "tree:0",
            "bipartite:0x4",
            "path:9",
            "barbell:0+3",
            "caterpillar:0x2",
        ] {
            assert!(bad.parse::<FamilySpec>().is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn pinned_sizes_reject_mismatches_instead_of_clamping() {
        let grid = FamilySpec::Grid { rows: 4, cols: 3 };
        assert_eq!(grid.node_count(), Some(12));
        assert!(grid.build_csr(12, 0).is_ok());
        let err = grid.build_csr(11, 0).unwrap_err();
        assert!(err.reason.contains("pins the node count"), "{err}");
        assert_eq!(grid.sizes_for(&[5, 11]), vec![12]);
        assert_eq!(FamilySpec::Path.sizes_for(&[5, 11]), vec![5, 11]);
    }

    #[test]
    fn scalable_constraints_are_errors_not_clamps() {
        assert!(FamilySpec::Cycle.build_csr(2, 0).is_err());
        assert!(FamilySpec::Cycle.build_csr(3, 0).is_ok());
        assert!(FamilySpec::Wheel.build_csr(3, 0).is_err());
        assert!(FamilySpec::Ladder.build_csr(7, 0).is_err(), "odd ladder");
        assert!(FamilySpec::Ladder.build_csr(8, 0).is_ok());
        assert!(FamilySpec::Path.build_csr(0, 0).is_err());
        // random-connected: the extra-edge budget must fit the size
        let rc = FamilySpec::RandomConnected { extra: 4 };
        assert!(rc.build_csr(3, 0).is_err(), "3 nodes have 1 non-tree slot");
        assert!(rc.build_csr(6, 0).is_ok());
    }

    #[test]
    fn legacy_streams_are_preserved() {
        // FamilySpec must draw exactly the graphs the pre-grammar campaign
        // axis drew, so pre-existing campaign rows stay reproducible.
        let a = FamilySpec::RandomTree.build_csr(9, 77).unwrap();
        let b = generators::random_tree(9, &mut rng_from(derive(77, "rtree")));
        assert_eq!(a.edges(), b.edges());
        let a = FamilySpec::Gnp { ppm: None }.build_csr(9, 77).unwrap();
        let b = generators::gnp_connected(9, 8.0 / 9.0, &mut rng_from(derive(77, "gnp")));
        assert_eq!(a.edges(), b.edges());
    }

    /// The graph route is [`single_pass`]: the stream collected once and
    /// built from its edge list.
    #[test]
    fn build_csr_is_byte_identical_to_graph_route() {
        for spec in FamilySpec::zoo() {
            // Scalable specs also build off their default size, which
            // varies the degree sequences (odd ladders must fail on both).
            let d = spec.default_size();
            for n in spec.sizes_for(&[d, d + 3, d + 7]) {
                for seed in [0u64, 42, 0xFEED] {
                    let direct = spec.build_csr(n, seed);
                    assert_eq!(
                        direct,
                        single_pass(spec, n, seed),
                        "{spec} n={n} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn oversize_specs_are_rejected_before_building() {
        // 2m CSR target slots must fit the u32 offsets, pinned specs too.
        for (spec, n) in [
            ("complete", 100_000),
            ("grid:100000x100000", 10_000_000_000),
            ("barbell:70000+0", 140_000),
        ] {
            let spec: FamilySpec = spec.parse().unwrap();
            let err = spec.build_csr(n, 0).unwrap_err();
            assert!(err.reason.contains("u32 offset space"), "{err}");
        }
        // A star's 2(n-1) slots fit exactly up to n = 2^31.
        let largest = u32::MAX as usize / 2 + 1;
        assert!(FamilySpec::Star.check_size(largest).is_ok());
        assert!(FamilySpec::Star.check_size(largest + 1).is_err());
        // The size rules run first: the slot arithmetic never sees a size
        // they reject, and no size overflows it.
        assert!(FamilySpec::Ladder.check_size(1).is_err());
        assert!(FamilySpec::RandomConnected { extra: 5 }
            .check_size(usize::MAX)
            .is_err());
    }

    #[test]
    fn edge_count_hint_is_exact_for_non_gnp_families() {
        for spec in FamilySpec::zoo() {
            if matches!(spec, FamilySpec::Gnp { .. }) {
                continue;
            }
            let n = spec.default_size();
            let g = spec.build_csr(n, 3).unwrap();
            assert_eq!(
                spec.edge_count_hint(n),
                g.edge_count() as u128,
                "{spec} at n={n}"
            );
        }
    }

    #[test]
    fn fixed_p_gnp_spans_the_density_range() {
        let sparse = FamilySpec::Gnp { ppm: Some(0) }.build_csr(10, 5).unwrap();
        assert_eq!(sparse.edge_count(), 9, "p=0 is a tree");
        let dense = FamilySpec::Gnp {
            ppm: Some(1_000_000),
        }
        .build_csr(10, 5)
        .unwrap();
        assert_eq!(dense.edge_count(), 45, "p=1 is complete");
    }
}
