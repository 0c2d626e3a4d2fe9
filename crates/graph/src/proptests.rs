//! Property-based tests over the graph substrate.

use std::collections::BTreeSet;

use proptest::prelude::*;

use crate::algo::{component_count, is_connected};
use crate::config::Configuration;
use crate::csr::{Csr, GraphError, NodeId};
use crate::family::{tests::single_pass, FamilySpec};
use crate::generators;
use crate::io;
use crate::tags::TagStrategy;
use radio_util::rng::rng_from;

/// Strategy: a connected random graph described by (n, extra-edge budget,
/// seed), realized deterministically from the seed.
fn connected_graph() -> impl Strategy<Value = Csr> {
    (1usize..24, 0usize..12, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut rng = rng_from(seed);
        let max_extra = n * (n - 1) / 2 - n.saturating_sub(1);
        generators::random_connected(n, extra.min(max_extra), &mut rng)
    })
}

proptest! {
    #[test]
    fn generated_graphs_satisfy_invariants(g in connected_graph()) {
        prop_assert!(g.check_invariants().is_ok());
        prop_assert!(is_connected(&g));
        prop_assert_eq!(component_count(&g), 1);
    }

    #[test]
    fn csr_round_trip_preserves_edges(g in connected_graph()) {
        // edges() lists each edge once as a sorted (min, max) pair, and
        // building from that list gives back the same adjacency.
        let edges = g.edges();
        prop_assert_eq!(edges.len(), g.edge_count());
        prop_assert!(edges.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(edges.iter().all(|&(u, v)| u < v));
        prop_assert_eq!(Csr::from_edges(g.node_count(), &edges), Ok(g));
    }

    #[test]
    fn csr_from_edges_matches_an_edge_set_model(case in raw_edge_list()) {
        check_from_edges_against_model(case.0, &case.1)?;
    }

    #[test]
    fn io_round_trip(g in connected_graph(), seed in any::<u64>()) {
        let n = g.node_count();
        let mut rng = rng_from(seed);
        use rand::Rng;
        let tags: Vec<u64> = (0..n).map(|_| rng.random_range(0..10)).collect();
        let c = Configuration::new(g, tags).unwrap();
        let back = io::from_text(&io::to_text(&c)).unwrap();
        prop_assert_eq!(back, c);
    }

    #[test]
    fn normalization_is_idempotent_and_span_preserving(
        g in connected_graph(),
        shift in 0u64..50,
    ) {
        let n = g.node_count();
        let c = Configuration::new(g, (0..n as u64).map(|v| v % 5 + 3).collect()).unwrap();
        let shifted = c.shift_tags(shift);
        prop_assert_eq!(shifted.span(), c.span());
        let nrm = shifted.normalize();
        prop_assert!(nrm.is_normalized());
        prop_assert_eq!(nrm.normalize(), nrm.clone());
        prop_assert_eq!(nrm, c.normalize());
    }

    #[test]
    fn relabel_by_random_permutation_preserves_structure(
        g in connected_graph(),
        seed in any::<u64>(),
        tags_seed in any::<u64>(),
    ) {
        let n = g.node_count();
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
        perm.shuffle(&mut rng_from(seed));
        let mut trng = rng_from(tags_seed);
        let tags: Vec<u64> = (0..n).map(|_| trng.random_range(0..6)).collect();
        let c = Configuration::new(g, tags).unwrap();
        let r = c.relabel(&perm);
        prop_assert_eq!(r.size(), c.size());
        prop_assert_eq!(r.span(), c.span());
        prop_assert_eq!(r.csr().edge_count(), c.csr().edge_count());
        prop_assert_eq!(r.max_degree(), c.max_degree());
        // tags travel with nodes
        for (v, &p) in perm.iter().enumerate() {
            prop_assert_eq!(r.tag(p), c.tag(v as NodeId));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gnp_connected_is_connected(n in 2usize..20, p in 0.0f64..1.0, seed in any::<u64>()) {
        let g = generators::gnp_connected(n, p, &mut rng_from(seed));
        prop_assert!(is_connected(&g));
        prop_assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn torus_is_4_regular(r in 3usize..8, c in 3usize..8) {
        let g = generators::torus(r, c);
        prop_assert_eq!(g.node_count(), r * c);
        prop_assert_eq!(g.edge_count(), 2 * r * c);
        prop_assert!(g.nodes().all(|v| g.degree(v) == 4));
        prop_assert!(is_connected(&g));
    }

    #[test]
    fn hypercube_is_d_regular(d in 1u32..8) {
        let g = generators::hypercube(d);
        let n = 1usize << d;
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), d as usize * n / 2);
        prop_assert!(g.nodes().all(|v| g.degree(v) == d as usize));
        prop_assert!(is_connected(&g));
    }

    #[test]
    fn ladder_has_max_degree_3(len in 1usize..24) {
        let g = generators::ladder(len);
        prop_assert_eq!(g.node_count(), 2 * len);
        prop_assert_eq!(g.edge_count(), 3 * len - 2); // two rails + rungs
        prop_assert!(g.max_degree() <= 3);
        prop_assert_eq!(g.degree(0), if len == 1 { 1 } else { 2 }, "corner");
        prop_assert!(is_connected(&g));
    }

    #[test]
    fn grid_shape_counts(r in 1usize..8, c in 1usize..8) {
        let g = generators::grid(r, c);
        prop_assert_eq!(g.node_count(), r * c);
        prop_assert_eq!(g.edge_count(), r * (c - 1) + (r - 1) * c);
        prop_assert!(g.max_degree() <= 4);
        prop_assert!(is_connected(&g));
    }

    #[test]
    fn caterpillar_is_a_tree_with_leggy_spine(s in 1usize..10, l in 0usize..5) {
        let g = generators::caterpillar(s, l);
        let n = s * (1 + l);
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), n - 1, "caterpillars are trees");
        prop_assert!(is_connected(&g));
        // an interior spine node sees two spine edges plus its legs
        if s > 2 {
            prop_assert_eq!(g.degree(1), 2 + l);
        }
        // every leaf is pendant
        prop_assert!((s..n).all(|v| g.degree(v as NodeId) == 1));
    }

    #[test]
    fn spider_center_has_one_degree_per_leg(legs in 0usize..7, len in 0usize..6) {
        let g = generators::spider(legs, len);
        prop_assert_eq!(g.node_count(), 1 + legs * len);
        prop_assert_eq!(g.edge_count(), legs * len);
        prop_assert_eq!(g.degree(0), if len == 0 { 0 } else { legs });
        prop_assert!(is_connected(&g));
    }

    #[test]
    fn barbell_and_lollipop_counts(k in 1usize..8, b in 0usize..6) {
        let bar = generators::barbell(k, b);
        prop_assert_eq!(bar.node_count(), 2 * k + b);
        prop_assert_eq!(bar.edge_count(), k * (k - 1) + b + 1);
        prop_assert!(is_connected(&bar));
        let lol = generators::lollipop(k, b);
        prop_assert_eq!(lol.node_count(), k + b);
        prop_assert_eq!(lol.edge_count(), k * (k - 1) / 2 + b);
        prop_assert!(is_connected(&lol));
    }

    #[test]
    fn wheel_hub_and_rim_degrees(n in 4usize..24) {
        let g = generators::wheel(n);
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), 2 * (n - 1)); // spokes + rim
        prop_assert_eq!(g.degree(0), n - 1);
        prop_assert!((1..n as NodeId).all(|v| g.degree(v) == 3));
        prop_assert!(is_connected(&g));
    }

    #[test]
    fn double_star_and_bipartite_counts(a in 1usize..8, b in 1usize..8) {
        let ds = generators::double_star(a, b);
        prop_assert_eq!(ds.node_count(), 2 + a + b);
        prop_assert_eq!(ds.edge_count(), 1 + a + b);
        prop_assert_eq!(ds.degree(0), 1 + a);
        prop_assert_eq!(ds.degree(1), 1 + b);
        prop_assert!(is_connected(&ds));
        let kb = generators::complete_bipartite(a, b);
        prop_assert_eq!(kb.node_count(), a + b);
        prop_assert_eq!(kb.edge_count(), a * b);
        prop_assert!((0..a as NodeId).all(|v| kb.degree(v) == b));
        prop_assert!((a as NodeId..(a + b) as NodeId).all(|v| kb.degree(v) == a));
        prop_assert!(is_connected(&kb));
    }

    #[test]
    fn complete_graph_is_n_minus_1_regular(n in 1usize..16) {
        let g = generators::complete(n);
        prop_assert_eq!(g.edge_count(), n * (n - 1) / 2);
        prop_assert!(g.nodes().all(|v| g.degree(v) == n - 1));
    }

    #[test]
    fn random_caterpillar_is_a_tree(s in 1usize..8, l in 0usize..10, seed in any::<u64>()) {
        let g = generators::random_caterpillar(s, l, &mut rng_from(seed));
        prop_assert_eq!(g.node_count(), s + l);
        prop_assert_eq!(g.edge_count(), s + l - 1);
        prop_assert!(is_connected(&g));
        prop_assert!((s..s + l).all(|v| g.degree(v as NodeId) == 1));
    }

    #[test]
    fn parser_never_panics_on_arbitrary_text(text in "\\PC{0,200}") {
        // Fuzz the configuration parser: any input must yield Ok or a
        // typed error, never a panic.
        let _ = io::from_text(&text);
    }

    #[test]
    fn parser_never_panics_on_directive_shaped_text(
        n in 0usize..6,
        m in 0usize..6,
        body in proptest::collection::vec("(config|tags|edge|#x) ?[0-9 ]{0,8}", 0..8),
    ) {
        let text = format!("config {n} {m}\n{}", body.join("\n"));
        let _ = io::from_text(&text);
    }
}

/// Strategy: a random [`FamilySpec`] across the whole grammar — every
/// variant, with parameters drawn from their valid ranges.
fn family_spec() -> impl Strategy<Value = FamilySpec> {
    (0usize..20, 1u32..9, 0u32..9, 0u32..1_000_001).prop_map(|(variant, a, b, ppm)| match variant {
        0 => FamilySpec::Path,
        1 => FamilySpec::Cycle,
        2 => FamilySpec::Star,
        3 => FamilySpec::Complete,
        4 => FamilySpec::Wheel,
        5 => FamilySpec::Ladder,
        6 => FamilySpec::Tree { arity: a },
        7 => FamilySpec::RandomTree,
        8 => FamilySpec::Gnp {
            ppm: if b % 2 == 0 { None } else { Some(ppm) },
        },
        9 => FamilySpec::RandomConnected { extra: b },
        10 => FamilySpec::Grid {
            rows: a,
            cols: b + 1,
        },
        11 => FamilySpec::Torus {
            rows: a + 2,
            cols: b + 3,
        },
        12 => FamilySpec::Hypercube { dim: (a % 5) + 1 },
        13 => FamilySpec::Caterpillar { spine: a, legs: b },
        14 => FamilySpec::RandomCaterpillar {
            spine: a,
            leaves: b,
        },
        15 => FamilySpec::Spider { legs: a, len: b },
        16 => FamilySpec::Barbell {
            clique: a,
            bridge: b,
        },
        17 => FamilySpec::Lollipop { clique: a, tail: b },
        18 => FamilySpec::DoubleStar { left: a, right: b },
        _ => FamilySpec::Bipartite {
            left: a,
            right: b + 1,
        },
    })
}

/// Strategy: a random [`TagStrategy`] across all four kinds.
fn tag_strategy() -> impl Strategy<Value = TagStrategy> {
    (0usize..4, 1u64..12).prop_map(|(variant, stride)| match variant {
        0 => TagStrategy::Uniform,
        1 => TagStrategy::Clustered,
        2 => TagStrategy::Extremes,
        _ => TagStrategy::Arith { stride },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn family_spec_parse_display_round_trips(spec in family_spec()) {
        let rendered = spec.to_string();
        let reparsed: FamilySpec = rendered.parse()
            .map_err(|e: String| TestCaseError::fail(format!("`{rendered}`: {e}")))?;
        prop_assert_eq!(reparsed, spec, "{}", rendered);
        // rendering is canonical: a second round trip is a fixed point
        prop_assert_eq!(reparsed.to_string(), rendered);
    }

    #[test]
    fn family_spec_builds_match_the_declared_size(spec in family_spec(), seed in any::<u64>()) {
        let n = spec.default_size();
        let g = spec.build_csr(n, seed)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(g.node_count(), n, "{}", spec);
        prop_assert!(is_connected(&g), "{}", spec);
        prop_assert!(g.check_invariants().is_ok(), "{}", spec);
        if let Some(pinned) = spec.node_count() {
            prop_assert_eq!(pinned, n, "{}", spec);
            // any other size is an error, never a clamp
            prop_assert!(spec.build_csr(n + 1, seed).is_err(), "{}", spec);
        }
    }

    #[test]
    fn tag_strategy_round_trips_and_draws_in_contract(
        spec in tag_strategy(),
        n in 1usize..40,
        span in 0u64..200,
        seed in any::<u64>(),
    ) {
        let reparsed: TagStrategy = spec.to_string().parse()
            .map_err(|e: String| TestCaseError::fail(e))?;
        prop_assert_eq!(reparsed, spec);
        let tags = spec.draw(n, span, &mut rng_from(seed));
        prop_assert_eq!(tags.len(), n);
        prop_assert_eq!(tags.iter().copied().min(), Some(0), "{}: normalized", spec);
        prop_assert!(tags.iter().all(|&t| t <= span), "{}: bounded by σ", spec);
        // drawing is seed-deterministic
        prop_assert_eq!(&tags, &spec.draw(n, span, &mut rng_from(seed)));
    }
}

/// The generation contract body (free fn: the vendored `proptest!` macro
/// token-munches the body, so it must stay tiny): the two-pass
/// [`FamilySpec::build_csr`] and the single-pass build from the stream's
/// collected edge list agree byte for byte, or both reject the size.
fn assert_csr_routes_agree(seed: u64, jitter: usize) -> Result<(), TestCaseError> {
    for spec in FamilySpec::zoo() {
        // Pinned specs only build at their own size; scalable ones get
        // jittered off the default to vary degree sequences.
        let n = match spec.node_count() {
            Some(pinned) => pinned,
            None => spec.default_size() + jitter,
        };
        prop_assert_eq!(
            spec.build_csr(n, seed),
            single_pass(spec, n, seed),
            "{} n={} seed={}",
            spec,
            n,
            seed
        );
    }
    Ok(())
}

/// Strategy: `(n, edges)`, an edge list over nodes `0..n` that repeats
/// edges in both orientations and, in most cases, holds self-loops and
/// endpoints at or past `n` at a few random positions.
fn raw_edge_list() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    use rand::Rng;
    (0usize..10, 0usize..30, 0u32..4, any::<u64>()).prop_map(|(n, len, bad, seed)| {
        let mut rng = rng_from(seed);
        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(len);
        let node = |rng: &mut rand::rngs::StdRng, hi: usize| rng.random_range(0..hi) as NodeId;
        for _ in 0..len {
            let edge = if n < 2 || rng.random_range(0..16u32) < bad {
                // A bad edge: a self-loop, or an endpoint just past n.
                let u = node(&mut rng, n + 2);
                let v = if rng.random_bool(0.5) {
                    u
                } else {
                    node(&mut rng, n + 2)
                };
                (u, v)
            } else if !edges.is_empty() && rng.random_bool(0.3) {
                let (u, v) = edges[rng.random_range(0..edges.len())];
                if rng.random_bool(0.5) {
                    (v, u)
                } else {
                    (u, v)
                }
            } else {
                let u = node(&mut rng, n);
                let v = (u + 1 + node(&mut rng, n - 1)) % n as NodeId;
                (u, v)
            };
            edges.push(edge);
        }
        (n, edges)
    })
}

/// [`Csr::from_edges`] against a `BTreeSet` model: the same first error in
/// input order, or else the same sorted, repeat-free edge list and a CSR
/// that passes its invariant check.
fn check_from_edges_against_model(
    n: usize,
    edges: &[(NodeId, NodeId)],
) -> Result<(), TestCaseError> {
    let mut model = BTreeSet::new();
    let mut first_error = None;
    for &(u, v) in edges {
        if u == v {
            first_error = Some(GraphError::SelfLoop(u));
        } else if let Some(node) = [u, v].into_iter().find(|&x| x as usize >= n) {
            first_error = Some(GraphError::NodeOutOfRange { node, n });
        } else {
            model.insert((u.min(v), u.max(v)));
            continue;
        }
        break;
    }
    match (Csr::from_edges(n, edges), first_error) {
        (Err(got), Some(expected)) => prop_assert_eq!(got, expected),
        (Ok(csr), None) => {
            prop_assert_eq!(csr.check_invariants(), Ok(()));
            prop_assert_eq!(csr.node_count(), n);
            prop_assert_eq!(csr.edges(), model.into_iter().collect::<Vec<_>>());
        }
        (got, expected) => {
            return Err(TestCaseError::fail(format!(
                "from_edges({n}, {edges:?}) = {got:?}, model error {expected:?}"
            )));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn csr_direct_route_is_byte_identical_across_the_zoo(
        seed in any::<u64>(),
        jitter in 0usize..16,
    ) {
        assert_csr_routes_agree(seed, jitter)?;
    }
}
