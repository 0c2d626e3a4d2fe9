//! Shared workload builders for the experiments: named graph families with
//! controlled `n`, tagging regimes, and channel-model crossings, all
//! seed-deterministic.
//!
//! The families are [`FamilySpec`]s under the experiment harness's table
//! names (same graphs, same seed-derivation streams as the campaign axis,
//! so pre-campaign experiment outputs are unchanged).

use radio_graph::{tags, Configuration, FamilySpec, Graph};
use radio_sim::ModelKind;
use radio_util::rng::{derive, rng_from};

/// A named graph family parameterized by node count.
pub struct Family {
    /// Display name.
    pub name: &'static str,
    /// The scenario-grammar spec that builds it.
    pub spec: FamilySpec,
}

impl Family {
    /// The member on `n` nodes (deterministic families ignore the seed).
    ///
    /// # Panics
    /// Panics if the family cannot be built on `n` nodes — the scaling
    /// experiments sweep sizes ≥ 4, which every family here accepts, so
    /// an unrealizable size is a programming error.
    pub fn make(&self, n: usize, seed: u64) -> Graph {
        self.spec
            .build(n, seed)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name))
    }
}

/// Families used by the scaling experiments. Degrees range from constant
/// (path/cycle) through log (hypercube-ish tree) to `n−1` (star), which is
/// what the `O(n³Δ)` bound needs exercised.
pub fn scaling_families() -> Vec<Family> {
    [
        ("path", FamilySpec::Path),
        ("cycle", FamilySpec::Cycle),
        ("star", FamilySpec::Star),
        ("binary-tree", FamilySpec::Tree { arity: 2 }),
        ("random-tree", FamilySpec::RandomTree),
        ("gnp(8/n)", FamilySpec::Gnp { ppm: None }),
    ]
    .into_iter()
    .map(|(name, spec)| Family { name, spec })
    .collect()
}

/// Builds a configuration with random tags in `0..=span`, seeded.
pub fn with_random_tags(graph: Graph, span: u64, seed: u64) -> Configuration {
    tags::random_in_span(graph, span, &mut rng_from(derive(seed, "tags")))
}

/// Builds a configuration with distinct shuffled tags (always feasible in
/// practice), seeded.
pub fn with_distinct_tags(graph: Graph, seed: u64) -> Configuration {
    tags::distinct_shuffled(graph, &mut rng_from(derive(seed, "tags-distinct")))
}

/// Keeps drawing random-tag configurations until one is feasible (bounded
/// attempts); falls back to distinct tags, which break all symmetry.
///
/// All attempts share one validated graph and its frozen CSR — each draw
/// only swaps the tag vector ([`Configuration::retag`]); nothing is cloned
/// on the happy path.
pub fn feasible_with_span(graph: Graph, span: u64, seed: u64) -> Configuration {
    let n = graph.node_count();
    let mut config = Configuration::with_uniform_tags(graph, 0).expect("valid graph");
    for attempt in 0..20u64 {
        // Same derivation chain as `with_random_tags` of the per-attempt
        // seed, so the drawn configurations are unchanged.
        let attempt_seed = derive(derive(seed, &format!("a{attempt}")), "tags");
        let tags = tags::random_tags_in_span(n, span, &mut rng_from(attempt_seed));
        config = config.retag(tags).expect("node count unchanged");
        if radio_classifier::classify(&config).feasible {
            return config;
        }
    }
    with_distinct_tags(config.graph().clone(), seed)
}

/// One cell of a model-crossed sweep: a named configuration paired with
/// the channel model to run it under.
pub struct ModelCell {
    /// Graph family name.
    pub family: &'static str,
    /// Channel model for this cell.
    pub model: ModelKind,
    /// The (seed-deterministic) configuration.
    pub config: Configuration,
}

impl ModelCell {
    /// `family × model` label for tables, e.g. `path/beeping`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.family, self.model)
    }
}

/// Crosses every scaling family at size `n` with every [`ModelKind`]: the
/// sweep grid the model-comparison experiments and benches iterate. Tags
/// are random in `0..=span`; the same configuration (same seed) appears
/// once per model, so model columns are directly comparable.
pub fn model_crossed_cells(n: usize, span: u64, seed: u64) -> Vec<ModelCell> {
    let mut cells = Vec::new();
    for fam in scaling_families() {
        let graph = fam.make(n, derive(seed, fam.name));
        let config = with_random_tags(graph, span, derive(seed, fam.name));
        for model in ModelKind::ALL {
            cells.push(ModelCell {
                family: fam.name,
                model,
                config: config.clone(),
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::algo::is_connected;
    use radio_graph::generators;

    #[test]
    fn families_build_connected_graphs() {
        for fam in scaling_families() {
            for n in [4usize, 9, 17] {
                let g = fam.make(n, 1);
                assert!(is_connected(&g), "{} n={n}", fam.name);
                assert!(g.node_count() >= n.min(3), "{} n={n}", fam.name);
            }
        }
    }

    #[test]
    fn feasible_with_span_is_feasible() {
        for n in [4usize, 8] {
            let c = feasible_with_span(generators::path(n), 3, 99);
            assert!(radio_classifier::classify(&c).feasible);
        }
    }

    #[test]
    fn feasible_with_span_draws_match_the_per_attempt_chain() {
        // The retag-based loop must return exactly what the old
        // clone-per-attempt version did: the first feasible draw of the
        // `derive(seed, "a{k}")` chain (or the distinct-tag fallback).
        let (n, span, seed) = (8usize, 3u64, 99u64);
        let got = feasible_with_span(generators::path(n), span, seed);
        let chain: Vec<Configuration> = (0..20u64)
            .map(|a| with_random_tags(generators::path(n), span, derive(seed, &format!("a{a}"))))
            .collect();
        match chain
            .iter()
            .find(|c| radio_classifier::classify(c).feasible)
        {
            Some(first_feasible) => assert_eq!(got, *first_feasible),
            None => assert_eq!(got, with_distinct_tags(generators::path(n), seed)),
        }
    }

    #[test]
    fn model_crossed_cells_cover_the_full_grid() {
        let cells = model_crossed_cells(8, 3, 42);
        assert_eq!(cells.len(), scaling_families().len() * ModelKind::ALL.len());
        // same configuration across the three models of one family
        for chunk in cells.chunks(ModelKind::ALL.len()) {
            assert!(chunk.windows(2).all(|w| w[0].config == w[1].config));
            assert_eq!(chunk[0].model, ModelKind::NoCollisionDetection);
        }
        assert!(cells[0].label().contains('/'));
        // and each cell actually runs under its model
        for cell in cells.iter().take(6) {
            let ex = cell
                .model
                .run(
                    &cell.config,
                    &radio_sim::drip::WaitThenTransmitFactory {
                        wait: 0,
                        msg: radio_sim::Msg::ONE,
                        lifetime: 8,
                    },
                    radio_sim::RunOpts::default(),
                )
                .unwrap();
            assert_eq!(ex.node_count(), cell.config.size());
        }
    }

    #[test]
    fn workloads_are_seed_deterministic() {
        let a = with_random_tags(generators::path(10), 4, 5);
        let b = with_random_tags(generators::path(10), 4, 5);
        assert_eq!(a, b);
        let c = with_random_tags(generators::path(10), 4, 6);
        assert!(a != c || a.tags() == c.tags()); // overwhelmingly different
    }
}
