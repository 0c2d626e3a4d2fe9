//! Wake-up tag assignment strategies.
//!
//! Feasibility hinges entirely on how tags break (or fail to break) the
//! graph's symmetries, so the experiments need a spectrum of strategies:
//! from fully symmetric (uniform — infeasible beyond a single node) through
//! random with a bounded span, to fully distinct tags (maximally
//! asymmetric).

use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::config::{Configuration, Tag};
use crate::csr::{Csr, NodeId};

/// A named tag-placement strategy: how a campaign cell turns its span
/// budget `σ` into a tag vector.
///
/// The literature's interesting regimes live exactly here — dedicated
/// schedules only diverge from universal ones under *adversarial* tag
/// placements, which a single uniform draw never produces. All strategies
/// shift-normalize their output (minimum tag 0), like
/// [`random_tags_in_span`], because configurations are considered up to a
/// common shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TagStrategy {
    /// Independent uniform draws in `0..=span` — the legacy behaviour and
    /// the default.
    #[default]
    Uniform,
    /// Tags packed into a narrow sub-window of width `max(1, span/8)`:
    /// the realized span is far below the budget, the near-symmetric
    /// regime where refinement is slow.
    Clustered,
    /// Every tag pushed to a span endpoint (0 or `span`): a two-valued
    /// coin-flip placement, maximal per-step asymmetry with minimal tag
    /// diversity.
    Extremes,
    /// Deterministic arithmetic progression: node `v` gets
    /// `(v · stride) mod (span + 1)` — no randomness, evenly spaced wake
    /// times folded into the span window.
    Arith {
        /// Progression stride (`≥ 1`).
        stride: u64,
    },
}

impl TagStrategy {
    /// Every strategy, in declaration order, with a representative stride
    /// for the arithmetic one — the axis the CI matrix smoke sweeps.
    pub const ALL: [TagStrategy; 4] = [
        TagStrategy::Uniform,
        TagStrategy::Clustered,
        TagStrategy::Extremes,
        TagStrategy::Arith { stride: 2 },
    ];

    /// Draws a tag vector for `n` nodes under span budget `span`. The
    /// output is shift-normalized (minimum 0) and every tag is ≤ `span`.
    /// [`TagStrategy::Arith`] ignores the RNG entirely.
    pub fn draw(&self, n: usize, span: Tag, rng: &mut impl Rng) -> Vec<Tag> {
        match *self {
            TagStrategy::Uniform => random_tags_in_span(n, span, rng),
            TagStrategy::Clustered => {
                let width = if span == 0 { 0 } else { (span / 8).max(1) };
                random_tags_in_span(n, width, rng)
            }
            TagStrategy::Extremes => {
                let tags: Vec<Tag> = (0..n)
                    .map(|_| if rng.random_bool(0.5) { span } else { 0 })
                    .collect();
                normalize_min_to_zero(tags)
            }
            TagStrategy::Arith { stride } => {
                // 128-bit arithmetic: `v · stride` can exceed u64 for large
                // strides, and `span + 1` overflows at span = u64::MAX.
                let modulus = u128::from(span) + 1;
                let tags = (0..n as u128)
                    .map(|v| ((v * u128::from(stride)) % modulus) as Tag)
                    .collect();
                normalize_min_to_zero(tags)
            }
        }
    }

    /// Builds a configuration by drawing tags for the graph under this
    /// strategy — the strategy-parametric generalization of
    /// [`random_in_span`].
    pub fn configure(&self, g: Csr, span: Tag, rng: &mut impl Rng) -> Configuration {
        let tags = self.draw(g.node_count(), span, rng);
        Configuration::new(g, tags).expect("valid graph")
    }
}

impl std::str::FromStr for TagStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<TagStrategy, String> {
        match s {
            "uniform" => Ok(TagStrategy::Uniform),
            "clustered" => Ok(TagStrategy::Clustered),
            "extremes" => Ok(TagStrategy::Extremes),
            _ => match s.strip_prefix("arith:") {
                Some(stride) => {
                    let stride: u64 = stride
                        .parse()
                        .map_err(|_| format!("`{s}`: stride must be a number"))?;
                    if stride == 0 {
                        return Err(format!(
                            "`{s}`: stride must be ≥ 1 (stride 0 is the all-equal \
                             assignment, which is never feasible beyond one node)"
                        ));
                    }
                    Ok(TagStrategy::Arith { stride })
                }
                None => Err(format!(
                    "unknown tag strategy `{s}` (expected uniform, clustered, extremes, \
                     or arith:<stride>)"
                )),
            },
        }
    }
}

impl fmt::Display for TagStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TagStrategy::Uniform => write!(f, "uniform"),
            TagStrategy::Clustered => write!(f, "clustered"),
            TagStrategy::Extremes => write!(f, "extremes"),
            TagStrategy::Arith { stride } => write!(f, "arith:{stride}"),
        }
    }
}

/// Shifts the vector so its minimum is 0 (no-op when already normalized).
fn normalize_min_to_zero(mut tags: Vec<Tag>) -> Vec<Tag> {
    let lo = tags.iter().copied().min().unwrap_or(0);
    if lo > 0 {
        for t in &mut tags {
            *t -= lo;
        }
    }
    tags
}

/// Every node gets tag `t` — the fully symmetric assignment; infeasible for
/// any graph with `n ≥ 2` (all nodes share all histories forever).
pub fn uniform(g: Csr, t: Tag) -> Configuration {
    Configuration::with_uniform_tags(g, t).expect("valid graph")
}

/// The tag vector [`random_in_span`] draws, without consuming a graph:
/// `n` independent uniform tags in `0..=span`, shifted so the minimum is
/// 0. Lets sweeps re-tag one shared configuration
/// ([`Configuration::retag`]) instead of rebuilding it per attempt.
pub fn random_tags_in_span(n: usize, span: Tag, rng: &mut impl Rng) -> Vec<Tag> {
    let mut tags: Vec<Tag> = (0..n).map(|_| rng.random_range(0..=span)).collect();
    let lo = tags.iter().copied().min().unwrap_or(0);
    if lo > 0 {
        for t in &mut tags {
            *t -= lo;
        }
    }
    tags
}

/// Independent uniform tags in `0..=span`, normalized so the minimum is 0
/// (hence the realized span may be smaller than requested).
pub fn random_in_span(g: Csr, span: Tag, rng: &mut impl Rng) -> Configuration {
    let tags = random_tags_in_span(g.node_count(), span, rng);
    Configuration::new(g, tags).expect("valid graph")
}

/// Distinct tags `0..n` in random order: the maximally asymmetric
/// assignment (span `n − 1`).
pub fn distinct_shuffled(g: Csr, rng: &mut impl Rng) -> Configuration {
    let n = g.node_count();
    let mut tags: Vec<Tag> = (0..n as Tag).collect();
    tags.shuffle(rng);
    Configuration::new(g, tags).expect("valid graph")
}

/// Tags equal to BFS depth from node 0, scaled by `step`. Wakes the network
/// outward from a root — a natural "deployment wave" scenario.
pub fn bfs_wave(g: Csr, step: Tag) -> Configuration {
    let depths = crate::algo::bfs_distances(&g, 0);
    let tags: Vec<Tag> = depths
        .iter()
        .map(|&d| {
            assert_ne!(d, u32::MAX, "bfs_wave requires a connected graph");
            Tag::from(d) * step
        })
        .collect();
    Configuration::new(g, tags).expect("valid graph")
}

/// Exactly two tag values: nodes in `late` get tag `span`, everyone else 0.
/// Used to construct near-symmetric configurations.
pub fn two_values(g: Csr, late: &[NodeId], span: Tag) -> Configuration {
    let n = g.node_count();
    let mut tags = vec![0 as Tag; n];
    for &v in late {
        tags[v as usize] = span;
    }
    Configuration::new(g, tags).expect("valid graph")
}

/// Random balanced two-value assignment: each node tags 0 or `span` with
/// probability 1/2.
pub fn coin_flip(g: Csr, span: Tag, rng: &mut impl Rng) -> Configuration {
    let n = g.node_count();
    let tags: Vec<Tag> = (0..n)
        .map(|_| if rng.random_bool(0.5) { span } else { 0 })
        .collect();
    Configuration::new(g, tags).expect("valid graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use radio_util::rng::rng_from;

    #[test]
    fn uniform_has_zero_span() {
        let c = uniform(generators::cycle(5), 3);
        assert_eq!(c.span(), 0);
        assert!(c.tags().iter().all(|&t| t == 3));
    }

    #[test]
    fn random_in_span_is_normalized_and_bounded() {
        let mut rng = rng_from(5);
        let c = random_in_span(generators::path(40), 6, &mut rng);
        assert!(c.is_normalized());
        assert!(c.span() <= 6);
    }

    #[test]
    fn distinct_tags_are_a_permutation() {
        let mut rng = rng_from(5);
        let c = distinct_shuffled(generators::star(10), &mut rng);
        let mut sorted = c.tags().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<Tag>>());
        assert_eq!(c.span(), 9);
    }

    #[test]
    fn bfs_wave_matches_depth() {
        let c = bfs_wave(generators::path(4), 2);
        assert_eq!(c.tags(), &[0, 2, 4, 6]);
    }

    #[test]
    fn two_values_places_late_set() {
        let c = two_values(generators::path(4), &[1, 3], 5);
        assert_eq!(c.tags(), &[0, 5, 0, 5]);
    }

    #[test]
    fn strategy_names_round_trip() {
        for strategy in TagStrategy::ALL {
            let parsed: TagStrategy = strategy.to_string().parse().unwrap();
            assert_eq!(parsed, strategy);
        }
        assert_eq!(
            "arith:7".parse::<TagStrategy>(),
            Ok(TagStrategy::Arith { stride: 7 })
        );
        assert!("arith:0".parse::<TagStrategy>().is_err());
        assert!("bursty".parse::<TagStrategy>().is_err());
        assert_eq!(TagStrategy::default(), TagStrategy::Uniform);
    }

    #[test]
    fn every_strategy_is_normalized_and_span_bounded() {
        let mut rng = rng_from(3);
        for strategy in TagStrategy::ALL {
            for span in [0u64, 1, 5, 100] {
                let tags = strategy.draw(24, span, &mut rng);
                assert_eq!(tags.len(), 24, "{strategy} σ={span}");
                assert_eq!(
                    tags.iter().copied().min(),
                    Some(0),
                    "{strategy} σ={span}: normalized"
                );
                assert!(
                    tags.iter().all(|&t| t <= span),
                    "{strategy} σ={span}: bounded"
                );
            }
        }
    }

    #[test]
    fn uniform_strategy_is_the_legacy_draw() {
        // TagStrategy::Uniform must reproduce random_tags_in_span exactly:
        // campaigns that predate the strategy axis keep their rows.
        let a = TagStrategy::Uniform.draw(16, 9, &mut rng_from(11));
        let b = random_tags_in_span(16, 9, &mut rng_from(11));
        assert_eq!(a, b);
    }

    #[test]
    fn clustered_packs_a_narrow_window() {
        let tags = TagStrategy::Clustered.draw(64, 1000, &mut rng_from(5));
        let hi = tags.iter().copied().max().unwrap();
        assert!(hi <= 125, "width is span/8, got realized span {hi}");
        // tiny spans degrade gracefully to width 1 / width 0
        let tiny = TagStrategy::Clustered.draw(8, 3, &mut rng_from(5));
        assert!(tiny.iter().all(|&t| t <= 1));
        let zero = TagStrategy::Clustered.draw(8, 0, &mut rng_from(5));
        assert!(zero.iter().all(|&t| t == 0));
    }

    #[test]
    fn extremes_is_two_valued() {
        let span = 50;
        let tags = TagStrategy::Extremes.draw(64, span, &mut rng_from(8));
        assert!(tags.iter().all(|&t| t == 0 || t == span));
        assert!(tags.contains(&0) && tags.contains(&span));
    }

    #[test]
    fn arith_is_deterministic_and_wraps() {
        let mut rng_a = rng_from(1);
        let mut rng_b = rng_from(999);
        let s = TagStrategy::Arith { stride: 3 };
        // RNG-independent: two different streams draw the same vector
        assert_eq!(s.draw(10, 7, &mut rng_a), s.draw(10, 7, &mut rng_b));
        assert_eq!(s.draw(6, 7, &mut rng_a), vec![0, 3, 6, 1, 4, 7]);
        // span 0 collapses to the all-zero assignment
        assert_eq!(s.draw(4, 0, &mut rng_a), vec![0; 4]);
        // extreme parameters must not overflow: span = u64::MAX (the
        // modulus is 2^64) and a stride whose products exceed u64
        let huge = TagStrategy::Arith { stride: u64::MAX };
        let tags = huge.draw(4, u64::MAX, &mut rng_a);
        assert_eq!(tags.len(), 4);
        assert_eq!(tags[0], 0);
        let wide = TagStrategy::Arith {
            stride: u64::MAX / 2,
        };
        assert_eq!(wide.draw(5, 9, &mut rng_a).len(), 5);
    }

    #[test]
    fn configure_builds_valid_configurations() {
        let mut rng = rng_from(2);
        for strategy in TagStrategy::ALL {
            let c = strategy.configure(generators::cycle(9), 12, &mut rng);
            assert_eq!(c.size(), 9);
            assert!(c.is_normalized(), "{strategy}");
            assert!(c.span() <= 12, "{strategy}");
        }
    }

    #[test]
    fn coin_flip_uses_both_values_eventually() {
        let mut rng = rng_from(1);
        let c = coin_flip(generators::complete(32), 4, &mut rng);
        assert!(c.tags().contains(&0));
        assert!(c.tags().contains(&4));
    }
}
