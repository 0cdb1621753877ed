//! Degree-based edge downsampling (Section 3.2).
//!
//! The paper's headline algorithmic contribution: instead of keeping every
//! sample, each walk from edge `e = (u, v)` — and with it the walk's `T`
//! samples — survives a coin flip with probability
//!
//! ```text
//! p_e = min(1, C · A_uv · (1/d_u + 1/d_v)),   C = log n
//! ```
//!
//! and surviving samples are up-weighted by `1/p_e`. By Theorem 3.1 this
//! keeps the sparsifier an unbiased Laplacian estimator; by Theorem 3.2
//! (Lovász) `1/d_u + 1/d_v` upper-bounds the effective resistance up to
//! the spectral gap, so the scheme inherits the spectral-sparsification
//! guarantee on well-connected graphs. The expected number of *kept*
//! samples per vertex is `O(C)`, i.e. `O(n log n)` total — the
//! `#edges/#vertices` sample-complexity reduction the paper reports.
//!
//! A sharper bound that also counts common-neighbour two-hop paths
//! (after PSNE, arXiv 2408.02705) was tried and removed: on unit weights
//! it is below the degree bound only on clique edges, and it changed no
//! arc's survival probability on any graph the quality matrix or the
//! benchmark runs (DESIGN.md, "One downsampling bound").

use lightne_graph::{VertexId, WeightedOps};
use std::ops::Range;

/// The edge-survival probability the downsampling coin uses. There is
/// one: the paper's degree bound `min(1, C·(1/d_u + 1/d_v))`. The type
/// and the `prob` fields that carry it stay only because the benchmark
/// harness copies `LightNeConfig::prob` into its `SamplerConfig`; they go
/// with the benchmark's next re-baseline. Its [`name`](Self::name) is
/// part of the run fingerprint, so existing artifact stores still resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProbScheme {
    /// The paper's degree bound.
    #[default]
    Degree,
}

impl ProbScheme {
    /// Report name of the scheme, as the run fingerprint renders it.
    pub fn name(self) -> &'static str {
        match self {
            ProbScheme::Degree => "degree",
        }
    }
}

/// The downsampling constant `C`. The paper sets `C = log n`.
pub fn default_c(n: usize) -> f64 {
    (n.max(2) as f64).ln()
}

/// Survival probability `p_e = min(1, C·w·(1/d_u + 1/d_v))` of arc
/// `(u, v)` of weight `w`, over weighted degrees.
#[inline]
pub fn survival_probability<G: WeightedOps>(
    g: &G,
    u: VertexId,
    v: VertexId,
    w: f32,
    c: f64,
) -> f64 {
    let bound = 1.0 / g.weighted_degree(u) + 1.0 / g.weighted_degree(v);
    (c * w as f64 * bound).min(1.0)
}

/// Expected number of kept samples of the arcs leaving `sources` if
/// `total_samples` are spread over the arcs of `g` in proportion to their
/// weight, each arc's walks surviving with its `p_e` (used to pre-size
/// each shard of the hash table).
pub fn expected_kept_samples<G: WeightedOps>(
    g: &G,
    total_samples: u64,
    c: f64,
    sources: Range<VertexId>,
) -> f64 {
    sources
        .map(|u| {
            let mut acc = 0.0;
            g.for_each_arc(u, |v, w| {
                let (whole, frac) = g.arc_trials(total_samples, w);
                acc += (whole as f64 + frac) * survival_probability(g, u, v, w, c);
            });
            acc
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_gen::generators::{erdos_renyi, watts_strogatz};
    use lightne_graph::{Codec, Graph, GraphBuilder, V2Graph};

    /// The edge `(0, 1)` with degrees `du`/`dv`, the rest of each
    /// endpoint's neighbors private.
    fn hub_pair(du: u32, dv: u32) -> Graph {
        let mut edges = vec![(0u32, 1u32)];
        let mut next = 2u32;
        for (hub, degree) in [(0, du), (1, dv)] {
            for _ in 0..degree - 1 {
                edges.push((hub, next));
                next += 1;
            }
        }
        GraphBuilder::from_edges(next as usize, &edges)
    }

    fn p(g: &Graph, c: f64) -> f64 {
        survival_probability(g, 0, 1, 1.0, c)
    }

    #[test]
    fn probability_clamped_to_one() {
        assert_eq!(p(&hub_pair(1, 1), 5.0), 1.0);
        assert_eq!(p(&hub_pair(2, 2), 10.0), 1.0);
    }

    #[test]
    fn probability_formula() {
        // C=1, degrees 4 and 4 → p = 1/4 + 1/4 = 0.5
        assert!((p(&hub_pair(4, 4), 1.0) - 0.5).abs() < 1e-12);
        // C=2, degrees 10 and 40 → 2*(0.1+0.025) = 0.25
        assert!((p(&hub_pair(10, 40), 2.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn probability_decreases_with_degree() {
        let c = 3.0;
        assert!(p(&hub_pair(100, 100), c) < p(&hub_pair(10, 10), c));
    }

    #[test]
    fn default_c_is_log_n() {
        assert!((default_c(1000) - (1000f64).ln()).abs() < 1e-12);
        // Guard against log(0)/log(1).
        assert!(default_c(0) > 0.0);
        assert!(default_c(1) > 0.0);
    }

    #[test]
    fn kept_samples_scale_like_n_log_n() {
        // Per the paper: Σ_v A_uv/d_u = 1 per vertex, so the kept-sample
        // mass is ~ 2·C·n per unit of per-arc trial density.
        let g = erdos_renyi(2000, 40_000, 1);
        let c = default_c(2000);
        let trials = g.num_arcs() as u64; // one trial per arc
        let kept = expected_kept_samples(&g, trials, c, 0..2000);
        let predicted = 2.0 * c * 2000.0;
        assert!(
            (kept - predicted).abs() / predicted < 0.05,
            "kept {kept} vs predicted {predicted}"
        );
        // And it is far below the trial count (the whole point).
        assert!(kept < trials as f64 / 2.0);
    }

    /// The survival probability is valid on every edge of a
    /// triangle-dense and a triangle-sparse graph, and the expected kept
    /// mass is finite and positive.
    #[test]
    fn survival_probabilities_are_valid_distributions() {
        for g in [watts_strogatz(200, 6, 0.1, 3), erdos_renyi(200, 1_200, 4)] {
            let c = default_c(g.num_vertices());
            for u in 0..g.num_vertices() as VertexId {
                for &v in g.neighbors(u) {
                    let p = survival_probability(&g, u, v, 1.0, c);
                    assert!(p > 0.0 && p <= 1.0, "p out of range: {p}");
                }
            }
            let all = 0..g.num_vertices() as VertexId;
            let kept = expected_kept_samples(&g, g.num_arcs() as u64, c, all);
            assert!(kept > 0.0 && kept.is_finite());
        }
    }

    /// Every graph backend reports the same degrees at the compressed
    /// block-size boundaries (degrees 64 and 65), so the survival
    /// probability is bit-identical across them.
    #[test]
    fn survival_probability_is_bitwise_equal_across_backends() {
        // Hub 0 → {2..=66} (degree 65), hub 1 → {2..=65} (degree 64),
        // plus a triangle among {2,3,4}.
        let mut edges: Vec<(u32, u32)> = (2..=66u32).map(|v| (0, v)).collect();
        edges.extend((2..=65u32).map(|v| (1, v)));
        edges.extend_from_slice(&[(2, 3), (2, 4), (3, 4)]);
        let g = GraphBuilder::from_edges(68, &edges);
        let byte = V2Graph::from_graph(&g, Codec::Byte);
        let arice = V2Graph::from_graph(&g, Codec::RiceAdaptive);
        let c = default_c(68);
        for (u, v) in [(0u32, 2u32), (1, 2), (2, 3)] {
            let a = survival_probability(&g, u, v, 1.0, c);
            assert_eq!(a.to_bits(), survival_probability(&byte, u, v, 1.0, c).to_bits());
            assert_eq!(a.to_bits(), survival_probability(&arice, u, v, 1.0, c).to_bits());
        }
    }

    /// On unit weights the one weighted formula is bit-for-bit the
    /// unweighted one it replaced: `c·1·x = c·x`.
    #[test]
    fn unit_weights_reproduce_the_unweighted_formulas_bitwise() {
        for g in [erdos_renyi(150, 1_500, 9), watts_strogatz(200, 6, 0.1, 3)] {
            let c = 0.7; // keep p below the clamp
            for u in 0..g.num_vertices() as VertexId {
                for &v in g.neighbors(u) {
                    let degree_bound = 1.0 / g.degree(u) as f64 + 1.0 / g.degree(v) as f64;
                    let degree = (c * degree_bound).min(1.0);
                    assert_eq!(survival_probability(&g, u, v, 1.0, c).to_bits(), degree.to_bits());
                }
            }
        }
    }
}
