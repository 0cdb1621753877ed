//! Degree-based edge downsampling (Section 3.2).
//!
//! The paper's headline algorithmic contribution: instead of keeping every
//! PathSampling trial, each trial for edge `e = (u, v)` survives a coin
//! flip with probability
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
//! ## The PSNE-grade scheme ([`ProbScheme::Psne`])
//!
//! PSNE (arXiv 2408.02705) observes that sharper effective-resistance
//! estimates than the degree bound give better sparsifiers at the same
//! sample budget. This module's PSNE-grade variant tightens the Lovász
//! bound with local structure: the direct edge (conductance 1) sits in
//! parallel with one two-hop path (series conductance ½) per common
//! neighbor, so by Rayleigh monotonicity
//!
//! ```text
//! R_e  ≤  1 / (1 + cn(u,v)/2)  =  2 / (2 + cn(u,v))
//! ```
//!
//! where `cn(u, v) = |N(u) ∩ N(v)|`. Taking the minimum with the degree
//! bound yields
//!
//! ```text
//! p_e = min(1, C · min(1/d_u + 1/d_v, 2/(2 + cn(u,v))))
//! ```
//!
//! — never looser than the degree scheme, and strictly sharper on
//! triangle-dense edges, which are exactly the well-supported edges whose
//! samples are redundant. Unbiasedness (Theorem 3.1) holds for *any*
//! survival probability with `1/p_e` re-weighting, so the estimator
//! guarantee is unchanged.

use lightne_graph::{VertexId, WeightedOps};
use std::ops::Range;

/// Which edge-survival probability the downsampling coin uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProbScheme {
    /// The paper's degree bound `min(1, C·(1/d_u + 1/d_v))` (retained
    /// default; byte-identical to the pre-scheme behavior).
    #[default]
    Degree,
    /// The PSNE-grade bound sharpened by common neighbors:
    /// `min(1, C·min(1/d_u + 1/d_v, 2/(2 + cn(u,v))))`.
    Psne,
}

impl ProbScheme {
    /// Both schemes, in evaluation order.
    pub const ALL: [ProbScheme; 2] = [ProbScheme::Degree, ProbScheme::Psne];

    /// CLI / report name of the scheme.
    pub fn name(self) -> &'static str {
        match self {
            ProbScheme::Degree => "degree",
            ProbScheme::Psne => "psne",
        }
    }

    /// Parses a (case-insensitive) scheme name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "degree" => Some(ProbScheme::Degree),
            "psne" => Some(ProbScheme::Psne),
            _ => None,
        }
    }
}

/// The downsampling constant `C`. The paper sets `C = log n`.
pub fn default_c(n: usize) -> f64 {
    (n.max(2) as f64).ln()
}

/// Survival probability `p_e` of arc `(u, v)` of weight `w` under the
/// given scheme: `min(1, C·w·R̂_e)`, where the resistance bound `R̂_e`
/// is `1/d_u + 1/d_v` over weighted degrees and the PSNE scheme takes
/// its minimum with `1/conductance` (see the module docs; on unit
/// weights `1/(1 + cn/2) = 2/(2 + cn)`).
#[inline]
pub fn survival_probability<G: WeightedOps>(
    scheme: ProbScheme,
    g: &G,
    u: VertexId,
    v: VertexId,
    w: f32,
    c: f64,
) -> f64 {
    let degree_bound = 1.0 / g.weighted_degree(u) + 1.0 / g.weighted_degree(v);
    let bound = match scheme {
        ProbScheme::Degree => degree_bound,
        ProbScheme::Psne => degree_bound.min(1.0 / g.local_conductance(u, v, w)),
    };
    (c * w as f64 * bound).min(1.0)
}

/// Expected number of kept samples of the arcs leaving `sources` if
/// `total_trials` are spread over the arcs of `g` in proportion to their
/// weight, each surviving with its `p_e` (used to pre-size each shard of
/// the hash table).
pub fn expected_kept_samples<G: WeightedOps>(
    g: &G,
    total_trials: u64,
    c: f64,
    scheme: ProbScheme,
    sources: Range<VertexId>,
) -> f64 {
    sources
        .map(|u| {
            let mut acc = 0.0;
            g.for_each_arc(u, |v, w| {
                let (whole, frac) = g.arc_trials(total_trials, w);
                acc += (whole as f64 + frac) * survival_probability(scheme, g, u, v, w, c);
            });
            acc
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_gen::generators::{erdos_renyi, watts_strogatz};
    use lightne_graph::ops::common_neighbors;
    use lightne_graph::{Codec, Graph, GraphBuilder, V2Graph};

    /// The edge `(0, 1)` with degrees `du`/`dv`, `shared` of each
    /// endpoint's other neighbors common to both and the rest private.
    fn hub_pair(du: u32, dv: u32, shared: u32) -> Graph {
        let mut edges = vec![(0u32, 1u32)];
        let mut next = 2u32;
        for _ in 0..shared {
            edges.extend([(0, next), (1, next)]);
            next += 1;
        }
        for (hub, degree) in [(0, du), (1, dv)] {
            for _ in 0..degree - 1 - shared {
                edges.push((hub, next));
                next += 1;
            }
        }
        GraphBuilder::from_edges(next as usize, &edges)
    }

    fn p(scheme: ProbScheme, g: &Graph, c: f64) -> f64 {
        survival_probability(scheme, g, 0, 1, 1.0, c)
    }

    #[test]
    fn probability_clamped_to_one() {
        for scheme in ProbScheme::ALL {
            assert_eq!(p(scheme, &hub_pair(1, 1, 0), 5.0), 1.0);
            assert_eq!(p(scheme, &hub_pair(2, 2, 0), 10.0), 1.0);
        }
    }

    #[test]
    fn probability_formula() {
        // C=1, degrees 4 and 4 → p = 1/4 + 1/4 = 0.5
        assert!((p(ProbScheme::Degree, &hub_pair(4, 4, 0), 1.0) - 0.5).abs() < 1e-12);
        // C=2, degrees 10 and 40 → 2*(0.1+0.025) = 0.25
        assert!((p(ProbScheme::Degree, &hub_pair(10, 40, 0), 2.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn probability_decreases_with_degree() {
        let c = 3.0;
        assert!(
            p(ProbScheme::Degree, &hub_pair(100, 100, 0), c)
                < p(ProbScheme::Degree, &hub_pair(10, 10, 0), c)
        );
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
        let kept = expected_kept_samples(&g, trials, c, ProbScheme::Degree, 0..2000);
        let predicted = 2.0 * c * 2000.0;
        assert!(
            (kept - predicted).abs() / predicted < 0.05,
            "kept {kept} vs predicted {predicted}"
        );
        // And it is far below the trial count (the whole point).
        assert!(kept < trials as f64 / 2.0);
    }

    #[test]
    fn scheme_names_round_trip() {
        for s in ProbScheme::ALL {
            assert_eq!(ProbScheme::parse(s.name()), Some(s));
            assert_eq!(ProbScheme::parse(&s.name().to_uppercase()), Some(s));
        }
        assert_eq!(ProbScheme::parse("nope"), None);
        assert_eq!(ProbScheme::default(), ProbScheme::Degree);
    }

    /// Both schemes produce valid probabilities on every edge, and the
    /// PSNE bound is never looser than the degree bound.
    #[test]
    fn both_schemes_are_valid_distributions() {
        // Watts–Strogatz at low rewiring is triangle-dense, so the PSNE
        // bound actually bites; Erdős–Rényi exercises the cn = 0 regime.
        for g in [watts_strogatz(200, 6, 0.1, 3), erdos_renyi(200, 1_200, 4)] {
            let c = default_c(g.num_vertices());
            for u in 0..g.num_vertices() as VertexId {
                for &v in g.neighbors(u) {
                    let p_deg = survival_probability(ProbScheme::Degree, &g, u, v, 1.0, c);
                    let p_psne = survival_probability(ProbScheme::Psne, &g, u, v, 1.0, c);
                    assert!(p_deg > 0.0 && p_deg <= 1.0, "degree p out of range: {p_deg}");
                    assert!(p_psne > 0.0 && p_psne <= 1.0, "psne p out of range: {p_psne}");
                    assert!(p_psne <= p_deg, "psne ({p_psne}) looser than degree ({p_deg})");
                }
            }
            // Expected kept mass is finite, positive, and ordered the
            // same way (psne keeps no more than degree).
            let trials = g.num_arcs() as u64;
            let all = 0..g.num_vertices() as VertexId;
            let k_deg = expected_kept_samples(&g, trials, c, ProbScheme::Degree, all.clone());
            let k_psne = expected_kept_samples(&g, trials, c, ProbScheme::Psne, all);
            assert!(k_deg > 0.0 && k_deg.is_finite());
            assert!(k_psne > 0.0 && k_psne <= k_deg);
        }
    }

    /// With no common neighbors the PSNE bound degenerates to the degree
    /// bound *bitwise* (the `2/(2+0) = 1` arm never wins the min against
    /// `1/d_u + 1/d_v ≤ 2`... unless both are exactly 1, where they tie).
    #[test]
    fn psne_matches_degree_bitwise_on_triangle_free_edges() {
        // A cycle: every edge has cn = 0 and degrees 2/2.
        let edges: Vec<(u32, u32)> = (0..32u32).map(|i| (i, (i + 1) % 32)).collect();
        let g = GraphBuilder::from_edges(32, &edges);
        let c = 0.2; // keep p below the clamp
        for u in 0..32u32 {
            for &v in g.neighbors(u) {
                assert_eq!(common_neighbors(&g, u, v), 0);
                let a = survival_probability(ProbScheme::Degree, &g, u, v, 1.0, c);
                let b = survival_probability(ProbScheme::Psne, &g, u, v, 1.0, c);
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Common-neighbor counts agree across every graph backend at the
    /// compressed block-size boundaries (degrees 0, 64 and 65 — the same
    /// edge cases the `V2Graph` decoder tests pin).
    #[test]
    fn common_neighbors_agree_across_backends_at_block_boundaries() {
        // Hub 0 → {2..=66} (degree 65), hub 1 → {2..=65} (degree 64),
        // vertex 67 isolated (degree 0), plus a clique among {2,3,4} so
        // some pairs have two-sided structure.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for v in 2..=66u32 {
            edges.push((0, v));
        }
        for v in 2..=65u32 {
            edges.push((1, v));
        }
        edges.extend_from_slice(&[(2, 3), (2, 4), (3, 4)]);
        let g = GraphBuilder::from_edges(68, &edges);
        assert_eq!(g.degree(0), 65);
        assert_eq!(g.degree(1), 64);
        assert_eq!(g.degree(67), 0);

        let byte = V2Graph::from_graph(&g, Codec::Byte);
        let arice = V2Graph::from_graph(&g, Codec::RiceAdaptive);
        let check = |u: u32, v: u32, want: usize| {
            assert_eq!(common_neighbors(&g, u, v), want, "csr ({u},{v})");
            assert_eq!(common_neighbors(&byte, u, v), want, "byte ({u},{v})");
            assert_eq!(common_neighbors(&arice, u, v), want, "arice ({u},{v})");
        };
        check(0, 1, 64); // shared {2..=65}
        check(2, 3, 3); // shared {0, 1, 4}
        check(0, 67, 0); // isolated endpoint
        check(67, 67, 0);
        // And the probability formula sees identical degrees via every
        // backend, so the scheme output is bit-identical across them.
        let c = default_c(68);
        for (u, v) in [(0u32, 2u32), (1, 2), (2, 3)] {
            let a = survival_probability(ProbScheme::Psne, &g, u, v, 1.0, c);
            let b = survival_probability(ProbScheme::Psne, &byte, u, v, 1.0, c);
            let d = survival_probability(ProbScheme::Psne, &arice, u, v, 1.0, c);
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), d.to_bits());
        }
    }

    /// Hand-computed PSNE values pin the formula.
    #[test]
    fn psne_probability_formula() {
        // cn = 2: triangle bound 2/4 = 0.5 < degree bound 1/4+1/4 = 0.5 →
        // tie; C = 1 → p = 0.5.
        assert!((p(ProbScheme::Psne, &hub_pair(4, 4, 2), 1.0) - 0.5).abs() < 1e-12);
        // cn = 3: triangle bound 2/5 = 0.4, degree bound 0.5 → 0.4.
        assert!((p(ProbScheme::Psne, &hub_pair(4, 4, 3), 1.0) - 0.4).abs() < 1e-12);
        // cn = 0: degenerates to the degree formula.
        let g = hub_pair(10, 40, 0);
        assert_eq!(
            p(ProbScheme::Psne, &g, 2.0).to_bits(),
            p(ProbScheme::Degree, &g, 2.0).to_bits()
        );
    }

    /// On unit weights the one weighted formula is bit-for-bit the two
    /// unweighted ones it replaced: `c·1·x = c·x`, and `1/(1 + cn/2)` and
    /// `2/(2 + cn)` are the same real number, correctly rounded once.
    #[test]
    fn unit_weights_reproduce_the_unweighted_formulas_bitwise() {
        for g in [erdos_renyi(150, 1_500, 9), watts_strogatz(200, 6, 0.1, 3)] {
            let c = 0.7; // keep p below the clamp
            for u in 0..g.num_vertices() as VertexId {
                for &v in g.neighbors(u) {
                    let degree_bound = 1.0 / g.degree(u) as f64 + 1.0 / g.degree(v) as f64;
                    let degree = (c * degree_bound).min(1.0);
                    let triangle_bound = 2.0 / (2.0 + common_neighbors(&g, u, v) as f64);
                    let psne = (c * degree_bound.min(triangle_bound)).min(1.0);
                    let got = |scheme| survival_probability(scheme, &g, u, v, 1.0, c).to_bits();
                    assert_eq!(got(ProbScheme::Degree), degree.to_bits());
                    assert_eq!(got(ProbScheme::Psne), psne.to_bits());
                }
            }
        }
    }
}
