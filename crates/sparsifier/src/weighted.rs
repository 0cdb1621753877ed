//! The weighted case of Algorithms 1–2, exactly as the paper's theory
//! states them (Theorems 3.1–3.2 are written for weighted `A`).
//!
//! There is no weighted sampler: [`crate::construct::sample_into`] is
//! generic over [`lightne_graph::WeightedOps`], and a
//! [`lightne_graph::WeightedGraph`] makes it
//!
//! * give arcs trials **proportionally to their weight** (a uniform
//!   weighted-edge draw) and step walks to neighbors proportionally to
//!   edge weight, so one trial lands on the ordered pair `(i, j)` with
//!   probability `d_i (D⁻¹A)^r_{ij} / vol(G)` — the same reversibility
//!   identity as the unweighted case with weighted degrees;
//! * downsample with the paper's full formula
//!   `p_e = min(1, C·A_uv·(1/d_u + 1/d_v))` over weighted degrees;
//! * invert to NetMF in unchanged form:
//!   `trunc_log( vol² · w(i,j) / (2·b·M·d_i·d_j) )` over weighted
//!   quantities.
//!
//! This module holds the statistical tests of that case.

/// Exists only for `benchmark/src/trace.rs`, which names the weighted
/// call separately.
pub use crate::construct::sample_into as weighted_sample_into;

#[cfg(test)]
mod tests {
    use crate::construct::tests::estimator_error;
    use crate::construct::SamplerConfig;
    use crate::downsample::{survival_probability, ProbScheme};
    use crate::sharded::{build_sharded_sparsifier, sharded_to_netmf, sparsifier_coo};
    use lightne_graph::{WeightedGraph, WeightedOps};
    use lightne_utils::rng::XorShiftStream;

    fn small_weighted(seed: u64) -> WeightedGraph {
        let mut rng = XorShiftStream::new(seed, 0);
        let mut edges = Vec::new();
        for u in 0..30u32 {
            for _ in 0..5 {
                let v = rng.bounded(30) as u32;
                if v != u {
                    edges.push((u, v, 0.5 + 2.0 * rng.unit_f32()));
                }
            }
        }
        WeightedGraph::from_edges(30, &edges)
    }

    #[test]
    fn weighted_estimator_is_unbiased() {
        let g = small_weighted(1);
        let cfg = SamplerConfig {
            window: 3,
            samples: 2_000_000,
            downsample: false,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 2,
        };
        let (rel, _) = estimator_error(&g, &cfg);
        assert!(rel < 0.05, "weighted estimator error {rel}");
    }

    #[test]
    fn downsampling_remains_unbiased_weighted() {
        let g = small_weighted(3);
        let cfg = SamplerConfig {
            window: 3,
            samples: 2_000_000,
            downsample: true,
            c_factor: Some(0.3),
            prob: ProbScheme::Degree,
            seed: 4,
        };
        let (rel, stats) = estimator_error(&g, &cfg);
        assert!(stats.kept < stats.trials, "downsampling must drop trials");
        assert!(rel < 0.12, "downsampled weighted estimator error {rel}");
    }

    #[test]
    fn weighted_survival_probability_is_valid() {
        let g = small_weighted(11);
        let c = 0.4;
        g.map_arcs(|u, v, w, _| {
            let p = survival_probability(&g, u, v, w, c);
            assert!(p > 0.0 && p <= 1.0, "invalid probability {p}");
        });
    }

    #[test]
    fn unit_weights_match_unweighted_sampler_statistics() {
        // A unit-weight `WeightedGraph` takes the weight-proportional trial
        // counts and the alias-table neighbor draw, the unweighted graph the
        // exact integer counts and the uniform draw — different RNG
        // consumption, same expectations (same trials, same totals).
        use lightne_gen::generators::erdos_renyi;
        let gu = erdos_renyi(100, 800, 5);
        let gw = WeightedGraph::from_unweighted(&gu);
        let cfg = SamplerConfig {
            window: 4,
            samples: 400_000,
            downsample: false,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 6,
        };
        let (coo_w, stats_w) = sparsifier_coo(&gw, &cfg);
        let (coo_u, stats_u) = sparsifier_coo(&gu, &cfg);
        let rel = (stats_w.trials as f64 - stats_u.trials as f64).abs() / stats_u.trials as f64;
        assert!(rel < 0.05, "trial counts diverge: {} vs {}", stats_w.trials, stats_u.trials);
        let sum = |coo: &[(u32, u32, f32)]| coo.iter().map(|&(_, _, w)| w as f64).sum::<f64>();
        let (sw, su) = (sum(&coo_w), sum(&coo_u));
        assert!((sw - su).abs() / su < 0.02, "total mass diverges: {sw} vs {su}");
    }

    #[test]
    fn netmf_conversion_prunes_and_is_positive() {
        let g = small_weighted(7);
        let cfg = SamplerConfig {
            window: 3,
            samples: 300_000,
            downsample: true,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 8,
        };
        let (table, _) = build_sharded_sparsifier(&g, &cfg, 0).unwrap();
        let m = sharded_to_netmf(&g, table, cfg.samples, 1.0);
        assert!(m.nnz() > 0);
        for i in 0..g.num_vertices() {
            let (_, vals) = m.row(i);
            assert!(vals.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn heavier_edges_get_more_trials() {
        // One heavy edge (w=50) among unit edges should receive ~50x the
        // samples of a unit edge at the same endpoints' locality.
        let g =
            WeightedGraph::from_edges(4, &[(0, 1, 50.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        let cfg = SamplerConfig {
            window: 1,
            samples: 500_000,
            downsample: false,
            c_factor: None,
            prob: ProbScheme::Degree,
            seed: 9,
        };
        let (coo, _) = sparsifier_coo(&g, &cfg);
        // With T=1 every sample is the edge itself.
        let get = |a: u32, b: u32| {
            coo.iter()
                .find(|&&(u, v, _)| u == a && v == b)
                .map(|&(_, _, w)| w as f64)
                .unwrap_or(0.0)
        };
        let heavy = get(0, 1);
        let light = get(1, 2);
        assert!(
            (heavy / light - 50.0).abs() < 5.0,
            "heavy/light sample ratio {} should be ≈ 50",
            heavy / light
        );
    }
}
