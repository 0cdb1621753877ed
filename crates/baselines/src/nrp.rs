//! NRP-style baseline: factorizing the random-walk matrix *without* the
//! truncated logarithm.
//!
//! Section 2 of the paper singles out NRP (Yang et al., VLDB 2020): it
//! factorizes a personalized-PageRank matrix directly, which permits a
//! shortcut around constructing the walk matrix — but omits the
//! entry-wise `trunc_log` that NetMF proves necessary for the DeepWalk
//! equivalence, and the paper argues the omission costs accuracy
//! (Figure 4 shows NRP below LightNE). To reproduce that comparison
//! without NRP's Matlab stack, we reuse LightNE's own sparsifier and
//! factorize the *raw* (non-logarithmic) estimate of
//! `vol(G)/(bT) Σ_r (D⁻¹A)^r D⁻¹` — isolating exactly the design choice
//! the paper criticizes.

use lightne_graph::GraphOps;
use lightne_linalg::{randomized_svd, DenseMatrix, RsvdConfig};
use lightne_sparsifier::{build_sharded_sparsifier, table_to_csr, SamplerConfig};

/// NRP-style configuration (shares the sampler's knobs).
#[derive(Debug, Clone, Copy)]
pub struct NrpConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Walk window `T`.
    pub window: usize,
    /// Samples as a ratio of `T·m`.
    pub sample_ratio: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NrpConfig {
    fn default() -> Self {
        Self { dim: 128, window: 10, sample_ratio: 1.0, seed: 0x0909 }
    }
}

/// Embeds by factorizing the raw (no `trunc_log`) walk-matrix estimate.
pub fn nrp_embed<G: GraphOps>(g: &G, cfg: &NrpConfig) -> DenseMatrix {
    let samples = (cfg.sample_ratio * cfg.window as f64 * g.num_edges() as f64).round() as u64;
    let sampler_cfg = SamplerConfig {
        window: cfg.window,
        samples: samples.max(1),
        downsample: true,
        c_factor: None,
        seed: cfg.seed,
        ..Default::default()
    };
    let (table, _) = build_sharded_sparsifier(g, &sampler_cfg, 0).expect("nrp sampling failed");

    // Same estimator inversion as netmf.rs, fused into the same drain,
    // but NO trunc_log.
    let n = g.num_vertices();
    let vol = g.volume();
    let degrees: Vec<f64> = (0..n).map(|v| g.degree(v as u32) as f64).collect();
    let factor = vol * vol / (2.0 * sampler_cfg.samples as f64);
    let m = table_to_csr(n, table, |i, j, w| {
        let (di, dj) = (degrees[i as usize], degrees[j as usize]);
        (di != 0.0 && dj != 0.0).then(|| (factor * w as f64 / (di * dj)) as f32)
    });
    let svd = randomized_svd(
        &m,
        &RsvdConfig { rank: cfg.dim, oversampling: 16, power_iters: 1, seed: cfg.seed },
    );
    svd.embedding()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_gen::generators::erdos_renyi;

    #[test]
    fn shapes_and_determinism() {
        let g = erdos_renyi(200, 1500, 1);
        let cfg = NrpConfig { dim: 12, window: 4, sample_ratio: 2.0, seed: 3 };
        let a = nrp_embed(&g, &cfg);
        let b = nrp_embed(&g, &cfg);
        assert_eq!(a.rows(), 200);
        assert_eq!(a.cols(), 12);
        assert!(a.max_abs_diff(&b) < 1e-6);
    }

    #[test]
    fn raw_matrix_is_degree_dominated() {
        // Without the log, the leading singular direction is dominated by
        // low-degree vertices (1/(d_i·d_j) blows up) — the pathology the
        // log fixes. Sanity-check the embedding is still finite.
        let g = erdos_renyi(150, 800, 2);
        let x = nrp_embed(&g, &NrpConfig { dim: 8, window: 3, sample_ratio: 4.0, seed: 5 });
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
        assert!(x.frobenius_norm() > 0.0);
    }
}
