//! ProNE+ — ProNE rebuilt on the LightNE system stack (Section 5.2.3).
//!
//! The original ProNE release is a Python implementation the paper calls
//! "inefficient"; ProNE+ is the authors' re-implementation sharing
//! LightNE's graph processing and linear algebra, which is what we
//! reproduce. Two stages:
//!
//! 1. **Sparse matrix factorization**: randomized SVD of the modulated
//!    normalized Laplacian with entries (for each edge `(u,v)`):
//!
//!    ```text
//!    M_uv = log( (A_uv / d_u) · Z / (b · s_v^α) ),
//!       s_v = Σ_{i∈N(v)} 1/d_i,   Z = Σ_j s_j^α
//!    ```
//!
//!    with ProNE's defaults `b = 1`, `α = 0.75`. The matrix has exactly
//!    one entry per arc — the paper's Table 5 note that ProNE+ factorizes
//!    "exactly m non-zeros".
//! 2. **Spectral propagation**: identical to LightNE's
//!    ([`lightne_core::propagation`]).

use lightne_core::engine::{RunContext, RunStats, StageKind};
use lightne_core::propagation::{spectral_propagation, PropagationConfig};
use lightne_graph::GraphOps;
use lightne_linalg::{randomized_svd, CsrMatrix, DenseMatrix, RsvdConfig};
use lightne_utils::parallel::parallel_reduce_sum;
use rayon::prelude::*;

/// ProNE+ configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProNeConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Negative-sampling modulation `b`.
    pub negative: f64,
    /// Degree-modulation exponent `α` (ProNE default 0.75).
    pub alpha: f64,
    /// Randomized-SVD oversampling.
    pub oversampling: usize,
    /// Randomized-SVD subspace iterations.
    pub power_iters: usize,
    /// Spectral propagation settings.
    pub propagation: PropagationConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ProNeConfig {
    fn default() -> Self {
        Self {
            dim: 128,
            negative: 1.0,
            alpha: 0.75,
            oversampling: 16,
            power_iters: 1,
            propagation: PropagationConfig::default(),
            seed: 0x960e,
        }
    }
}

/// Output of a ProNE+ run.
#[derive(Debug, Clone)]
pub struct ProNeOutput {
    /// The final embedding after propagation.
    pub embedding: DenseMatrix,
    /// The factorization-only embedding (pre-propagation).
    pub initial_embedding: DenseMatrix,
    /// Non-zeros in the factorized matrix (always the arc count).
    pub matrix_nnz: usize,
    /// Per-stage run statistics (randomized SVD, spectral propagation).
    pub stats: RunStats,
}

/// The ProNE+ system.
#[derive(Debug, Clone)]
pub struct ProNe {
    cfg: ProNeConfig,
}

/// Builds ProNE's modulated-Laplacian matrix.
pub fn modulated_matrix<G: GraphOps>(g: &G, b: f64, alpha: f64) -> CsrMatrix {
    let n = g.num_vertices();
    // s_v = Σ_{i ∈ N(v)} 1/d_i
    let s: Vec<f64> = (0..n as u32)
        .into_par_iter()
        .map(|v| {
            let mut acc = 0.0;
            g.for_each_neighbor(v, &mut |i| acc += 1.0 / g.degree(i) as f64);
            acc
        })
        .collect();
    let z: f64 = parallel_reduce_sum(s.len(), |i| s[i].powf(alpha));

    let coo: Vec<(u32, u32, f32)> = (0..n as u32)
        .into_par_iter()
        .flat_map_iter(|u| {
            let du = g.degree(u) as f64;
            let mut row = Vec::with_capacity(g.degree(u));
            g.for_each_neighbor(u, &mut |v| {
                let val = ((1.0 / du) * z / (b * s[v as usize].powf(alpha))).ln();
                if val > 0.0 {
                    row.push((u, v, val as f32));
                }
            });
            row
        })
        .collect();
    CsrMatrix::from_coo(n, n, coo)
}

impl ProNe {
    /// Creates a ProNE+ instance.
    pub fn new(cfg: ProNeConfig) -> Self {
        Self { cfg }
    }

    /// Embeds the graph.
    pub fn embed<G: GraphOps>(&self, g: &G) -> ProNeOutput {
        let cfg = &self.cfg;
        let mut ctx = RunContext::new(cfg.seed);

        // ProNE's single factorization stage covers matrix build + SVD.
        // Note: ProNE has always seeded its SVD with the master seed
        // directly (no 0x5EED offset); keep that convention.
        let (initial, matrix_nnz) = ctx.run(StageKind::Rsvd, |scope| {
            let m = modulated_matrix(g, cfg.negative, cfg.alpha);
            scope.counter("nnz", m.nnz() as u64);
            scope.heap(&m);
            let svd = randomized_svd(
                &m,
                &RsvdConfig {
                    rank: cfg.dim,
                    oversampling: cfg.oversampling,
                    power_iters: cfg.power_iters,
                    seed: cfg.seed,
                },
            );
            let x = svd.embedding();
            scope.counter("rank", cfg.dim as u64);
            (x, m.nnz())
        });

        let embedding = ctx.run(StageKind::Propagate, |scope| {
            let e = spectral_propagation(g, &initial, &cfg.propagation);
            scope.heap(&e);
            e
        });

        let stats = ctx.into_stats();
        ProNeOutput { embedding, initial_embedding: initial, matrix_nnz, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_gen::generators::erdos_renyi;
    use lightne_gen::sbm::{labelled_sbm, SbmConfig};

    #[test]
    fn matrix_has_at_most_arc_nnz() {
        let g = erdos_renyi(200, 1500, 1);
        let m = modulated_matrix(&g, 1.0, 0.75);
        assert!(m.nnz() <= g.num_arcs());
        // On a typical sparse graph most entries are positive (kept).
        assert!(m.nnz() > g.num_arcs() / 2);
    }

    #[test]
    fn matrix_entries_only_on_edges() {
        let g = erdos_renyi(100, 500, 2);
        let m = modulated_matrix(&g, 1.0, 0.75);
        for u in 0..100u32 {
            let (cols, _) = m.row(u as usize);
            for &v in cols {
                assert!(g.has_edge(u, v), "({u},{v}) not an edge");
            }
        }
    }

    #[test]
    fn end_to_end_shapes() {
        let g = erdos_renyi(300, 3000, 3);
        let out = ProNe::new(ProNeConfig { dim: 16, ..Default::default() }).embed(&g);
        assert_eq!(out.embedding.rows(), 300);
        assert_eq!(out.embedding.cols(), 16);
        assert!(out.stats.get("spectral propagation").is_some());
    }

    #[test]
    fn captures_community_structure() {
        let cfg = SbmConfig {
            n: 600,
            communities: 4,
            avg_degree: 24.0,
            mixing: 0.05,
            overlap: 0.0,
            gamma: 2.5,
        };
        let (g, labels) = labelled_sbm(&cfg, 4);
        let out = ProNe::new(ProNeConfig { dim: 16, ..Default::default() }).embed(&g);
        let y = &out.embedding;
        let dot = |a: &[f32], b: &[f32]| -> f64 {
            a.iter().zip(b).map(|(&p, &q)| p as f64 * q as f64).sum()
        };
        let (mut same, mut sn, mut diff, mut dn) = (0.0, 0, 0.0, 0);
        for i in (0..600).step_by(5) {
            for j in (2..600).step_by(11) {
                if i == j {
                    continue;
                }
                let s = dot(y.row(i), y.row(j));
                if labels.of(i) == labels.of(j) {
                    same += s;
                    sn += 1;
                } else {
                    diff += s;
                    dn += 1;
                }
            }
        }
        let (s, d) = (same / sn as f64, diff / dn as f64);
        assert!(s > d + 0.05, "no separation: same {s:.4} diff {d:.4}");
    }
}
