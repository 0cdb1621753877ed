//! Spectral-gap estimation — the safety check for degree downsampling.
//!
//! Theorem 3.2 (Lovász) bounds the effective resistance by
//! `R_uv ≤ (1/d_u + 1/d_v) / (1 − λ₂)`: the degree-based sampling
//! probabilities LightNE uses are a faithful effective-resistance proxy
//! exactly when the spectral gap `1 − λ₂` of the normalized Laplacian is
//! bounded away from zero. The paper argues this holds for its workloads
//! (BlogCatalog's gap ≈ 0.43; web graphs are "well connected"); this
//! module lets a user *measure* the gap on their own graph before
//! trusting the downsampled estimator.
//!
//! Method: power iteration on the symmetric normalized adjacency
//! `N = D^{-1/2} A D^{-1/2}` with deflation of the known top eigenvector
//! `v₁ ∝ D^{1/2}·1` (eigenvalue 1 on a connected graph). The dominant
//! remaining eigenvalue is `λ₂`; we iterate on `(N + I)/2` so the result
//! is the largest *signed* λ₂ rather than the largest magnitude
//! (bipartite-ish graphs have eigenvalues near −1 that would otherwise
//! win).

use lightne_graph::GraphOps;
use lightne_utils::rng::XorShiftStream;
use rayon::prelude::*;

/// Result of a spectral-gap estimation.
#[derive(Debug, Clone, Copy)]
pub struct SpectralGap {
    /// Estimated second eigenvalue λ₂ of `D^{-1/2} A D^{-1/2}`.
    pub lambda2: f64,
    /// The gap `1 − λ₂` (Theorem 3.2's denominator).
    pub gap: f64,
    /// Power iterations executed.
    pub iterations: usize,
}

/// Estimates λ₂ by deflated power iteration (`iters` steps; 100–300 is
/// plenty for 3-digit accuracy on well-conditioned graphs).
///
/// Isolated vertices are ignored (their rows of `N` are zero). On a
/// disconnected graph the second eigenvalue of `N` is exactly 1, and the
/// estimate will (correctly) report a gap near 0.
pub fn estimate_spectral_gap<G: GraphOps>(g: &G, iters: usize, seed: u64) -> SpectralGap {
    let n = g.num_vertices();
    assert!(n > 1, "need at least two vertices");
    let deg: Vec<f64> = (0..n).map(|v| g.degree(v as u32) as f64).collect();
    let sqrt_d: Vec<f64> = deg.iter().map(|&d| d.sqrt()).collect();

    // Top eigenvector v1 ∝ D^{1/2}·1, normalized.
    let norm1: f64 = deg.iter().sum::<f64>().sqrt();
    let v1: Vec<f64> = sqrt_d.iter().map(|&s| s / norm1).collect();

    // N·x computed matrix-free: (N x)_u = Σ_{v∈N(u)} x_v / √(d_u d_v).
    let apply_n = |x: &[f64]| -> Vec<f64> {
        (0..n as u32)
            .into_par_iter()
            .map(|u| {
                if deg[u as usize] == 0.0 {
                    return 0.0;
                }
                let mut acc = 0.0;
                g.for_each_neighbor(u, &mut |v| {
                    acc += x[v as usize] / sqrt_d[v as usize];
                });
                acc / sqrt_d[u as usize]
            })
            .collect()
    };

    let deflate = |x: &mut [f64]| {
        let proj: f64 = x.iter().zip(&v1).map(|(a, b)| a * b).sum();
        for (xi, &v) in x.iter_mut().zip(&v1) {
            *xi -= proj * v;
        }
    };
    let normalize = |x: &mut [f64]| -> f64 {
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for xi in x.iter_mut() {
                *xi /= norm;
            }
        }
        norm
    };

    let mut rng = XorShiftStream::new(seed, 0);
    let mut x: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
    deflate(&mut x);
    normalize(&mut x);

    // Iterate on (N + I)/2: spectrum maps λ → (λ+1)/2 ∈ [0,1], so the
    // dominant deflated direction is the largest signed λ₂.
    let mut mu = 0.0;
    for _ in 0..iters {
        let nx = apply_n(&x);
        let mut y: Vec<f64> = nx.iter().zip(&x).map(|(a, b)| 0.5 * (a + b)).collect();
        deflate(&mut y);
        mu = normalize(&mut y);
        x = y;
        if mu == 0.0 {
            break;
        }
    }
    let lambda2 = (2.0 * mu - 1.0).clamp(-1.0, 1.0);
    SpectralGap { lambda2, gap: 1.0 - lambda2, iterations: iters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_gen::generators::{erdos_renyi, watts_strogatz};
    use lightne_graph::GraphBuilder;

    #[test]
    fn complete_graph_has_large_gap() {
        // K_n: λ₂ = −1/(n−1) → gap ≈ 1.
        let n = 30u32;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..u {
                edges.push((u, v));
            }
        }
        let g = GraphBuilder::from_edges(n as usize, &edges);
        let s = estimate_spectral_gap(&g, 300, 1);
        assert!((s.lambda2 - (-1.0 / 29.0)).abs() < 0.01, "λ₂ {}", s.lambda2);
        assert!(s.gap > 1.0, "gap {}", s.gap);
    }

    #[test]
    fn cycle_gap_matches_closed_form() {
        // Cycle C_n: λ₂ = cos(2π/n).
        let n = 40usize;
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        let g = GraphBuilder::from_edges(n, &edges);
        let s = estimate_spectral_gap(&g, 2000, 2);
        let want = (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!((s.lambda2 - want).abs() < 0.01, "λ₂ {} want {want}", s.lambda2);
    }

    #[test]
    fn disconnected_graph_reports_no_gap() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let s = estimate_spectral_gap(&g, 500, 3);
        assert!(s.gap < 0.02, "disconnected graph must have gap ≈ 0, got {}", s.gap);
    }

    #[test]
    fn expander_beats_lattice() {
        // A sparse ER graph is an expander; a barely-rewired ring is not.
        let expander = erdos_renyi(400, 4000, 4);
        let lattice = watts_strogatz(400, 3, 0.01, 5);
        let ge = estimate_spectral_gap(&expander, 300, 6);
        let gl = estimate_spectral_gap(&lattice, 300, 6);
        assert!(
            ge.gap > 3.0 * gl.gap,
            "expander gap {} should dwarf lattice gap {}",
            ge.gap,
            gl.gap
        );
    }
}
