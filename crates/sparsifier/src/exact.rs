//! Exact (dense) NetMF matrix — the ground truth the sampler approximates.
//!
//! Computes `trunc_log( vol(G)/(b·T) · Σ_{r=1..T} (D⁻¹A)^r · D⁻¹ )` by
//! explicit dense matrix powers. O(n³) time and O(n²) memory: only viable
//! for the small benchmark graphs (BlogCatalog-scale), which is exactly
//! the regime where the paper's predecessors ran exact NetMF. Used by the
//! NetMF baseline in `lightne-baselines` and by statistical tests.

use lightne_graph::WeightedOps;
use lightne_linalg::{CsrMatrix, DenseMatrix};

/// Dense random-walk matrix `D⁻¹A` (weighted degrees on a weighted graph).
pub fn transition_matrix<G: WeightedOps>(g: &G) -> DenseMatrix {
    let n = g.num_vertices();
    let mut p = DenseMatrix::zeros(n, n);
    for u in 0..n as u32 {
        let du = g.weighted_degree(u) as f32;
        g.for_each_arc(u, |v, w| p.set(u as usize, v as usize, w / du));
    }
    p
}

/// Dense `Σ_{r=1..T} (D⁻¹A)^r`, the matrix the sampler's aggregated
/// weights estimate (up to the `d_i` row scale).
pub fn walk_sum<G: WeightedOps>(g: &G, window: usize) -> DenseMatrix {
    assert!(window >= 1);
    let p = transition_matrix(g);
    let mut power = p.clone();
    let mut sum = p.clone();
    for _ in 1..window {
        power = power.matmul(&p);
        sum.axpy(1.0, &power);
    }
    sum
}

/// The exact dense NetMF matrix (Equation 1 of the paper).
pub fn exact_netmf_dense<G: WeightedOps>(g: &G, window: usize, b: f64) -> DenseMatrix {
    let n = g.num_vertices();
    let mut sum = walk_sum(g, window);
    // sum ← vol/(bT) · sum · D⁻¹, then trunc_log.
    let scale = (g.volume() / (b * window as f64)) as f32;
    let inv_deg: Vec<f32> = (0..n as u32)
        .map(|v| {
            let d = g.weighted_degree(v) as f32;
            if d == 0.0 {
                0.0
            } else {
                1.0 / d
            }
        })
        .collect();
    sum.scale_columns(&inv_deg);
    sum.scale(scale);
    sum.map_inplace(|x| if x > 1.0 { x.ln() } else { 0.0 });
    sum
}

/// The exact NetMF matrix in sparse form (zeros pruned).
pub fn exact_netmf<G: WeightedOps>(g: &G, window: usize, b: f64) -> CsrMatrix {
    let dense = exact_netmf_dense(g, window, b);
    let n = g.num_vertices();
    let mut coo = Vec::new();
    for i in 0..n {
        for (j, &v) in dense.row(i).iter().enumerate() {
            if v > 0.0 {
                coo.push((i as u32, j as u32, v));
            }
        }
    }
    CsrMatrix::from_coo(n, n, coo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_gen::generators::{erdos_renyi, watts_strogatz};
    use lightne_graph::GraphBuilder;

    #[test]
    fn transition_matrix_rows_sum_to_one() {
        let g = erdos_renyi(40, 200, 1);
        let p = transition_matrix(&g);
        for i in 0..40 {
            let s: f32 = p.row(i).iter().sum();
            if g.degree(i as u32) > 0 {
                assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
            } else {
                assert_eq!(s, 0.0);
            }
        }
    }

    #[test]
    fn netmf_matrix_nonnegative_and_symmetric() {
        let g = watts_strogatz(60, 3, 0.1, 2);
        let m = exact_netmf_dense(&g, 5, 1.0);
        for i in 0..60 {
            for j in 0..60 {
                assert!(m.get(i, j) >= 0.0);
                // D⁻¹ P^r D⁻¹-style matrices are symmetric for undirected
                // graphs; trunc_log preserves symmetry.
                assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-4, "asymmetry at ({i},{j})");
            }
        }
    }

    #[test]
    fn window_one_matches_line_formula() {
        // For T=1 the matrix is trunc_log(vol/b · A_ij/(d_i d_j)).
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let m = exact_netmf_dense(&g, 1, 1.0);
        let vol = 8.0f32;
        let expected = (vol / (2.0 * 2.0)).ln(); // every vertex has degree 2
        for i in 0..4u32 {
            for &j in g.neighbors(i) {
                assert!((m.get(i as usize, j as usize) - expected).abs() < 1e-5);
            }
            assert_eq!(m.get(i as usize, i as usize), 0.0);
        }
    }

    #[test]
    fn sparse_form_matches_dense() {
        let g = erdos_renyi(50, 250, 3);
        let dense = exact_netmf_dense(&g, 3, 1.0);
        let sparse = exact_netmf(&g, 3, 1.0);
        assert!(sparse.to_dense().max_abs_diff(&dense) < 1e-6);
    }

    #[test]
    fn isolated_vertices_yield_empty_rows() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2)]);
        let m = exact_netmf(&g, 3, 1.0);
        assert_eq!(m.row(4).0.len(), 0);
    }
}
