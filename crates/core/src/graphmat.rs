//! Sparse-matrix views of a graph.
//!
//! The propagation stage and the ProNE+ baseline both operate on matrices
//! derived from the adjacency structure: the adjacency matrix `A`, the
//! random-walk transition matrix `D⁻¹A` and the normalized graph Laplacian
//! `L = I − D⁻¹A` (Table 1 of the paper). These constructors build them in
//! parallel directly from neighbor lists, over arc weights and weighted
//! degrees — which on an unweighted graph are ones and neighbor counts.

use lightne_graph::WeightedOps;
use lightne_linalg::CsrMatrix;
use rayon::prelude::*;

/// Builds an `n × n` matrix with one entry `value(u, w)` per arc `u → v`
/// of weight `w`, plus a diagonal entry per vertex where `diagonal(u)`
/// gives one. Rows are assembled in parallel.
fn arcs_matrix<G, V, D>(g: &G, value: V, diagonal: D) -> CsrMatrix
where
    G: WeightedOps,
    V: Fn(u32, f32) -> f32 + Sync + Send,
    D: Fn(u32) -> Option<f32> + Sync + Send,
{
    let n = g.num_vertices();
    let coo: Vec<(u32, u32, f32)> = (0..n as u32)
        .into_par_iter()
        .flat_map_iter(|u| {
            let mut row = Vec::new();
            g.for_each_arc(u, |v, w| row.push((u, v, value(u, w))));
            row.extend(diagonal(u).map(|d| (u, u, d)));
            row
        })
        .collect();
    CsrMatrix::from_coo(n, n, coo)
}

/// The adjacency matrix `A` (arc weights; all ones on an unweighted graph).
pub fn adjacency<G: WeightedOps>(g: &G) -> CsrMatrix {
    arcs_matrix(g, |_, w| w, |_| None)
}

/// The self-looped adjacency `A + I`.
pub fn adjacency_plus_i<G: WeightedOps>(g: &G) -> CsrMatrix {
    arcs_matrix(g, |_, w| w, |_| Some(1.0))
}

/// The random-walk transition matrix `D⁻¹A` (rows sum to 1).
pub fn transition<G: WeightedOps>(g: &G) -> CsrMatrix {
    arcs_matrix(g, |u, w| w / g.weighted_degree(u) as f32, |_| None)
}

/// The normalized graph Laplacian `L = I − D⁻¹A`. Isolated vertices get
/// `L_vv = 1` (their row of `D⁻¹A` is zero).
pub fn normalized_laplacian<G: WeightedOps>(g: &G) -> CsrMatrix {
    arcs_matrix(g, |u, w| -w / g.weighted_degree(u) as f32, |_| Some(1.0))
}

/// The self-looped transition matrix `D̃⁻¹Ã` with `Ã = A + I`, the
/// smoothed operator ProNE's filter is built on (self-loops bound the
/// spectrum away from bipartite oscillation; the unit self-loop
/// convention carries over to weighted graphs).
pub fn transition_with_self_loops<G: WeightedOps>(g: &G) -> CsrMatrix {
    let looped = |u| (g.weighted_degree(u) + 1.0) as f32;
    arcs_matrix(g, |u, w| w / looped(u), |u| Some(1.0 / looped(u)))
}

/// Exists only for `benchmark/src/trace.rs`, which names the weighted
/// operators separately.
pub use {
    adjacency_plus_i as weighted_adjacency_plus_i,
    transition_with_self_loops as weighted_transition_with_self_loops,
};

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_gen::generators::erdos_renyi;
    use lightne_graph::GraphBuilder;

    #[test]
    fn operators_on_non_unit_weights_match_the_dense_oracle() {
        let g = lightne_graph::WeightedGraph::from_edges(
            4,
            &[(0, 1, 2.0), (1, 2, 0.5), (2, 0, 3.0), (2, 3, 4.0)],
        );
        let oracle = lightne_sparsifier::exact::transition_matrix(&g);
        assert!(transition(&g).to_dense().max_abs_diff(&oracle) < 1e-6);
        let (a, a_plus_i) = (adjacency(&g), adjacency_plus_i(&g));
        let (looped, laplacian) = (transition_with_self_loops(&g), normalized_laplacian(&g));
        for u in 0..4u32 {
            let d = g.weighted_degree(u) as f32;
            for v in 0..4u32 {
                let (w, eye) = (g.edge_weight(u, v), if u == v { 1.0 } else { 0.0 });
                let (i, j) = (u as usize, v as usize);
                assert_eq!(a.get(i, j), w);
                assert_eq!(a_plus_i.get(i, j), w + eye);
                assert!((looped.get(i, j) - (w + eye) / (d + 1.0)).abs() < 1e-6);
                assert!((laplacian.get(i, j) - (eye - w / d)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn weighted_transition_rows_stochastic() {
        let g = lightne_graph::WeightedGraph::from_edges(3, &[(0, 1, 2.0), (1, 2, 3.0)]);
        let p = transition_with_self_loops(&g);
        for i in 0..3 {
            let s: f32 = p.row(i).1.iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {i}: {s}");
        }
        // P[0,1] = 2/(2+1)
        assert!((p.get(0, 1) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_adjacency_keeps_weights_and_loops() {
        let g = lightne_graph::WeightedGraph::from_edges(2, &[(0, 1, 5.0)]);
        let a = adjacency_plus_i(&g);
        assert_eq!(a.get(0, 1), 5.0);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 1), 1.0);
    }

    #[test]
    fn adjacency_matches_graph() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let a = adjacency(&g);
        assert_eq!(a.nnz(), 6);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
        assert_eq!(a.get(0, 2), 0.0);
    }

    #[test]
    fn transition_rows_sum_to_one() {
        let g = erdos_renyi(100, 600, 1);
        let p = transition(&g);
        for i in 0..100 {
            let (_, vals) = p.row(i);
            if g.degree(i as u32) > 0 {
                let s: f32 = vals.iter().sum();
                assert!((s - 1.0).abs() < 1e-5, "row {i}: {s}");
            }
        }
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let g = erdos_renyi(100, 600, 2);
        let l = normalized_laplacian(&g);
        let ones = vec![1.0f32; 100];
        let y = l.mul_vec(&ones);
        for (i, v) in y.iter().enumerate() {
            if g.degree(i as u32) > 0 {
                assert!(v.abs() < 1e-5, "row {i}: {v}");
            } else {
                assert!((v - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn self_loop_transition_stochastic() {
        let g = GraphBuilder::from_edges(3, &[(0, 1)]);
        let p = transition_with_self_loops(&g);
        // Vertex 2 is isolated: with the self-loop its row is just itself.
        assert_eq!(p.get(2, 2), 1.0);
        let s: f32 = p.row(0).1.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn laplacian_psd_quadratic_form() {
        // xᵀ D L x = Σ_{(u,v)∈E} (x_u − x_v)² ≥ 0 for the normalized
        // Laplacian; check on random vectors via the unnormalized identity.
        let g = erdos_renyi(60, 300, 3);
        let l = normalized_laplacian(&g);
        use lightne_utils::rng::XorShiftStream;
        let mut rng = XorShiftStream::new(5, 0);
        for _ in 0..10 {
            let x: Vec<f32> = (0..60).map(|_| rng.gaussian() as f32).collect();
            let lx = l.mul_vec(&x);
            // xᵀ D (Lx)
            let quad: f64 =
                (0..60).map(|i| g.degree(i as u32) as f64 * x[i] as f64 * lx[i] as f64).sum();
            assert!(quad > -1e-3, "quadratic form negative: {quad}");
        }
    }
}
