//! Sparse-matrix views of a graph.
//!
//! The propagation stage and the ProNE+ baseline both operate on matrices
//! derived from the adjacency structure (Table 1 of the paper): the
//! adjacency matrix `A`, its self-looped form `A + I`, and the self-looped
//! transition matrix `D̃⁻¹Ã` their filters are built on. These constructors
//! build them in parallel directly from neighbor lists, over arc weights
//! and weighted degrees — which on an unweighted graph are ones and
//! neighbor counts.

use lightne_graph::WeightedOps;
use lightne_linalg::CsrMatrix;
use lightne_utils::parallel::parallel_prefix_sum;
use rayon::prelude::*;

/// Rows per fill task of [`arcs_matrix`]. Fixed; the rows are
/// independent, so it cannot affect values.
const FILL_ROWS: usize = 256;

/// Builds an `n × n` matrix with one entry `value(u, w)` per arc `u → v`
/// of weight `w`, plus a diagonal entry per vertex where `diagonal(u)`
/// gives one: [`sorted_rows_matrix`] when every row is in order (every
/// row the workspace writes is), else [`arcs_matrix_via_coo`].
fn arcs_matrix<G, V, D>(g: &G, value: V, diagonal: D) -> CsrMatrix
where
    G: WeightedOps,
    V: Fn(u32, f32) -> f32 + Sync + Send,
    D: Fn(u32) -> Option<f32> + Sync + Send,
{
    sorted_rows_matrix(g, &value, &diagonal)
        .unwrap_or_else(|| arcs_matrix_via_coo(g, value, diagonal))
}

/// [`arcs_matrix`] straight in CSR form: the rows are counted from the
/// stored degrees, the counts prefix-summed, and blocks of rows filled in
/// parallel. A row whose arcs are strictly ascending and hold no
/// self-loop is already in column order once the diagonal goes before the
/// first neighbour above `u` — the matrix [`CsrMatrix::from_coo`] would
/// sort the same entries into, without the sort. Raw CSR arrays
/// (`Graph::from_csr`) are not checked for order or self-loops, so each
/// row is checked once written (strictly ascending columns, one
/// comparison per entry) and the build returns `None` if any row is not.
fn sorted_rows_matrix<G, V, D>(g: &G, value: &V, diagonal: &D) -> Option<CsrMatrix>
where
    G: WeightedOps,
    V: Fn(u32, f32) -> f32 + Sync + Send,
    D: Fn(u32) -> Option<f32> + Sync + Send,
{
    let n = g.num_vertices();
    let counts: Vec<u64> = (0..n as u32)
        .into_par_iter()
        .map(|u| (g.arc_count(u) + usize::from(diagonal(u).is_some())) as u64)
        .collect();
    let row_ptr = parallel_prefix_sum(&counts);
    let nnz = row_ptr[n] as usize;
    let (mut col_idx, mut values) = (vec![0u32; nnz], vec![0f32; nnz]);
    let mut tasks = Vec::with_capacity(n.div_ceil(FILL_ROWS));
    let (mut col_rest, mut val_rest) = (&mut col_idx[..], &mut values[..]);
    for u0 in (0..n).step_by(FILL_ROWS) {
        let u1 = (u0 + FILL_ROWS).min(n);
        let len = (row_ptr[u1] - row_ptr[u0]) as usize;
        let (cols, ct) = std::mem::take(&mut col_rest).split_at_mut(len);
        let (vals, vt) = std::mem::take(&mut val_rest).split_at_mut(len);
        (col_rest, val_rest) = (ct, vt);
        tasks.push((u0 as u32..u1 as u32, cols, vals));
    }
    let in_order = tasks.into_par_iter().all(|(rows, cols, vals)| {
        let (mut at, mut in_order) = (0, true);
        for u in rows {
            let start = at;
            let mut diag = diagonal(u);
            let mut put = |c: u32, v: f32| {
                cols[at] = c;
                vals[at] = v;
                at += 1;
            };
            g.for_each_arc(u, |v, w| {
                if v > u {
                    if let Some(d) = diag.take() {
                        put(u, d);
                    }
                }
                put(v, value(u, w));
            });
            if let Some(d) = diag {
                put(u, d);
            }
            in_order &= cols[start..at].is_sorted_by(|a, b| a < b);
        }
        in_order
    });
    in_order.then(|| CsrMatrix::from_raw(n, n, row_ptr, col_idx, values))
}

/// [`arcs_matrix`] for rows in any order: every arc and diagonal entry as
/// a COO triple, sorted and assembled by `from_coo` (repeated columns
/// summed).
fn arcs_matrix_via_coo<G, V, D>(g: &G, value: V, diagonal: D) -> CsrMatrix
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
    use lightne_graph::{Codec, Graph, GraphBuilder, V2Graph, WeightedGraph};

    /// Every operator of this module must have the rows the COO
    /// construction gives, bit for bit; `in_order` says whether the
    /// straight build of `A + I` takes them (it must on every graph the
    /// workspace writes) or hands them to the COO path. Without a
    /// diagonal a lone self-loop is already in column order, so `A + I`
    /// is the probe.
    fn assert_operators_match_coo<G: WeightedOps>(g: &G, in_order: bool, what: &str) {
        let straight = sorted_rows_matrix(g, &|_, w| w, &|_| Some(1.0));
        assert_eq!(straight.is_some(), in_order, "{what}: straight build taken");
        let looped = |u| (g.weighted_degree(u) + 1.0) as f32;
        let pairs = [
            ("A", adjacency(g), arcs_matrix_via_coo(g, |_, w| w, |_| None)),
            ("A+I", adjacency_plus_i(g), arcs_matrix_via_coo(g, |_, w| w, |_| Some(1.0))),
            (
                "D̃⁻¹Ã",
                transition_with_self_loops(g),
                arcs_matrix_via_coo(g, |u, w| w / looped(u), |u| Some(1.0 / looped(u))),
            ),
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (name, got, want) in pairs {
            assert_eq!((got.n_rows(), got.nnz()), (want.n_rows(), want.nnz()), "{what} {name}");
            for i in 0..got.n_rows() {
                let ((gc, gv), (wc, wv)) = (got.row(i), want.row(i));
                assert_eq!(gc, wc, "{what} {name}: columns of row {i}");
                assert_eq!(bits(gv), bits(wv), "{what} {name}: values of row {i}");
            }
        }
    }

    #[test]
    fn operators_match_the_coo_construction_on_every_backend() {
        // n = 9: vertex 0 (all neighbours above), vertex 8 (all below),
        // vertex 4 (neighbours on both sides), vertex 5 (isolated), and
        // vertex 3 whose neighbours are all below it.
        let n = 9;
        let edges =
            [(0, 1), (0, 4), (0, 8), (1, 4), (2, 3), (1, 3), (4, 6), (4, 8), (6, 8), (7, 8)];
        let g = GraphBuilder::from_edges(n, &edges);
        assert_eq!(g.neighbors(5), &[] as &[u32]);
        assert!(g.neighbors(3).iter().all(|&v| v < 3));
        assert_operators_match_coo(&g, true, "Graph");
        let weighted: Vec<(u32, u32, f32)> =
            edges.iter().enumerate().map(|(i, &(u, v))| (u, v, 0.3 + 1.7 * i as f32)).collect();
        let wg = WeightedGraph::from_edges(n, &weighted);
        assert_operators_match_coo(&wg, true, "WeightedGraph");
        let v2 = V2Graph::from_graph(&g, Codec::RiceAdaptive);
        assert_operators_match_coo(&v2, true, "V2Graph");
        // Four fill tasks, the last one ragged.
        let big = erdos_renyi(3 * FILL_ROWS + 17, 4000, 4);
        assert_operators_match_coo(&big, true, "Graph (random)");
        let big_v2 = V2Graph::from_graph(&big, Codec::Byte);
        assert_operators_match_coo(&big_v2, true, "V2Graph (random)");
        // Isolated vertices 0 and n − 1, an edge across the task boundary.
        let ends = GraphBuilder::from_edges(FILL_ROWS + 3, &[(1, 2), (2, FILL_ROWS as u32)]);
        assert_operators_match_coo(&ends, true, "Graph (isolated 0 and n-1)");
    }

    #[test]
    fn rows_out_of_order_take_the_coo_path() {
        // Raw CSR arrays are not checked for order, so they carry a
        // self-loop (row 1) or a row whose second two-arc block starts
        // below the first and repeats a column (row 0: [2, 3] then
        // [1, 3]). A container encodes each block from `zigzag(first −
        // v)`, so it can hold both under a valid checksum; its checked
        // decode refuses them, so no operator is built from one.
        let forged = [
            (vec![0, 1, 4, 6, 7], vec![1, 0, 1, 2, 1, 3, 2]),
            (vec![0, 4, 5, 7, 9], vec![2, 3, 1, 3, 0, 0, 3, 0, 2]),
        ];
        for (i, (offsets, neighbors)) in forged.into_iter().enumerate() {
            let g = Graph::from_csr(offsets, neighbors);
            assert_operators_match_coo(&g, false, &format!("Graph (forged {i})"));
            // Encoded and reopened through `from_bytes`, which verifies
            // the checksum.
            let v2 = V2Graph::from_graph_with_block_size(&g, Codec::RiceAdaptive, 2).unwrap();
            assert!(v2.validate().is_err(), "V2Graph (forged {i})");
        }
    }

    #[test]
    fn operators_on_non_unit_weights_match_their_definitions() {
        let g = lightne_graph::WeightedGraph::from_edges(
            4,
            &[(0, 1, 2.0), (1, 2, 0.5), (2, 0, 3.0), (2, 3, 4.0)],
        );
        let (a, a_plus_i, looped) =
            (adjacency(&g), adjacency_plus_i(&g), transition_with_self_loops(&g));
        for u in 0..4u32 {
            let d = g.weighted_degree(u) as f32;
            for v in 0..4u32 {
                let (w, eye) = (g.edge_weight(u, v), if u == v { 1.0 } else { 0.0 });
                let (i, j) = (u as usize, v as usize);
                assert_eq!(a.get(i, j), w);
                assert_eq!(a_plus_i.get(i, j), w + eye);
                assert!((looped.get(i, j) - (w + eye) / (d + 1.0)).abs() < 1e-6);
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
    fn self_loop_transition_stochastic() {
        let g = GraphBuilder::from_edges(3, &[(0, 1)]);
        let p = transition_with_self_loops(&g);
        // Vertex 2 is isolated: with the self-loop its row is just itself.
        assert_eq!(p.get(2, 2), 1.0);
        let s: f32 = p.row(0).1.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }
}
