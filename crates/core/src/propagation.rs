//! Spectral propagation — ProNE's Chebyshev–Gaussian filter (Step 2 of
//! the LightNE algorithm, Section 3.2).
//!
//! The initial factorization captures local co-occurrence; propagation
//! passes it through a Gaussian band-pass of the graph spectrum,
//! `g(λ) = e^{-θ/2((λ-μ)²-1)}`, which amplifies the community-scale
//! eigendirections and damps noise. We follow ProNE's released
//! implementation exactly (its quirks are what the paper benchmarked as
//! ProNE+ and as LightNE's second stage):
//!
//! * operator: `M = L − μI` with `L = I − D̃⁻¹Ã`, `Ã = A + I`;
//! * the Chebyshev recurrence runs in `M²` (each step applies `M` twice),
//!   which realizes the *squared* distance `(λ−μ)²` of the Gaussian:
//!   `P_1 = (M²/2 − I)X`, `P_{r+1} = (M² − 2I)P_r − P_{r-1}`;
//! * coefficients: modified Bessel values, `conv = I_0(θ)X − 2I_1(θ)P_1
//!   + 2I_2(θ)P_2 − ...` up to `order` (the paper sets ~10);
//! * output: `(A + I)·(X − conv)` — the *unnormalized* self-looped
//!   adjacency, exactly as in ProNE — re-factorized by a thin SVD to
//!   `U·Σ^{1/2}` with L2-normalized rows (ProNE's
//!   `get_embedding_dense`).
//!
//! Each Chebyshev step is two `CsrMatrix::spmm_fused` passes (SPMM with a
//! per-row epilogue) over four n×d buffers allocated before the loop; the
//! epilogues apply, per element and in the old order, the f32 operations
//! of the unfused passes — `half = −acc + (1−μ)·P_r`, then over `P_{r−1}`:
//! `P_{r+1} = (−acc + (1−μ)·half) + (−2)·P_r − P_{r−1}`, `conv += c·P_{r+1}`
//! (`P_1` ends `·½ − X`) — so the bytes equal the test-only oracle below.

use crate::graphmat::{adjacency_plus_i, transition_with_self_loops};
use lightne_graph::WeightedOps;
use lightne_linalg::special::bessel_i;
use lightne_linalg::svd::tall_thin_svd;
use lightne_linalg::{CsrMatrix, DenseMatrix};

/// Parameters of the Chebyshev–Gaussian filter (ProNE defaults).
#[derive(Debug, Clone, Copy)]
pub struct PropagationConfig {
    /// Chebyshev expansion order `k` (the paper sets ~10); below 2 runs as 2.
    pub order: usize,
    /// Center `μ` of the Gaussian kernel.
    pub mu: f64,
    /// Bandwidth `θ` of the Gaussian kernel.
    pub theta: f64,
}

impl Default for PropagationConfig {
    fn default() -> Self {
        Self { order: 10, mu: 0.2, theta: 0.5 }
    }
}

/// Nominal floating-point operation count of the propagation stage on a
/// graph whose transition matrix has `da_nnz` stored entries
/// (`a_plus_i` has the same sparsity): `2·order − 2` SPMM applications of
/// `M` (2 per Chebyshev step) at `2·nnz·d` each plus the shift/axpy
/// traffic, the final `(A+I)` SPMM, and the thin SVD refactorization
/// through the Gram matrix: Gram product and lift at `2·n·d²` each, and
/// `~9·d³` for the symmetric eigensolver.
pub fn propagation_flops(n: usize, da_nnz: u64, d: usize, cfg: &PropagationConfig) -> u64 {
    let (n, d) = (n as u64, d as u64);
    let applies = 2 * cfg.order.max(1) as u64 - 2;
    let spmms = (applies + 1) * 2 * da_nnz * d;
    let axpys = (applies * 2 + cfg.order as u64 + 3) * 2 * n * d;
    let refactor = 4 * n * d * d + 9 * d * d * d;
    spmms + axpys + refactor
}

/// Applies the filter to an embedding, returning the enhanced embedding
/// (same shape, rows L2-normalized).
pub fn spectral_propagation<G: WeightedOps>(
    g: &G,
    x: &DenseMatrix,
    cfg: &PropagationConfig,
) -> DenseMatrix {
    spectral_propagation_matrices(&transition_with_self_loops(g), &adjacency_plus_i(g), x, cfg)
}

/// The filter on explicit operator matrices: `da` is the (row-stochastic)
/// self-looped transition `D̃⁻¹Ã` and `a_plus_i` the self-looped
/// adjacency `A + I` (weighted or unweighted).
pub fn spectral_propagation_matrices(
    da: &CsrMatrix,
    a_plus_i: &CsrMatrix,
    x: &DenseMatrix,
    cfg: &PropagationConfig,
) -> DenseMatrix {
    assert_eq!(x.rows(), da.n_rows(), "embedding/graph size mismatch");
    // M·v = (L − μI)v = (1−μ)v − D̃⁻¹Ã v, per element. `−a` and `b − a` are
    // the unfused `a·(−1)` and `b + (−1)·a` bit for bit (sign-symmetric).
    let shift = (1.0 - cfg.mu) as f32;
    let m = move |acc: f32, v: f32| -acc + shift * v;
    let apply_m = |v: &DenseMatrix, out: &mut DenseMatrix| {
        da.spmm_fused(v, [out], |i, acc, [o]| {
            for ((o, &a), &v) in o.iter_mut().zip(acc).zip(v.row(i)) {
                *o = m(a, v);
            }
        })
    };
    let zeros = || DenseMatrix::zeros(x.rows(), x.cols());
    let (mut half, mut cur, mut conv, mut prev) = (zeros(), zeros(), zeros(), x.clone());

    // P_1 = (M²/2 − I) X and conv = I_0(θ)·X − 2I_1(θ)·P_1.
    let (c0, c1) = (bessel_i(0, cfg.theta) as f32, -2.0 * bessel_i(1, cfg.theta) as f32);
    apply_m(x, &mut half);
    da.spmm_fused(&half, [&mut cur, &mut conv], |i, acc, [p1, conv]| {
        let row = p1.iter_mut().zip(conv).zip(acc).zip(half.row(i)).zip(x.row(i));
        for ((((p, c), &a), &h), &xv) in row {
            *p = m(a, h) * 0.5 - xv;
            *c = xv * c0 + c1 * *p;
        }
    });
    for r in 2..cfg.order {
        // P_{r+1} = (M² − 2I) P_r − P_{r−1}, written over P_{r−1}.
        let sign = if r % 2 == 0 { 2.0 } else { -2.0 };
        let coef = sign * bessel_i(r as u32, cfg.theta) as f32;
        apply_m(&cur, &mut half);
        da.spmm_fused(&half, [&mut prev, &mut conv], |i, acc, [next, conv]| {
            let row = next.iter_mut().zip(conv).zip(acc).zip(half.row(i)).zip(cur.row(i));
            for ((((q, c), &a), &h), &p) in row {
                *q = m(a, h) + -2.0 * p - *q;
                *c += coef * *q;
            }
        });
        std::mem::swap(&mut prev, &mut cur);
    }

    // (A + I)·(X − conv) — the raw, unnormalized adjacency, as in ProNE's
    // release — re-factorized to U·√Σ with normalized rows (ProNE's
    // get_embedding_dense).
    let mut diff = x.clone();
    diff.axpy(-1.0, &conv);
    let svd = tall_thin_svd(&a_plus_i.spmm(&diff));
    let mut emb = svd.u;
    let scale: Vec<f32> = svd.sigma.iter().map(|&s| s.max(0.0).sqrt()).collect();
    emb.scale_columns(&scale);
    emb.normalize_rows();
    emb
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightne_gen::generators::erdos_renyi;
    use lightne_gen::sbm::{labelled_sbm, SbmConfig};

    /// The pre-fusion stage, verbatim: one allocation per `apply_m`, a
    /// separate `scale`/`axpy` pass per term. The byte-level oracle of
    /// the fused recurrence.
    fn straight_line_propagation(
        da: &CsrMatrix,
        a_plus_i: &CsrMatrix,
        x: &DenseMatrix,
        cfg: &PropagationConfig,
    ) -> DenseMatrix {
        let shift = (1.0 - cfg.mu) as f32;
        let apply_m = |v: &DenseMatrix| -> DenseMatrix {
            let mut out = da.spmm(v);
            out.scale(-1.0);
            out.axpy(shift, v);
            out
        };
        let mut p1 = apply_m(x);
        p1 = {
            let mut t = apply_m(&p1);
            t.scale(0.5);
            t.axpy(-1.0, x);
            t
        };
        let mut conv = x.clone();
        conv.scale(bessel_i(0, cfg.theta) as f32);
        conv.axpy(-2.0 * bessel_i(1, cfg.theta) as f32, &p1);
        let mut prev = x.clone();
        let mut cur = p1;
        for i in 2..cfg.order {
            let mut next = apply_m(&cur);
            next = {
                let mut t = apply_m(&next);
                t.axpy(-2.0, &cur);
                t.axpy(-1.0, &prev);
                t
            };
            let sign = if i % 2 == 0 { 2.0 } else { -2.0 };
            conv.axpy(sign * bessel_i(i as u32, cfg.theta) as f32, &next);
            prev = cur;
            cur = next;
        }
        let mut diff = x.clone();
        diff.axpy(-1.0, &conv);
        let mm = a_plus_i.spmm(&diff);
        let svd = tall_thin_svd(&mm);
        let mut emb = svd.u;
        let scale: Vec<f32> = svd.sigma.iter().map(|&s| s.max(0.0).sqrt()).collect();
        emb.scale_columns(&scale);
        emb.normalize_rows();
        emb
    }

    #[test]
    fn fused_recurrence_matches_straight_line_bitwise() {
        // More rows than one SPMM row block, d with a vector body and a
        // scalar tail; unit weights and weights that are not powers of two.
        let g = erdos_renyi(200, 1500, 21);
        let mut rng = lightne_utils::rng::XorShiftStream::new(22, 0);
        let mut edges = Vec::new();
        for u in 0..200u32 {
            for &v in g.neighbors(u).iter().filter(|&&v| u < v) {
                edges.push((u, v, 0.3 + 2.9 * rng.unit_f32()));
            }
        }
        let w = lightne_graph::WeightedGraph::from_edges(200, &edges);
        let x = DenseMatrix::gaussian(200, 13, 23);
        let operators = [
            (transition_with_self_loops(&g), adjacency_plus_i(&g)),
            (transition_with_self_loops(&w), adjacency_plus_i(&w)),
        ];
        for (da, a_plus_i) in &operators {
            for order in [2, 3, 10] {
                let cfg = PropagationConfig { order, ..Default::default() };
                let fused = spectral_propagation_matrices(da, a_plus_i, &x, &cfg);
                let oracle = straight_line_propagation(da, a_plus_i, &x, &cfg);
                let same = fused
                    .as_slice()
                    .iter()
                    .zip(oracle.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "order {order}: fused bytes differ from the straight-line oracle");
            }
        }
    }

    #[test]
    fn output_shape_and_normalization() {
        let g = erdos_renyi(300, 3000, 1);
        let x = DenseMatrix::gaussian(300, 8, 2);
        let y = spectral_propagation(&g, &x, &PropagationConfig::default());
        assert_eq!(y.rows(), 300);
        assert_eq!(y.cols(), 8);
        for i in 0..300 {
            let norm: f64 = y.row(i).iter().map(|&v| (v as f64).powi(2)).sum();
            assert!((norm - 1.0).abs() < 1e-4 || norm < 1e-8, "row {i}: {norm}");
        }
    }

    #[test]
    fn order_two_is_valid() {
        let g = erdos_renyi(100, 500, 3);
        let x = DenseMatrix::gaussian(100, 4, 4);
        let y = spectral_propagation(&g, &x, &PropagationConfig { order: 2, ..Default::default() });
        assert_eq!(y.rows(), 100);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn propagation_is_deterministic() {
        let g = erdos_renyi(100, 500, 5);
        let x = DenseMatrix::gaussian(100, 4, 6);
        let cfg = PropagationConfig::default();
        let y1 = spectral_propagation(&g, &x, &cfg);
        let y2 = spectral_propagation(&g, &x, &cfg);
        assert!(y1.max_abs_diff(&y2) < 1e-6);
    }

    /// Community-separation score of an embedding on labelled data.
    fn separation(y: &DenseMatrix, labels: &lightne_gen::Labels, n: usize) -> f64 {
        let mut yn = y.clone();
        yn.normalize_rows();
        let cos = |a: &[f32], b: &[f32]| -> f64 {
            a.iter().zip(b).map(|(&p, &q)| p as f64 * q as f64).sum()
        };
        let (mut same, mut same_n, mut diff, mut diff_n) = (0.0, 0usize, 0.0, 0usize);
        for i in (0..n).step_by(3) {
            for j in (1..n).step_by(7) {
                if i == j {
                    continue;
                }
                let s = cos(yn.row(i), yn.row(j));
                if labels.of(i) == labels.of(j) {
                    same += s;
                    same_n += 1;
                } else {
                    diff += s;
                    diff_n += 1;
                }
            }
        }
        same / same_n as f64 - diff / diff_n as f64
    }

    #[test]
    fn propagation_improves_noisy_community_signal() {
        // The filter amplifies community-scale eigendirections: starting
        // from indicator + heavy noise, separation must increase.
        let n = 600;
        let k = 4;
        let cfg = SbmConfig {
            n,
            communities: k,
            avg_degree: 20.0,
            mixing: 0.05,
            overlap: 0.0,
            gamma: 2.5,
        };
        let (g, labels) = labelled_sbm(&cfg, 7);
        let mut x = DenseMatrix::gaussian(n, 8, 8);
        for i in 0..n {
            let c = labels.of(i)[0] as usize;
            let v = x.get(i, c) + 1.0;
            x.set(i, c, v);
        }
        let before = separation(&x, &labels, n);
        let y = spectral_propagation(&g, &x, &PropagationConfig::default());
        let after = separation(&y, &labels, n);
        assert!(
            after > before * 1.5,
            "propagation did not amplify community signal: before {before:.4}, after {after:.4}"
        );
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn rejects_wrong_shape() {
        let g = erdos_renyi(10, 30, 9);
        let x = DenseMatrix::zeros(11, 4);
        spectral_propagation(&g, &x, &PropagationConfig::default());
    }
}
