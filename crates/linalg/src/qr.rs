//! Orthonormalization of tall matrices (replacing `LAPACKE_sgeqrf` +
//! `LAPACKE_sorgqr` in Algorithm 3).
//!
//! The algorithm is block classical Gram–Schmidt with reorthogonalization
//! (BCGS2, "twice is enough", Giraud et al.): columns are processed in
//! panels of [`QR_PANEL`]; each panel is first projected against *all*
//! finished columns with two blocked products (one `proj_coef` NT
//! product for the coefficients, one `sub_proj` low-rank update —
//! replacing the `d` sequential `par_dot`/`par_axpy` sweeps of the first
//! port), then orthonormalized internally by two-pass MGS. For
//! single-precision inputs this yields `Qᵀ Q = I` to ~1e-6 even for
//! ill-conditioned inputs, which is all the randomized SVD needs.
//!
//! To keep products over the tall dimension contiguous, the matrix is
//! transposed once up front (columns become rows, via the cache-blocked
//! transpose), everything runs over contiguous length-`n` vectors, and
//! the result is transposed back.
//!
//! Determinism: the blocked products accumulate in fixed-size blocks and
//! fixed q-group order (see [`crate::kernels`]), and the in-panel sweeps
//! use the fixed [`DOT_BLOCK`] bracketing — so the output bytes are
//! independent of the rayon pool size.

use crate::dense::{axpy_slice, map_slice, DenseMatrix};
use crate::kernels;
use rayon::prelude::*;

/// Panel width of the blocked Gram–Schmidt. Fixed (not thread-derived).
/// The in-panel column-at-a-time sweep costs `O(QR_PANEL · n)` per
/// column while the panel×finished projection runs as blocked products,
/// so a narrower panel shifts work into the fast path; 16 measured best
/// for the d ∈ [128, 256] sketches the randomized SVD produces.
pub const QR_PANEL: usize = 16;

/// Threshold below which vector ops stay sequential.
const PAR_THRESHOLD: usize = 1 << 14;

/// Fixed block length for the parallel dot product. Independent of the
/// thread count so the summation bracketing — and hence the rounded
/// result — is bitwise identical at any pool size.
const DOT_BLOCK: usize = 1 << 13;

fn par_dot(a: &[f32], b: &[f32]) -> f64 {
    if a.len() < PAR_THRESHOLD {
        crate::dense::dot(a, b)
    } else {
        let partials: Vec<f64> = a
            .par_chunks(DOT_BLOCK)
            .zip(b.par_chunks(DOT_BLOCK))
            .map(|(x, y)| crate::dense::dot(x, y))
            .collect();
        partials.iter().sum()
    }
}

fn par_axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    if y.len() < PAR_THRESHOLD {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    } else {
        axpy_slice(y, alpha, x);
    }
}

fn par_scale(y: &mut [f32], alpha: f32) {
    if y.len() < PAR_THRESHOLD {
        for yi in y.iter_mut() {
            *yi *= alpha;
        }
    } else {
        map_slice(y, |yi| yi * alpha);
    }
}

/// Orthonormalizes the columns of `x` (n×d) in place.
///
/// Returns the number of numerically independent columns found; dependent
/// columns are replaced by zero vectors (rank-revealing behaviour — the
/// randomized SVD then simply reports zero singular values for them).
pub fn orthonormalize_columns(x: &mut DenseMatrix) -> usize {
    let d = x.cols();
    let n = x.rows();
    if d == 0 || n == 0 {
        return 0;
    }
    let mut xt = x.transpose(); // d × n, rows are the columns of x
    let buf = xt.as_mut_slice();
    let mut rank = 0usize;

    for p0 in (0..d).step_by(QR_PANEL) {
        let pw = QR_PANEL.min(d - p0);
        // Norms before any projection: the reference point of the
        // relative rank test (a column whose residual collapses by more
        // than ~5 f32 digits is numerically dependent).
        let orig: Vec<f64> = (0..pw)
            .map(|c| {
                let row = &buf[(p0 + c) * n..(p0 + c + 1) * n];
                par_dot(row, row).sqrt()
            })
            .collect();

        // Two BCGS passes of the whole panel against all finished
        // columns: coef = Q_done · Panelᵀ, Panel -= coefᵀ · Q_done.
        // Zeroed (dependent) finished columns contribute zero
        // coefficients, so they are harmless here, exactly as in the
        // column-at-a-time version.
        if p0 > 0 {
            for _pass in 0..2 {
                let (done, rest) = buf.split_at_mut(p0 * n);
                let panel = &mut rest[..pw * n];
                let coef = kernels::proj_coef(done, panel, p0, pw, n);
                kernels::sub_proj(panel, done, &coef, pw, p0, n);
            }
        }

        // In-panel two-pass MGS over the (at most QR_PANEL) columns.
        for (c, &onorm) in orig.iter().enumerate() {
            let j = p0 + c;
            for _pass in 0..2 {
                let (done, rest) = buf.split_at_mut(j * n);
                let cur = &mut rest[..n];
                for q in p0..j {
                    let qrow = &done[q * n..(q + 1) * n];
                    let r = par_dot(qrow, cur) as f32;
                    if r != 0.0 {
                        par_axpy(cur, -r, qrow);
                    }
                }
            }
            let cur = &mut buf[j * n..(j + 1) * n];
            let norm = par_dot(cur, cur).sqrt();
            if norm > onorm * 1e-5 && norm > 1e-12 {
                par_scale(cur, (1.0 / norm) as f32);
                rank += 1;
            } else {
                cur.fill(0.0);
            }
        }
    }
    *x = xt.transpose();
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_orthonormal(q: &DenseMatrix, expected_rank: usize) {
        let gram = q.gram_tn(q);
        for i in 0..q.cols() {
            for j in 0..q.cols() {
                let want = if i == j && i < expected_rank { 1.0 } else { 0.0 };
                let got = gram.get(i, j);
                // Zeroed dependent columns give 0 on their diagonal.
                let tol = 5e-5;
                if i == j && got.abs() < tol && want == 1.0 {
                    panic!("column {i} unexpectedly zero");
                }
                assert!(
                    (got - want).abs() < tol || (i == j && got.abs() < tol),
                    "gram[{i},{j}] = {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn orthonormalizes_random_tall_matrix() {
        let mut x = DenseMatrix::gaussian(1000, 16, 42);
        let rank = orthonormalize_columns(&mut x);
        assert_eq!(rank, 16);
        check_orthonormal(&x, 16);
    }

    #[test]
    fn orthonormalizes_large_parallel_path() {
        let mut x = DenseMatrix::gaussian(40_000, 8, 7);
        let rank = orthonormalize_columns(&mut x);
        assert_eq!(rank, 8);
        check_orthonormal(&x, 8);
    }

    #[test]
    fn orthonormalizes_across_panel_boundaries() {
        // More columns than one panel: the blocked projection path runs.
        for d in [QR_PANEL - 1, QR_PANEL, QR_PANEL + 1, 2 * QR_PANEL + 3] {
            let mut x = DenseMatrix::gaussian(600, d, 5 + d as u64);
            let rank = orthonormalize_columns(&mut x);
            assert_eq!(rank, d, "d = {d}");
            check_orthonormal(&x, d);
        }
    }

    #[test]
    fn detects_rank_deficiency() {
        // Third column = first + second.
        let mut x = DenseMatrix::zeros(100, 3);
        let g = DenseMatrix::gaussian(100, 2, 3);
        for i in 0..100 {
            x.set(i, 0, g.get(i, 0));
            x.set(i, 1, g.get(i, 1));
            x.set(i, 2, g.get(i, 0) + g.get(i, 1));
        }
        let rank = orthonormalize_columns(&mut x);
        assert_eq!(rank, 2);
        // The dependent column must be zero.
        for i in 0..100 {
            assert_eq!(x.get(i, 2), 0.0);
        }
    }

    #[test]
    fn detects_rank_deficiency_across_panels() {
        // Column QR_PANEL + 2 duplicates column 1: the dependency spans
        // the panel boundary, so it is caught by the blocked projection,
        // not the in-panel sweep.
        let d = QR_PANEL + 4;
        let g = DenseMatrix::gaussian(500, d, 9);
        let mut x = g.clone();
        for i in 0..500 {
            x.set(i, QR_PANEL + 2, g.get(i, 1));
        }
        let rank = orthonormalize_columns(&mut x);
        assert_eq!(rank, d - 1);
        for i in 0..500 {
            assert_eq!(x.get(i, QR_PANEL + 2), 0.0);
        }
    }

    #[test]
    fn preserves_span() {
        // Q must span the same space: projecting the original columns onto Q
        // reconstructs them.
        let orig = DenseMatrix::gaussian(300, 5, 11);
        let mut q = orig.clone();
        orthonormalize_columns(&mut q);
        // X ≈ Q (Qᵀ X)
        let coeff = q.gram_tn(&orig); // 5×5
        let recon = q.matmul(&coeff);
        assert!(
            recon.max_abs_diff(&orig) < 1e-3,
            "span not preserved: {}",
            recon.max_abs_diff(&orig)
        );
    }

    #[test]
    fn single_column_normalizes() {
        let mut x = DenseMatrix::from_vec(4, 1, vec![2.0, 0.0, 0.0, 0.0]);
        assert_eq!(orthonormalize_columns(&mut x), 1);
        assert_eq!(x.get(0, 0), 1.0);
    }

    #[test]
    fn zero_matrix_rank_zero() {
        let mut x = DenseMatrix::zeros(10, 3);
        assert_eq!(orthonormalize_columns(&mut x), 0);
    }

    #[test]
    fn degenerate_shapes() {
        let mut x = DenseMatrix::zeros(0, 3);
        assert_eq!(orthonormalize_columns(&mut x), 0);
        let mut x = DenseMatrix::zeros(5, 0);
        assert_eq!(orthonormalize_columns(&mut x), 0);
    }
}
