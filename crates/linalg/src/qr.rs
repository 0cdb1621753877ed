//! Orthonormalization of tall matrices (replacing `LAPACKE_sgeqrf` +
//! `LAPACKE_sorgqr` in Algorithm 3).
//!
//! Two passes of the Gram-matrix SVD [`crate::svd::eig_svd`] ("eigSVD",
//! as in SketchNE / NetMF+): the first maps `X` to `U₁ = X·V₁Σ₁⁻¹`, whose
//! columns are orthonormal up to the `f32` rounding the normal equations
//! amplify by `κ(X)`; the second maps `U₁`, now conditioned near 1, to
//! `Q = U₁·V₂Σ₂⁻¹`, orthonormal to ~1e-6. Each pass is a Gram product,
//! a small symmetric eigenproblem and a GEMM, so the O(n·d²) work runs
//! as blocked products instead of column sweeps. `Q` spans the same
//! space as `X`, in another basis than a QR factor's.
//!
//! The randomized SVD no longer calls this: its range finder needs only
//! the span, which one pass keeps, so it takes one [`eig_svd`] pass per
//! step (see [`crate::rsvd`]). The two-pass contract — `|QᵀQ − I| ≤
//! 1e-5` even on graded input — stays for the callers that hold it to
//! that: the kernel tests, `bench_linalg_json`'s `orth_*` rows and the
//! benchmark's `linalg.qr` layer.
//!
//! Determinism: see [`crate::svd`] — bitwise at every thread count.

use crate::dense::DenseMatrix;
use crate::svd::eig_svd;

/// Orthonormalizes the columns of `x` (n×d) in place.
///
/// Returns the number of numerically independent columns found (the
/// directions above [`crate::svd::RANK_TOL`]); the orthonormal columns
/// come first and the dependent ones are replaced by zero columns at the
/// end (rank-revealing behaviour — the randomized SVD then simply sees
/// zero singular values for them).
pub fn orthonormalize_columns(x: &mut DenseMatrix) -> usize {
    let first = eig_svd(x).u;
    let second = eig_svd(&first);
    *x = second.u;
    second.sigma.iter().filter(|&&s| s > 0.0).count()
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
                assert!((got - want).abs() < 1e-5, "gram[{i},{j}] = {got}, want {want}");
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
    fn orthonormalizes_widths_around_the_gemm_tiles() {
        for d in [15, 16, 17, 35] {
            let mut x = DenseMatrix::gaussian(600, d, 5 + d as u64);
            let rank = orthonormalize_columns(&mut x);
            assert_eq!(rank, d, "d = {d}");
            check_orthonormal(&x, d);
        }
    }

    #[test]
    fn detects_rank_deficiency() {
        // Third column = first + second: rank 2, the zero column last.
        let mut x = DenseMatrix::zeros(100, 3);
        let g = DenseMatrix::gaussian(100, 2, 3);
        for i in 0..100 {
            x.set(i, 0, g.get(i, 0));
            x.set(i, 1, g.get(i, 1));
            x.set(i, 2, g.get(i, 0) + g.get(i, 1));
        }
        let rank = orthonormalize_columns(&mut x);
        assert_eq!(rank, 2);
        check_orthonormal(&x, 2);
        for i in 0..100 {
            assert_eq!(x.get(i, 2), 0.0);
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
        assert_eq!(x.get(0, 0).abs(), 1.0);
    }

    #[test]
    fn zero_matrix_rank_zero() {
        let mut x = DenseMatrix::zeros(10, 3);
        assert_eq!(orthonormalize_columns(&mut x), 0);
        assert!(x.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn degenerate_shapes() {
        let mut x = DenseMatrix::zeros(0, 3);
        assert_eq!(orthonormalize_columns(&mut x), 0);
        assert_eq!((x.rows(), x.cols()), (0, 3));
        let mut x = DenseMatrix::zeros(5, 0);
        assert_eq!(orthonormalize_columns(&mut x), 0);
        assert_eq!((x.rows(), x.cols()), (5, 0));
    }
}
