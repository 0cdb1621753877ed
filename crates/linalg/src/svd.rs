//! Thin SVD of a tall matrix through its Gram matrix ("eigSVD"),
//! replacing `LAPACKE_sgesvd` in Algorithm 3 and the QR's role in
//! `sgeqrf`/`sorgqr`.
//!
//! [`eig_svd`] factorises an `n × k` matrix `X` (`n ≥ k`, `k` at most a
//! few hundred) as the fast randomized SVD of SketchNE / NetMF+ and
//! LightNE 2.0 does:
//!
//! 1. `G = XᵀX` (`k × k`) by the register-tiled `f64` Gram product
//!    [`crate::kernels::gram_tn`] — one pass over `X`, GEMM-shaped;
//! 2. `G = V Λ Vᵀ` by the small symmetric eigensolver
//!    [`crate::eig::sym_eig`], `σᵢ = √λᵢ`;
//! 3. `U = X · (V Σ⁻¹)` by the packed GEMM — a second pass over `X`.
//!
//! The O(n·k²) work is two GEMM-shaped passes; what is left is an O(k³)
//! eigenproblem on one thread. Squaring the matrix squares its condition
//! number, so directions whose `λ` falls below [`RANK_TOL`] of the
//! largest carry no digits of `X` and are returned as zero columns of
//! `U` with `σ = 0`, after the others. The rank-revealing
//! orthonormaliser [`crate::qr::orthonormalize_columns`] is two passes
//! of this; the randomized SVD's last step and the thin SVD that ends
//! propagation ([`tall_thin_svd`]) are one.
//!
//! Determinism: the Gram product and the eigensolver are bitwise
//! identical on every SIMD tier and at every thread count; the GEMM of
//! step 3 is identical at every thread count within one tier (its `f32`
//! FMA micro-kernels differ from the scalar tier within summation
//! tolerance, see [`crate::simd`]).

use crate::dense::DenseMatrix;
use crate::eig::sym_eig;
use crate::kernels;

/// Full SVD result of a small matrix: `A = U · diag(sigma) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct SmallSvd {
    /// Left singular vectors, `m × n` (thin).
    pub u: DenseMatrix,
    /// Singular values, descending.
    pub sigma: Vec<f32>,
    /// Right singular vectors, `n × n`.
    pub v: DenseMatrix,
}

/// Relative eigenvalue threshold of [`eig_svd`]: a direction with
/// `λ ≤ λ_max · RANK_TOL` is numerically dependent. `1e-10` on `λ = σ²`
/// is `σ ≤ 1e-5 · σ_max`, the five `f32` digits the Gram–Schmidt QR's
/// relative rank test demanded of a column. The `f64` Gram matrix of
/// `f32` data resolves eigenvalues to ~1e-16 of `λ_max`, so the cut sits
/// well above its noise; and lifting a kept direction divides by
/// `σ ≥ 1e-5 · σ_max`, which amplifies the `f32` GEMM's rounding at most
/// ~1e5-fold — the second pass of the orthonormaliser removes that.
pub const RANK_TOL: f64 = 1e-10;

/// Thin SVD of a tall matrix `x` (`n × k`) through its Gram matrix: `u`
/// is `n × k`, `sigma` has `k` entries, descending, and `v` is `k × k`.
/// Directions below [`RANK_TOL`] (all of them for a zero matrix) get
/// `σ = 0` and a zero column of `u`, placed last; `v` keeps their unit
/// eigenvectors, so it is always orthogonal.
///
/// Accuracy is that of the normal equations: a singular vector with
/// `σᵢ` carries an error of ~`ε_f32 · √k · σ_max / σᵢ`, which is ample
/// for the spans the randomized SVD and propagation need.
pub fn eig_svd(x: &DenseMatrix) -> SmallSvd {
    let k = x.cols();
    let gram = kernels::gram_tn(x.as_slice(), k, x.as_slice(), k);
    let eig = sym_eig(&gram, k);
    let floor = eig.values.first().map_or(0.0, |&top| top * RANK_TOL);
    let mut sigma = vec![0.0f32; k];
    let mut v = DenseMatrix::zeros(k, k);
    let mut lift = DenseMatrix::zeros(k, k); // V Σ⁻¹
    for (i, (vec, &lambda)) in eig.vectors.chunks_exact(k.max(1)).zip(&eig.values).enumerate() {
        // NaN compares false: a NaN direction is dropped too.
        let s = if lambda > floor { lambda.sqrt() } else { 0.0 };
        sigma[i] = s as f32;
        let inv = if s > 0.0 { 1.0 / s } else { 0.0 };
        for (j, &c) in vec.iter().enumerate() {
            v.set(j, i, c as f32);
            lift.set(j, i, (c * inv) as f32);
        }
    }
    SmallSvd { u: x.matmul(&lift), sigma, v }
}

/// Thin SVD of a tall matrix (`n × d`, `n ≫ d`): [`eig_svd`]. This is
/// how ProNE re-orthogonalizes the propagated embedding.
pub fn tall_thin_svd(y: &DenseMatrix) -> SmallSvd {
    eig_svd(y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(svd: &SmallSvd) -> DenseMatrix {
        let mut us = svd.u.clone();
        us.scale_columns(&svd.sigma);
        us.matmul(&svd.v.transpose())
    }

    fn assert_orthonormal(q: &DenseMatrix, tol: f32) {
        let g = q.gram_tn(q);
        for i in 0..q.cols() {
            for j in 0..q.cols() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (g.get(i, j) - want).abs() < tol,
                    "gram[{i},{j}]={} want {want}",
                    g.get(i, j)
                );
            }
        }
    }

    #[test]
    fn tall_thin_svd_reconstructs() {
        let y = DenseMatrix::gaussian(800, 6, 21);
        let svd = tall_thin_svd(&y);
        assert!(reconstruct(&svd).max_abs_diff(&y) < 2e-3);
        assert_orthonormal(&svd.u, 2e-3);
        assert_orthonormal(&svd.v, 1e-5);
        assert!(svd.sigma.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn eig_svd_matches_reference_jacobi() {
        let y = DenseMatrix::gaussian(40, 5, 22);
        let a = eig_svd(&y);
        let b = crate::reference::jacobi_svd(&y);
        for (x, z) in a.sigma.iter().zip(&b.sigma) {
            assert!((x - z).abs() < 1e-5 * z.max(1.0), "{x} vs {z}");
        }
    }

    #[test]
    fn diagonal_and_one_column() {
        let a = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, 7.0], &[0.0, 0.0]]);
        let svd = eig_svd(&a);
        assert!((svd.sigma[0] - 7.0).abs() < 1e-6 && (svd.sigma[1] - 3.0).abs() < 1e-6);
        assert!(reconstruct(&svd).max_abs_diff(&a) < 1e-6);
        let c = DenseMatrix::from_vec(3, 1, vec![0.0, -2.0, 0.0]);
        let svd = eig_svd(&c);
        assert!((svd.sigma[0] - 2.0).abs() < 1e-6);
        assert!(reconstruct(&svd).max_abs_diff(&c) < 1e-7);
    }

    #[test]
    fn tall_thin_svd_of_zero_width() {
        let svd = tall_thin_svd(&DenseMatrix::zeros(6, 0));
        assert_eq!((svd.u.rows(), svd.u.cols()), (6, 0));
        assert_eq!((svd.v.rows(), svd.v.cols()), (0, 0));
        assert!(svd.sigma.is_empty());
    }

    #[test]
    fn zero_matrix_gives_zero_columns() {
        let svd = eig_svd(&DenseMatrix::zeros(5, 3));
        assert_eq!(svd.sigma, vec![0.0; 3]);
        assert!(svd.u.as_slice().iter().all(|&x| x == 0.0));
        assert_orthonormal(&svd.v, 1e-6);
    }

    #[test]
    fn rank_deficient_directions_come_last_as_zero_columns() {
        // Column 0 twice, then an independent column: one exact
        // dependence, so the last singular value is 0 and its U column
        // is zero.
        let g = DenseMatrix::gaussian(100, 2, 23);
        let mut y = DenseMatrix::zeros(100, 3);
        for i in 0..100 {
            y.set(i, 0, g.get(i, 0));
            y.set(i, 1, g.get(i, 1));
            y.set(i, 2, g.get(i, 0));
        }
        let svd = tall_thin_svd(&y);
        assert!(svd.sigma[1] > 0.0 && svd.sigma[2] == 0.0, "{:?}", svd.sigma);
        assert!((0..100).all(|i| svd.u.get(i, 2) == 0.0));
        assert!(reconstruct(&svd).max_abs_diff(&y) < 2e-3);
    }
}
