//! Randomized SVD — Algorithm 3 of the LightNE paper (after Halko,
//! Martinsson & Tropp, *Finding structure with randomness*, 2011).
//!
//! The paper's pseudo-code, with the MKL routine each line used and the
//! kernel from this workspace that replaces it:
//!
//! ```text
//! 1  sample Gaussian O (n×l), P (l×l)      vsRngGaussian   → DenseMatrix::gaussian
//! 2  Y = Aᵀ O                              mkl_sparse_s_mm → CsrMatrix::spmm (A symmetric)
//! 3  orthonormalize Y                      sgeqrf/sorgqr   → qr::orthonormalize_columns
//! 4  B = A Y                               mkl_sparse_s_mm → CsrMatrix::spmm
//! 5  Z = B P                               cblas_sgemm     → DenseMatrix::matmul
//! 6  orthonormalize Z                      sgeqrf/sorgqr   → qr::orthonormalize_columns
//! 7  C = Zᵀ B                              cblas_sgemm     → DenseMatrix::gram_tn
//! 8  SVD  C = U Σ Vᵀ                       sgesvd          → svd::jacobi_svd
//! 9  return Z U, Σ, Y V                    cblas_sgemm     → DenseMatrix::matmul
//! ```
//!
//! where `l = rank + oversampling`. Line 2 multiplies by `Aᵀ`; the
//! sparsifier NetSMF and LightNE factorize is symmetric, so there `Aᵀ O`
//! is `A O` and no transpose is built. [`randomized_svd`] decides with
//! [`CsrMatrix::is_symmetric`] at tolerance 0 — an exact test in one
//! sequential pass over the stored entries, O(nnz) with one cursor step
//! per entry, which costs less than one of the stage's SPMMs (the
//! per-entry binary search it replaced cost more than both SPMMs and
//! both orthonormalizations together). Any other matrix gets its
//! transpose built once. We additionally support subspace
//! (power) iterations `q`, which sharpen the spectrum for matrices with a
//! slowly decaying tail at the cost of extra SPMMs; `q = 0` reproduces the
//! paper exactly.

use crate::dense::DenseMatrix;
use crate::qr::orthonormalize_columns;
use crate::sparse::CsrMatrix;
use crate::svd::jacobi_svd;

/// Configuration for [`randomized_svd`].
#[derive(Debug, Clone, Copy)]
pub struct RsvdConfig {
    /// Target rank `d` (the embedding dimension).
    pub rank: usize,
    /// Extra Gaussian directions beyond `rank`; 8–16 is typical.
    pub oversampling: usize,
    /// Subspace-iteration count (0 = the paper's single-pass variant).
    pub power_iters: usize,
    /// RNG seed for the Gaussian test matrices.
    pub seed: u64,
}

impl Default for RsvdConfig {
    fn default() -> Self {
        Self { rank: 128, oversampling: 16, power_iters: 1, seed: 0x051D_5EED }
    }
}

/// A truncated SVD `A ≈ U · diag(sigma) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (`n × rank`).
    pub u: DenseMatrix,
    /// Singular values, descending (`rank`).
    pub sigma: Vec<f32>,
    /// Right singular vectors (`n × rank`).
    pub v: DenseMatrix,
}

impl Svd {
    /// The embedding the paper derives from the factorization:
    /// `X = U · Σ^{1/2}` (`n × rank`).
    pub fn embedding(&self) -> DenseMatrix {
        let mut x = self.u.clone();
        let scale: Vec<f32> = self.sigma.iter().map(|&s| s.max(0.0).sqrt()).collect();
        x.scale_columns(&scale);
        x
    }
}

/// Nominal floating-point operation count of [`randomized_svd`] on an
/// `n × n` sparse matrix with `nnz` stored entries, used by the engine's
/// per-stage GFLOP/s accounting. Counts the dominant terms with the
/// conventional 2-flops-per-multiply-add convention: `(2 + 2q)` SPMMs at
/// `2·nnz·l`, `(2 + q)` orthonormalizations at `~4·n·l²` (two blocked
/// projection/normalization passes), the dense products of steps 5, 7
/// and 9 at `8·n·l²` total, and `~12·l³` for the small Jacobi SVD.
pub fn rsvd_flops(n: usize, nnz: u64, cfg: &RsvdConfig) -> u64 {
    let l = (cfg.rank + cfg.oversampling).min(n).max(1) as u64;
    let (n, q) = (n as u64, cfg.power_iters as u64);
    let spmms = (2 + 2 * q) * 2 * nnz * l;
    let orths = (2 + q) * 4 * n * l * l;
    let gemms = 8 * n * l * l;
    let small = 12 * l * l * l;
    spmms + orths + gemms + small
}

/// Computes a rank-`cfg.rank` randomized SVD of the sparse matrix `a`
/// (`n × n`; LightNE's sparsifier is symmetric but symmetry is not
/// required — line 2 uses `Aᵀ`).
///
/// ```
/// use lightne_linalg::{randomized_svd, CsrMatrix, RsvdConfig};
/// // 4x4 diagonal matrix: singular values are the diagonal.
/// let a = CsrMatrix::from_coo(4, 4, vec![(0,0,5.0), (1,1,3.0), (2,2,2.0), (3,3,1.0)]);
/// let svd = randomized_svd(&a, &RsvdConfig { rank: 2, oversampling: 2, power_iters: 2, seed: 7 });
/// assert!((svd.sigma[0] - 5.0).abs() < 1e-3);
/// assert!((svd.sigma[1] - 3.0).abs() < 1e-3);
/// assert_eq!(svd.embedding().rows(), 4);
/// ```
pub fn randomized_svd(a: &CsrMatrix, cfg: &RsvdConfig) -> Svd {
    let n = a.n_rows();
    assert_eq!(a.n_cols(), n, "randomized_svd expects a square matrix");
    let l = (cfg.rank + cfg.oversampling).min(n).max(1);
    let at = if a.is_symmetric(0.0) { None } else { Some(a.transpose()) };
    let spmm_t = |x: &DenseMatrix| match &at {
        Some(t) => t.spmm(x),
        None => a.spmm(x),
    };

    // 1–3: ranged sketch Y = Aᵀ O, orthonormalized.
    let o = DenseMatrix::gaussian(n, l, cfg.seed);
    let mut y = spmm_t(&o);
    orthonormalize_columns(&mut y);

    // Optional subspace iterations: Y ← orth(Aᵀ (A Y)).
    for _ in 0..cfg.power_iters {
        let ay = a.spmm(&y);
        y = spmm_t(&ay);
        orthonormalize_columns(&mut y);
    }

    // 4: B = A Y (n × l).
    let b = a.spmm(&y);

    // 5–6: Z = orth(B P) — a second sketch on the left.
    let p = DenseMatrix::gaussian(l, l, cfg.seed.wrapping_add(1));
    let mut z = b.matmul(&p);
    orthonormalize_columns(&mut z);

    // 7: C = Zᵀ B (l × l).
    let c = z.gram_tn(&b);

    // 8: small SVD.
    let small = jacobi_svd(&c);

    // 9: lift and truncate to the requested rank.
    let rank = cfg.rank.min(l);
    let u_full = z.matmul(&small.u);
    let v_full = y.matmul(&small.v);
    let mut u = DenseMatrix::zeros(n, rank);
    let mut v = DenseMatrix::zeros(n, rank);
    for i in 0..n {
        u.row_mut(i).copy_from_slice(&u_full.row(i)[..rank]);
        v.row_mut(i).copy_from_slice(&v_full.row(i)[..rank]);
    }
    let sigma = small.sigma[..rank].to_vec();
    Svd { u, sigma, v }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a symmetric matrix with known spectrum Q diag(λ) Qᵀ as CSR.
    fn known_spectrum(n: usize, lambda: &[f32], seed: u64) -> (CsrMatrix, DenseMatrix) {
        let mut q = DenseMatrix::gaussian(n, lambda.len(), seed);
        orthonormalize_columns(&mut q);
        let mut ql = q.clone();
        ql.scale_columns(lambda);
        let dense = ql.matmul(&q.transpose());
        let mut coo = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let v = dense.get(i, j);
                if v != 0.0 {
                    coo.push((i as u32, j as u32, v));
                }
            }
        }
        (CsrMatrix::from_coo(n, n, coo), q)
    }

    #[test]
    fn recovers_known_singular_values() {
        let lambda = [10.0f32, 8.0, 6.0, 4.0, 2.0];
        let (a, _) = known_spectrum(80, &lambda, 3);
        let cfg = RsvdConfig { rank: 5, oversampling: 10, power_iters: 2, seed: 1 };
        let svd = randomized_svd(&a, &cfg);
        for (got, want) in svd.sigma.iter().zip(lambda.iter()) {
            assert!((got - want).abs() < 0.05, "sigma {got} want {want}");
        }
    }

    #[test]
    fn low_rank_reconstruction() {
        let lambda = [5.0f32, 3.0, 1.0];
        let (a, _) = known_spectrum(60, &lambda, 7);
        let cfg = RsvdConfig { rank: 3, oversampling: 12, power_iters: 2, seed: 2 };
        let svd = randomized_svd(&a, &cfg);
        // Reconstruct and compare to the dense original.
        let mut us = svd.u.clone();
        us.scale_columns(&svd.sigma);
        let recon = us.matmul(&svd.v.transpose());
        let orig = a.to_dense();
        let err = recon.max_abs_diff(&orig);
        assert!(err < 0.05, "reconstruction error {err}");
    }

    #[test]
    fn single_pass_paper_variant_reasonable() {
        // power_iters = 0 reproduces Algorithm 3 exactly; accuracy is lower
        // but the leading singular value must still be close.
        let lambda = [10.0f32, 1.0, 0.5];
        let (a, _) = known_spectrum(100, &lambda, 11);
        let cfg = RsvdConfig { rank: 3, oversampling: 20, power_iters: 0, seed: 3 };
        let svd = randomized_svd(&a, &cfg);
        assert!((svd.sigma[0] - 10.0).abs() < 0.5, "sigma0 {}", svd.sigma[0]);
    }

    #[test]
    fn embedding_shape_and_scaling() {
        let lambda = [4.0f32, 1.0];
        let (a, _) = known_spectrum(30, &lambda, 5);
        let svd =
            randomized_svd(&a, &RsvdConfig { rank: 2, oversampling: 8, power_iters: 2, seed: 4 });
        let x = svd.embedding();
        assert_eq!(x.rows(), 30);
        assert_eq!(x.cols(), 2);
        // Column norms of U·Σ^½ are √σ.
        let mut norm0 = 0.0f64;
        for i in 0..30 {
            norm0 += (x.get(i, 0) as f64).powi(2);
        }
        assert!((norm0.sqrt() - (lambda[0] as f64).sqrt()).abs() < 0.1, "norm {}", norm0.sqrt());
    }

    #[test]
    fn asymmetric_matrix_supported() {
        // Rank-1 asymmetric: a = s * u v^T.
        let n = 40;
        let mut coo = Vec::new();
        for i in 0..n {
            coo.push((i as u32, ((i + 1) % n) as u32, 2.0));
        }
        let a = CsrMatrix::from_coo(n, n, coo);
        let svd =
            randomized_svd(&a, &RsvdConfig { rank: 4, oversampling: 8, power_iters: 2, seed: 6 });
        // A cyclic permutation scaled by 2 has all singular values = 2.
        for s in &svd.sigma {
            assert!((s - 2.0).abs() < 0.05, "sigma {s}");
        }
    }

    #[test]
    fn rank_larger_than_n_clamped() {
        let (a, _) = known_spectrum(6, &[3.0, 1.0], 8);
        let svd =
            randomized_svd(&a, &RsvdConfig { rank: 50, oversampling: 10, power_iters: 1, seed: 7 });
        assert_eq!(svd.u.cols(), 6);
        assert_eq!(svd.sigma.len(), 6);
    }
}
