//! Randomized SVD — Algorithm 3 of the LightNE paper (after Halko,
//! Martinsson & Tropp, *Finding structure with randomness*, 2011).
//!
//! The paper's pseudo-code, with the MKL routine each line used and the
//! kernel from this workspace that replaces it:
//!
//! ```text
//! 1  sample Gaussian O (n×l), P (l×l)      vsRngGaussian   → DenseMatrix::gaussian (O only)
//! 2  Y = Aᵀ O                              mkl_sparse_s_mm → CsrMatrix::spmm (A symmetric)
//! 3  orthonormalize Y                      sgeqrf/sorgqr   → svd::eig_svd(Y).u, one pass
//! 4  B = A Y                               mkl_sparse_s_mm → CsrMatrix::spmm
//! 5  Z = B P                               cblas_sgemm     ┐
//! 6  orthonormalize Z                      sgeqrf/sorgqr   │
//! 7  C = Zᵀ B                              cblas_sgemm     ├ svd::eig_svd(B) = U_B Σ V_Bᵀ
//! 8  SVD  C = U Σ Vᵀ                       sgesvd          │
//! 9  return Z U, Σ, Y V                    cblas_sgemm     ┘ return U_B, Σ, Y·V_B
//! ```
//!
//! where `l = rank + oversampling`. Lines 5–9 take the SVD of `B`
//! through a second sketch: `Z` is an orthonormal basis of
//! `span(B·P)`, and `Z·SVD(ZᵀB)` is then the SVD of `B`. `P` is a
//! square Gaussian matrix, invertible almost surely, so `span(B·P) =
//! span(B)` and the second sketch adds nothing in exact arithmetic:
//! it is an orthonormaliser in disguise. Here `B`, `n × l` and tall,
//! is factorised directly through its Gram matrix ([`eig_svd`]: `BᵀB
//! = V_B Λ V_Bᵀ`, `U_B = B·V_BΛ^{-½}`), and since `A ≈ A·Y·Yᵀ = B·Yᵀ
//! = U_B Σ (Y V_B)ᵀ` the right factor is `Y·V_B`. The factorisation
//! is the same, from one Gram-matrix SVD where the paper's lines take
//! a GEMM, a QR, a Gram product and a small SVD.
//!
//! Line 3 and each power step replace `Y` by `U` of one [`eig_svd`]
//! pass, `Y·VΣ⁻¹`, which spans what `Y` spans apart from directions
//! below [`crate::svd::RANK_TOL`] (the two-pass orthonormaliser drops
//! the same ones). The range finder needs that span and a basis
//! orthonormal to working accuracy, not to `f32` precision: `U`'s
//! columns are orthonormal up to the `f32` rounding of the lift,
//! amplified by `σ_max/σᵢ` in the weakest directions — the ones the
//! sketch resolves worst in any case. The second pass of
//! [`crate::qr::orthonormalize_columns`] removes that loss at the price
//! of a whole Gram-matrix SVD, and buys nothing measurable here: the
//! final [`eig_svd`] computes `B`'s orthonormal left factor afresh, the
//! singular values and subspace angles of `tests/rsvd_envelope.rs` stay
//! inside their envelope, and the loss that reaches `V = Y·V_B` is
//! bounded by the same test. An `n × l` sketch with `q` power steps thus
//! costs `q + 2` Gram-matrix SVDs.
//!
//! Line 2 multiplies by `Aᵀ`; the sparsifier NetSMF and LightNE
//! factorize is symmetric, so there `Aᵀ O` is `A O` and no transpose
//! is built. [`randomized_svd`] decides with
//! [`CsrMatrix::is_symmetric`] at tolerance 0 — an exact test in one
//! sequential pass over the stored entries, O(nnz) with one cursor
//! step per entry, which costs less than one of the stage's SPMMs
//! (the per-entry binary search it replaced cost more than both SPMMs
//! and both orthonormalizations together). Any other matrix gets its
//! transpose built once. We additionally support subspace (power)
//! iterations `q`, which sharpen the spectrum for matrices with a
//! slowly decaying tail at the cost of extra SPMMs; `q = 0` is the
//! paper's single-pass variant.

use crate::dense::DenseMatrix;
use crate::sparse::CsrMatrix;
use crate::svd::eig_svd;

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
/// `2·nnz·l`; `(1 + q) + 1` Gram-matrix SVDs (one per range-finder step,
/// one for `B`), each a one-triangle Gram product at `n·l·(l + 1)`, a
/// GEMM at `2·n·l²` and `~9·l³` for the symmetric eigensolver; and the
/// lift `Y·V_B` at `2·n·l·rank`.
pub fn rsvd_flops(n: usize, nnz: u64, cfg: &RsvdConfig) -> u64 {
    let l = (cfg.rank + cfg.oversampling).min(n).max(1) as u64;
    let rank = (cfg.rank as u64).min(l);
    let (n, q) = (n as u64, cfg.power_iters as u64);
    let spmms = (2 + 2 * q) * 2 * nnz * l;
    let eig_svds = (1 + q) + 1;
    let passes = eig_svds * (n * l * (l + 1) + 2 * n * l * l + 9 * l * l * l);
    let lift = 2 * n * l * rank;
    spmms + passes + lift
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

    // 1–3: ranged sketch Y = Aᵀ O, orthonormalized by one eigSVD pass:
    // the span is what the later lines use (see the module docs). P of
    // line 1 is not drawn.
    let mut y = eig_svd(&spmm_t(&DenseMatrix::gaussian(n, l, cfg.seed))).u;

    // Optional subspace iterations: Y ← orth(Aᵀ (A Y)), one pass each.
    for _ in 0..cfg.power_iters {
        y = eig_svd(&spmm_t(&a.spmm(&y))).u;
    }

    // 4: B = A Y (n × l).
    let b = a.spmm(&y);

    // 5–8: B = U_B Σ V_Bᵀ through its Gram matrix (see the module docs).
    let small = eig_svd(&b);

    // 9: U = U_B, V = Y V_B, truncated to the requested rank.
    let rank = cfg.rank.min(l);
    let mut u = DenseMatrix::zeros(n, rank);
    for i in 0..n {
        u.row_mut(i).copy_from_slice(&small.u.row(i)[..rank]);
    }
    let mut v_b = DenseMatrix::zeros(l, rank);
    for j in 0..l {
        v_b.row_mut(j).copy_from_slice(&small.v.row(j)[..rank]);
    }
    let v = y.matmul(&v_b);
    let sigma = small.sigma[..rank].to_vec();
    Svd { u, sigma, v }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a symmetric matrix with known spectrum Q diag(λ) Qᵀ as CSR.
    fn known_spectrum(n: usize, lambda: &[f32], seed: u64) -> (CsrMatrix, DenseMatrix) {
        let mut q = DenseMatrix::gaussian(n, lambda.len(), seed);
        crate::qr::orthonormalize_columns(&mut q);
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
