//! One-sided Jacobi SVD for small dense matrices (replacing
//! `LAPACKE_sgesvd` in Algorithm 3).
//!
//! The randomized SVD only ever takes the SVD of the tiny projected matrix
//! `C = Zᵀ B` (`d × d`, with `d` ≤ a few hundred), so an O(d³)-per-sweep
//! Jacobi iteration is plenty fast and — unlike faster bidiagonalization
//! methods — is simple to make robustly convergent. We run in `f64`
//! internally and convert at the boundary.
//!
//! One-sided Jacobi orthogonalizes the *columns* of `A` by plane rotations
//! `A ← A·J`; at convergence `A = U·Σ` column-wise and the accumulated
//! rotations give `V`, i.e. `A_original = U Σ Vᵀ`.
//!
//! This is the blocked rewrite of the first port: columns live in one
//! flat column-major `f64` buffer (one allocation, no per-column `Vec`
//! churn), rotations go through the fused [`kernels::gram2`] /
//! [`kernels::rot2`] kernels, and each sweep is ordered by a fixed
//! round-robin (Brent–Luk) tournament — every round pairs all columns
//! into disjoint couples. The schedule depends only on `n`, and every
//! round runs its rotations in one thread in the schedule's order, so
//! sweep order — and therefore the output bytes — are identical at any
//! rayon pool size. At the sizes this workspace runs (`rank +
//! oversampling` ≤ 144 columns, `tall_thin_svd` at the dimension) a
//! round is `n / 2` rotations of ~0.15 µs, too little to pay for a
//! parallel region each round.

use crate::dense::DenseMatrix;
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

/// Off-diagonal threshold below which a pair is skipped (relative to the
/// geometric mean of the two column norms).
const PAIR_EPS: f64 = 1e-14;
/// A sweep whose largest relative off-diagonal stays below this has
/// converged.
const SWEEP_TOL: f64 = 1e-12;
const MAX_SWEEPS: usize = 60;

/// The disjoint column pairs of round `round` (0-based, `< slots − 1`)
/// of the round-robin tournament over `n` columns. `slots` is `n`
/// rounded up to even; pairs touching the dummy slot are dropped, so odd
/// `n` simply sits one column out per round. Over the `slots − 1` rounds
/// of a sweep every unordered pair meets exactly once (the circle
/// method), independent of data and thread count.
fn round_robin_pairs(n: usize, round: usize) -> Vec<(usize, usize)> {
    let slots = n + (n & 1);
    if slots < 2 {
        return Vec::new();
    }
    let rot = slots - 1; // players 0..slots-2 rotate; player slots-1 is fixed
    let player = |pos: usize| (pos + round) % rot;
    let mut pairs = Vec::with_capacity(slots / 2);
    let (a, b) = (player(0), slots - 1);
    if a < n && b < n {
        pairs.push((a, b));
    }
    for k in 1..slots / 2 {
        let (a, b) = (player(k), player(rot - k));
        if a < n && b < n {
            pairs.push((a, b));
        }
    }
    pairs
}

/// Splits two length-`len` columns `p` and `q` out of a flat
/// column-major buffer, returned in `(p, q)` order.
fn pair_slices(buf: &mut [f64], len: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let (lo, hi) = (p.min(q), p.max(q));
    let (head, tail) = buf.split_at_mut(hi * len);
    let a = &mut head[lo * len..(lo + 1) * len];
    let b = &mut tail[..len];
    if p < q {
        (a, b)
    } else {
        (b, a)
    }
}

/// Computes the Jacobi rotation for one column pair and applies it to
/// the data columns and the accumulated right-vector columns. Returns
/// the pre-rotation relative off-diagonal (0 when the pair was skipped).
fn rotate_pair(cp: &mut [f64], cq: &mut [f64], vp: &mut [f64], vq: &mut [f64]) -> f64 {
    let (alpha, beta, gamma) = kernels::gram2(cp, cq);
    let denom = (alpha * beta).sqrt();
    if denom <= 0.0 || gamma.abs() <= PAIR_EPS * denom {
        return 0.0;
    }
    // Rotation angle zeroing the (p,q) off-diagonal of AᵀA.
    let zeta = (beta - alpha) / (2.0 * gamma);
    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = c * t;
    kernels::rot2(cp, cq, c, s);
    kernels::rot2(vp, vq, c, s);
    gamma.abs() / denom
}

/// Computes the thin SVD of `a` (`m × n`, requires `m ≥ n`).
///
/// # Panics
/// Panics if `m < n` (transpose first; the caller in this workspace always
/// has a square matrix).
pub fn jacobi_svd(a: &DenseMatrix) -> SmallSvd {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "jacobi_svd requires rows >= cols");
    if n == 0 {
        return SmallSvd {
            u: DenseMatrix::zeros(m, 0),
            sigma: Vec::new(),
            v: DenseMatrix::zeros(0, 0),
        };
    }

    // Flat column-major f64 working copies: `cols[j·m + i] = a[i][j]`,
    // `v[j·n + i] = V[i][j]` (started at the identity).
    let mut cols = vec![0.0f64; n * m];
    for (j, col) in cols.chunks_exact_mut(m).enumerate() {
        for (i, x) in col.iter_mut().enumerate() {
            *x = a.get(i, j) as f64;
        }
    }
    let mut v = vec![0.0f64; n * n];
    for j in 0..n {
        v[j * n + j] = 1.0;
    }

    // The tournament schedule depends only on `n`: build it once.
    let slots = n + (n & 1);
    let schedule: Vec<Vec<(usize, usize)>> =
        (0..slots.saturating_sub(1)).map(|r| round_robin_pairs(n, r)).collect();

    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0f64;
        for pairs in &schedule {
            // The round's rotations touch disjoint columns; run them in
            // the schedule's fixed pair order.
            for &(p, q) in pairs {
                let (cp, cq) = pair_slices(&mut cols, m, p, q);
                let (vp, vq) = pair_slices(&mut v, n, p, q);
                off = off.max(rotate_pair(cp, cq, vp, vq));
            }
        }
        if off < SWEEP_TOL {
            break;
        }
    }

    // Extract singular values (column norms), sort descending (stable:
    // ties keep ascending column order).
    let norms: Vec<f64> =
        cols.chunks_exact(m).map(|c| c.iter().map(|x| x * x).sum::<f64>().sqrt()).collect();
    let mut order: Vec<usize> = (0..n).collect();
    // xtask:panic-ok(norms are sums of squares, never NaN, so partial_cmp always succeeds)
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap());

    let mut u = DenseMatrix::zeros(m, n);
    let mut vm = DenseMatrix::zeros(n, n);
    let mut sigma = vec![0.0f32; n];
    for (jj, &j) in order.iter().enumerate() {
        let s = norms[j];
        sigma[jj] = s as f32;
        if s > 0.0 {
            for (i, &x) in cols[j * m..(j + 1) * m].iter().enumerate() {
                u.set(i, jj, (x / s) as f32);
            }
        }
        for (i, &x) in v[j * n..(j + 1) * n].iter().enumerate() {
            vm.set(i, jj, x as f32);
        }
    }
    SmallSvd { u, sigma, v: vm }
}

/// Thin SVD of a tall matrix (`n × d`, `n ≫ d`) via the Gram-matrix
/// method: Jacobi-diagonalize `YᵀY = V Σ² Vᵀ` (a `d × d` problem) and lift
/// `U = Y V Σ⁻¹`. This is how ProNE re-orthogonalizes the propagated
/// embedding; accuracy is `O(κ²·ε)` which is ample for embedding purposes.
pub fn tall_thin_svd(y: &DenseMatrix) -> SmallSvd {
    let gram = y.gram_tn(y); // d × d, symmetric PSD
    let gsvd = jacobi_svd(&gram);
    // Eigenvalues of the Gram matrix are σ², eigenvectors are V.
    let sigma: Vec<f32> = gsvd.sigma.iter().map(|&s| s.max(0.0).sqrt()).collect();
    let v = gsvd.u; // for symmetric PSD input, U == V
    let mut u = y.matmul(&v);
    let inv: Vec<f32> = sigma.iter().map(|&s| if s > 1e-12 { 1.0 / s } else { 0.0 }).collect();
    u.scale_columns(&inv);
    SmallSvd { u, sigma, v }
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
    fn round_robin_schedule_meets_every_pair_once() {
        for n in [2usize, 3, 4, 5, 8, 9, 48] {
            let slots = n + (n & 1);
            let mut met = vec![0u32; n * n];
            for round in 0..slots - 1 {
                let pairs = round_robin_pairs(n, round);
                let mut used = vec![false; n];
                for (p, q) in pairs {
                    assert!(p != q && p < n && q < n);
                    assert!(!used[p] && !used[q], "n={n} round={round}: column reused");
                    used[p] = true;
                    used[q] = true;
                    let (lo, hi) = (p.min(q), p.max(q));
                    met[lo * n + hi] += 1;
                }
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    assert_eq!(met[p * n + q], 1, "n={n}: pair ({p},{q}) met wrong count");
                }
            }
        }
    }

    #[test]
    fn diagonal_matrix_svd() {
        let a = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, 7.0]]);
        let svd = jacobi_svd(&a);
        assert!((svd.sigma[0] - 7.0).abs() < 1e-5);
        assert!((svd.sigma[1] - 3.0).abs() < 1e-5);
        assert!(reconstruct(&svd).max_abs_diff(&a) < 1e-5);
    }

    #[test]
    fn random_square_reconstruction() {
        for seed in 0..5 {
            let a = DenseMatrix::gaussian(32, 32, seed);
            let svd = jacobi_svd(&a);
            let diff = reconstruct(&svd).max_abs_diff(&a);
            assert!(diff < 1e-3, "seed {seed}: reconstruction error {diff}");
            assert_orthonormal(&svd.u, 1e-4);
            assert_orthonormal(&svd.v, 1e-4);
            // Descending order.
            assert!(svd.sigma.windows(2).all(|w| w[0] >= w[1] - 1e-6));
        }
    }

    #[test]
    fn odd_dimension_reconstruction() {
        // Odd n exercises the dummy tournament slot.
        for n in [3usize, 7, 17] {
            let a = DenseMatrix::gaussian(n + 2, n, 100 + n as u64);
            let svd = jacobi_svd(&a);
            let diff = reconstruct(&svd).max_abs_diff(&a);
            assert!(diff < 1e-3, "n {n}: reconstruction error {diff}");
            assert_orthonormal(&svd.v, 1e-4);
        }
    }

    #[test]
    fn tall_matrix_reconstruction() {
        let a = DenseMatrix::gaussian(50, 10, 3);
        let svd = jacobi_svd(&a);
        assert!(reconstruct(&svd).max_abs_diff(&a) < 1e-3);
        assert_orthonormal(&svd.u, 1e-4);
    }

    #[test]
    fn rank_one_matrix() {
        // a = 2 * u v^T with unit u,v: single nonzero singular value 2·||u||·||v||.
        let mut a = DenseMatrix::zeros(4, 3);
        let u = [0.5f32, 0.5, 0.5, 0.5];
        let v = [1.0f32 / 3.0f32.sqrt(); 3];
        for (i, &ui) in u.iter().enumerate() {
            for (j, &vj) in v.iter().enumerate() {
                a.set(i, j, 2.0 * ui * vj);
            }
        }
        let svd = jacobi_svd(&a);
        assert!((svd.sigma[0] - 2.0).abs() < 1e-5, "{:?}", svd.sigma);
        assert!(svd.sigma[1].abs() < 1e-5);
        assert!(svd.sigma[2].abs() < 1e-5);
    }

    #[test]
    fn singular_values_match_eigendecomposition_of_gram() {
        // For symmetric PSD A, singular values = eigenvalues; check against
        // a hand-built spectrum via Q diag(λ) Qᵀ.
        let mut q = DenseMatrix::gaussian(6, 6, 17);
        crate::qr::orthonormalize_columns(&mut q);
        let lambda = [9.0f32, 5.0, 3.0, 2.0, 1.0, 0.5];
        let mut ql = q.clone();
        ql.scale_columns(&lambda);
        let a = ql.matmul(&q.transpose());
        let svd = jacobi_svd(&a);
        for (got, want) in svd.sigma.iter().zip(lambda.iter()) {
            assert!((got - want).abs() < 1e-3, "sigma {got} want {want}");
        }
    }

    #[test]
    fn zero_matrix() {
        let a = DenseMatrix::zeros(5, 5);
        let svd = jacobi_svd(&a);
        assert!(svd.sigma.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn one_by_one_and_empty() {
        let a = DenseMatrix::from_vec(1, 1, vec![-3.0]);
        let svd = jacobi_svd(&a);
        assert!((svd.sigma[0] - 3.0).abs() < 1e-7);
        assert!(reconstruct(&svd).max_abs_diff(&a) < 1e-6);

        let e = jacobi_svd(&DenseMatrix::zeros(4, 0));
        assert_eq!(e.u.rows(), 4);
        assert_eq!(e.u.cols(), 0);
        assert!(e.sigma.is_empty());
    }

    #[test]
    fn tall_thin_svd_reconstructs() {
        let y = DenseMatrix::gaussian(800, 6, 21);
        let svd = tall_thin_svd(&y);
        assert!(reconstruct(&svd).max_abs_diff(&y) < 2e-3);
        assert_orthonormal(&svd.u, 2e-3);
        assert!(svd.sigma.windows(2).all(|w| w[0] >= w[1] - 1e-4));
    }

    #[test]
    fn tall_thin_svd_matches_jacobi_on_small_input() {
        let y = DenseMatrix::gaussian(40, 5, 22);
        let a = tall_thin_svd(&y);
        let b = jacobi_svd(&y);
        for (x, z) in a.sigma.iter().zip(&b.sigma) {
            assert!((x - z).abs() < 1e-2 * z.max(1.0), "{x} vs {z}");
        }
    }

    #[test]
    fn tall_thin_svd_of_zero_width() {
        let svd = tall_thin_svd(&DenseMatrix::zeros(6, 0));
        assert_eq!((svd.u.rows(), svd.u.cols()), (6, 0));
        assert_eq!((svd.v.rows(), svd.v.cols()), (0, 0));
        assert!(svd.sigma.is_empty());
    }

    #[test]
    fn tall_thin_svd_rank_deficient() {
        // Two identical columns → one zero singular value, zeroed U column.
        let g = DenseMatrix::gaussian(100, 1, 23);
        let mut y = DenseMatrix::zeros(100, 2);
        for i in 0..100 {
            y.set(i, 0, g.get(i, 0));
            y.set(i, 1, g.get(i, 0));
        }
        let svd = tall_thin_svd(&y);
        assert!(svd.sigma[1] < 1e-2 * svd.sigma[0]);
        assert!(reconstruct(&svd).max_abs_diff(&y) < 2e-3);
    }
}
