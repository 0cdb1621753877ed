//! The first-port ("pre register-blocking") kernels, kept verbatim.
//!
//! These are the naive implementations the blocked kernels replaced: the
//! i-l-j row-parallel GEMM with its per-element `a != 0.0` branch, the
//! row-streaming `f64` Gram product, the strictly sequential-over-columns
//! MGS QR and the `Vec<Vec<f64>>` column-at-a-time cyclic Jacobi SVD (the
//! arithmetic the Gram-matrix SVD of [`crate::svd`] replaced, and its
//! accuracy oracle) — plus the unfused sparse×dense
//! product and the `scale`/`axpy` passes that
//! [`crate::sparse::CsrMatrix::spmm_fused`] folds into one kernel, and the
//! binary-search symmetry test `CsrMatrix::is_symmetric` replaced. They
//! are retained for two jobs:
//!
//! 1. **Oracles** — the kernel property tests pin the blocked kernels
//!    against these at adversarial shapes.
//! 2. **Baselines** — `bench_linalg_json` measures the blocked kernels'
//!    speedup over exactly this code, which is what the committed
//!    `BENCH_linalg.json` trajectory and `cargo xtask gate linalg` track.
//!
//! Do not "fix" or optimize anything here; the whole point is that it
//! stays the pre-PR baseline. (The one exception: the parallel branches
//! of `par_axpy`/`par_scale` hand the pool 16 Ki-element blocks instead
//! of single elements — same values, and the shim no longer materialises
//! a reference per element.)

use crate::dense::DenseMatrix;
use crate::sparse::CsrMatrix;
use crate::svd::SmallSvd;
use rayon::prelude::*;

/// Unfused SPMM: every output row summed from `+0.0` in stored-entry
/// order, `out += v·x`, sequentially. The byte-level oracle of
/// [`CsrMatrix::spmm_fused`]'s row accumulation.
pub fn spmm(a: &CsrMatrix, x: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.n_cols(), x.rows(), "spmm shape mismatch");
    let mut out = DenseMatrix::zeros(a.n_rows(), x.cols());
    for i in 0..a.n_rows() {
        let (cols, vals) = a.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            for (o, &xv) in out.row_mut(i).iter_mut().zip(x.row(c as usize)) {
                *o += v * xv;
            }
        }
    }
    out
}

/// The symmetry test [`CsrMatrix::is_symmetric`] replaced: one binary
/// search (`get`) per stored entry, in parallel over rows. The predicate
/// oracle of the one-pass walk, and its benchmark baseline.
pub fn is_symmetric_by_search(a: &CsrMatrix, tol: f32) -> bool {
    if a.n_rows() != a.n_cols() {
        return false;
    }
    (0..a.n_rows()).into_par_iter().all(|i| {
        let (cols, vals) = a.row(i);
        cols.iter().zip(vals).all(|(&c, &v)| (a.get(c as usize, i) - v).abs() <= tol)
    })
}

/// `y ← s·y`, one sequential pass.
pub fn scale(y: &mut DenseMatrix, s: f32) {
    for v in y.as_mut_slice() {
        *v *= s;
    }
}

/// `y ← y + s·x`, one sequential pass (multiply, then add).
pub fn axpy(y: &mut DenseMatrix, s: f32, x: &DenseMatrix) {
    assert_eq!((y.rows(), y.cols()), (x.rows(), x.cols()));
    for (a, &b) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *a += s * b;
    }
}

/// Pre-PR dense GEMM: parallel over output rows, i-l-j loop order, with
/// the per-element zero-skip branch.
pub fn matmul(a: &DenseMatrix, other: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.cols(), other.rows(), "gemm shape mismatch");
    let (m, n, k) = (a.rows(), a.cols(), other.cols());
    let mut out = DenseMatrix::zeros(m, k);
    out.as_mut_slice().par_chunks_mut(k.max(1)).enumerate().for_each(|(i, orow)| {
        let arow = &a.as_slice()[i * n..(i + 1) * n];
        for (l, &av) in arow.iter().enumerate() {
            if av != 0.0 {
                let brow = &other.as_slice()[l * k..(l + 1) * k];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += av * b;
                }
            }
        }
    });
    out
}

/// The row-streaming Gram product `aᵀ (c×r) · b (r×k) → (c×k)` that
/// [`DenseMatrix::gram_tn`] replaced, before its final `f32` cast: per
/// 4096-row block, one `f64` partial accumulated row by row as
/// `local[j][l] += a[j]·b[l]`, the partials folded in block order. The
/// byte-level oracle of [`crate::kernels::gram_tn`], which keeps exactly
/// this per-element order.
pub fn gram_tn_f64(a: &DenseMatrix, other: &DenseMatrix) -> Vec<f64> {
    assert_eq!(a.rows(), other.rows(), "gram shape mismatch");
    let (c, k) = (a.cols(), other.cols());
    const GRAM_BLOCK_ROWS: usize = 4096;
    let blocks: Vec<Vec<f64>> = a
        .as_slice()
        .par_chunks(GRAM_BLOCK_ROWS * c)
        .zip(other.as_slice().par_chunks(GRAM_BLOCK_ROWS * k))
        .map(|(ablock, bblock)| {
            let mut local = vec![0.0f64; c * k];
            for (arow, brow) in ablock.chunks_exact(c).zip(bblock.chunks_exact(k)) {
                for (j, &a) in arow.iter().enumerate() {
                    let dst = &mut local[j * k..(j + 1) * k];
                    for (d, &b) in dst.iter_mut().zip(brow) {
                        *d += a as f64 * b as f64;
                    }
                }
            }
            local
        })
        .collect();
    let mut acc = vec![0.0f64; c * k];
    for block in blocks {
        for (x, y) in acc.iter_mut().zip(block) {
            *x += y;
        }
    }
    acc
}

/// [`gram_tn_f64`] cast to `f32`: the pre-register-tiling
/// `DenseMatrix::gram_tn`, and `bench_linalg_json`'s baseline for it.
pub fn gram_tn(a: &DenseMatrix, other: &DenseMatrix) -> DenseMatrix {
    let acc = gram_tn_f64(a, other);
    DenseMatrix::from_vec(a.cols(), other.cols(), acc.into_iter().map(|x| x as f32).collect())
}

/// Threshold below which vector ops stay sequential (pre-PR value).
const PAR_THRESHOLD: usize = 1 << 14;
/// Fixed block length of the pre-PR parallel dot product.
const DOT_BLOCK: usize = 1 << 13;
/// Elements per task of the parallel `par_axpy`/`par_scale` branches.
const ELEMWISE_BLOCK: usize = 1 << 14;

fn seq_dot(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

fn par_dot(a: &[f32], b: &[f32]) -> f64 {
    if a.len() < PAR_THRESHOLD {
        seq_dot(a, b)
    } else {
        let partials: Vec<f64> = a
            .par_chunks(DOT_BLOCK)
            .zip(b.par_chunks(DOT_BLOCK))
            .map(|(x, y)| seq_dot(x, y))
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
        y.par_chunks_mut(ELEMWISE_BLOCK).zip(x.par_chunks(ELEMWISE_BLOCK)).for_each(|(yb, xb)| {
            for (yi, &xi) in yb.iter_mut().zip(xb) {
                *yi += alpha * xi;
            }
        });
    }
}

fn par_scale(y: &mut [f32], alpha: f32) {
    if y.len() < PAR_THRESHOLD {
        for yi in y.iter_mut() {
            *yi *= alpha;
        }
    } else {
        y.par_chunks_mut(ELEMWISE_BLOCK).for_each(|yb| {
            for yi in yb {
                *yi *= alpha;
            }
        });
    }
}

/// Pre-PR MGS orthonormalization: strictly sequential over columns, two
/// re-orthogonalization passes of `par_dot`/`par_axpy` sweeps each.
pub fn orthonormalize_columns(x: &mut DenseMatrix) -> usize {
    let d = x.cols();
    let mut xt = x.transpose();
    let n = xt.cols();
    let mut rank = 0usize;

    let mut cols: Vec<&mut [f32]> = xt.as_mut_slice().chunks_mut(n.max(1)).collect();

    for j in 0..d {
        let orig_norm = {
            let cur = &*cols[j];
            par_dot(cur, cur).sqrt()
        };
        for _pass in 0..2 {
            let (done, rest) = cols.split_at_mut(j);
            let cur = &mut *rest[0];
            for q in done.iter() {
                let r = par_dot(q, cur) as f32;
                if r != 0.0 {
                    par_axpy(cur, -r, q);
                }
            }
        }
        let cur = &mut *cols[j];
        let norm = par_dot(cur, cur).sqrt();
        if norm > orig_norm * 1e-5 && norm > 1e-12 {
            par_scale(cur, (1.0 / norm) as f32);
            rank += 1;
        } else {
            cur.fill(0.0);
        }
    }
    drop(cols);
    *x = xt.transpose();
    rank
}

/// Pre-PR one-sided Jacobi SVD: `Vec<Vec<f64>>` column storage, cyclic
/// `(p, q)` sweep order, sequential throughout.
pub fn jacobi_svd(a: &DenseMatrix) -> SmallSvd {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "jacobi_svd requires rows >= cols");

    let mut cols: Vec<Vec<f64>> =
        (0..n).map(|j| (0..m).map(|i| a.get(i, j) as f64).collect()).collect();
    let mut v: Vec<Vec<f64>> = (0..n)
        .map(|j| {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            e
        })
        .collect();

    let eps = 1e-14;
    let max_sweeps = 60;
    for _sweep in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let (alpha, beta, gamma) = {
                    let (cp, cq) = (&cols[p], &cols[q]);
                    let mut alpha = 0.0;
                    let mut beta = 0.0;
                    let mut gamma = 0.0;
                    for i in 0..m {
                        alpha += cp[i] * cp[i];
                        beta += cq[i] * cq[i];
                        gamma += cp[i] * cq[i];
                    }
                    (alpha, beta, gamma)
                };
                let denom = (alpha * beta).sqrt();
                if denom <= 0.0 || gamma.abs() <= eps * denom {
                    continue;
                }
                off = off.max(gamma.abs() / denom);
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;

                let (lo, hi) = cols.split_at_mut(q);
                let (cp, cq) = (&mut lo[p], &mut hi[0]);
                for i in 0..m {
                    let (x, y) = (cp[i], cq[i]);
                    cp[i] = c * x - s * y;
                    cq[i] = s * x + c * y;
                }
                let (lo, hi) = v.split_at_mut(q);
                let (vp, vq) = (&mut lo[p], &mut hi[0]);
                for i in 0..n {
                    let (x, y) = (vp[i], vq[i]);
                    vp[i] = c * x - s * y;
                    vq[i] = s * x + c * y;
                }
            }
        }
        if off < 1e-12 {
            break;
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> =
        cols.iter().map(|c| c.iter().map(|x| x * x).sum::<f64>().sqrt()).collect();
    // The norms are sums of squares (+0.0, never -0.0, in a non-empty
    // column), where `total_cmp` orders as `partial_cmp` does.
    order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]));

    let mut u = DenseMatrix::zeros(m, n);
    let mut vm = DenseMatrix::zeros(n, n);
    let mut sigma = vec![0.0f32; n];
    for (jj, &j) in order.iter().enumerate() {
        let s = norms[j];
        sigma[jj] = s as f32;
        if s > 0.0 {
            for (i, &x) in cols[j].iter().enumerate().take(m) {
                u.set(i, jj, (x / s) as f32);
            }
        }
        for (i, &x) in v[j].iter().enumerate().take(n) {
            vm.set(i, jj, x as f32);
        }
    }
    SmallSvd { u, sigma, v: vm }
}
