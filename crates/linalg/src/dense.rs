//! Row-major dense `f32` matrices with rayon-parallel kernels.
//!
//! The shapes that matter in LightNE are *tall and skinny*: `n × d` with
//! `n` up to billions and `d` ≤ a few hundred. Every kernel here is laid
//! out for that case — row-major storage so a vertex's embedding is one
//! contiguous cache line run, parallelism across rows, and `f64`
//! accumulation inside dot products for stability (MKL does the same
//! internally for its `s` routines on modern CPUs).

use lightne_utils::parallel::parallel_reduce_sum;
use lightne_utils::rng::XorShiftStream;
use rayon::prelude::*;
use std::fmt;

/// Elements per task of the element-wise kernels (`scale`, `axpy`,
/// `map_inplace`, … here, in [`crate::qr`] and in [`crate::sparse`]): each
/// task runs a plain loop over one 64 KiB block. Fixed, never
/// thread-derived; the kernels are element-independent, so the block size
/// cannot affect values anyway.
pub(crate) const ELEMWISE_BLOCK: usize = 1 << 14;

/// `y[i] ← f(y[i])`, block-parallel.
pub(crate) fn map_slice<F>(y: &mut [f32], f: F)
where
    F: Fn(f32) -> f32 + Sync + Send,
{
    y.par_chunks_mut(ELEMWISE_BLOCK).for_each(|block| {
        for v in block {
            *v = f(*v);
        }
    });
}

/// `y ← y + s·x` (multiply, then add), block-parallel.
pub(crate) fn axpy_slice(y: &mut [f32], s: f32, x: &[f32]) {
    y.par_chunks_mut(ELEMWISE_BLOCK).zip(x.par_chunks(ELEMWISE_BLOCK)).for_each(|(yb, xb)| {
        for (yi, &xi) in yb.iter_mut().zip(xb) {
            *yi += s * xi;
        }
    });
}

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DenseMatrix({}x{})", self.rows, self.cols)?;
        if self.rows <= 8 && self.cols <= 8 {
            writeln!(f)?;
            for i in 0..self.rows {
                writeln!(f, "  {:?}", self.row(i))?;
            }
        }
        Ok(())
    }
}

impl DenseMatrix {
    /// A zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Builds from nested rows (convenient in tests).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// An i.i.d. standard-Gaussian random matrix (MKL `vsRngGaussian`),
    /// filled in parallel with one deterministic stream per row.
    pub fn gaussian(rows: usize, cols: usize, seed: u64) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.par_chunks_mut(cols.max(1)).enumerate().for_each(|(i, row)| {
            let mut rng = XorShiftStream::new(seed, i as u64);
            for x in row {
                *x = rng.gaussian() as f32;
            }
        });
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The transpose, walked in `TILE×TILE` cache tiles (the old strided
    /// scatter thrashed on tall embedding matrices). Parallel over
    /// `TILE`-wide bands of output rows; each tile is copied through the
    /// same [`crate::kernels::transpose_tile`] gather the GEMM A-packing
    /// uses.
    pub fn transpose(&self) -> DenseMatrix {
        use crate::kernels::{transpose_tile, TILE};
        let (r, c) = (self.rows, self.cols);
        let mut out = DenseMatrix::zeros(c, r);
        if r == 0 || c == 0 {
            return out;
        }
        out.data.par_chunks_mut(TILE * r).enumerate().for_each(|(band, oband)| {
            let j0 = band * TILE; // first input column of this band
            let jb = TILE.min(c - j0);
            for i0 in (0..r).step_by(TILE) {
                let ib = TILE.min(r - i0);
                transpose_tile(&self.data[i0 * c + j0..], c, &mut oband[i0..], r, ib, jb);
            }
        });
        out
    }

    /// Dense GEMM: `self (m×n) · other (n×k) → (m×k)`, replacing
    /// `cblas_sgemm`, via the packed-panel register-blocked kernel in
    /// [`crate::kernels`] (branchless; parallel over output row blocks
    /// with a fixed k-panel accumulation order, so the bytes are
    /// identical at any thread count).
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "gemm shape mismatch");
        let (m, n, k) = (self.rows, self.cols, other.cols);
        let mut out = DenseMatrix::zeros(m, k);
        crate::kernels::gemm(m, k, n, &self.data, &other.data, &mut out.data);
        out
    }

    /// Gram-style product for tall matrices: `selfᵀ (c×r) · other (r×k) →
    /// (c×k)` where both inputs have the same (large) row count and few
    /// columns, accumulated in `f64` by the register-tiled
    /// [`crate::kernels::gram_tn`] (fixed row-block × output-row-group
    /// tasks, so the bytes are identical at any thread count and on every
    /// SIMD tier). A zero-width operand gives the zero (or empty) product.
    pub fn gram_tn(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.rows, other.rows, "gram shape mismatch");
        let (c, k) = (self.cols, other.cols);
        let acc = crate::kernels::gram_tn(&self.data, c, &other.data, k);
        DenseMatrix::from_vec(c, k, acc.into_iter().map(|x| x as f32).collect())
    }

    /// Scales every entry by `s`, in parallel.
    pub fn scale(&mut self, s: f32) {
        self.map_inplace(|x| x * s);
    }

    /// `self += s · other`, in parallel.
    pub fn axpy(&mut self, s: f32, other: &DenseMatrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        axpy_slice(&mut self.data, s, &other.data);
    }

    /// Applies `f` to every entry, in parallel.
    pub fn map_inplace<F>(&mut self, f: F)
    where
        F: Fn(f32) -> f32 + Sync + Send,
    {
        map_slice(&mut self.data, f);
    }

    /// Multiplies each column `j` by `scale[j]` (e.g. `X ← X·Σ^{1/2}`).
    pub fn scale_columns(&mut self, scale: &[f32]) {
        assert_eq!(scale.len(), self.cols);
        if self.cols == 0 {
            return;
        }
        self.data.par_chunks_mut(self.cols).for_each(|row| {
            for (x, &s) in row.iter_mut().zip(scale) {
                *x *= s;
            }
        });
    }

    /// L2-normalizes every row (common post-processing for embeddings).
    pub fn normalize_rows(&mut self) {
        if self.cols == 0 {
            return;
        }
        self.data.par_chunks_mut(self.cols).for_each(|row| {
            let norm = row.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt();
            if norm > 0.0 {
                let inv = (1.0 / norm) as f32;
                for x in row {
                    *x *= inv;
                }
            }
        });
    }

    /// Frobenius norm, accumulated in `f64`.
    ///
    /// Uses the fixed-block deterministic reduction so the norm is
    /// bitwise identical at any thread count.
    pub fn frobenius_norm(&self) -> f64 {
        parallel_reduce_sum(self.data.len(), |i| {
            let x = self.data[i] as f64;
            x * x
        })
        .sqrt()
    }

    /// Maximum absolute entry difference to another matrix (∞-distance).
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .par_chunks(ELEMWISE_BLOCK)
            .zip(other.data.par_chunks(ELEMWISE_BLOCK))
            .map(|(ablock, bblock)| {
                ablock.iter().zip(bblock).map(|(&a, &b)| (a - b).abs()).fold(0.0, f32::max)
            })
            // xtask:allow(L3): f32::max is commutative and associative,
            // so the parallel reduction order cannot change the result.
            .reduce(|| 0.0, f32::max)
    }
}

impl lightne_utils::mem::MemUsage for DenseMatrix {
    fn heap_bytes(&self) -> usize {
        lightne_utils::mem::MemUsage::heap_bytes(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = DenseMatrix::gaussian(20, 20, 1);
        let i = DenseMatrix::identity(20);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-6);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn gram_tn_matches_explicit_transpose() {
        let a = DenseMatrix::gaussian(500, 7, 2);
        let b = DenseMatrix::gaussian(500, 5, 3);
        let fast = a.gram_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-3, "diff {}", fast.max_abs_diff(&slow));
    }

    #[test]
    fn gram_tn_of_zero_width_or_zero_rows() {
        let (a, empty) = (DenseMatrix::gaussian(5, 3, 1), DenseMatrix::zeros(5, 0));
        assert_eq!(empty.gram_tn(&a), DenseMatrix::zeros(0, 3));
        assert_eq!(a.gram_tn(&empty), DenseMatrix::zeros(3, 0));
        assert_eq!(empty.gram_tn(&empty), DenseMatrix::zeros(0, 0));
        let no_rows = DenseMatrix::zeros(0, 4);
        assert_eq!(no_rows.gram_tn(&no_rows), DenseMatrix::zeros(4, 4));
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::gaussian(13, 7, 4);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gaussian_is_deterministic_and_standard() {
        let a = DenseMatrix::gaussian(200, 50, 9);
        let b = DenseMatrix::gaussian(200, 50, 9);
        assert_eq!(a, b);
        let n = (a.rows() * a.cols()) as f64;
        let mean: f64 = a.as_slice().iter().map(|&x| x as f64).sum::<f64>() / n;
        let var: f64 = a.as_slice().iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn scale_and_axpy() {
        let mut a = DenseMatrix::from_rows(&[&[1.0, 2.0]]);
        let b = DenseMatrix::from_rows(&[&[10.0, 20.0]]);
        a.scale(2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.row(0), &[7.0, 14.0]);
    }

    #[test]
    fn scale_columns_works() {
        let mut a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.scale_columns(&[2.0, 10.0]);
        assert_eq!(a.row(0), &[2.0, 20.0]);
        assert_eq!(a.row(1), &[6.0, 40.0]);
    }

    #[test]
    fn scale_columns_of_zero_width() {
        let mut a = DenseMatrix::zeros(5, 0);
        a.scale_columns(&[]);
        assert_eq!(a, DenseMatrix::zeros(5, 0));
    }

    #[test]
    fn normalize_rows_of_zero_width() {
        let mut a = DenseMatrix::zeros(5, 0);
        a.normalize_rows();
        assert_eq!(a, DenseMatrix::zeros(5, 0));
    }

    #[test]
    fn normalize_rows_unit_norm() {
        let mut a = DenseMatrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        a.normalize_rows();
        let norm2: f64 = a.row(0).iter().map(|&x| x as f64 * x as f64).sum();
        assert!((norm2 - 1.0).abs() < 1e-6);
        assert_eq!(a.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn frobenius_norm_known() {
        let a = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn map_inplace_trunc_log() {
        let mut a = DenseMatrix::from_rows(&[&[0.5, 1.0, std::f32::consts::E]]);
        a.map_inplace(|x| x.ln().max(0.0));
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert!((a.get(0, 2) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "gemm shape mismatch")]
    fn matmul_shape_checked() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
