//! CSR sparse matrices with parallel SPMM (replacing MKL Sparse BLAS).
//!
//! The two sparse kernels LightNE needs are (1) building a CSR matrix from
//! an unsorted stream of `(row, col, value)` triples — the output of the
//! sparsifier's hash table — and (2) multiplying a sparse `n × n` matrix by
//! a dense `n × d` panel (`mkl_sparse_s_mm`), which dominates both the
//! randomized SVD's projections and ProNE's spectral propagation.

use crate::dense::DenseMatrix;
use crate::simd::{self, SimdTier};
use lightne_utils::mem::MemUsage;
use lightne_utils::parallel::{
    group_by_row, group_entries, par_unzip, parallel_prefix_sum, parallel_reduce_sum,
    sort_merge_row,
};
use rayon::prelude::*;
use std::ops::Range;

/// One shard's drained output as a CSR row block: `(rows, counts, cols,
/// vals)`, where row `rows.start + r` holds the next `counts[r]` columns
/// (strictly ascending) and values. See [`CsrMatrix::from_sharded_rows`].
pub type RowBlock = (Range<u32>, Vec<u32>, Vec<u32>, Vec<f32>);

/// Output rows per SPMM task: one task owns 64 contiguous rows of every
/// output, which amortizes per-task dispatch and the task's accumulator
/// over many rows. Fixed (never thread-derived).
const SPMM_ROW_BLOCK: usize = 64;

/// Prefetch distance of the SPMM column gather: while multiplying the
/// `x` row for non-zero `j`, the row for non-zero `j + SPMM_PREFETCH` is
/// requested. At `d = 32..256` one gather costs roughly a cache-line
/// fill, so ~8 in flight covers DRAM latency without thrashing the L1
/// fill buffers (measured flat from 4 to 16 on the bench profiles).
pub(crate) const SPMM_PREFETCH: usize = 8;

/// Scalar tier of the SPMM row accumulation: `acc[j] = Σₖ vals[k] ·
/// x[cols[k]][j]`, every element summed from `+0.0` in stored-entry
/// order as `acc + v·x` (multiply, then add). This loop *defines* the
/// bytes; [`simd::spmm_row`] reproduces them. The column indices are
/// irregular, so each gather software-prefetches the `x` row
/// [`SPMM_PREFETCH`] entries ahead — a scheduling hint with no effect on
/// values.
pub(crate) fn spmm_row_scalar(cols: &[u32], vals: &[f32], x: &DenseMatrix, acc: &mut [f32]) {
    acc.fill(0.0);
    for (k, (&c, &v)) in cols.iter().zip(vals).enumerate() {
        if let Some(&cn) = cols.get(k + SPMM_PREFETCH) {
            let next: *const u8 = x.row(cn as usize).as_ptr().cast();
            simd::prefetch_read(next);
            if x.cols() * 4 > 64 {
                // Second cache line of the row (in bounds: the row spans
                // > 64 bytes; wrapping_ math keeps the hint free of
                // pointer-arith UB).
                simd::prefetch_read(next.wrapping_add(64));
            }
        }
        for (a, &xv) in acc.iter_mut().zip(x.row(c as usize)) {
            *a += v * xv;
        }
    }
}

/// A sparse matrix in CSR format with `f32` values.
///
/// Invariant: within every row the column indices are strictly ascending
/// (sorted, no repeats). Every constructor establishes it — `from_coo`
/// sorts each row and combines duplicates, `from_sharded_rows` takes sorted unique
/// rows — and [`CsrMatrix::from_raw`] asserts it. [`CsrMatrix::get`]'s
/// binary search and [`CsrMatrix::is_symmetric`]'s one-pass walk rely on
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<u64>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds from raw CSR arrays.
    ///
    /// # Panics
    /// Panics on inconsistent arrays (see asserts), including a row whose
    /// columns are not strictly ascending (the type's invariant).
    pub fn from_raw(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<u64>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(row_ptr.len(), n_rows + 1);
        assert_eq!(col_idx.len(), values.len());
        // xtask:panic-ok(invariant: row_ptr length n_rows+1 asserted on the line above)
        assert_eq!(*row_ptr.last().unwrap() as usize, col_idx.len());
        assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
        assert!(col_idx.par_iter().all(|&c| (c as usize) < n_cols));
        let ascending = |i: usize| {
            let row = &col_idx[row_ptr[i] as usize..row_ptr[i + 1] as usize];
            row.windows(2).all(|w| w[0] < w[1])
        };
        assert!(
            (0..n_rows).into_par_iter().all(ascending),
            "CSR row columns not strictly ascending"
        );
        Self { n_rows, n_cols, row_ptr, col_idx, values }
    }

    /// Builds from an unsorted COO triple list. Duplicate coordinates are
    /// combined by summation, in input order (the semantics the sampler
    /// needs: repeated samples of the same edge accumulate weight).
    ///
    /// One stable counting sort by row ([`group_by_row`]), then each row
    /// is sorted by column and its duplicates merged on its own — O(nnz +
    /// n_rows) on every thread.
    ///
    /// # Panics
    /// If an entry lies outside the `n_rows × n_cols` shape.
    pub fn from_coo(n_rows: usize, n_cols: usize, coo: Vec<(u32, u32, f32)>) -> Self {
        let rows = group_by_row(&coo, n_rows, |&(r, c, v)| [Some((r, (c, v)))]);
        drop(coo);
        let (row_ptr, entries) = rows.finish_rows(|row, scratch| {
            sort_merge_row(row, scratch, |&(c, _)| c, |a, b| a.1 += b.1)
        });
        let (col_idx, values) = par_unzip(&entries);
        Self::from_raw(n_rows, n_cols, row_ptr, col_idx, values)
    }

    /// Assembles a CSR matrix from per-shard row blocks (the output of
    /// `ShardedEdgeTable::drain_map`): each block is a contiguous row
    /// range, its per-row entry counts, and its columns and values row by
    /// row, columns strictly ascending within a row. Ranges must be
    /// disjoint and increasing; rows no block covers are empty. Each block
    /// copies its counts and entries into its own slice of the output in
    /// parallel, and one prefix sum over the counts gives the row pointers.
    ///
    /// # Panics
    /// Panics if blocks overlap or run out of bounds, if a block's counts
    /// do not match its rows and entries, or if a row's columns are not
    /// strictly ascending (see [`CsrMatrix::from_raw`]).
    pub fn from_sharded_rows(n_rows: usize, n_cols: usize, blocks: Vec<RowBlock>) -> Self {
        let mut prev_end = 0u32;
        for (rows, counts, cols, vals) in &blocks {
            assert!(rows.start >= prev_end, "sharded runs must be disjoint and increasing");
            assert!(rows.end as usize <= n_rows, "run range exceeds n_rows");
            prev_end = rows.end.max(rows.start);
            assert_eq!(counts.len(), rows.len(), "one count per row of a block");
            let entries: u64 = counts.iter().map(|&c| u64::from(c)).sum();
            assert!(
                entries == cols.len() as u64 && cols.len() == vals.len(),
                "block counts mismatch"
            );
        }

        let total: usize = blocks.iter().map(|(_, _, cols, _)| cols.len()).sum();
        let mut counts = vec![0u64; n_rows];
        let mut col_idx = vec![0u32; total];
        let mut values = vec![0f32; total];
        {
            let mut count_rest: &mut [u64] = &mut counts;
            let mut col_rest: &mut [u32] = &mut col_idx;
            let mut val_rest: &mut [f32] = &mut values;
            let mut consumed = 0usize;
            let mut jobs = Vec::with_capacity(blocks.len());
            for block in &blocks {
                let (rows, _, cols, _) = block;
                let tail = std::mem::take(&mut count_rest);
                let (_, tail) = tail.split_at_mut(rows.start as usize - consumed);
                let (k, kr) = tail.split_at_mut(rows.len());
                let (c, cr) = std::mem::take(&mut col_rest).split_at_mut(cols.len());
                let (v, vr) = std::mem::take(&mut val_rest).split_at_mut(cols.len());
                (count_rest, col_rest, val_rest) = (kr, cr, vr);
                consumed = rows.end as usize;
                jobs.push((k, c, v, block));
            }
            jobs.into_par_iter().for_each(|(k, c, v, (_, counts, cols, vals))| {
                for (out, &n) in k.iter_mut().zip(counts) {
                    *out = u64::from(n);
                }
                c.copy_from_slice(cols);
                v.copy_from_slice(vals);
            });
        }
        let row_ptr = parallel_prefix_sum(&counts);
        Self::from_raw(n_rows, n_cols, row_ptr, col_idx, values)
    }

    /// The zero matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            row_ptr: vec![0; n_rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        Self {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n as u64).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Reads entry `(i, j)` (binary search; 0.0 if absent).
    pub fn get(&self, i: usize, j: usize) -> f32 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Sparse × dense: `self (r×c) · x (c×d) → (r×d)` — the identity
    /// epilogue of [`CsrMatrix::spmm_fused`].
    pub fn spmm(&self, x: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.n_rows, x.cols());
        self.spmm_fused(x, [&mut out], |_, acc, [o]| o.copy_from_slice(acc));
        out
    }

    /// SPMM with a per-row epilogue — the one sparse×dense kernel of the
    /// workspace (randomized SVD through [`CsrMatrix::spmm`], spectral
    /// propagation directly). For every row `i` it accumulates
    /// `acc = Σⱼ self[i,j] · x[j,:]` in a task-local buffer (registers on
    /// the AVX2 tier), then calls `epilogue(i, acc, rows)` where `rows[k]`
    /// is row `i` of `outs[k]`; the epilogue's writes are the only stores
    /// to the outputs. `rows[k]` still holds whatever `outs[k]` held on
    /// entry, so an epilogue may update an output in place
    /// (`conv += c·acc`) or overwrite it.
    ///
    /// Determinism: a task owns [`SPMM_ROW_BLOCK`] contiguous rows and
    /// handles them in order, the accumulation order within a row is the
    /// stored-entry order on every SIMD tier (see [`simd::spmm_row`]),
    /// and the epilogue sees one row at a time — so the output bytes are
    /// independent of the thread count and the tier.
    ///
    /// # Panics
    /// Panics if `x` has other than `n_cols` rows or an output is not
    /// `n_rows × x.cols()`.
    pub fn spmm_fused<const K: usize, E>(
        &self,
        x: &DenseMatrix,
        outs: [&mut DenseMatrix; K],
        epilogue: E,
    ) where
        E: Fn(usize, &[f32], [&mut [f32]; K]) + Sync,
    {
        assert_eq!(self.n_cols, x.rows(), "spmm shape mismatch");
        let d = x.cols();
        for out in &outs {
            assert_eq!((out.rows(), out.cols()), (self.n_rows, d), "spmm output shape mismatch");
        }
        if d == 0 {
            return;
        }
        let avx2 = simd::active_tier() >= SimdTier::Avx2;
        // The same row block of every output, block by block. Each chunk
        // iterator yields exactly `n_blocks` blocks (shapes asserted
        // above), so the empty-slice default is never taken.
        let n_blocks = self.n_rows.div_ceil(SPMM_ROW_BLOCK);
        let mut chunks = outs.map(|out| out.as_mut_slice().chunks_mut(d * SPMM_ROW_BLOCK));
        let blocks: Vec<_> = (0..n_blocks)
            .map(|_| chunks.each_mut().map(|c| c.next().unwrap_or_default()))
            .collect();
        blocks.into_par_iter().enumerate().for_each(|(blk, block)| {
            let mut acc = vec![0f32; d];
            let mut rows = block.map(|b| b.chunks_mut(d));
            let row0 = blk * SPMM_ROW_BLOCK;
            for i in row0..self.n_rows.min(row0 + SPMM_ROW_BLOCK) {
                let (cols, vals) = self.row(i);
                if avx2 {
                    simd::spmm_row(cols, vals, x, &mut acc);
                } else {
                    spmm_row_scalar(cols, vals, x, &mut acc);
                }
                epilogue(i, &acc, rows.each_mut().map(|r| r.next().unwrap_or_default()));
            }
        });
    }

    /// The transpose: one stable counting sort of the entries by column
    /// ([`group_entries`]), straight from the CSR. Each column's rows come
    /// out ascending, so no row needs sorting.
    pub fn transpose(&self) -> CsrMatrix {
        let (cols, vals) = (&self.col_idx, &self.values);
        let groups =
            group_entries(&self.row_ptr, self.n_cols, |r, k| Some((cols[k], (r, vals[k]))));
        let (row_ptr, entries) = groups.finish_rows(|row, _| row.len());
        let (col_idx, values) = par_unzip(&entries);
        Self::from_raw(self.n_cols, self.n_rows, row_ptr, col_idx, values)
    }

    /// Linear combination `alpha·self + beta·other` (same shape): the
    /// entries of both, grouped by row straight from the two CSRs
    /// ([`group_entries`] over `self`'s rows followed by `other`'s), then
    /// each row sorted by column with a coordinate in both summed `self`
    /// first — the bytes [`CsrMatrix::from_coo`] gives the same entries.
    pub fn add(&self, other: &CsrMatrix, alpha: f32, beta: f32) -> CsrMatrix {
        assert_eq!((self.n_rows, self.n_cols), (other.n_rows, other.n_cols));
        let (n, first) = (self.n_rows, self.nnz() as u64);
        let row_ptr: Vec<u64> = self
            .row_ptr
            .iter()
            .copied()
            .chain(other.row_ptr[1..].iter().map(|&p| first + p))
            .collect();
        let groups = group_entries(&row_ptr, n, |r, k| {
            Some(match k.checked_sub(first as usize) {
                None => (r, (self.col_idx[k], alpha * self.values[k])),
                Some(k) => (r - n as u32, (other.col_idx[k], beta * other.values[k])),
            })
        });
        drop(row_ptr);
        let (row_ptr, entries) = groups.finish_rows(|row, scratch| {
            sort_merge_row(row, scratch, |&(c, _)| c, |a, b| a.1 += b.1)
        });
        let (col_idx, values) = par_unzip(&entries);
        Self::from_raw(self.n_rows, self.n_cols, row_ptr, col_idx, values)
    }

    /// Densifies (test helper; quadratic memory).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.n_rows, self.n_cols);
        for i in 0..self.n_rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                out.set(i, c as usize, v);
            }
        }
        out
    }

    /// Sum of all stored values (deterministic fixed-block reduction).
    pub fn sum_values(&self) -> f64 {
        parallel_reduce_sum(self.values.len(), |i| self.values[i] as f64)
    }

    /// Whether every stored entry `(i, j, v)` has `|self[j][i] − v| ≤ tol`,
    /// an absent twin reading as 0.0: explicit zeros and ±0 pass, NaN
    /// fails, and a non-square matrix is not symmetric.
    ///
    /// One pass over the entries in row order, O(nnz + n). Row `j` keeps
    /// a cursor over its lower-triangle entries (columns `< j`). Rows are
    /// walked in order and columns ascend within a row (the type's
    /// invariant), so the upper entries `(i, j)`, `i < j`, that can match
    /// row `j`'s lower entries arrive in the order of those entries: each
    /// finds its twin `(j, i)` at row `j`'s cursor or has none, and every
    /// lower entry the cursor passes, or that is still left when row `j`
    /// itself is reached, has none.
    pub fn is_symmetric(&self, tol: f32) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        let (cols, vals) = (&self.col_idx, &self.values);
        let twinless = |v: f32| (0.0 - v).abs() <= tol;
        let mut cursor: Vec<usize> =
            self.row_ptr[..self.n_rows].iter().map(|&p| p as usize).collect();
        for i in 0..self.n_rows {
            let end = self.row_ptr[i + 1] as usize;
            let mut k = cursor[i];
            // Row i's lower entries that no earlier row's entry matched.
            while k < end && (cols[k] as usize) < i {
                if !twinless(vals[k]) {
                    return false;
                }
                k += 1;
            }
            for k in k..end {
                let (j, v) = (cols[k] as usize, vals[k]);
                let ok = if j == i {
                    // Its own twin: |v − v| is 0, or NaN for ±∞ and NaN.
                    v.is_finite() && 0.0 <= tol
                } else {
                    let (twin_end, mut c) = (self.row_ptr[j + 1] as usize, cursor[j]);
                    while c < twin_end && (cols[c] as usize) < i {
                        if !twinless(vals[c]) {
                            return false;
                        }
                        c += 1;
                    }
                    let matched = c < twin_end && cols[c] as usize == i;
                    cursor[j] = c + usize::from(matched);
                    if matched {
                        (vals[c] - v).abs() <= tol
                    } else {
                        twinless(v)
                    }
                };
                if !ok {
                    return false;
                }
            }
        }
        true
    }
}

impl MemUsage for CsrMatrix {
    fn heap_bytes(&self) -> usize {
        self.row_ptr.heap_bytes() + self.col_idx.heap_bytes() + self.values.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        CsrMatrix::from_coo(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)],
        )
    }

    #[test]
    fn from_coo_sorts_and_sums_duplicates() {
        let m = CsrMatrix::from_coo(2, 2, vec![(1, 1, 1.0), (0, 0, 2.0), (1, 1, 3.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = small();
        let x = DenseMatrix::gaussian(3, 4, 5);
        let fast = m.spmm(&x);
        let slow = m.to_dense().matmul(&x);
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn transpose_twice_identity() {
        let m = small();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(0, 2), 4.0);
    }

    /// `transpose` and `add` give the bytes of their former route — the
    /// entries collected into a COO list, then [`CsrMatrix::from_coo`] —
    /// with duplicate coordinates across the two operands, empty rows and
    /// a non-square shape, at 1 and 2 threads.
    #[test]
    fn transpose_and_add_match_the_coo_route() {
        let triples = |m: &CsrMatrix, scale: f32| -> Vec<(u32, u32, f32)> {
            (0..m.n_rows())
                .flat_map(|i| {
                    let (cols, vals) = m.row(i);
                    cols.iter().zip(vals).map(move |(&c, &v)| (i as u32, c, scale * v))
                })
                .collect()
        };
        let random_in = |rows: usize, cols: usize, len: usize, seed: u64| {
            let fold = |(r, c, v): (u32, u32, f32)| (r % rows as u32, c % cols as u32, v);
            random_coo(1 << 20, len, seed).into_iter().map(fold).collect::<Vec<_>>()
        };
        for (rows, cols, seed) in
            [(0usize, 0usize, 1u64), (1, 5, 2), (300, 200, 3), (3000, 4000, 4)]
        {
            let a = CsrMatrix::from_coo(rows, cols, random_in(rows, cols, rows * 4, seed));
            let b = CsrMatrix::from_coo(rows, cols, random_in(rows, cols, rows * 3, seed + 9));
            let flipped: Vec<_> = triples(&a, 1.0).into_iter().map(|(r, c, v)| (c, r, v)).collect();
            let want_t = CsrMatrix::from_coo(cols, rows, flipped);
            let mut sum = triples(&a, 0.3);
            sum.extend(triples(&b, -1.7));
            // The former route pushed row by row, `self`'s entries first.
            sum.sort_by_key(|&(r, _, _)| r);
            let want_sum = CsrMatrix::from_coo(rows, cols, sum);
            for threads in [1, 2] {
                lightne_utils::parallel::configure_threads(threads);
                assert_eq!(a.transpose(), want_t, "{rows}x{cols} transpose @{threads}t");
                let got = a.add(&b, 0.3, -1.7);
                assert_eq!(got.row_ptr, want_sum.row_ptr);
                assert_eq!(got.col_idx, want_sum.col_idx);
                let bits = |m: &CsrMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want_sum), "{rows}x{cols} add @{threads}t");
            }
        }
        lightne_utils::parallel::configure_threads(0);
    }

    #[test]
    fn add_combines() {
        let m = small();
        let s = m.add(&m, 1.0, 2.0);
        assert_eq!(s.get(0, 2), 6.0);
        assert_eq!(s.nnz(), m.nnz());
    }

    #[test]
    fn identity_spmm_is_noop() {
        let i = CsrMatrix::identity(6);
        let x = DenseMatrix::gaussian(6, 3, 2);
        assert!(i.spmm(&x).max_abs_diff(&x) < 1e-7);
    }

    #[test]
    fn symmetric_detection() {
        let sym = CsrMatrix::from_coo(2, 2, vec![(0, 1, 2.0), (1, 0, 2.0)]);
        assert!(sym.is_symmetric(0.0));
        let asym = CsrMatrix::from_coo(2, 2, vec![(0, 1, 2.0)]);
        assert!(!asym.is_symmetric(0.0));
    }

    #[test]
    fn empty_rows_handled() {
        let m = CsrMatrix::from_coo(4, 4, vec![(3, 0, 1.0)]);
        assert_eq!(m.row(0).0.len(), 0);
        assert_eq!(m.row(3).0, &[0]);
        let x = DenseMatrix::identity(4);
        let y = m.spmm(&x);
        assert_eq!(y.get(3, 0), 1.0);
        assert_eq!(y.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "spmm shape mismatch")]
    fn spmm_checks_shapes() {
        let m = small();
        let x = DenseMatrix::zeros(4, 2);
        let _ = m.spmm(&x);
    }

    #[test]
    fn spmm_blocked_matches_dense_on_many_rows() {
        // More rows than one SPMM tile, with ragged final block.
        let n = 3 * super::SPMM_ROW_BLOCK + 17;
        let coo: Vec<(u32, u32, f32)> =
            (0..n as u32).map(|i| (i, (i * 7) % n as u32, 0.5 + (i % 5) as f32)).collect();
        let m = CsrMatrix::from_coo(n, n, coo);
        let x = DenseMatrix::gaussian(n, 6, 11);
        let fast = m.spmm(&x);
        let slow = m.to_dense().matmul(&x);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    /// The sort-based `from_coo` the counting sort replaced: one
    /// comparison sort of the packed coordinates, then a sequential merge
    /// of equal ones. `stable` merges duplicates in input order (the
    /// unstable sort leaves three or more in an arbitrary one).
    fn from_coo_by_sort(
        n_rows: usize,
        n_cols: usize,
        mut coo: Vec<(u32, u32, f32)>,
        stable: bool,
    ) -> CsrMatrix {
        let key = |e: &(u32, u32, f32)| ((e.0 as u64) << 32) | e.1 as u64;
        if stable {
            coo.sort_by_key(key);
        } else {
            coo.sort_unstable_by_key(key);
        }
        let mut merged: Vec<(u32, u32, f32)> = Vec::new();
        for e in coo {
            match merged.last_mut() {
                Some(last) if last.0 == e.0 && last.1 == e.1 => last.2 += e.2,
                _ => merged.push(e),
            }
        }
        let mut row_ptr = vec![0u64; n_rows + 1];
        for &(r, _, _) in &merged {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..n_rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = merged.iter().map(|e| e.1).collect();
        let values = merged.iter().map(|e| e.2).collect();
        CsrMatrix::from_raw(n_rows, n_cols, row_ptr, col_idx, values)
    }

    /// Holds `from_coo` to the sort-based build, bit for bit, at 1, 2 and
    /// 8 threads.
    fn check_against_sort(n_rows: usize, n_cols: usize, coo: &[(u32, u32, f32)], stable: bool) {
        let want = from_coo_by_sort(n_rows, n_cols, coo.to_vec(), stable);
        let bits = |m: &CsrMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [1, 2, 8] {
            lightne_utils::parallel::configure_threads(threads);
            let got = CsrMatrix::from_coo(n_rows, n_cols, coo.to_vec());
            assert_eq!((&got.row_ptr, &got.col_idx), (&want.row_ptr, &want.col_idx));
            assert_eq!(bits(&got), bits(&want), "{threads} threads");
        }
        lightne_utils::parallel::configure_threads(0);
    }

    /// `len` entries of an `n × n` matrix, values over four decades.
    fn random_coo(n: u64, len: usize, seed: u64) -> Vec<(u32, u32, f32)> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let (r, c) = (((state >> 33) % n) as u32, ((state >> 13) % n) as u32);
                (r, c, 10f32.powi((state % 5) as i32 - 1) * (1.0 + (state >> 60) as f32))
            })
            .collect()
    }

    #[test]
    fn from_coo_matches_the_sort_oracle() {
        check_against_sort(0, 0, &[], false);
        check_against_sort(1, 1, &[(0, 0, 2.0)], false);
        check_against_sort(3, 3, &[(0, 0, 1.0), (2, 2, 3.0), (1, 1, 0.5)], false);
        check_against_sort(9, 9, &[(8, 8, 1.0), (8, 0, 2.0), (0, 8, 3.0)], false);
        // Each coordinate at most twice: same bytes in either order.
        let distinct: Vec<_> =
            (0..70_000u32).map(|i| (i, (i * 7) % 70_000, 1.0 + i as f32)).collect();
        let mut coo = distinct.clone();
        coo.extend(distinct.iter().step_by(3).map(|&(r, c, v)| (r, c, v * 0.3)));
        check_against_sort(70_000, 70_000, &coo, false);
        // A hub row of more than 2^16 entries.
        let hub: Vec<_> = (0..70_000u32).rev().map(|c| (5, c, c as f32)).collect();
        check_against_sort(6, 70_000, &hub, false);
    }

    #[test]
    fn from_coo_sums_three_or_more_duplicates_in_input_order() {
        let coo = [(1, 1, 1e8), (1, 1, 1.0), (0, 0, 1.0), (1, 1, 1.0)];
        check_against_sort(2, 2, &coo, true);
        assert_eq!(CsrMatrix::from_coo(2, 2, coo.to_vec()).get(1, 1), (1e8f32 + 1.0) + 1.0);
        check_against_sort(3, 3, &[(2, 1, 0.1); 9], true);
        check_against_sort(500, 500, &random_coo(500, 100_000, 42), true);
        check_against_sort(70_000, 70_000, &random_coo(70_000, 300_000, 43), true);
    }

    #[test]
    fn from_sharded_rows_matches_from_coo() {
        // Three disjoint row blocks with a gap (rows 6..8 empty).
        let blocks: Vec<RowBlock> = vec![
            (0..3, vec![2, 0, 1], vec![1, 4, 0], vec![1.0, 2.0, 3.0]),
            (3..6, vec![1, 0, 1], vec![3, 9], vec![4.0, 5.0]),
            (8..10, vec![0, 1], vec![2], vec![6.0]),
        ];
        let coo =
            vec![(0, 1, 1.0), (0, 4, 2.0), (2, 0, 3.0), (3, 3, 4.0), (5, 9, 5.0), (9, 2, 6.0)];
        let a = CsrMatrix::from_sharded_rows(10, 10, blocks);
        assert_eq!(a, CsrMatrix::from_coo(10, 10, coo));
        assert_eq!(a.row(6).0.len(), 0);
        assert_eq!(a.get(9, 2), 6.0);
    }

    #[test]
    fn from_sharded_rows_empty_runs() {
        let empty = |rows: Range<u32>| (rows.clone(), vec![0; rows.len()], vec![], vec![]);
        let m = CsrMatrix::from_sharded_rows(4, 4, vec![empty(0..2), empty(2..4)]);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m, CsrMatrix::zeros(4, 4));
        let empty = CsrMatrix::from_sharded_rows(4, 4, vec![]);
        assert_eq!(empty.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "disjoint and increasing")]
    fn from_sharded_rows_rejects_overlap() {
        let _ = CsrMatrix::from_sharded_rows(
            4,
            4,
            vec![(0..3, vec![1, 0, 0], vec![0], vec![1.0]), (2..4, vec![1, 0], vec![0], vec![1.0])],
        );
    }

    #[test]
    #[should_panic(expected = "block counts mismatch")]
    fn from_sharded_rows_rejects_miscounted_block() {
        let _ = CsrMatrix::from_sharded_rows(2, 2, vec![(0..2, vec![1, 1], vec![0], vec![1.0])]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_raw_rejects_a_descending_row() {
        let _ = CsrMatrix::from_raw(2, 3, vec![0, 1, 3], vec![0, 2, 1], vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_raw_rejects_a_repeated_column() {
        let _ = CsrMatrix::from_raw(2, 3, vec![0, 2, 3], vec![1, 1, 0], vec![1.0; 3]);
    }

    /// The one-pass symmetry test against the binary-search predicate it
    /// replaced, on random small matrices: explicit zeros, ±0, NaN, ±∞,
    /// twins missing on either side, twins one ULP or 5e-5 apart, empty
    /// rows, non-square shapes, at `tol` 0 and 1e-4.
    #[test]
    fn symmetry_walk_matches_binary_search() {
        let mut state = 0x51_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        const VALUES: [f32; 7] = [0.0, -0.0, f32::NAN, f32::INFINITY, 1.5, -2.25, 3.0e-5];
        let mut outcomes = [[0usize; 2]; 2];
        for trial in 0..4_000 {
            let n = if trial % 100 == 0 { 150 } else { next(12) as usize };
            let m_cols = if trial % 10 == 0 { next(12) as usize } else { n };
            let mut coo = Vec::new();
            for i in 0..n.min(m_cols) as u32 {
                for j in i..n.min(m_cols) as u32 {
                    if next(3) != 0 {
                        continue;
                    }
                    let v = VALUES[next(VALUES.len() as u64) as usize];
                    // Which side holds the entry and which its twin.
                    let (a, b) = if next(2) == 0 { (i, j) } else { (j, i) };
                    coo.push((a, b, v));
                    let twin = match next(8) {
                        _ if i == j => None,
                        0 => None,
                        1 => Some(f32::from_bits(v.to_bits() ^ 1)),
                        2 => Some(v + 5.0e-5),
                        3 => Some(-v),
                        4 => Some(0.0),
                        _ => Some(v),
                    };
                    if let Some(t) = twin {
                        coo.push((b, a, t));
                    }
                }
            }
            // Entries outside the square part of a non-square shape.
            if m_cols > n && n > 0 {
                coo.push((next(n as u64) as u32, (m_cols - 1) as u32, 1.0));
            }
            let m = CsrMatrix::from_coo(n, m_cols, coo);
            for (t, tol) in [0.0f32, 1e-4].into_iter().enumerate() {
                let want = crate::reference::is_symmetric_by_search(&m, tol);
                assert_eq!(m.is_symmetric(tol), want, "trial {trial}, tol {tol}: {m:?}");
                outcomes[t][usize::from(want)] += 1;
            }
        }
        // Both answers are common at both tolerances.
        assert!(outcomes.iter().flatten().all(|&k| k > 400), "{outcomes:?}");
    }

    #[test]
    fn symmetry_edge_cases() {
        let sym = |coo: Vec<(u32, u32, f32)>| CsrMatrix::from_coo(3, 3, coo).is_symmetric(0.0);
        assert!(sym(vec![(0, 2, 0.0)]), "explicit zero, no twin");
        assert!(sym(vec![(0, 2, -0.0), (2, 0, 0.0)]), "±0 twins");
        assert!(!sym(vec![(1, 1, f32::NAN)]), "NaN diagonal");
        assert!(!sym(vec![(1, 1, f32::INFINITY)]), "∞ diagonal");
        assert!(sym(vec![(1, 1, -7.0)]), "finite diagonal");
        assert!(!sym(vec![(2, 0, 1.0)]), "lower entry, no twin");
        assert!(!sym(vec![(0, 1, 1.0), (1, 0, 1.0), (2, 0, 1.0)]), "lower entry left at the end");
        assert!(CsrMatrix::zeros(0, 0).is_symmetric(0.0));
        assert!(!CsrMatrix::zeros(2, 3).is_symmetric(0.0));
    }
}
