//! Bulk-parallel primitives in the style of GBBS/Ligra.
//!
//! GBBS exposes `parallel_for`, scans and reductions with automatic
//! granularity control on a work-stealing scheduler. The vendored runtime
//! (`vendor/rayon`) gives the same shape with a simpler mechanism: a
//! persistent pool of helper threads, a region cut into fixed-length
//! blocks (eight per thread) that the workers claim dynamically — each
//! from its own run of blocks first, then from the others' — and block
//! results read back in block order, so output order never depends on who
//! ran what. This module adds the handful of
//! patterns the rest of the workspace needs on top of it: an index loop,
//! an exclusive parallel prefix sum (the core of CSR construction), and
//! fixed-bracketing reductions.

use rayon::prelude::*;

/// Number of worker threads in the global rayon pool.
pub fn num_threads() -> usize {
    rayon::current_num_threads()
}

/// Sizes the global rayon pool to `n` worker threads (0 = the default,
/// one per available core) and returns the resulting pool size.
///
/// May be called at any time and repeatedly: `build_global` of the
/// vendored runtime records the count and never fails. The pool's helper
/// threads are persistent — spawned by the first region that wants them,
/// parked between regions, never torn down — and a region admits the
/// first `n − 1` of them, so sizing down costs nothing and sizing up
/// spawns the difference once. At `n = 1` every region runs inline on
/// its caller and no helper is ever created. The `--threads` flag, the
/// benchmark and the thread-count determinism tests all re-size this way
/// mid-process. (The published rayon rejects a second `build_global`;
/// the ignored `Result` below is what a swap back to it would have to
/// handle.)
pub fn configure_threads(n: usize) -> usize {
    let _ = rayon::ThreadPoolBuilder::new().num_threads(n).build_global();
    num_threads()
}

/// Chunk length for a caller that cuts `n` indices into chunks *itself*
/// and whose per-index body is a few instructions (the prefix sum below:
/// one add per index): ~8 chunks per thread, but never under 1024
/// indices, so that a chunk outweighs the claim that hands it out. Loops
/// with a real body should not floor their grain — [`par_for`] leaves the
/// block length to the runtime.
pub fn par_chunk_size(n: usize) -> usize {
    let tasks = num_threads().saturating_mul(8).max(1);
    (n / tasks).max(1024).min(n.max(1))
}

/// Parallel loop over `0..n`, calling `f(i)` for each index.
///
/// The runtime cuts `0..n` into its fixed-length blocks (no floor here: a
/// 2048-index loop whose first indices carry most of the work must still
/// split finely enough to balance) and the workers claim them
/// dynamically. `f` must be safe to call concurrently; use this for
/// side-effecting loops over disjoint state.
pub fn par_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync + Send,
{
    (0..n).into_par_iter().for_each(f);
}

/// Exclusive parallel prefix sum over `u64` values.
///
/// Returns a vector `out` of length `input.len() + 1` with `out[0] == 0` and
/// `out[i] == input[0] + .. + input[i-1]`; `out[n]` is the total. This is the
/// classic two-pass (block-sums then rescan) algorithm used by GBBS for CSR
/// offset construction.
pub fn parallel_prefix_sum(input: &[u64]) -> Vec<u64> {
    let n = input.len();
    let mut out = vec![0u64; n + 1];
    if n == 0 {
        return out;
    }
    let chunk = par_chunk_size(n);
    let nblocks = n.div_ceil(chunk);
    if nblocks <= 1 {
        let mut acc = 0u64;
        for (i, &v) in input.iter().enumerate() {
            out[i] = acc;
            acc += v;
        }
        out[n] = acc;
        return out;
    }

    // Pass 1: per-block sums.
    let block_sums: Vec<u64> = (0..nblocks)
        .into_par_iter()
        .map(|b| {
            let lo = b * chunk;
            let hi = ((b + 1) * chunk).min(n);
            input[lo..hi].iter().sum()
        })
        .collect();

    // Sequential scan over block sums (nblocks is small).
    let mut block_offsets = vec![0u64; nblocks + 1];
    for b in 0..nblocks {
        block_offsets[b + 1] = block_offsets[b] + block_sums[b];
    }
    let total = block_offsets[nblocks];

    // Pass 2: rescan each block with its offset, writing disjoint slices.
    out[..n].par_chunks_mut(chunk).enumerate().for_each(|(b, out_block)| {
        let lo = b * chunk;
        let mut acc = block_offsets[b];
        for (o, &v) in out_block.iter_mut().zip(&input[lo..]) {
            *o = acc;
            acc += v;
        }
    });
    out[n] = total;
    out
}

/// Block size for deterministic floating-point reductions. Fixed (not
/// derived from the thread count) so the summation bracketing — and hence
/// the rounded result — is identical at any pool size.
const DET_SUM_BLOCK: usize = 1 << 14;

/// Parallel sum reduction of `f(i)` over `0..n`.
///
/// Deterministic: the range is cut into fixed-size blocks, each block is
/// summed sequentially, and the per-block partials are folded in block
/// order. The bracketing is independent of the thread count, so the
/// result is bitwise identical across runs and pool sizes.
pub fn parallel_reduce_sum<F>(n: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync + Send,
{
    let nblocks = n.div_ceil(DET_SUM_BLOCK);
    let partials: Vec<f64> = (0..nblocks)
        .into_par_iter()
        .map(|b| {
            let lo = b * DET_SUM_BLOCK;
            let hi = ((b + 1) * DET_SUM_BLOCK).min(n);
            let mut acc = 0.0;
            for i in lo..hi {
                acc += f(i);
            }
            acc
        })
        .collect();
    partials.iter().sum()
}

/// Parallel maximum of `f(i)` over `0..n`; returns `None` for an empty range.
pub fn parallel_reduce_max<F>(n: usize, f: F) -> Option<u64>
where
    F: Fn(usize) -> u64 + Sync + Send,
{
    (0..n).into_par_iter().map(f).max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sum_empty() {
        assert_eq!(parallel_prefix_sum(&[]), vec![0]);
    }

    #[test]
    fn prefix_sum_small() {
        assert_eq!(parallel_prefix_sum(&[3, 1, 4]), vec![0, 3, 4, 8]);
    }

    #[test]
    fn prefix_sum_matches_sequential_large() {
        let input: Vec<u64> = (0..100_000).map(|i| (i * 7 + 3) % 11).collect();
        let got = parallel_prefix_sum(&input);
        let mut acc = 0u64;
        for (i, &v) in input.iter().enumerate() {
            assert_eq!(got[i], acc, "mismatch at {i}");
            acc += v;
        }
        assert_eq!(got[input.len()], acc);
    }

    #[test]
    fn reduce_sum_matches() {
        let s = parallel_reduce_sum(1000, |i| i as f64);
        assert_eq!(s, 999.0 * 1000.0 / 2.0);
    }

    #[test]
    fn reduce_sum_bitwise_reproducible() {
        // Irrational-ish terms over multiple blocks: the fixed bracketing
        // must give the identical floating-point result on every call.
        let f = |i: usize| 1.0 / (i as f64 + 0.73);
        let a = parallel_reduce_sum(100_000, f);
        let b = parallel_reduce_sum(100_000, f);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn configure_threads_reports_pool_size() {
        let n = configure_threads(0);
        assert!(n >= 1);
        assert_eq!(n, num_threads());
    }

    #[test]
    fn reduce_max_matches() {
        assert_eq!(parallel_reduce_max(1000, |i| (i as u64 * 37) % 101), Some(100));
        assert_eq!(parallel_reduce_max(0, |i| i as u64), None);
    }

    #[test]
    fn par_for_covers_all_indices() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits: Vec<AtomicU64> = (0..5000).map(|_| AtomicU64::new(0)).collect();
        par_for(5000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
