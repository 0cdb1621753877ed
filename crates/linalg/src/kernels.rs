//! Cache- and register-blocked dense kernels — the hot-path engine room
//! behind [`crate::dense::DenseMatrix::matmul`] and the Gram-matrix SVD
//! in [`crate::svd`].
//!
//! The design follows the classic GotoBLAS/BLIS decomposition, shrunk to
//! the shapes LightNE cares about (tall-skinny times small-square):
//!
//! * **GEMM** — `C += A·B` is computed k-panel by k-panel. For each panel
//!   the relevant `KC` rows of `B` are packed once into contiguous
//!   `KC×NR` strips, row blocks of `A` are packed into `KC×MR` strips
//!   (a small blocked transpose), and an `MR×NR` register-tile
//!   micro-kernel runs over the packed buffers with unit-stride loads.
//! * **Determinism** — every blocking parameter below is a fixed
//!   constant, *never* derived from the thread count. Parallelism only
//!   splits the `M` dimension (disjoint output tiles); the k-panels are
//!   accumulated strictly in ascending order inside each output element,
//!   so the floating-point bracketing — and therefore the output bytes —
//!   are identical at any rayon pool size. This is what carries the
//!   PR 1 bitwise thread-count-determinism guarantee through the
//!   register-blocked rewrite.
//! * **Gram product** — `aᵀ·b` over the tall dimension ([`gram_tn`]) in
//!   `f64` register tiles, over fixed row-block × output-row-group tasks
//!   whose partials fold in block order.
//! * **SIMD dispatch** — each kernel's innermost loop dispatches once per
//!   call on [`crate::simd::active_tier`]: the scalar bodies below are
//!   the portable fallback *and* the correctness oracle, the
//!   [`crate::simd`] module holds the explicit AVX2/AVX-512 variants.
//!   The `f64`-accumulating kernels are bitwise identical across tiers
//!   (lane assignment and fold bracketing live here, shared by both
//!   paths); only the `f32` GEMM micro-kernel diverges within a √k-scaled
//!   tolerance (FMA contraction), documented in [`crate::simd`].

use crate::simd::{self, SimdTier};
use rayon::prelude::*;
use std::ops::Range;

/// Micro-kernel tile height (rows of `A` held in registers).
pub const MR: usize = 4;
/// Micro-kernel tile width (columns of `B` held in registers).
///
/// `4×16` measured fastest across both the portable baseline build and
/// `-C target-cpu=native` on AVX-512 hosts: the 16-wide inner loop maps
/// to two packed FMAs per row and the 4×16 accumulator stays register
/// resident in either ISA.
pub const NR: usize = 16;
/// K-panel depth: `KC×MR` and `KC×NR` strips must fit in L1.
pub const KC: usize = 256;
/// Rows of `A` packed per parallel task (`MC×KC` block targets L2).
pub const MC: usize = 128;
/// Tile edge of the blocked transpose (32×32×4 B = 4 KiB per tile).
pub const TILE: usize = 32;

/// Below this `m·n·k` volume the packing overhead outweighs the
/// micro-kernel win and a plain branchless triple loop is used instead.
const SMALL_GEMM_FLOPS: usize = 16 * 1024;

/// Fixed row-block length for deterministic `f64` reductions over the
/// tall dimension (the Gram product's tasks). Independent of the thread
/// count on purpose.
pub const REDUCE_BLOCK: usize = 4096;

/// Nominal FLOP count of a dense `m×k · k×n` GEMM.
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

/// Copies the transpose of an `rows×cols` tile: `dst[c·dst_stride + r] =
/// src[r·src_stride + c]`. Shared by [`crate::dense::DenseMatrix::transpose`]
/// (which walks the matrix in `TILE×TILE` tiles) and by the GEMM A-panel
/// packing (which is the same gather with `dst_stride = MR`).
#[inline]
pub(crate) fn transpose_tile(
    src: &[f32],
    src_stride: usize,
    dst: &mut [f32],
    dst_stride: usize,
    rows: usize,
    cols: usize,
) {
    for r in 0..rows {
        let srow = &src[r * src_stride..r * src_stride + cols];
        for (c, &v) in srow.iter().enumerate() {
            dst[c * dst_stride + r] = v;
        }
    }
}

/// Packs the `kc` rows starting at `k0` of row-major `b` (`?×n`) into
/// `⌈n/NR⌉` contiguous `kc×NR` strips (zero-padded on the right edge).
fn pack_b(b: &[f32], n: usize, k0: usize, kc: usize, pack: &mut Vec<f32>) {
    let strips = n.div_ceil(NR);
    pack.clear();
    pack.resize(strips * kc * NR, 0.0);
    pack.par_chunks_mut(kc * NR).enumerate().for_each(|(sj, strip)| {
        let c0 = sj * NR;
        let cols = NR.min(n - c0);
        for kk in 0..kc {
            let src = &b[(k0 + kk) * n + c0..(k0 + kk) * n + c0 + cols];
            strip[kk * NR..kk * NR + cols].copy_from_slice(src);
        }
    });
}

/// Packs rows `[i0, i0+mc)` of row-major `a` (`?×k`) restricted to
/// columns `[k0, k0+kc)` into `⌈mc/MR⌉` strips of layout
/// `strip[kk·MR + r]` — i.e. a blocked transpose of each `MR×kc` slab,
/// done through the same [`transpose_tile`] the dense transpose uses.
fn pack_a(a: &[f32], k: usize, i0: usize, mc: usize, k0: usize, kc: usize, pack: &mut [f32]) {
    for (si, strip) in pack.chunks_exact_mut(kc * MR).enumerate() {
        let r0 = i0 + si * MR;
        let rows = MR.min(i0 + mc - r0);
        transpose_tile(&a[r0 * k + k0..], k, strip, MR, rows, kc);
    }
}

/// The register tile: `acc[r][c] += Σ_kk a[kk·MR+r] · b[kk·NR+c]`, with
/// both operands walked at unit stride through the packed strips.
///
/// Deliberately `inline(never)`: compiled as its own small function the
/// loop vectorizer reliably turns the `NR`-wide inner loop into packed
/// FMAs, whereas inlined into the (large) blocked-GEMM closure it
/// degrades to scalar unrolling — an order-of-magnitude difference. The
/// call costs one `call` per `MR×NR×KC` tile (~64k flops), i.e. nothing.
#[inline(never)]
fn micro_kernel(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    let mut local = [[0.0f32; NR]; MR];
    for (ak, bk) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
        for (r, lr) in local.iter_mut().enumerate() {
            let ar = ak[r];
            for (av, &bv) in lr.iter_mut().zip(bk) {
                *av += ar * bv;
            }
        }
    }
    for (ar, lr) in acc.iter_mut().zip(&local) {
        for (av, &lv) in ar.iter_mut().zip(lr) {
            *av += lv;
        }
    }
}

/// One staging-buffer tile: the scalar micro-kernel accumulates into a
/// zeroed `MR×NR` register tile, then the live `rows×cols` corner is
/// added into the output block. The portable fallback for every tile on
/// the scalar tier and for the ragged edge tiles on the SIMD tiers
/// (which write their full tiles directly, skipping the staging pass).
#[expect(clippy::too_many_arguments, reason = "the packed strips and the output tile's geometry")]
fn tile_acc(
    kc: usize,
    astrip: &[f32],
    bstrip: &[f32],
    rows: usize,
    cols: usize,
    oblock: &mut [f32],
    r0: usize,
    c0: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    micro_kernel(kc, astrip, bstrip, &mut acc);
    for (r, accr) in acc.iter().enumerate().take(rows) {
        let off = (r0 + r) * n + c0;
        for (o, &v) in out_slice(oblock, off, cols).iter_mut().zip(accr) {
            *o += v;
        }
    }
}

/// Branchless naive triple loop for tiny problems (and the `k == 0`
/// degenerate case); sequential, so trivially deterministic.
fn gemm_small(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (l, &av) in arow.iter().enumerate() {
            let brow = &b[l * n..(l + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Packed-panel GEMM: `out += a (m×k) · b (k×n)`, all row-major flat
/// slices. `out` is accumulated into (callers pass a zeroed buffer for a
/// plain product).
///
/// Parallelism is over `MC`-row blocks of the output only; k-panels run
/// sequentially in ascending order, so every output element sees the
/// same summation bracketing at any thread count.
///
/// # Panics
/// Panics (via slice indexing) if the buffers are smaller than the
/// stated shapes.
pub fn gemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= m * k && b.len() >= k * n && out.len() >= m * n, "gemm buffer too small");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * n * k <= SMALL_GEMM_FLOPS {
        gemm_small(m, n, k, a, b, out);
        return;
    }
    let strips_n = n.div_ceil(NR);
    let tier = simd::active_tier();
    let mut bpack = Vec::new();
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        pack_b(b, n, k0, kc, &mut bpack);
        out[..m * n].par_chunks_mut(MC * n).enumerate().for_each(|(blk, oblock)| {
            let i0 = blk * MC;
            let mc = oblock.len() / n;
            let mut apack = vec![0.0f32; mc.div_ceil(MR) * kc * MR];
            pack_a(a, k, i0, mc, k0, kc, &mut apack);
            // Full tiles first, B strip outermost so it stays L1-resident
            // across the whole MC block (the A strips stream from L2 —
            // 8× less traffic than streaming all B strips per A strip);
            // on AVX-512, two adjacent full strips per kernel call. Tile
            // order never changes any output element's summation
            // bracketing (tiles are disjoint; k-panels remain ascending
            // in the outer loop), so all three tiers stay bitwise
            // thread-count deterministic and the scalar tier reproduces
            // the PR 4 bytes exactly.
            let full_si = mc / MR; // A strips with all MR rows live
            let full_sj = n / NR; // B strips with all NR columns live
            let mut sj = 0usize;
            match tier {
                SimdTier::Avx512 => {
                    while sj + 2 <= full_sj {
                        let b0s = &bpack[sj * kc * NR..][..kc * NR];
                        let b1s = &bpack[(sj + 1) * kc * NR..][..kc * NR];
                        for si in 0..full_si {
                            let astrip = &apack[si * kc * MR..][..kc * MR];
                            let off = si * MR * n + sj * NR;
                            simd::microkernel_avx512_pair(kc, astrip, b0s, b1s, oblock, off, n);
                        }
                        sj += 2;
                    }
                    // Odd leftover full strip: single-strip AVX2 kernel
                    // (fixed choice, so the tier stays deterministic).
                    if sj < full_sj {
                        let bstrip = &bpack[sj * kc * NR..][..kc * NR];
                        for si in 0..full_si {
                            let astrip = &apack[si * kc * MR..][..kc * MR];
                            let off = si * MR * n + sj * NR;
                            simd::microkernel_avx2_direct(kc, astrip, bstrip, oblock, off, n);
                        }
                        sj = full_sj;
                    }
                }
                SimdTier::Avx2 => {
                    while sj < full_sj {
                        let bstrip = &bpack[sj * kc * NR..][..kc * NR];
                        for si in 0..full_si {
                            let astrip = &apack[si * kc * MR..][..kc * MR];
                            let off = si * MR * n + sj * NR;
                            simd::microkernel_avx2_direct(kc, astrip, bstrip, oblock, off, n);
                        }
                        sj += 1;
                    }
                }
                SimdTier::Scalar => {
                    while sj < full_sj {
                        let bstrip = &bpack[sj * kc * NR..][..kc * NR];
                        for si in 0..full_si {
                            let astrip = &apack[si * kc * MR..][..kc * MR];
                            tile_acc(kc, astrip, bstrip, MR, NR, oblock, si * MR, sj * NR, n);
                        }
                        sj += 1;
                    }
                }
            }
            // Edge tiles — ragged last column strip over the full-row A
            // strips, then the partial-row A strip over every B strip —
            // always through the scalar micro-kernel + staging buffer
            // (a fixed per-tier choice; at most one strip each way).
            if sj < strips_n {
                let bstrip = &bpack[sj * kc * NR..][..kc * NR];
                let cols = n - sj * NR;
                for si in 0..full_si {
                    let astrip = &apack[si * kc * MR..][..kc * MR];
                    tile_acc(kc, astrip, bstrip, MR, cols, oblock, si * MR, sj * NR, n);
                }
            }
            if full_si * MR < mc {
                let rows = mc - full_si * MR;
                let astrip = &apack[full_si * kc * MR..][..kc * MR];
                for (sj, bstrip) in bpack.chunks_exact(kc * NR).enumerate().take(strips_n) {
                    let c0 = sj * NR;
                    let cols = NR.min(n - c0);
                    tile_acc(kc, astrip, bstrip, rows, cols, oblock, full_si * MR, c0, n);
                }
            }
        });
    }
}

#[inline(always)]
fn out_slice(block: &mut [f32], off: usize, len: usize) -> &mut [f32] {
    &mut block[off..off + len]
}

/// Output rows (columns of the left operand) per [`gram_tn`] task.
/// Fixed, never thread-derived: with the [`REDUCE_BLOCK`]-row blocks it
/// fixes the task grid — 2 blocks × 5 groups at the `8000 × 144` sketch
/// of `sbm_factor`. Each chunk of `b` is read once for the group's eight
/// tiles; 32 measured faster than 16 on one thread and on two (7.6
/// against 8.2–8.6 ms at `8000 × 144`, one thread).
const GRAM_GROUP: usize = 32;

/// Height of the [`gram_tn`] register tile: output rows whose
/// accumulators stay in registers while a task streams its rows.
pub(crate) const GRAM_TILE: usize = 4;

/// Rows a [`gram_tn`] task streams through every tile of its group
/// before moving on: the tiles' accumulators go to the task's `f64`
/// partial and come back (exact, so the order of additions is
/// untouched), while the chunk's rows of both operands stay in L1/L2
/// for all of the group's tiles. Chunks of 128–512 rows measured
/// fastest; streaming the whole 4096-row block per tile was ~40 % slower
/// (`8000 × 144`, one thread).
const GRAM_CHUNK: usize = 256;

/// `aᵀ·b` in `f64` for row-major `a` (`rows × c`) and `b` (`rows × k`):
/// the `c × k` result, row-major. Bitwise equal to
/// [`crate::reference::gram_tn_f64`] on every tier and at any thread
/// count.
///
/// The work is split into fixed tasks of one [`REDUCE_BLOCK`]-row block
/// times one [`GRAM_GROUP`] of output rows. Within a task every output
/// element is summed from `+0.0` over the block's rows in ascending
/// order — the reference's order — whether by the scalar loop or by a
/// SIMD register tile, whose fused multiply-adds round the same values
/// (an `f32·f32` product is exact in `f64`). The block partials are then
/// folded in block order, as the reference folds them.
///
/// When `b` is `a` itself (the same slice, as [`crate::svd::eig_svd`]
/// passes it) the product is symmetric and only one triangle is
/// computed: a task of the group starting at output row `j0` takes only
/// the columns `l ≥ j0`, and the strict lower triangle is then copied
/// from the upper one. That is bitwise the full product: `a_j·a_l` and
/// `a_l·a_j` are the same exact `f64` product, and both elements add
/// their products in the same row and block order. At `k = 144` the
/// tasks do 62 % of the full product's work.
pub fn gram_tn(a: &[f32], c: usize, b: &[f32], k: usize) -> Vec<f64> {
    if c == 0 || k == 0 {
        return vec![0.0; c * k];
    }
    let rows = a.len() / c;
    assert!(a.len() == rows * c && b.len() == rows * k, "gram shape mismatch");
    let symmetric = std::ptr::eq(a, b) && c == k;
    let (blocks, groups) = (rows.div_ceil(REDUCE_BLOCK), c.div_ceil(GRAM_GROUP));
    let tier = simd::active_tier();
    let parts: Vec<Vec<f64>> = (0..blocks * groups)
        .into_par_iter()
        .map(|t| {
            let (r0, j0) = ((t / groups) * REDUCE_BLOCK, (t % groups) * GRAM_GROUP);
            let (r1, j1) = ((r0 + REDUCE_BLOCK).min(rows), (j0 + GRAM_GROUP).min(c));
            let ls = if symmetric { j0 } else { 0 };
            let mut local = vec![0.0f64; (j1 - j0) * k];
            let (ab, bb) = (&a[r0 * c..r1 * c], &b[r0 * k..r1 * k]);
            gram_group(tier, ab, c, bb, k, j0..j1, ls, &mut local);
            local
        })
        .collect();
    let mut acc = vec![0.0f64; c * k];
    for (t, part) in parts.iter().enumerate() {
        let j0 = (t % groups) * GRAM_GROUP;
        for (x, &y) in acc[j0 * k..].iter_mut().zip(part) {
            *x += y;
        }
    }
    if symmetric {
        for j in 1..k {
            for l in 0..j {
                acc[j * k + l] = acc[l * k + j];
            }
        }
    }
    acc
}

/// One [`gram_tn`] task: `local[(j − js.start)·k + l] = Σ_rows a[j]·b[l]`
/// for `j ∈ js` and the columns `l ∈ ls..k`, over the rows of the block
/// `ab` / `bb`, taken [`GRAM_CHUNK`] rows at a time; the columns before
/// `ls` are left alone. On the SIMD tiers the whole [`GRAM_TILE`]-row
/// tiles run as register tiles over as many columns as the tier's
/// vectors cover; the ragged columns and rows run the scalar loop, which
/// is the whole task on the scalar tier.
#[expect(clippy::too_many_arguments, reason = "the task's block, output rows and first column")]
fn gram_group(
    tier: SimdTier,
    ab: &[f32],
    c: usize,
    bb: &[f32],
    k: usize,
    js: Range<usize>,
    ls: usize,
    local: &mut [f64],
) {
    let j0 = js.start;
    let tiled = match tier {
        SimdTier::Scalar => j0,
        SimdTier::Avx2 | SimdTier::Avx512 => j0 + js.len() / GRAM_TILE * GRAM_TILE,
    };
    let mut wa = Vec::new(); // the SIMD chunk kernels' widened columns of `a`
    for (ac, bc) in ab.chunks(GRAM_CHUNK * c).zip(bb.chunks(GRAM_CHUNK * k)) {
        let covered = if tiled > j0 {
            simd::gram_chunk(ac, c, j0..tiled, bc, k, ls, local, &mut wa)
        } else {
            ls
        };
        gram_scalar(ac, c, bc, k, j0, j0..tiled, covered..k, local);
        gram_scalar(ac, c, bc, k, j0, tiled..js.end, ls..k, local);
    }
}

/// The scalar tier of [`gram_group`] over output rows `js` and columns
/// `ls`: the reference's row loop, restricted.
#[expect(clippy::too_many_arguments, reason = "the reference's row loop over one output block")]
fn gram_scalar(
    ab: &[f32],
    c: usize,
    bb: &[f32],
    k: usize,
    j0: usize,
    js: Range<usize>,
    ls: Range<usize>,
    local: &mut [f64],
) {
    if js.is_empty() || ls.is_empty() {
        return;
    }
    for (arow, brow) in ab.chunks_exact(c).zip(bb.chunks_exact(k)) {
        for j in js.clone() {
            let a = arow[j] as f64;
            let dst = &mut local[(j - j0) * k + ls.start..(j - j0) * k + ls.end];
            for (d, &b) in dst.iter_mut().zip(&brow[ls.clone()]) {
                *d += a * b as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for l in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + l] * b[l * n + j];
                }
            }
        }
        out
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = lightne_utils::rng::XorShiftStream::new(seed, 0);
        (0..len).map(|_| rng.unit_f32() * 2.0 - 1.0).collect()
    }

    #[test]
    fn gemm_matches_naive_across_blocking_boundaries() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (MR - 1, NR + 1, 3),
            (MR, NR, KC),
            (MR + 1, NR - 1, KC + 1),
            (MC - 1, 2 * NR + 3, KC - 1),
            (MC + 1, NR, 2 * KC + 1),
            (3 * MR + 2, 3 * NR + 5, 37),
        ] {
            let a = fill(m * k, 1 + m as u64);
            let b = fill(k * n, 2 + n as u64);
            let mut out = vec![0.0f32; m * n];
            gemm(m, n, k, &a, &b, &mut out);
            let want = naive(m, n, k, &a, &b);
            let tol = 1e-4 * (k as f32).sqrt().max(1.0);
            for (got, want) in out.iter().zip(&want) {
                assert!((got - want).abs() < tol, "({m},{n},{k}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn gemm_degenerate_shapes() {
        let mut out = vec![0.0f32; 0];
        gemm(0, 4, 3, &[], &fill(12, 3), &mut out);
        let mut out = vec![7.0f32; 6];
        gemm(2, 3, 0, &[], &[], &mut out);
        assert_eq!(out, vec![7.0; 6]); // k = 0 leaves the accumulator alone
    }

    #[test]
    fn gemm_accumulates_into_out() {
        let a = fill(4, 5);
        let b = fill(4, 6);
        let mut out = vec![1.0f32; 4];
        gemm(2, 2, 2, &a, &b, &mut out);
        let want = naive(2, 2, 2, &a, &b);
        for (o, w) in out.iter().zip(&want) {
            assert!((o - (w + 1.0)).abs() < 1e-5);
        }
    }

    /// The symmetric path of [`gram_tn`] (`b` is `a`) against the general
    /// path on a copy of the same data, bitwise, on every runnable tier
    /// and at one and two threads. The widths cross the register tiles
    /// and [`GRAM_GROUP`]; the row counts cross [`GRAM_CHUNK`] and
    /// [`REDUCE_BLOCK`].
    #[test]
    fn symmetric_gram_is_the_full_gram_bitwise() {
        use lightne_utils::parallel::configure_threads;
        let _serial = simd::TIER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Miri runs the scalar tier only, and slowly: no 144-wide or
        // multi-block case there, and one thread (a second would start a
        // pool helper, which is parked and never joined).
        let (widths, rows, threads): (&[usize], &[usize], &[usize]) = if cfg!(miri) {
            (&[1, 3, 4, 7, 8, 15, 33], &[1, GRAM_CHUNK + 3], &[1])
        } else {
            (
                &[1, 3, 4, 7, 8, 15, 33, 144],
                &[1, GRAM_CHUNK + 3, REDUCE_BLOCK + GRAM_CHUNK + 5],
                &[1, 2],
            )
        };
        let bits = |g: &[f64]| g.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let detected = simd::detected_tier();
        for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
            if simd::set_tier(tier) != tier {
                continue;
            }
            for &threads in threads {
                configure_threads(threads);
                for &k in widths {
                    for &n in rows {
                        let x = fill(n * k, (n * 1000 + k) as u64);
                        let copy = x.clone();
                        let sym = gram_tn(&x, k, &x, k);
                        let full = gram_tn(&x, k, &copy, k);
                        let at = format!("{n} x {k}, {}, {threads} threads", tier.name());
                        assert_eq!(bits(&sym), bits(&full), "{at}");
                    }
                }
            }
        }
        simd::set_tier(detected);
        configure_threads(0);
    }

    #[test]
    fn transpose_tile_roundtrip() {
        let src = fill(5 * 9, 9);
        let mut dst = vec![0.0f32; 9 * 5];
        transpose_tile(&src, 9, &mut dst, 5, 5, 9);
        for r in 0..5 {
            for c in 0..9 {
                assert_eq!(dst[c * 5 + r], src[r * 9 + c]);
            }
        }
    }
}
