//! Explicit-SIMD kernels behind runtime CPU-feature dispatch — the
//! crate's **sole unsafe module** (every `std::arch` intrinsic call site in
//! the workspace lives here, inside `#[target_feature]` functions).
//!
//! # Dispatch model
//!
//! [`active_tier`] resolves once (cached in an atomic) to the highest
//! [`SimdTier`] the CPU supports ([`SimdTier::Scalar`] under miri, which
//! does not interpret the vector intrinsics); [`set_tier`] *lowers* it —
//! never raises it — in-process, which is how the kernel tests and
//! `bench_linalg_json` sweep every runnable tier. Because a requested
//! tier is clamped to the detected one, the `unsafe` dispatch into a
//! `#[target_feature]` kernel is sound by construction: the feature bit
//! was observed via `is_x86_feature_detected!` before the tier became
//! reachable. On non-x86_64 targets the tier is always
//! [`SimdTier::Scalar`] and the kernels here are unreachable stubs.
//!
//! # Determinism contract (per kernel)
//!
//! * [`gram_chunk`] — **bitwise identical** to the scalar loop: `f32`
//!   operands widened to `f64` multiply *exactly*
//!   (24-bit mantissas → ≤ 48-bit product < 53-bit mantissa),
//!   so a fused `vfmadd…pd` rounds once from the same exact value the
//!   scalar mul-then-add rounds from, and each accumulator sees the scalar
//!   loop's additions in the scalar loop's order. Lane assignment and the
//!   pairwise fold stay in [`crate::kernels`], shared with the scalar path.
//! * [`spmm_row`] — **bitwise identical**: separate multiply and add in
//!   the scalar source order (no FMA contraction), vectorized across
//!   independent output columns only.
//! * [`microkernel_avx2`] / [`microkernel_avx512`] — **tolerance, not
//!   bitwise**, vs the scalar GEMM micro-kernel: the `f32` FMAs round
//!   once where the scalar kernel rounds twice, and the AVX-512 variant
//!   splits the k-loop over two accumulator sets. Within one tier the
//!   result is still bitwise thread-count-deterministic (parallelism
//!   only ever splits the M dimension). The property tests bound the
//!   divergence at the same `√k`-scaled tolerance as the naive oracle.
//!
//! Every kernel run stays on one thread; no blocking parameter here
//! depends on the pool size, so each tier independently preserves the
//! PR 1 bitwise 1/2/8-thread determinism guarantee.

// This is the crate's designated unsafe module (the `expect` below
// against the workspace-wide `unsafe_code = "deny"`): the `std::arch`
// intrinsics need raw-pointer loads/stores, and a call into a
// `#[target_feature]` function from an ungated one needs `unsafe`, so
// confining both here keeps the rest of the crate `unsafe`-free.
#![expect(
    unsafe_code,
    reason = "the crate's one unsafe module: raw-pointer SIMD loads/stores and the calls into #[target_feature] kernels"
)]

use std::sync::atomic::{AtomicU8, Ordering};

/// The instruction-set tier the numeric kernels dispatch on. Ordered so
/// that `min` clamps a requested tier to the detected one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable scalar kernels (the PR 4 register-blocked code); also
    /// the correctness oracle for the SIMD tiers.
    Scalar = 0,
    /// AVX2 + FMA: 8-wide `f32`, 4-wide `f64`.
    Avx2 = 1,
    /// AVX-512F: 16-wide `f32` GEMM micro-kernel and 8-wide `f64` Gram
    /// tiles; the other vector kernels reuse the AVX2 implementations
    /// (already bandwidth-bound).
    Avx512 = 2,
}

impl SimdTier {
    /// Stable lower-case name, used in `RunStats` and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }

    fn from_u8(v: u8) -> SimdTier {
        match v {
            2 => SimdTier::Avx512,
            1 => SimdTier::Avx2,
            _ => SimdTier::Scalar,
        }
    }
}

const UNINIT: u8 = u8::MAX;
static ACTIVE: AtomicU8 = AtomicU8::new(UNINIT);

/// The highest tier this CPU supports, independent of any [`set_tier`]
/// (`is_x86_feature_detected!` caches the CPUID probe itself).
#[cfg(target_arch = "x86_64")]
pub fn detected_tier() -> SimdTier {
    if cfg!(miri) {
        return SimdTier::Scalar;
    }
    let avx2 =
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");
    if avx2 && std::arch::is_x86_feature_detected!("avx512f") {
        SimdTier::Avx512
    } else if avx2 {
        SimdTier::Avx2
    } else {
        SimdTier::Scalar
    }
}

/// The highest tier this CPU supports: only x86_64 has SIMD kernels.
#[cfg(not(target_arch = "x86_64"))]
pub fn detected_tier() -> SimdTier {
    SimdTier::Scalar
}

/// The tier the kernels currently dispatch on: the detected tier, unless
/// a [`set_tier`] call lowered it.
#[inline]
pub fn active_tier() -> SimdTier {
    // ordering: tier byte is a self-contained value, no data published
    // through it; racing initialisers converge on the same tier.
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != UNINIT {
        return SimdTier::from_u8(v);
    }
    set_tier(detected_tier())
}

/// Forces the dispatch tier for this process, clamped to the detected
/// tier (requesting a tier the CPU lacks selects the best available one
/// instead — the request can only *lower* the tier, which is what keeps
/// the `#[target_feature]` dispatch sound). Returns the tier actually
/// installed. The kernel determinism/property tests and
/// `bench_linalg_json` sweep every runnable tier with it.
pub fn set_tier(requested: SimdTier) -> SimdTier {
    let tier = requested.min(detected_tier());
    // ordering: see `active_tier`.
    ACTIVE.store(tier as u8, Ordering::Relaxed);
    tier
}

/// Comma-separated list of the detected CPU features the dispatch layer
/// considers, recorded in `RunStats` so bench JSONs are attributable to
/// a CPU class.
pub fn detected_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut out = Vec::new();
        for (name, present) in [
            ("sse2", true),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if present {
                out.push(name);
            }
        }
        out.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::new()
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `#[target_feature]` kernel bodies. Each public wrapper holds
    //! the single `unsafe` dispatch site; its safety rests on the
    //! [`super::active_tier`] clamp (a SIMD tier is only reachable after
    //! `is_x86_feature_detected!` confirmed the feature).

    use super::SimdTier;
    use crate::dense::DenseMatrix;
    use crate::kernels::{GRAM_TILE, MR, NR};
    use crate::sparse::SPMM_PREFETCH;
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// AVX2+FMA micro-kernel with direct writeback: accumulates the
    /// register tile over the packed strips like [`mk_avx2`], then adds
    /// it straight into the output rows at `out[off + r·stride ..]` —
    /// skipping the staging buffer saves a second pass over every full
    /// tile (the scalar path's per-element writeback was ~30% of GEMM
    /// wall time). Full `MR×NR` tiles only.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (guaranteed by the dispatching wrapper).
    // SAFETY: pointer arithmetic is bounded by the shape asserts below;
    // the feature guard is the wrapper's detection clamp.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn mk_avx2_direct(
        kc: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        off: usize,
        stride: usize,
    ) {
        assert!(
            a.len() >= kc * MR
                && b.len() >= kc * NR
                && stride >= NR
                && out.len() >= off + (MR - 1) * stride + NR,
            "direct tile out of bounds"
        );
        // SAFETY: loads stay inside the asserted `kc`-deep packed
        // strips; the writeback touches rows `off + r·stride` for
        // r < MR, NR floats each, all inside `out` by the assert.
        unsafe {
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let mut c: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
            for kk in 0..kc {
                let b0 = _mm256_loadu_ps(bp.add(kk * NR));
                let b1 = _mm256_loadu_ps(bp.add(kk * NR + 8));
                for (r, cr) in c.iter_mut().enumerate() {
                    let ar = _mm256_set1_ps(*ap.add(kk * MR + r));
                    cr[0] = _mm256_fmadd_ps(ar, b0, cr[0]);
                    cr[1] = _mm256_fmadd_ps(ar, b1, cr[1]);
                }
            }
            let op = out.as_mut_ptr().add(off);
            for (r, cr) in c.iter().enumerate() {
                let p = op.add(r * stride);
                _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), cr[0]));
                _mm256_storeu_ps(p.add(8), _mm256_add_ps(_mm256_loadu_ps(p.add(8)), cr[1]));
            }
        }
    }

    /// AVX-512F paired-strip micro-kernel with direct writeback: one
    /// `MR×2NR` register tile over two adjacent packed B strips (eight
    /// independent FMA chains — both FMA ports busy without the k-unroll
    /// the single-strip variant needs), accumulated straight into
    /// `out[off + r·stride ..]`. Full tiles only.
    ///
    /// # Safety
    /// Requires AVX-512F (guaranteed by the dispatching wrapper).
    // SAFETY: pointer arithmetic is bounded by the shape asserts below;
    // the feature guard is the wrapper's detection clamp.
    #[target_feature(enable = "avx512f")]
    unsafe fn mk_avx512_pair(
        kc: usize,
        a: &[f32],
        b0s: &[f32],
        b1s: &[f32],
        out: &mut [f32],
        off: usize,
        stride: usize,
    ) {
        assert!(
            a.len() >= kc * MR
                && b0s.len() >= kc * NR
                && b1s.len() >= kc * NR
                && stride >= 2 * NR
                && out.len() >= off + (MR - 1) * stride + 2 * NR,
            "direct pair tile out of bounds"
        );
        // SAFETY: loads stay inside the asserted `kc`-deep packed
        // strips; the writeback touches rows `off + r·stride` for
        // r < MR, 2·NR floats each, all inside `out` by the assert.
        unsafe {
            let ap = a.as_ptr();
            let bp0 = b0s.as_ptr();
            let bp1 = b1s.as_ptr();
            let mut c: [[__m512; 2]; MR] = [[_mm512_setzero_ps(); 2]; MR];
            for kk in 0..kc {
                let b0 = _mm512_loadu_ps(bp0.add(kk * NR));
                let b1 = _mm512_loadu_ps(bp1.add(kk * NR));
                for (r, cr) in c.iter_mut().enumerate() {
                    let ar = _mm512_set1_ps(*ap.add(kk * MR + r));
                    cr[0] = _mm512_fmadd_ps(ar, b0, cr[0]);
                    cr[1] = _mm512_fmadd_ps(ar, b1, cr[1]);
                }
            }
            let op = out.as_mut_ptr().add(off);
            for (r, cr) in c.iter().enumerate() {
                let p = op.add(r * stride);
                _mm512_storeu_ps(p, _mm512_add_ps(_mm512_loadu_ps(p), cr[0]));
                _mm512_storeu_ps(p.add(NR), _mm512_add_ps(_mm512_loadu_ps(p.add(NR)), cr[1]));
            }
        }
    }

    /// One column strip of a [`crate::kernels::gram_tn`] register tile:
    /// `out[r·k + l] += Σᵢ a[i][t + r] · b[i][l]` for the `GRAM_TILE`
    /// rows `r` from `t` and the `8·N` columns `l` from `l0`, over every
    /// row `i` of the chunk. `wa` holds the chunk's tiled columns of `a`
    /// already widened, `gt` per row, so each `a` value is a broadcast
    /// load; `bb` is the chunk of `b`, widened here. The `4·N`
    /// accumulators start from `out`, stay in registers while the rows
    /// stream in ascending order, and are stored once: per element the
    /// scalar loop's sequence of additions, each rounding the same exact
    /// widened product.
    ///
    /// # Safety
    /// Requires AVX-512F (guaranteed by the dispatching wrapper).
    // SAFETY: pointer arithmetic is bounded by the shape asserts below;
    // the feature guard is the wrapper's detection clamp.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn gram_strip_avx512<const N: usize>(
        wa: &[f64],
        gt: usize,
        t: usize,
        bb: &[f32],
        k: usize,
        l0: usize,
        out: &mut [f64],
    ) {
        let rows = bb.len() / k;
        assert!(
            t + GRAM_TILE <= gt
                && l0 + 8 * N <= k
                && wa.len() == rows * gt
                && bb.len() == rows * k
                && out.len() >= (GRAM_TILE - 1) * k + l0 + 8 * N,
            "gram strip out of bounds"
        );
        // SAFETY: row `i < rows` reads `wa[i·gt + t .. + GRAM_TILE]`
        // (t + GRAM_TILE ≤ gt) and floats `i·k + l0 .. + 8N` of `bb`
        // (l0 + 8N ≤ k); the tile touches `out[r·k + l0 .. + 8N]` for
        // r < GRAM_TILE, all inside the asserted lengths.
        unsafe {
            let op = out.as_mut_ptr().add(l0);
            let mut acc = [[_mm512_setzero_pd(); N]; GRAM_TILE];
            for (r, ar) in acc.iter_mut().enumerate() {
                for (v, x) in ar.iter_mut().enumerate() {
                    *x = _mm512_loadu_pd(op.add(r * k + 8 * v));
                }
            }
            let (ap, bp) = (wa.as_ptr().add(t), bb.as_ptr().add(l0));
            for i in 0..rows {
                let (ai, bi) = (ap.add(i * gt), bp.add(i * k));
                let mut bw = [_mm512_setzero_pd(); N];
                for (v, x) in bw.iter_mut().enumerate() {
                    *x = _mm512_cvtps_pd(_mm256_loadu_ps(bi.add(8 * v)));
                }
                for (r, ar) in acc.iter_mut().enumerate() {
                    let aw = _mm512_set1_pd(*ai.add(r));
                    for (x, &y) in ar.iter_mut().zip(&bw) {
                        *x = _mm512_fmadd_pd(aw, y, *x);
                    }
                }
            }
            for (r, ar) in acc.iter().enumerate() {
                for (v, x) in ar.iter().enumerate() {
                    _mm512_storeu_pd(op.add(r * k + 8 * v), *x);
                }
            }
        }
    }

    /// `wa ← a[i][js]` widened to `f64`, row by row: the tiled columns of
    /// one chunk, copied once so the strips broadcast them from memory
    /// instead of converting each `a` value once per strip. Plain code,
    /// inlined into each tier's chunk kernel and vectorized there.
    #[inline(always)]
    fn widen_columns(ac: &[f32], c: usize, js: Range<usize>, wa: &mut Vec<f64>) {
        let gt = js.len();
        wa.resize(ac.len() / c * gt, 0.0);
        for (w, arow) in wa.chunks_exact_mut(gt).zip(ac.chunks_exact(c)) {
            for (x, &y) in w.iter_mut().zip(&arow[js.clone()]) {
                *x = y as f64;
            }
        }
    }

    /// One `GRAM_CHUNK`-row chunk of a [`crate::kernels::gram_tn`] task on
    /// AVX-512: the output rows `js` (whole tiles, from the task's first
    /// row) over the first `k − k mod 8` columns, in strips of 32, 16 and
    /// 8 columns ([`gram_strip_avx512`]). Returns the number of columns
    /// covered.
    ///
    /// # Safety
    /// Requires AVX-512F (guaranteed by the dispatching wrapper).
    // SAFETY: delegates to `gram_strip_avx512`, which asserts its own
    // bounds; the feature guard is the wrapper's detection clamp.
    #[target_feature(enable = "avx512f")]
    unsafe fn gram_chunk_avx512_impl(
        ac: &[f32],
        c: usize,
        js: Range<usize>,
        bc: &[f32],
        k: usize,
        local: &mut [f64],
        wa: &mut Vec<f64>,
    ) -> usize {
        let gt = js.len();
        widen_columns(ac, c, js, wa);
        let mut l0 = 0;
        for t in (0..gt).step_by(GRAM_TILE) {
            let out = &mut local[t * k..];
            l0 = 0;
            // SAFETY: AVX-512F is enabled on this function, so calling
            // the same-feature strip kernels is sound.
            unsafe {
                while l0 + 32 <= k {
                    gram_strip_avx512::<4>(wa, gt, t, bc, k, l0, out);
                    l0 += 32;
                }
                if l0 + 16 <= k {
                    gram_strip_avx512::<2>(wa, gt, t, bc, k, l0, out);
                    l0 += 16;
                }
                if l0 + 8 <= k {
                    gram_strip_avx512::<1>(wa, gt, t, bc, k, l0, out);
                    l0 += 8;
                }
            }
        }
        l0
    }

    /// [`gram_strip_avx512`] on AVX2: `4·N`-column strips of 4-lane
    /// registers, the same per-element order.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (guaranteed by the dispatching wrapper).
    // SAFETY: pointer arithmetic is bounded by the shape asserts below;
    // the feature guard is the wrapper's detection clamp.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn gram_strip_avx2<const N: usize>(
        wa: &[f64],
        gt: usize,
        t: usize,
        bb: &[f32],
        k: usize,
        l0: usize,
        out: &mut [f64],
    ) {
        let rows = bb.len() / k;
        assert!(
            t + GRAM_TILE <= gt
                && l0 + 4 * N <= k
                && wa.len() == rows * gt
                && bb.len() == rows * k
                && out.len() >= (GRAM_TILE - 1) * k + l0 + 4 * N,
            "gram strip out of bounds"
        );
        // SAFETY: as in `gram_strip_avx512`, with 4N-float column strips.
        unsafe {
            let op = out.as_mut_ptr().add(l0);
            let mut acc = [[_mm256_setzero_pd(); N]; GRAM_TILE];
            for (r, ar) in acc.iter_mut().enumerate() {
                for (v, x) in ar.iter_mut().enumerate() {
                    *x = _mm256_loadu_pd(op.add(r * k + 4 * v));
                }
            }
            let (ap, bp) = (wa.as_ptr().add(t), bb.as_ptr().add(l0));
            for i in 0..rows {
                let (ai, bi) = (ap.add(i * gt), bp.add(i * k));
                let mut bw = [_mm256_setzero_pd(); N];
                for (v, x) in bw.iter_mut().enumerate() {
                    *x = _mm256_cvtps_pd(_mm_loadu_ps(bi.add(4 * v)));
                }
                for (r, ar) in acc.iter_mut().enumerate() {
                    let aw = _mm256_broadcast_sd(&*ai.add(r));
                    for (x, &y) in ar.iter_mut().zip(&bw) {
                        *x = _mm256_fmadd_pd(aw, y, *x);
                    }
                }
            }
            for (r, ar) in acc.iter().enumerate() {
                for (v, x) in ar.iter().enumerate() {
                    _mm256_storeu_pd(op.add(r * k + 4 * v), *x);
                }
            }
        }
    }

    /// [`gram_chunk_avx512_impl`] on AVX2: the first `k − k mod 4`
    /// columns in strips of 12, 8 and 4 (twelve accumulators leave the
    /// sixteen registers room for the operands). Returns the number of
    /// columns covered.
    ///
    /// # Safety
    /// Requires AVX2 and FMA (guaranteed by the dispatching wrapper).
    // SAFETY: delegates to `gram_strip_avx2`, which asserts its own
    // bounds; the feature guard is the wrapper's detection clamp.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gram_chunk_avx2_impl(
        ac: &[f32],
        c: usize,
        js: Range<usize>,
        bc: &[f32],
        k: usize,
        local: &mut [f64],
        wa: &mut Vec<f64>,
    ) -> usize {
        let gt = js.len();
        widen_columns(ac, c, js, wa);
        let mut l0 = 0;
        for t in (0..gt).step_by(GRAM_TILE) {
            let out = &mut local[t * k..];
            l0 = 0;
            // SAFETY: AVX2 and FMA are enabled on this function, so
            // calling the same-feature strip kernels is sound.
            unsafe {
                while l0 + 12 <= k {
                    gram_strip_avx2::<3>(wa, gt, t, bc, k, l0, out);
                    l0 += 12;
                }
                if l0 + 8 <= k {
                    gram_strip_avx2::<2>(wa, gt, t, bc, k, l0, out);
                    l0 += 8;
                }
                if l0 + 4 <= k {
                    gram_strip_avx2::<1>(wa, gt, t, bc, k, l0, out);
                    l0 += 4;
                }
            }
        }
        l0
    }

    /// One column strip of [`spmm_row_avx2`]: the first `8·N` floats of
    /// `acc` are output columns `j0..j0 + 8·N`, held in `N` 8-lane
    /// registers across the whole row and each updated per stored entry
    /// as `acc + v·x` — multiply then add, no FMA — in entry order from
    /// `+0.0`, which is the scalar loop's operation sequence for every
    /// output element. Returns the rest of `acc`.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the dispatching wrapper).
    // SAFETY: every load goes through a bounds-checked sub-slice of `x`
    // and the stores through one of `acc`; the feature guard is the
    // wrapper's detection clamp.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn spmm_strip_avx2<'a, const N: usize>(
        cols: &[u32],
        vals: &[f32],
        x: &[f32],
        d: usize,
        j0: usize,
        acc: &'a mut [f32],
    ) -> &'a mut [f32] {
        let (out, rest) = acc.split_at_mut(8 * N);
        let mut r = [_mm256_setzero_ps(); N];
        for (k, (&c, &v)) in cols.iter().zip(vals).enumerate() {
            if let Some(&cn) = cols.get(k + SPMM_PREFETCH) {
                // A hint only: wrapping arithmetic, never dereferenced.
                let next: *const u8 = x.as_ptr().wrapping_add(cn as usize * d + j0).cast();
                for line in 0..N.div_ceil(2) {
                    _mm_prefetch::<_MM_HINT_T0>(next.wrapping_add(64 * line).cast());
                }
            }
            let base = c as usize * d + j0;
            let xr = &x[base..base + 8 * N];
            let vv = _mm256_set1_ps(v);
            for (i, ri) in r.iter_mut().enumerate() {
                // SAFETY: `xr` is exactly 8·N floats (sliced above) and
                // i < N, so the 8-float load at 8·i is in bounds.
                let xv = unsafe { _mm256_loadu_ps(xr.as_ptr().add(8 * i)) };
                *ri = _mm256_add_ps(*ri, _mm256_mul_ps(vv, xv));
            }
        }
        for (i, ri) in r.iter().enumerate() {
            // SAFETY: `out` is exactly 8·N floats (split above), i < N.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(8 * i), *ri) };
        }
        rest
    }

    /// Row accumulation of the fused SPMM
    /// ([`crate::sparse::CsrMatrix::spmm_fused`]): `acc[j] = Σₖ vals[k] ·
    /// x[cols[k]][j]` for `j < d = x.cols()`; `acc` holds `d` floats. The
    /// row is walked once per column strip of 64/32/16/8 floats with the
    /// strip's accumulators in registers, then once more for the
    /// `d mod 8` tail columns in scalar code. Bitwise identical to the
    /// scalar row loop, [`crate::sparse::spmm_row_scalar`] (see module
    /// docs).
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the dispatching wrapper).
    // SAFETY: delegates to `spmm_strip_avx2`, whose accesses are all
    // bounds-checked slices; the feature guard is the wrapper's clamp.
    #[target_feature(enable = "avx2")]
    unsafe fn spmm_row_avx2(cols: &[u32], vals: &[f32], x: &DenseMatrix, acc: &mut [f32]) {
        let (d, xs) = (x.cols(), x.as_slice());
        let mut rest = acc;
        // SAFETY: AVX2 is enabled on this function, so calling the
        // same-feature strip kernels is sound.
        unsafe {
            while rest.len() >= 64 {
                rest = spmm_strip_avx2::<8>(cols, vals, xs, d, d - rest.len(), rest);
            }
            if rest.len() >= 32 {
                rest = spmm_strip_avx2::<4>(cols, vals, xs, d, d - rest.len(), rest);
            }
            if rest.len() >= 16 {
                rest = spmm_strip_avx2::<2>(cols, vals, xs, d, d - rest.len(), rest);
            }
            if rest.len() >= 8 {
                rest = spmm_strip_avx2::<1>(cols, vals, xs, d, d - rest.len(), rest);
            }
        }
        let j = d - rest.len();
        rest.fill(0.0);
        for (&c, &v) in cols.iter().zip(vals) {
            for (a, &xv) in rest.iter_mut().zip(x.row(c as usize).iter().skip(j)) {
                *a += v * xv;
            }
        }
    }

    /// Issues a best-effort read prefetch for the cache line at `ptr`
    /// into all cache levels. A pure scheduling hint: prefetch never
    /// faults, never reads architecturally, and never changes results.
    ///
    /// PREFETCHT0 is an architectural no-op on invalid addresses — it
    /// never faults and never dereferences `ptr`, so this fn is safe.
    // SAFETY: PREFETCHT0 only hints the cache hierarchy; it performs no
    // architectural load, so any `ptr` value (even dangling) is fine.
    #[target_feature(enable = "sse")]
    fn prefetch_raw(ptr: *const u8) {
        _mm_prefetch::<_MM_HINT_T0>(ptr.cast())
    }

    /// Best-effort read prefetch of the cache line holding `ptr`. A pure
    /// scheduling hint: it never faults and never changes results.
    #[expect(
        clippy::not_unsafe_ptr_arg_deref,
        reason = "PREFETCHT0 performs no architectural dereference (doc above), so a safe raw-pointer API is sound"
    )]
    #[inline(always)]
    pub fn prefetch_read(ptr: *const u8) {
        // SAFETY: the only feature `prefetch_raw` needs is SSE, which is
        // statically part of the x86_64 baseline every build here
        // targets (the compiler merely insists it be spelled out).
        unsafe { prefetch_raw(ptr) }
    }

    /// AVX2 GEMM micro-kernel, direct writeback (see [`mk_avx2_direct`]).
    #[inline]
    pub fn microkernel_avx2_direct(
        kc: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        off: usize,
        stride: usize,
    ) {
        // SAFETY: reachable only when active_tier() >= Avx2, which the
        // clamp in set_tier ties to is_x86_feature_detected!
        // having confirmed avx2+fma on this CPU.
        unsafe { mk_avx2_direct(kc, a, b, out, off, stride) }
    }

    /// AVX-512 paired-strip GEMM micro-kernel, direct writeback (see
    /// [`mk_avx512_pair`]).
    #[inline]
    pub fn microkernel_avx512_pair(
        kc: usize,
        a: &[f32],
        b0s: &[f32],
        b1s: &[f32],
        out: &mut [f32],
        off: usize,
        stride: usize,
    ) {
        // SAFETY: reachable only when active_tier() == Avx512, which the
        // clamp in set_tier ties to is_x86_feature_detected!
        // having confirmed avx512f on this CPU.
        unsafe { mk_avx512_pair(kc, a, b0s, b1s, out, off, stride) }
    }

    /// One `GRAM_CHUNK`-row chunk of a [`crate::kernels::gram_tn`] task
    /// on the active tier ([`gram_chunk_avx512_impl`],
    /// [`gram_chunk_avx2_impl`]): returns how many leading columns it
    /// covered, none on the scalar tier.
    #[inline]
    pub(crate) fn gram_chunk(
        ac: &[f32],
        c: usize,
        js: Range<usize>,
        bc: &[f32],
        k: usize,
        local: &mut [f64],
        wa: &mut Vec<f64>,
    ) -> usize {
        match super::active_tier() {
            // SAFETY: active_tier() is clamped to the detected tier, so
            // Avx512 means is_x86_feature_detected! confirmed avx512f.
            SimdTier::Avx512 => unsafe { gram_chunk_avx512_impl(ac, c, js, bc, k, local, wa) },
            // SAFETY: likewise, Avx2 means avx2 and fma were detected.
            SimdTier::Avx2 => unsafe { gram_chunk_avx2_impl(ac, c, js, bc, k, local, wa) },
            SimdTier::Scalar => 0,
        }
    }

    /// Vectorized SPMM row accumulation (see [`spmm_row_avx2`]).
    #[inline]
    pub fn spmm_row(cols: &[u32], vals: &[f32], x: &DenseMatrix, acc: &mut [f32]) {
        // SAFETY: reachable only when active_tier() >= Avx2 (detection
        // clamp, see microkernel_avx2).
        unsafe { spmm_row_avx2(cols, vals, x, acc) }
    }
}

#[cfg(target_arch = "x86_64")]
pub use x86::*;

#[cfg(not(target_arch = "x86_64"))]
mod fallback {
    //! Unreachable stubs: off x86_64 [`super::active_tier`] is always
    //! [`super::SimdTier::Scalar`], so the dispatch arms calling these
    //! never execute.

    use crate::dense::DenseMatrix;
    use std::ops::Range;

    /// No-op on non-x86_64 targets (no portable prefetch hint).
    #[inline(always)]
    pub fn prefetch_read(_ptr: *const u8) {}

    /// Unreachable off x86_64 (dispatch never selects a SIMD tier).
    #[expect(
        clippy::unreachable,
        reason = "cfg stub: dispatch clamps to Scalar off x86_64, so no caller ever reaches a SIMD tier here"
    )]
    pub fn microkernel_avx2_direct(
        _: usize,
        _: &[f32],
        _: &[f32],
        _: &mut [f32],
        _: usize,
        _: usize,
    ) {
        unreachable!("SIMD tier selected off x86_64")
    }

    /// Unreachable off x86_64 (dispatch never selects a SIMD tier).
    #[expect(
        clippy::unreachable,
        reason = "cfg stub: dispatch clamps to Scalar off x86_64, so no caller ever reaches a SIMD tier here"
    )]
    pub fn microkernel_avx512_pair(
        _: usize,
        _: &[f32],
        _: &[f32],
        _: &[f32],
        _: &mut [f32],
        _: usize,
        _: usize,
    ) {
        unreachable!("SIMD tier selected off x86_64")
    }

    /// Off x86_64 there are no register tiles: no column is covered and
    /// the scalar loop computes the whole chunk.
    pub(crate) fn gram_chunk(
        _: &[f32],
        _: usize,
        _: Range<usize>,
        _: &[f32],
        _: usize,
        _: &mut [f64],
        _: &mut Vec<f64>,
    ) -> usize {
        0
    }

    /// Off x86_64 the dispatch never selects a SIMD tier; the scalar
    /// loop is the definition of the bytes in any case.
    pub fn spmm_row(cols: &[u32], vals: &[f32], x: &DenseMatrix, acc: &mut [f32]) {
        crate::sparse::spmm_row_scalar(cols, vals, x, acc)
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub use fallback::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_ordering_supports_clamping() {
        assert!(SimdTier::Scalar < SimdTier::Avx2);
        assert!(SimdTier::Avx2 < SimdTier::Avx512);
        assert_eq!(SimdTier::Avx512.min(SimdTier::Scalar), SimdTier::Scalar);
    }

    #[test]
    fn set_tier_clamps_to_detected() {
        let det = detected_tier();
        assert_eq!(set_tier(SimdTier::Avx512), det.min(SimdTier::Avx512));
        assert_eq!(set_tier(SimdTier::Scalar), SimdTier::Scalar);
        assert_eq!(active_tier(), SimdTier::Scalar);
        // Restore the best tier for the rest of the test binary.
        set_tier(det);
    }

    #[test]
    fn detected_features_lists_baseline() {
        let f = detected_features();
        if cfg!(target_arch = "x86_64") {
            assert!(f.contains("sse2"), "{f}");
        }
    }
}
