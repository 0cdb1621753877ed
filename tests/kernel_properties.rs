//! Property tests pinning the register-blocked kernels (packed GEMM,
//! panel BCGS2 QR, blocked round-robin Jacobi SVD, cache-blocked
//! transpose) against the pre-blocking naive implementations kept in
//! [`lightne::linalg::reference`].
//!
//! The blocked kernels use different summation bracketing than the naive
//! loops, so results match up to f32 rounding, not bitwise — except the
//! transpose, which only moves values, and the register-tiled Gram
//! product and multi-dot projection coefficients, which keep their
//! oracles' per-element order of additions. Shapes deliberately straddle the
//! tile boundaries of the packed GEMM (MR = 4, NR = 16, KC = 256,
//! MC = 128) and the QR panel width (16), where packing tail handling
//! lives.

use lightne::linalg::qr::orthonormalize_columns;
use lightne::linalg::simd::{detected_tier, set_tier, SimdTier};
use lightne::linalg::svd::jacobi_svd;
use lightne::linalg::{reference, DenseMatrix};

/// Absolute tolerance for comparing two f32 summations of `k` products
/// of unit-scale gaussians (error grows like `k·ε·√k`, this is ~25×
/// slack over that).
fn sum_tol(k: usize) -> f32 {
    1e-3 * (k.max(1) as f32).sqrt()
}

#[test]
fn packed_gemm_matches_reference_at_tile_boundaries() {
    // (m, k, n) straddling MR (4), NR (16), KC (256) and MC (128) ± 1,
    // plus degenerate shapes.
    let shapes = [
        (0usize, 8usize, 8usize),
        (8, 0, 8),
        (8, 8, 0),
        (1, 1, 1),
        (3, 5, 15),
        (4, 5, 16),
        (5, 5, 17),
        (127, 255, 15),
        (128, 256, 16),
        (129, 257, 17),
    ];
    for (m, k, n) in shapes {
        let a = DenseMatrix::gaussian(m, k, 11 + (m + k + n) as u64);
        let b = DenseMatrix::gaussian(k, n, 13 + (m * 31 + n) as u64);
        let blocked = a.matmul(&b);
        let naive = reference::matmul(&a, &b);
        assert_eq!(blocked.rows(), m);
        assert_eq!(blocked.cols(), n);
        let diff = blocked.max_abs_diff(&naive);
        assert!(diff <= sum_tol(k), "({m}x{k})·({k}x{n}): diff {diff} > {}", sum_tol(k));
    }
}

/// Serializes the tests that flip the process-global dispatch tier:
/// without it, two tier-forcing tests racing on `set_tier` could take a
/// "scalar" baseline on a vector tier. (The reference-comparison tests
/// don't need the lock — they hold to tolerance on every tier.)
static TIER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` once per SIMD tier the host can execute beyond scalar,
/// handing it the tier; restores the detected tier afterwards. Skips
/// silently on scalar-only hardware — the dispatch tests then reduce to
/// "scalar equals scalar", which `kernel_determinism.rs` already pins.
fn for_each_simd_tier(mut f: impl FnMut(SimdTier)) {
    for tier in [SimdTier::Avx2, SimdTier::Avx512] {
        if set_tier(tier) == tier {
            f(tier);
        }
    }
    set_tier(detected_tier());
}

#[test]
fn simd_gemm_matches_scalar_at_tile_boundaries() {
    let _serial = TIER_LOCK.lock().unwrap();
    // The SIMD micro-kernels contract mul+add into FMA, so GEMM matches
    // the scalar tier to summation tolerance, not bitwise (the one
    // documented divergence — see lightne_linalg::simd). Shapes straddle
    // the MR/NR/KC/MC boundaries where the ragged-edge tiles (always
    // computed by the scalar `tile_acc` oracle on every tier) meet the
    // vectorized full tiles, plus the AVX-512 paired-strip boundary
    // (n = 2·NR ± strip).
    let shapes = [
        (3usize, 5usize, 15usize),
        (4, 5, 16),
        (5, 5, 17),
        (8, 300, 32),
        (9, 300, 48),
        (127, 255, 15),
        (128, 256, 16),
        (129, 257, 17),
        (130, 258, 33),
    ];
    for (m, k, n) in shapes {
        let a = DenseMatrix::gaussian(m, k, 211 + (m + k + n) as u64);
        let b = DenseMatrix::gaussian(k, n, 223 + (m * 31 + n) as u64);
        set_tier(SimdTier::Scalar);
        let scalar = a.matmul(&b);
        for_each_simd_tier(|tier| {
            let vectored = a.matmul(&b);
            let diff = vectored.max_abs_diff(&scalar);
            assert!(
                diff <= sum_tol(k),
                "({m}x{k})·({k}x{n}) on {}: diff {diff} > {}",
                tier.name(),
                sum_tol(k)
            );
        });
    }
}

#[test]
fn simd_qr_and_jacobi_match_scalar_bitwise() {
    let _serial = TIER_LOCK.lock().unwrap();
    // Everything except GEMM keeps scalar evaluation order on the SIMD
    // tiers (f32→f64 widening makes `fmadd_pd` exact; the elementwise
    // kernels use separate mul+add), so QR and the Jacobi SVD are
    // *bitwise* identical across dispatch paths. 20 columns straddles
    // the QR panel width (16); 37 columns exercises the rot2/gram2
    // 4-lane and GRAM_LANES tails.
    let x = DenseMatrix::gaussian(1000, 20, 97);
    let j = DenseMatrix::gaussian(48, 37, 98);
    set_tier(SimdTier::Scalar);
    let mut q_scalar = x.clone();
    orthonormalize_columns(&mut q_scalar);
    let svd_scalar = jacobi_svd(&j);
    for_each_simd_tier(|tier| {
        let mut q = x.clone();
        orthonormalize_columns(&mut q);
        for (a, b) in q.as_slice().iter().zip(q_scalar.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "QR bytes differ on {}", tier.name());
        }
        let svd = jacobi_svd(&j);
        for (a, b) in svd.sigma.iter().zip(&svd_scalar.sigma) {
            assert_eq!(a.to_bits(), b.to_bits(), "sigma bytes differ on {}", tier.name());
        }
        for (a, b) in svd.u.as_slice().iter().zip(svd_scalar.u.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "U bytes differ on {}", tier.name());
        }
    });
}

/// Runs `f` on every tier the host can execute, scalar included, at 1,
/// 2 and 8 threads, naming the case; restores the tier and the pool.
fn for_each_tier_and_thread_count(mut f: impl FnMut(&str)) {
    use lightne::utils::parallel::configure_threads;
    for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
        if set_tier(tier) != tier {
            continue; // host cannot run this tier
        }
        for threads in [1usize, 2, 8] {
            configure_threads(threads);
            f(&format!("{} tier, {threads} threads", tier.name()));
        }
    }
    set_tier(detected_tier());
    configure_threads(0);
}

fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn tiled_gram_tn_matches_reference_bitwise() {
    use lightne::linalg::kernels::gram_tn;
    let _serial = TIER_LOCK.lock().unwrap();
    // Widths straddle the 4-row register tile, the 8/16/32-column (AVX-512)
    // and 4/8/12-column (AVX2) strips and the 32-row task group; rows
    // straddle the 4096-row block (one, two and three blocks folded) and
    // the 256-row chunk. Every width is paired with a rotating partner
    // (A ≠ B) and with itself (A = B, the Gram matrix of one operand).
    // The `f64` sums are compared, not only their `f32` casts, which
    // would hide a change in the order of additions.
    const WIDTHS: [usize; 14] = [1, 3, 4, 7, 8, 9, 16, 17, 24, 33, 48, 80, 128, 144];
    let f64_bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
    let mut cases = Vec::new();
    for (ri, rows) in [1usize, 4095, 4096, 4097, 8000, 9000].into_iter().enumerate() {
        for (i, &c) in WIDTHS.iter().enumerate() {
            let k = WIDTHS[(i + 1 + 3 * ri) % WIDTHS.len()];
            let a = DenseMatrix::gaussian(rows, c, 1000 + (rows * 131 + c) as u64);
            let b = DenseMatrix::gaussian(rows, k, 2000 + (rows * 137 + k) as u64);
            let want_ab = f64_bits(reference::gram_tn_f64(&a, &b));
            let want_aa = f64_bits(reference::gram_tn_f64(&a, &a));
            let want_f32 = bits(&reference::gram_tn(&a, &b));
            cases.push((a, b, want_ab, want_aa, want_f32));
        }
    }
    for_each_tier_and_thread_count(|at| {
        for (a, b, want_ab, want_aa, want_f32) in &cases {
            let (c, k) = (a.cols(), b.cols());
            let shape = format!("{}x({c}, {k})", a.rows());
            let (sa, sb) = (a.as_slice(), b.as_slice());
            assert_eq!(&f64_bits(gram_tn(sa, c, sb, k)), want_ab, "AᵀB, {shape}: {at}");
            assert_eq!(&f64_bits(gram_tn(sa, c, sa, c)), want_aa, "AᵀA, {shape}: {at}");
            assert_eq!(&bits(&a.gram_tn(b)), want_f32, "DenseMatrix AᵀB, {shape}: {at}");
        }
    });
}

#[test]
fn multi_dot_proj_coef_matches_per_pair_dots_bitwise() {
    use lightne::linalg::kernels::{dot_f64, proj_coef};
    let _serial = TIER_LOCK.lock().unwrap();
    // Panel widths that leave 1, 2 and 3 rows past the last group of four;
    // lengths around the 32 accumulator lanes and one past several groups.
    for len in [1usize, 31, 32, 33, 8000] {
        for (ndone, nb) in [(5usize, 7usize), (3, 6), (16, 17), (2, 3)] {
            let done = DenseMatrix::gaussian(ndone, len, 77 + (len + nb) as u64);
            let panel = DenseMatrix::gaussian(nb, len, 78 + (len * 3 + ndone) as u64);
            set_tier(SimdTier::Scalar);
            let want: Vec<u64> = (0..ndone * nb)
                .map(|i| dot_f64(done.row(i / nb), panel.row(i % nb)).to_bits())
                .collect();
            for_each_tier_and_thread_count(|at| {
                let coef = proj_coef(done.as_slice(), panel.as_slice(), ndone, nb, len);
                let got: Vec<u64> = coef.iter().map(|c| c.to_bits()).collect();
                assert_eq!(got, want, "{ndone} finished × {nb} panel rows of {len}: {at}");
            });
        }
    }
}

#[test]
fn packed_gemm_no_longer_skips_explicit_zeros() {
    // The reference kernel had an `a != 0.0` branch; the packed kernel
    // must produce the same result on zero-heavy inputs (including the
    // -0.0 sign bit, which `x + (-0.0 * y)` preserves as +0.0 only if
    // the multiply actually happens — both paths agree on the value).
    let mut a = DenseMatrix::zeros(9, 20);
    a.set(0, 0, -0.0);
    a.set(4, 17, 2.5);
    a.set(8, 19, -1.0);
    let b = DenseMatrix::gaussian(20, 18, 3);
    let blocked = a.matmul(&b);
    let naive = reference::matmul(&a, &b);
    assert!(blocked.max_abs_diff(&naive) <= sum_tol(20));
}

#[test]
fn blocked_transpose_matches_naive_bitwise() {
    // Transpose only moves values — bitwise equality at shapes around
    // the 32×32 tile boundary, including empty and single-row shapes.
    for (m, n) in [(0usize, 5usize), (5, 0), (1, 1), (31, 33), (32, 32), (33, 31), (100, 7)] {
        let a = DenseMatrix::gaussian(m, n, 41 + (m * 101 + n) as u64);
        let t = a.transpose();
        assert_eq!(t.rows(), n);
        assert_eq!(t.cols(), m);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(a.get(i, j).to_bits(), t.get(j, i).to_bits(), "({m}x{n}) at {i},{j}");
            }
        }
        // Round trip is the identity, bitwise.
        let rt = t.transpose();
        for (x, y) in a.as_slice().iter().zip(rt.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn panel_qr_matches_reference_rank_and_span() {
    // Column counts around the QR panel width (16) ± 1; the panel QR and
    // the sequential reference MGS must agree on rank, produce
    // orthonormal columns, and span the same subspace.
    for d in [1usize, 15, 16, 17, 33] {
        let orig = DenseMatrix::gaussian(400, d, 7 + d as u64);
        let mut q_blocked = orig.clone();
        let mut q_ref = orig.clone();
        let rank_blocked = orthonormalize_columns(&mut q_blocked);
        let rank_ref = reference::orthonormalize_columns(&mut q_ref);
        assert_eq!(rank_blocked, rank_ref, "d={d}: rank mismatch");
        assert_eq!(rank_blocked, d);

        let gram = q_blocked.gram_tn(&q_blocked);
        for i in 0..d {
            for j in 0..d {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (gram.get(i, j) - want).abs() < 5e-5,
                    "d={d}: gram[{i},{j}]={}",
                    gram.get(i, j)
                );
            }
        }
        // Same span: Q (Qᵀ X) reconstructs X.
        let coeff = q_blocked.gram_tn(&orig);
        let recon = q_blocked.matmul(&coeff);
        let diff = recon.max_abs_diff(&orig);
        assert!(diff < 1e-3, "d={d}: span error {diff}");
    }
}

#[test]
fn panel_qr_rank_deficiency_matches_reference() {
    // A dependency spanning the panel boundary: column 18 = column 1 +
    // column 2, with d = 20 > QR_PANEL = 16. Both implementations must
    // report the same rank and zero the same column.
    let d = 20;
    let g = DenseMatrix::gaussian(300, d, 19);
    let mut x = g.clone();
    for i in 0..300 {
        x.set(i, 18, g.get(i, 1) + g.get(i, 2));
    }
    let mut q_blocked = x.clone();
    let mut q_ref = x.clone();
    assert_eq!(orthonormalize_columns(&mut q_blocked), d - 1);
    assert_eq!(reference::orthonormalize_columns(&mut q_ref), d - 1);
    for i in 0..300 {
        assert_eq!(q_blocked.get(i, 18), 0.0);
        assert_eq!(q_ref.get(i, 18), 0.0);
    }
}

#[test]
fn blocked_jacobi_matches_reference_singular_values() {
    // Sweep orders differ (round-robin vs cyclic), but both converge to
    // the same singular values; adversarial cases: odd n (dummy slot),
    // 1×1, rank-deficient, tall. 256 × 256 is the size
    // `bench_linalg_json` times.
    let cases =
        [(1usize, 1usize, 1u64), (7, 7, 2), (16, 16, 3), (40, 33, 4), (48, 48, 5), (256, 256, 6)];
    for (m, n, seed) in cases {
        let a = DenseMatrix::gaussian(m, n, seed);
        let blocked = jacobi_svd(&a);
        let naive = reference::jacobi_svd(&a);
        assert_eq!(blocked.sigma.len(), naive.sigma.len());
        for (i, (x, y)) in blocked.sigma.iter().zip(&naive.sigma).enumerate() {
            assert!(
                (x - y).abs() < 1e-3 * y.max(1.0),
                "{m}x{n} seed {seed}: sigma[{i}] {x} vs {y}"
            );
        }
        // Both must reconstruct the input.
        let mut us = blocked.u.clone();
        us.scale_columns(&blocked.sigma);
        let recon = us.matmul(&blocked.v.transpose());
        let diff = recon.max_abs_diff(&a);
        assert!(diff < 1e-3, "{m}x{n} seed {seed}: reconstruction error {diff}");
    }
}

#[test]
fn blocked_jacobi_rank_deficient_matches_reference() {
    // Rank-2 matrix embedded in 12 columns: trailing singular values are
    // zero in both implementations.
    let base = DenseMatrix::gaussian(30, 2, 6);
    let mix = DenseMatrix::gaussian(2, 12, 7);
    let a = base.matmul(&mix);
    let blocked = jacobi_svd(&a);
    let naive = reference::jacobi_svd(&a);
    for i in 0..2 {
        assert!(
            (blocked.sigma[i] - naive.sigma[i]).abs() < 1e-2 * naive.sigma[i].max(1.0),
            "sigma[{i}]: {} vs {}",
            blocked.sigma[i],
            naive.sigma[i]
        );
    }
    for i in 2..12 {
        assert!(blocked.sigma[i] < 1e-3 * blocked.sigma[0], "sigma[{i}] not ~0");
    }
}

#[test]
fn fused_spmm_matches_composed_reference_bitwise() {
    use lightne::linalg::CsrMatrix;
    use lightne::utils::rng::XorShiftStream;
    let _serial = TIER_LOCK.lock().unwrap();
    // The fused kernel promises the *bytes* of the unfused sequence it
    // replaces — `spmm → scale → axpy → scale → axpy`, then an `axpy`
    // into a second output — on every SIMD tier and thread count. The
    // operator is rectangular with a ragged last row block (2·64 + 37
    // rows), empty rows, a one-entry row, rows longer than the prefetch
    // distance, and values that are not powers of two; `d` walks the
    // 64/32/16/8-float strips of the AVX2 row kernel and its scalar tail.
    let (n_rows, n_cols) = (165usize, 91usize);
    let mut rng = XorShiftStream::new(0xF05ED, 0);
    let mut coo = Vec::new();
    for i in 0..n_rows as u32 {
        let nnz = match i % 11 {
            0 | 5 => 0,
            1 => 1,
            k => 3 * k as usize,
        };
        for _ in 0..nnz {
            coo.push((i, rng.bounded_usize(n_cols) as u32, 0.1 + 1.7 * rng.unit_f32()));
        }
    }
    let a = CsrMatrix::from_coo(n_rows, n_cols, coo);
    assert!(a.row(0).0.is_empty() && a.row(1).0.len() == 1 && a.row(164).0.len() > 8);

    for d in [1usize, 7, 8, 17, 64, 128, 144] {
        let x = DenseMatrix::gaussian(n_cols, d, 300 + d as u64);
        let w = DenseMatrix::gaussian(n_rows, d, 400 + d as u64);
        let old_out = DenseMatrix::gaussian(n_rows, d, 500 + d as u64);
        let old_side = DenseMatrix::gaussian(n_rows, d, 600 + d as u64);

        let plain = reference::spmm(&a, &x);
        let mut want = plain.clone();
        reference::scale(&mut want, -1.0);
        reference::axpy(&mut want, 0.8, &w);
        reference::scale(&mut want, 0.5);
        reference::axpy(&mut want, -1.0, &old_out);
        let mut want_side = old_side.clone();
        reference::axpy(&mut want_side, 0.37, &want);

        for_each_tier_and_thread_count(|at| {
            let at = format!("d = {d}, {at}");
            assert_eq!(bits(&a.spmm(&x)), bits(&plain), "spmm: {at}");
            let (mut out, mut side) = (old_out.clone(), old_side.clone());
            a.spmm_fused(&x, [&mut out, &mut side], |i, acc, [o, s]| {
                for (((o, s), &t), &wv) in o.iter_mut().zip(s).zip(acc).zip(w.row(i)) {
                    *o = (-t + 0.8 * wv) * 0.5 - *o;
                    *s += 0.37 * *o;
                }
            });
            assert_eq!(bits(&out), bits(&want), "fused output: {at}");
            assert_eq!(bits(&side), bits(&want_side), "fused second output: {at}");
        });
    }
}
