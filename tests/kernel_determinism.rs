//! Bitwise thread-count determinism of the register-blocked linalg
//! kernels in isolation (the pipeline-level sweep lives in
//! `determinism.rs`).
//!
//! The blocked kernels promise that their output bytes depend only on
//! the input, never on the rayon pool size: GEMM accumulates in fixed
//! KC/MC/MR/NR blocks, the Gram product in fixed row blocks and output
//! groups, and the symmetric eigensolver is sequential scalar code — so
//! the Gram-matrix SVD, the orthonormaliser made of two of them and the
//! randomized SVD inherit the guarantee.
//!
//! Everything lives in ONE test function on purpose: all tests in a
//! binary share the global rayon pool, and this test resizes it
//! mid-flight. Sizes are chosen to actually hit the parallel paths
//! (several MC = 128 row blocks for GEMM, several 4096-row Gram blocks
//! for the orthonormaliser); the eigensolver case checks that a wider
//! pool leaves the sequential sweep's bytes alone.

use lightne::linalg::eig::sym_eig;
use lightne::linalg::kernels::gram_tn;
use lightne::linalg::qr::orthonormalize_columns;
use lightne::linalg::svd::eig_svd;
use lightne::linalg::{randomized_svd, CsrMatrix, DenseMatrix, RsvdConfig};
use lightne::utils::parallel::configure_threads;
use lightne::utils::rng::XorShiftStream;

fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// An `f64` slice's bit patterns, each as its high and low halves.
fn f64_bits(v: &[f64]) -> Vec<u32> {
    v.iter().flat_map(|x| [(x.to_bits() >> 32) as u32, x.to_bits() as u32]).collect()
}

fn sigma_bits(s: &[f32]) -> Vec<u32> {
    s.iter().map(|x| x.to_bits()).collect()
}

fn sparse_symmetric(n: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = XorShiftStream::new(seed, 0);
    let mut coo = Vec::new();
    for i in 0..n as u32 {
        for _ in 0..nnz_per_row.div_ceil(2) {
            let j = rng.bounded_usize(n) as u32;
            let w = rng.unit_f32();
            coo.push((i, j, w));
            coo.push((j, i, w));
        }
    }
    CsrMatrix::from_coo(n, n, coo)
}

/// One full set of kernel outputs, each reduced to a labelled bit
/// pattern.
fn run_all() -> Vec<(&'static str, Vec<u32>)> {
    // GEMM: 300 rows = several MC = 128 blocks; k = 300 = two KC panels.
    let a = DenseMatrix::gaussian(300, 300, 1);
    let b = DenseMatrix::gaussian(300, 48, 2);
    let gemm = bits(&a.matmul(&b));

    // Gram: 9000 rows = three 4096-row blocks folded in order, 40 output
    // rows = one full 32-row group and a ragged one.
    let ga = DenseMatrix::gaussian(9_000, 40, 6);
    let gb = DenseMatrix::gaussian(9_000, 36, 7);
    let gram = bits(&ga.gram_tn(&gb));

    // Orthonormaliser: 20 000 rows = five 4096-row Gram blocks and
    // 157 GEMM row blocks per pass.
    let mut q = DenseMatrix::gaussian(20_000, 24, 3);
    orthonormalize_columns(&mut q);
    let qr = bits(&q);

    // Gram-matrix SVD of a tall matrix with an exact dependence (the
    // zero column), and the eigensolver on a 130 × 130 Gram matrix —
    // more columns than the rSVD's 128-dimension runs.
    let mut t = DenseMatrix::gaussian(9_000, 33, 4);
    for i in 0..9_000 {
        let dup = t.get(i, 5);
        t.set(i, 20, dup);
    }
    let svd = eig_svd(&t);
    let w = DenseMatrix::gaussian(400, 130, 8);
    let eig = sym_eig(&gram_tn(w.as_slice(), 130, w.as_slice(), 130), 130);

    // End-to-end randomized SVD over a sparsifier-shaped matrix.
    let m = sparse_symmetric(5_000, 12, 5);
    let cfg = RsvdConfig { rank: 16, oversampling: 8, power_iters: 1, seed: 9 };
    let r = randomized_svd(&m, &cfg);
    vec![
        ("gemm", gemm),
        ("gram_tn", gram),
        ("orthonormalize", qr),
        ("eig_svd U", bits(&svd.u)),
        ("eig_svd sigma", sigma_bits(&svd.sigma)),
        ("eig_svd V", bits(&svd.v)),
        ("sym_eig values", f64_bits(&eig.values)),
        ("sym_eig vectors", f64_bits(&eig.vectors)),
        ("rsvd U", bits(&r.u)),
        ("rsvd sigma", sigma_bits(&r.sigma)),
    ]
}

#[test]
fn kernel_outputs_identical_across_thread_counts() {
    // Per SIMD tier (scalar always; AVX2/AVX-512 when the host supports
    // them — the clamp in `set_tier` skips unsupported tiers), the whole
    // kernel suite must be bitwise identical at 1, 2, and 8 threads:
    // every parallel split keeps its fixed-block summation bracketing
    // regardless of which micro-kernel computes the blocks. `set_tier`
    // forces each reachable tier explicitly, so every run sweeps all
    // dispatch paths the host has.
    use lightne::linalg::simd::{detected_tier, set_tier, SimdTier};
    let mut covered = 0;
    for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
        if set_tier(tier) != tier {
            continue; // host cannot run this tier
        }
        covered += 1;
        assert_eq!(configure_threads(1), 1);
        let base = run_all();
        for threads in [2usize, 8] {
            assert_eq!(configure_threads(threads), threads);
            let got = run_all();
            for ((name, want), (_, have)) in base.iter().zip(&got) {
                assert_eq!(
                    want,
                    have,
                    "{name} bytes differ at {threads} threads on the {} tier",
                    tier.name()
                );
            }
        }
    }
    assert!(covered >= 1, "the scalar tier must always be runnable");
    set_tier(detected_tier());
}
