//! Full-size GFLOP/s measurement of the register-blocked linalg kernels
//! against their [`lightne_linalg::reference`] (pre-blocking) versions.
//!
//! Prints one flat JSON object, one key per line, to stdout; progress
//! goes to stderr. `results/BENCH_linalg.json` is the committed copy,
//! recorded from a `RUSTFLAGS="-C target-cpu=native"` build (README
//! "Kernel performance" has the commands); `cargo xtask gate linalg
//! <report>` judges a fresh report against it. Every row is measured on
//! one thread.
//!
//! Environment knobs (all optional):
//!
//! * `REPS` — timing repetitions per case; the minimum is reported
//!   (default 3).
//! * `GEMM_M`, `QR_ROWS` (the orthonormaliser's rows), `RSVD_N` —
//!   problem sizes, for CI smoke runs on shared machines (defaults are
//!   the full sizes the committed baseline was measured at).
//!
//! The report records the tier the CPU selected (`dispatch_tier`) and
//! always includes a forced-scalar GEMM number (`simd::set_tier`) so
//! tiers can be compared like-for-like.

use lightne_bench::harness::{env_usize, timed};
use lightne_linalg::eig::sym_eig;
use lightne_linalg::kernels::gemm_flops;
use lightne_linalg::qr::orthonormalize_columns;
use lightne_linalg::rsvd::rsvd_flops;
use lightne_linalg::simd::{self, SimdTier};
use lightne_linalg::svd::tall_thin_svd;
use lightne_linalg::{randomized_svd, reference, CsrMatrix, DenseMatrix, RsvdConfig};
use lightne_utils::parallel::configure_threads;
use lightne_utils::rng::XorShiftStream;
use std::hint::black_box;
use std::time::Duration;

/// Minimum wall-clock over `reps` runs of `f` (minimum, not mean: noise
/// on a shared machine only ever adds time).
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let (out, d) = timed(&mut f);
        black_box(out);
        best = best.min(d);
    }
    best
}

/// The pre-blocking randomized SVD: Algorithm 3 as the paper writes it
/// (second sketch `Z = orth(B·P)`, Jacobi SVD of `ZᵀB`) composed from the
/// reference GEMM/Gram/QR/Jacobi kernels. SPMM is shared with the
/// blocked version, so the comparison isolates the dense kernels.
fn reference_rsvd(a: &CsrMatrix, cfg: &RsvdConfig) -> (DenseMatrix, Vec<f32>) {
    let n = a.n_rows();
    let l = (cfg.rank + cfg.oversampling).min(n).max(1);
    let o = DenseMatrix::gaussian(n, l, cfg.seed);
    let mut y = a.spmm(&o);
    reference::orthonormalize_columns(&mut y);
    for _ in 0..cfg.power_iters {
        let ay = a.spmm(&y);
        y = a.spmm(&ay);
        reference::orthonormalize_columns(&mut y);
    }
    let b = a.spmm(&y);
    let p = DenseMatrix::gaussian(l, l, cfg.seed.wrapping_add(1));
    let mut z = reference::matmul(&b, &p);
    reference::orthonormalize_columns(&mut z);
    let c = reference::gram_tn(&z, &b);
    let small = reference::jacobi_svd(&c);
    let u = reference::matmul(&z, &small.u);
    (u, small.sigma)
}

/// Random symmetric sparse matrix — the shape the sparsifier emits, so
/// neither SVD pays a transpose the other skips.
fn sparse_random(n: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = XorShiftStream::new(seed, 0);
    let mut coo = Vec::with_capacity(n * nnz_per_row);
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

/// Rows of the tall matrix `tall_thin_svd` is timed on (the `n` of the
/// benchmark's `sbm_factor`, rounded to a power of two).
const TALL_THIN_ROWS: usize = 8192;

/// Rows of the symmetric matrix the symmetry test is timed on (20
/// entries per row).
const SYMCHECK_N: usize = 150_000;

/// Shape of the timed Gram product: `sbm_factor`'s sketch, `n × (d + p)`.
const GRAM_ROWS: usize = 8000;
const GRAM_COLS: usize = 144;

fn main() {
    let reps = env_usize("REPS", 3);
    let gemm_m = env_usize("GEMM_M", 65_536);
    let qr_rows = env_usize("QR_ROWS", 65_536);
    let rsvd_n = env_usize("RSVD_N", 50_000);
    let mut lines: Vec<String> = Vec::new();
    let mut put = |key: &str, val: String| lines.push(format!("  \"{key}\": {val}"));

    // Every row is a one-thread number, whatever the machine offers (the
    // committed baseline used to be pinned to a core for that).
    let threads_available = configure_threads(0);
    put("threads_available", threads_available.to_string());
    configure_threads(1);

    // The tier the blocked kernels dispatch to for this whole report,
    // plus the raw detection result, so the regression gate can compare
    // like-for-like tiers.
    let tier = simd::active_tier();
    eprintln!("simd dispatch: {} (detected: {})", tier.name(), simd::detected_features());
    put("dispatch_tier", format!("\"{}\"", tier.name()));
    put("simd_features", format!("\"{}\"", simd::detected_features()));

    // --- GEMM: (gemm_m × 256) · (256 × 256), the projection shape of
    // Algorithm 3 step 5 at embedding scale.
    eprintln!("gemm {gemm_m}x256 * 256x256 ({reps} reps) ...");
    let (k, n) = (256usize, 256usize);
    let a = DenseMatrix::gaussian(gemm_m, k, 1);
    let b = DenseMatrix::gaussian(k, n, 2);
    let flops = gemm_flops(gemm_m, n, k) as f64;
    let packed = best_of(reps, || a.matmul(&b)).as_secs_f64();
    let refr = best_of(reps, || reference::matmul(&a, &b)).as_secs_f64();
    put("gemm_m", gemm_m.to_string());
    put("gemm_k", k.to_string());
    put("gemm_n", n.to_string());
    put("gemm_packed_secs", format!("{packed:.6}"));
    put("gemm_packed_gflops", format!("{:.3}", flops / packed / 1e9));
    put("gemm_reference_secs", format!("{refr:.6}"));
    put("gemm_reference_gflops", format!("{:.3}", flops / refr / 1e9));
    put("gemm_speedup", format!("{:.3}", refr / packed));

    // Forced-scalar GEMM: the portable-fallback number, measured in the
    // same process so the baseline check has a tier-independent anchor.
    if tier != SimdTier::Scalar {
        eprintln!("gemm (forced scalar tier) ...");
        simd::set_tier(SimdTier::Scalar);
        let scalar = best_of(reps, || a.matmul(&b)).as_secs_f64();
        simd::set_tier(tier);
        put("gemm_scalar_secs", format!("{scalar:.6}"));
        put("gemm_scalar_gflops", format!("{:.3}", flops / scalar / 1e9));
    } else {
        put("gemm_scalar_secs", format!("{packed:.6}"));
        put("gemm_scalar_gflops", format!("{:.3}", flops / packed / 1e9));
    }

    // --- Hot GEMM: same shape family at a size whose operands stay
    // cache-resident across reps. The full-size run above streams ~192MB
    // through DRAM per rep (page-fault zero-fill plus A and C traffic)
    // and measures the memory system as much as the kernel; this one
    // measures the micro-kernel's arithmetic throughput.
    let hot_m = 16_384usize;
    eprintln!("gemm (hot) {hot_m}x256 * 256x256 ({reps} reps) ...");
    let ah = DenseMatrix::gaussian(hot_m, k, 6);
    let hot_flops = gemm_flops(hot_m, n, k) as f64;
    let hot = best_of(reps, || ah.matmul(&b)).as_secs_f64();
    put("gemm_hot_m", hot_m.to_string());
    put("gemm_hot_secs", format!("{hot:.6}"));
    put("gemm_hot_gflops", format!("{:.3}", hot_flops / hot / 1e9));

    // --- Gram product: register-tiled vs row-streaming, at the rSVD's
    // `Zᵀ·B` shape on `sbm_factor` (n = 8000, dim 128 + oversampling 16).
    eprintln!("gram_tn {GRAM_ROWS}x{GRAM_COLS} ({reps} reps) ...");
    let gz = DenseMatrix::gaussian(GRAM_ROWS, GRAM_COLS, 9);
    let gb = DenseMatrix::gaussian(GRAM_ROWS, GRAM_COLS, 10);
    let gram_flops = gemm_flops(GRAM_COLS, GRAM_COLS, GRAM_ROWS) as f64;
    let tiled = best_of(reps, || gz.gram_tn(&gb)).as_secs_f64();
    let refg = best_of(reps, || reference::gram_tn(&gz, &gb)).as_secs_f64();
    put("gram_rows", GRAM_ROWS.to_string());
    put("gram_cols", GRAM_COLS.to_string());
    put("gram_tiled_secs", format!("{tiled:.6}"));
    put("gram_tiled_gflops", format!("{:.3}", gram_flops / tiled / 1e9));
    put("gram_reference_secs", format!("{refg:.6}"));
    put("gram_speedup", format!("{:.3}", refg / tiled));

    // --- Orthonormalization: two Gram-matrix SVD passes vs sequential
    // MGS on a tall sketch. The flop count is the two passes' Gram
    // products and GEMMs, `4 · 2·n·d²`.
    eprintln!("orthonormalize {qr_rows}x128 ({reps} reps) ...");
    let d = 128usize;
    let tall = DenseMatrix::gaussian(qr_rows, d, 3);
    let orth_flops = (8 * qr_rows * d * d) as f64;
    let orth = best_of(reps, || {
        let mut x = tall.clone();
        orthonormalize_columns(&mut x)
    })
    .as_secs_f64();
    let refq = best_of(reps, || {
        let mut x = tall.clone();
        reference::orthonormalize_columns(&mut x)
    })
    .as_secs_f64();
    put("orth_rows", qr_rows.to_string());
    put("orth_cols", d.to_string());
    put("orth_secs", format!("{orth:.6}"));
    put("orth_gflops", format!("{:.3}", orth_flops / orth / 1e9));
    put("orth_reference_secs", format!("{refq:.6}"));
    put("orth_speedup", format!("{:.3}", refq / orth));

    // --- The symmetric eigensolver at the rSVD's `l = 144` and at 256,
    // on the Gram matrix of a Gaussian sketch (the spectrum it sees).
    for n in [144usize, 256] {
        eprintln!("sym_eig {n}x{n} ({reps} reps) ...");
        let w = DenseMatrix::gaussian(4 * n, n, 4);
        let gram = lightne_linalg::kernels::gram_tn(w.as_slice(), n, w.as_slice(), n);
        let secs = best_of(reps, || sym_eig(&gram, n)).as_secs_f64();
        put(&format!("sym_eig_{n}_secs"), format!("{secs:.6}"));
    }

    // --- The thin SVD that ends propagation, at `sbm_factor`'s shape.
    eprintln!("tall_thin_svd {TALL_THIN_ROWS}x128 ({reps} reps) ...");
    let tall128 = DenseMatrix::gaussian(TALL_THIN_ROWS, 128, 8);
    let thin = best_of(reps, || tall_thin_svd(&tall128)).as_secs_f64();
    put("tall_thin_svd_secs", format!("{thin:.6}"));

    // --- Symmetry test: the one-pass cursor walk against the per-entry
    // binary search it replaced, on a symmetric matrix of ~3 M entries
    // (`rmat_sample`'s NetMF matrix holds 2.98 M), so both read every
    // entry.
    eprintln!("is_symmetric n={SYMCHECK_N} ({reps} reps) ...");
    let sym = sparse_random(SYMCHECK_N, 20, 11);
    assert!(sym.is_symmetric(0.0) && reference::is_symmetric_by_search(&sym, 0.0));
    let walk = best_of(reps, || sym.is_symmetric(0.0)).as_secs_f64();
    let search = best_of(reps, || reference::is_symmetric_by_search(&sym, 0.0)).as_secs_f64();
    put("symcheck_nnz", sym.nnz().to_string());
    put("symcheck_secs", format!("{walk:.6}"));
    put("symcheck_reference_secs", format!("{search:.6}"));
    put("symcheck_speedup", format!("{:.3}", search / walk));
    drop(sym);

    // --- End-to-end randomized SVD on a sparsifier-shaped matrix.
    eprintln!("rsvd n={rsvd_n} nnz/row=20 rank=32 ({reps} reps) ...");
    let m = sparse_random(rsvd_n, 20, 5);
    let cfg = RsvdConfig { rank: 32, oversampling: 8, power_iters: 1, seed: 7 };
    let rflops = rsvd_flops(m.n_rows(), m.nnz() as u64, &cfg) as f64;
    let rnew = best_of(reps, || randomized_svd(&m, &cfg)).as_secs_f64();
    let rold = best_of(reps, || reference_rsvd(&m, &cfg)).as_secs_f64();
    put("rsvd_n", rsvd_n.to_string());
    put("rsvd_nnz", m.nnz().to_string());
    put("rsvd_rank", cfg.rank.to_string());
    put("rsvd_blocked_secs", format!("{rnew:.6}"));
    put("rsvd_blocked_gflops", format!("{:.3}", rflops / rnew / 1e9));
    put("rsvd_reference_secs", format!("{rold:.6}"));
    put("rsvd_reference_gflops", format!("{:.3}", rflops / rold / 1e9));
    put("rsvd_speedup", format!("{:.3}", rold / rnew));

    println!("{{\n{}\n}}", lines.join(",\n"));
}
