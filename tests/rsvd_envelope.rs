//! Accuracy envelope of the randomized SVD against the exact one.
//!
//! `randomized_svd` of the sparse exact NetMF matrix is compared with
//! `reference::jacobi_svd` of the same matrix held dense, over a grid of
//! `(rank k, oversampling p, power iterations q)` and twenty sketch
//! seeds per cell. Two numbers are held per cell, each the worst over the
//! seeds:
//!
//! * `sv` — `max_{i<k} |σᵢ − σᵢ*| / σ₀*`, the top-k singular values;
//! * `angle` — `sin θ_max` between the spans of the leading `m` left
//!   singular vectors of both, where `m` sits at the largest relative
//!   drop `σ*ₘ₋₁ / σ*ₘ` among the first `k + 1` exact singular values:
//!   the dominant invariant subspace the sketch can see. (Where `k` cuts
//!   through a cluster of singular values the top-k subspace itself is
//!   ill-defined and its angle would measure the cluster, not the
//!   solver.)
//!
//! The bounds were set from the twenty seeds of the implementation that
//! factorised through a panel QR, a second Gaussian sketch and a Jacobi
//! SVD of the projected matrix: the grid gives that worst case beside
//! each bound, which is about twice it (a few units of `f32` rounding
//! where the worst case sat at that floor). A factorisation change that
//! moves the bytes of the embedding must stay inside this envelope.

use lightne::gen::sbm::{labelled_sbm, SbmConfig};
use lightne::graph::{Graph, GraphBuilder};
use lightne::linalg::{randomized_svd, reference, CsrMatrix, DenseMatrix, RsvdConfig};
use lightne::sparsifier::exact::{exact_netmf, exact_netmf_dense};

/// Sketch seeds per cell.
const SEEDS: u64 = 20;

/// NetMF window and negative-sampling parameter (the paper's defaults).
const WINDOW: usize = 10;
const NEG: f64 = 1.0;

/// The first `c` columns of `m`.
fn leading(m: &DenseMatrix, c: usize) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(m.rows(), c);
    for i in 0..m.rows() {
        out.row_mut(i).copy_from_slice(&m.row(i)[..c]);
    }
    out
}

/// The exact factorisation, its numerical rank, and the sparse operator.
struct Exact {
    sparse: CsrMatrix,
    sigma: Vec<f32>,
    u: DenseMatrix,
    rank: usize,
}

fn exact(g: &Graph) -> Exact {
    let dense = exact_netmf_dense(g, WINDOW, NEG);
    let svd = reference::jacobi_svd(&dense);
    let rank = svd.sigma.iter().filter(|&&s| s > 1e-4 * svd.sigma[0]).count();
    Exact { sparse: exact_netmf(g, WINDOW, NEG), sigma: svd.sigma, u: svd.u, rank }
}

/// `(sv, angle)` of one randomized SVD against the exact one.
fn errors(ex: &Exact, cfg: &RsvdConfig) -> (f64, f64) {
    let r = randomized_svd(&ex.sparse, cfg);
    let k = r.sigma.len();
    let s0 = ex.sigma[0] as f64;
    let sv =
        (0..k).map(|i| (r.sigma[i] as f64 - ex.sigma[i] as f64).abs() / s0).fold(0.0, f64::max);
    let m = gap_rank(&ex.sigma, k);
    (sv, sin_max_angle(&leading(&ex.u, m), &leading(&r.u, m)))
}

/// The `m ∈ [1, k]` of the largest relative drop `σₘ₋₁ / σₘ` among the
/// first `k + 1` singular values (an exact zero is the largest drop).
fn gap_rank(sigma: &[f32], k: usize) -> usize {
    let drop = |m: usize| sigma[m - 1] as f64 / (sigma[m] as f64).max(f64::MIN_POSITIVE);
    (1..=k.min(sigma.len() - 1)).fold(1, |best, m| if drop(m) > drop(best) { m } else { best })
}

/// `sin θ_max` between the spans of the orthonormal columns of `a` and
/// `b`: the largest singular value of `R = b − a·(aᵀb)`, the part of `b`
/// outside span(a). `R` and `RᵀR` are formed in `f64`, so small angles
/// are not lost to the cancellation in `1 − cos²`.
fn sin_max_angle(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
    let (n, k) = (a.rows(), a.cols());
    let mut ab = vec![0.0f64; k * k];
    for i in 0..n {
        for (j, &x) in a.row(i).iter().enumerate() {
            for (l, &y) in b.row(i).iter().enumerate() {
                ab[j * k + l] += x as f64 * y as f64;
            }
        }
    }
    let mut rtr = vec![0.0f64; k * k];
    for i in 0..n {
        let r: Vec<f64> = (0..k)
            .map(|l| {
                b.get(i, l) as f64 - (0..k).map(|j| a.get(i, j) as f64 * ab[j * k + l]).sum::<f64>()
            })
            .collect();
        for j in 0..k {
            for l in 0..k {
                rtr[j * k + l] += r[j] * r[l];
            }
        }
    }
    let rtr = DenseMatrix::from_vec(k, k, rtr.into_iter().map(|x| x as f32).collect());
    (reference::jacobi_svd(&rtr).sigma[0] as f64).sqrt()
}

/// Worst `(sv, angle)` over the sketch seeds of one grid cell.
fn worst(ex: &Exact, (k, p, q): (usize, usize, usize)) -> (f64, f64) {
    (1..=SEEDS)
        .map(|seed| errors(ex, &RsvdConfig { rank: k, oversampling: p, power_iters: q, seed }))
        .fold((0.0, 0.0), |(a, b), (x, y)| (f64::max(a, x), f64::max(b, y)))
}

fn check(ex: &Exact, grid: &[((usize, usize, usize), f64, f64)]) {
    for &(cell, sv_tol, angle_tol) in grid {
        let (sv, angle) = worst(ex, cell);
        println!("(k, p, q) = {cell:?}: sv {sv:.3e} (bound {sv_tol:.1e}), angle {angle:.3e} (bound {angle_tol:.1e})");
        assert!(sv <= sv_tol, "(k, p, q) = {cell:?}: singular-value error {sv:.3e} > {sv_tol:.1e}");
        assert!(
            angle <= angle_tol,
            "(k, p, q) = {cell:?}: subspace angle {angle:.3e} > {angle_tol:.1e}"
        );
    }
}

#[test]
fn randomized_svd_stays_inside_the_envelope_on_an_sbm() {
    let cfg = SbmConfig {
        n: 200,
        communities: 8,
        avg_degree: 16.0,
        mixing: 0.05,
        overlap: 0.0,
        ..Default::default()
    };
    let (g, _) = labelled_sbm(&cfg, 3);
    let ex = exact(&g);
    assert_eq!(gap_rank(&ex.sigma, 32), 8, "eight communities, eight dominant directions");
    assert!(ex.rank > 48, "the SBM's NetMF matrix must outrank every sketch");
    // ((k, p, q), sv bound, angle bound); the comment is the worst case
    // of the twenty seeds on the panel-QR/Jacobi factorisation.
    check(
        &ex,
        &[
            ((8, 8, 0), 0.15, 0.3),      // sv 6.891e-2, angle 1.325e-1
            ((8, 8, 1), 1.2e-4, 7e-3),   // sv 5.995e-5, angle 3.490e-3
            ((16, 8, 1), 1.4e-2, 2e-3),  // sv 6.546e-3, angle 9.933e-4
            ((16, 16, 2), 3.2e-4, 6e-5), // sv 1.578e-4, angle 2.939e-5
            ((32, 8, 0), 4e-2, 5e-2),    // sv 1.965e-2, angle 2.485e-2
            ((32, 16, 1), 8e-3, 5e-4),   // sv 3.879e-3, angle 2.288e-4
        ],
    );
}

#[test]
fn randomized_svd_stays_inside_the_envelope_past_the_rank() {
    // Three complete bipartite components: every walk power is constant
    // on each block pair, so the NetMF matrix has rank at most six and
    // the sketch (l = k + p) is wider than the rank.
    let mut b = GraphBuilder::new(48);
    for (base, left, right) in [(0u32, 6u32, 10u32), (16, 8, 12), (36, 5, 7)] {
        for u in base..base + left {
            for v in base + left..base + left + right {
                b.add_edge(u, v);
            }
        }
    }
    let ex = exact(&b.build());
    assert!((1..=6).contains(&ex.rank), "rank {}", ex.rank);
    assert_eq!(gap_rank(&ex.sigma, 8), ex.rank);
    // Every cell sat at the f32 rounding floor on the panel-QR/Jacobi
    // factorisation (sv 2.810e-7, angle 3.590e-8 at worst, identical in
    // all three): the bounds are a few units of f32 rounding, 1e-6 ≈ 8ε.
    const FLOOR: f64 = 1e-6;
    check(&ex, &[((8, 8, 0), FLOOR, FLOOR), ((8, 8, 1), FLOOR, FLOOR), ((16, 8, 2), FLOOR, FLOOR)]);
}
