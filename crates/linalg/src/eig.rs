//! Eigen-decomposition of a small dense symmetric matrix — the one
//! factorisation kernel behind [`crate::svd::eig_svd`], and through it
//! the orthonormaliser, the randomized SVD and the thin SVD of
//! propagation.
//!
//! The method is the classic pair of EISPACK routines `tred2` and `tql2`
//! (as in JAMA): a Householder reduction to tridiagonal form that
//! accumulates its reflections, then the implicit QL iteration with
//! Wilkinson-style shifts, whose plane rotations are applied to the
//! accumulated basis. Both run in `f64`, sequentially.
//!
//! Layout: the working matrix is held *transposed* — `V[r][c]` of the
//! textbook code lives at `a[c·n + r]` — so the column sweeps of the
//! reduction and every rotation of the QL iteration walk contiguous rows.
//! (The input is symmetric, so the transpose of it is itself.) At the end
//! row `i` of the buffer is the `i`-th eigenvector, which is the layout
//! [`SymEig::vectors`] returns. Against rotating strided columns this
//! measured 4.2 ms instead of 6.1 ms at `n = 144`.
//!
//! Determinism: plain scalar code with no runtime dispatch and no
//! parallelism, so the output bytes are the same on every SIMD tier and
//! at every thread count.

use std::cmp::Ordering;

/// Relative size below which an off-diagonal element of the tridiagonal
/// matrix counts as zero (`2⁻⁵²`, one unit of `f64` rounding against the
/// largest `|d| + |e|` seen so far).
const EPS: f64 = f64::EPSILON;

/// QL iterations allowed per eigenvalue. The implicit shift converges
/// cubically — two or three iterations each in practice (EISPACK allows
/// 30) — so the cap is only reached on input that is not a finite
/// symmetric matrix (NaN or ∞); the current diagonal entry is then taken
/// as the eigenvalue and the solver moves on, so it always terminates.
pub const MAX_QL_ITERS: usize = 30;

/// Eigen-decomposition `G = Σᵢ λᵢ vᵢ vᵢᵀ` of an `n × n` symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// The eigenvalues `λᵢ`, descending (NaN first, if the input held any).
    pub values: Vec<f64>,
    /// The unit eigenvectors as rows: `vectors[i·n..(i+1)·n]` is `vᵢ`.
    pub vectors: Vec<f64>,
}

/// Eigenvalues and eigenvectors of the symmetric `n × n` row-major
/// matrix `g`. Only one triangle is read (the entries `g[i·n + j]` with
/// `j ≥ i`); the input is assumed symmetric.
///
/// Never panics on any values: NaN or ∞ input gives NaN-laden output
/// after at most [`MAX_QL_ITERS`] iterations per eigenvalue.
///
/// # Panics
/// Panics if `g.len() != n·n`.
pub fn sym_eig(g: &[f64], n: usize) -> SymEig {
    assert_eq!(g.len(), n * n, "sym_eig expects an n × n matrix");
    if n == 0 {
        return SymEig { values: Vec::new(), vectors: Vec::new() };
    }
    let mut a = g.to_vec();
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];
    tridiagonalize(&mut a, n, &mut d, &mut e);
    ql_implicit(&mut a, n, &mut d, &mut e);

    // Descending order; ties keep ascending index order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
    let values = order.iter().map(|&i| d[i]).collect();
    let mut vectors = Vec::with_capacity(n * n);
    for &i in &order {
        vectors.extend_from_slice(&a[i * n..(i + 1) * n]);
    }
    SymEig { values, vectors }
}

/// Householder reduction to tridiagonal form (`tred2`): on return `d`
/// holds the diagonal, `e[1..]` the subdiagonal (`e[0] = 0`), and `a`
/// the accumulated orthogonal transform, transposed (row `i` is the
/// `i`-th column of `Q` with `QᵀGQ` tridiagonal). Where the textbook
/// code divides a whole vector by one value it multiplies by the
/// reciprocal, one division per vector.
fn tridiagonalize(a: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    // Row `c` of `a` is column `c` of the textbook `V`.
    for (dj, row) in d.iter_mut().zip(a.chunks_exact(n)) {
        *dj = row[n - 1];
    }
    for i in (1..n).rev() {
        // Rows 0..i of `a`, and row i; d[..i] and d[i]; e likewise.
        let (head, tail) = a.split_at_mut(i * n);
        let row_i = &mut tail[..i];
        let (d_lo, d_hi) = d.split_at_mut(i);
        let (e_lo, e_hi) = e.split_at_mut(i);
        let scale: f64 = d_lo.iter().map(|x| x.abs()).sum();
        let mut h = 0.0f64;
        if scale == 0.0 {
            e_hi[0] = d_lo[i - 1];
            for (dj, row) in d_lo.iter_mut().zip(head.chunks_exact_mut(n)) {
                *dj = row[i - 1];
                row[i] = 0.0;
            }
            row_i.fill(0.0);
        } else {
            // The Householder vector, scaled against under/overflow.
            let inv_scale = 1.0 / scale;
            for x in d_lo.iter_mut() {
                *x *= inv_scale;
                h += *x * *x;
            }
            let f = d_lo[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e_hi[0] = scale * g;
            h -= f * g;
            d_lo[i - 1] = f - g;
            // e = (lower triangle of V) · d, with the vector saved in row i.
            row_i.copy_from_slice(d_lo);
            e_lo.fill(0.0);
            for (j, (row, &f)) in head.chunks_exact(n).zip(d_lo.iter()).enumerate() {
                let col = &row[j..i];
                let mut g = e_lo[j] + col[0] * f;
                for ((ek, &vk), &dk) in e_lo[j + 1..].iter_mut().zip(&col[1..]).zip(&d_lo[j + 1..])
                {
                    g += vk * dk;
                    *ek += vk * f;
                }
                e_lo[j] = g;
            }
            let inv_h = 1.0 / h;
            let mut f = 0.0f64;
            for (ej, &dj) in e_lo.iter_mut().zip(d_lo.iter()) {
                *ej *= inv_h;
                f += *ej * dj;
            }
            let hh = f / (h + h);
            for (ej, &dj) in e_lo.iter_mut().zip(d_lo.iter()) {
                *ej -= hh * dj;
            }
            // The rank-two update of the remaining lower triangle.
            for (j, row) in head.chunks_exact_mut(n).enumerate() {
                let (f, g) = (d_lo[j], e_lo[j]);
                let col = &mut row[j..i];
                for ((vk, &ek), &dk) in col.iter_mut().zip(&e_lo[j..]).zip(&d_lo[j..]) {
                    *vk -= f * ek + g * dk;
                }
                d_lo[j] = row[i - 1];
                row[i] = 0.0;
            }
        }
        d_hi[0] = h;
    }
    // Accumulate the reflections into the transform.
    for i in 0..n - 1 {
        let (head, tail) = a.split_at_mut((i + 1) * n);
        let row_i = &mut head[i * n..];
        row_i[n - 1] = row_i[i];
        row_i[i] = 1.0;
        let next = &mut tail[..=i];
        let (d_lo, d_hi) = d.split_at_mut(i + 1);
        let h = d_hi[0];
        if h != 0.0 {
            let inv_h = 1.0 / h;
            for (dk, &vk) in d_lo.iter_mut().zip(next.iter()) {
                *dk = vk * inv_h;
            }
            for row in head.chunks_exact_mut(n) {
                let col = &mut row[..=i];
                let g: f64 = next.iter().zip(col.iter()).map(|(&x, &y)| x * y).sum();
                for (vk, &dk) in col.iter_mut().zip(d_lo.iter()) {
                    *vk -= g * dk;
                }
            }
        }
        next.fill(0.0);
    }
    for (dj, row) in d.iter_mut().zip(a.chunks_exact_mut(n)) {
        *dj = row[n - 1];
        row[n - 1] = 0.0;
    }
    a[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit QL iteration on the tridiagonal `(d, e)` (`tql2`), rotating
/// the rows of `z` along: on return `d` holds the eigenvalues (unsorted)
/// and row `i` of `z` the eigenvector of `d[i]`.
fn ql_implicit(z: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut shift = 0.0f64;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        // The first negligible subdiagonal element at or after `l` (a
        // NaN stops the search at once); `e[n − 1] = 0` ends it.
        let m = l + e[l..n - 1].iter().take_while(|x| x.abs() > EPS * tst1).count();
        // The unreduced block `l..=m`; the shift moves every later
        // diagonal entry too.
        let (ds, es) = (&mut d[l..], &mut e[l..=m]);
        let rows = &mut z[l * n..(m + 1) * n];
        // No iteration when `e[l]` is already negligible (`m = l`).
        let iters = if m > l { MAX_QL_ITERS } else { 0 };
        for _ in 0..iters {
            let (g, el) = (ds[0], es[0]);
            let p = (ds[1] - g) / (2.0 * el);
            let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
            ds[0] = el / (p + r);
            ds[1] = el * (p + r);
            let dl1 = ds[1];
            let h = g - ds[0];
            for x in &mut ds[2..] {
                *x -= h;
            }
            shift += h;

            let mut p = ds[m - l];
            let (mut c, mut c2, mut c3) = (1.0f64, 1.0f64, 1.0f64);
            let el1 = es[1];
            let (mut s, mut s2) = (0.0f64, 0.0f64);
            for i in (0..m - l).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let (ei, di) = (es[i], ds[i]);
                let g = c * ei;
                let h = c * p;
                let r = p.hypot(ei);
                es[i + 1] = s * r;
                s = ei / r;
                c = p / r;
                p = c * di - s * g;
                ds[i + 1] = h + s * (c * g + s * di);
                let (zi, zi1) = rows[i * n..(i + 2) * n].split_at_mut(n);
                for (x, y) in zi.iter_mut().zip(zi1) {
                    let h = *y;
                    *y = s * *x + c * h;
                    *x = c * *x - s * h;
                }
            }
            let p = -s * s2 * c3 * el1 * es[0] / dl1;
            es[0] = s * p;
            ds[0] = c * p;
            // Converged, or NaN (which compares as unordered).
            if es[0].abs().partial_cmp(&(EPS * tst1)) != Some(Ordering::Greater) {
                break;
            }
        }
        ds[0] += shift;
        es[0] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `max |G·vᵢ − λᵢ·vᵢ|` and `max |VᵀV − I|`.
    fn residuals(g: &[f64], n: usize, eig: &SymEig) -> (f64, f64) {
        let mut res = 0.0f64;
        let mut orth = 0.0f64;
        for (i, vi) in eig.vectors.chunks_exact(n).enumerate() {
            for r in 0..n {
                let gv: f64 = (0..n).map(|c| g[r * n + c] * vi[c]).sum();
                res = res.max((gv - eig.values[i] * vi[r]).abs());
            }
            for (j, vj) in eig.vectors.chunks_exact(n).enumerate() {
                let dot: f64 = vi.iter().zip(vj).map(|(x, y)| x * y).sum();
                orth = orth.max((dot - if i == j { 1.0 } else { 0.0 }).abs());
            }
        }
        (res, orth)
    }

    /// `Q diag(λ) Qᵀ` for a random orthogonal `Q` (Gram–Schmidt in `f64`
    /// on Gaussian-ish vectors), with `Q`'s columns returned as rows.
    fn with_spectrum(lambda: &[f64], seed: u64) -> (Vec<f64>, Vec<f64>) {
        let n = lambda.len();
        let mut rng = lightne_utils::rng::XorShiftStream::new(seed, 0);
        let mut q: Vec<f64> = (0..n * n).map(|_| rng.unit_f32() as f64 - 0.5).collect();
        for i in 0..n {
            for j in 0..i {
                let dot: f64 = (0..n).map(|k| q[i * n + k] * q[j * n + k]).sum();
                for k in 0..n {
                    q[i * n + k] -= dot * q[j * n + k];
                }
            }
            let norm = (0..n).map(|k| q[i * n + k] * q[i * n + k]).sum::<f64>().sqrt();
            q[i * n..(i + 1) * n].iter_mut().for_each(|x| *x /= norm);
        }
        let mut g = vec![0.0f64; n * n];
        for (r, gr) in g.chunks_exact_mut(n).enumerate() {
            for (c, x) in gr.iter_mut().enumerate() {
                *x = (0..n).map(|i| lambda[i] * q[i * n + r] * q[i * n + c]).sum();
            }
        }
        (g, q)
    }

    /// Checks the residual and orthogonality at `c·n·ε` (relative to the
    /// largest `|λ|` for the residual) and the eigenvalues against
    /// `want`, descending, to the same absolute bound.
    fn check(g: &[f64], want: &[f64], what: &str) {
        let n = want.len();
        let eig = sym_eig(g, n);
        let scale = want.iter().fold(0.0f64, |m, x| m.max(x.abs())).max(f64::MIN_POSITIVE);
        let bound = 8.0 * n as f64 * f64::EPSILON;
        let (res, orth) = residuals(g, n, &eig);
        assert!(res <= bound * scale, "{what}: residual {res:e} > {:e}", bound * scale);
        assert!(orth <= bound, "{what}: |VᵀV − I| {orth:e} > {bound:e}");
        let mut sorted = want.to_vec();
        sorted.sort_by(|a, b| b.total_cmp(a));
        for (got, want) in eig.values.iter().zip(&sorted) {
            assert!((got - want).abs() <= bound * scale, "{what}: λ {got} vs {want}");
        }
    }

    #[test]
    fn spectra_from_diagonal_to_graded() {
        // Diagonal (already tridiagonal, nothing to reduce).
        let lambda = [3.0, -1.0, 7.5, 0.25, 2.0];
        let mut g = vec![0.0f64; 25];
        for (i, &l) in lambda.iter().enumerate() {
            g[i * 5 + i] = l;
        }
        check(&g, &lambda, "diagonal");
        // Zero matrix.
        check(&[0.0; 36], &[0.0; 6], "zero");
        let cases: Vec<(&str, Vec<f64>)> = vec![
            ("2 × 2", vec![5.0, -2.0]),
            ("repeated", vec![4.0, 4.0, 4.0, 1.0, 1.0, -3.0, -3.0, 0.5]),
            ("rank one", (0..20).map(|i| if i == 0 { 9.0 } else { 0.0 }).collect()),
            ("graded to 1e-12", (0..24).map(|i| 10f64.powf(-12.0 * i as f64 / 23.0)).collect()),
            ("PSD Gram-like, n = 144", (0..144).map(|i| 1e4 / (1.0 + i as f64).powi(2)).collect()),
        ];
        for (seed, (what, lambda)) in cases.iter().enumerate() {
            let (g, _) = with_spectrum(lambda, 40 + seed as u64);
            check(&g, lambda, what);
        }
    }

    #[test]
    fn only_the_upper_triangle_is_read() {
        let (g, _) = with_spectrum(&[3.0, 1.0, -2.0, 0.5, 4.0, 1.0], 7);
        let mut upper = g.clone();
        for r in 0..6 {
            upper[r * 6..r * 6 + r].fill(f64::NAN);
        }
        let (a, b) = (sym_eig(&g, 6), sym_eig(&upper, 6));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.values), bits(&b.values));
        assert_eq!(bits(&a.vectors), bits(&b.vectors));
    }

    #[test]
    fn rank_one_vector_is_recovered() {
        let (g, q) = with_spectrum(&[0.0, 0.0, 2.0, 0.0], 9);
        let eig = sym_eig(&g, 4);
        let dot: f64 = eig.vectors[..4].iter().zip(&q[8..12]).map(|(x, y)| x * y).sum();
        assert!((dot.abs() - 1.0).abs() < 1e-14, "leading vector off by {dot}");
    }

    #[test]
    fn small_matrix_by_hand() {
        // [[2, 1], [1, 2]]: eigenvalues 3 and 1.
        let g = [2.0, 1.0, 1.0, 2.0];
        let eig = sym_eig(&g, 2);
        assert!((eig.values[0] - 3.0).abs() < 1e-14 && (eig.values[1] - 1.0).abs() < 1e-14);
        let (res, orth) = residuals(&g, 2, &eig);
        assert!(res < 1e-14 && orth < 1e-14, "{res} {orth}");
    }

    #[test]
    fn empty_and_one_by_one() {
        let eig = sym_eig(&[], 0);
        assert!(eig.values.is_empty() && eig.vectors.is_empty());
        let eig = sym_eig(&[-4.5], 1);
        assert_eq!((eig.values, eig.vectors), (vec![-4.5], vec![1.0]));
    }

    #[test]
    fn non_finite_input_terminates_without_panicking() {
        // NaN on the diagonal, off it, everywhere; and ∞.
        let mut cases = vec![vec![1.0f64; 16], vec![1.0f64; 16], vec![f64::NAN; 16]];
        cases[0][5] = f64::NAN;
        cases[1][2] = f64::NAN;
        cases[1][8] = f64::NAN;
        let mut inf = vec![0.5f64; 16];
        inf[0] = f64::INFINITY;
        cases.push(inf);
        for g in cases {
            let eig = sym_eig(&g, 4);
            assert_eq!((eig.values.len(), eig.vectors.len()), (4, 16));
        }
    }
}
