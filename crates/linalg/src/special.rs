//! Special functions for ProNE's spectral filter.
//!
//! ProNE modulates the graph spectrum with a Gaussian band-pass kernel
//! `g(λ) = e^{-θ/2·((λ-μ)² - 1)}` and expands it in Chebyshev polynomials;
//! the expansion coefficients are modified Bessel functions of the first
//! kind, `c_r = (-1)^r · 2·I_r(θ)` (with `c_0 = I_0(θ)`). SciPy provides
//! `iv`; here we implement the ascending power series, which converges in a
//! handful of terms for the small arguments ProNE uses (θ ≈ 0.5).

/// Modified Bessel function of the first kind `I_v(x)` for integer order
/// `v ≥ 0`, via the ascending series
/// `I_v(x) = Σ_k (x/2)^{2k+v} / (k! (k+v)!)`.
///
/// Accurate to ~1e-12 for `|x| ≤ 20`, far beyond the range ProNE uses.
pub fn bessel_i(v: u32, x: f64) -> f64 {
    let half = x / 2.0;
    // First term: (x/2)^v / v!
    let mut term = 1.0f64;
    for k in 1..=v as u64 {
        term *= half / k as f64;
    }
    let mut sum = term;
    let x2 = half * half;
    for k in 1..200u64 {
        term *= x2 / (k as f64 * (k as f64 + v as f64));
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bessel_i0_known_values() {
        // Reference values from Abramowitz & Stegun.
        assert!((bessel_i(0, 0.0) - 1.0).abs() < 1e-14);
        assert!((bessel_i(0, 1.0) - 1.266_065_877_752_008).abs() < 1e-12);
        assert!((bessel_i(0, 2.0) - 2.279_585_302_336_067).abs() < 1e-12);
    }

    #[test]
    fn bessel_i1_known_values() {
        assert!((bessel_i(1, 0.0)).abs() < 1e-14);
        assert!((bessel_i(1, 1.0) - 0.565_159_103_992_485).abs() < 1e-12);
        assert!((bessel_i(1, 2.0) - 1.590_636_854_637_329).abs() < 1e-12);
    }

    #[test]
    fn bessel_higher_orders_small_at_small_x() {
        // I_v(x) ~ (x/2)^v / v! for small x.
        let x = 0.5;
        for v in 2..8u32 {
            let approx = (x / 2.0f64).powi(v as i32) / (1..=v as u64).product::<u64>() as f64;
            let exact = bessel_i(v, x);
            assert!((exact - approx).abs() / approx < 0.05, "v={v}: {exact} vs {approx}");
        }
    }

    #[test]
    fn bessel_recurrence_holds() {
        // I_{v-1}(x) - I_{v+1}(x) = (2v/x) I_v(x)
        let x = 1.7;
        for v in 1..6u32 {
            let lhs = bessel_i(v - 1, x) - bessel_i(v + 1, x);
            let rhs = 2.0 * v as f64 / x * bessel_i(v, x);
            assert!((lhs - rhs).abs() < 1e-10, "v={v}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn generating_function_identity() {
        // e^x = I_0(x) + 2 Σ_{r≥1} I_r(x)  (Chebyshev expansion at t = 1).
        let x = 0.8;
        let mut sum = bessel_i(0, x);
        for r in 1..30 {
            sum += 2.0 * bessel_i(r, x);
        }
        assert!((sum - x.exp()).abs() < 1e-12, "{sum} vs {}", x.exp());
    }
}
