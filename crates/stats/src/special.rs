//! Special mathematical functions.
//!
//! Self-contained implementations of the functions the fitting code needs:
//! ln-gamma (Lanczos), digamma and trigamma (recurrence + asymptotic series),
//! erfc (Abramowitz–Stegun 7.1.26-grade rational approximation) and the
//! regularized lower incomplete gamma function (series + continued fraction).
//!
//! Accuracies are validated in the unit tests against high-precision
//! reference values.

/// Natural log of the gamma function, via the Lanczos approximation (g = 7,
/// n = 9 coefficients). Accurate to ~1e-13 over the positive reals.
///
/// # Panics
///
/// Panics if `x <= 0` (negative arguments are not needed by this crate).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Digamma function ψ(x) = d/dx ln Γ(x).
///
/// Uses the recurrence ψ(x) = ψ(x+1) − 1/x to push the argument above 6,
/// then the asymptotic expansion. Accurate to ~1e-12 for x > 0.
///
/// # Panics
///
/// Panics if `x <= 0`.
pub fn digamma(mut x: f64) -> f64 {
    assert!(x > 0.0, "digamma requires x > 0, got {x}");
    let mut result = 0.0;
    while x < 6.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    // ψ(x) ≈ ln x − 1/(2x) − Σ B_{2n} / (2n x^{2n})
    result + x.ln()
        - 0.5 * inv
        - inv2
            * (1.0 / 12.0
                - inv2
                    * (1.0 / 120.0
                        - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0)))))
}

/// Trigamma function ψ′(x).
///
/// Same strategy as [`digamma`]: recurrence then asymptotic series.
///
/// # Panics
///
/// Panics if `x <= 0`.
pub fn trigamma(mut x: f64) -> f64 {
    assert!(x > 0.0, "trigamma requires x > 0, got {x}");
    let mut result = 0.0;
    while x < 6.0 {
        result += 1.0 / (x * x);
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result
        + inv
            * (1.0
                + inv
                    * (0.5
                        + inv
                            * (1.0 / 6.0
                                - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 / 30.0)))))
}

/// Complementary error function erfc(x).
pub fn erfc(x: f64) -> f64 {
    // Numerical Recipes' rational Chebyshev approximation, |err| ≤ 1.2e-7.
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal CDF Φ(x).
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Regularized lower incomplete gamma function P(a, x) = γ(a, x) / Γ(a).
///
/// Series expansion for `x < a + 1`, continued fraction otherwise; the
/// classic `gammp` split. Accurate to ~1e-12.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_lower_gamma requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_lower_gamma requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_cont_fraction(a, x)
    }
}

/// Series representation of P(a, x), valid for x < a + 1.
fn gamma_series(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued-fraction representation of Q(a, x) = 1 − P(a, x), for x ≥ a + 1.
fn gamma_cont_fraction(a: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-15;
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() < tol,
            "expected {b}, got {a} (diff {})",
            (a - b).abs()
        );
    }

    #[test]
    fn ln_gamma_known_values() {
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(3.0), std::f64::consts::LN_2, 1e-12);
        close(ln_gamma(4.0), 6.0f64.ln(), 1e-12);
        // Γ(0.5) = sqrt(π)
        close(ln_gamma(0.5), 0.5 * std::f64::consts::PI.ln(), 1e-12);
        // Γ(10) = 362880
        close(ln_gamma(10.0), 362880.0f64.ln(), 1e-10);
        // Large argument (Stirling regime).
        close(ln_gamma(100.0), 359.1342053695754, 1e-8);
    }

    #[test]
    fn digamma_known_values() {
        // ψ(1) = -γ (Euler–Mascheroni)
        close(digamma(1.0), -0.5772156649015329, 1e-11);
        // ψ(2) = 1 − γ
        close(digamma(2.0), 1.0 - 0.5772156649015329, 1e-11);
        // ψ(0.5) = −γ − 2 ln 2
        close(
            digamma(0.5),
            -0.5772156649015329 - 2.0 * std::f64::consts::LN_2,
            1e-10,
        );
        close(digamma(10.0), 2.251752589066721, 1e-11);
    }

    #[test]
    fn digamma_is_derivative_of_ln_gamma() {
        for &x in &[0.3, 1.0, 2.5, 7.0, 20.0] {
            let h = 1e-6;
            let numeric = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h);
            close(digamma(x), numeric, 1e-6);
        }
    }

    #[test]
    fn trigamma_known_values() {
        // ψ'(1) = π²/6
        close(trigamma(1.0), std::f64::consts::PI.powi(2) / 6.0, 1e-9);
        // ψ'(0.5) = π²/2
        close(trigamma(0.5), std::f64::consts::PI.powi(2) / 2.0, 1e-9);
        close(trigamma(10.0), 0.10516633568168575, 1e-11);
    }

    #[test]
    fn trigamma_is_derivative_of_digamma() {
        for &x in &[0.7, 1.5, 4.0, 12.0] {
            let h = 1e-6;
            let numeric = (digamma(x + h) - digamma(x - h)) / (2.0 * h);
            close(trigamma(x), numeric, 1e-5);
        }
    }

    #[test]
    fn erf_known_values() {
        // erf(x) = 1 − erfc(x).
        close(1.0 - erfc(0.0), 0.0, 1e-7);
        close(1.0 - erfc(1.0), 0.8427007929497149, 2e-7);
        close(1.0 - erfc(-1.0), -0.8427007929497149, 2e-7);
        close(1.0 - erfc(2.0), 0.9953222650189527, 2e-7);
        close(erfc(3.0), 2.209049699858544e-5, 1e-9);
    }

    #[test]
    fn erfc_decreases_from_two_to_zero() {
        let mut prev = erfc(-6.0);
        close(prev, 2.0, 1e-7);
        for i in -59..=60 {
            let x = f64::from(i) / 10.0;
            let next = erfc(x);
            // Far left, 2 - erfc underflows the spacing of doubles near 2.
            if x > -4.0 {
                assert!(next < prev, "erfc not decreasing at {x}");
            } else {
                assert!(next <= prev, "erfc increasing at {x}");
            }
            assert!((0.0..=2.0).contains(&next));
            prev = next;
        }
        close(prev, 0.0, 1e-7);
    }

    #[test]
    fn std_normal_cdf_symmetry() {
        close(std_normal_cdf(0.0), 0.5, 1e-7);
        close(std_normal_cdf(1.96), 0.9750021048517795, 1e-6);
        close(std_normal_cdf(1.5) + std_normal_cdf(-1.5), 1.0, 1e-7);
    }

    #[test]
    fn reg_lower_gamma_known_values() {
        // P(1, x) = 1 − e^{−x}
        for &x in &[0.1, 1.0, 3.0, 10.0] {
            close(reg_lower_gamma(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
        // P(a, 0) = 0; P(a, ∞) → 1
        close(reg_lower_gamma(2.5, 0.0), 0.0, 1e-15);
        close(reg_lower_gamma(2.5, 100.0), 1.0, 1e-12);
        // Reference: P(3, 2) (e.g. scipy gammainc(3, 2)).
        close(reg_lower_gamma(3.0, 2.0), 0.3233235838169365, 1e-12);
        // Reference: P(0.5, 0.5) = erf(1/sqrt(2))... via relation.
        close(reg_lower_gamma(0.5, 0.5), 1.0 - erfc((0.5f64).sqrt()), 1e-7);
    }

    #[test]
    fn reg_lower_gamma_is_monotone_in_x() {
        let mut prev = -1.0;
        for i in 0..200 {
            let x = i as f64 * 0.1;
            let p = reg_lower_gamma(2.0, x);
            assert!(p >= prev);
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    #[should_panic(expected = "requires a > 0")]
    fn reg_lower_gamma_rejects_bad_a() {
        let _ = reg_lower_gamma(0.0, 1.0);
    }
}
