//! Goodness-of-fit tests.

use crate::dist::ContinuousDist;
use crate::{Result, StatsError};

/// Result of a Kolmogorov–Smirnov one-sample test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsTest {
    /// The KS statistic D = sup |F̂(x) − F(x)|.
    pub statistic: f64,
    /// Asymptotic p-value (Kolmogorov distribution approximation).
    pub p_value: f64,
    /// Sample size.
    pub n: usize,
}

/// One-sample Kolmogorov–Smirnov test of `data` against `dist`.
///
/// # Errors
///
/// Returns [`StatsError::NotEnoughData`] for an empty sample and
/// [`StatsError::InvalidSample`] if the data contains NaN.
pub fn ks_test(data: &[f64], dist: &dyn ContinuousDist) -> Result<KsTest> {
    if data.is_empty() {
        return Err(StatsError::NotEnoughData {
            what: "KS test",
            needed: 1,
            got: 0,
        });
    }
    if data.iter().any(|x| x.is_nan()) {
        return Err(StatsError::InvalidSample {
            what: "KS test",
            value: f64::NAN,
        });
    }
    let mut sorted = data.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    let nf = n as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let cdf = dist.cdf(x);
        let upper = (i as f64 + 1.0) / nf - cdf;
        let lower = cdf - i as f64 / nf;
        d = d.max(upper.max(lower));
    }
    let sqrt_n = nf.sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    Ok(KsTest {
        statistic: d,
        p_value: kolmogorov_q(lambda),
        n,
    })
}

/// Kolmogorov's Q function: Q(λ) = 2 Σ_{j≥1} (−1)^{j−1} e^{−2 j² λ²}.
fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for j in 1..=100 {
        let term = (-2.0 * (j as f64).powi(2) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Exponential, Gamma, LogNormal};
    use crate::rng::StreamRng;

    #[test]
    fn ks_accepts_true_model() {
        let d = Gamma::new(2.0, 5.0).unwrap();
        let mut rng = StreamRng::new(1);
        let xs: Vec<f64> = (0..5000).map(|_| d.sample(&mut rng)).collect();
        let test = ks_test(&xs, &d).unwrap();
        assert_eq!(test.n, 5000);
        assert!(test.statistic < 0.03, "D = {}", test.statistic);
        assert!(test.p_value > 0.01, "p = {}", test.p_value);
    }

    #[test]
    fn ks_rejects_wrong_model() {
        let truth = LogNormal::new(0.0, 1.5).unwrap();
        let wrong = Exponential::new(0.5).unwrap();
        let mut rng = StreamRng::new(2);
        let xs: Vec<f64> = (0..5000).map(|_| truth.sample(&mut rng)).collect();
        let test = ks_test(&xs, &wrong).unwrap();
        assert!(test.p_value <= 0.05, "p = {}", test.p_value);
        assert!(test.statistic > 0.1);
    }

    #[test]
    fn ks_rejects_bad_input() {
        let d = Exponential::new(1.0).unwrap();
        assert!(ks_test(&[], &d).is_err());
        assert!(ks_test(&[1.0, f64::NAN], &d).is_err());
    }

    #[test]
    fn kolmogorov_q_limits() {
        assert_eq!(kolmogorov_q(0.0), 1.0);
        assert!(kolmogorov_q(0.2) > 0.99);
        assert!(kolmogorov_q(3.0) < 1e-6);
        // Known value: Q(1.0) ≈ 0.26999.
        assert!((kolmogorov_q(1.0) - 0.26999967).abs() < 1e-6);
    }
}
