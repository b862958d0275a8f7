//! Continuous probability distributions.
//!
//! The paper fits inter-failure and repair times with Gamma, Weibull and
//! Log-normal distributions — "well known for describing the high variability
//! due to tails". Those three, plus Exponential (the memorylessness baseline
//! that failures famously do *not* follow), Uniform and Pareto, are
//! implemented here with sampling, densities, CDFs and moments.

use crate::rng::StreamRng;
use crate::special::{ln_gamma, reg_lower_gamma, std_normal_cdf};
use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A continuous distribution over (a subset of) the reals.
///
/// This trait is object-safe so analyses can carry `Box<dyn ContinuousDist>`
/// for fitted models of different families.
pub trait ContinuousDist: fmt::Debug {
    /// Draws one sample.
    fn sample(&self, rng: &mut StreamRng) -> f64;

    /// Probability density at `x` (0 outside the support).
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }

    /// Log-density at `x` (−∞ outside the support).
    fn ln_pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;

    /// Mean of the distribution.
    fn mean(&self) -> f64;

    /// Variance of the distribution.
    fn variance(&self) -> f64;

    /// Family name for reports ("Gamma", "Weibull", ...).
    fn family(&self) -> &'static str;
}

fn check_positive(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(StatsError::InvalidParameter { name, value })
    }
}

/// Exponential distribution with rate λ (mean 1/λ).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `rate`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `rate > 0`.
    pub fn new(rate: f64) -> Result<Self> {
        Ok(Self {
            rate: check_positive("rate", rate)?,
        })
    }

    /// The rate parameter λ.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl ContinuousDist for Exponential {
    fn sample(&self, rng: &mut StreamRng) -> f64 {
        -(1.0 - rng.uniform()).ln() / self.rate
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            f64::NEG_INFINITY
        } else {
            self.rate.ln() - self.rate * x
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }

    fn family(&self) -> &'static str {
        "Exponential"
    }
}

/// Gamma distribution with shape k and scale θ (mean kθ).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a gamma distribution with shape `shape` and scale `scale`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless both are positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        Ok(Self {
            shape: check_positive("shape", shape)?,
            scale: check_positive("scale", scale)?,
        })
    }

    /// The shape parameter k.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter θ.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl ContinuousDist for Gamma {
    fn sample(&self, rng: &mut StreamRng) -> f64 {
        // Marsaglia–Tsang squeeze method; boost shape < 1 via the
        // Γ(k) = Γ(k+1) · U^{1/k} identity.
        let (shape, boost) = if self.shape < 1.0 {
            let u = rng.uniform().max(f64::MIN_POSITIVE);
            (self.shape + 1.0, u.powf(1.0 / self.shape))
        } else {
            (self.shape, 1.0)
        };
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = rng.standard_normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = rng.uniform().max(f64::MIN_POSITIVE);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v * boost * self.scale;
            }
        }
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            f64::NEG_INFINITY
        } else {
            (self.shape - 1.0) * x.ln()
                - x / self.scale
                - ln_gamma(self.shape)
                - self.shape * self.scale.ln()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            reg_lower_gamma(self.shape, x / self.scale)
        }
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }

    fn family(&self) -> &'static str {
        "Gamma"
    }
}

/// Weibull distribution with shape k and scale λ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution with shape `shape` and scale `scale`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless both are positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        Ok(Self {
            shape: check_positive("shape", shape)?,
            scale: check_positive("scale", scale)?,
        })
    }

    /// The shape parameter k.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter λ.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl ContinuousDist for Weibull {
    fn sample(&self, rng: &mut StreamRng) -> f64 {
        // Inverse CDF.
        let u = (1.0 - rng.uniform()).max(f64::MIN_POSITIVE);
        self.scale * (-u.ln()).powf(1.0 / self.shape)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            f64::NEG_INFINITY
        } else {
            let z = x / self.scale;
            self.shape.ln() - self.scale.ln() + (self.shape - 1.0) * z.ln() - z.powf(self.shape)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-(x / self.scale).powf(self.shape)).exp()
        }
    }

    fn mean(&self) -> f64 {
        self.scale * (ln_gamma(1.0 + 1.0 / self.shape)).exp()
    }

    fn variance(&self) -> f64 {
        let g1 = (ln_gamma(1.0 + 1.0 / self.shape)).exp();
        let g2 = (ln_gamma(1.0 + 2.0 / self.shape)).exp();
        self.scale * self.scale * (g2 - g1 * g1)
    }

    fn family(&self) -> &'static str {
        "Weibull"
    }
}

/// Log-normal distribution: ln X ~ N(μ, σ²).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution with log-mean `mu` and log-std
    /// `sigma`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `sigma > 0` and `mu`
    /// is finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mu",
                value: mu,
            });
        }
        Ok(Self {
            mu,
            sigma: check_positive("sigma", sigma)?,
        })
    }

    /// The log-mean μ.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The log-standard-deviation σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl ContinuousDist for LogNormal {
    fn sample(&self, rng: &mut StreamRng) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            f64::NEG_INFINITY
        } else {
            let z = (x.ln() - self.mu) / self.sigma;
            -z * z / 2.0 - x.ln() - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        ((s2).exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }

    fn family(&self) -> &'static str {
        "LogNormal"
    }
}

/// Continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless `lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(StatsError::InvalidParameter {
                name: "hi",
                value: hi,
            });
        }
        Ok(Self { lo, hi })
    }
}

impl ContinuousDist for Uniform {
    fn sample(&self, rng: &mut StreamRng) -> f64 {
        rng.uniform_in(self.lo, self.hi)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < self.lo || x >= self.hi {
            f64::NEG_INFINITY
        } else {
            -(self.hi - self.lo).ln()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    fn mean(&self) -> f64 {
        f64::midpoint(self.lo, self.hi)
    }

    fn variance(&self) -> f64 {
        (self.hi - self.lo).powi(2) / 12.0
    }

    fn family(&self) -> &'static str {
        "Uniform"
    }
}

/// Pareto (type I) distribution with minimum `xm` and tail index α.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pareto {
    xm: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with scale `xm` and shape `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] unless both are positive.
    // dlint::allow(D17): the family property tests in tests/proptest.rs build every distribution from its parameters
    pub fn new(xm: f64, alpha: f64) -> Result<Self> {
        Ok(Self {
            xm: check_positive("xm", xm)?,
            alpha: check_positive("alpha", alpha)?,
        })
    }
}

impl ContinuousDist for Pareto {
    fn sample(&self, rng: &mut StreamRng) -> f64 {
        let u = (1.0 - rng.uniform()).max(f64::MIN_POSITIVE);
        self.xm / u.powf(1.0 / self.alpha)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < self.xm {
            f64::NEG_INFINITY
        } else {
            self.alpha.ln() + self.alpha * self.xm.ln() - (self.alpha + 1.0) * x.ln()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.xm {
            0.0
        } else {
            1.0 - (self.xm / x).powf(self.alpha)
        }
    }

    fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.xm / (self.alpha - 1.0)
        }
    }

    fn variance(&self) -> f64 {
        if self.alpha <= 2.0 {
            f64::INFINITY
        } else {
            let a = self.alpha;
            self.xm * self.xm * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        }
    }

    fn family(&self) -> &'static str {
        "Pareto"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean_var(dist: &dyn ContinuousDist, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = StreamRng::new(seed);
        let xs: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var)
    }

    fn check_sampling_matches_moments(dist: &dyn ContinuousDist, tol: f64) {
        let (mean, var) = sample_mean_var(dist, 200_000, 99);
        assert!(
            (mean - dist.mean()).abs() / dist.mean().abs().max(1.0) < tol,
            "{}: sample mean {mean} vs {}",
            dist.family(),
            dist.mean()
        );
        assert!(
            (var - dist.variance()).abs() / dist.variance().max(1.0) < 3.0 * tol,
            "{}: sample var {var} vs {}",
            dist.family(),
            dist.variance()
        );
    }

    fn check_cdf_matches_sampling(dist: &dyn ContinuousDist, probe: f64) {
        let mut rng = StreamRng::new(123);
        let n = 100_000;
        let below = (0..n).filter(|_| dist.sample(&mut rng) <= probe).count();
        let empirical = below as f64 / n as f64;
        assert!(
            (empirical - dist.cdf(probe)).abs() < 0.01,
            "{}: cdf({probe}) = {} but empirical {}",
            dist.family(),
            dist.cdf(probe),
            empirical
        );
    }

    fn check_pdf_integrates_to_cdf(dist: &dyn ContinuousDist, lo: f64, hi: f64) {
        // Trapezoid integration of the pdf should reproduce cdf differences.
        let steps = 20_000;
        let h = (hi - lo) / steps as f64;
        let mut integral = 0.0;
        for i in 0..steps {
            let a = lo + i as f64 * h;
            let b = a + h;
            integral += 0.5 * (dist.pdf(a) + dist.pdf(b)) * h;
        }
        let expected = dist.cdf(hi) - dist.cdf(lo);
        assert!(
            (integral - expected).abs() < 1e-3,
            "{}: ∫pdf = {integral} vs ΔCDF = {expected}",
            dist.family()
        );
    }

    #[test]
    fn exponential_behaves() {
        let d = Exponential::new(0.5).unwrap();
        assert_eq!(d.rate(), 0.5);
        assert_eq!(d.mean(), 2.0);
        assert_eq!(d.variance(), 4.0);
        check_sampling_matches_moments(&d, 0.02);
        check_cdf_matches_sampling(&d, 1.0);
        check_pdf_integrates_to_cdf(&d, 0.0, 5.0);
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.pdf(-1.0), 0.0);
    }

    #[test]
    fn gamma_behaves() {
        let d = Gamma::new(2.5, 3.0).unwrap();
        assert_eq!(d.shape(), 2.5);
        assert_eq!(d.scale(), 3.0);
        assert!((d.mean() - 7.5).abs() < 1e-12);
        assert!((d.variance() - 22.5).abs() < 1e-12);
        check_sampling_matches_moments(&d, 0.02);
        check_cdf_matches_sampling(&d, 5.0);
        check_pdf_integrates_to_cdf(&d, 0.0, 30.0);
    }

    #[test]
    fn gamma_small_shape_sampling() {
        // Shape < 1 exercises the boost path.
        let d = Gamma::new(0.5, 2.0).unwrap();
        check_sampling_matches_moments(&d, 0.03);
        let mut rng = StreamRng::new(5);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn weibull_behaves() {
        let d = Weibull::new(1.5, 10.0).unwrap();
        assert_eq!(d.shape(), 1.5);
        assert_eq!(d.scale(), 10.0);
        // Mean = λ Γ(1 + 1/k) = 10 · Γ(5/3) ≈ 9.0275
        assert!((d.mean() - 9.0274529296).abs() < 1e-6);
        check_sampling_matches_moments(&d, 0.02);
        check_cdf_matches_sampling(&d, 8.0);
        check_pdf_integrates_to_cdf(&d, 0.0, 50.0);
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let w = Weibull::new(1.0, 4.0).unwrap();
        let e = Exponential::new(0.25).unwrap();
        for &x in &[0.5, 1.0, 3.0, 10.0] {
            assert!((w.cdf(x) - e.cdf(x)).abs() < 1e-12);
            assert!((w.pdf(x) - e.pdf(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn lognormal_behaves() {
        let d = LogNormal::new(1.0, 0.8).unwrap();
        assert_eq!(d.mu(), 1.0);
        assert_eq!(d.sigma(), 0.8);
        check_sampling_matches_moments(&d, 0.03);
        check_cdf_matches_sampling(&d, 3.0);
        check_pdf_integrates_to_cdf(&d, 1e-9, 60.0);
        // Median = e^μ.
        assert!((d.cdf(1.0f64.exp()) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn uniform_behaves() {
        let d = Uniform::new(2.0, 6.0).unwrap();
        assert_eq!(d.lo, 2.0);
        assert_eq!(d.hi, 6.0);
        assert_eq!(d.mean(), 4.0);
        assert!((d.variance() - 16.0 / 12.0).abs() < 1e-12);
        check_sampling_matches_moments(&d, 0.01);
        assert_eq!(d.cdf(1.0), 0.0);
        assert_eq!(d.cdf(7.0), 1.0);
        assert_eq!(d.cdf(4.0), 0.5);
        assert_eq!(d.pdf(1.0), 0.0);
        assert!((d.pdf(3.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pareto_behaves() {
        let d = Pareto::new(1.0, 3.0).unwrap();
        assert_eq!(d.xm, 1.0);
        assert_eq!(d.alpha, 3.0);
        assert!((d.mean() - 1.5).abs() < 1e-12);
        check_sampling_matches_moments(&d, 0.05);
        check_cdf_matches_sampling(&d, 2.0);
        assert_eq!(d.cdf(0.5), 0.0);
        // Infinite moments for heavy tails.
        assert!(Pareto::new(1.0, 0.9).unwrap().mean().is_infinite());
        assert!(Pareto::new(1.0, 1.5).unwrap().variance().is_infinite());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, f64::NAN).is_err());
        assert!(Weibull::new(-1.0, 1.0).is_err());
        assert!(LogNormal::new(f64::INFINITY, 1.0).is_err());
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(Uniform::new(3.0, 3.0).is_err());
        assert!(Pareto::new(1.0, 0.0).is_err());
    }

    #[test]
    fn cdfs_are_monotone() {
        let dists: Vec<Box<dyn ContinuousDist>> = vec![
            Box::new(Exponential::new(1.0).unwrap()),
            Box::new(Gamma::new(2.0, 1.5).unwrap()),
            Box::new(Weibull::new(0.8, 2.0).unwrap()),
            Box::new(LogNormal::new(0.0, 1.0).unwrap()),
            Box::new(Pareto::new(0.5, 2.0).unwrap()),
        ];
        for d in &dists {
            let mut prev = -1.0;
            for i in 0..500 {
                let x = i as f64 * 0.05;
                let c = d.cdf(x);
                assert!(c >= prev - 1e-12, "{} cdf not monotone", d.family());
                assert!((0.0..=1.0).contains(&c));
                prev = c;
            }
        }
    }
}
