//! # dcfail-stats
//!
//! Statistics substrate for the dcfail toolkit.
//!
//! The paper's methodology needs a specific statistical toolbox which this
//! crate implements from scratch (no external math dependencies):
//!
//! * [`special`] — ln-gamma, digamma, trigamma, erfc and the regularized
//!   incomplete gamma function.
//! * [`dist`] — the long-tailed families the paper fits (Gamma, Weibull,
//!   Log-normal) plus Exponential, Uniform and Pareto, each with sampling,
//!   pdf/cdf and moments.
//! * [`fit`] — maximum-likelihood estimation per family and log-likelihood /
//!   AIC model selection (the paper selects "according to log likelihood of
//!   fitting").
//! * [`empirical`] — ECDFs, quantiles, histograms and summary statistics.
//! * [`binning`] — attribute binning for the rate-vs-capacity/usage figures.
//! * [`gof`] — Kolmogorov–Smirnov goodness-of-fit.
//! * [`survival`] — Kaplan–Meier estimation with right-censoring (servers
//!   that fail once are censored, not ignorable).
//! * [`bootstrap`] — percentile-bootstrap confidence intervals.
//! * [`corr`] — autocorrelation and the Ljung–Box statistic.
//! * [`text`] / [`kmeans`] — TF-IDF vectorization and k-means++ clustering
//!   for the ticket-classification pipeline (87% accuracy in the paper).
//! * [`rng`] — deterministic, forkable random streams so every experiment is
//!   reproducible bit-for-bit.
//!
//! ```
//! use dcfail_stats::dist::{ContinuousDist, Gamma};
//! use dcfail_stats::fit::fit_gamma;
//! use dcfail_stats::rng::StreamRng;
//!
//! let mut rng = StreamRng::new(42).fork("example");
//! let gamma = Gamma::new(2.0, 3.0)?;
//! let xs: Vec<f64> = (0..2000).map(|_| gamma.sample(&mut rng)).collect();
//! let fitted = fit_gamma(&xs)?;
//! assert!((fitted.shape() - 2.0).abs() < 0.3);
//! # Ok::<(), dcfail_stats::StatsError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod binning;
pub mod bootstrap;
pub mod corr;
pub mod dist;
pub mod empirical;
pub mod fit;
pub mod gof;
pub mod kmeans;
pub mod merge;
pub mod rng;
pub mod special;
pub mod survival;
pub mod text;

use std::fmt;

/// Errors produced by the statistics substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A distribution parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name, e.g. `"shape"`.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The input sample was empty or too small for the requested operation.
    NotEnoughData {
        /// What was being computed.
        what: &'static str,
        /// Number of observations required.
        needed: usize,
        /// Number of observations given.
        got: usize,
    },
    /// The input sample contained a value outside the distribution support.
    InvalidSample {
        /// What was being computed.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An iterative estimator failed to converge.
    NoConvergence {
        /// What was being estimated.
        what: &'static str,
    },
    /// Input vectors that must share one dimension did not.
    DimensionMismatch {
        /// What was being computed.
        what: &'static str,
        /// Dimension of the first vector.
        expected: usize,
        /// Dimension of the first vector that differs.
        got: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidParameter { name, value } => {
                write!(f, "invalid {name} parameter: {value}")
            }
            StatsError::NotEnoughData { what, needed, got } => {
                write!(f, "{what} needs at least {needed} observations, got {got}")
            }
            StatsError::InvalidSample { what, value } => {
                write!(f, "{what} received out-of-support sample value {value}")
            }
            StatsError::NoConvergence { what } => {
                write!(f, "{what} did not converge")
            }
            StatsError::DimensionMismatch {
                what,
                expected,
                got,
            } => {
                write!(f, "{what} needs vectors of dimension {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = StatsError::InvalidParameter {
            name: "shape",
            value: -1.0,
        };
        assert_eq!(e.to_string(), "invalid shape parameter: -1");
        let e = StatsError::NotEnoughData {
            what: "gamma fit",
            needed: 2,
            got: 0,
        };
        assert_eq!(
            e.to_string(),
            "gamma fit needs at least 2 observations, got 0"
        );
        let e = StatsError::InvalidSample {
            what: "weibull fit",
            value: -3.0,
        };
        assert!(e.to_string().contains("out-of-support"));
        let e = StatsError::NoConvergence { what: "newton" };
        assert_eq!(e.to_string(), "newton did not converge");
        let e = StatsError::DimensionMismatch {
            what: "k-means",
            expected: 2,
            got: 3,
        };
        assert_eq!(e.to_string(), "k-means needs vectors of dimension 2, got 3");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<StatsError>();
    }
}
