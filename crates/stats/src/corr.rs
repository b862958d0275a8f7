//! Serial correlation.
//!
//! Failures cluster in time; the autocorrelation function of a daily
//! failure-count series and its Ljung–Box statistic make that quantitative.

use crate::{Result, StatsError};

/// Sample autocorrelation function at lags `0..=max_lag`.
///
/// Uses the standard biased estimator (normalizing by `n`), which keeps the
/// sequence positive semi-definite. `acf[0]` is always 1.
///
/// # Errors
///
/// Returns an error when the series is shorter than `max_lag + 2`, contains
/// non-finite values, or has zero variance.
pub fn autocorrelation(series: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    if series.len() < max_lag + 2 {
        return Err(StatsError::NotEnoughData {
            what: "autocorrelation",
            needed: max_lag + 2,
            got: series.len(),
        });
    }
    for &v in series {
        if !v.is_finite() {
            return Err(StatsError::InvalidSample {
                what: "autocorrelation",
                value: v,
            });
        }
    }
    let n = series.len() as f64;
    let mean = series.iter().sum::<f64>() / n;
    let var: f64 = series.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    if var == 0.0 {
        return Err(StatsError::InvalidSample {
            what: "autocorrelation",
            value: 0.0,
        });
    }
    let mut acf = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag {
        let cov: f64 = series[lag..]
            .iter()
            .zip(series)
            .map(|(&a, &b)| (a - mean) * (b - mean))
            .sum::<f64>()
            / n;
        acf.push(cov / var);
    }
    Ok(acf)
}

/// Ljung–Box Q statistic over lags `1..=max_lag`; larger values indicate
/// stronger serial correlation. Under the white-noise null, Q is
/// approximately χ²(max_lag); a common rejection threshold at 5% for
/// `max_lag = 7` is ≈ 14.1.
///
/// # Errors
///
/// Same conditions as [`autocorrelation`].
pub fn ljung_box(series: &[f64], max_lag: usize) -> Result<f64> {
    let acf = autocorrelation(series, max_lag)?;
    let n = series.len() as f64;
    Ok(n * (n + 2.0)
        * acf[1..]
            .iter()
            .enumerate()
            .map(|(i, &r)| r * r / (n - (i + 1) as f64))
            .sum::<f64>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acf_of_white_noise_is_near_zero() {
        use crate::rng::StreamRng;
        let mut rng = StreamRng::new(3);
        let series: Vec<f64> = (0..2000).map(|_| rng.standard_normal()).collect();
        let acf = autocorrelation(&series, 10).unwrap();
        assert_eq!(acf[0], 1.0);
        for &r in &acf[1..] {
            assert!(r.abs() < 0.08, "white-noise acf {r}");
        }
        // Ljung-Box stays below the χ²(10) 5% threshold (~18.3) most often;
        // allow margin.
        assert!(ljung_box(&series, 10).unwrap() < 25.0);
    }

    #[test]
    fn acf_detects_persistence() {
        // AR(1)-like series: x[t] = 0.8 x[t-1] + noise.
        use crate::rng::StreamRng;
        let mut rng = StreamRng::new(4);
        let mut series = vec![0.0f64];
        for _ in 1..2000 {
            let prev = *series.last().expect("non-empty");
            series.push(0.8 * prev + rng.standard_normal());
        }
        let acf = autocorrelation(&series, 5).unwrap();
        assert!(acf[1] > 0.7, "lag-1 acf {}", acf[1]);
        assert!(acf[2] > acf[3], "acf should decay");
        assert!(ljung_box(&series, 7).unwrap() > 100.0);
    }

    #[test]
    fn acf_is_invariant_under_affine_rescaling() {
        let series: Vec<f64> = (0..60)
            .map(|i| f64::from(i % 7) + 0.1 * f64::from(i))
            .collect();
        let rescaled: Vec<f64> = series.iter().map(|x| 3.0 * x - 40.0).collect();
        let a = autocorrelation(&series, 6).unwrap();
        let b = autocorrelation(&rescaled, 6).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
        let qa = ljung_box(&series, 6).unwrap();
        assert!((qa - ljung_box(&rescaled, 6).unwrap()).abs() < 1e-9 * qa);
    }

    #[test]
    fn ljung_box_rejects_what_autocorrelation_rejects() {
        assert!(ljung_box(&[1.0, 2.0, 3.0], 2).is_err());
        assert!(ljung_box(&[4.0; 20], 3).is_err());
        assert!(ljung_box(&[1.0, 2.0, f64::INFINITY, 3.0], 1).is_err());
        assert!(ljung_box(&[1.0, 3.0, 2.0, 4.0], 2).is_ok());
    }

    #[test]
    fn acf_rejects_bad_input() {
        assert!(autocorrelation(&[1.0, 2.0], 5).is_err());
        assert!(autocorrelation(&[1.0; 50], 5).is_err()); // zero variance
        assert!(autocorrelation(&[1.0, f64::NAN, 2.0, 3.0], 1).is_err());
    }
}
