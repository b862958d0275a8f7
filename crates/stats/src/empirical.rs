//! Empirical distributions and summary statistics.
//!
//! Every figure in the paper is built from these primitives: empirical CDFs
//! (Figs. 3, 4, 6), histograms/PDFs (Figs. 3, 6) and mean / median /
//! 25th–75th-percentile summaries (Figs. 2, 7–10 and Tables III, IV, VII).

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample: mean, median, percentiles, dispersion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 25th percentile.
    pub p25: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
}

impl Summary {
    /// Computes summary statistics of `data`.
    ///
    /// NaN observations carry no ordering or magnitude information and would
    /// otherwise poison every field (a NaN mean, a NaN max); they are
    /// dropped, with the drop count exposed through the
    /// `stats.summary.nan_dropped` obs counter. Returns `None` for an empty
    /// (or all-NaN) sample; `n` counts the observations actually used.
    pub fn of(data: &[f64]) -> Option<Self> {
        let mut sorted: Vec<f64> = data.iter().copied().filter(|x| !x.is_nan()).collect();
        let dropped = data.len() - sorted.len();
        if dropped > 0 {
            dcfail_obs::add("stats.summary.nan_dropped", dropped as u64);
        }
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_unstable_by(f64::total_cmp);
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Some(Self {
            n,
            mean,
            median: quantile_sorted(&sorted, 0.5),
            p25: quantile_sorted(&sorted, 0.25),
            p75: quantile_sorted(&sorted, 0.75),
            min: sorted[0],
            max: sorted[n - 1],
            std_dev: var.sqrt(),
        })
    }

    /// Coefficient of variation (σ / μ); `None` when the mean is zero.
    pub fn cv(&self) -> Option<f64> {
        (self.mean != 0.0).then(|| self.std_dev / self.mean)
    }
}

/// Quantile of already-sorted data with linear interpolation (type 7, the
/// R/NumPy default).
///
/// `total_cmp` ordering places negative-sign NaNs before `-inf` and
/// positive-sign NaNs after `+inf`, so in a sorted slice NaNs can only sit
/// at the two ends — where they used to silently poison `p100` and every
/// interpolated upper quantile. They are now excluded, with the excluded
/// count exposed through the `stats.quantile.nan_dropped` obs counter.
///
/// # Panics
///
/// Panics if `sorted` has no non-NaN values or `q` is outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let lead = sorted.iter().take_while(|x| x.is_nan()).count();
    let trail = sorted[lead..]
        .iter()
        .rev()
        .take_while(|x| x.is_nan())
        .count();
    if lead + trail > 0 {
        dcfail_obs::add("stats.quantile.nan_dropped", (lead + trail) as u64);
    }
    let clean = &sorted[lead..sorted.len() - trail];
    assert!(!clean.is_empty(), "quantile of empty sample (all NaN?)");
    let h = (clean.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    clean[lo] + (h - lo as f64) * (clean[hi] - clean[lo])
}

/// Quantile of unsorted data (sorts a copy; NaN values are excluded, see
/// [`quantile_sorted`]).
///
/// # Panics
///
/// Panics if `data` has no non-NaN values or `q` is outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    let mut sorted = data.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// An empirical cumulative distribution function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample (NaN values sort last).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn new(data: &[f64]) -> Self {
        assert!(!data.is_empty(), "ECDF of empty sample");
        let mut sorted = data.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        Self { sorted }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (an ECDF cannot be empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// F̂(x) = fraction of observations ≤ x.
    pub fn eval(&self, x: f64) -> f64 {
        self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_sorted(&self.sorted, q)
    }

    /// Evenly spaced (x, F̂(x)) points for plotting, `points` of them.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "curve needs at least 2 points");
        let lo = self.sorted[0];
        let hi = self.sorted[self.sorted.len() - 1];
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

/// A fixed-width histogram over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    /// Observations outside `[lo, hi)`.
    outliers: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            outliers: 0,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        if x < self.lo || x >= self.hi || x.is_nan() {
            self.outliers += 1;
            return;
        }
        let bin = ((x - self.lo) / (self.hi - self.lo) * self.counts.len() as f64) as usize;
        let bin = bin.min(self.counts.len() - 1);
        self.counts[bin] += 1;
        self.total += 1;
    }

    /// Adds one observation, treating the range as right-closed `[lo, hi]`:
    /// `x == hi` lands in the last bin instead of counting as an outlier.
    ///
    /// Use this when `hi` was derived from the sample maximum itself (e.g.
    /// machine-age histograms ranged to the oldest machine), where the
    /// half-open convention would misfile the defining observation.
    pub fn add_right_closed(&mut self, x: f64) {
        if x == self.hi {
            let last = self.counts.len() - 1;
            self.counts[last] += 1;
            self.total += 1;
            return;
        }
        self.add(x);
    }

    /// Adds many observations.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.add(x);
        }
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// In-range observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Out-of-range observations.
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Density estimate: (bin_center, pdf) pairs normalized to integrate to 1
    /// over the range. Empty histogram yields all-zero densities.
    pub fn density(&self) -> Vec<(f64, f64)> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let norm = if self.total == 0 {
            0.0
        } else {
            1.0 / (self.total as f64 * w)
        };
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bin_center(i), c as f64 * norm))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p25, 1.75);
        assert_eq!(s.p75, 3.25);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((s.cv().unwrap() - s.std_dev / 2.5).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_single_observation() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn cv_none_for_zero_mean() {
        let s = Summary::of(&[-1.0, 1.0]).unwrap();
        assert!(s.cv().is_none());
    }

    #[test]
    fn quantiles_interpolate() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 1.0), 5.0);
        assert_eq!(quantile(&data, 0.5), 3.0);
        assert_eq!(quantile(&data, 0.25), 2.0);
        assert_eq!(quantile(&data, 0.1), 1.4);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn quantile_of_empty_panics() {
        let _ = quantile(&[], 0.5);
    }

    /// Serializes the tests that feed NaNs to `quantile` or `Summary::of`:
    /// their drop counters are process-global, and
    /// `nan_drops_are_counted_when_metrics_enabled` asserts exact counts.
    fn nan_serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn quantile_drops_nan_instead_of_poisoning_p100() {
        let _serial = nan_serial();
        // Before the fix, total_cmp sorted the NaN after +inf and p100 (and
        // every interpolated upper quantile) came back NaN.
        let data = [1.0, f64::NAN, 3.0, 2.0];
        assert_eq!(quantile(&data, 1.0), 3.0);
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 0.5), 2.0);
        // Negative-sign NaNs sort *before* -inf under total_cmp; both ends
        // must be trimmed.
        let mixed = [-f64::NAN, 5.0, f64::NAN];
        assert_eq!(quantile(&mixed, 0.5), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn quantile_of_all_nan_panics() {
        let _serial = nan_serial();
        let _ = quantile(&[f64::NAN, f64::NAN], 0.5);
    }

    #[test]
    fn summary_filters_nan() {
        let _serial = nan_serial();
        let s = Summary::of(&[4.0, f64::NAN, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.max, 4.0);
        assert!(Summary::of(&[f64::NAN]).is_none());
    }

    #[test]
    fn nan_drops_are_counted_when_metrics_enabled() {
        let _serial = nan_serial();
        let handle = dcfail_obs::ObsHandle::install()
            .expect("the only test in this binary opening a window");
        let _ = quantile(&[1.0, f64::NAN, 2.0], 0.5);
        let _ = Summary::of(&[f64::NAN, 7.0]);
        let report = handle.finish();
        assert_eq!(report.counter("stats.quantile.nan_dropped"), Some(1));
        assert_eq!(report.counter("stats.summary.nan_dropped"), Some(1));
    }

    #[test]
    fn obs_histogram_percentiles_agree_with_quantile_sorted() {
        // dcfail-obs duplicates the type-7 quantile (it sits below this
        // crate in the dependency graph); this pins the two in agreement.
        let mut sorted: Vec<f64> = (0..97).map(|i| f64::from(i) * 1.37 % 11.0).collect();
        sorted.sort_unstable_by(f64::total_cmp);
        let m = dcfail_obs::HistogramMetric::from_sorted("x".to_string(), &sorted);
        assert_eq!(m.p50, quantile_sorted(&sorted, 0.50));
        assert_eq!(m.p95, quantile_sorted(&sorted, 0.95));
        assert_eq!(m.p99, quantile_sorted(&sorted, 0.99));
    }

    #[test]
    fn ecdf_eval_and_quantile() {
        let e = Ecdf::new(&[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(100.0), 1.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 4.0);
    }

    #[test]
    fn ecdf_curve_is_monotone() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 7.3) % 13.0).collect();
        let e = Ecdf::new(&data);
        let curve = e.curve(50);
        assert_eq!(curve.len(), 50);
        for pair in curve.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
            assert!(pair[0].0 <= pair[1].0);
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn histogram_counts_and_density() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.extend([0.5, 1.0, 2.5, 9.9, 10.0, -0.1, f64::NAN]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.outliers(), 3);
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.bin_center(0), 1.0);
        let dens = h.density();
        let integral: f64 = dens.iter().map(|(_, d)| d * 2.0).sum();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    fn right_closed_add_puts_hi_in_last_bin() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.add_right_closed(10.0);
        h.add_right_closed(9.9);
        h.add_right_closed(10.1); // still an outlier
        h.add_right_closed(f64::NAN); // still an outlier
        assert_eq!(h.counts(), &[0, 0, 0, 0, 2]);
        assert_eq!(h.outliers(), 2);
    }

    #[test]
    fn empty_histogram_density_is_zero() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!(h.density().iter().all(|&(_, d)| d == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
