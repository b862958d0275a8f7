//! Shared machinery for the rate-vs-attribute figures (Figs. 7–10).
//!
//! All four figures have the same skeleton: bucket machines by an attribute
//! (capacity, weekly usage, consolidation level, on/off frequency), compute
//! the weekly failure rate of each bucket, and report mean + 25th/75th
//! percentiles per bucket. [`AttributeCurve`] is that result; the panels and
//! the driver that counts them live in [`crate::panel`].

use dcfail_stats::empirical::Summary;
use dcfail_stats::merge::CountMatrix;
use serde::{Deserialize, Serialize};

/// One bucket of a rate-vs-attribute curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Bucket label (e.g. `"4"` CPUs or `"10-20"` percent).
    pub label: String,
    /// Mean weekly failure rate of the bucket.
    pub mean: f64,
    /// 25th percentile of the bucket's weekly rate series.
    pub p25: f64,
    /// 75th percentile of the bucket's weekly rate series.
    pub p75: f64,
    /// Machine-weeks observed in the bucket.
    pub machine_weeks: usize,
    /// Failure events observed in the bucket.
    pub events: usize,
}

/// A full rate-vs-attribute curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeCurve {
    /// What the attribute is (for rendering).
    pub attribute: String,
    /// Buckets in attribute order; empty buckets are omitted.
    pub points: Vec<CurvePoint>,
}

impl AttributeCurve {
    /// The curve of per-(bin, week) machine and event counts: for each bin,
    /// the weekly rate series `events / machines` over the weeks the bin is
    /// populated, summarized. Empty bins are omitted.
    pub(crate) fn from_counts(
        attribute: &str,
        labels: &[String],
        population: &CountMatrix,
        events: &CountMatrix,
    ) -> Self {
        let mut points = Vec::new();
        for (bin, label) in labels.iter().enumerate() {
            let mut series = Vec::new();
            let mut machine_weeks = 0usize;
            let mut event_total = 0usize;
            for w in 0..population.cols() {
                let pop = population.get(bin, w);
                if pop == 0 {
                    continue;
                }
                machine_weeks += pop as usize;
                event_total += events.get(bin, w) as usize;
                series.push(events.get(bin, w) as f64 / pop as f64);
            }
            let Some(s) = Summary::of(&series) else {
                continue;
            };
            points.push(CurvePoint {
                label: label.clone(),
                mean: s.mean,
                p25: s.p25,
                p75: s.p75,
                machine_weeks,
                events: event_total,
            });
        }
        Self {
            attribute: attribute.to_string(),
            points,
        }
    }

    /// Mean rate of the bucket with `label`, if present.
    pub fn mean_of(&self, label: &str) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.label == label)
            .map(|p| p.mean)
    }

    /// [`AttributeCurve::dynamic_range`] restricted to buckets holding at
    /// least `min_share` of the curve's machine-weeks — sparse outlier
    /// buckets otherwise dominate the ratio.
    pub fn dynamic_range_min_weight(&self, min_share: f64) -> Option<f64> {
        let total: usize = self.points.iter().map(|p| p.machine_weeks).sum();
        let floor = (total as f64 * min_share) as usize;
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for p in &self.points {
            if p.machine_weeks < floor.max(1) {
                continue;
            }
            lo = lo.min(p.mean);
            hi = hi.max(p.mean);
        }
        (lo.is_finite() && lo > 0.0 && hi > 0.0).then(|| hi / lo)
    }

    /// Ratio between the highest and lowest bucket means (the paper's
    /// "impact factor", e.g. 5.5× for PM CPU counts).
    pub fn dynamic_range(&self) -> Option<f64> {
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for p in &self.points {
            if p.machine_weeks == 0 {
                continue;
            }
            lo = lo.min(p.mean);
            hi = hi.max(p.mean);
        }
        (lo.is_finite() && lo > 0.0 && hi > 0.0).then(|| hi / lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use dcfail_model::prelude::*;

    #[test]
    fn curve_rate_normalizes_by_population() {
        let ds = testutil::dataset();
        // Single catch-all bin → curve mean equals the overall weekly rate.
        let weeks = ds.horizon().num_weeks();
        let mut population = CountMatrix::zeros(1, weeks);
        population.add_row(0, ds.population(MachineKind::Pm, None) as u64);
        let mut events = CountMatrix::zeros(1, weeks);
        for ev in ds.events() {
            if let Some(w) = ds.horizon().week_of(ev.at()) {
                if ds.machine(ev.machine()).is_pm() {
                    events.add(0, w, 1);
                }
            }
        }
        let curve = AttributeCurve::from_counts("all", &["all".into()], &population, &events);
        assert_eq!(curve.points.len(), 1);
        let all_pm = crate::rates::weekly_failure_rates(ds).all_pm.unwrap();
        assert!(
            (curve.points[0].mean - all_pm.mean).abs() < 1e-9,
            "curve {} vs fig2 {}",
            curve.points[0].mean,
            all_pm.mean
        );
    }

    #[test]
    fn unpopulated_bins_drop_out() {
        let mut events = CountMatrix::zeros(2, 3);
        events.add(1, 2, 4);
        let curve = AttributeCurve::from_counts(
            "none",
            &["a".into(), "b".into()],
            &CountMatrix::zeros(2, 3),
            &events,
        );
        assert!(curve.points.is_empty());
        assert!(curve.dynamic_range().is_none());
    }

    #[test]
    fn weeks_without_population_are_skipped_not_averaged_as_zero() {
        let mut population = CountMatrix::zeros(2, 3);
        population.add(0, 0, 2);
        population.add(0, 2, 4);
        population.add_row(1, 5);
        let mut events = CountMatrix::zeros(2, 3);
        events.add(0, 0, 1);
        events.add(0, 2, 2);
        let labels = ["busy".to_string(), "quiet".to_string()];
        let curve = AttributeCurve::from_counts("x", &labels, &population, &events);
        let busy = &curve.points[0];
        assert_eq!((busy.mean, busy.machine_weeks, busy.events), (0.5, 6, 3));
        let quiet = &curve.points[1];
        assert_eq!(
            (quiet.mean, quiet.machine_weeks, quiet.events),
            (0.0, 15, 0)
        );
        assert_eq!(curve.dynamic_range(), None, "a zero-rate bin has no ratio");
    }

    #[test]
    fn mean_of_and_dynamic_range() {
        let curve = AttributeCurve {
            attribute: "x".into(),
            points: vec![
                CurvePoint {
                    label: "a".into(),
                    mean: 0.002,
                    p25: 0.0,
                    p75: 0.004,
                    machine_weeks: 10,
                    events: 1,
                },
                CurvePoint {
                    label: "b".into(),
                    mean: 0.01,
                    p25: 0.005,
                    p75: 0.015,
                    machine_weeks: 10,
                    events: 5,
                },
            ],
        };
        assert_eq!(curve.mean_of("b"), Some(0.01));
        assert_eq!(curve.mean_of("zz"), None);
        assert!((curve.dynamic_range().unwrap() - 5.0).abs() < 1e-12);
        // Weighted range drops sparse buckets.
        assert!((curve.dynamic_range_min_weight(0.1).unwrap() - 5.0).abs() < 1e-12);
        let mut sparse = curve.clone();
        sparse.points.push(CurvePoint {
            label: "c".into(),
            mean: 1.0,
            p25: 0.0,
            p75: 1.0,
            machine_weeks: 1,
            events: 1,
        });
        assert!(sparse.dynamic_range().unwrap() > 100.0);
        assert!((sparse.dynamic_range_min_weight(0.2).unwrap() - 5.0).abs() < 1e-12);
    }
}
