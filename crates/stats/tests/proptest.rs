//! Property tests for the statistics substrate.

#![allow(clippy::unwrap_used)]

use dcfail_stats::binning::Bins;
use dcfail_stats::dist::{ContinuousDist, Exponential, Gamma, LogNormal, Pareto, Uniform, Weibull};
use dcfail_stats::empirical::{quantile, Ecdf, Summary};
use dcfail_stats::kmeans::{KMeans, KMeansConfig};
use dcfail_stats::rng::StreamRng;
use dcfail_stats::special::{digamma, ln_gamma, reg_lower_gamma, trigamma};
use dcfail_stats::survival::{KaplanMeier, Observation};
use proptest::prelude::*;

fn all_dists(a: f64, b: f64) -> Vec<Box<dyn ContinuousDist>> {
    vec![
        Box::new(Exponential::new(1.0 / b).unwrap()),
        Box::new(Gamma::new(a, b).unwrap()),
        Box::new(Weibull::new(a, b).unwrap()),
        Box::new(LogNormal::new(b.ln(), a).unwrap()),
        Box::new(Uniform::new(0.0, b).unwrap()),
        Box::new(Pareto::new(b, a + 1.0).unwrap()),
    ]
}

proptest! {
    /// Γ satisfies its defining recurrence: ln Γ(x+1) = ln x + ln Γ(x).
    #[test]
    fn gamma_recurrence(x in 0.05f64..50.0) {
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-9, "x = {x}: {lhs} vs {rhs}");
    }

    /// ψ satisfies ψ(x+1) = ψ(x) + 1/x, and ψ' satisfies the analogue.
    #[test]
    fn digamma_recurrence(x in 0.05f64..50.0) {
        prop_assert!((digamma(x + 1.0) - digamma(x) - 1.0 / x).abs() < 1e-9);
        prop_assert!((trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)).abs() < 1e-8);
    }

    /// P(a, ·) is a CDF in x: monotone, 0 at 0, → 1.
    #[test]
    fn incomplete_gamma_is_cdf(a in 0.1f64..20.0, x in 0.0f64..100.0) {
        let p = reg_lower_gamma(a, x);
        prop_assert!((0.0..=1.0).contains(&p));
        let p2 = reg_lower_gamma(a, x + 1.0);
        prop_assert!(p2 >= p - 1e-12);
        prop_assert_eq!(reg_lower_gamma(a, 0.0), 0.0);
    }

    /// Every distribution: samples in support, CDF monotone in [0,1],
    /// pdf nonnegative, and CDF-at-sample is roughly uniform in median.
    #[test]
    fn distribution_invariants(a in 0.4f64..4.0, b in 0.5f64..30.0, seed in 0u64..1000) {
        let mut rng = StreamRng::new(seed);
        for d in all_dists(a, b) {
            let xs: Vec<f64> = (0..64).map(|_| d.sample(&mut rng)).collect();
            for &x in &xs {
                prop_assert!(x.is_finite(), "{} sampled {x}", d.family());
                prop_assert!(d.pdf(x) >= 0.0);
                let c = d.cdf(x);
                prop_assert!((0.0..=1.0).contains(&c), "{}: cdf = {c}", d.family());
            }
            // Monotonicity at a few probes.
            let mut prev = -1.0;
            for i in 0..10 {
                let x = b * i as f64 / 3.0;
                let c = d.cdf(x);
                prop_assert!(c >= prev - 1e-12);
                prev = c;
            }
        }
    }

    /// Summary invariants: min ≤ p25 ≤ median ≤ p75 ≤ max, mean within
    /// [min, max].
    #[test]
    fn summary_ordering(values in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let s = Summary::of(&values).unwrap();
        prop_assert!(s.min <= s.p25 + 1e-9);
        prop_assert!(s.p25 <= s.median + 1e-9);
        prop_assert!(s.median <= s.p75 + 1e-9);
        prop_assert!(s.p75 <= s.max + 1e-9);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert_eq!(s.n, values.len());
    }

    /// Quantiles are monotone in the level.
    #[test]
    fn quantile_monotone(values in prop::collection::vec(0.0f64..1e6, 2..200), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&values, lo) <= quantile(&values, hi) + 1e-9);
    }

    /// ECDF at each sorted sample point steps by at least 1/n.
    #[test]
    fn ecdf_steps(values in prop::collection::vec(0.0f64..1000.0, 1..100)) {
        let e = Ecdf::new(&values);
        let n = values.len() as f64;
        for &v in &values {
            prop_assert!(e.eval(v) >= 1.0 / n - 1e-12);
        }
        prop_assert_eq!(e.eval(f64::MAX), 1.0);
        prop_assert_eq!(e.eval(-1.0), 0.0);
    }

    /// Bins: every in-range value maps to exactly one bin whose edges
    /// bracket it.
    #[test]
    fn bins_partition(edges_raw in prop::collection::btree_set(0i64..10_000, 2..12), probe in 0i64..10_000) {
        let edges: Vec<f64> = edges_raw.iter().map(|&e| e as f64).collect();
        let bins = Bins::from_edges(edges.clone());
        let x = probe as f64;
        match bins.index_of(x) {
            Some(i) => {
                prop_assert!(i < bins.len());
                prop_assert!(edges[i] <= x);
                prop_assert!(x <= edges[i + 1]);
            }
            None => {
                prop_assert!(x < edges[0] || x > *edges.last().unwrap());
            }
        }
    }

    /// K-means: every point is assigned to its nearest centroid, and
    /// inertia is nonnegative and reproducible.
    #[test]
    fn kmeans_invariants(seed in 0u64..200, k in 1usize..5) {
        let mut data_rng = StreamRng::new(seed);
        let points: Vec<Vec<f32>> = (0..40)
            .map(|_| (0..3).map(|_| data_rng.standard_normal() as f32).collect())
            .collect();
        let km = KMeans::fit(&points, KMeansConfig::new(k), &mut StreamRng::new(seed)).unwrap();
        prop_assert!(km.inertia() >= 0.0);
        prop_assert_eq!(km.assignments().len(), points.len());
        for (p, &a) in points.iter().zip(km.assignments()) {
            prop_assert_eq!(km.predict(p), a);
        }
        let km2 = KMeans::fit(&points, KMeansConfig::new(k), &mut StreamRng::new(seed)).unwrap();
        prop_assert_eq!(km.assignments(), km2.assignments());
    }

    /// Kaplan–Meier survival is monotone nonincreasing in [0, 1], and with
    /// zero censoring matches 1 − ECDF at event times.
    #[test]
    fn km_invariants(times in prop::collection::vec(0.1f64..100.0, 1..60), censor_every in 2usize..5) {
        let obs: Vec<Observation> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                if i % censor_every == 0 && i > 0 {
                    Observation::censored(t)
                } else {
                    Observation::event(t)
                }
            })
            .collect();
        prop_assume!(obs.iter().any(|o| o.event));
        let km = KaplanMeier::fit(&obs).unwrap();
        let mut prev = 1.0;
        for i in 0..20 {
            let t = 100.0 * i as f64 / 19.0;
            let s = km.survival_at(t);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!(s <= prev + 1e-12);
            prev = s;
        }
    }

    /// Fit → sample → fit round-trips stay in a loose band even for small
    /// samples (no crashes, finite outputs).
    #[test]
    fn fit_is_total_on_valid_input(seed in 0u64..300, shape in 0.4f64..3.0, scale in 0.5f64..20.0) {
        let mut rng = StreamRng::new(seed);
        let g = Gamma::new(shape, scale).unwrap();
        let xs: Vec<f64> = (0..100).map(|_| g.sample(&mut rng)).collect();
        let fit = dcfail_stats::fit::fit_gamma(&xs).unwrap();
        prop_assert!(fit.shape().is_finite() && fit.shape() > 0.0);
        prop_assert!(fit.scale().is_finite() && fit.scale() > 0.0);
    }

    /// Open-ended bins keep their defining promise: no finite non-NaN value
    /// at or above the first edge maps to `None`, everything at or above
    /// the last finite edge lands in the labelled-open top bin, and below
    /// it the mapping agrees with the closed bins over the same edges.
    #[test]
    fn open_last_bins_never_drop_high_values(
        base in -1e6f64..1e6,
        steps in proptest::collection::vec(0.001f64..1e3, 1..8),
        probe in -1e9f64..1e9,
    ) {
        let mut edges = vec![base];
        for s in &steps {
            let next = edges[edges.len() - 1] + s;
            edges.push(next);
        }
        let last = edges[edges.len() - 1];
        let bins = Bins::open_last(edges.clone());
        prop_assert_eq!(bins.index_of(f64::MAX), Some(bins.len() - 1));
        prop_assert_eq!(bins.len(), edges.len());
        prop_assert!(bins.label(bins.len() - 1).ends_with('+'));
        match bins.index_of(probe) {
            None => prop_assert!(probe < edges[0], "{probe} dropped in-range"),
            Some(i) => {
                prop_assert!(probe >= edges[0]);
                prop_assert!(i < bins.len());
                if probe >= last {
                    prop_assert_eq!(i, bins.len() - 1);
                } else {
                    prop_assert_eq!(Bins::from_edges(edges.clone()).index_of(probe), Some(i));
                }
            }
        }
        prop_assert_eq!(bins.index_of(f64::NAN), None);
        prop_assert_eq!(bins.index_of(f64::INFINITY), None, "only finite values bin");
    }
}
