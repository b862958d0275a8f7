//! Survival analysis: the Kaplan–Meier estimator with right-censoring.
//!
//! The paper "collect\[s\] no inter-failure times for servers that only fail
//! once" — those servers are *right-censored*: they survived from their last
//! failure to the end of the observation window without failing again.
//! Dropping them biases inter-failure times downward; the Kaplan–Meier
//! estimator uses them correctly.

use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// One subject's outcome: time observed, and whether the event occurred
/// (`true`) or observation was censored (`false`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Time until the event or censoring.
    pub time: f64,
    /// `true` when the event occurred, `false` when censored.
    pub event: bool,
}

impl Observation {
    /// An observed event at `time`.
    pub fn event(time: f64) -> Self {
        Self { time, event: true }
    }

    /// A censored observation at `time`.
    pub fn censored(time: f64) -> Self {
        Self { time, event: false }
    }
}

/// A Kaplan–Meier survival curve: step function S(t).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KaplanMeier {
    /// Distinct event times, ascending.
    times: Vec<f64>,
    /// S(t) immediately after each event time.
    survival: Vec<f64>,
    n: usize,
    n_censored: usize,
}

impl KaplanMeier {
    /// Fits the estimator.
    ///
    /// # Errors
    ///
    /// Returns an error when `observations` is empty, contains non-finite or
    /// negative times, or contains no events at all.
    pub fn fit(observations: &[Observation]) -> Result<Self> {
        if observations.is_empty() {
            return Err(StatsError::NotEnoughData {
                what: "Kaplan-Meier",
                needed: 1,
                got: 0,
            });
        }
        for o in observations {
            if !o.time.is_finite() || o.time < 0.0 {
                return Err(StatsError::InvalidSample {
                    what: "Kaplan-Meier",
                    value: o.time,
                });
            }
        }
        if !observations.iter().any(|o| o.event) {
            return Err(StatsError::NotEnoughData {
                what: "Kaplan-Meier events",
                needed: 1,
                got: 0,
            });
        }
        let mut sorted: Vec<Observation> = observations.to_vec();
        // Events before censorings at ties (the standard convention);
        // observations tied on both fields are interchangeable, so an
        // unstable sort cannot change the estimate.
        sorted.sort_unstable_by(|a, b| a.time.total_cmp(&b.time).then(b.event.cmp(&a.event)));

        let n = sorted.len();
        let mut times = Vec::new();
        let mut survival = Vec::new();
        let mut s = 1.0f64;
        let mut i = 0usize;
        while i < n {
            let t = sorted[i].time;
            let at_risk = n - i;
            let mut d = 0usize; // events at t
            let mut j = i;
            while j < n && sorted[j].time == t {
                if sorted[j].event {
                    d += 1;
                }
                j += 1;
            }
            if d > 0 {
                s *= 1.0 - d as f64 / at_risk as f64;
                times.push(t);
                survival.push(s);
            }
            i = j;
        }
        Ok(Self {
            times,
            survival,
            n,
            n_censored: observations.iter().filter(|o| !o.event).count(),
        })
    }

    /// Survival probability S(t).
    pub fn survival_at(&self, t: f64) -> f64 {
        // Last event time ≤ t.
        let idx = self.times.partition_point(|&x| x <= t);
        if idx == 0 {
            1.0
        } else {
            self.survival[idx - 1]
        }
    }

    /// Event-probability CDF: F(t) = 1 − S(t).
    pub fn cdf(&self, t: f64) -> f64 {
        1.0 - self.survival_at(t)
    }

    /// Median survival time: smallest event time with S(t) ≤ 0.5, if the
    /// curve drops that far (heavily censored data may never reach 0.5).
    pub fn median(&self) -> Option<f64> {
        self.times
            .iter()
            .zip(&self.survival)
            .find(|&(_, &s)| s <= 0.5)
            .map(|(&t, _)| t)
    }

    /// The curve as `(time, survival)` steps.
    pub fn curve(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times
            .iter()
            .copied()
            .zip(self.survival.iter().copied())
    }

    /// Number of observations fitted.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of censored observations.
    pub fn n_censored(&self) -> usize {
        self.n_censored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncensored_km_equals_ecdf_complement() {
        let obs: Vec<Observation> = [1.0, 2.0, 3.0, 4.0]
            .iter()
            .map(|&t| Observation::event(t))
            .collect();
        let km = KaplanMeier::fit(&obs).unwrap();
        assert_eq!(km.survival_at(0.5), 1.0);
        assert_eq!(km.survival_at(1.0), 0.75);
        assert_eq!(km.survival_at(2.5), 0.5);
        assert_eq!(km.survival_at(4.0), 0.0);
        assert_eq!(km.cdf(2.5), 0.5);
        assert_eq!(km.median(), Some(2.0));
        assert_eq!(km.n(), 4);
        assert_eq!(km.n_censored(), 0);
    }

    #[test]
    fn textbook_censored_example() {
        // Classic example: events at 6,6,6,7,10,13,16,22,23; censored at
        // 6,9,10,11,17,19,20,25,32,32,34,35 (Freireich 6-MP arm).
        let events = [6.0, 6.0, 6.0, 7.0, 10.0, 13.0, 16.0, 22.0, 23.0];
        let censored = [
            6.0, 9.0, 10.0, 11.0, 17.0, 19.0, 20.0, 25.0, 32.0, 32.0, 34.0, 35.0,
        ];
        let mut obs: Vec<Observation> = events.iter().map(|&t| Observation::event(t)).collect();
        obs.extend(censored.iter().map(|&t| Observation::censored(t)));
        let km = KaplanMeier::fit(&obs).unwrap();
        // Known values: S(6) = 0.8571, S(10) = 0.7529, S(23) = 0.4482.
        assert!((km.survival_at(6.0) - 0.8571).abs() < 1e-3);
        assert!((km.survival_at(10.0) - 0.7529).abs() < 1e-3);
        assert!((km.survival_at(23.0) - 0.4482).abs() < 1e-3);
        assert_eq!(km.median(), Some(23.0));
        assert_eq!(km.n_censored(), 12);
    }

    #[test]
    fn censoring_raises_survival_vs_dropping() {
        // Events at small times plus many long censored subjects: dropping
        // the censored ones (the paper's approach) underestimates survival.
        let mut obs: Vec<Observation> = (1..=10).map(|t| Observation::event(t as f64)).collect();
        obs.extend((0..30).map(|_| Observation::censored(50.0)));
        let km = KaplanMeier::fit(&obs).unwrap();
        let naive_median = 5.5; // median of the uncensored events
        let km_s_at_naive = km.survival_at(naive_median);
        assert!(
            km_s_at_naive > 0.8,
            "S({naive_median}) = {km_s_at_naive}: censored mass must keep survival high"
        );
        assert_eq!(km.median(), None, "curve never reaches 0.5");
    }

    #[test]
    fn fit_is_independent_of_input_order() {
        let mut obs: Vec<Observation> = (0..40)
            .map(|i| {
                let t = f64::from(i % 9) + 1.0;
                if i % 3 == 0 {
                    Observation::censored(t)
                } else {
                    Observation::event(t)
                }
            })
            .collect();
        let forward = KaplanMeier::fit(&obs).unwrap();
        obs.reverse();
        assert_eq!(KaplanMeier::fit(&obs).unwrap(), forward);
        obs.rotate_left(17);
        assert_eq!(KaplanMeier::fit(&obs).unwrap(), forward);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(KaplanMeier::fit(&[]).is_err());
        assert!(KaplanMeier::fit(&[Observation::censored(5.0)]).is_err());
        assert!(KaplanMeier::fit(&[Observation::event(-1.0)]).is_err());
        assert!(KaplanMeier::fit(&[Observation::event(f64::NAN)]).is_err());
    }

    #[test]
    fn curve_is_monotone_decreasing() {
        let mut obs: Vec<Observation> = (1..=50)
            .map(|t| Observation::event((t % 13) as f64 + 1.0))
            .collect();
        obs.extend((0..10).map(|i| Observation::censored(i as f64 + 0.5)));
        let km = KaplanMeier::fit(&obs).unwrap();
        let mut prev = 1.0;
        for (_, s) in km.curve() {
            assert!(s <= prev + 1e-12);
            assert!((0.0..=1.0).contains(&s));
            prev = s;
        }
    }
}
