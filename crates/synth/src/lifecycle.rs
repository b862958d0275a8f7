//! VM lifecycle: creation dates and on/off power logs.
//!
//! VMs are "created in a batch manner" (the paper's explanation for the
//! fluctuating failure-vs-age PDF), and 25% of the population predates the
//! two-year telemetry window, so their creation date is unknown. On/off
//! behaviour is skewed: 60% of VMs toggle at most once per month while 14%
//! are power-cycled 8+ times per month.

use dcfail_model::prelude::*;
use dcfail_stats::rng::StreamRng;

/// Fraction of VMs whose creation predates the telemetry window.
const UNKNOWN_CREATION_FRACTION: f64 = 0.25;
/// Batch spacing for VM creation, in days.
const BATCH_SPACING_DAYS: i64 = 14;

/// Samples a VM creation date: `None` for the ~25% predating telemetry,
/// otherwise a batch instant within the last two years (one year before the
/// observation window plus the observation year itself).
pub fn sample_creation_date(rng: &mut StreamRng, horizon: Horizon) -> Option<SimTime> {
    if rng.bernoulli(UNKNOWN_CREATION_FRACTION) {
        return None;
    }
    // Batches every two weeks from one year before observation start up to
    // the horizon end; earlier batches are bigger (existing estates grew
    // over time), giving an uneven per-age population like the paper's.
    let earliest = horizon.start() - SimDuration::from_days(364);
    let total_days = (horizon.end() - earliest).as_days() as i64;
    let num_batches = (total_days / BATCH_SPACING_DAYS).max(1) as usize;
    // Weight ∝ (num_batches − i) so early batches dominate.
    let weights: Vec<f64> = (0..num_batches).map(|i| (num_batches - i) as f64).collect();
    let batch = rng.weighted(&weights);
    let at = earliest + SimDuration::from_days(batch as i64 * BATCH_SPACING_DAYS);
    // Jitter inside the batch day.
    Some(at + SimDuration::from_minutes(rng.below(24 * 60) as i64))
}

/// On/off behaviour classes with their population share and mean toggles per
/// 28-day month.
const ONOFF_CLASSES: [(f64, f64); 4] = [
    (0.60, 0.5), // mostly-on: ≤1 toggle/month
    (0.16, 2.0),
    (0.10, 4.5),
    (0.14, 9.0), // heavily cycled: ~8+/month
];

/// Generates a VM's on/off log over `window` (the two-month telemetry
/// slice). Toggles are a Poisson-like process at the class rate.
pub fn sample_onoff_log(rng: &mut StreamRng, window: Horizon) -> OnOffLog {
    let class = rng.weighted(&ONOFF_CLASSES.map(|(share, _)| share));
    let per_month = ONOFF_CLASSES[class].1;
    let months = window.len().as_days() / 28.0;
    let expected = per_month * months;
    // Draw toggle count from a geometric-ish jitter around the expectation,
    // then place toggles uniformly (sorted, deduplicated to minute grid).
    let count = poissonish(rng, expected);
    let window_minutes = window.len().as_minutes();
    let mut toggle_offsets: Vec<i64> = (0..count)
        .map(|_| rng.below(window_minutes as usize) as i64)
        .collect();
    toggle_offsets.sort_unstable();
    toggle_offsets.dedup();
    let toggles = toggle_offsets
        .into_iter()
        .map(|offset| window.start() + SimDuration::from_minutes(offset))
        .collect();
    OnOffLog::new(window, true, toggles)
}

/// Small-λ Poisson sampler (Knuth's product method, fine for λ ≲ 60).
fn poissonish(rng: &mut StreamRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.uniform();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // safety valve; unreachable for calibrated λ
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creation_dates_span_two_years() {
        let mut rng = StreamRng::new(1);
        let horizon = Horizon::observation_year();
        let mut known = 0;
        let mut unknown = 0;
        for _ in 0..5_000 {
            match sample_creation_date(&mut rng, horizon) {
                Some(t) => {
                    known += 1;
                    assert!(t >= horizon.start() - SimDuration::from_days(364));
                    assert!(t < horizon.end());
                }
                None => unknown += 1,
            }
        }
        let frac = unknown as f64 / (known + unknown) as f64;
        assert!((frac - 0.25).abs() < 0.03, "unknown fraction {frac}");
    }

    #[test]
    fn creation_dates_skew_early() {
        let mut rng = StreamRng::new(2);
        let horizon = Horizon::observation_year();
        let dates: Vec<f64> = (0..5_000)
            .filter_map(|_| sample_creation_date(&mut rng, horizon))
            .map(SimTime::as_days)
            .collect();
        let before = dates.iter().filter(|&&d| d < 0.0).count();
        // More than half of known creations predate the observation window.
        assert!(before as f64 / dates.len() as f64 > 0.55);
    }

    #[test]
    fn creation_dates_are_batched() {
        let mut rng = StreamRng::new(3);
        let horizon = Horizon::observation_year();
        let mut day_buckets = std::collections::HashSet::new();
        let mut total = 0;
        for _ in 0..2_000 {
            if let Some(t) = sample_creation_date(&mut rng, horizon) {
                day_buckets.insert(t.as_minutes().div_euclid(24 * 60));
                total += 1;
            }
        }
        // Batching: many VMs share few distinct creation days.
        assert!(day_buckets.len() < total / 10);
    }

    #[test]
    fn onoff_logs_are_valid_and_skewed() {
        let mut rng = StreamRng::new(4);
        let window = Horizon::new(SimTime::from_days(224), SimTime::from_days(280));
        let mut rates = Vec::new();
        for _ in 0..2_000 {
            let log = sample_onoff_log(&mut rng, window);
            assert_eq!(log.window(), window);
            rates.push(log.monthly_transition_rate().unwrap());
        }
        let low = rates.iter().filter(|&&r| r <= 1.0).count() as f64 / rates.len() as f64;
        let high = rates.iter().filter(|&&r| r >= 8.0).count() as f64 / rates.len() as f64;
        // Paper: 60% ≤ 1/month, 14% ≥ 8/month.
        assert!((low - 0.60).abs() < 0.12, "low fraction {low}");
        assert!(high > 0.04 && high < 0.25, "high fraction {high}");
    }

    #[test]
    fn poissonish_matches_mean() {
        let mut rng = StreamRng::new(5);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| poissonish(&mut rng, 3.5) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 3.5).abs() < 0.1, "mean {mean}");
        assert_eq!(poissonish(&mut rng, 0.0), 0);
    }
}
