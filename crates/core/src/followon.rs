//! Follow-on failures by triggering root cause.
//!
//! The paper's related work (\[5\], El-Sayed & Schroeder) finds "a high
//! correlation among [root-cause categories]. In particular, power-related
//! failures induce a high probability of follow-in failure of any kind".
//! This analysis checks the same question on our dataset: given a failure of
//! class X, how likely is *any* failure of the same machine within a window,
//! and how does that compare to the random weekly probability?

use crate::ClassSource;
use dcfail_model::prelude::*;
use serde::{Deserialize, Serialize};

/// Follow-on statistics for one triggering class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FollowOn {
    /// Triggering failures observed (uncensored).
    pub triggers: usize,
    /// P(any same-machine failure within the window | trigger of this class).
    pub probability: f64,
    /// Share of follow-on failures whose class differs from the trigger.
    pub cross_class_share: f64,
}

/// Computes follow-on probabilities per triggering class, dense by
/// [`FailureClass::index`]; `None` for classes without uncensored triggers.
pub fn follow_on_by_class(
    dataset: &FailureDataset,
    window: SimDuration,
    source: ClassSource,
) -> [Option<FollowOn>; 6] {
    let mut triggers = [0usize; 6];
    let mut followed = [0usize; 6];
    let mut cross = [0usize; 6];
    let end = dataset.horizon().end();
    for (machine, _) in dataset.failing_machines() {
        let events: Vec<(SimTime, FailureClass)> = dataset
            .events_for(machine)
            .map(|e| (e.at(), source.class_of(e)))
            .collect();
        for (i, &(t, class)) in events.iter().enumerate() {
            if t + window >= end {
                continue; // censored window
            }
            triggers[class.index()] += 1;
            if let Some(&(_, next_class)) = events[i + 1..]
                .iter()
                .find(|&&(u, _)| u > t && u - t <= window)
            {
                followed[class.index()] += 1;
                if next_class != class {
                    cross[class.index()] += 1;
                }
            }
        }
    }
    let mut out = [None; 6];
    for class in FailureClass::ALL {
        let i = class.index();
        if triggers[i] == 0 {
            continue;
        }
        out[i] = Some(FollowOn {
            triggers: triggers[i],
            probability: followed[i] as f64 / triggers[i] as f64,
            cross_class_share: if followed[i] == 0 {
                0.0
            } else {
                cross[i] as f64 / followed[i] as f64
            },
        });
    }
    out
}

/// The intensity of follow-on failures relative to random weekly failures:
/// `P(follow-on within a week | class X) / P(random weekly failure)`,
/// aggregated over machine kinds.
pub fn follow_on_ratio(
    dataset: &FailureDataset,
    class: FailureClass,
    source: ClassSource,
) -> Option<f64> {
    let per_class = follow_on_by_class(dataset, WEEK, source);
    let follow = per_class[class.index()]?;
    // Population-wide random weekly probability over both kinds.
    let pm =
        crate::recurrence::random_weekly_probability(dataset, MachineKind::Pm, None).unwrap_or(0.0);
    let vm =
        crate::recurrence::random_weekly_probability(dataset, MachineKind::Vm, None).unwrap_or(0.0);
    let pms = dataset.population(MachineKind::Pm, None) as f64;
    let vms = dataset.population(MachineKind::Vm, None) as f64;
    let random = (pm * pms + vm * vms) / (pms + vms).max(1.0);
    (random > 0.0).then(|| follow.probability / random)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn every_class_induces_follow_on_failures() {
        let ds = testutil::dataset();
        let per_class = follow_on_by_class(ds, WEEK, ClassSource::Truth);
        for class in FailureClass::CLASSIFIED {
            let f = per_class[class.index()].expect("triggers exist");
            assert!(f.triggers > 10, "{class}: {} triggers", f.triggers);
            // Markedly above the ~0.004 random weekly probability.
            assert!(
                f.probability > 0.05,
                "{class}: follow-on probability {}",
                f.probability
            );
            assert!((0.0..=1.0).contains(&f.cross_class_share));
        }
    }

    #[test]
    fn follow_on_ratios_are_large_for_all_classes() {
        let ds = testutil::dataset();
        for class in FailureClass::CLASSIFIED {
            let ratio = follow_on_ratio(ds, class, ClassSource::Truth).expect("data");
            // [5]-style finding: follow-on intensity is orders above random.
            assert!(ratio > 10.0, "{class}: ratio {ratio}");
        }
    }

    #[test]
    fn follow_on_failures_usually_change_class() {
        // Recurrence draws a fresh class, so most follow-ons differ from
        // their trigger — the "follow-on failure of any kind" phenomenon.
        let ds = testutil::dataset();
        let per_class = follow_on_by_class(ds, WEEK, ClassSource::Truth);
        let power = per_class[FailureClass::Power.index()].expect("power triggers");
        assert!(
            power.cross_class_share > 0.5,
            "power cross-class share {}",
            power.cross_class_share
        );
    }

    #[test]
    fn longer_windows_capture_more_follow_ons() {
        let ds = testutil::dataset();
        let day = follow_on_by_class(ds, DAY, ClassSource::Truth);
        let month = follow_on_by_class(ds, MONTH, ClassSource::Truth);
        for class in FailureClass::CLASSIFIED {
            if let (Some(d), Some(m)) = (day[class.index()], month[class.index()]) {
                assert!(m.probability >= d.probability, "{class}");
            }
        }
    }
}
