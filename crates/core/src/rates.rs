//! Failure rates (Fig. 2).
//!
//! The weekly failure rate of a group is the number of failures in a week
//! divided by the group's population; Fig. 2 reports the mean and the
//! 25th/75th percentiles of that weekly series for PMs and VMs, over the
//! whole estate and per subsystem.

use dcfail_model::prelude::*;
use dcfail_stats::empirical::Summary;
use serde::{Deserialize, Serialize};

/// Mean and quartiles of a per-period failure-rate series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateSummary {
    /// Mean rate per period.
    pub mean: f64,
    /// 25th percentile of the per-period series.
    pub p25: f64,
    /// 75th percentile of the per-period series.
    pub p75: f64,
    /// Population size the rates are normalized by.
    pub n_machines: usize,
    /// Total failure events across the window.
    pub total_events: usize,
}

/// Fig. 2 for one subsystem: PM and VM rate summaries (either may be absent
/// when the population is empty or never fails — Sys II VMs in the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsystemRates {
    /// Subsystem name.
    pub name: String,
    /// PM weekly rate summary.
    pub pm: Option<RateSummary>,
    /// VM weekly rate summary.
    pub vm: Option<RateSummary>,
}

/// The full Fig. 2: estate-wide and per-subsystem weekly failure rates.
/// Like a subsystem row, an estate group with no machines or no failures has
/// no summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeeklyFailureRates {
    /// All PMs.
    pub all_pm: Option<RateSummary>,
    /// All VMs.
    pub all_vm: Option<RateSummary>,
    /// Per-subsystem breakdown, in subsystem order.
    pub per_subsystem: Vec<SubsystemRates>,
}

impl WeeklyFailureRates {
    /// The PM and VM estate summaries, or a phrase naming the group that has
    /// none (`"no VM failures"`) when the PM-vs-VM comparison cannot be made.
    pub fn estate(&self) -> Result<(RateSummary, RateSummary), &'static str> {
        match (self.all_pm, self.all_vm) {
            (Some(pm), Some(vm)) => Ok((pm, vm)),
            (None, Some(_)) => Err("no PM failures"),
            (Some(_), None) => Err("no VM failures"),
            (None, None) => Err("no PM or VM failures"),
        }
    }
}

/// Time bucketing for rate series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Granularity {
    /// Daily buckets.
    Day,
    /// Weekly buckets (the paper's default).
    Week,
    /// 28-day month buckets.
    Month,
}

impl Granularity {
    fn num_buckets(self, horizon: Horizon) -> usize {
        match self {
            Granularity::Day => horizon.num_days(),
            Granularity::Week => horizon.num_weeks(),
            Granularity::Month => horizon.num_months(),
        }
    }

    fn bucket_of(self, horizon: Horizon, t: SimTime) -> Option<usize> {
        match self {
            Granularity::Day => horizon.day_of(t),
            Granularity::Week => horizon.week_of(t),
            Granularity::Month => horizon.month_of(t),
        }
    }
}

/// Per-bucket failure rates of a machine group.
///
/// Returns one rate per period: `events_in_period / population`.
pub fn rate_series(
    dataset: &FailureDataset,
    kind: MachineKind,
    subsystem: Option<SubsystemId>,
    granularity: Granularity,
) -> Vec<f64> {
    let horizon = dataset.horizon();
    let population = dataset.population(kind, subsystem);
    let mut counts = vec![0usize; granularity.num_buckets(horizon)];
    if population == 0 {
        return vec![0.0; counts.len()];
    }
    for ev in dataset.events() {
        let m = dataset.machine(ev.machine());
        if m.kind() != kind || subsystem.is_some_and(|s| m.subsystem() != s) {
            continue;
        }
        if let Some(bucket) = granularity.bucket_of(horizon, ev.at()) {
            counts[bucket] += 1;
        }
    }
    counts
        .into_iter()
        .map(|c| c as f64 / population as f64)
        .collect()
}

/// Summarizes a rate series into mean and quartiles.
pub fn summarize_series(
    series: &[f64],
    n_machines: usize,
    total_events: usize,
) -> Option<RateSummary> {
    let s = Summary::of(series)?;
    Some(RateSummary {
        mean: s.mean,
        p25: s.p25,
        p75: s.p75,
        n_machines,
        total_events,
    })
}

fn group_summary(
    dataset: &FailureDataset,
    kind: MachineKind,
    subsystem: Option<SubsystemId>,
) -> Option<RateSummary> {
    let population = dataset.population(kind, subsystem);
    if population == 0 {
        return None;
    }
    let series = rate_series(dataset, kind, subsystem, Granularity::Week);
    let total: usize = dataset
        .events()
        .iter()
        .filter(|ev| {
            let m = dataset.machine(ev.machine());
            m.kind() == kind && subsystem.is_none_or(|s| m.subsystem() == s)
        })
        .count();
    if total == 0 {
        return None;
    }
    summarize_series(&series, population, total)
}

/// Mean time between failures in days for one machine kind, over the whole
/// estate: `population × observation days / total events`.
///
/// Returns `None` when the group has no machines or no failures — callers
/// comparing clean and degraded datasets should treat that as "estimate
/// unavailable", not zero.
pub fn mtbf_days(dataset: &FailureDataset, kind: MachineKind) -> Option<f64> {
    let population = dataset.population(kind, None);
    let events = dataset
        .events()
        .iter()
        .filter(|ev| dataset.machine(ev.machine()).kind() == kind)
        .count();
    if population == 0 || events == 0 {
        return None;
    }
    Some(dataset.horizon().num_days() as f64 * population as f64 / events as f64)
}

/// Computes Fig. 2: weekly failure rates for PMs and VMs, estate-wide and
/// per subsystem. A group with no machines or no failures is `None`.
pub fn weekly_failure_rates(dataset: &FailureDataset) -> WeeklyFailureRates {
    let all_pm = group_summary(dataset, MachineKind::Pm, None);
    let all_vm = group_summary(dataset, MachineKind::Vm, None);
    let per_subsystem = dataset
        .topology()
        .subsystems()
        .iter()
        .map(|meta| SubsystemRates {
            name: meta.name().to_string(),
            pm: group_summary(dataset, MachineKind::Pm, Some(meta.id())),
            vm: group_summary(dataset, MachineKind::Vm, Some(meta.id())),
        })
        .collect();
    WeeklyFailureRates {
        all_pm,
        all_vm,
        per_subsystem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn fig2_pm_exceeds_vm_and_matches_paper_band() {
        let (pm, vm) = weekly_failure_rates(testutil::dataset()).estate().unwrap();
        // Paper: PMs ≈ 0.005/week, VMs ≈ 0.003/week; PMs ≈ 1.4× VMs.
        assert!(pm.mean > vm.mean);
        assert!(pm.mean > 0.003 && pm.mean < 0.008, "PM mean {}", pm.mean);
        assert!(vm.mean > 0.0015 && vm.mean < 0.0055, "VM mean {}", vm.mean);
        let ratio = pm.mean / vm.mean;
        assert!(ratio > 1.1 && ratio < 2.6, "PM/VM ratio {ratio}");
        // Quartile band is ordered.
        assert!(pm.p25 <= pm.mean * 1.5);
        assert!(pm.p25 <= pm.p75);
    }

    #[test]
    fn an_estate_group_without_failures_has_no_summary() {
        let ds = testutil::dataset();
        let mut parts = RawDatasetParts::from(ds);
        parts.events.retain(|ev| ds.machine(ev.machine()).is_pm());
        let fig2 = weekly_failure_rates(&FailureDataset::try_from(parts).unwrap());
        assert!(fig2.all_pm.is_some());
        assert_eq!(fig2.all_vm, None);
        assert!(fig2.per_subsystem.iter().all(|s| s.vm.is_none()));
        assert_eq!(fig2.estate(), Err("no VM failures"));
    }

    #[test]
    fn fig2_has_all_five_subsystems_and_sys2_vm_gap() {
        let fig2 = weekly_failure_rates(testutil::dataset());
        assert_eq!(fig2.per_subsystem.len(), 5);
        // Sys II VMs never fail → no bar, like the paper.
        assert!(fig2.per_subsystem[1].vm.is_none());
        assert!(fig2.per_subsystem[1].pm.is_some());
        // Sys IV is the one subsystem where VMs out-fail PMs.
        let s4 = &fig2.per_subsystem[3];
        let (pm, vm) = (s4.pm.unwrap(), s4.vm.unwrap());
        assert!(
            vm.mean > pm.mean,
            "Sys IV: vm {} vs pm {}",
            vm.mean,
            pm.mean
        );
        // Sys I PMs are the hottest PM population.
        let s1_pm = fig2.per_subsystem[0].pm.unwrap().mean;
        for other in &fig2.per_subsystem[1..] {
            if let Some(pm) = other.pm {
                assert!(s1_pm >= pm.mean * 0.9, "Sys I should be near-max");
            }
        }
    }

    #[test]
    fn rate_series_sums_to_total_events() {
        let ds = testutil::dataset();
        for granularity in [Granularity::Day, Granularity::Week, Granularity::Month] {
            let series = rate_series(ds, MachineKind::Pm, None, granularity);
            let pm_count = ds.population(MachineKind::Pm, None);
            let total: f64 = series.iter().sum::<f64>() * pm_count as f64;
            let expected = ds
                .events()
                .iter()
                .filter(|e| ds.machine(e.machine()).is_pm())
                .count();
            assert!((total - expected as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn series_lengths_match_horizon() {
        let ds = testutil::tiny();
        assert_eq!(
            rate_series(ds, MachineKind::Vm, None, Granularity::Week).len(),
            52
        );
        assert_eq!(
            rate_series(ds, MachineKind::Vm, None, Granularity::Day).len(),
            364
        );
        assert_eq!(
            rate_series(ds, MachineKind::Vm, None, Granularity::Month).len(),
            13
        );
    }

    #[test]
    fn empty_group_yields_zero_series() {
        let ds = testutil::tiny();
        // Subsystem id beyond the five → empty population.
        let series = rate_series(
            ds,
            MachineKind::Vm,
            Some(SubsystemId::new(99)),
            Granularity::Week,
        );
        assert!(series.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn summarize_series_empty_is_none() {
        assert!(summarize_series(&[], 10, 0).is_none());
        let s = summarize_series(&[0.0, 0.5, 1.0], 10, 15).unwrap();
        assert_eq!(s.mean, 0.5);
        assert_eq!(s.n_machines, 10);
        assert_eq!(s.total_events, 15);
    }
}
