//! Spatial (in)dependency of failures (Tables VI, VII).
//!
//! A failure *incident* can take down several servers at once — a power
//! outage, a host-platform crash, a distributed-software fault. Table VI
//! censuses incident footprints (how many incidents involve 0/1/≥2 PMs or
//! VMs); Table VII breaks mean/max footprint down by root cause.

use crate::ClassSource;
use dcfail_model::prelude::*;
use serde::{Deserialize, Serialize};

/// Table VI: percentage of incidents involving zero, one, or ≥ 2 servers of
/// a type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table6Row {
    /// Share of incidents with no server of the type (percent).
    pub zero_pct: f64,
    /// Share with exactly one (percent).
    pub one_pct: f64,
    /// Share with two or more (percent).
    pub two_plus_pct: f64,
}

/// The full Table VI.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table6 {
    /// Counting PMs and VMs together (zero is impossible by construction).
    pub both: Table6Row,
    /// Counting only PMs.
    pub pm_only: Table6Row,
    /// Counting only VMs.
    pub vm_only: Table6Row,
}

impl Table6Row {
    fn from_counts(zero: usize, one: usize, two_plus: usize) -> Self {
        let total = (zero + one + two_plus).max(1) as f64;
        Self {
            zero_pct: 100.0 * zero as f64 / total,
            one_pct: 100.0 * one as f64 / total,
            two_plus_pct: 100.0 * two_plus as f64 / total,
        }
    }

    /// The paper's dependent-failure metric: of the incidents touching at
    /// least one server of the type, the share touching two or more
    /// (≈ 26% for VMs, ≈ 16% for PMs).
    pub fn dependent_share(&self) -> f64 {
        let touched = self.one_pct + self.two_plus_pct;
        if touched == 0.0 {
            0.0
        } else {
            self.two_plus_pct / touched
        }
    }
}

/// Computes Table VI over all incidents.
pub fn table6(dataset: &FailureDataset) -> Table6 {
    let mut both = (0usize, 0usize, 0usize);
    let mut pm = (0usize, 0usize, 0usize);
    let mut vm = (0usize, 0usize, 0usize);
    for inc in dataset.incidents() {
        let pms = inc
            .machines()
            .iter()
            .filter(|m| dataset.machine(**m).is_pm())
            .count();
        let vms = inc.size() - pms;
        let bump = |acc: &mut (usize, usize, usize), n: usize| match n {
            0 => acc.0 += 1,
            1 => acc.1 += 1,
            _ => acc.2 += 1,
        };
        bump(&mut both, inc.size());
        bump(&mut pm, pms);
        bump(&mut vm, vms);
    }
    Table6 {
        both: Table6Row::from_counts(both.0, both.1, both.2),
        pm_only: Table6Row::from_counts(pm.0, pm.1, pm.2),
        vm_only: Table6Row::from_counts(vm.0, vm.1, vm.2),
    }
}

/// Table VII: mean and max incident footprint per failure class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FootprintStats {
    /// Mean number of servers per incident.
    pub mean: f64,
    /// Maximum number of servers in one incident.
    pub max: usize,
    /// Number of incidents of the class.
    pub incidents: usize,
}

/// Reported class of an incident: the majority label among its events
/// (pipeline view), or the ground-truth class.
pub fn incident_class(
    dataset: &FailureDataset,
    incident: &Incident,
    source: ClassSource,
) -> FailureClass {
    match source {
        ClassSource::Truth => incident.class(),
        ClassSource::Reported => {
            let mut votes = [0usize; 6];
            for ev in dataset.events_for_incident(incident.id()) {
                votes[ev.reported_class().index()] += 1;
            }
            FailureClass::from_index((0..6).max_by_key(|&c| votes[c]).expect("six classes"))
        }
    }
}

/// Computes Table VII, dense by [`FailureClass::index`]; `None` for classes
/// with no incidents.
pub fn table7(dataset: &FailureDataset, source: ClassSource) -> [Option<FootprintStats>; 6] {
    // The reported view votes over each incident's events via the dataset's
    // per-incident index — no full event scan per incident.
    let mut sizes: [Vec<usize>; 6] = Default::default();
    for inc in dataset.incidents() {
        let class = incident_class(dataset, inc, source);
        sizes[class.index()].push(inc.size());
    }
    let mut out = [None; 6];
    for class in FailureClass::ALL {
        let s = &sizes[class.index()];
        if s.is_empty() {
            continue;
        }
        out[class.index()] = Some(FootprintStats {
            mean: s.iter().sum::<usize>() as f64 / s.len() as f64,
            max: *s.iter().max().expect("non-empty"),
            incidents: s.len(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn most_incidents_are_singletons_with_a_multi_tail() {
        let ds = testutil::dataset();
        let t6 = table6(ds);
        // Counting both types, zero is impossible.
        assert_eq!(t6.both.zero_pct, 0.0);
        // Paper: 78% single, 22% multi — our generator produces a smaller
        // but clearly present multi tail.
        assert!(t6.both.one_pct > 60.0, "one {}", t6.both.one_pct);
        assert!(
            t6.both.two_plus_pct > 4.0 && t6.both.two_plus_pct < 40.0,
            "two+ {}",
            t6.both.two_plus_pct
        );
        let sum = t6.both.zero_pct + t6.both.one_pct + t6.both.two_plus_pct;
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn vms_show_stronger_spatial_dependency_than_pms() {
        let ds = testutil::dataset();
        let t6 = table6(ds);
        // Paper: ~26% of VM-touching incidents involve ≥2 VMs vs ~16% for
        // PMs (consolidation: a host crash fails several co-hosted VMs).
        assert!(
            t6.vm_only.dependent_share() > t6.pm_only.dependent_share(),
            "vm {} vs pm {}",
            t6.vm_only.dependent_share(),
            t6.pm_only.dependent_share()
        );
    }

    #[test]
    fn power_has_largest_mean_footprint() {
        let ds = testutil::dataset();
        let t7 = table7(ds, ClassSource::Truth);
        let power = t7[FailureClass::Power.index()].expect("power incidents");
        for class in [
            FailureClass::Hardware,
            FailureClass::Network,
            FailureClass::Reboot,
            FailureClass::Software,
        ] {
            if let Some(stats) = t7[class.index()] {
                assert!(
                    power.mean > stats.mean,
                    "power {} vs {class} {}",
                    power.mean,
                    stats.mean
                );
            }
        }
        // Paper: power mean 2.7, max 21; ours should be > 1.5 with a tail.
        assert!(power.mean > 1.5, "power mean {}", power.mean);
        assert!(power.max >= 4, "power max {}", power.max);
    }

    #[test]
    fn reboot_mean_is_small_but_max_is_large() {
        let ds = testutil::dataset();
        let t7 = table7(ds, ClassSource::Truth);
        let reboot = t7[FailureClass::Reboot.index()].expect("reboot incidents");
        // Paper: mean 1.1 (mostly individual reboots) but max 15 (host
        // platform crashes).
        assert!(reboot.mean < 1.5, "reboot mean {}", reboot.mean);
        assert!(reboot.max >= 3, "reboot max {}", reboot.max);
    }

    #[test]
    fn reported_view_routes_degraded_incidents_to_other() {
        let ds = testutil::dataset();
        let t7 = table7(ds, ClassSource::Reported);
        let other = t7[FailureClass::Other.index()].expect("other incidents");
        // About half the tickets are degraded, so Other dominates counts.
        assert!(other.incidents > 100);
        // Truth view has no Other incidents.
        let truth = table7(ds, ClassSource::Truth);
        assert!(truth[FailureClass::Other.index()].is_none());
    }

    #[test]
    fn incident_class_majority_vote() {
        let ds = testutil::tiny();
        let inc = &ds.incidents()[0];
        let reported = incident_class(ds, inc, ClassSource::Reported);
        let truth = incident_class(ds, inc, ClassSource::Truth);
        assert_eq!(truth, inc.class());
        // Reported is one of the six classes.
        assert!(FailureClass::ALL.contains(&reported));
    }
}
