//! Failure rate vs resource usage (Fig. 8).
//!
//! Usage attributes vary week by week, so machine-weeks (not machines) are
//! bucketed: a machine at 5% CPU in March and 40% in June contributes to
//! both buckets. Panels: CPU utilization (a), memory utilization (b), disk
//! utilization (c, VM-only) and network volume in Kbps (d, VM-only) — the
//! paper has no PM disk/network usage either.

use crate::curve::AttributeCurve;
use crate::panel::{panel_curve, Source, Usage};
use dcfail_model::prelude::*;

/// Fig. 8(b): weekly failure rate vs memory utilization.
pub fn rate_by_mem_util(dataset: &FailureDataset, kind: MachineKind) -> AttributeCurve {
    panel_curve(dataset, kind, Source::Weekly(Usage::Mem)).curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    fn low_mid_rates(curve: &AttributeCurve) -> (f64, f64) {
        // Mean of the 0-20% buckets vs the 20-40% buckets, weighting by
        // machine-weeks.
        let avg = |labels: &[&str]| {
            let pts: Vec<_> = curve
                .points
                .iter()
                .filter(|p| labels.contains(&p.label.as_str()))
                .collect();
            let mw: usize = pts.iter().map(|p| p.machine_weeks).sum();
            pts.iter()
                .map(|p| p.mean * p.machine_weeks as f64)
                .sum::<f64>()
                / mw.max(1) as f64
        };
        (avg(&["0-10", "10-20"]), avg(&["20-30", "30-40"]))
    }

    #[test]
    fn vm_cpu_util_rate_increases_while_pm_decreases() {
        let ds = testutil::dataset();
        let vm = panel_curve(ds, MachineKind::Vm, Source::Weekly(Usage::Cpu)).curve;
        let (vm_low, vm_mid) = low_mid_rates(&vm);
        assert!(
            vm_mid > 1.3 * vm_low,
            "VM: mid {vm_mid} should exceed low {vm_low}"
        );
        let pm = panel_curve(ds, MachineKind::Pm, Source::Weekly(Usage::Cpu)).curve;
        let (pm_low, pm_mid) = low_mid_rates(&pm);
        assert!(
            pm_low > 1.3 * pm_mid,
            "PM: low {pm_low} should exceed mid {pm_mid}"
        );
    }

    #[test]
    fn memory_util_is_inverted_bathtub() {
        let ds = testutil::dataset();
        for kind in MachineKind::ALL {
            let curve = rate_by_mem_util(ds, kind);
            let low = curve.mean_of("0-10").unwrap();
            let mid = curve.mean_of("30-40").or(curve.mean_of("40-50")).unwrap();
            let high = curve
                .mean_of("80-90")
                .or(curve.mean_of("70-80"))
                .or(curve.mean_of("90-100"))
                .unwrap();
            assert!(mid > low, "{kind}: mid {mid} vs low {low}");
            assert!(mid > high, "{kind}: mid {mid} vs high {high}");
        }
    }

    #[test]
    fn pm_memory_util_impact_exceeds_vm() {
        let ds = testutil::dataset();
        let pm = rate_by_mem_util(ds, MachineKind::Pm)
            .dynamic_range()
            .unwrap();
        let vm = rate_by_mem_util(ds, MachineKind::Vm)
            .dynamic_range()
            .unwrap();
        assert!(pm > vm, "pm {pm} vs vm {vm}");
    }

    #[test]
    fn disk_util_mildly_increases() {
        let ds = testutil::dataset();
        let curve = panel_curve(ds, MachineKind::Vm, Source::Weekly(Usage::Disk)).curve;
        let low = curve.mean_of("0-10").unwrap();
        let high = curve.mean_of("80-90").or(curve.mean_of("70-80")).unwrap();
        assert!(high > low, "high {high} vs low {low}");
        // Milder than the VM CPU effect (the paper's comparison).
        let cpu = panel_curve(ds, MachineKind::Vm, Source::Weekly(Usage::Cpu)).curve;
        assert!(curve.dynamic_range().unwrap() < cpu.dynamic_range().unwrap() * 1.5);
    }

    #[test]
    fn network_peaks_at_low_volume() {
        let ds = testutil::dataset();
        let curve = panel_curve(ds, MachineKind::Vm, Source::Weekly(Usage::Net)).curve;
        // Rate near the 32-64 Kbps peak beats the megabit tail.
        let peak = curve.mean_of("32-64").or(curve.mean_of("16-32")).unwrap();
        let tail = curve
            .mean_of("4096-8192")
            .or(curve.mean_of("2048-4096"))
            .unwrap();
        assert!(peak > tail, "peak {peak} vs tail {tail}");
    }

    #[test]
    fn usage_buckets_skew_low() {
        let ds = testutil::dataset();
        let curve = panel_curve(ds, MachineKind::Vm, Source::Weekly(Usage::Cpu)).curve;
        let total: usize = curve.points.iter().map(|p| p.machine_weeks).sum();
        let low: usize = curve
            .points
            .iter()
            .filter(|p| p.label == "0-10")
            .map(|p| p.machine_weeks)
            .sum();
        // Paper: more than half of machines run at ≤ 10% CPU.
        assert!(low as f64 / total as f64 > 0.5);
    }
}
