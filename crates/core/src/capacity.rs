//! Failure rate vs resource capacity (Fig. 7).
//!
//! Four panels: CPU counts (a), memory size (b), disk capacity (c) and
//! number of disks (d). CPU and memory exist for PMs and VMs; the paper has
//! no PM disk data, so the disk panels are VM-only.

use crate::curve::AttributeCurve;
use crate::panel::{panel_curve, Constant, Source};
use dcfail_model::prelude::*;

/// Fig. 7(a): weekly failure rate vs number of (v)CPUs.
pub fn rate_by_cpu(dataset: &FailureDataset, kind: MachineKind) -> AttributeCurve {
    panel_curve(dataset, kind, Source::Constant(Constant::Cpus)).curve
}

/// Fig. 7(c): weekly VM failure rate vs total disk capacity (GB). VM-only:
/// the dataset carries no PM disk attributes, matching the paper.
pub fn rate_by_disk_capacity(dataset: &FailureDataset) -> AttributeCurve {
    panel_curve(dataset, MachineKind::Vm, Source::Constant(Constant::DiskGb)).curve
}

/// Fig. 7(d): weekly VM failure rate vs number of virtual disks.
pub fn rate_by_disk_count(dataset: &FailureDataset) -> AttributeCurve {
    panel_curve(dataset, MachineKind::Vm, Source::Constant(Constant::Disks)).curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn pm_cpu_rate_rises_to_24_then_drops() {
        let curve = rate_by_cpu(testutil::dataset(), MachineKind::Pm);
        let low = curve.mean_of("1").or(curve.mean_of("2")).unwrap();
        let peak = curve.mean_of("24").or(curve.mean_of("16")).unwrap();
        assert!(peak > 2.0 * low, "peak {peak} vs low {low}");
        // 32/64-CPU machines are *more* reliable than the 16–24 peak.
        if let Some(big) = curve.mean_of("32").or(curve.mean_of("64")) {
            assert!(big < peak, "32/64-cpu rate {big} vs peak {peak}");
        }
        // Paper: ~5.5× dynamic range for PM CPU counts.
        let range = curve.dynamic_range().unwrap();
        assert!(range > 2.5, "dynamic range {range}");
    }

    #[test]
    fn vm_cpu_rate_increases() {
        let curve = rate_by_cpu(testutil::dataset(), MachineKind::Vm);
        let one = curve.mean_of("1").unwrap();
        let eight = curve.mean_of("8").or(curve.mean_of("4")).unwrap();
        // Paper: ~2.5× from 1 to 8 vCPUs.
        assert!(eight > 1.4 * one, "8cpu {eight} vs 1cpu {one}");
    }

    #[test]
    fn memory_curves_are_bathtub_shaped() {
        let ds = testutil::dataset();
        let pm = panel_curve(ds, MachineKind::Pm, Source::Constant(Constant::MemoryGb)).curve;
        // Small and large PM memory out-fail the middle.
        let small = pm.mean_of("2").or(pm.mean_of("4")).unwrap();
        let mid = pm.mean_of("16").or(pm.mean_of("8")).unwrap();
        let large = pm
            .mean_of("128")
            .or(pm.mean_of("256"))
            .or(pm.mean_of("64"))
            .unwrap();
        assert!(small > mid, "PM small {small} vs mid {mid}");
        assert!(large > mid, "PM large {large} vs mid {mid}");

        let vm = panel_curve(ds, MachineKind::Vm, Source::Constant(Constant::MemoryGb)).curve;
        // VM dip in the 4–8 GB range.
        let low = vm.mean_of("1").or(vm.mean_of("2")).unwrap();
        let dip = vm.mean_of("8").or(vm.mean_of("4")).unwrap();
        assert!(dip < low, "VM dip {dip} vs low {low}");
    }

    #[test]
    fn disk_count_has_strongest_vm_capacity_impact() {
        let ds = testutil::dataset();
        let by_count = rate_by_disk_count(ds);
        let one = by_count.mean_of("1").unwrap();
        // Pool the ≥4-disk bins weighted by exposure: the 5- and 6-disk
        // configurations are rare enough that a single bin's realization
        // is noisy.
        let high: Vec<_> = by_count
            .points
            .iter()
            .filter(|p| ["4", "5", "6"].contains(&p.label.as_str()))
            .collect();
        let weeks: usize = high.iter().map(|p| p.machine_weeks).sum();
        let many = high
            .iter()
            .map(|p| p.mean * p.machine_weeks as f64)
            .sum::<f64>()
            / weeks.max(1) as f64;
        // Paper: ~10× from 1 to 6 disks; spatial dilution caps ours ~3×.
        assert!(many > 2.5 * one, "many-disk {many} vs one-disk {one}");

        // Disk capacity: small disks rare failures, ≥32 GB roughly flat.
        let by_cap = rate_by_disk_capacity(ds);
        let small = by_cap.mean_of("8").unwrap();
        let mid = by_cap.mean_of("64").unwrap();
        assert!(mid > small, "32+GB {mid} vs 8GB {small}");
        let flat: Vec<f64> = ["64", "128", "256", "512"]
            .iter()
            .filter_map(|l| by_cap.mean_of(l))
            .collect();
        let lo = flat.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = flat.iter().copied().fold(0.0f64, f64::max);
        assert!(hi / lo < 2.5, "flat region spread {}", hi / lo);

        // Count impact beats capacity impact (paper's conclusion).
        assert!(
            by_count.dynamic_range().unwrap() > by_cap.dynamic_range().unwrap(),
            "count {} vs capacity {}",
            by_count.dynamic_range().unwrap(),
            by_cap.dynamic_range().unwrap()
        );
    }

    #[test]
    fn pm_cpu_impact_exceeds_vm_cpu_impact() {
        let ds = testutil::dataset();
        let pm = rate_by_cpu(ds, MachineKind::Pm).dynamic_range().unwrap();
        let vm = rate_by_cpu(ds, MachineKind::Vm).dynamic_range().unwrap();
        // Paper: 5.5× (PM) vs 2.5× (VM).
        assert!(pm > vm, "pm {pm} vs vm {vm}");
    }

    #[test]
    fn curves_have_populated_buckets() {
        let ds = testutil::dataset();
        for curve in [
            rate_by_cpu(ds, MachineKind::Pm),
            rate_by_cpu(ds, MachineKind::Vm),
            panel_curve(ds, MachineKind::Pm, Source::Constant(Constant::MemoryGb)).curve,
            panel_curve(ds, MachineKind::Vm, Source::Constant(Constant::MemoryGb)).curve,
            rate_by_disk_capacity(ds),
            rate_by_disk_count(ds),
        ] {
            assert!(
                curve.points.len() >= 3,
                "{}: too few buckets",
                curve.attribute
            );
            for p in &curve.points {
                assert!(p.machine_weeks > 0);
                assert!(p.mean >= 0.0);
                assert!(p.p25 <= p.p75);
            }
        }
    }
}
