//! The robustness harness: chaos → recover → analyze must never panic, must
//! re-audit clean, and at bounded corruption rates must stay within tolerance
//! of the clean ground truth.

#![allow(clippy::unwrap_used)]

use dcfail_audit::import;
use dcfail_audit::recover::recover_raw;
use dcfail_audit::{RawDatasetParts, RecoveryMode};
use dcfail_chaos::{garble_csv, inject, inject_raw, Corruption, InjectionPlan};
use dcfail_core::{degradation, rates, repair};
use dcfail_model::interop;
use dcfail_model::prelude::*;
use dcfail_synth::Scenario;
use proptest::prelude::*;

fn clean_dataset(seed: u64, scale: f64) -> FailureDataset {
    Scenario::paper()
        .seed(seed)
        .scale(scale)
        .build()
        .into_dataset()
}

/// Runs every headline estimator in robust mode; panics are test failures.
fn analyze_never_panics(dataset: &FailureDataset) {
    let _ = degradation::weekly_failure_rates_robust(dataset);
    for kind in [MachineKind::Pm, MachineKind::Vm] {
        let _ = degradation::interfailure_robust(dataset, kind);
        let _ = degradation::repair_robust(dataset, kind);
        let _ = rates::mtbf_days(dataset, kind);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seed, any rate from 0 to 100%, any single corruption or all at
    /// once: lenient ingest never panics and the recovered dataset re-audits
    /// with zero Error-level findings.
    #[test]
    fn chaos_recover_analyze_never_panics(
        seed in 0u64..1_000_000,
        rate_pct in 0u8..=100u8,
        focus in 0usize..10,
    ) {
        let clean = clean_dataset(seed % 7, 0.02);
        let rate = f64::from(rate_pct) / 100.0;
        let plan = if focus == Corruption::ALL.len() {
            InjectionPlan::uniform(seed, rate)
        } else {
            InjectionPlan::new(seed).with(Corruption::ALL[focus], rate)
        };
        let (parts, _log) = inject(&clean, &plan);
        let recovered = recover_raw(&parts);
        prop_assert!(recovered.is_ok(), "recovery failed: {}", recovered.unwrap_err());
        let recovered = recovered.unwrap();
        let report = dcfail_audit::audit_dataset(&recovered.dataset);
        prop_assert!(
            report.is_clean(),
            "recovered dataset re-audits dirty (seed {seed}, rate {rate}, focus {focus}):\n{}",
            report.render_text()
        );
        analyze_never_panics(&recovered.dataset);
    }

    /// Garbled CSV at any rate: the lenient import path always yields an
    /// audit-clean dataset instead of an error.
    #[test]
    fn garbled_csv_lenient_import_never_fails(
        seed in 0u64..1_000_000,
        rate_pct in 0u8..=100u8,
    ) {
        let clean = clean_dataset(3, 0.02);
        let machines_csv = interop::machines_to_csv(&clean);
        let events_csv = interop::events_to_csv(&clean);
        let rate = f64::from(rate_pct) / 100.0;
        let plan = InjectionPlan::new(seed).with(Corruption::GarbleCsvRow, rate);
        let (dirty_machines, _) = garble_csv(&machines_csv, &plan);
        let (dirty_events, _) = garble_csv(&events_csv, &plan);
        let imported = import::dataset_from_csv_with(
            &dirty_machines,
            &dirty_events,
            clean.horizon(),
            RecoveryMode::Lenient,
        );
        prop_assert!(imported.is_ok(), "lenient CSV import failed: {}", imported.unwrap_err());
        let (dataset, report, _degradation) = imported.unwrap();
        prop_assert!(
            report.is_clean(),
            "lenient CSV import re-audits dirty (seed {seed}, rate {rate}):\n{}",
            report.render_text()
        );
        analyze_never_panics(&dataset);
    }
}

#[test]
fn injection_and_recovery_are_deterministic() {
    let clean = clean_dataset(11, 0.05);
    let plan = InjectionPlan::uniform(42, 0.2);
    let (parts_a, log_a) = inject(&clean, &plan);
    let (parts_b, log_b) = inject(&clean, &plan);
    assert_eq!(log_a, log_b);
    assert!(log_a.total() > 0, "20% corruption must touch something");
    let a = recover_raw(&parts_a).expect("recovery succeeds");
    let b = recover_raw(&parts_b).expect("recovery succeeds");
    assert_eq!(a.dataset, b.dataset);
    assert_eq!(a.report, b.report);
    assert!(!a.report.is_empty());
}

#[test]
fn strict_import_rejects_what_lenient_recovers() {
    let clean = clean_dataset(5, 0.05);
    let mut parts = RawDatasetParts::from(&clean);
    // Orphaned placements are an Error-level defect the strict path must
    // refuse and the lenient path must repair.
    let plan = InjectionPlan::new(9).with(Corruption::OrphanPlacement, 0.5);
    let log = inject_raw(&mut parts, &plan);
    let dirty = serde_json::to_string(&parts).expect("serialize");
    assert!(log.orphaned_vms > 0, "half the VMs should be orphaned");

    let strict = import::dataset_from_json(&dirty);
    assert!(matches!(strict, Err(import::ImportError::Rejected(_))));

    let (dataset, report, degradation) =
        import::dataset_from_json_with(&dirty, RecoveryMode::Lenient).expect("lenient succeeds");
    assert!(report.is_clean(), "{}", report.render_text());
    assert!(!degradation.is_empty());
    assert_eq!(dataset.machines().len(), clean.machines().len());
    assert_eq!(dataset.events().len(), clean.events().len());
}

#[test]
fn bounded_corruption_keeps_estimates_within_tolerance() {
    let clean = clean_dataset(7, 0.2);
    let plan = InjectionPlan::uniform(1234, 0.05);
    let (parts, log) = inject(&clean, &plan);
    assert!(log.total() > 0);
    let recovered = recover_raw(&parts).expect("recovery succeeds");
    assert!(dcfail_audit::audit_dataset(&recovered.dataset).is_clean());
    let kept = &recovered.report;
    assert!(kept.events_kept as f64 > 0.9 * kept.events_seen as f64);

    for kind in [MachineKind::Pm, MachineKind::Vm] {
        let clean_mtbf = rates::mtbf_days(&clean, kind).expect("clean MTBF");
        let rec_mtbf = rates::mtbf_days(&recovered.dataset, kind).expect("recovered MTBF");
        let mtbf_err = (rec_mtbf - clean_mtbf).abs() / clean_mtbf;
        assert!(
            mtbf_err < 0.10,
            "{kind}: MTBF drifted {:.1}% (clean {clean_mtbf:.1} d, recovered {rec_mtbf:.1} d)",
            mtbf_err * 100.0
        );

        let mean = |ds: &FailureDataset| {
            let hours = repair::repair_hours(ds, kind);
            hours.iter().sum::<f64>() / hours.len() as f64
        };
        let clean_repair = mean(&clean);
        let rec_repair = mean(&recovered.dataset);
        let repair_err = (rec_repair - clean_repair).abs() / clean_repair;
        assert!(
            repair_err < 0.10,
            "{kind}: mean repair drifted {:.1}% (clean {clean_repair:.1} h, recovered {rec_repair:.1} h)",
            repair_err * 100.0
        );
    }
}

#[test]
fn recovery_of_clean_dataset_is_identity_shaped() {
    let clean = clean_dataset(2, 0.03);
    let parts = RawDatasetParts::from(&clean);
    let recovered = recover_raw(&parts).expect("recovery succeeds");
    assert!(recovered.report.is_empty(), "{}", recovered.report);
    let rec = &recovered.dataset;
    assert_eq!(rec.horizon(), clean.horizon());
    assert_eq!(rec.machines(), clean.machines());
    assert_eq!(rec.topology(), clean.topology());
    assert_eq!(rec.incidents(), clean.incidents());
    assert_eq!(rec.tickets(), clean.tickets());
    assert_eq!(rec.events(), clean.events());
    assert_eq!(rec.telemetry(), clean.telemetry());
    assert_eq!(*rec, clean);
}
