//! # dcfail-audit
//!
//! A static invariant-lint pass over failure datasets.
//!
//! Every analysis in `dcfail-core` assumes the dataset it receives is
//! internally consistent: events sorted and inside the observation window,
//! every cross-reference resolving, the VM → box → subsystem placement
//! forming a proper forest, telemetry covering the windows it claims to
//! cover. Those assumptions hold by construction for simulator output, but a
//! trace loaded from disk — hand-edited JSON, an exported CSV pair, a foreign
//! trace in the interop format — can silently violate any of them and turn an
//! analysis into quiet nonsense.
//!
//! This crate makes the assumptions checkable. [`audit_dataset`] evaluates a
//! catalog of typed lint rules (see [`RuleId`]) against a validated
//! [`FailureDataset`]; [`audit_raw`] evaluates the same catalog against
//! [`RawDatasetParts`], an *unvalidated* mirror of the dataset's serialized
//! form, so that files a strict deserializer would reject can still be
//! loaded, diagnosed and reported on. Each finding is a [`Diagnostic`] with a
//! stable rule id, a severity, the offending entity ids and a human-readable
//! message; the whole run renders as an [`AuditReport`] in text or JSON.
//!
//! The pass is wired at the toolkit's trust boundaries:
//!
//! * `dcfail-synth` debug-asserts that every generated dataset is audit-clean
//!   and audits its [`ScenarioConfig`] parameters before simulating;
//! * [`import`] wraps the CSV/JSON import paths and rejects traces with
//!   Error-level findings, returning the report as a typed error;
//! * `repro audit` runs the pass from the command line.
//!
//! ```
//! use dcfail_model::prelude::*;
//!
//! let mut topo = Topology::new();
//! topo.add_subsystem(SubsystemMeta::new(SubsystemId::new(0), "Sys I"));
//! let mut b = DatasetBuilder::new();
//! b.topology(topo);
//! b.add_machine(Machine::new_pm(
//!     MachineId::new(0),
//!     SubsystemId::new(0),
//!     PowerDomainId::new(0),
//!     ResourceCapacity::default(),
//!     None,
//! ));
//! let report = dcfail_audit::audit_dataset(&b.build());
//! assert!(report.is_clean());
//! ```
//!
//! [`ScenarioConfig`]: RuleId::ConfigScaleOutOfRange

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod import;
pub mod recover;
mod report;
mod rules;

pub use dcfail_model::dataset::RawDatasetParts;
pub use recover::{DegradationReport, RecoverError, Recovered, RecoveryMode, RepairRule};
pub use report::{AuditReport, Diagnostic, RuleId, Severity};

use dcfail_model::prelude::FailureDataset;

/// Audits a validated dataset.
///
/// Constructor-validated datasets cannot violate the Error-level referential
/// rules, but Warn/Info findings (overlapping repairs, degenerate class
/// mixes, telemetry oddities) are still meaningful — and a dataset built by
/// bypassing the constructors (e.g. through a lenient deserializer) gets the
/// full catalog.
pub fn audit_dataset(dataset: &FailureDataset) -> AuditReport {
    let _span = dcfail_obs::span("audit.dataset");
    let report = rules::run(&rules::View {
        horizon: dataset.horizon(),
        machines: dataset.machines(),
        topology: dataset.topology(),
        incidents: dataset.incidents(),
        tickets: dataset.tickets(),
        texts: dataset.texts(),
        events: dataset.events(),
        telemetry: dataset.telemetry(),
    });
    count_findings(&report);
    report
}

/// Audits unvalidated raw dataset parts.
///
/// This is the entry point for untrusted input: [`RawDatasetParts`]
/// deserializes from the same JSON shape as [`FailureDataset`] but performs
/// no validation or canonicalization, so sortedness and referential rules are
/// evaluated against the file exactly as written.
pub fn audit_raw(parts: &RawDatasetParts) -> AuditReport {
    let _span = dcfail_obs::span("audit.raw");
    let report = rules::run(&rules::View {
        horizon: parts.horizon,
        machines: &parts.machines,
        topology: &parts.topology,
        incidents: &parts.incidents,
        tickets: &parts.tickets,
        texts: &parts.texts,
        events: &parts.events,
        telemetry: &parts.telemetry,
    });
    count_findings(&report);
    report
}

/// Feeds one audit run's finding counts into the metrics layer.
fn count_findings(report: &AuditReport) {
    if !dcfail_obs::enabled() {
        return;
    }
    dcfail_obs::add("audit.runs", 1);
    dcfail_obs::add("audit.findings.error", report.error_count() as u64);
    dcfail_obs::add("audit.findings.warn", report.warn_count() as u64);
    dcfail_obs::add("audit.findings.info", report.info_count() as u64);
}
