//! Audited trace import: load, lint, and reject on Error-level findings or
//! recover, one function per format under a [`RecoveryMode`].
//!
//! These functions put the audit pass directly on the untrusted-input
//! boundary. The CSV path parses through `dcfail_model::interop` and then
//! audits the assembled dataset; the JSON path first deserializes into
//! [`RawDatasetParts`] (which accepts anything shape-valid) so the audit sees
//! the file exactly as written, and only then converts to a validated
//! [`FailureDataset`]. Either way, a strict import refuses a trace with
//! Error-level findings and returns the full [`AuditReport`] as the error —
//! callers get every defect at once instead of the first one a strict
//! parser hits — and a lenient one recovers it.

use crate::recover::{recover_raw, DegradationReport, RecoveryMode, RepairRule};
use crate::{audit_dataset, audit_raw, AuditReport, RawDatasetParts};
use dcfail_model::interop::CsvRecovery;
use dcfail_model::prelude::*;
use std::fmt;

/// Why an audited import refused a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// The input could not be parsed at all (malformed CSV or JSON).
    Parse(String),
    /// The input parsed but carries Error-level audit findings.
    Rejected(AuditReport),
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Parse(msg) => write!(f, "trace does not parse: {msg}"),
            ImportError::Rejected(report) => {
                write!(
                    f,
                    "trace rejected with {} error-level audit finding(s):\n{}",
                    report.error_count(),
                    report.render_text()
                )
            }
        }
    }
}

impl std::error::Error for ImportError {}

/// Folds the CSV parser's row/field-level recovery counts into a
/// [`DegradationReport`] so both ingest layers report through one channel.
fn fold_csv_recovery(report: &mut DegradationReport, csv: &CsvRecovery) {
    report.record(RepairRule::CsvRowSkipped, csv.rows_skipped);
    report.record(RepairRule::CsvFieldClamped, csv.fields_clamped);
    report.record(RepairRule::CsvIdRemapped, csv.ids_remapped);
    report.machines_seen += csv.machine_rows_seen;
    report.machines_kept += csv.machine_rows_kept;
    report.events_seen += csv.event_rows_seen;
    report.events_kept += csv.event_rows_kept;
}

/// Records which [`RecoveryMode`] an ingest ran under (`audit.ingest.mode`
/// labelled counter).
fn count_ingest_mode(mode: RecoveryMode) {
    let label = match mode {
        RecoveryMode::Strict => "strict",
        RecoveryMode::Lenient => "lenient",
    };
    dcfail_obs::add_labeled("audit.ingest.mode", label, 1);
}

/// Imports a JSON trace under the given [`RecoveryMode`].
///
/// The file is parsed once, as [`RawDatasetParts`], which accepts anything
/// shape-valid. `Strict` audits those parts *before* validation, so the
/// audit sees the input exactly as written (unsorted events, dangling ids
/// and reversed windows all stay visible); only a clean trace is then
/// converted into a canonical [`FailureDataset`], with an empty
/// [`DegradationReport`]. `Lenient` quarantines unrepairable records,
/// repairs the rest and returns the best-effort dataset together with the
/// degradation account. The lenient path never rejects a shape-valid trace:
/// the recovered dataset re-audits with zero Error-level findings. Either
/// way the returned report still carries any Warn/Info findings.
///
/// # Errors
///
/// Returns [`ImportError::Parse`] on malformed JSON; under `Strict` also
/// [`ImportError::Rejected`] on Error-level audit findings.
pub fn dataset_from_json(
    json: &str,
    mode: RecoveryMode,
) -> Result<(FailureDataset, AuditReport, DegradationReport), ImportError> {
    count_ingest_mode(mode);
    let raw: RawDatasetParts =
        serde_json::from_str(json).map_err(|e| ImportError::Parse(e.to_string()))?;
    match mode {
        RecoveryMode::Strict => {
            let report = audit_raw(&raw);
            if !report.is_clean() {
                return Err(ImportError::Rejected(report));
            }
            // A clean raw trace satisfies a superset of the dataset
            // invariants, so the conversion validates and canonicalizes the
            // parts already parsed.
            let dataset =
                FailureDataset::try_from(raw).map_err(|e| ImportError::Parse(e.to_string()))?;
            Ok((dataset, report, DegradationReport::default()))
        }
        RecoveryMode::Lenient => {
            let recovered = recover_raw(&raw).map_err(|e| ImportError::Parse(e.to_string()))?;
            let report = audit_dataset(&recovered.dataset);
            Ok((recovered.dataset, report, recovered.report))
        }
    }
}

/// Imports a machine-inventory + event-log CSV pair under the given
/// [`RecoveryMode`].
///
/// `Strict` parses through `dcfail_model::interop`, audits the assembled
/// dataset and refuses it on Error-level findings, with an empty
/// [`DegradationReport`]; `Lenient` skips unsalvageable rows, clamps
/// fixable field values, re-maps sparse ids and — should the salvaged
/// dataset still carry Error-level findings — runs the full
/// quarantine-and-recover pass over it, so the returned dataset always
/// re-audits clean. Either way the returned report still carries any
/// Warn/Info findings.
///
/// # Errors
///
/// Returns [`ImportError::Parse`] on malformed CSV (under `Lenient`, when
/// even lenient parsing cannot salvage a dataset); under `Strict` also
/// [`ImportError::Rejected`] on Error-level audit findings.
pub fn dataset_from_csv(
    machines_csv: &str,
    events_csv: &str,
    horizon: Horizon,
    mode: RecoveryMode,
) -> Result<(FailureDataset, AuditReport, DegradationReport), ImportError> {
    count_ingest_mode(mode);
    match mode {
        RecoveryMode::Strict => {
            let dataset =
                dcfail_model::interop::dataset_from_csv(machines_csv, events_csv, horizon)
                    .map_err(|e| ImportError::Parse(e.to_string()))?;
            let report = audit_dataset(&dataset);
            if !report.is_clean() {
                return Err(ImportError::Rejected(report));
            }
            Ok((dataset, report, DegradationReport::default()))
        }
        RecoveryMode::Lenient => {
            let (dataset, csv_recovery) =
                dcfail_model::interop::dataset_from_csv_lenient(machines_csv, events_csv, horizon)
                    .map_err(|e| ImportError::Parse(e.to_string()))?;
            let report = audit_dataset(&dataset);
            if report.is_clean() {
                let mut degradation = DegradationReport::default();
                fold_csv_recovery(&mut degradation, &csv_recovery);
                Ok((dataset, report, degradation))
            } else {
                // Belt and braces: the lenient parser is designed to produce
                // audit-clean datasets, but if a defect slips through, the
                // recovery pass neutralizes it.
                let recovered = recover_raw(&RawDatasetParts::from(&dataset))
                    .map_err(|e| ImportError::Parse(e.to_string()))?;
                let mut degradation = recovered.report;
                fold_csv_recovery(&mut degradation, &csv_recovery);
                let report = audit_dataset(&recovered.dataset);
                Ok((recovered.dataset, report, degradation))
            }
        }
    }
}
