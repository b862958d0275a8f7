//! The recovery check behind `repro chaos`.
//!
//! [`recovery_check`] corrupts a copy of a clean dataset by an
//! [`InjectionPlan`], recovers it with [`recover_raw`] and re-audits the
//! result. Recovery holds when the recovered dataset audits clean and the
//! degradation report is non-empty whenever anything was injected. It
//! prints nothing; the caller reads the [`RecoveryCheck`] summary.

use crate::{inject, InjectionLog, InjectionPlan};
use dcfail_audit::recover::recover_raw;
use dcfail_audit::{audit_dataset, AuditReport, RecoverError, Recovered};
use dcfail_model::prelude::*;

/// What one recovery check saw.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryCheck {
    /// What the injector corrupted.
    pub log: InjectionLog,
    /// The recovered dataset and its degradation report.
    pub recovered: Recovered,
    /// The re-audit of the recovered dataset.
    pub audit: AuditReport,
    /// The first broken rule; `None` when recovery held.
    pub failure: Option<&'static str>,
}

/// Corrupts `clean` by `plan`, recovers it and re-audits it.
///
/// # Errors
///
/// Recovery itself produced an invalid dataset.
pub fn recovery_check(
    clean: &FailureDataset,
    plan: &InjectionPlan,
) -> Result<RecoveryCheck, RecoverError> {
    let (parts, log) = inject(clean, plan);
    let recovered = recover_raw(&parts)?;
    let audit = audit_dataset(&recovered.dataset);
    let failure = if !audit.is_clean() {
        Some("recovered dataset re-audits dirty")
    } else if log.total() > 0 && recovered.report.is_empty() {
        Some("corruption was injected but the degradation report is empty")
    } else {
        None
    };
    Ok(RecoveryCheck {
        log,
        recovered,
        audit,
        failure,
    })
}
