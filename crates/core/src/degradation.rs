//! Graceful estimator degradation for incomplete or recovered datasets.
//!
//! The headline estimators ([`rates::weekly_failure_rates`] leaves out an
//! estate group that never fails; [`interfailure::analyze`] and
//! [`repair::analyze`] return bare `None` below their sample floors) assume a
//! complete, healthy trace. A dataset that went through quarantine-and-
//! recover ingest — or any real trace with gaps — can silently lose whole
//! machine groups, and a panic or an unexplained `None` is the wrong answer
//! for a pipeline that deliberately accepted degraded input.
//!
//! This module wraps those estimators in [`Robust`]: the estimate when it is
//! computable, a completeness fraction, and typed [`Caveat`]s naming exactly
//! what is missing — so downstream reporting can print "VM inter-failure fit
//! unavailable: 3 gaps, need 10" instead of dying.

use crate::{interfailure, rates, repair};
use dcfail_model::prelude::*;
use std::fmt;

/// Minimum sample size the distribution-fitting estimators require.
const FIT_FLOOR: usize = 10;

/// One reason an estimate is missing or weaker than usual.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Caveat {
    /// Stable machine-readable code (kebab-case).
    pub code: &'static str,
    /// Human-readable explanation with the relevant numbers.
    pub message: String,
}

impl Caveat {
    /// Creates a caveat.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for Caveat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

/// An estimate that degrades gracefully instead of panicking.
///
/// `value` is `None` when the estimate cannot be computed at all;
/// `completeness` is the estimator's own measure of how much of its required
/// input was present (1.0 = everything); `caveats` name what is missing.
#[derive(Debug, Clone, PartialEq)]
pub struct Robust<T> {
    /// The estimate, when computable.
    pub value: Option<T>,
    /// Fraction of the estimator's required input that was present, in
    /// `[0, 1]`.
    pub completeness: f64,
    /// Everything that is missing or weaker than usual.
    pub caveats: Vec<Caveat>,
}

impl<T> Robust<T> {
    /// A fully computed estimate with no caveats.
    pub fn complete(value: T) -> Self {
        Self {
            value: Some(value),
            completeness: 1.0,
            caveats: Vec::new(),
        }
    }

    /// No estimate could be produced.
    pub fn unavailable(completeness: f64, caveats: Vec<Caveat>) -> Self {
        Self {
            value: None,
            completeness: completeness.clamp(0.0, 1.0),
            caveats,
        }
    }

    /// True when the estimate is present and carries no caveats.
    #[cfg(test)]
    fn is_complete(&self) -> bool {
        self.value.is_some() && self.caveats.is_empty()
    }
}

/// Fig. 2 weekly failure rates that tolerate missing estate groups.
///
/// Each estate group [`rates::weekly_failure_rates`] has no summary for is a
/// caveat here. The full figure is only produced when both estate groups have
/// failures; completeness is the fraction of the two estate groups present.
pub fn weekly_failure_rates_robust(dataset: &FailureDataset) -> Robust<rates::WeeklyFailureRates> {
    let fig2 = rates::weekly_failure_rates(dataset);
    let mut caveats = Vec::new();
    if fig2.all_pm.is_none() {
        caveats.push(Caveat::new(
            "no-pm-failures",
            "no PM failures (or no PMs) in the dataset; Fig. 2 needs both estate groups",
        ));
    }
    if fig2.all_vm.is_none() {
        caveats.push(Caveat::new(
            "no-vm-failures",
            "no VM failures (or no VMs) in the dataset; Fig. 2 needs both estate groups",
        ));
    }
    if caveats.is_empty() {
        Robust::complete(fig2)
    } else {
        Robust::unavailable((2 - caveats.len()) as f64 / 2.0, caveats)
    }
}

/// Fig. 3 inter-failure analysis that explains an absent fit.
///
/// Completeness is the gap sample size relative to the fitting floor
/// (clamped to 1.0), so a recovered dataset that lost most repeat failures
/// shows up as partially complete rather than as a silent `None`.
pub fn interfailure_robust(
    dataset: &FailureDataset,
    kind: MachineKind,
) -> Robust<interfailure::InterFailureAnalysis> {
    let n_gaps = interfailure::per_server_gaps_days(dataset, Some(kind), None).len();
    let completeness = (n_gaps as f64 / FIT_FLOOR as f64).min(1.0);
    match interfailure::analyze(dataset, kind) {
        Some(analysis) => Robust::complete(analysis),
        None => Robust::unavailable(
            completeness,
            vec![Caveat::new(
                "too-few-gaps",
                format!("{kind} inter-failure fit unavailable: {n_gaps} gaps, need {FIT_FLOOR}"),
            )],
        ),
    }
}

/// Fig. 4 repair-time analysis that explains an absent fit.
///
/// Completeness is the repair sample size relative to the fitting floor
/// (clamped to 1.0).
pub fn repair_robust(
    dataset: &FailureDataset,
    kind: MachineKind,
) -> Robust<repair::RepairAnalysis> {
    let n_repairs = repair::repair_hours(dataset, kind).len();
    let completeness = (n_repairs as f64 / FIT_FLOOR as f64).min(1.0);
    match repair::analyze(dataset, kind) {
        Some(analysis) => Robust::complete(analysis),
        None => Robust::unavailable(
            completeness,
            vec![Caveat::new(
                "too-few-repairs",
                format!(
                    "{kind} repair-time fit unavailable: {n_repairs} repairs, need {FIT_FLOOR}"
                ),
            )],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn robust_matches_strict_on_healthy_data() {
        let ds = testutil::dataset();
        let fig2 = weekly_failure_rates_robust(ds);
        assert!(fig2.is_complete());
        let strict = rates::weekly_failure_rates(ds);
        assert_eq!(fig2.value.unwrap(), strict);
        for kind in [MachineKind::Pm, MachineKind::Vm] {
            assert!(interfailure_robust(ds, kind).is_complete());
            assert!(repair_robust(ds, kind).is_complete());
        }
    }

    #[test]
    fn missing_estate_group_degrades_instead_of_panicking() {
        // A dataset with machines but zero events: every estimator must
        // come back unavailable with caveats, not panic.
        let mut parts = RawDatasetParts::default();
        parts
            .topology
            .add_subsystem(SubsystemMeta::new(SubsystemId::new(0), "Sys I"));
        parts.machines = vec![Machine::new_pm(
            MachineId::new(0),
            SubsystemId::new(0),
            PowerDomainId::new(0),
            ResourceCapacity::default(),
            None,
        )];
        let ds = FailureDataset::try_from(parts).unwrap();

        let fig2 = weekly_failure_rates_robust(&ds);
        assert!(fig2.value.is_none());
        assert_eq!(fig2.completeness, 0.0);
        assert_eq!(fig2.caveats.len(), 2);
        assert!(fig2.caveats.iter().any(|c| c.code == "no-pm-failures"));

        let inter = interfailure_robust(&ds, MachineKind::Vm);
        assert!(inter.value.is_none());
        assert_eq!(inter.completeness, 0.0);
        assert!(inter.caveats[0].message.contains("need 10"));

        let rep = repair_robust(&ds, MachineKind::Pm);
        assert!(rep.value.is_none());
        assert!(!rep.caveats.is_empty());

        assert_eq!(rates::mtbf_days(&ds, MachineKind::Pm), None);
    }

    #[test]
    fn mtbf_is_finite_and_sane_on_healthy_data() {
        let ds = testutil::dataset();
        for kind in [MachineKind::Pm, MachineKind::Vm] {
            let mtbf = rates::mtbf_days(ds, kind).unwrap();
            assert!(mtbf.is_finite() && mtbf > 0.0);
        }
        // PMs fail more often per machine → shorter MTBF.
        let pm = rates::mtbf_days(ds, MachineKind::Pm).unwrap();
        let vm = rates::mtbf_days(ds, MachineKind::Vm).unwrap();
        assert!(pm < vm, "pm {pm} vs vm {vm}");
    }
}
