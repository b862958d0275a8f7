//! Static audit of [`ScenarioConfig`] parameters.
//!
//! The simulator trusts its configuration the way analyses trust a dataset:
//! silently. A negative rate multiplier or an out-of-range probability does
//! not crash the generator — it skews every downstream artifact. This module
//! lints the configuration against the `config-*` rules of the shared
//! `dcfail-audit` catalog; [`Scenario::build`](crate::Scenario::build)
//! refuses to simulate from a configuration with Error-level findings.

use crate::config::ScenarioConfig;
use dcfail_audit::{AuditReport, Diagnostic, RuleId};

fn hit(diags: &mut Vec<Diagnostic>, rule: RuleId, subject: &str, message: String) {
    diags.push(Diagnostic::new(rule, vec![subject.to_string()], message));
}

/// Lints a scenario configuration.
///
/// Error-level findings mean the configuration cannot produce a meaningful
/// dataset; the single Warn rule (`config-onoff-window-outside-horizon`)
/// flags telemetry that analyses would silently clamp away.
#[allow(clippy::too_many_lines)]
pub fn audit_config(config: &ScenarioConfig) -> AuditReport {
    let mut diags = Vec::new();

    if !(config.scale > 0.0 && config.scale <= 1.0) {
        hit(
            &mut diags,
            RuleId::ConfigScaleOutOfRange,
            "scale",
            format!("scale {} is not in (0, 1]", config.scale),
        );
    }
    if config.horizon.end() <= config.horizon.start() {
        hit(
            &mut diags,
            RuleId::HorizonEmpty,
            "horizon",
            format!("observation window {} is empty or reversed", config.horizon),
        );
    }
    if config.subsystems.is_empty() {
        hit(
            &mut diags,
            RuleId::ConfigSubsystemsEmpty,
            "subsystems",
            "scenario defines no subsystems".to_string(),
        );
    }
    for (name, rate) in [
        ("pm_base_weekly", config.pm_base_weekly),
        ("vm_base_weekly", config.vm_base_weekly),
    ] {
        if !(0.0..1.0).contains(&rate) {
            hit(
                &mut diags,
                RuleId::ConfigBaseRateOutOfRange,
                name,
                format!("{name} = {rate} is not a weekly probability in [0, 1)"),
            );
        }
    }
    for (name, p) in [
        ("pm_recur_daily", config.pm_recur_daily),
        ("vm_recur_daily", config.vm_recur_daily),
    ] {
        if !(0.0..=1.0).contains(&p) {
            hit(
                &mut diags,
                RuleId::ConfigRecurrenceOutOfRange,
                name,
                format!("{name} = {p} is not a probability in [0, 1]"),
            );
        }
    }
    // dlint::allow(D02): NaN must fail this validation, so the None arm of partial_cmp is the point
    if config.burst_tau_days.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        hit(
            &mut diags,
            RuleId::ConfigBurstTauNonPositive,
            "burst_tau_days",
            format!(
                "recurrence decay constant {} days is not positive",
                config.burst_tau_days
            ),
        );
    }
    if !(0.0..=1.0).contains(&config.degraded_text_fraction) {
        hit(
            &mut diags,
            RuleId::ConfigDegradedTextOutOfRange,
            "degraded_text_fraction",
            format!(
                "degraded-text fraction {} is not in [0, 1]",
                config.degraded_text_fraction
            ),
        );
    }
    for sys in &config.subsystems {
        for (field, mult) in [
            ("pm_rate_mult", sys.pm_rate_mult),
            ("vm_rate_mult", sys.vm_rate_mult),
            ("power_mult", sys.power_mult),
            ("hw_net_mult", sys.hw_net_mult),
        ] {
            if !(0.0..).contains(&mult) {
                hit(
                    &mut diags,
                    RuleId::ConfigMultiplierNegative,
                    &sys.name,
                    format!("{}: {field} = {mult} is negative", sys.name),
                );
            }
        }
    }
    if config.horizon.end() > config.horizon.start() {
        let w = config.onoff_window();
        if w.start() < config.horizon.start() || w.end() > config.horizon.end() {
            hit(
                &mut diags,
                RuleId::ConfigOnOffWindowOutsideHorizon,
                "onoff_window_start_day",
                format!(
                    "on/off telemetry window {w} leaves the scenario horizon {}",
                    config.horizon
                ),
            );
        }
    }

    AuditReport::from_diagnostics(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcfail_audit::Severity;

    #[test]
    fn paper_config_is_clean() {
        let report = audit_config(&ScenarioConfig::paper());
        assert!(report.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn each_bad_parameter_fires_its_rule() {
        type Corruption = fn(&mut ScenarioConfig);
        let cases: &[(Corruption, RuleId)] = &[
            (|c| c.scale = 0.0, RuleId::ConfigScaleOutOfRange),
            (|c| c.scale = 1.5, RuleId::ConfigScaleOutOfRange),
            (|c| c.scale = f64::NAN, RuleId::ConfigScaleOutOfRange),
            (|c| c.subsystems.clear(), RuleId::ConfigSubsystemsEmpty),
            (|c| c.pm_base_weekly = 1.0, RuleId::ConfigBaseRateOutOfRange),
            (
                |c| c.vm_base_weekly = -0.1,
                RuleId::ConfigBaseRateOutOfRange,
            ),
            (
                |c| c.pm_recur_daily = 1.7,
                RuleId::ConfigRecurrenceOutOfRange,
            ),
            (
                |c| c.vm_recur_daily = -0.2,
                RuleId::ConfigRecurrenceOutOfRange,
            ),
            (
                |c| c.burst_tau_days = 0.0,
                RuleId::ConfigBurstTauNonPositive,
            ),
            (
                |c| c.degraded_text_fraction = 1.2,
                RuleId::ConfigDegradedTextOutOfRange,
            ),
            (
                |c| c.subsystems[0].power_mult = -1.0,
                RuleId::ConfigMultiplierNegative,
            ),
        ];
        for (i, (corrupt, rule)) in cases.iter().enumerate() {
            let mut config = ScenarioConfig::paper();
            corrupt(&mut config);
            let report = audit_config(&config);
            assert!(report.find(*rule).is_some(), "case {i}: expected {rule}");
            assert!(!report.is_clean(), "case {i}: expected an error finding");
        }
    }

    #[test]
    fn onoff_window_outside_horizon_is_a_warning() {
        let mut config = ScenarioConfig::paper();
        config.onoff_window_start_day = 350; // 350 + 56 > 364
        let report = audit_config(&config);
        assert!(report
            .find(RuleId::ConfigOnOffWindowOutsideHorizon)
            .is_some());
        assert_eq!(
            report.diagnostics.iter().map(|d| d.severity).max(),
            Some(Severity::Warn)
        );
        assert!(report.is_clean(), "warn-only report must stay clean");
    }
}
