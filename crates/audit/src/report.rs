//! The audit rule catalog, on the shared `dcfail-findings` report machinery.
//!
//! Severities, diagnostics and the assembled report are generic machinery
//! shared with `dcfail-dlint` (the source-determinism pass); this module
//! contributes only the dataset-audit catalog and the concrete aliases the
//! rest of the crate consumes.

pub use dcfail_findings::{Severity, MAX_SUBJECTS};

/// One audit finding: a violated rule plus the entities that violate it.
pub type Diagnostic = dcfail_findings::Diagnostic<RuleId>;

/// The result of one audit pass: every finding, renderable as text or JSON.
pub type AuditReport = dcfail_findings::Report<RuleId>;

dcfail_findings::rule_catalog! {
    /// Stable identifier of one audit rule.
    ///
    /// Serializes as the rule's kebab-case code (e.g.
    /// `"event-outside-horizon"`) so reports stay readable and stable
    /// across releases.
    RuleId, domain = "audit" {
        /// The observation window is empty or reversed.
        HorizonEmpty = ("horizon-empty", Error,
            "the observation window must satisfy start < end");
        /// Machine records are not dense `0..n` by id.
        MachineIdsNotDense = ("machine-ids-not-dense", Error,
            "machine records must be dense 0..n by id");
        /// Incident records are not dense `0..n` by id.
        IncidentIdsNotDense = ("incident-ids-not-dense", Error,
            "incident records must be dense 0..n by id");
        /// Ticket records are not dense `0..n` by id.
        TicketIdsNotDense = ("ticket-ids-not-dense", Error,
            "ticket records must be dense 0..n by id");
        /// A machine or host box references an undefined subsystem.
        SubsystemDangling = ("subsystem-dangling", Error,
            "every machine and host box must reference a defined subsystem");
        /// A VM's hosting box does not exist in the topology.
        VmHostDangling = ("vm-host-dangling", Error,
            "every VM's host box must exist in the topology");
        /// A PM carries a host box, or a VM carries none.
        PlacementKindMismatch = ("placement-kind-mismatch", Error,
            "PMs must have no host box and VMs must have one");
        /// Box VM lists and VM host links disagree.
        BoxPlacementInconsistent = ("box-placement-inconsistent", Error,
            "box VM lists and VM host links must agree in both directions");
        /// An incident affects no machines.
        IncidentEmpty = ("incident-empty", Error,
            "every incident must affect at least one machine");
        /// An incident member references an unknown machine.
        IncidentMemberDangling = ("incident-member-dangling", Error,
            "every incident member must resolve to a machine");
        /// A ticket references an unknown machine.
        TicketMachineDangling = ("ticket-machine-dangling", Error,
            "every ticket's machine must resolve");
        /// A ticket closes before it opens.
        TicketWindowReversed = ("ticket-window-reversed", Error,
            "every ticket must close at or after opening");
        /// A ticket's description or resolution id is past the text table.
        TicketTextDangling = ("ticket-text-dangling", Error,
            "every ticket's description and resolution must resolve in the text table");
        /// Events are not sorted by `(at, machine, incident)`.
        EventsUnsorted = ("events-unsorted", Error,
            "events must be sorted by (at, machine, incident)");
        /// An event lies outside the observation window.
        EventOutsideHorizon = ("event-outside-horizon", Error,
            "every event must fall inside the observation window");
        /// An event references an unknown machine.
        EventMachineDangling = ("event-machine-dangling", Error,
            "every event's machine must resolve");
        /// An event references an unknown incident.
        EventIncidentDangling = ("event-incident-dangling", Error,
            "every event's incident must resolve");
        /// An event references an unknown ticket.
        EventTicketDangling = ("event-ticket-dangling", Error,
            "every event's ticket must resolve");
        /// An event carries a negative repair duration.
        EventRepairNegative = ("event-repair-negative", Error,
            "repair durations must be nonnegative");
        /// An event and its crash ticket disagree.
        EventTicketMismatch = ("event-ticket-mismatch", Error,
            "an event's ticket must be a crash ticket agreeing on machine, incident and repair window");
        /// An event's machine is missing from its incident's member list.
        EventNotInIncident = ("event-not-in-incident", Error,
            "an event's machine must appear in its incident's member list");
        /// Telemetry is keyed to an unknown machine.
        TelemetryMachineDangling = ("telemetry-machine-dangling", Error,
            "every telemetry series must be keyed to a machine");
        /// On/off toggles are unsorted or outside the log window.
        OnOffTogglesInvalid = ("onoff-toggles-invalid", Error,
            "on/off toggles must strictly increase and fall inside the log window");
        /// An incident's timestamp is not the earliest of its events.
        IncidentAtMismatch = ("incident-at-mismatch", Warn,
            "an incident's timestamp should equal its earliest event");
        /// An incident has no projected events.
        IncidentWithoutEvents = ("incident-without-events", Warn,
            "every incident should project at least one event");
        /// Two events share the same machine and instant.
        DuplicateEvent = ("duplicate-event", Warn,
            "a machine should not fail twice at the same instant");
        /// A machine fails again while a prior repair is still open.
        RepairOverlap = ("repair-overlap", Warn,
            "repair windows of one machine should not overlap");
        /// A crash ticket is referenced by no event.
        CrashTicketWithoutEvent = ("crash-ticket-without-event", Warn,
            "every crash ticket should be referenced by an event");
        /// A PM carries VM-only telemetry (on/off log or consolidation).
        TelemetryKindMismatch = ("telemetry-kind-mismatch", Warn,
            "on/off logs and consolidation series belong to VMs");
        /// An on/off log window leaves the observation window.
        OnOffWindowOutsideHorizon = ("onoff-window-outside-horizon", Warn,
            "on/off log windows should lie inside the observation window");
        /// A usage series is empty or longer than the horizon has weeks.
        UsageSeriesLength = ("usage-series-length", Warn,
            "weekly usage series should be nonempty and at most one entry per horizon week");
        /// A consolidation level below one (a VM co-resides with itself).
        ConsolidationLevelZero = ("consolidation-level-zero", Warn,
            "consolidation levels count the VM itself and are at least 1");
        /// The dataset has no crash events at all.
        NoEvents = ("no-events", Info,
            "a dataset without crash events makes every failure analysis vacuous");
        /// One class dominates a large event population.
        ClassMixDegenerate = ("class-mix-degenerate", Info,
            "a single true class covering >90% of a large dataset suggests a labeling problem");
        /// Scenario scale outside `(0, 1]`.
        ConfigScaleOutOfRange = ("config-scale-out-of-range", Error,
            "scenario scale must lie in (0, 1]");
        /// Base weekly failure probability outside `[0, 1)`.
        ConfigBaseRateOutOfRange = ("config-base-rate-out-of-range", Error,
            "base weekly failure probabilities must lie in [0, 1)");
        /// Recurrence probability outside `[0, 1]`.
        ConfigRecurrenceOutOfRange = ("config-recurrence-out-of-range", Error,
            "recurrence probabilities must lie in [0, 1]");
        /// Non-positive recurrence decay constant.
        ConfigBurstTauNonPositive = ("config-burst-tau-nonpositive", Error,
            "the recurrence decay constant must be positive");
        /// Degraded-text fraction outside `[0, 1]`.
        ConfigDegradedTextOutOfRange = ("config-degraded-text-out-of-range", Error,
            "the degraded-text fraction must lie in [0, 1]");
        /// A scenario without subsystems.
        ConfigSubsystemsEmpty = ("config-subsystems-empty", Error,
            "a scenario must define at least one subsystem");
        /// A negative per-subsystem rate multiplier.
        ConfigMultiplierNegative = ("config-multiplier-negative", Error,
            "per-subsystem rate multipliers must be nonnegative");
        /// The on/off telemetry window leaves the scenario horizon.
        ConfigOnOffWindowOutsideHorizon = ("config-onoff-window-outside-horizon", Warn,
            "the on/off telemetry window should lie inside the scenario horizon");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_codes_are_unique_and_kebab() {
        let mut seen = std::collections::BTreeSet::new();
        for &rule in RuleId::ALL {
            assert!(seen.insert(rule.code()), "duplicate code {}", rule.code());
            assert!(
                rule.code()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "non-kebab code {}",
                rule.code()
            );
            assert_eq!(RuleId::from_code(rule.code()), Some(rule));
            assert!(!rule.description().is_empty());
        }
        assert!(RuleId::ALL.len() >= 15, "catalog shrank below the floor");
        assert_eq!(RuleId::from_code("no-such-rule"), None);
    }

    #[test]
    fn diagnostic_caps_subjects() {
        let subjects: Vec<String> = (0..40).map(|i| format!("m{i}")).collect();
        let d = Diagnostic::new(RuleId::EventMachineDangling, subjects, "40 offender(s)");
        assert_eq!(d.subjects.len(), MAX_SUBJECTS);
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn report_renders_with_audit_domain() {
        let report = AuditReport::from_diagnostics(vec![
            Diagnostic::new(RuleId::NoEvents, vec![], "no events"),
            Diagnostic::new(RuleId::RepairOverlap, vec!["m1".into()], "1 overlap"),
        ]);
        assert!(report.is_clean());
        assert_eq!(
            report.diagnostics.iter().map(|d| d.severity).max(),
            Some(Severity::Warn)
        );
        let text = report.render_text();
        assert!(text.contains("warn[repair-overlap]"));
        assert!(text.contains("audit: 0 error(s), 1 warning(s), 1 info"));
    }

    #[test]
    fn report_json_roundtrip() {
        let report = AuditReport::from_diagnostics(vec![
            Diagnostic::new(
                RuleId::EventOutsideHorizon,
                vec!["m3".into(), "m7".into()],
                "2 event(s) outside the window",
            ),
            Diagnostic::new(RuleId::ClassMixDegenerate, vec![], "all Software"),
        ]);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"event-outside-horizon\""));
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn unknown_rule_code_rejected() {
        let err = serde_json::from_str::<RuleId>("\"not-a-rule\"").unwrap_err();
        assert!(err.to_string().contains("unknown audit rule"));
    }
}
