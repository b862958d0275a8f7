//! Table-driven corruption tests: start from a pristine dataset, apply one
//! surgical corruption to its serialized form, and assert that the audit
//! names exactly the rule the corruption violates.
//!
//! Corruptions are applied to the serde `Value` tree because the model's
//! constructors make most broken states unrepresentable in safe code — the
//! lenient [`RawDatasetParts`] mirror is precisely the surface a hostile or
//! hand-edited trace file reaches.

#![allow(clippy::unwrap_used)]

use dcfail_audit::{audit_dataset, audit_raw, RawDatasetParts, RuleId, Severity};
use dcfail_model::prelude::*;
use serde::{Number, Value};
use std::sync::Arc;

// --- fixture ---------------------------------------------------------------

fn fixture() -> FailureDataset {
    let mut topo = Topology::new();
    topo.add_subsystem(SubsystemMeta::new(SubsystemId::new(0), "Sys I"));
    topo.add_box(HostBox::new(
        BoxId::new(0),
        SubsystemId::new(0),
        PowerDomainId::new(0),
        false,
    ));
    topo.place_vm(BoxId::new(0), MachineId::new(1));
    topo.assign_power_domain(PowerDomainId::new(0), MachineId::new(0));
    topo.assign_power_domain(PowerDomainId::new(0), MachineId::new(1));

    let mut parts = RawDatasetParts::default();
    parts.horizon = Horizon::observation_year();
    parts.topology = topo;
    parts.machines = vec![
        Machine::new_pm(
            MachineId::new(0),
            SubsystemId::new(0),
            PowerDomainId::new(0),
            ResourceCapacity::default(),
            None,
        ),
        Machine::new_vm(
            MachineId::new(1),
            SubsystemId::new(0),
            PowerDomainId::new(0),
            ResourceCapacity::default(),
            Some(SimTime::from_days(-100)),
            BoxId::new(0),
        ),
    ];

    let specs = [
        (FailureClass::Reboot, MachineId::new(0), 2i64, HOUR),
        (FailureClass::Software, MachineId::new(1), 5, HOUR * 3),
        (FailureClass::Hardware, MachineId::new(0), 10, HOUR * 2),
    ];
    let mut texts = TextTable::default();
    let (unresponsive, fixed) = (texts.push("server unresponsive"), texts.push("fixed"));
    for (i, &(class, machine, day, repair)) in specs.iter().enumerate() {
        let at = SimTime::from_days(day);
        let incident = IncidentId::new(i as u32);
        let ticket = TicketId::new(i as u32);
        parts
            .incidents
            .push(Incident::new(incident, class, at, vec![machine]));
        parts.tickets.push(Ticket::new(
            ticket,
            machine,
            TicketKind::Crash,
            Some(incident),
            at,
            at + repair,
            unresponsive,
            fixed,
            Some(class),
        ));
        parts.events.push(FailureEvent::new(
            machine, incident, ticket, at, class, class, repair,
        ));
    }
    parts.texts = Arc::new(texts);

    let mut t = Telemetry::new();
    let usage = vec![WeeklyUsage::new(20.0, 30.0, 40.0, 64.0); 52];
    t.set_usage(MachineId::new(0), usage.clone());
    t.set_usage(MachineId::new(1), usage);
    let window = Horizon::new(SimTime::from_days(224), SimTime::from_days(280));
    t.set_onoff(
        MachineId::new(1),
        OnOffLog::new(
            window,
            true,
            vec![SimTime::from_days(230), SimTime::from_days(240)],
        ),
    );
    t.set_consolidation(MachineId::new(1), vec![1; 13]);
    parts.telemetry = t;
    FailureDataset::try_from(parts).unwrap()
}

fn fixture_value() -> Value {
    serde_json::to_value(&RawDatasetParts::from(&fixture()))
}

// --- Value surgery helpers -------------------------------------------------

fn field<'a>(v: &'a mut Value, name: &str) -> &'a mut Value {
    match v {
        Value::Object(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == name)
            .map_or_else(|| panic!("no field '{name}'"), |(_, val)| val),
        other => panic!("expected object, found {}", other.kind()),
    }
}

fn items(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Array(items) => items,
        other => panic!("expected array, found {}", other.kind()),
    }
}

fn entries(v: &mut Value) -> &mut Vec<(String, Value)> {
    match v {
        Value::Object(entries) => entries,
        other => panic!("expected object, found {}", other.kind()),
    }
}

fn set_int(v: &mut Value, n: i64) {
    *v = Value::Num(Number::I(n));
}

/// Shorthand: `machines[1].id` etc.
fn record<'a>(root: &'a mut Value, list: &str, index: usize) -> &'a mut Value {
    &mut items(field(root, list))[index]
}

// --- the corruption table --------------------------------------------------

struct Case {
    name: &'static str,
    rule: RuleId,
    /// When true, the corruption is surgical: `rule` must be the *only*
    /// Error-level finding. Cascading corruptions only assert presence.
    exact: bool,
    corrupt: fn(&mut Value),
}

const CASES: &[Case] = &[
    Case {
        name: "reversed horizon",
        rule: RuleId::HorizonEmpty,
        exact: true,
        corrupt: |v| set_int(field(field(v, "horizon"), "end"), -1),
    },
    Case {
        name: "machine id out of sequence",
        rule: RuleId::MachineIdsNotDense,
        exact: true,
        corrupt: |v| set_int(field(record(v, "machines", 0), "id"), 5),
    },
    Case {
        name: "incident id out of sequence",
        rule: RuleId::IncidentIdsNotDense,
        exact: true,
        corrupt: |v| set_int(field(record(v, "incidents", 1), "id"), 9),
    },
    Case {
        name: "ticket id out of sequence",
        rule: RuleId::TicketIdsNotDense,
        exact: true,
        corrupt: |v| set_int(field(record(v, "tickets", 1), "id"), 9),
    },
    Case {
        name: "machine references unknown subsystem",
        rule: RuleId::SubsystemDangling,
        exact: true,
        corrupt: |v| set_int(field(record(v, "machines", 0), "subsystem"), 7),
    },
    Case {
        name: "host box references unknown subsystem",
        rule: RuleId::SubsystemDangling,
        exact: true,
        corrupt: |v| {
            let boxes = field(v, "topology");
            set_int(field(record(boxes, "boxes", 0), "subsystem"), 7);
        },
    },
    Case {
        name: "VM hosted on unknown box",
        rule: RuleId::VmHostDangling,
        exact: false, // the box still lists the VM -> placement also fires
        corrupt: |v| set_int(field(record(v, "machines", 1), "host"), 9),
    },
    Case {
        name: "PM carries a host box",
        rule: RuleId::PlacementKindMismatch,
        exact: true,
        corrupt: |v| set_int(field(record(v, "machines", 0), "host"), 0),
    },
    Case {
        name: "VM without a host box",
        rule: RuleId::PlacementKindMismatch,
        exact: false, // the box still lists the VM -> placement also fires
        corrupt: |v| *field(record(v, "machines", 1), "host") = Value::Null,
    },
    Case {
        name: "box lists a machine that is not its VM",
        rule: RuleId::BoxPlacementInconsistent,
        exact: true,
        corrupt: |v| {
            let topo = field(v, "topology");
            items(field(record(topo, "boxes", 0), "vms")).push(Value::Num(Number::I(0)));
        },
    },
    Case {
        name: "incident with no members",
        rule: RuleId::IncidentEmpty,
        exact: false, // its event is now not-in-incident either
        corrupt: |v| *field(record(v, "incidents", 0), "machines") = Value::Array(Vec::new()),
    },
    Case {
        name: "incident member references unknown machine",
        rule: RuleId::IncidentMemberDangling,
        exact: true,
        corrupt: |v| {
            items(field(record(v, "incidents", 0), "machines")).push(Value::Num(Number::I(99)));
        },
    },
    Case {
        name: "ticket references unknown machine",
        rule: RuleId::TicketMachineDangling,
        exact: false, // its event's ticket no longer agrees
        corrupt: |v| set_int(field(record(v, "tickets", 0), "machine"), 99),
    },
    Case {
        name: "ticket closes before opening",
        rule: RuleId::TicketWindowReversed,
        exact: false, // repair window no longer agrees with the event
        corrupt: |v| set_int(field(record(v, "tickets", 0), "closed_at"), 100),
    },
    Case {
        name: "events out of order",
        rule: RuleId::EventsUnsorted,
        exact: true,
        corrupt: |v| items(field(v, "events")).swap(0, 1),
    },
    Case {
        name: "event beyond the horizon",
        rule: RuleId::EventOutsideHorizon,
        exact: false, // ticket opened_at no longer agrees
        corrupt: |v| set_int(field(record(v, "events", 0), "at"), 400 * 24 * 60),
    },
    Case {
        name: "event references unknown machine",
        rule: RuleId::EventMachineDangling,
        exact: false, // incident membership + ticket agreement also break
        corrupt: |v| set_int(field(record(v, "events", 0), "machine"), 99),
    },
    Case {
        name: "event references unknown incident",
        rule: RuleId::EventIncidentDangling,
        exact: false, // ticket incident link no longer agrees
        corrupt: |v| set_int(field(record(v, "events", 0), "incident"), 99),
    },
    Case {
        name: "event references unknown ticket",
        rule: RuleId::EventTicketDangling,
        exact: true,
        corrupt: |v| set_int(field(record(v, "events", 0), "ticket"), 99),
    },
    Case {
        name: "negative repair duration",
        rule: RuleId::EventRepairNegative,
        exact: false, // repair no longer agrees with the ticket window
        corrupt: |v| set_int(field(record(v, "events", 0), "repair"), -60),
    },
    Case {
        name: "event's ticket is not a crash ticket",
        rule: RuleId::EventTicketMismatch,
        exact: true,
        corrupt: |v| *field(record(v, "tickets", 0), "kind") = Value::Str("NonCrash".into()),
    },
    Case {
        name: "event's machine missing from its incident",
        rule: RuleId::EventNotInIncident,
        exact: true,
        corrupt: |v| {
            *field(record(v, "incidents", 0), "machines") =
                Value::Array(vec![Value::Num(Number::I(1))]);
        },
    },
    Case {
        name: "telemetry keyed to unknown machine",
        rule: RuleId::TelemetryMachineDangling,
        exact: true,
        corrupt: |v| {
            let usage = entries(field(field(v, "telemetry"), "usage"));
            let entry = usage.iter_mut().find(|(k, _)| k == "0").unwrap();
            entry.0 = "99".into();
        },
    },
    Case {
        name: "on/off toggles out of order",
        rule: RuleId::OnOffTogglesInvalid,
        exact: true,
        corrupt: |v| {
            let onoff = entries(field(field(v, "telemetry"), "onoff"));
            let log = &mut onoff.iter_mut().find(|(k, _)| k == "1").unwrap().1;
            items(field(log, "toggles")).reverse();
        },
    },
    Case {
        name: "on/off toggle outside the log window",
        rule: RuleId::OnOffTogglesInvalid,
        exact: true,
        corrupt: |v| {
            let onoff = entries(field(field(v, "telemetry"), "onoff"));
            let log = &mut onoff.iter_mut().find(|(k, _)| k == "1").unwrap().1;
            *field(log, "toggles") = Value::Array(vec![Value::Num(Number::I(300 * 24 * 60))]);
        },
    },
    // --- Warn-level rules: the dataset stays usable (is_clean) -------------
    Case {
        name: "incident timestamp disagrees with earliest event",
        rule: RuleId::IncidentAtMismatch,
        exact: true,
        corrupt: |v| set_int(field(record(v, "incidents", 0), "at"), 2 * 24 * 60 + 100),
    },
    Case {
        name: "incident that projects no events",
        rule: RuleId::IncidentWithoutEvents,
        exact: true,
        corrupt: |v| {
            let mut extra = record(v, "incidents", 0).clone();
            set_int(field(&mut extra, "id"), 3);
            items(field(v, "incidents")).push(extra);
        },
    },
    Case {
        name: "two events on one machine at one instant",
        rule: RuleId::DuplicateEvent,
        exact: true,
        corrupt: |v| {
            let copy = record(v, "events", 0).clone();
            items(field(v, "events")).insert(1, copy);
        },
    },
    Case {
        name: "second failure inside an open repair window",
        rule: RuleId::RepairOverlap,
        exact: true,
        corrupt: |v| {
            // Stretch event 0's repair (day 2, m0) past event 2 (day 10, m0),
            // keeping the ticket in agreement so only the overlap fires.
            set_int(field(record(v, "events", 0), "repair"), 10 * 24 * 60);
            set_int(
                field(record(v, "tickets", 0), "closed_at"),
                2 * 24 * 60 + 10 * 24 * 60,
            );
        },
    },
    Case {
        name: "crash ticket no event references",
        rule: RuleId::CrashTicketWithoutEvent,
        exact: true,
        corrupt: |v| {
            let mut extra = record(v, "tickets", 0).clone();
            set_int(field(&mut extra, "id"), 3);
            items(field(v, "tickets")).push(extra);
        },
    },
    Case {
        name: "VM-only telemetry on a PM",
        rule: RuleId::TelemetryKindMismatch,
        exact: true,
        corrupt: |v| {
            let consolidation = entries(field(field(v, "telemetry"), "consolidation"));
            let entry = consolidation.iter_mut().find(|(k, _)| k == "1").unwrap();
            entry.0 = "0".into(); // rekey the VM's series to the PM
        },
    },
    Case {
        name: "on/off window leaves the horizon",
        rule: RuleId::OnOffWindowOutsideHorizon,
        exact: true,
        corrupt: |v| {
            let onoff = entries(field(field(v, "telemetry"), "onoff"));
            let log = &mut onoff.iter_mut().find(|(k, _)| k == "1").unwrap().1;
            set_int(field(field(log, "window"), "end"), 400 * 24 * 60);
        },
    },
    Case {
        name: "empty usage series",
        rule: RuleId::UsageSeriesLength,
        exact: true,
        corrupt: |v| {
            let usage = entries(field(field(v, "telemetry"), "usage"));
            let entry = usage.iter_mut().find(|(k, _)| k == "0").unwrap();
            entry.1 = Value::Array(Vec::new());
        },
    },
    Case {
        name: "consolidation level of zero",
        rule: RuleId::ConsolidationLevelZero,
        exact: true,
        corrupt: |v| {
            let consolidation = entries(field(field(v, "telemetry"), "consolidation"));
            let entry = consolidation.iter_mut().find(|(k, _)| k == "1").unwrap();
            entry.1 = Value::Array(vec![Value::Num(Number::I(0))]);
        },
    },
    // --- Info-level rules ---------------------------------------------------
    Case {
        name: "no events at all",
        rule: RuleId::NoEvents,
        exact: true,
        corrupt: |v| *field(v, "events") = Value::Array(Vec::new()),
    },
];

// --- tests -----------------------------------------------------------------

#[test]
fn fixture_is_pristine() {
    let ds = fixture();
    let report = audit_dataset(&ds);
    assert!(report.is_empty(), "unexpected findings:\n{report}");
    // The raw mirror of a valid dataset is equally pristine.
    let raw: RawDatasetParts = serde_json::from_value(&fixture_value()).unwrap();
    assert!(audit_raw(&raw).is_empty());
}

#[test]
fn each_corruption_fires_its_rule() {
    for case in CASES {
        let mut value = fixture_value();
        (case.corrupt)(&mut value);
        let raw: RawDatasetParts = serde_json::from_value(&value)
            .unwrap_or_else(|e| panic!("{}: corrupted value no longer parses: {e}", case.name));
        let report = audit_raw(&raw);
        assert!(
            report.find(case.rule).is_some(),
            "{}: expected {} to fire, got:\n{}",
            case.name,
            case.rule,
            report.render_text()
        );
        match case.rule.severity() {
            Severity::Error => {
                assert!(!report.is_clean(), "{}: expected rejection", case.name);
                if case.exact {
                    let errors: Vec<RuleId> = report
                        .diagnostics
                        .iter()
                        .filter(|d| d.severity == Severity::Error)
                        .map(|d| d.rule)
                        .collect();
                    assert_eq!(
                        errors,
                        vec![case.rule],
                        "{}: expected a single error finding",
                        case.name
                    );
                }
            }
            Severity::Warn | Severity::Info => {
                assert!(
                    report.is_clean(),
                    "{}: sub-error finding must keep the dataset usable:\n{}",
                    case.name,
                    report.render_text()
                );
            }
        }
    }
}

#[test]
fn degenerate_class_mix_is_flagged() {
    // 120 events, all the same true class: an Info-level labeling smell.
    let mut parts = RawDatasetParts::default();
    parts.horizon = Horizon::observation_year();
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
    let mut texts = TextTable::default();
    let none = texts.push("");
    for i in 0..120u32 {
        let at = SimTime::from_days(i64::from(i) * 3);
        parts.incidents.push(Incident::new(
            IncidentId::new(i),
            FailureClass::Software,
            at,
            vec![MachineId::new(0)],
        ));
        parts.tickets.push(Ticket::new(
            TicketId::new(i),
            MachineId::new(0),
            TicketKind::Crash,
            Some(IncidentId::new(i)),
            at,
            at + HOUR,
            none,
            none,
            Some(FailureClass::Software),
        ));
        parts.events.push(FailureEvent::new(
            MachineId::new(0),
            IncidentId::new(i),
            TicketId::new(i),
            at,
            FailureClass::Software,
            FailureClass::Software,
            HOUR,
        ));
    }
    parts.texts = Arc::new(texts);
    let report = audit_dataset(&FailureDataset::try_from(parts).unwrap());
    assert!(
        report.find(RuleId::ClassMixDegenerate).is_some(),
        "{report}"
    );
    assert!(report.is_clean());
}

#[test]
fn audited_json_import_rejects_broken_traces() {
    use dcfail_audit::import::{dataset_from_json, ImportError};

    // A pristine trace imports, returning an empty report.
    let good = serde_json::to_string(&fixture()).unwrap();
    let (ds, report) = dataset_from_json(&good).unwrap();
    assert_eq!(ds, fixture());
    assert!(report.is_empty());

    // A trace with a dangling event machine is rejected with the report.
    let mut value = fixture_value();
    set_int(field(record(&mut value, "events", 0), "machine"), 99);
    let bad = serde_json::to_string(&value).unwrap();
    match dataset_from_json(&bad).unwrap_err() {
        ImportError::Rejected(report) => {
            assert!(report.find(RuleId::EventMachineDangling).is_some());
            assert!(report.error_count() > 0);
        }
        other @ ImportError::Parse(_) => panic!("expected rejection, got {other}"),
    }

    // Garbage is a parse error, not a rejection.
    assert!(matches!(
        dataset_from_json("not json").unwrap_err(),
        ImportError::Parse(_)
    ));
}

#[test]
fn audited_csv_import_runs_the_catalog() {
    use dcfail_audit::import::dataset_from_csv;

    let ds = fixture();
    let machines = dcfail_model::interop::machines_to_csv(&ds);
    let events = dcfail_model::interop::events_to_csv(&ds);
    let (back, report) = dataset_from_csv(&machines, &events, ds.horizon()).unwrap();
    assert_eq!(back.machines(), ds.machines());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn events_unsorted_is_invisible_after_validation() {
    // The same defect that audit_raw reports is canonicalized away by the
    // strict serde path: sortedness is a raw-input concern only.
    let mut value = fixture_value();
    items(field(&mut value, "events")).swap(0, 1);
    let raw: RawDatasetParts = serde_json::from_value(&value).unwrap();
    assert!(audit_raw(&raw).find(RuleId::EventsUnsorted).is_some());
    let json = serde_json::to_string(&value).unwrap();
    let ds: FailureDataset = serde_json::from_str(&json).unwrap();
    assert!(audit_dataset(&ds).find(RuleId::EventsUnsorted).is_none());
}

#[test]
fn a_text_id_past_the_table_is_refused_flagged_and_quarantined() {
    use dcfail_audit::recover::{recover_raw, RepairRule};

    // JSON carries text inline, so only in-memory parts can dangle: point
    // ticket t1's resolution past the fixture's two-text table.
    let mut parts = RawDatasetParts::from(&fixture());
    let t = parts.tickets[1];
    parts.tickets[1] = Ticket::new(
        t.id(),
        t.machine(),
        t.kind(),
        t.incident(),
        t.opened_at(),
        t.closed_at(),
        t.description(),
        TextId::new(7),
        t.true_class(),
    );

    assert_eq!(
        FailureDataset::try_from(parts.clone()).unwrap_err(),
        DatasetError::UnknownTicketText {
            ticket: TicketId::new(1),
            text: TextId::new(7),
        }
    );

    let report = audit_raw(&parts);
    let finding = report.find(RuleId::TicketTextDangling).expect("rule fires");
    assert_eq!(finding.severity, Severity::Error);
    assert_eq!(finding.subjects, ["t1"]);
    assert!(!report.is_clean());

    let recovered = recover_raw(&parts).unwrap();
    assert_eq!(recovered.report.count(RepairRule::TicketQuarantined), 1);
    // t1's event lost its ticket, so it goes too.
    assert_eq!(recovered.report.count(RepairRule::EventQuarantined), 1);
    assert_eq!(recovered.dataset.tickets().len(), 2);
    let reaudit = audit_dataset(&recovered.dataset);
    assert!(reaudit.is_clean(), "{reaudit}");
    assert!(reaudit.find(RuleId::TicketTextDangling).is_none());
}
