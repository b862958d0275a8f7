//! The rule engine: evaluates the lint catalog against a dataset view.

use crate::report::{AuditReport, Diagnostic, RuleId, MAX_SUBJECTS};
use dcfail_model::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Borrowed view over the parts of a dataset, validated or raw.
pub(crate) struct View<'a> {
    pub(crate) horizon: Horizon,
    pub(crate) machines: &'a [Machine],
    pub(crate) topology: &'a Topology,
    pub(crate) incidents: &'a [Incident],
    pub(crate) tickets: &'a [Ticket],
    pub(crate) texts: &'a TextTable,
    pub(crate) events: &'a [FailureEvent],
    pub(crate) telemetry: &'a Telemetry,
}

/// Accumulates per-rule offenders and assembles the report.
#[derive(Default)]
pub(crate) struct Sink {
    hits: BTreeMap<RuleId, (Vec<String>, usize)>,
    notes: Vec<Diagnostic>,
}

impl Sink {
    /// Records one offending entity under `rule`.
    #[allow(clippy::needless_pass_by_value)] // callers pass display temporaries
    pub(crate) fn hit(&mut self, rule: RuleId, subject: impl ToString) {
        let entry = self.hits.entry(rule).or_default();
        if entry.0.len() < MAX_SUBJECTS {
            entry.0.push(subject.to_string());
        }
        entry.1 += 1;
    }

    /// Records a dataset-level finding with a bespoke message.
    pub(crate) fn note(&mut self, rule: RuleId, message: impl Into<String>) {
        self.notes.push(Diagnostic::new(rule, Vec::new(), message));
    }

    /// Builds the report, one diagnostic per fired rule, in catalog order.
    pub(crate) fn finish(self) -> AuditReport {
        let mut diagnostics: Vec<Diagnostic> = self
            .hits
            .into_iter()
            .map(|(rule, (subjects, count))| {
                let message = format!("{} — {count} offender(s)", rule.description());
                Diagnostic::new(rule, subjects, message)
            })
            .chain(self.notes)
            .collect();
        diagnostics.sort_by_key(|d| d.rule);
        AuditReport::from_diagnostics(diagnostics)
    }
}

/// Runs the full catalog over `view`.
pub(crate) fn run(view: &View<'_>) -> AuditReport {
    let mut sink = Sink::default();
    let horizon_ok = view.horizon.end() > view.horizon.start();
    if !horizon_ok {
        sink.note(
            RuleId::HorizonEmpty,
            format!("observation window {} is empty or reversed", view.horizon),
        );
    }
    check_machines(view, &mut sink);
    check_placement(view, &mut sink);
    check_incidents(view, &mut sink);
    check_tickets(view, &mut sink);
    check_events(view, &mut sink, horizon_ok);
    check_telemetry(view, &mut sink, horizon_ok);
    check_population(view, &mut sink);
    sink.finish()
}

fn check_machines(view: &View<'_>, sink: &mut Sink) {
    let num_subsystems = view.topology.subsystems().len();
    for (i, m) in view.machines.iter().enumerate() {
        if m.id().index() != i {
            sink.hit(RuleId::MachineIdsNotDense, format!("index {i}"));
        }
        if m.subsystem().index() >= num_subsystems {
            sink.hit(RuleId::SubsystemDangling, m.id());
        }
    }
    for b in view.topology.boxes() {
        if b.subsystem().index() >= num_subsystems {
            sink.hit(RuleId::SubsystemDangling, b.id());
        }
    }
}

fn check_placement(view: &View<'_>, sink: &mut Sink) {
    for m in view.machines {
        match (m.kind(), m.host()) {
            (MachineKind::Pm, Some(_)) | (MachineKind::Vm, None) => {
                sink.hit(RuleId::PlacementKindMismatch, m.id());
            }
            (MachineKind::Vm, Some(hbox)) => match view.topology.host_box(hbox) {
                None => sink.hit(RuleId::VmHostDangling, m.id()),
                Some(b) if !b.vms().contains(&m.id()) => {
                    sink.hit(RuleId::BoxPlacementInconsistent, m.id());
                }
                Some(_) => {}
            },
            (MachineKind::Pm, None) => {}
        }
    }
    for b in view.topology.boxes() {
        for &vm in b.vms() {
            let consistent = view
                .machines
                .get(vm.index())
                .is_some_and(|m| m.host() == Some(b.id()));
            if !consistent {
                sink.hit(RuleId::BoxPlacementInconsistent, format!("{}/{vm}", b.id()));
            }
        }
    }
}

fn check_incidents(view: &View<'_>, sink: &mut Sink) {
    let num_machines = view.machines.len();
    for (i, inc) in view.incidents.iter().enumerate() {
        if inc.id().index() != i {
            sink.hit(RuleId::IncidentIdsNotDense, format!("index {i}"));
        }
        if inc.machines().is_empty() {
            sink.hit(RuleId::IncidentEmpty, inc.id());
        }
        for &m in inc.machines() {
            if m.index() >= num_machines {
                sink.hit(RuleId::IncidentMemberDangling, format!("{}/{m}", inc.id()));
            }
        }
    }
}

fn check_tickets(view: &View<'_>, sink: &mut Sink) {
    let num_machines = view.machines.len();
    for (i, t) in view.tickets.iter().enumerate() {
        if t.id().index() != i {
            sink.hit(RuleId::TicketIdsNotDense, format!("index {i}"));
        }
        if t.machine().index() >= num_machines {
            sink.hit(RuleId::TicketMachineDangling, t.id());
        }
        if t.closed_at() < t.opened_at() {
            sink.hit(RuleId::TicketWindowReversed, t.id());
        }
        if [t.description(), t.resolution()]
            .into_iter()
            .any(|id| view.texts.get(id).is_none())
        {
            sink.hit(RuleId::TicketTextDangling, t.id());
        }
    }
}

fn check_events(view: &View<'_>, sink: &mut Sink, horizon_ok: bool) {
    let num_machines = view.machines.len();
    let num_incidents = view.incidents.len();
    let num_tickets = view.tickets.len();

    for (i, pair) in view.events.windows(2).enumerate() {
        let key = |e: &FailureEvent| (e.at(), e.machine(), e.incident());
        if key(&pair[0]) > key(&pair[1]) {
            sink.hit(RuleId::EventsUnsorted, format!("index {}", i + 1));
        }
    }

    let mut referenced_tickets: BTreeSet<TicketId> = BTreeSet::new();
    let mut incident_first_event: BTreeMap<IncidentId, SimTime> = BTreeMap::new();
    let mut seen_instants: BTreeSet<(MachineId, SimTime)> = BTreeSet::new();
    let mut per_machine: BTreeMap<MachineId, Vec<&FailureEvent>> = BTreeMap::new();

    for ev in view.events {
        if ev.machine().index() >= num_machines {
            sink.hit(RuleId::EventMachineDangling, ev.machine());
        }
        if ev.incident().index() >= num_incidents {
            sink.hit(RuleId::EventIncidentDangling, ev.incident());
        } else {
            let inc = &view.incidents[ev.incident().index()];
            if !inc.machines().contains(&ev.machine()) {
                sink.hit(
                    RuleId::EventNotInIncident,
                    format!("{}/{}", ev.incident(), ev.machine()),
                );
            }
            incident_first_event
                .entry(ev.incident())
                .and_modify(|t| *t = (*t).min(ev.at()))
                .or_insert(ev.at());
        }
        if ev.ticket().index() >= num_tickets {
            sink.hit(RuleId::EventTicketDangling, ev.ticket());
        } else {
            referenced_tickets.insert(ev.ticket());
            let t = &view.tickets[ev.ticket().index()];
            let agrees = t.is_crash()
                && t.machine() == ev.machine()
                && t.incident() == Some(ev.incident())
                && t.opened_at() == ev.at()
                && t.repair_time() == ev.repair();
            if !agrees {
                sink.hit(RuleId::EventTicketMismatch, ev.ticket());
            }
        }
        if horizon_ok && !view.horizon.contains(ev.at()) {
            sink.hit(
                RuleId::EventOutsideHorizon,
                format!("{}@{}", ev.machine(), ev.at()),
            );
        }
        if ev.repair().is_negative() {
            sink.hit(
                RuleId::EventRepairNegative,
                format!("{}@{}", ev.machine(), ev.at()),
            );
        }
        if !seen_instants.insert((ev.machine(), ev.at())) {
            sink.hit(
                RuleId::DuplicateEvent,
                format!("{}@{}", ev.machine(), ev.at()),
            );
        }
        per_machine.entry(ev.machine()).or_default().push(ev);
    }

    for (inc, first) in &incident_first_event {
        if view.incidents[inc.index()].at() != *first {
            sink.hit(RuleId::IncidentAtMismatch, inc);
        }
    }
    for inc in view.incidents {
        if !incident_first_event.contains_key(&inc.id()) {
            sink.hit(RuleId::IncidentWithoutEvents, inc.id());
        }
    }
    for (machine, mut evs) in per_machine {
        evs.sort_by_key(|e| e.at());
        if evs
            .windows(2)
            .any(|w| w[0].resolved_at() > w[1].at() && !w[0].repair().is_negative())
        {
            sink.hit(RuleId::RepairOverlap, machine);
        }
    }
    for t in view.tickets {
        if t.is_crash() && !referenced_tickets.contains(&t.id()) {
            sink.hit(RuleId::CrashTicketWithoutEvent, t.id());
        }
    }
}

fn check_telemetry(view: &View<'_>, sink: &mut Sink, horizon_ok: bool) {
    let num_machines = view.machines.len();
    let num_weeks = view.horizon.num_weeks();
    let is_pm = |m: MachineId| {
        view.machines
            .get(m.index())
            .is_some_and(dcfail_model::machine::Machine::is_pm)
    };

    for (m, weeks) in view.telemetry.usage_series() {
        if m.index() >= num_machines {
            sink.hit(RuleId::TelemetryMachineDangling, m);
        }
        if weeks.is_empty() || (horizon_ok && weeks.len() > num_weeks) {
            sink.hit(RuleId::UsageSeriesLength, m);
        }
    }
    for (m, log) in view.telemetry.onoff_logs() {
        if m.index() >= num_machines {
            sink.hit(RuleId::TelemetryMachineDangling, m);
        } else if is_pm(m) {
            sink.hit(RuleId::TelemetryKindMismatch, m);
        }
        let window = log.window();
        if !log.has_valid_toggles() {
            sink.hit(RuleId::OnOffTogglesInvalid, m);
        }
        if horizon_ok
            && (window.start() < view.horizon.start() || window.end() > view.horizon.end())
        {
            sink.hit(RuleId::OnOffWindowOutsideHorizon, m);
        }
    }
    for (m, levels) in view.telemetry.consolidation_series() {
        if m.index() >= num_machines {
            sink.hit(RuleId::TelemetryMachineDangling, m);
        } else if is_pm(m) {
            sink.hit(RuleId::TelemetryKindMismatch, m);
        }
        if levels.contains(&0) {
            sink.hit(RuleId::ConsolidationLevelZero, m);
        }
    }
}

fn check_population(view: &View<'_>, sink: &mut Sink) {
    if view.events.is_empty() {
        sink.note(RuleId::NoEvents, "dataset contains no crash events");
        return;
    }
    if view.events.len() < 100 {
        return;
    }
    let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
    for ev in view.events {
        *counts.entry(ev.true_class().index()).or_default() += 1;
    }
    if let Some((&class, &n)) = counts.iter().max_by_key(|&(_, &n)| n) {
        let share = n as f64 / view.events.len() as f64;
        if share > 0.9 {
            sink.note(
                RuleId::ClassMixDegenerate,
                format!(
                    "true class {} covers {:.1}% of {} events",
                    FailureClass::from_index(class).label(),
                    100.0 * share,
                    view.events.len()
                ),
            );
        }
    }
}
