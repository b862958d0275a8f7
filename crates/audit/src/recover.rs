//! Quarantine-and-recover: turn dirty raw parts into a best-effort dataset.
//!
//! [`audit_raw`](crate::audit_raw) can *name* every defect in a dirty trace,
//! but the strict import path then refuses the file wholesale. This module is
//! the other half of a production ingest pipeline: it repairs what has an
//! unambiguous fix (re-densified ids, re-sorted events, clamped windows,
//! re-homed placements, re-synced tickets), quarantines what does not (records
//! whose cross-references cannot be resolved), and reports exactly what it did
//! as a [`DegradationReport`] so the caller can judge whether the surviving
//! data is still worth analyzing.
//!
//! The pass is total: for *any* input parts it either returns a dataset that
//! re-audits with zero Error-level findings, or a [`RecoverError`] naming the
//! residual defect (which the robustness suite treats as a bug in this
//! module, not in the input).

use crate::RawDatasetParts;
use dcfail_model::prelude::*;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// How an ingest boundary treats defective input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Reject the trace on any Error-level audit finding (the PR-1 behavior).
    #[default]
    Strict,
    /// Quarantine unrepairable records, repair the rest, report degradation.
    Lenient,
}

/// One repair or quarantine rule the recovery pass can apply.
///
/// Mirrors the audit catalog from the fixing side: most variants correspond
/// directly to the Error-level [`RuleId`](crate::RuleId) they neutralize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum RepairRule {
    /// Empty/reversed observation window replaced with the standard year.
    HorizonRebuilt,
    /// Machine record re-numbered onto the dense id sequence.
    MachineReindexed,
    /// Second record claiming an already-seen machine id was dropped.
    MachineDuplicateDropped,
    /// PM carried a host link; the link was removed.
    PlacementStripped,
    /// VM with a missing or dangling host was re-homed onto a real box.
    PlacementReattached,
    /// VM with no box to re-home onto was quarantined.
    VmQuarantined,
    /// Missing subsystem metadata synthesized to cover referenced ids.
    SubsystemSynthesized,
    /// Ticket whose machine or text cannot be resolved was quarantined.
    TicketQuarantined,
    /// Ticket closing before opening had its close clamped to the open.
    TicketWindowClamped,
    /// Ticket duplicated so each event owns exactly one crash ticket.
    TicketCloned,
    /// Ticket fields rewritten to agree with its crash event.
    TicketResynced,
    /// Ticket's incident reference could not be resolved and was cleared.
    TicketIncidentPruned,
    /// Event with an unresolvable machine/incident/ticket was quarantined.
    EventQuarantined,
    /// Event timestamp/repair restored from its agreeing crash ticket's
    /// window (the ticketing system's record survives event-log corruption).
    EventResyncedFromTicket,
    /// Event timestamp clamped into the observation window.
    EventClampedToHorizon,
    /// Negative repair duration clamped to zero.
    RepairClampedNonNegative,
    /// Duplicate `(machine, instant)` event dropped.
    EventDeduped,
    /// Event list re-sorted into chronological order.
    EventsResorted,
    /// Incident with no surviving members was quarantined.
    IncidentQuarantined,
    /// Incident member referencing an unknown machine was pruned.
    IncidentMemberPruned,
    /// Incident timestamp recomputed from its earliest surviving event.
    IncidentTimeRecomputed,
    /// Telemetry series with an unresolvable or mismatched machine dropped.
    TelemetryQuarantined,
    /// Usage series longer than the observation window cut to fit.
    UsageTruncated,
    /// On/off toggles filtered, sorted and deduplicated.
    OnOffSanitized,
    /// Zero consolidation level raised to one (a VM co-resides with itself).
    ConsolidationClamped,
    /// Malformed CSV row skipped by the lenient parser.
    CsvRowSkipped,
    /// CSV field value clamped into its valid range by the lenient parser.
    CsvFieldClamped,
    /// Non-dense CSV machine/host ids remapped onto dense sequences.
    CsvIdRemapped,
}

/// Whether a rule salvages a record or discards it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairAction {
    /// The record survives, modified.
    Repaired,
    /// The record is removed from the dataset.
    Dropped,
}

impl RepairRule {
    /// Every rule, in catalog order.
    pub const ALL: [RepairRule; 28] = [
        RepairRule::HorizonRebuilt,
        RepairRule::MachineReindexed,
        RepairRule::MachineDuplicateDropped,
        RepairRule::PlacementStripped,
        RepairRule::PlacementReattached,
        RepairRule::VmQuarantined,
        RepairRule::SubsystemSynthesized,
        RepairRule::TicketQuarantined,
        RepairRule::TicketWindowClamped,
        RepairRule::TicketCloned,
        RepairRule::TicketResynced,
        RepairRule::TicketIncidentPruned,
        RepairRule::EventQuarantined,
        RepairRule::EventResyncedFromTicket,
        RepairRule::EventClampedToHorizon,
        RepairRule::RepairClampedNonNegative,
        RepairRule::EventDeduped,
        RepairRule::EventsResorted,
        RepairRule::IncidentQuarantined,
        RepairRule::IncidentMemberPruned,
        RepairRule::IncidentTimeRecomputed,
        RepairRule::TelemetryQuarantined,
        RepairRule::UsageTruncated,
        RepairRule::OnOffSanitized,
        RepairRule::ConsolidationClamped,
        RepairRule::CsvRowSkipped,
        RepairRule::CsvFieldClamped,
        RepairRule::CsvIdRemapped,
    ];

    /// Stable machine-readable code.
    pub const fn code(self) -> &'static str {
        match self {
            RepairRule::HorizonRebuilt => "horizon-rebuilt",
            RepairRule::MachineReindexed => "machine-reindexed",
            RepairRule::MachineDuplicateDropped => "machine-duplicate-dropped",
            RepairRule::PlacementStripped => "placement-stripped",
            RepairRule::PlacementReattached => "placement-reattached",
            RepairRule::VmQuarantined => "vm-quarantined",
            RepairRule::SubsystemSynthesized => "subsystem-synthesized",
            RepairRule::TicketQuarantined => "ticket-quarantined",
            RepairRule::TicketWindowClamped => "ticket-window-clamped",
            RepairRule::TicketCloned => "ticket-cloned",
            RepairRule::TicketResynced => "ticket-resynced",
            RepairRule::TicketIncidentPruned => "ticket-incident-pruned",
            RepairRule::EventQuarantined => "event-quarantined",
            RepairRule::EventResyncedFromTicket => "event-resynced-from-ticket",
            RepairRule::EventClampedToHorizon => "event-clamped-to-horizon",
            RepairRule::RepairClampedNonNegative => "repair-clamped-nonnegative",
            RepairRule::EventDeduped => "event-deduped",
            RepairRule::EventsResorted => "events-resorted",
            RepairRule::IncidentQuarantined => "incident-quarantined",
            RepairRule::IncidentMemberPruned => "incident-member-pruned",
            RepairRule::IncidentTimeRecomputed => "incident-time-recomputed",
            RepairRule::TelemetryQuarantined => "telemetry-quarantined",
            RepairRule::UsageTruncated => "usage-truncated",
            RepairRule::OnOffSanitized => "onoff-sanitized",
            RepairRule::ConsolidationClamped => "consolidation-clamped",
            RepairRule::CsvRowSkipped => "csv-row-skipped",
            RepairRule::CsvFieldClamped => "csv-field-clamped",
            RepairRule::CsvIdRemapped => "csv-id-remapped",
        }
    }

    /// Whether the rule repairs the record in place or drops it.
    pub const fn action(self) -> RepairAction {
        match self {
            RepairRule::MachineDuplicateDropped
            | RepairRule::VmQuarantined
            | RepairRule::TicketQuarantined
            | RepairRule::EventQuarantined
            | RepairRule::EventDeduped
            | RepairRule::IncidentQuarantined
            | RepairRule::IncidentMemberPruned
            | RepairRule::TelemetryQuarantined
            | RepairRule::CsvRowSkipped => RepairAction::Dropped,
            _ => RepairAction::Repaired,
        }
    }
}

impl fmt::Display for RepairRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

impl Serialize for RepairRule {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.code().to_string())
    }
}

impl Deserialize for RepairRule {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Str(code) = value else {
            return Err(serde::Error::custom("expected a repair rule code string"));
        };
        RepairRule::ALL
            .into_iter()
            .find(|r| r.code() == code)
            .ok_or_else(|| serde::Error::custom(format!("unknown repair rule '{code}'")))
    }
}

/// How many records one rule touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleCount {
    /// The rule applied.
    pub rule: RepairRule,
    /// Number of records it touched.
    pub count: usize,
}

/// What a lenient recovery actually did to a trace.
///
/// This is the ingest-side analogue of an [`AuditReport`](crate::AuditReport):
/// one count per applied [`RepairRule`], plus seen/kept record totals, so the
/// caller can quantify how much signal the surviving dataset still carries.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Nonzero rule counts, in catalog order.
    pub actions: Vec<RuleCount>,
    /// Machine records in the input.
    pub machines_seen: usize,
    /// Machine records in the recovered dataset.
    pub machines_kept: usize,
    /// Incident records in the input.
    pub incidents_seen: usize,
    /// Incident records in the recovered dataset.
    pub incidents_kept: usize,
    /// Ticket records in the input.
    pub tickets_seen: usize,
    /// Ticket records in the recovered dataset (clones included).
    pub tickets_kept: usize,
    /// Crash events in the input.
    pub events_seen: usize,
    /// Crash events in the recovered dataset.
    pub events_kept: usize,
    /// Telemetry series (usage + on/off + consolidation) in the input.
    pub telemetry_seen: usize,
    /// Telemetry series in the recovered dataset.
    pub telemetry_kept: usize,
}

impl DegradationReport {
    /// Count recorded for one rule (zero when the rule never fired).
    pub fn count(&self, rule: RepairRule) -> usize {
        self.actions
            .iter()
            .find(|rc| rc.rule == rule)
            .map_or(0, |rc| rc.count)
    }

    /// Adds `n` applications of `rule` (merging with an existing count).
    pub fn record(&mut self, rule: RepairRule, n: usize) {
        if n == 0 {
            return;
        }
        if let Some(rc) = self.actions.iter_mut().find(|rc| rc.rule == rule) {
            rc.count += n;
        } else {
            self.actions.push(RuleCount { rule, count: n });
            self.actions.sort_by_key(|rc| rc.rule);
        }
    }

    /// Total records repaired in place.
    pub fn records_repaired(&self) -> usize {
        self.actions
            .iter()
            .filter(|rc| rc.rule.action() == RepairAction::Repaired)
            .map(|rc| rc.count)
            .sum()
    }

    /// Total records dropped.
    pub fn records_dropped(&self) -> usize {
        self.actions
            .iter()
            .filter(|rc| rc.rule.action() == RepairAction::Dropped)
            .map(|rc| rc.count)
            .sum()
    }

    /// True when the recovery changed nothing (the input was already clean).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Renders the report as indented text (one line per applied rule).
    pub fn render_text(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "recovery: {} repaired, {} dropped \
             (events {}/{}, machines {}/{}, incidents {}/{}, tickets {}/{}, telemetry {}/{})",
            self.records_repaired(),
            self.records_dropped(),
            self.events_kept,
            self.events_seen,
            self.machines_kept,
            self.machines_seen,
            self.incidents_kept,
            self.incidents_seen,
            self.tickets_kept,
            self.tickets_seen,
            self.telemetry_kept,
            self.telemetry_seen,
        )?;
        for rc in &self.actions {
            let verb = match rc.rule.action() {
                RepairAction::Repaired => "repaired",
                RepairAction::Dropped => "dropped",
            };
            writeln!(f, "  {:>6}  {verb}  {}", rc.count, rc.rule)?;
        }
        Ok(())
    }
}

/// A best-effort dataset plus the account of how it was obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// The recovered, fully validated dataset.
    pub dataset: FailureDataset,
    /// What was repaired, dropped and kept.
    pub report: DegradationReport,
}

/// The recovery pass itself produced an invalid dataset.
///
/// This is a should-never-happen residual: the robustness suite asserts the
/// pass is total over arbitrary corruptions. It is surfaced as a typed error
/// rather than a panic so ingest pipelines stay crash-free regardless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverError(pub DatasetError);

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "recovery produced an invalid dataset: {}", self.0)
    }
}

impl std::error::Error for RecoverError {}

/// Working form of an event while references are being rewritten.
struct RecEvent {
    machine: MachineId,
    incident_old: usize,
    incident: IncidentId,
    ticket: usize,
    at: SimTime,
    true_class: FailureClass,
    reported_class: FailureClass,
    repair: SimDuration,
}

/// Recovers a best-effort [`FailureDataset`] from arbitrary raw parts.
///
/// Records whose cross-references cannot be resolved are quarantined
/// (dropped); everything else is repaired deterministically. The result
/// re-audits with zero Error-level findings.
///
/// # Errors
///
/// Returns [`RecoverError`] if the recovered parts still fail dataset
/// validation — which the robustness suite treats as a bug in this pass.
pub fn recover_raw(parts: &RawDatasetParts) -> Result<Recovered, RecoverError> {
    let _span = dcfail_obs::span("audit.recover");
    let mut report = DegradationReport {
        machines_seen: parts.machines.len(),
        incidents_seen: parts.incidents.len(),
        tickets_seen: parts.tickets.len(),
        events_seen: parts.events.len(),
        telemetry_seen: parts.telemetry.usage_series().count()
            + parts.telemetry.onoff_logs().count()
            + parts.telemetry.consolidation_series().count(),
        ..DegradationReport::default()
    };

    let (horizon, machines, remap, topology) = {
        let _s = dcfail_obs::span("recover.machines");
        let horizon = recover_horizon(parts, &mut report);
        let (machines, remap) = recover_machines(parts, &mut report);
        let topology = rebuild_topology(parts, &machines, &remap, &mut report);
        (horizon, machines, remap, topology)
    };
    let mut tickets = {
        let _s = dcfail_obs::span("recover.tickets");
        recover_tickets(parts, &remap, &mut report)
    };
    let (events, incidents) = {
        let _s = dcfail_obs::span("recover.events");
        let mut events = recover_events(parts, horizon, &remap, &mut tickets, &mut report);
        let incidents = recover_incidents(parts, &remap, &mut events, &mut report);
        sort_events(&mut events, &mut report);
        resync_tickets(&mut tickets.kept, &events, &incidents, &mut report);
        (events, incidents)
    };
    let telemetry = {
        let _s = dcfail_obs::span("recover.telemetry");
        recover_telemetry(parts, horizon, &machines, &remap, &mut report)
    };

    report.machines_kept = machines.len();
    report.incidents_kept = incidents.len();
    report.tickets_kept = tickets.kept.len();
    report.events_kept = events.len();

    let dataset = {
        let _s = dcfail_obs::span("recover.build");
        let incidents = incidents
            .into_iter()
            .enumerate()
            .map(|(i, (class, at, members))| {
                Incident::new(IncidentId::new(i as u32), class, at, members)
            })
            .collect();
        let events = events
            .iter()
            .map(|e| {
                FailureEvent::new(
                    e.machine,
                    e.incident,
                    TicketId::new(e.ticket as u32),
                    e.at,
                    e.true_class,
                    e.reported_class,
                    e.repair,
                )
            })
            .collect();
        let recovered = RawDatasetParts {
            horizon,
            machines,
            topology,
            incidents,
            tickets: tickets.kept,
            // The source's text table, shared: recovery copies no text.
            texts: Arc::clone(&parts.texts),
            events,
            telemetry,
        };
        FailureDataset::try_from(recovered).map_err(RecoverError)?
    };
    if dcfail_obs::enabled() {
        dcfail_obs::add("audit.recover.runs", 1);
        dcfail_obs::add("audit.recover.rules_fired", report.actions.len() as u64);
        dcfail_obs::add("audit.recover.repaired", report.records_repaired() as u64);
        dcfail_obs::add("audit.recover.dropped", report.records_dropped() as u64);
    }
    Ok(Recovered { dataset, report })
}

/// Replaces an empty/reversed observation window with the standard year.
fn recover_horizon(parts: &RawDatasetParts, report: &mut DegradationReport) -> Horizon {
    if parts.horizon.end() > parts.horizon.start() {
        parts.horizon
    } else {
        report.record(RepairRule::HorizonRebuilt, 1);
        Horizon::observation_year()
    }
}

/// Raw machine id → recovered machine id.
///
/// A well-formed trace numbers its machines `0..machines.len()`, so the table
/// is dense over that range. Raw ids at or above it — only non-dense or
/// hostile input has them — go to a sorted map instead, so an outside `u32`
/// never sizes an allocation.
struct MachineRemap {
    dense: Vec<Option<MachineId>>,
    sparse: BTreeMap<u32, MachineId>,
}

impl MachineRemap {
    fn new(num_machines: usize) -> Self {
        Self {
            dense: vec![None; num_machines],
            sparse: BTreeMap::new(),
        }
    }

    fn get(&self, raw: MachineId) -> Option<MachineId> {
        match self.dense.get(raw.index()) {
            Some(&slot) => slot,
            None => self.sparse.get(&raw.raw()).copied(),
        }
    }

    fn insert(&mut self, raw: MachineId, recovered: MachineId) {
        match self.dense.get_mut(raw.index()) {
            Some(slot) => *slot = Some(recovered),
            None => {
                self.sparse.insert(raw.raw(), recovered);
            }
        }
    }
}

/// Re-densifies machine ids and repairs placements; returns the kept machines
/// and the raw-id → new-id remap.
fn recover_machines(
    parts: &RawDatasetParts,
    report: &mut DegradationReport,
) -> (Vec<Machine>, MachineRemap) {
    let num_boxes = parts.topology.num_boxes();
    let mut out: Vec<Machine> = Vec::with_capacity(parts.machines.len());
    let mut remap = MachineRemap::new(parts.machines.len());
    for m in &parts.machines {
        if remap.get(m.id()).is_some() {
            report.record(RepairRule::MachineDuplicateDropped, 1);
            continue;
        }
        let new_id = MachineId::new(out.len() as u32);
        let mut rec = m.clone();
        if rec.id() != new_id {
            rec = rec.with_id(new_id);
            report.record(RepairRule::MachineReindexed, 1);
        }
        match rec.kind() {
            MachineKind::Pm => {
                if rec.host().is_some() {
                    rec = rec.with_host(None);
                    report.record(RepairRule::PlacementStripped, 1);
                }
            }
            MachineKind::Vm => {
                let resolved = rec.host().is_some_and(|h| h.index() < num_boxes);
                if !resolved {
                    // Prefer a box in the VM's own subsystem, fall back to
                    // any box, quarantine when the topology has none.
                    let home = parts
                        .topology
                        .boxes()
                        .iter()
                        .position(|b| b.subsystem() == rec.subsystem())
                        .or_else(|| (num_boxes > 0).then_some(0));
                    let Some(home) = home else {
                        report.record(RepairRule::VmQuarantined, 1);
                        continue;
                    };
                    rec = rec.with_host(Some(BoxId::new(home as u32)));
                    report.record(RepairRule::PlacementReattached, 1);
                }
            }
        }
        remap.insert(m.id(), new_id);
        out.push(rec);
    }
    (out, remap)
}

/// Rebuilds the topology from scratch so placement is consistent by
/// construction: dense box ids, box VM lists derived from machine host links,
/// synthesized subsystem metadata covering every referenced id.
fn rebuild_topology(
    parts: &RawDatasetParts,
    machines: &[Machine],
    remap: &MachineRemap,
    report: &mut DegradationReport,
) -> Topology {
    let present = parts.topology.subsystems().len();
    let mut needed = present;
    for m in machines {
        needed = needed.max(m.subsystem().index() + 1);
    }
    for b in parts.topology.boxes() {
        needed = needed.max(b.subsystem().index() + 1);
    }
    let mut topo = Topology::new();
    for (i, meta) in parts.topology.subsystems().iter().enumerate() {
        topo.add_subsystem(SubsystemMeta::new(SubsystemId::new(i as u32), meta.name()));
    }
    for i in present..needed {
        topo.add_subsystem(SubsystemMeta::new(
            SubsystemId::new(i as u32),
            format!("Sys {} (recovered)", i + 1),
        ));
        report.record(RepairRule::SubsystemSynthesized, 1);
    }
    for (i, b) in parts.topology.boxes().iter().enumerate() {
        topo.add_box(HostBox::new(
            BoxId::new(i as u32),
            b.subsystem(),
            b.power_domain(),
            b.is_high_end(),
        ));
    }
    for m in machines {
        if let Some(home) = m.host() {
            topo.place_vm(home, m.id());
        }
        topo.assign_power_domain(m.power_domain(), m.id());
    }
    // App-cluster membership: keep the raw topology's insertion order for
    // machines that survived, then append cluster-tagged machines the raw
    // lists missed (so recovering a clean dataset is exact).
    let mut clustered: BTreeSet<MachineId> = BTreeSet::new();
    for cluster in parts.topology.app_cluster_ids() {
        for m in parts.topology.app_cluster_members(cluster) {
            let Some(mapped) = remap.get(*m) else {
                continue;
            };
            let belongs = machines
                .get(mapped.index())
                .is_some_and(|mm| mm.app_cluster() == Some(cluster));
            if belongs && clustered.insert(mapped) {
                topo.assign_app_cluster(cluster, mapped);
            }
        }
    }
    for m in machines {
        if let Some(cluster) = m.app_cluster() {
            if clustered.insert(m.id()) {
                topo.assign_app_cluster(cluster, m.id());
            }
        }
    }
    topo
}

/// The tickets recovery keeps, and where each raw ticket went.
struct KeptTickets {
    /// Kept tickets, numbered by position; clones for events that shared a
    /// ticket are appended. Incident references stay raw until
    /// [`resync_tickets`] resolves them.
    kept: Vec<Ticket>,
    /// Number of raw tickets.
    raw_len: usize,
    /// Raw positions of quarantined tickets, ascending.
    dropped: Vec<usize>,
    /// Kept positions whose window was clamped, ascending: a repaired window
    /// is no trustworthy source for restoring a disagreeing event.
    clamped: Vec<usize>,
}

impl KeptTickets {
    /// Kept position of the raw ticket at `raw`; `None` when it was
    /// quarantined or never existed.
    fn position(&self, raw: usize) -> Option<usize> {
        if raw >= self.raw_len || self.dropped.binary_search(&raw).is_ok() {
            return None;
        }
        Some(raw - self.dropped.partition_point(|&d| d < raw))
    }
}

/// One pass over the raw tickets: remaps machines, clamps reversed repair
/// windows and quarantines tickets whose machine or text does not exist.
fn recover_tickets(
    parts: &RawDatasetParts,
    remap: &MachineRemap,
    report: &mut DegradationReport,
) -> KeptTickets {
    let mut out = KeptTickets {
        kept: Vec::with_capacity(parts.tickets.len()),
        raw_len: parts.tickets.len(),
        dropped: Vec::new(),
        clamped: Vec::new(),
    };
    let known = |id: TextId| parts.texts.get(id).is_some();
    for (pos, t) in parts.tickets.iter().enumerate() {
        let machine = remap.get(t.machine());
        let (Some(machine), true) = (machine, known(t.description()) && known(t.resolution()))
        else {
            report.record(RepairRule::TicketQuarantined, 1);
            out.dropped.push(pos);
            continue;
        };
        let mut ticket = t
            .with_id(TicketId::new(out.kept.len() as u32))
            .with_machine(machine);
        if t.closed_at() < t.opened_at() {
            ticket = ticket.with_window(t.opened_at(), t.opened_at());
            out.clamped.push(out.kept.len());
            report.record(RepairRule::TicketWindowClamped, 1);
        }
        out.kept.push(ticket);
    }
    out
}

/// Remaps event references, clamps timestamps and repairs, deduplicates, and
/// guarantees each surviving event owns its own ticket (cloning when two
/// events claimed the same one).
fn recover_events(
    parts: &RawDatasetParts,
    horizon: Horizon,
    remap: &MachineRemap,
    tickets: &mut KeptTickets,
    report: &mut DegradationReport,
) -> Vec<RecEvent> {
    let mut out: Vec<RecEvent> = Vec::with_capacity(parts.events.len());
    let mut seen: BTreeSet<(MachineId, SimTime)> = BTreeSet::new();
    let mut owned: Vec<bool> = vec![false; tickets.kept.len()];
    let last_instant = horizon.end() - MINUTE;
    for ev in &parts.events {
        let Some(machine) = remap.get(ev.machine()) else {
            report.record(RepairRule::EventQuarantined, 1);
            continue;
        };
        let incident_old = ev.incident().index();
        if incident_old >= parts.incidents.len() {
            report.record(RepairRule::EventQuarantined, 1);
            continue;
        }
        let Some(mut ticket) = tickets.position(ev.ticket().index()) else {
            report.record(RepairRule::EventQuarantined, 1);
            continue;
        };
        // When the event's crash ticket agrees on machine and incident and
        // its own window was not repaired, the ticketing system's record is
        // the richer source: restore the event's time and repair from it.
        // This is what makes truncated repairs and skewed clocks genuinely
        // recoverable rather than merely tolerated.
        let (mut at, mut repair) = {
            let t = &tickets.kept[ticket];
            let trustworthy = t.is_crash()
                && t.machine() == machine
                && t.incident() == Some(ev.incident())
                && tickets.clamped.binary_search(&ticket).is_err();
            if trustworthy {
                let (t_at, t_repair) = (t.opened_at(), t.repair_time());
                if t_at != ev.at() || t_repair != ev.repair() {
                    report.record(RepairRule::EventResyncedFromTicket, 1);
                }
                (t_at, t_repair)
            } else {
                (ev.at(), ev.repair())
            }
        };
        if !horizon.contains(at) {
            at = if at < horizon.start() {
                horizon.start()
            } else {
                last_instant
            };
            report.record(RepairRule::EventClampedToHorizon, 1);
        }
        if repair.is_negative() {
            repair = SimDuration::ZERO;
            report.record(RepairRule::RepairClampedNonNegative, 1);
        }
        if !seen.insert((machine, at)) {
            report.record(RepairRule::EventDeduped, 1);
            continue;
        }
        if owned[ticket] {
            let clone = tickets.kept[ticket].with_id(TicketId::new(tickets.kept.len() as u32));
            ticket = tickets.kept.len();
            tickets.kept.push(clone);
            owned.push(true);
            report.record(RepairRule::TicketCloned, 1);
        } else {
            owned[ticket] = true;
        }
        out.push(RecEvent {
            machine,
            incident_old,
            incident: IncidentId::new(0),
            ticket,
            at,
            true_class: ev.true_class(),
            reported_class: ev.reported_class(),
            repair,
        });
    }
    out
}

/// Prunes dangling incident members, unions in the machines of surviving
/// events, recomputes incident times, quarantines empty incidents, and
/// rewrites event incident references onto the dense sequence.
fn recover_incidents(
    parts: &RawDatasetParts,
    remap: &MachineRemap,
    events: &mut [RecEvent],
    report: &mut DegradationReport,
) -> Vec<(FailureClass, SimTime, Vec<MachineId>)> {
    let mut event_members: BTreeMap<usize, BTreeSet<MachineId>> = BTreeMap::new();
    let mut first_event_at: BTreeMap<usize, SimTime> = BTreeMap::new();
    for e in events.iter() {
        event_members
            .entry(e.incident_old)
            .or_default()
            .insert(e.machine);
        first_event_at
            .entry(e.incident_old)
            .and_modify(|t| *t = (*t).min(e.at))
            .or_insert(e.at);
    }

    let mut inc_map: Vec<Option<IncidentId>> = vec![None; parts.incidents.len()];
    let mut out: Vec<(FailureClass, SimTime, Vec<MachineId>)> = Vec::new();
    for (pos, inc) in parts.incidents.iter().enumerate() {
        // Original member order is preserved so that recovering an
        // already-clean dataset reproduces it exactly.
        let mut members: Vec<MachineId> = Vec::with_capacity(inc.machines().len());
        let mut pruned = 0usize;
        for m in inc.machines() {
            match remap.get(*m) {
                Some(mapped) => members.push(mapped),
                None => pruned += 1,
            }
        }
        report.record(RepairRule::IncidentMemberPruned, pruned);
        if let Some(extra) = event_members.get(&pos) {
            for &m in extra {
                if !members.contains(&m) {
                    members.push(m);
                }
            }
        }
        if members.is_empty() {
            report.record(RepairRule::IncidentQuarantined, 1);
            continue;
        }
        let mut at = inc.at();
        if let Some(&first) = first_event_at.get(&pos) {
            if first != at {
                at = first;
                report.record(RepairRule::IncidentTimeRecomputed, 1);
            }
        }
        inc_map[pos] = Some(IncidentId::new(out.len() as u32));
        out.push((inc.class(), at, members));
    }

    for e in events.iter_mut() {
        // Always resolves: the event's machine is a member of its incident,
        // so the incident cannot have been quarantined.
        if let Some(Some(id)) = inc_map.get(e.incident_old).copied() {
            e.incident = id;
        }
    }
    out
}

/// Restores chronological order, counting whether a re-sort was needed.
fn sort_events(events: &mut [RecEvent], report: &mut DegradationReport) {
    let key = |e: &RecEvent| (e.at, e.machine, e.incident);
    let sorted = events.windows(2).all(|w| key(&w[0]) <= key(&w[1]));
    if !sorted {
        events.sort_by_key(key);
        report.record(RepairRule::EventsResorted, 1);
    }
}

/// Resolves ticket incident references and rewrites every event-owned ticket
/// to agree with its event (machine, kind, incident, open/close window).
fn resync_tickets(
    tickets: &mut [Ticket],
    events: &[RecEvent],
    incidents: &[(FailureClass, SimTime, Vec<MachineId>)],
    report: &mut DegradationReport,
) {
    for t in tickets.iter_mut() {
        if t.incident()
            .is_some_and(|raw| raw.index() >= incidents.len())
        {
            *t = t.with_incident(None);
            report.record(RepairRule::TicketIncidentPruned, 1);
        }
    }
    for e in events {
        let t = &mut tickets[e.ticket];
        let closed = e.at + e.repair;
        let agrees = t.machine() == e.machine
            && t.is_crash()
            && t.incident() == Some(e.incident)
            && t.opened_at() == e.at
            && t.closed_at() == closed;
        if !agrees {
            *t = t
                .with_machine(e.machine)
                .with_kind(TicketKind::Crash)
                .with_incident(Some(e.incident))
                .with_window(e.at, closed);
            report.record(RepairRule::TicketResynced, 1);
        }
    }
}

/// Rebuilds the telemetry store with resolved machine keys, kind-consistent
/// series and sanitized on/off logs: one pass per family over the source,
/// then each kept series copied once, under its new id, into a fresh store.
fn recover_telemetry(
    parts: &RawDatasetParts,
    horizon: Horizon,
    machines: &[Machine],
    remap: &MachineRemap,
    report: &mut DegradationReport,
) -> Telemetry {
    let source = &parts.telemetry;
    let is_vm = |m: MachineId| machines.get(m.index()).is_some_and(Machine::is_vm);
    let num_weeks = horizon.num_weeks();
    let mut quarantined = 0;

    let mut usage = Vec::with_capacity(source.usage_series().len());
    for (machine, weeks) in source.usage_series() {
        let Some(mapped) = remap.get(machine) else {
            quarantined += 1;
            continue;
        };
        let weeks = if weeks.len() > num_weeks {
            report.record(RepairRule::UsageTruncated, 1);
            &weeks[..num_weeks]
        } else {
            weeks
        };
        if weeks.is_empty() {
            quarantined += 1;
            continue;
        }
        usage.push((mapped, weeks));
    }

    let mut onoff = Vec::with_capacity(source.onoff_logs().len());
    for (machine, log) in source.onoff_logs() {
        let window = log.window();
        let Some(mapped) = remap.get(machine).filter(|&m| is_vm(m)) else {
            quarantined += 1;
            continue;
        };
        if window.end() <= window.start() {
            quarantined += 1;
            continue;
        }
        let mut toggles: Vec<SimTime> = log
            .toggles()
            .iter()
            .copied()
            .filter(|&t| window.contains(t))
            .collect();
        toggles.sort_unstable();
        toggles.dedup();
        if toggles.as_slice() != log.toggles() {
            report.record(RepairRule::OnOffSanitized, 1);
        }
        onoff.push((mapped, OnOffLog::new(window, log.initial_on(), toggles)));
    }

    let mut consolidation = Vec::with_capacity(source.consolidation_series().len());
    for (machine, levels) in source.consolidation_series() {
        let Some(mapped) = remap.get(machine).filter(|&m| is_vm(m)) else {
            quarantined += 1;
            continue;
        };
        let zeros = levels.iter().filter(|&&l| l == 0).count();
        let levels = if zeros > 0 {
            report.record(RepairRule::ConsolidationClamped, zeros);
            Cow::Owned(levels.iter().map(|&l| l.max(1)).collect())
        } else {
            Cow::Borrowed(levels)
        };
        consolidation.push((mapped, levels));
    }

    report.record(RepairRule::TelemetryQuarantined, quarantined);
    report.telemetry_kept += usage.len() + onoff.len() + consolidation.len();
    // New ids follow the order of the source's machine records, so these
    // sorts only move anything when the source lists its machines out of id
    // order; every series then lands at the end of its family.
    usage.sort_unstable_by_key(|&(m, _)| m);
    onoff.sort_unstable_by_key(|&(m, _)| m);
    consolidation.sort_unstable_by_key(|(m, _)| *m);
    let mut out = Telemetry::new();
    let series = usage.iter().map(|&(m, weeks)| (m, weeks.len()));
    out.append_usage(series, |mut rest| {
        for (_, weeks) in &usage {
            let (head, tail) = rest.split_at_mut(weeks.len());
            head.copy_from_slice(weeks);
            rest = tail;
        }
    });
    for (m, log) in onoff {
        out.set_onoff(m, log);
    }
    for (m, levels) in consolidation {
        out.set_consolidation(m, levels);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm(id: u32) -> Machine {
        Machine::new_pm(
            MachineId::new(id),
            SubsystemId::new(0),
            PowerDomainId::new(0),
            ResourceCapacity::default(),
            None,
        )
    }

    fn ticket(id: u32, machine: u32) -> Ticket {
        Ticket::new(
            TicketId::new(id),
            MachineId::new(machine),
            TicketKind::NonCrash,
            None,
            SimTime::from_days(3),
            SimTime::from_days(4),
            TextId::new(0),
            TextId::new(1),
            None,
        )
    }

    /// Subsystem 0 with one box in power domain 0, and the two texts of
    /// `ticket`.
    fn parts_with(machines: Vec<Machine>) -> RawDatasetParts {
        let mut topology = Topology::new();
        topology.add_subsystem(SubsystemMeta::new(SubsystemId::new(0), "Sys I"));
        topology.add_box(HostBox::new(
            BoxId::new(0),
            SubsystemId::new(0),
            PowerDomainId::new(0),
            false,
        ));
        for m in &machines {
            if let Some(home) = m.host() {
                topology.place_vm(home, m.id());
            }
            topology.assign_power_domain(m.power_domain(), m.id());
        }
        let mut texts = TextTable::default();
        texts.push("disk space threshold warning");
        texts.push("cleaned old files");
        let mut parts = RawDatasetParts::default();
        parts.horizon = Horizon::observation_year();
        parts.machines = machines;
        parts.topology = topology;
        parts.texts = Arc::new(texts);
        parts
    }

    #[test]
    fn recovery_keeps_the_initial_power_state() {
        let vm = Machine::new_vm(
            MachineId::new(1),
            SubsystemId::new(0),
            PowerDomainId::new(0),
            ResourceCapacity::default(),
            None,
            BoxId::new(0),
        );
        let mut parts = parts_with(vec![pm(0), vm]);
        // The toggle falls before any fixed "earlier than every toggle"
        // probe instant, so only the stored flag gives the initial state.
        let window = Horizon::new(SimTime::from_minutes(i64::MIN / 2), SimTime::ZERO);
        let log = OnOffLog::new(window, true, vec![window.start() + MINUTE * 15]);
        parts.telemetry.set_onoff(MachineId::new(1), log.clone());

        let recovered = recover_raw(&parts).unwrap();
        let got = recovered.dataset.telemetry().onoff(MachineId::new(1));
        assert!(got.unwrap().is_on_at(window.start()));
        assert_eq!(got, Some(log.view()));
        assert!(recovered.report.is_empty(), "{}", recovered.report);
    }

    #[test]
    fn remap_is_dense_below_the_machine_count_and_sparse_above() {
        let mut remap = MachineRemap::new(2);
        remap.insert(MachineId::new(1), MachineId::new(0));
        remap.insert(MachineId::new(u32::MAX), MachineId::new(1));
        assert_eq!(remap.get(MachineId::new(1)), Some(MachineId::new(0)));
        assert_eq!(remap.get(MachineId::new(u32::MAX)), Some(MachineId::new(1)));
        assert_eq!(remap.get(MachineId::new(0)), None);
        assert_eq!(remap.get(MachineId::new(7)), None);
        assert_eq!((remap.dense.len(), remap.sparse.len()), (2, 1));
    }

    #[test]
    fn out_of_range_ids_are_remapped_and_text_is_shared() {
        let huge = 4_000_000_000;
        let mut parts = parts_with(vec![pm(2), pm(2), pm(huge)]);
        // The table holds texts 0 and 1 only.
        let dangling_text = Ticket::new(
            TicketId::new(3),
            MachineId::new(2),
            TicketKind::NonCrash,
            None,
            SimTime::from_days(3),
            SimTime::from_days(4),
            TextId::new(0),
            TextId::new(2),
            None,
        );
        parts.tickets = vec![ticket(0, huge), ticket(1, 7), ticket(2, 2), dangling_text];

        let recovered = recover_raw(&parts).unwrap();
        let report = &recovered.report;
        assert_eq!(report.count(RepairRule::MachineDuplicateDropped), 1);
        assert_eq!(report.count(RepairRule::MachineReindexed), 2);
        assert_eq!(report.count(RepairRule::TicketQuarantined), 2);
        let tickets = recovered.dataset.tickets();
        assert_eq!(tickets.len(), 2);
        assert_eq!(tickets[0].machine(), MachineId::new(1));
        assert_eq!(tickets[1].machine(), MachineId::new(0));
        assert_eq!(tickets[1].id(), TicketId::new(1));
        // Recovery hands the source's text table on instead of copying it.
        assert!(Arc::ptr_eq(recovered.dataset.texts(), &parts.texts));
        assert_eq!(tickets[0].description(), parts.tickets[0].description());
    }

    #[test]
    fn kept_positions_skip_quarantined_tickets() {
        let tickets = KeptTickets {
            kept: Vec::new(),
            raw_len: 6,
            dropped: vec![1, 4],
            clamped: Vec::new(),
        };
        let got: Vec<Option<usize>> = (0..7).map(|raw| tickets.position(raw)).collect();
        assert_eq!(got, [Some(0), None, Some(1), Some(2), None, Some(3), None]);
    }

    fn sample_report() -> DegradationReport {
        let mut report = DegradationReport::default();
        assert!(report.is_empty());
        report.record(RepairRule::CsvRowSkipped, 2);
        report.record(RepairRule::HorizonRebuilt, 1);
        report.record(RepairRule::CsvRowSkipped, 3);
        report.record(RepairRule::EventDeduped, 0);
        report
    }

    #[test]
    fn record_merges_counts_in_catalog_order() {
        let report = sample_report();
        let rules: Vec<(RepairRule, usize)> = report
            .actions
            .iter()
            .map(|rc| (rc.rule, rc.count))
            .collect();
        assert_eq!(
            rules,
            [
                (RepairRule::HorizonRebuilt, 1),
                (RepairRule::CsvRowSkipped, 5)
            ]
        );
        assert_eq!(
            report.count(RepairRule::EventDeduped),
            0,
            "a zero is not recorded"
        );
        assert_eq!(
            (report.records_repaired(), report.records_dropped()),
            (1, 5)
        );
        assert!(!report.is_empty());
    }

    #[test]
    fn text_gives_each_rule_its_verb() {
        let text = sample_report().render_text();
        let mut lines = text.lines();
        assert!(lines
            .next()
            .unwrap()
            .starts_with("recovery: 1 repaired, 5 dropped (events 0/0,"));
        assert_eq!(lines.next(), Some("       1  repaired  horizon-rebuilt"));
        assert_eq!(lines.next(), Some("       5  dropped  csv-row-skipped"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn repair_rule_codes_are_unique_and_round_trip() {
        let codes: BTreeSet<&str> = RepairRule::ALL.iter().map(|r| r.code()).collect();
        assert_eq!(codes.len(), RepairRule::ALL.len());
        for rule in RepairRule::ALL {
            let back = RepairRule::from_value(&rule.to_value()).unwrap();
            assert_eq!(back, rule);
            assert_eq!(rule.to_string(), rule.code());
        }
        let unknown = RepairRule::from_value(&serde::Value::Str("nope".into())).unwrap_err();
        assert!(unknown.to_string().contains("unknown repair rule 'nope'"));
        assert!(RepairRule::from_value(&serde::Value::Bool(true)).is_err());
        let json = serde_json::to_string(&sample_report()).unwrap();
        assert_eq!(
            serde_json::from_str::<DegradationReport>(&json).unwrap(),
            sample_report()
        );
    }

    /// Telemetry recovery as it was before the flat store: each kept series
    /// copied into a vector of its own, then set. The oracle of
    /// [`recover_telemetry`].
    fn recover_telemetry_by_copy(
        parts: &RawDatasetParts,
        horizon: Horizon,
        machines: &[Machine],
        remap: &MachineRemap,
        report: &mut DegradationReport,
    ) -> Telemetry {
        let mut out = Telemetry::new();
        let is_vm = |m: MachineId| machines.get(m.index()).is_some_and(Machine::is_vm);
        let num_weeks = horizon.num_weeks();
        for (machine, weeks) in parts.telemetry.usage_series() {
            let Some(mapped) = remap.get(machine) else {
                report.record(RepairRule::TelemetryQuarantined, 1);
                continue;
            };
            let mut weeks = weeks.to_vec();
            if weeks.len() > num_weeks {
                weeks.truncate(num_weeks);
                report.record(RepairRule::UsageTruncated, 1);
            }
            if weeks.is_empty() {
                report.record(RepairRule::TelemetryQuarantined, 1);
                continue;
            }
            out.set_usage(mapped, weeks);
            report.telemetry_kept += 1;
        }
        for (machine, log) in parts.telemetry.onoff_logs() {
            let Some(mapped) = remap.get(machine) else {
                report.record(RepairRule::TelemetryQuarantined, 1);
                continue;
            };
            let window = log.window();
            if !is_vm(mapped) || window.end() <= window.start() {
                report.record(RepairRule::TelemetryQuarantined, 1);
                continue;
            }
            let mut toggles: Vec<SimTime> = log
                .toggles()
                .iter()
                .copied()
                .filter(|&t| window.contains(t))
                .collect();
            toggles.sort_unstable();
            toggles.dedup();
            if toggles.as_slice() != log.toggles() {
                report.record(RepairRule::OnOffSanitized, 1);
            }
            out.set_onoff(mapped, OnOffLog::new(window, log.initial_on(), toggles));
            report.telemetry_kept += 1;
        }
        for (machine, levels) in parts.telemetry.consolidation_series() {
            let Some(mapped) = remap.get(machine) else {
                report.record(RepairRule::TelemetryQuarantined, 1);
                continue;
            };
            if !is_vm(mapped) {
                report.record(RepairRule::TelemetryQuarantined, 1);
                continue;
            }
            let mut levels = levels.to_vec();
            let zeros = levels.iter().filter(|&&l| l == 0).count();
            if zeros > 0 {
                for level in &mut levels {
                    if *level == 0 {
                        *level = 1;
                    }
                }
                report.record(RepairRule::ConsolidationClamped, zeros);
            }
            out.set_consolidation(mapped, levels);
            report.telemetry_kept += 1;
        }
        out
    }

    use serde::{Number, Value};

    /// A small deterministic stream of test inputs (a 64-bit LCG).
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }
    }

    /// Raw parts whose machine records come out of id order, repeat and
    /// skip ids, and whose telemetry is keyed to known and unknown ids (up
    /// to `u32::MAX`), to PMs and VMs, with usage too long or empty,
    /// toggles unsorted, repeated or outside a window that may be reversed,
    /// and zero consolidation levels.
    fn hostile_parts(draws: &mut Draws) -> RawDatasetParts {
        let n = 1 + draws.below(10) as u32;
        let mut ids: Vec<u32> = (0..n).map(|i| i + u32::from(draws.below(4) == 0)).collect();
        for i in (1..ids.len()).rev() {
            if draws.below(3) == 0 {
                ids.swap(i, draws.below(i as u64 + 1) as usize);
            }
        }
        let machines = ids
            .iter()
            .map(|&id| match draws.below(2) {
                0 => pm(id),
                _ => Machine::new_vm(
                    MachineId::new(id),
                    SubsystemId::new(0),
                    PowerDomainId::new(0),
                    ResourceCapacity::default(),
                    None,
                    BoxId::new(0),
                ),
            })
            .collect();
        let mut parts = parts_with(machines);
        let key = |draws: &mut Draws| {
            MachineId::new(match draws.below(5) {
                0 => u32::MAX - draws.below(3) as u32,
                1 => n + 1 + draws.below(4) as u32,
                _ => draws.below(u64::from(n) + 1) as u32,
            })
        };
        let t = &mut parts.telemetry;
        for _ in 0..draws.below(24) {
            let m = key(draws);
            match draws.below(3) {
                0 => {
                    let weeks = draws.below(60) as usize;
                    t.set_usage(m, vec![WeeklyUsage::new(5.0, 6.0, 7.0, 8.0); weeks]);
                }
                1 => {
                    let (a, b) = (draws.below(400) as i64, draws.below(400) as i64);
                    let minutes =
                        |d: i64| Value::Num(Number::I(SimTime::from_days(d).as_minutes()));
                    let toggles = (0..draws.below(6))
                        .map(|_| minutes(a.min(b) - 2 + draws.below(60) as i64))
                        .collect();
                    let log = Value::Object(vec![
                        (
                            "window".into(),
                            Value::Object(vec![
                                ("start".into(), minutes(a)),
                                ("end".into(), minutes(b)),
                            ]),
                        ),
                        ("initial_on".into(), Value::Bool(draws.below(2) == 0)),
                        ("toggles".into(), Value::Array(toggles)),
                    ]);
                    t.set_onoff(m, OnOffLog::from_value(&log).unwrap());
                }
                _ => {
                    let levels: Vec<u16> = (0..draws.below(14))
                        .map(|_| draws.below(4) as u16)
                        .collect();
                    t.set_consolidation(m, levels);
                }
            }
        }
        parts
    }

    #[test]
    fn recovery_keeps_what_a_copy_per_series_keeps() {
        let mut draws = Draws(17);
        let mut fired = BTreeSet::new();
        for case in 0..400 {
            let parts = hostile_parts(&mut draws);
            let mut report = DegradationReport::default();
            let (machines, remap) = recover_machines(&parts, &mut report);
            let mut expected = report.clone();
            let got = recover_telemetry(&parts, parts.horizon, &machines, &remap, &mut report);
            let want =
                recover_telemetry_by_copy(&parts, parts.horizon, &machines, &remap, &mut expected);
            assert_eq!(got, want, "case {case}");
            assert_eq!(report, expected, "case {case}");
            let recovered = recover_raw(&parts).unwrap();
            assert_eq!(recovered.dataset.telemetry(), &want, "case {case}");
            fired.extend(report.actions.iter().map(|rc| rc.rule));
        }
        // The draws reach every telemetry rule and a reordering remap.
        for rule in [
            RepairRule::TelemetryQuarantined,
            RepairRule::UsageTruncated,
            RepairRule::OnOffSanitized,
            RepairRule::ConsolidationClamped,
            RepairRule::MachineReindexed,
            RepairRule::MachineDuplicateDropped,
        ] {
            assert!(fired.contains(&rule), "{rule:?} never fired");
        }
    }

    #[test]
    fn a_series_keyed_to_u32_max_parses_audits_and_is_quarantined() {
        let mut parts = parts_with(vec![pm(0)]);
        parts
            .telemetry
            .set_usage(MachineId::new(0), vec![WeeklyUsage::default(); 3]);
        let json = serde_json::to_string(&parts)
            .unwrap()
            .replace("\"usage\":{\"0\":", "\"usage\":{\"4294967295\":");
        assert!(json.contains("\"4294967295\":[{"), "{json}");
        let parts: RawDatasetParts = serde_json::from_str(&json).unwrap();
        let report = crate::audit_raw(&parts);
        assert!(
            report
                .find(crate::RuleId::TelemetryMachineDangling)
                .is_some(),
            "{report}"
        );
        let recovered = recover_raw(&parts).unwrap();
        assert_eq!(recovered.report.count(RepairRule::TelemetryQuarantined), 1);
        assert_eq!(recovered.report.records_dropped(), 1);
        assert_eq!(recovered.dataset.telemetry().usage_series().len(), 0);
    }
}
