//! The assembled study input: machines, topology, incidents, tickets, crash
//! events and telemetry over one observation window.

use crate::failure::{FailureEvent, Incident};
use crate::ids::{IncidentId, MachineId, SubsystemId, TextId, TicketId};
use crate::machine::{Machine, MachineKind};
use crate::spare::Spares;
use crate::telemetry::Telemetry;
use crate::ticket::{TextTable, Ticket};
use crate::time::{Horizon, SimTime};
use crate::topology::Topology;
use serde::__private::{as_object, field};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Builds a CSR (offsets + indices) mapping from a key space of size `n`
/// to the positions that carry each key, preserving position order within
/// a key. Two passes: count, prefix-sum, fill.
fn csr_index(n: usize, keys: impl Iterator<Item = usize> + Clone) -> (Vec<usize>, Vec<usize>) {
    let mut offsets = vec![0usize; n + 1];
    for k in keys.clone() {
        offsets[k + 1] += 1;
    }
    for i in 1..=n {
        offsets[i] += offsets[i - 1];
    }
    let mut index = vec![0usize; offsets[n]];
    let mut cursor = offsets.clone();
    for (pos, k) in keys.enumerate() {
        index[cursor[k]] = pos;
        cursor[k] += 1;
    }
    (offsets, index)
}

/// One row of a CSR index; out-of-range rows are empty.
fn csr_row<'a>(offsets: &[usize], index: &'a [usize], row: usize) -> &'a [usize] {
    if row + 1 >= offsets.len() {
        return &[];
    }
    &index[offsets[row]..offsets[row + 1]]
}

/// A complete failure study dataset: its [`RawDatasetParts`], validated,
/// plus the event indexes derived from them.
///
/// This is the single input type of every analysis in `dcfail-core`. It can
/// be produced by the simulator (`dcfail-synth`), converted from filled-in
/// parts with `FailureDataset::try_from`, or round-tripped through JSON so
/// that analyses are re-runnable on saved traces — mirroring the paper's
/// practice of mining several persistent databases.
///
/// Two datasets are equal when they say the same: ticket text compares as
/// strings, not as [`TextId`]s, so a dataset whose table still holds texts
/// no ticket uses equals its JSON reload, which keeps only used texts.
#[derive(Debug, Clone, Deserialize)]
#[serde(try_from = "RawDatasetParts")]
pub struct FailureDataset {
    /// The record, validated, its events sorted by `(at, machine, incident)`.
    parts: RawDatasetParts,
    /// CSR per-machine event index (derived): machine `i`'s events are
    /// `event_index[event_offsets[i]..event_offsets[i + 1]]`, in time order.
    /// Dense offsets beat a map of vectors: one allocation each, built in
    /// two passes at dataset construction, and every per-machine analysis
    /// (`interfailure`, `recurrence`, `repair`, `spatial`) reads it instead
    /// of re-scanning `events`.
    event_offsets: Vec<usize>,
    event_index: Vec<usize>,
    /// CSR per-incident event index (derived), same layout keyed by
    /// [`IncidentId`].
    incident_offsets: Vec<usize>,
    incident_index: Vec<usize>,
}

/// The record of a failure study — machines, topology, incidents, tickets,
/// crash events and telemetry over one observation window — as written,
/// without validation, canonicalization or the derived indexes.
///
/// A [`FailureDataset`] is these parts, validated. To assemble one, fill in
/// the fields and convert with `FailureDataset::try_from`, which *rejects*
/// structurally broken parts with a typed [`DatasetError`]: the right
/// behavior for analyses, but useless for diagnosis. The parts themselves
/// keep whatever a file says — unsorted events, dangling ids, reversed
/// windows — so `dcfail-audit` can evaluate its full rule catalog against
/// the input as written, name every defect at once, and convert a clean
/// trace without parsing it again.
///
/// The JSON is [`FailureDataset`]'s: each ticket carries its text inline,
/// and reading interns equal texts to one [`TextId`]. A ticket whose id is
/// past [`texts`](Self::texts) writes `null` text, which no reader accepts.
/// Equality compares ticket text as strings, as for [`FailureDataset`].
#[derive(Debug, Clone, Default)]
pub struct RawDatasetParts {
    /// Observation window.
    pub horizon: Horizon,
    /// Machine records, nominally dense by id.
    pub machines: Vec<Machine>,
    /// Datacenter topology.
    pub topology: Topology,
    /// Incident records, nominally dense by id.
    pub incidents: Vec<Incident>,
    /// Ticket records, nominally dense by id.
    pub tickets: Vec<Ticket>,
    /// The text table ticket text ids point into, each distinct text once,
    /// nominally covering every ticket's ids. Shared, not copied, by a
    /// dataset's clones and the parts copied from it.
    pub texts: Arc<TextTable>,
    /// Crash events, nominally sorted by `(at, machine, incident)`.
    pub events: Vec<FailureEvent>,
    /// Telemetry store.
    pub telemetry: Telemetry,
}

/// Why a deserialized or assembled dataset was rejected.
///
/// [`FailureDataset`]'s serde path canonicalizes event order but *rejects*
/// structurally broken input: dangling cross-references, events outside the
/// observation window, reversed repair windows, broken on/off logs. This is
/// the typed error that rejection produces; `dcfail-audit` reports the same
/// defects (and more) as structured diagnostics without rejecting.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DatasetError {
    /// The observation window is empty or reversed (`end <= start`).
    EmptyHorizon,
    /// Machine records are not dense `0..n` by id.
    NonDenseMachineIds {
        /// Position in the machine list where density breaks.
        index: usize,
    },
    /// Incident records are not dense `0..n` by id.
    NonDenseIncidentIds {
        /// Position in the incident list where density breaks.
        index: usize,
    },
    /// Ticket records are not dense `0..n` by id.
    NonDenseTicketIds {
        /// Position in the ticket list where density breaks.
        index: usize,
    },
    /// A machine references a subsystem the topology does not define.
    UnknownSubsystem {
        /// The referencing machine.
        machine: MachineId,
        /// The unresolved subsystem id.
        subsystem: SubsystemId,
    },
    /// An incident affects no machines.
    EmptyIncident {
        /// The offending incident.
        incident: IncidentId,
    },
    /// An incident member references an unknown machine.
    UnknownIncidentMember {
        /// The referencing incident.
        incident: IncidentId,
        /// The unresolved machine id.
        machine: MachineId,
    },
    /// A ticket references an unknown machine.
    UnknownTicketMachine {
        /// The referencing ticket.
        ticket: TicketId,
        /// The unresolved machine id.
        machine: MachineId,
    },
    /// A ticket closes before it opens.
    ReversedTicketWindow {
        /// The offending ticket.
        ticket: TicketId,
    },
    /// A ticket's description or resolution id is past the text table.
    UnknownTicketText {
        /// The referencing ticket.
        ticket: TicketId,
        /// The unresolved text id.
        text: TextId,
    },
    /// An event references an unknown machine.
    UnknownEventMachine {
        /// The unresolved machine id.
        machine: MachineId,
    },
    /// An event references an unknown incident.
    UnknownEventIncident {
        /// The unresolved incident id.
        incident: IncidentId,
    },
    /// An event references an unknown ticket.
    UnknownEventTicket {
        /// The unresolved ticket id.
        ticket: TicketId,
    },
    /// An event lies outside the observation window.
    EventOutsideHorizon {
        /// The failed machine.
        machine: MachineId,
        /// The out-of-window failure instant.
        at: SimTime,
    },
    /// An event carries a negative repair duration.
    NegativeRepair {
        /// The failed machine.
        machine: MachineId,
        /// The failure instant.
        at: SimTime,
    },
    /// A usage, on/off or consolidation series is keyed to an unknown
    /// machine.
    UnknownTelemetryMachine {
        /// The unresolved machine id.
        machine: MachineId,
    },
    /// An on/off log's toggles are unsorted or fall outside its window.
    InvalidOnOffToggles {
        /// The logged machine.
        machine: MachineId,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::EmptyHorizon => write!(f, "observation window is empty or reversed"),
            DatasetError::NonDenseMachineIds { index } => {
                write!(f, "machine ids are not dense at position {index}")
            }
            DatasetError::NonDenseIncidentIds { index } => {
                write!(f, "incident ids are not dense at position {index}")
            }
            DatasetError::NonDenseTicketIds { index } => {
                write!(f, "ticket ids are not dense at position {index}")
            }
            DatasetError::UnknownSubsystem { machine, subsystem } => {
                write!(
                    f,
                    "machine {machine} references unknown subsystem {subsystem}"
                )
            }
            DatasetError::EmptyIncident { incident } => {
                write!(f, "incident {incident} affects no machines")
            }
            DatasetError::UnknownIncidentMember { incident, machine } => {
                write!(
                    f,
                    "incident {incident} references unknown machine {machine}"
                )
            }
            DatasetError::UnknownTicketMachine { ticket, machine } => {
                write!(f, "ticket {ticket} references unknown machine {machine}")
            }
            DatasetError::ReversedTicketWindow { ticket } => {
                write!(f, "ticket {ticket} closes before it opens")
            }
            DatasetError::UnknownTicketText { ticket, text } => {
                write!(f, "ticket {ticket} references unknown text {text}")
            }
            DatasetError::UnknownEventMachine { machine } => {
                write!(f, "event references unknown machine {machine}")
            }
            DatasetError::UnknownEventIncident { incident } => {
                write!(f, "event references unknown incident {incident}")
            }
            DatasetError::UnknownEventTicket { ticket } => {
                write!(f, "event references unknown ticket {ticket}")
            }
            DatasetError::EventOutsideHorizon { machine, at } => {
                write!(
                    f,
                    "event on {machine} at {at} lies outside the observation window"
                )
            }
            DatasetError::NegativeRepair { machine, at } => {
                write!(
                    f,
                    "event on {machine} at {at} has a negative repair duration"
                )
            }
            DatasetError::UnknownTelemetryMachine { machine } => {
                write!(f, "telemetry references unknown machine {machine}")
            }
            DatasetError::InvalidOnOffToggles { machine } => {
                write!(
                    f,
                    "on/off log of {machine} has unsorted or out-of-window toggles"
                )
            }
        }
    }
}

impl std::error::Error for DatasetError {}

impl RawDatasetParts {
    /// Checks the structural invariants every [`FailureDataset`] must hold.
    fn validate(&self) -> Result<(), DatasetError> {
        if self.horizon.end() <= self.horizon.start() {
            return Err(DatasetError::EmptyHorizon);
        }
        let num_machines = self.machines.len();
        let num_incidents = self.incidents.len();
        let num_tickets = self.tickets.len();
        let num_subsystems = self.topology.subsystems().len();
        for (i, m) in self.machines.iter().enumerate() {
            if m.id().index() != i {
                return Err(DatasetError::NonDenseMachineIds { index: i });
            }
            if m.subsystem().index() >= num_subsystems {
                return Err(DatasetError::UnknownSubsystem {
                    machine: m.id(),
                    subsystem: m.subsystem(),
                });
            }
        }
        for (i, inc) in self.incidents.iter().enumerate() {
            if inc.id().index() != i {
                return Err(DatasetError::NonDenseIncidentIds { index: i });
            }
            if inc.machines().is_empty() {
                return Err(DatasetError::EmptyIncident { incident: inc.id() });
            }
            if let Some(&m) = inc.machines().iter().find(|m| m.index() >= num_machines) {
                return Err(DatasetError::UnknownIncidentMember {
                    incident: inc.id(),
                    machine: m,
                });
            }
        }
        for (i, t) in self.tickets.iter().enumerate() {
            if t.id().index() != i {
                return Err(DatasetError::NonDenseTicketIds { index: i });
            }
            if t.machine().index() >= num_machines {
                return Err(DatasetError::UnknownTicketMachine {
                    ticket: t.id(),
                    machine: t.machine(),
                });
            }
            if t.closed_at() < t.opened_at() {
                return Err(DatasetError::ReversedTicketWindow { ticket: t.id() });
            }
            if let Some(text) = [t.description(), t.resolution()]
                .into_iter()
                .find(|&id| self.texts.get(id).is_none())
            {
                return Err(DatasetError::UnknownTicketText {
                    ticket: t.id(),
                    text,
                });
            }
        }
        for ev in &self.events {
            if ev.machine().index() >= num_machines {
                return Err(DatasetError::UnknownEventMachine {
                    machine: ev.machine(),
                });
            }
            if ev.incident().index() >= num_incidents {
                return Err(DatasetError::UnknownEventIncident {
                    incident: ev.incident(),
                });
            }
            if ev.ticket().index() >= num_tickets {
                return Err(DatasetError::UnknownEventTicket {
                    ticket: ev.ticket(),
                });
            }
            if !self.horizon.contains(ev.at()) {
                return Err(DatasetError::EventOutsideHorizon {
                    machine: ev.machine(),
                    at: ev.at(),
                });
            }
            if ev.repair().is_negative() {
                return Err(DatasetError::NegativeRepair {
                    machine: ev.machine(),
                    at: ev.at(),
                });
            }
        }
        let t = &self.telemetry;
        let mut telemetry_ids = (t.usage_series().map(|(m, _)| m))
            .chain(t.onoff_logs().map(|(m, _)| m))
            .chain(t.consolidation_series().map(|(m, _)| m));
        if let Some(machine) = telemetry_ids.find(|m| m.index() >= num_machines) {
            return Err(DatasetError::UnknownTelemetryMachine { machine });
        }
        if let Some((machine, _)) = t.onoff_logs().find(|(_, log)| !log.has_valid_toggles()) {
            return Err(DatasetError::InvalidOnOffToggles { machine });
        }
        Ok(())
    }
}

impl PartialEq for RawDatasetParts {
    /// Field-by-field equality, ticket text compared as strings.
    fn eq(&self, other: &Self) -> bool {
        self.horizon == other.horizon
            && self.machines == other.machines
            && self.topology == other.topology
            && self.incidents == other.incidents
            && self.tickets.len() == other.tickets.len()
            && self
                .tickets
                .iter()
                .zip(&other.tickets)
                .all(|(a, b)| a.says_same(&self.texts, b, &other.texts))
            && self.events == other.events
            && self.telemetry == other.telemetry
    }
}

impl PartialEq for FailureDataset {
    fn eq(&self, other: &Self) -> bool {
        self.parts == other.parts
    }
}

impl Serialize for RawDatasetParts {
    /// The JSON object, each ticket's text resolved inline; the table itself
    /// is never written.
    fn to_value(&self) -> Value {
        let entry = |key: &str, value: Value| (key.to_string(), value);
        let tickets = self.tickets.iter().map(|t| t.to_json(&self.texts));
        Value::Object(vec![
            entry("horizon", self.horizon.to_value()),
            entry("machines", self.machines.to_value()),
            entry("topology", self.topology.to_value()),
            entry("incidents", self.incidents.to_value()),
            entry("tickets", Value::Array(tickets.collect())),
            entry("events", self.events.to_value()),
            entry("telemetry", self.telemetry.to_value()),
        ])
    }
}

impl Serialize for FailureDataset {
    fn to_value(&self) -> Value {
        self.parts.to_value()
    }
}

impl Deserialize for RawDatasetParts {
    /// Reads the parts as written, interning ticket text in first-use order:
    /// each distinct string becomes one [`TextId`].
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        const TY: &str = "RawDatasetParts";
        // The derived impls' field reader, so errors read as they did.
        as_object(value, TY)?;
        let horizon = field(value, TY, "horizon")?;
        let machines = field(value, TY, "machines")?;
        let topology = field(value, TY, "topology")?;
        let incidents = field(value, TY, "incidents")?;
        let mut texts = TextTable::default();
        let mut interned: BTreeMap<&str, TextId> = BTreeMap::new();
        let mut intern = |text| *interned.entry(text).or_insert_with(|| texts.push(text));
        let invalid =
            |e: String| serde::Error::custom(format!("invalid field `{TY}.tickets`: {e}"));
        let tickets = match value.get("tickets") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|t| Ticket::from_json(t, &mut intern))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| invalid(e.to_string()))?,
            Some(other) => return Err(invalid(format!("expected array, found {}", other.kind()))),
            None => {
                return Err(serde::Error::custom(format!(
                    "missing field `tickets` in `{TY}`"
                )))
            }
        };
        Ok(Self {
            horizon,
            machines,
            topology,
            incidents,
            tickets,
            texts: Arc::new(texts),
            events: field(value, TY, "events")?,
            telemetry: field(value, TY, "telemetry")?,
        })
    }
}

impl TryFrom<RawDatasetParts> for FailureDataset {
    type Error = DatasetError;

    /// Validates the raw parts, then canonicalizes: events are sorted by
    /// `(at, machine, incident)` and the event indexes are built. The parts'
    /// vectors move into the dataset whole. Unsorted input is accepted (and
    /// sorted); structurally broken input — ids that are not dense, dangling
    /// references (telemetry keyed to an unknown machine among them),
    /// out-of-horizon events, reversed repair windows, on/off logs with
    /// unsorted or out-of-window toggles — is rejected with a typed error.
    fn try_from(mut parts: RawDatasetParts) -> Result<Self, DatasetError> {
        parts.validate()?;
        // Unstable is safe: an incident hits each machine at most once, so
        // (at, machine, incident) is unique per event and the order total.
        parts
            .events
            .sort_unstable_by_key(|e| (e.at(), e.machine(), e.incident()));
        let events = &parts.events;
        let (event_offsets, event_index) = csr_index(
            parts.machines.len(),
            events.iter().map(|e| e.machine().index()),
        );
        let (incident_offsets, incident_index) = csr_index(
            parts.incidents.len(),
            events.iter().map(|e| e.incident().index()),
        );
        Ok(FailureDataset {
            parts,
            event_offsets,
            event_index,
            incident_offsets,
            incident_index,
        })
    }
}

/// Emptied ticket vectors of dropped raw parts (see [`crate::spare`]). One
/// covers a pipeline, which copies its dataset into raw parts once.
static TICKET_SPARES: Spares<Ticket, 1> = Spares::new();

impl From<&FailureDataset> for RawDatasetParts {
    /// Copies the records; the ticket vector is one plain copy, into the
    /// spare vector of dropped parts when there is one, and the text table
    /// is shared, not copied.
    fn from(ds: &FailureDataset) -> Self {
        let parts = &ds.parts;
        let mut tickets = TICKET_SPARES.take();
        tickets.extend_from_slice(&parts.tickets);
        Self {
            horizon: parts.horizon,
            machines: parts.machines.clone(),
            topology: parts.topology.clone(),
            incidents: parts.incidents.clone(),
            tickets,
            texts: Arc::clone(&parts.texts),
            events: parts.events.clone(),
            telemetry: parts.telemetry.clone(),
        }
    }
}

impl Drop for RawDatasetParts {
    /// Keeps the ticket vector as a spare.
    fn drop(&mut self) {
        TICKET_SPARES.keep(std::mem::take(&mut self.tickets));
    }
}

impl Drop for FailureDataset {
    /// Frees the ticket vector before the parts' drop could keep it: only
    /// raw parts leave a spare, so the built and the recovered datasets
    /// each allocate their own (see `crate::spare`).
    fn drop(&mut self) {
        drop(std::mem::take(&mut self.parts.tickets));
    }
}

impl From<FailureDataset> for RawDatasetParts {
    fn from(mut ds: FailureDataset) -> Self {
        std::mem::take(&mut ds.parts)
    }
}

impl FailureDataset {
    /// The record: every field of the dataset but its derived indexes.
    pub fn parts(&self) -> &RawDatasetParts {
        &self.parts
    }

    /// Observation window.
    pub fn horizon(&self) -> Horizon {
        self.parts.horizon
    }

    /// All machines, dense by [`MachineId`].
    pub fn machines(&self) -> &[Machine] {
        &self.parts.machines
    }

    /// Looks up a machine.
    pub fn machine(&self, id: MachineId) -> &Machine {
        &self.parts.machines[id.index()]
    }

    /// Machines of one kind.
    pub fn machines_of_kind(&self, kind: MachineKind) -> impl Iterator<Item = &Machine> {
        self.parts.machines.iter().filter(move |m| m.kind() == kind)
    }

    /// Number of machines of `kind` in `subsystem`.
    pub fn population(&self, kind: MachineKind, subsystem: Option<SubsystemId>) -> usize {
        self.parts
            .machines
            .iter()
            .filter(|m| m.kind() == kind && subsystem.is_none_or(|s| m.subsystem() == s))
            .count()
    }

    /// Datacenter topology.
    pub fn topology(&self) -> &Topology {
        &self.parts.topology
    }

    /// All incidents, dense by [`IncidentId`].
    pub fn incidents(&self) -> &[Incident] {
        &self.parts.incidents
    }

    /// Looks up an incident.
    pub fn incident(&self, id: IncidentId) -> &Incident {
        &self.parts.incidents[id.index()]
    }

    /// All tickets (crash and non-crash), dense by [`TicketId`].
    pub fn tickets(&self) -> &[Ticket] {
        &self.parts.tickets
    }

    /// The ticket text table: [`TextTable::get`] reads a ticket's
    /// [`description`](Ticket::description) and
    /// [`resolution`](Ticket::resolution), and resolves every ticket's ids.
    pub fn texts(&self) -> &Arc<TextTable> {
        &self.parts.texts
    }

    /// Looks up a ticket.
    pub fn ticket(&self, id: TicketId) -> &Ticket {
        &self.parts.tickets[id.index()]
    }

    /// All crash events, sorted by time.
    pub fn events(&self) -> &[FailureEvent] {
        &self.parts.events
    }

    /// Crash events of one machine, in time order. Unknown machine ids
    /// yield an empty iterator.
    pub fn events_for(&self, machine: MachineId) -> impl Iterator<Item = &FailureEvent> {
        csr_row(&self.event_offsets, &self.event_index, machine.index())
            .iter()
            .map(|&i| &self.parts.events[i])
    }

    /// Crash events of one incident, in time order. Unknown incident ids
    /// yield an empty iterator.
    pub fn events_for_incident(&self, incident: IncidentId) -> impl Iterator<Item = &FailureEvent> {
        csr_row(
            &self.incident_offsets,
            &self.incident_index,
            incident.index(),
        )
        .iter()
        .map(|&i| &self.parts.events[i])
    }

    /// Machines that failed at least once (ascending id), with their event
    /// count.
    pub fn failing_machines(&self) -> impl Iterator<Item = (MachineId, usize)> + '_ {
        self.event_offsets
            .windows(2)
            .enumerate()
            .filter_map(|(i, w)| {
                let count = w[1] - w[0];
                (count > 0).then(|| (self.parts.machines[i].id(), count))
            })
    }

    /// Telemetry store.
    pub fn telemetry(&self) -> &Telemetry {
        &self.parts.telemetry
    }

    /// Replaces every event's reported class using `f` (used after running a
    /// fresh classification pipeline over the tickets).
    pub fn relabel_events(
        &mut self,
        mut f: impl FnMut(&FailureEvent) -> crate::failure::FailureClass,
    ) {
        for ev in &mut self.parts.events {
            *ev = ev.with_reported_class(f(ev));
        }
    }

    /// Per-subsystem dataset statistics (the paper's Table II).
    pub fn subsystem_stats(&self) -> Vec<SubsystemStats> {
        let num_sys = self.parts.topology.subsystems().len();
        let mut stats: Vec<SubsystemStats> = (0..num_sys)
            .map(|i| SubsystemStats {
                subsystem: SubsystemId::new(i as u32),
                name: self.parts.topology.subsystems()[i].name().to_string(),
                pms: 0,
                vms: 0,
                all_tickets: 0,
                crash_tickets: 0,
                crash_tickets_pm: 0,
                crash_tickets_vm: 0,
            })
            .collect();
        for m in &self.parts.machines {
            let s = &mut stats[m.subsystem().index()];
            match m.kind() {
                MachineKind::Pm => s.pms += 1,
                MachineKind::Vm => s.vms += 1,
            }
        }
        for t in &self.parts.tickets {
            let m = self.machine(t.machine());
            let s = &mut stats[m.subsystem().index()];
            s.all_tickets += 1;
            if t.is_crash() {
                s.crash_tickets += 1;
                match m.kind() {
                    MachineKind::Pm => s.crash_tickets_pm += 1,
                    MachineKind::Vm => s.crash_tickets_vm += 1,
                }
            }
        }
        stats
    }
}

/// Per-subsystem dataset statistics (one row of the paper's Table II).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubsystemStats {
    /// Subsystem id.
    pub subsystem: SubsystemId,
    /// Subsystem name ("Sys I" ... "Sys V").
    pub name: String,
    /// Number of physical machines.
    pub pms: usize,
    /// Number of virtual machines.
    pub vms: usize,
    /// Total problem tickets (crash + non-crash).
    pub all_tickets: usize,
    /// Crash tickets.
    pub crash_tickets: usize,
    /// Crash tickets filed against PMs.
    pub crash_tickets_pm: usize,
    /// Crash tickets filed against VMs.
    pub crash_tickets_vm: usize,
}

impl SubsystemStats {
    /// Crash tickets as a share of all tickets, in percent.
    pub fn crash_pct(&self) -> f64 {
        if self.all_tickets == 0 {
            0.0
        } else {
            100.0 * self.crash_tickets as f64 / self.all_tickets as f64
        }
    }

    /// PM share of crash tickets, in percent.
    pub fn crash_pm_pct(&self) -> f64 {
        if self.crash_tickets == 0 {
            0.0
        } else {
            100.0 * self.crash_tickets_pm as f64 / self.crash_tickets as f64
        }
    }

    /// VM share of crash tickets, in percent.
    pub fn crash_vm_pct(&self) -> f64 {
        if self.crash_tickets == 0 {
            0.0
        } else {
            100.0 * self.crash_tickets_vm as f64 / self.crash_tickets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureClass;
    use crate::ids::PowerDomainId;
    use crate::machine::ResourceCapacity;
    use crate::telemetry::OnOffLog;
    use crate::time::{SimDuration, SimTime, HOUR};
    use crate::topology::SubsystemMeta;

    fn tiny_dataset() -> FailureDataset {
        FailureDataset::try_from(tiny_parts()).unwrap()
    }

    /// One PM, Sys I's only machine, with two incidents of one event each,
    /// the second earlier than the first, and their two crash tickets.
    fn tiny_parts() -> RawDatasetParts {
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
        parts.incidents = vec![
            Incident::new(
                IncidentId::new(0),
                FailureClass::Software,
                SimTime::from_days(5),
                vec![MachineId::new(0)],
            ),
            Incident::new(
                IncidentId::new(1),
                FailureClass::Reboot,
                SimTime::from_days(2),
                vec![MachineId::new(0)],
            ),
        ];
        parts.events = vec![
            FailureEvent::new(
                MachineId::new(0),
                IncidentId::new(0),
                TicketId::new(0),
                SimTime::from_days(5),
                FailureClass::Software,
                FailureClass::Software,
                HOUR * 3,
            ),
            // Out-of-order second event to exercise sorting.
            FailureEvent::new(
                MachineId::new(0),
                IncidentId::new(1),
                TicketId::new(1),
                SimTime::from_days(2),
                FailureClass::Reboot,
                FailureClass::Reboot,
                HOUR,
            ),
        ];
        let (texts, tickets) = tiny_tickets();
        parts.texts = Arc::new(texts);
        parts.tickets = tickets;
        parts
    }

    /// The two crash tickets of `tiny_parts`'s incidents, with a table
    /// that also holds one text no ticket uses.
    fn tiny_tickets() -> (TextTable, Vec<Ticket>) {
        let mut texts = TextTable::default();
        let hang = texts.push("service hang");
        let restarted = texts.push("restarted agent");
        texts.push("never referenced");
        let reboot = texts.push("unexpected reboot");
        let back = texts.push("came back on its own");
        let ticket = |id, day, hours, (d, r), class| {
            Ticket::new(
                TicketId::new(id),
                MachineId::new(0),
                crate::ticket::TicketKind::Crash,
                Some(IncidentId::new(id)),
                SimTime::from_days(day),
                SimTime::from_days(day) + HOUR * hours,
                d,
                r,
                Some(class),
            )
        };
        let tickets = vec![
            ticket(0, 5, 3, (hang, restarted), FailureClass::Software),
            ticket(1, 2, 1, (reboot, back), FailureClass::Reboot),
        ];
        (texts, tickets)
    }

    #[test]
    fn events_are_sorted_and_indexed() {
        let ds = tiny_dataset();
        assert_eq!(ds.events().len(), 2);
        assert!(ds.events()[0].at() < ds.events()[1].at());
        let per_machine: Vec<_> = ds.events_for(MachineId::new(0)).collect();
        assert_eq!(per_machine.len(), 2);
        assert_eq!(per_machine[0].true_class(), FailureClass::Reboot);
        let failing: Vec<_> = ds.failing_machines().collect();
        assert_eq!(failing, vec![(MachineId::new(0), 2)]);
    }

    #[test]
    fn incident_index_and_unknown_ids() {
        let ds = tiny_dataset();
        let evs: Vec<_> = ds.events_for_incident(IncidentId::new(0)).collect();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].true_class(), FailureClass::Software);
        assert_eq!(ds.events_for_incident(IncidentId::new(1)).count(), 1);
        assert_eq!(ds.events_for(MachineId::new(42)).count(), 0);
        assert_eq!(ds.events_for_incident(IncidentId::new(42)).count(), 0);
    }

    #[test]
    fn population_counts() {
        let ds = tiny_dataset();
        assert_eq!(ds.population(MachineKind::Pm, None), 1);
        assert_eq!(ds.population(MachineKind::Vm, None), 0);
        assert_eq!(ds.population(MachineKind::Pm, Some(SubsystemId::new(0))), 1);
        assert_eq!(ds.machines_of_kind(MachineKind::Pm).count(), 1);
    }

    #[test]
    fn subsystem_stats_table() {
        let ds = tiny_dataset();
        let stats = ds.subsystem_stats();
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert_eq!(s.name, "Sys I");
        assert_eq!(s.pms, 1);
        assert_eq!(s.all_tickets, 2);
        assert_eq!(s.crash_tickets, 2);
        assert_eq!(s.crash_pct(), 100.0);
        assert_eq!(s.crash_pm_pct(), 100.0);
        assert_eq!(s.crash_vm_pct(), 0.0);
    }

    #[test]
    fn serde_roundtrip_rebuilds_index() {
        let ds = tiny_dataset();
        let json = serde_json::to_string(&ds).unwrap();
        let back: FailureDataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ds);
        assert_eq!(back.events_for(MachineId::new(0)).count(), 2);
    }

    #[test]
    fn json_carries_text_inline_and_reload_compacts_the_table() {
        let ds = tiny_dataset();
        let json = serde_json::to_string(&ds).unwrap();
        assert!(
            json.contains("\"description\":\"service hang\",\"resolution\":\"restarted agent\"")
        );
        assert!(!json.contains("never referenced") && !json.contains("texts"));
        let back: FailureDataset = serde_json::from_str(&json).unwrap();
        // The reload keeps only used texts, in first-use order, and still
        // equals the source: equality reads text, not ids.
        assert_eq!((ds.texts().len(), back.texts().len()), (5, 4));
        assert_ne!(
            back.tickets()[1].description(),
            ds.tickets()[1].description()
        );
        assert_eq!(back, ds);
        let t = &back.tickets()[1];
        assert_eq!(back.texts().get(t.description()), Some("unexpected reboot"));
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // Tickets that say something else are not equal.
        let (mut texts, mut tickets) = tiny_tickets();
        let other = texts.push("unexpected reboot again");
        tickets[1] = Ticket::new(
            TicketId::new(1),
            MachineId::new(0),
            crate::ticket::TicketKind::Crash,
            Some(IncidentId::new(1)),
            SimTime::from_days(2),
            SimTime::from_days(2) + HOUR,
            other,
            tickets[1].resolution(),
            Some(FailureClass::Reboot),
        );
        let mut parts = tiny_parts();
        parts.texts = Arc::new(texts);
        parts.tickets = tickets;
        assert_ne!(FailureDataset::try_from(parts).unwrap(), ds);
    }

    #[test]
    fn a_text_id_past_the_table_is_a_typed_error() {
        let (_, tickets) = tiny_tickets();
        let mut short = TextTable::default();
        short.push("service hang");
        short.push("restarted agent");
        let mut parts = tiny_parts();
        parts.texts = Arc::new(short);
        parts.tickets = tickets;
        let err = FailureDataset::try_from(parts).unwrap_err();
        assert_eq!(
            err,
            DatasetError::UnknownTicketText {
                ticket: TicketId::new(1),
                text: TextId::new(3),
            }
        );
        assert_eq!(err.to_string(), "ticket t1 references unknown text text3");
        // The raw parts keep it; writing them gives `null` text, which no
        // reader accepts.
        let mut parts = RawDatasetParts::from(tiny_dataset());
        parts.tickets[0] = tiny_tickets().1[0].with_id(TicketId::new(0));
        parts.texts = Arc::new(TextTable::default());
        assert_eq!(
            FailureDataset::try_from(parts.clone()).unwrap_err(),
            DatasetError::UnknownTicketText {
                ticket: TicketId::new(0),
                text: TextId::new(0),
            }
        );
        let json = serde_json::to_string(&parts).unwrap();
        assert!(json.contains("\"description\":null"), "{json}");
        let err = serde_json::from_str::<RawDatasetParts>(&json).unwrap_err();
        assert!(
            err.to_string()
                .contains("invalid field `RawDatasetParts.tickets`: invalid field `Ticket.description`: expected string, found null"),
            "{err}"
        );
    }

    #[test]
    fn relabel_events() {
        let mut ds = tiny_dataset();
        ds.relabel_events(|_| FailureClass::Other);
        assert!(ds
            .events()
            .iter()
            .all(|e| e.reported_class() == FailureClass::Other));
        // True classes untouched.
        assert!(ds
            .events()
            .iter()
            .any(|e| e.true_class() != FailureClass::Other));
    }

    #[test]
    fn serde_rejects_out_of_horizon_event() {
        let ds = tiny_dataset();
        let json = serde_json::to_string(&ds).unwrap();
        // Push one event timestamp past the horizon end (400 days).
        let bad = json.replace(
            &format!("\"at\":{}", SimTime::from_days(5).as_minutes()),
            &format!("\"at\":{}", SimTime::from_days(400).as_minutes()),
        );
        assert_ne!(bad, json);
        let err = serde_json::from_str::<FailureDataset>(&bad).unwrap_err();
        assert!(
            err.to_string().contains("outside the observation window"),
            "{err}"
        );
    }

    /// The JSON of a toggle list at the given days.
    fn toggles_json(days: &[i64]) -> String {
        let minutes: Vec<String> = days
            .iter()
            .map(|&d| SimTime::from_days(d).as_minutes().to_string())
            .collect();
        format!("\"toggles\":[{}]", minutes.join(","))
    }

    /// `tiny_dataset` plus an on/off log on m0 over days 0–56 that toggles
    /// at `days`, read through serde so that `OnOffLog::new` checks nothing.
    fn with_onoff_log(days: &[i64]) -> RawDatasetParts {
        let window = Horizon::new(SimTime::ZERO, SimTime::from_days(56));
        let json = serde_json::to_string(&OnOffLog::always_on(window))
            .unwrap()
            .replace(&toggles_json(&[]), &toggles_json(days));
        let mut parts = tiny_parts();
        parts
            .telemetry
            .set_onoff(MachineId::new(0), serde_json::from_str(&json).unwrap());
        parts
    }

    #[test]
    fn serde_rejects_reversed_onoff_toggles() {
        let ds = FailureDataset::try_from(with_onoff_log(&[10, 20])).unwrap();
        let json = serde_json::to_string(&ds).unwrap();
        let bad = json.replace(&toggles_json(&[10, 20]), &toggles_json(&[20, 10]));
        assert_ne!(bad, json);
        let err = serde_json::from_str::<FailureDataset>(&bad).unwrap_err();
        assert!(
            err.to_string().contains("unsorted or out-of-window"),
            "{err}"
        );
    }

    #[test]
    fn serde_rejects_out_of_window_onoff_toggle() {
        let ds = FailureDataset::try_from(with_onoff_log(&[10, 20])).unwrap();
        let json = serde_json::to_string(&ds).unwrap();
        // Day 100 lies inside the horizon but past the log's window.
        let bad = json.replace(&toggles_json(&[10, 20]), &toggles_json(&[10, 100]));
        assert_ne!(bad, json);
        let err = serde_json::from_str::<FailureDataset>(&bad).unwrap_err();
        assert!(
            err.to_string().contains("unsorted or out-of-window"),
            "{err}"
        );
        assert_eq!(
            FailureDataset::try_from(with_onoff_log(&[10, 100])).unwrap_err(),
            DatasetError::InvalidOnOffToggles {
                machine: MachineId::new(0)
            }
        );
    }

    #[test]
    fn telemetry_of_an_unknown_machine_is_a_typed_error() {
        let mut parts = RawDatasetParts::from(tiny_dataset());
        let weeks = [crate::telemetry::WeeklyUsage::default(); 2];
        parts.telemetry.set_usage(MachineId::new(0), weeks);
        assert!(FailureDataset::try_from(parts.clone()).is_ok());
        let mut usage = parts.clone();
        usage.telemetry.set_usage(MachineId::new(99), weeks);
        let mut levels = parts.clone();
        levels
            .telemetry
            .set_consolidation(MachineId::new(u32::MAX), [1]);
        let mut onoff = parts;
        let window = Horizon::new(SimTime::ZERO, SimTime::from_days(56));
        onoff
            .telemetry
            .set_onoff(MachineId::new(1), OnOffLog::always_on(window));
        for (parts, machine) in [(usage, 99), (levels, u32::MAX), (onoff, 1)] {
            let err = FailureDataset::try_from(parts).unwrap_err();
            let machine = MachineId::new(machine);
            assert_eq!(err, DatasetError::UnknownTelemetryMachine { machine });
            assert_eq!(
                err.to_string(),
                format!("telemetry references unknown machine {machine}")
            );
        }
        // Parts filled in afresh take the same path.
        let mut fresh = tiny_parts();
        fresh.telemetry.set_usage(MachineId::new(1), weeks);
        assert_eq!(
            FailureDataset::try_from(fresh).unwrap_err(),
            DatasetError::UnknownTelemetryMachine {
                machine: MachineId::new(1)
            }
        );
    }

    #[test]
    fn serde_rejects_dangling_event_machine() {
        let ds = tiny_dataset();
        let json = serde_json::to_string(&ds).unwrap();
        // The dataset has a single machine m0; retarget one event to m99.
        let bad = json.replace(
            "\"machine\":0,\"incident\":1",
            "\"machine\":99,\"incident\":1",
        );
        assert_ne!(bad, json);
        let err = serde_json::from_str::<FailureDataset>(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown machine"), "{err}");
    }

    #[test]
    fn serde_accepts_unsorted_events_and_canonicalizes() {
        // tiny_dataset adds its events out of order; serializing preserves
        // the canonical order, so swap them back to unsorted JSON manually.
        let ds = tiny_dataset();
        let json = serde_json::to_string(&ds).unwrap();
        let back: FailureDataset = serde_json::from_str(&json).unwrap();
        assert!(back.events()[0].at() < back.events()[1].at());
    }

    #[test]
    fn try_build_reports_typed_error() {
        let mut parts = RawDatasetParts::default();
        parts.incidents = vec![Incident::new(
            IncidentId::new(0),
            FailureClass::Hardware,
            SimTime::ZERO,
            vec![MachineId::new(7)],
        )];
        let err = FailureDataset::try_from(parts).unwrap_err();
        assert_eq!(
            err,
            DatasetError::UnknownIncidentMember {
                incident: IncidentId::new(0),
                machine: MachineId::new(7),
            }
        );
    }

    #[test]
    fn conversion_moves_the_parts_vectors() {
        let parts = tiny_parts();
        let machines = parts.machines.as_ptr();
        let tickets = parts.tickets.as_ptr();
        let events = parts.events.as_ptr();
        let ds = FailureDataset::try_from(parts).unwrap();
        assert_eq!(ds.machines().len(), 1);
        assert_eq!(ds.incidents().len(), 2);
        assert_eq!(ds.tickets().len(), 2);
        assert!(std::ptr::eq(ds.machines().as_ptr(), machines));
        assert!(std::ptr::eq(ds.tickets().as_ptr(), tickets));
        assert!(std::ptr::eq(ds.events().as_ptr(), events));
    }

    #[test]
    fn a_dangling_event_is_a_typed_error() {
        let mut parts = tiny_parts();
        let none = TextId::new(0);
        parts.incidents = vec![Incident::new(
            IncidentId::new(0),
            FailureClass::Hardware,
            SimTime::ZERO,
            vec![MachineId::new(0)],
        )];
        parts.tickets = vec![Ticket::new(
            TicketId::new(0),
            MachineId::new(0),
            crate::ticket::TicketKind::Crash,
            Some(IncidentId::new(0)),
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(1),
            none,
            none,
            None,
        )];
        parts.events = vec![FailureEvent::new(
            MachineId::new(7),
            IncidentId::new(0),
            TicketId::new(0),
            SimTime::ZERO,
            FailureClass::Hardware,
            FailureClass::Hardware,
            SimDuration::from_hours(1),
        )];
        let err = FailureDataset::try_from(parts).unwrap_err();
        let machine = MachineId::new(7);
        assert_eq!(err, DatasetError::UnknownEventMachine { machine });
        assert!(err.to_string().contains("unknown machine"), "{err}");
    }

    #[test]
    fn non_dense_ids_are_typed_errors() {
        let pm = |id| {
            Machine::new_pm(
                MachineId::new(id),
                SubsystemId::new(0),
                PowerDomainId::new(0),
                ResourceCapacity::default(),
                None,
            )
        };
        // Each family breaks at the reported position and nowhere before.
        let mut first_machine = tiny_parts();
        first_machine.machines[0] = pm(5);
        let mut second_machine = tiny_parts();
        second_machine.machines.push(pm(2));
        let mut incidents = tiny_parts();
        let twice = incidents.incidents[0].clone();
        incidents.incidents[1] = twice;
        let mut tickets = tiny_parts();
        tickets.tickets[1] = tickets.tickets[1].with_id(TicketId::new(3));
        for (parts, error, message) in [
            (
                first_machine,
                DatasetError::NonDenseMachineIds { index: 0 },
                "machine ids are not dense at position 0",
            ),
            (
                second_machine,
                DatasetError::NonDenseMachineIds { index: 1 },
                "machine ids are not dense at position 1",
            ),
            (
                incidents,
                DatasetError::NonDenseIncidentIds { index: 1 },
                "incident ids are not dense at position 1",
            ),
            (
                tickets,
                DatasetError::NonDenseTicketIds { index: 1 },
                "ticket ids are not dense at position 1",
            ),
        ] {
            let err = FailureDataset::try_from(parts).unwrap_err();
            assert_eq!(err, error);
            assert_eq!(err.to_string(), message);
        }
    }
}
