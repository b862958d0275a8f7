//! The assembled study input: machines, topology, incidents, tickets, crash
//! events and telemetry over one observation window.

use crate::failure::{FailureEvent, Incident};
use crate::ids::{IncidentId, MachineId, SubsystemId, TicketId};
use crate::machine::{Machine, MachineKind};
use crate::telemetry::Telemetry;
use crate::ticket::Ticket;
use crate::time::{Horizon, SimTime};
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::fmt;

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

/// A complete failure study dataset.
///
/// This is the single input type of every analysis in `dcfail-core`. It can
/// be produced by the simulator (`dcfail-synth`), assembled manually through
/// [`DatasetBuilder`], or round-tripped through JSON so that analyses are
/// re-runnable on saved traces — mirroring the paper's practice of mining
/// several persistent databases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "RawDatasetParts", into = "RawDatasetParts")]
pub struct FailureDataset {
    horizon: Horizon,
    machines: Vec<Machine>,
    topology: Topology,
    incidents: Vec<Incident>,
    tickets: Vec<Ticket>,
    /// Crash events sorted by `(at, machine)`.
    events: Vec<FailureEvent>,
    telemetry: Telemetry,
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

/// The parts of a [`FailureDataset`] as serialized, without validation,
/// canonicalization or the derived indexes.
///
/// `FailureDataset` (de)serializes through this mirror: its serde path
/// parses the parts, then *rejects* structurally broken input with a typed
/// [`DatasetError`], which is the right behavior for analyses but useless
/// for diagnosis. The parts themselves keep whatever a file says — unsorted
/// events, dangling ids, reversed windows — so `dcfail-audit` can evaluate
/// its full rule catalog against the input as written, name every defect at
/// once, and convert a clean trace with `FailureDataset::try_from` without
/// parsing it again.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
        if let Some((machine, _)) = self
            .telemetry
            .onoff_logs()
            .find(|(_, log)| !log.has_valid_toggles())
        {
            return Err(DatasetError::InvalidOnOffToggles { machine });
        }
        Ok(())
    }
}

impl TryFrom<RawDatasetParts> for FailureDataset {
    type Error = DatasetError;

    /// Validates the raw parts, then canonicalizes: events are sorted by
    /// `(at, machine, incident)` and the per-machine index is rebuilt.
    /// Unsorted input is accepted (and sorted); structurally broken input —
    /// dangling references, out-of-horizon events, reversed repair windows,
    /// on/off logs with unsorted or out-of-window toggles — is rejected with
    /// a typed error.
    fn try_from(raw: RawDatasetParts) -> Result<Self, DatasetError> {
        raw.validate()?;
        let mut ds = FailureDataset {
            horizon: raw.horizon,
            machines: raw.machines,
            topology: raw.topology,
            incidents: raw.incidents,
            tickets: raw.tickets,
            events: raw.events,
            telemetry: raw.telemetry,
            event_offsets: Vec::new(),
            event_index: Vec::new(),
            incident_offsets: Vec::new(),
            incident_index: Vec::new(),
        };
        ds.rebuild_index();
        Ok(ds)
    }
}

impl From<&FailureDataset> for RawDatasetParts {
    fn from(ds: &FailureDataset) -> Self {
        Self {
            horizon: ds.horizon,
            machines: ds.machines.clone(),
            topology: ds.topology.clone(),
            incidents: ds.incidents.clone(),
            tickets: ds.tickets.clone(),
            events: ds.events.clone(),
            telemetry: ds.telemetry.clone(),
        }
    }
}

impl From<FailureDataset> for RawDatasetParts {
    fn from(ds: FailureDataset) -> Self {
        RawDatasetParts {
            horizon: ds.horizon,
            machines: ds.machines,
            topology: ds.topology,
            incidents: ds.incidents,
            tickets: ds.tickets,
            events: ds.events,
            telemetry: ds.telemetry,
        }
    }
}

impl FailureDataset {
    fn rebuild_index(&mut self) {
        // Unstable is safe: an incident hits each machine at most once, so
        // (at, machine, incident) is unique per event and the order total.
        self.events
            .sort_unstable_by_key(|e| (e.at(), e.machine(), e.incident()));
        let (event_offsets, event_index) = csr_index(
            self.machines.len(),
            self.events.iter().map(|e| e.machine().index()),
        );
        self.event_offsets = event_offsets;
        self.event_index = event_index;
        let (incident_offsets, incident_index) = csr_index(
            self.incidents.len(),
            self.events.iter().map(|e| e.incident().index()),
        );
        self.incident_offsets = incident_offsets;
        self.incident_index = incident_index;
    }

    /// Observation window.
    pub fn horizon(&self) -> Horizon {
        self.horizon
    }

    /// All machines, dense by [`MachineId`].
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// Looks up a machine.
    pub fn machine(&self, id: MachineId) -> &Machine {
        &self.machines[id.index()]
    }

    /// Machines of one kind.
    pub fn machines_of_kind(&self, kind: MachineKind) -> impl Iterator<Item = &Machine> {
        self.machines.iter().filter(move |m| m.kind() == kind)
    }

    /// Number of machines of `kind` in `subsystem`.
    pub fn population(&self, kind: MachineKind, subsystem: Option<SubsystemId>) -> usize {
        self.machines
            .iter()
            .filter(|m| m.kind() == kind && subsystem.is_none_or(|s| m.subsystem() == s))
            .count()
    }

    /// Datacenter topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// All incidents, dense by [`IncidentId`].
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Looks up an incident.
    pub fn incident(&self, id: IncidentId) -> &Incident {
        &self.incidents[id.index()]
    }

    /// All tickets (crash and non-crash), dense by [`TicketId`].
    pub fn tickets(&self) -> &[Ticket] {
        &self.tickets
    }

    /// Looks up a ticket.
    pub fn ticket(&self, id: TicketId) -> &Ticket {
        &self.tickets[id.index()]
    }

    /// All crash events, sorted by time.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// Crash events of one machine, in time order. Unknown machine ids
    /// yield an empty iterator.
    pub fn events_for(&self, machine: MachineId) -> impl Iterator<Item = &FailureEvent> {
        csr_row(&self.event_offsets, &self.event_index, machine.index())
            .iter()
            .map(|&i| &self.events[i])
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
        .map(|&i| &self.events[i])
    }

    /// Machines that failed at least once (ascending id), with their event
    /// count.
    pub fn failing_machines(&self) -> impl Iterator<Item = (MachineId, usize)> + '_ {
        self.event_offsets
            .windows(2)
            .enumerate()
            .filter_map(|(i, w)| {
                let count = w[1] - w[0];
                (count > 0).then(|| (self.machines[i].id(), count))
            })
    }

    /// Telemetry store.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Replaces every event's reported class using `f` (used after running a
    /// fresh classification pipeline over the tickets).
    pub fn relabel_events(
        &mut self,
        mut f: impl FnMut(&FailureEvent) -> crate::failure::FailureClass,
    ) {
        for ev in &mut self.events {
            *ev = ev.with_reported_class(f(ev));
        }
    }

    /// Per-subsystem dataset statistics (the paper's Table II).
    pub fn subsystem_stats(&self) -> Vec<SubsystemStats> {
        let num_sys = self.topology.subsystems().len();
        let mut stats: Vec<SubsystemStats> = (0..num_sys)
            .map(|i| SubsystemStats {
                subsystem: SubsystemId::new(i as u32),
                name: self.topology.subsystems()[i].name().to_string(),
                pms: 0,
                vms: 0,
                all_tickets: 0,
                crash_tickets: 0,
                crash_tickets_pm: 0,
                crash_tickets_vm: 0,
            })
            .collect();
        for m in &self.machines {
            let s = &mut stats[m.subsystem().index()];
            match m.kind() {
                MachineKind::Pm => s.pms += 1,
                MachineKind::Vm => s.vms += 1,
            }
        }
        for t in &self.tickets {
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

/// Incremental builder for a [`FailureDataset`].
///
/// Validates cross-references at [`DatasetBuilder::build`] so that a dataset,
/// once constructed, is internally consistent.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    horizon: Option<Horizon>,
    machines: Vec<Machine>,
    topology: Topology,
    incidents: Vec<Incident>,
    tickets: Vec<Ticket>,
    events: Vec<FailureEvent>,
    telemetry: Telemetry,
}

impl DatasetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the observation window (defaults to one year from `t = 0`).
    pub fn horizon(&mut self, horizon: Horizon) -> &mut Self {
        self.horizon = Some(horizon);
        self
    }

    /// Sets the topology.
    pub fn topology(&mut self, topology: Topology) -> &mut Self {
        self.topology = topology;
        self
    }

    /// Adds a machine. Machines must be added in dense id order.
    ///
    /// # Panics
    ///
    /// Panics on out-of-order ids.
    pub fn add_machine(&mut self, machine: Machine) -> &mut Self {
        assert_eq!(
            machine.id().index(),
            self.machines.len(),
            "machines must be added in dense id order"
        );
        self.machines.push(machine);
        self
    }

    /// Adds an incident. Incidents must be added in dense id order.
    ///
    /// # Panics
    ///
    /// Panics on out-of-order ids.
    pub fn add_incident(&mut self, incident: Incident) -> &mut Self {
        assert_eq!(
            incident.id().index(),
            self.incidents.len(),
            "incidents must be added in dense id order"
        );
        self.incidents.push(incident);
        self
    }

    /// Adds a ticket. Tickets must be added in dense id order.
    ///
    /// # Panics
    ///
    /// Panics on out-of-order ids.
    pub fn add_ticket(&mut self, ticket: Ticket) -> &mut Self {
        assert_eq!(
            ticket.id().index(),
            self.tickets.len(),
            "tickets must be added in dense id order"
        );
        self.tickets.push(ticket);
        self
    }

    /// Adds a crash event.
    pub fn add_event(&mut self, event: FailureEvent) -> &mut Self {
        self.events.push(event);
        self
    }

    /// Sets the telemetry store.
    pub fn telemetry(&mut self, telemetry: Telemetry) -> &mut Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of machines added so far.
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// Number of incidents added so far.
    pub fn num_incidents(&self) -> usize {
        self.incidents.len()
    }

    /// Number of tickets added so far.
    pub fn num_tickets(&self) -> usize {
        self.tickets.len()
    }

    /// Finalizes the dataset, validating every cross-reference.
    ///
    /// Infallible construction is the builder's contract, so validation
    /// failures panic; use [`DatasetBuilder::try_build`] to get the typed
    /// [`DatasetError`] instead.
    ///
    /// # Panics
    ///
    /// Panics if any event or ticket references an unknown machine, incident
    /// or subsystem, if an event falls outside the horizon or carries a
    /// negative repair, or if a ticket closes before opening — a dataset must
    /// be internally consistent.
    pub fn build(self) -> FailureDataset {
        match self.try_build() {
            Ok(ds) => ds,
            Err(e) => panic!("invalid dataset: {e}"),
        }
    }

    /// Finalizes the dataset, returning a typed error on broken invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`DatasetError`] describing the first violated invariant.
    pub fn try_build(self) -> Result<FailureDataset, DatasetError> {
        let raw = RawDatasetParts {
            horizon: self.horizon.unwrap_or_default(),
            machines: self.machines,
            topology: self.topology,
            incidents: self.incidents,
            tickets: self.tickets,
            events: self.events,
            telemetry: self.telemetry,
        };
        FailureDataset::try_from(raw)
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
        tiny_builder().build()
    }

    fn tiny_builder() -> DatasetBuilder {
        let mut topo = Topology::new();
        topo.add_subsystem(SubsystemMeta::new(SubsystemId::new(0), "Sys I"));
        let mut b = DatasetBuilder::new();
        b.topology(topo);
        b.add_machine(Machine::new_pm(
            MachineId::new(0),
            SubsystemId::new(0),
            PowerDomainId::new(0),
            ResourceCapacity::default(),
            None,
        ));
        b.add_incident(Incident::new(
            IncidentId::new(0),
            FailureClass::Software,
            SimTime::from_days(5),
            vec![MachineId::new(0)],
        ));
        b.add_ticket(Ticket::new(
            TicketId::new(0),
            MachineId::new(0),
            crate::ticket::TicketKind::Crash,
            Some(IncidentId::new(0)),
            SimTime::from_days(5),
            SimTime::from_days(5) + HOUR * 3,
            "service hang".into(),
            "restarted agent".into(),
            Some(FailureClass::Software),
        ));
        b.add_event(FailureEvent::new(
            MachineId::new(0),
            IncidentId::new(0),
            TicketId::new(0),
            SimTime::from_days(5),
            FailureClass::Software,
            FailureClass::Software,
            HOUR * 3,
        ));
        // Out-of-order second event to exercise sorting.
        b.add_incident(Incident::new(
            IncidentId::new(1),
            FailureClass::Reboot,
            SimTime::from_days(2),
            vec![MachineId::new(0)],
        ));
        b.add_ticket(Ticket::new(
            TicketId::new(1),
            MachineId::new(0),
            crate::ticket::TicketKind::Crash,
            Some(IncidentId::new(1)),
            SimTime::from_days(2),
            SimTime::from_days(2) + HOUR,
            "unexpected reboot".into(),
            "came back on its own".into(),
            Some(FailureClass::Reboot),
        ));
        b.add_event(FailureEvent::new(
            MachineId::new(0),
            IncidentId::new(1),
            TicketId::new(1),
            SimTime::from_days(2),
            FailureClass::Reboot,
            FailureClass::Reboot,
            HOUR,
        ));
        b
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
    fn with_onoff_log(days: &[i64]) -> DatasetBuilder {
        let window = Horizon::new(SimTime::ZERO, SimTime::from_days(56));
        let json = serde_json::to_string(&OnOffLog::always_on(window))
            .unwrap()
            .replace(&toggles_json(&[]), &toggles_json(days));
        let mut telemetry = Telemetry::new();
        telemetry.set_onoff(MachineId::new(0), serde_json::from_str(&json).unwrap());
        let mut b = tiny_builder();
        b.telemetry(telemetry);
        b
    }

    #[test]
    fn serde_rejects_reversed_onoff_toggles() {
        let json = serde_json::to_string(&with_onoff_log(&[10, 20]).build()).unwrap();
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
        let json = serde_json::to_string(&with_onoff_log(&[10, 20]).build()).unwrap();
        // Day 100 lies inside the horizon but past the log's window.
        let bad = json.replace(&toggles_json(&[10, 20]), &toggles_json(&[10, 100]));
        assert_ne!(bad, json);
        let err = serde_json::from_str::<FailureDataset>(&bad).unwrap_err();
        assert!(
            err.to_string().contains("unsorted or out-of-window"),
            "{err}"
        );
        assert_eq!(
            with_onoff_log(&[10, 100]).try_build().unwrap_err(),
            DatasetError::InvalidOnOffToggles {
                machine: MachineId::new(0)
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
        let mut b = DatasetBuilder::new();
        b.add_incident(Incident::new(
            IncidentId::new(0),
            FailureClass::Hardware,
            SimTime::ZERO,
            vec![MachineId::new(7)],
        ));
        let err = b.try_build().unwrap_err();
        assert_eq!(
            err,
            DatasetError::UnknownIncidentMember {
                incident: IncidentId::new(0),
                machine: MachineId::new(7),
            }
        );
    }

    #[test]
    fn builder_counts_what_was_added() {
        let empty = DatasetBuilder::new();
        assert_eq!(
            (
                empty.num_machines(),
                empty.num_incidents(),
                empty.num_tickets()
            ),
            (0, 0, 0)
        );
        let b = tiny_builder();
        assert_eq!(
            (b.num_machines(), b.num_incidents(), b.num_tickets()),
            (1, 2, 2)
        );
        let ds = b.build();
        assert_eq!(ds.machines().len(), 1);
        assert_eq!(ds.incidents().len(), 2);
        assert_eq!(ds.tickets().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown machine")]
    fn build_rejects_dangling_event() {
        let mut topo = Topology::new();
        topo.add_subsystem(SubsystemMeta::new(SubsystemId::new(0), "Sys I"));
        let mut b = DatasetBuilder::new();
        b.topology(topo);
        b.add_incident(Incident::new(
            IncidentId::new(0),
            FailureClass::Hardware,
            SimTime::ZERO,
            vec![MachineId::new(7)],
        ));
        b.add_ticket(Ticket::new(
            TicketId::new(0),
            MachineId::new(0),
            crate::ticket::TicketKind::Crash,
            Some(IncidentId::new(0)),
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(1),
            "".into(),
            "".into(),
            None,
        ));
        b.add_event(FailureEvent::new(
            MachineId::new(7),
            IncidentId::new(0),
            TicketId::new(0),
            SimTime::ZERO,
            FailureClass::Hardware,
            FailureClass::Hardware,
            SimDuration::from_hours(1),
        ));
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "dense id order")]
    fn out_of_order_machine_rejected() {
        let mut b = DatasetBuilder::new();
        b.add_machine(Machine::new_pm(
            MachineId::new(5),
            SubsystemId::new(0),
            PowerDomainId::new(0),
            ResourceCapacity::default(),
            None,
        ));
    }
}
