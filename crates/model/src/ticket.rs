//! Problem tickets.
//!
//! Every incident produces one ticket per affected machine; in addition the
//! ticketing system carries a large volume of *non-crash* tickets (requests,
//! capacity warnings, access issues, ...) — in the paper crash tickets are
//! only 0.85–6.9% of all tickets per subsystem. The classifier in
//! `dcfail-tickets` has to find the crashes in that haystack, so the model
//! keeps both kinds.

use crate::failure::FailureClass;
use crate::ids::{IncidentId, MachineId, TicketId};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Whether a ticket records a server crash or routine non-crash work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TicketKind {
    /// The underlying server was unresponsive or unreachable.
    Crash,
    /// Any other problem report (service request, threshold alert, ...).
    NonCrash,
}

impl TicketKind {
    /// Short display label.
    pub const fn label(self) -> &'static str {
        match self {
            TicketKind::Crash => "crash",
            TicketKind::NonCrash => "non-crash",
        }
    }
}

impl fmt::Display for TicketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A problem ticket as stored in the ticketing database.
///
/// Description and resolution are shared, immutable text: cloning a ticket
/// bumps two reference counts instead of copying the strings, and the
/// synthesizer hands every ticket with the same templated text the same
/// allocation. Serialized, each is the plain JSON string.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ticket {
    id: TicketId,
    machine: MachineId,
    kind: TicketKind,
    /// Incident id for crash tickets; `None` for non-crash tickets.
    incident: Option<IncidentId>,
    opened_at: SimTime,
    closed_at: SimTime,
    /// Free-text problem description (user- or monitoring-generated).
    description: Arc<str>,
    /// Free-text resolution entered by the service support staff.
    resolution: Arc<str>,
    /// Ground-truth class (the simulator knows it; the paper's analysts had
    /// to recover it via manual labeling + k-means).
    true_class: Option<FailureClass>,
}

impl Ticket {
    /// Creates a ticket.
    ///
    /// # Panics
    ///
    /// Panics if `closed_at < opened_at`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: TicketId,
        machine: MachineId,
        kind: TicketKind,
        incident: Option<IncidentId>,
        opened_at: SimTime,
        closed_at: SimTime,
        description: Arc<str>,
        resolution: Arc<str>,
        true_class: Option<FailureClass>,
    ) -> Self {
        assert!(
            closed_at >= opened_at,
            "ticket must close at or after opening"
        );
        Self {
            id,
            machine,
            kind,
            incident,
            opened_at,
            closed_at,
            description,
            resolution,
            true_class,
        }
    }

    /// Ticket id.
    pub const fn id(&self) -> TicketId {
        self.id
    }

    /// Machine the ticket was filed against.
    pub const fn machine(&self) -> MachineId {
        self.machine
    }

    /// Crash or non-crash.
    pub const fn kind(&self) -> TicketKind {
        self.kind
    }

    /// True when the ticket records a server crash.
    pub const fn is_crash(&self) -> bool {
        matches!(self.kind, TicketKind::Crash)
    }

    /// Incident behind a crash ticket.
    pub const fn incident(&self) -> Option<IncidentId> {
        self.incident
    }

    /// Ticket issuing time.
    pub const fn opened_at(&self) -> SimTime {
        self.opened_at
    }

    /// Ticket closing time.
    pub const fn closed_at(&self) -> SimTime {
        self.closed_at
    }

    /// Repair time: closing minus issuing time (includes queueing delay).
    pub fn repair_time(&self) -> SimDuration {
        self.closed_at - self.opened_at
    }

    /// Problem description text.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Resolution text.
    pub fn resolution(&self) -> &str {
        &self.resolution
    }

    /// Shared handles to the description and resolution text, for building
    /// a ticket with the same text without copying it.
    pub fn text_handles(&self) -> (&Arc<str>, &Arc<str>) {
        (&self.description, &self.resolution)
    }

    /// Combined description + resolution text, the classifier's input.
    pub fn full_text(&self) -> String {
        let mut s = String::with_capacity(self.description.len() + self.resolution.len() + 1);
        s.push_str(&self.description);
        s.push(' ');
        s.push_str(&self.resolution);
        s
    }

    /// Ground-truth class for crash tickets, if recorded.
    pub const fn true_class(&self) -> Option<FailureClass> {
        self.true_class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::HOUR;

    fn ticket() -> Ticket {
        Ticket::new(
            TicketId::new(0),
            MachineId::new(4),
            TicketKind::Crash,
            Some(IncidentId::new(2)),
            SimTime::from_days(10),
            SimTime::from_days(10) + HOUR * 8,
            "server unreachable ping timeout".into(),
            "replaced faulty disk".into(),
            Some(FailureClass::Hardware),
        )
    }

    #[test]
    fn accessors() {
        let t = ticket();
        assert!(t.is_crash());
        assert_eq!(t.kind(), TicketKind::Crash);
        assert_eq!(t.machine(), MachineId::new(4));
        assert_eq!(t.incident(), Some(IncidentId::new(2)));
        assert_eq!(t.repair_time(), HOUR * 8);
        assert_eq!(t.true_class(), Some(FailureClass::Hardware));
        assert_eq!(t.opened_at(), SimTime::from_days(10));
        assert_eq!(t.closed_at(), SimTime::from_days(10) + HOUR * 8);
    }

    #[test]
    fn full_text_joins_description_and_resolution() {
        let t = ticket();
        assert_eq!(
            t.full_text(),
            "server unreachable ping timeout replaced faulty disk"
        );
    }

    #[test]
    #[should_panic(expected = "close at or after opening")]
    fn closing_before_opening_rejected() {
        let _ = Ticket::new(
            TicketId::new(0),
            MachineId::new(0),
            TicketKind::NonCrash,
            None,
            SimTime::from_days(1),
            SimTime::ZERO,
            "".into(),
            "".into(),
            None,
        );
    }

    #[test]
    fn kind_labels() {
        assert_eq!(TicketKind::Crash.to_string(), "crash");
        assert_eq!(TicketKind::NonCrash.label(), "non-crash");
    }
}
