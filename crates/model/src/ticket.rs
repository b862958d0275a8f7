//! Problem tickets.
//!
//! Every incident produces one ticket per affected machine; in addition the
//! ticketing system carries a large volume of *non-crash* tickets (requests,
//! capacity warnings, access issues, ...) — in the paper crash tickets are
//! only 0.85–6.9% of all tickets per subsystem. The classifier in
//! `dcfail-tickets` has to find the crashes in that haystack, so the model
//! keeps both kinds.
//!
//! A [`Ticket`] is plain `Copy` data: its description and resolution are
//! [`TextId`]s into the one [`TextTable`] its dataset holds, so copying or
//! dropping a dataset's tickets touches no text.

use crate::failure::FailureClass;
use crate::ids::{IncidentId, MachineId, TextId, TicketId};
use crate::time::{SimDuration, SimTime};
use serde::__private::{as_object, field};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

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

/// The distinct ticket texts of one dataset, each stored once.
///
/// Tickets name their text by [`TextId`]; [`TextTable::get`] is the one way
/// to read it. A dataset and its raw parts hold the table behind an `Arc`,
/// so chaos, recovery and clones share it instead of copying text.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    texts: Vec<Box<str>>,
}

impl TextTable {
    /// Appends `text` and returns its id; ids count up from 0 in push order.
    /// No lookup: equal texts pushed twice get two ids.
    pub fn push(&mut self, text: impl Into<Box<str>>) -> TextId {
        self.texts.push(text.into());
        TextId::new(self.texts.len() as u32 - 1)
    }

    /// The text behind `id`, or `None` when the table has no such id.
    pub fn get(&self, id: TextId) -> Option<&str> {
        self.texts.get(id.index()).map(|text| &**text)
    }

    /// Number of texts in the table.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// True when the table holds no text.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }
}

/// A problem ticket as stored in the ticketing database.
///
/// Plain `Copy` data of at most 48 bytes: the description and resolution are
/// ids into the dataset's [`TextTable`]. Serialized, each is the plain JSON
/// string it resolves to (see `FailureDataset`'s serde impls).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ticket {
    id: TicketId,
    machine: MachineId,
    kind: TicketKind,
    /// Incident id for crash tickets; `None` for non-crash tickets.
    incident: Option<IncidentId>,
    opened_at: SimTime,
    closed_at: SimTime,
    /// Free-text problem description (user- or monitoring-generated).
    description: TextId,
    /// Free-text resolution entered by the service support staff.
    resolution: TextId,
    /// Ground-truth class (the simulator knows it; the paper's analysts had
    /// to recover it via manual labeling + k-means).
    true_class: Option<FailureClass>,
}

// Tickets are the haystack every dataset copy moves: keep them plain data.
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<Ticket>();
    assert!(std::mem::size_of::<Ticket>() <= 48);
};

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
        description: TextId,
        resolution: TextId,
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

    /// Id of the problem description text.
    pub const fn description(&self) -> TextId {
        self.description
    }

    /// Id of the resolution text.
    pub const fn resolution(&self) -> TextId {
        self.resolution
    }

    /// Ground-truth class for crash tickets, if recorded.
    pub const fn true_class(&self) -> Option<FailureClass> {
        self.true_class
    }

    /// The same ticket under another id.
    #[must_use]
    pub const fn with_id(mut self, id: TicketId) -> Self {
        self.id = id;
        self
    }

    /// The same ticket filed against another machine.
    #[must_use]
    pub const fn with_machine(mut self, machine: MachineId) -> Self {
        self.machine = machine;
        self
    }

    /// The same ticket as another kind.
    #[must_use]
    pub const fn with_kind(mut self, kind: TicketKind) -> Self {
        self.kind = kind;
        self
    }

    /// The same ticket for another incident (or none).
    #[must_use]
    pub const fn with_incident(mut self, incident: Option<IncidentId>) -> Self {
        self.incident = incident;
        self
    }

    /// The same ticket over another window.
    ///
    /// # Panics
    ///
    /// Panics if `closed_at < opened_at`.
    #[must_use]
    pub fn with_window(mut self, opened_at: SimTime, closed_at: SimTime) -> Self {
        assert!(
            closed_at >= opened_at,
            "ticket must close at or after opening"
        );
        self.opened_at = opened_at;
        self.closed_at = closed_at;
        self
    }

    /// True when `self`, with text in `texts`, and `other`, with text in
    /// `other_texts`, say the same: every field equal and both texts equal
    /// as strings, whichever ids they got. An id past its table only equals
    /// the same id past the other table.
    pub(crate) fn says_same(
        &self,
        texts: &TextTable,
        other: &Ticket,
        other_texts: &TextTable,
    ) -> bool {
        let same_text = |a: TextId, b: TextId| match (texts.get(a), other_texts.get(b)) {
            (Some(a), Some(b)) => a == b,
            (None, None) => a == b,
            _ => false,
        };
        Ticket {
            description: other.description,
            resolution: other.resolution,
            ..*self
        } == *other
            && same_text(self.description, other.description)
            && same_text(self.resolution, other.resolution)
    }

    /// The JSON object of this ticket with its text resolved in `texts`. A
    /// text id past the table writes `null`, which no reader accepts: such a
    /// ticket cannot be saved, only diagnosed and recovered in memory.
    pub(crate) fn to_json(self, texts: &TextTable) -> Value {
        let text = |id: TextId| texts.get(id).map_or(Value::Null, |s| Value::Str(s.into()));
        let entry = |key: &str, value: Value| (key.to_string(), value);
        Value::Object(vec![
            entry("id", self.id.to_value()),
            entry("machine", self.machine.to_value()),
            entry("kind", self.kind.to_value()),
            entry("incident", self.incident.to_value()),
            entry("opened_at", self.opened_at.to_value()),
            entry("closed_at", self.closed_at.to_value()),
            entry("description", text(self.description)),
            entry("resolution", text(self.resolution)),
            entry("true_class", self.true_class.to_value()),
        ])
    }

    /// Reads one ticket object as written by [`Ticket::to_json`], turning
    /// each text into an id with `intern`. Unvalidated: the window may be
    /// reversed, as a raw file may say.
    pub(crate) fn from_json<'v>(
        value: &'v Value,
        intern: &mut impl FnMut(&'v str) -> TextId,
    ) -> Result<Self, serde::Error> {
        const TY: &str = "Ticket";
        as_object(value, TY)?;
        let mut text = |name: &str| match value.get(name) {
            Some(Value::Str(s)) => Ok(intern(s)),
            Some(other) => Err(serde::Error::custom(format!(
                "invalid field `{TY}.{name}`: expected string, found {}",
                other.kind()
            ))),
            None => Err(serde::Error::custom(format!(
                "missing field `{name}` in `{TY}`"
            ))),
        };
        Ok(Self {
            id: field(value, TY, "id")?,
            machine: field(value, TY, "machine")?,
            kind: field(value, TY, "kind")?,
            incident: field(value, TY, "incident")?,
            opened_at: field(value, TY, "opened_at")?,
            closed_at: field(value, TY, "closed_at")?,
            description: text("description")?,
            resolution: text("resolution")?,
            true_class: field(value, TY, "true_class")?,
        })
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
            TextId::new(0),
            TextId::new(1),
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
        assert_eq!(
            (t.description(), t.resolution()),
            (TextId::new(0), TextId::new(1))
        );
    }

    #[test]
    fn with_builders_replace_one_field() {
        let t = ticket();
        let moved = t
            .with_id(TicketId::new(9))
            .with_machine(MachineId::new(1))
            .with_kind(TicketKind::NonCrash)
            .with_incident(None)
            .with_window(SimTime::ZERO, SimTime::ZERO + HOUR);
        assert_eq!(moved.id(), TicketId::new(9));
        assert_eq!(moved.machine(), MachineId::new(1));
        assert_eq!(moved.kind(), TicketKind::NonCrash);
        assert_eq!(moved.incident(), None);
        assert_eq!(moved.repair_time(), HOUR);
        assert_eq!(moved.description(), t.description());
        assert_eq!(moved.true_class(), t.true_class());
    }

    #[test]
    fn text_table_hands_out_ids_in_push_order() {
        let mut texts = TextTable::default();
        assert!(texts.is_empty());
        let a = texts.push("server unreachable");
        let b = texts.push(String::from("replaced faulty disk"));
        let again = texts.push("server unreachable");
        assert_eq!(
            (a, b, again),
            (TextId::new(0), TextId::new(1), TextId::new(2))
        );
        assert_eq!(texts.get(a), Some("server unreachable"));
        assert_eq!(texts.get(b), Some("replaced faulty disk"));
        assert_eq!(texts.get(TextId::new(3)), None);
        assert_eq!(texts.len(), 3);
    }

    #[test]
    fn says_same_compares_resolved_text_not_ids() {
        let mut left = TextTable::default();
        left.push("server unreachable");
        left.push("replaced faulty disk");
        let mut right = TextTable::default();
        right.push("replaced faulty disk");
        right.push("server unreachable");
        let t = ticket();
        let renumbered = Ticket {
            description: TextId::new(1),
            resolution: TextId::new(0),
            ..t
        };
        assert!(t.says_same(&left, &renumbered, &right));
        assert!(!t.says_same(&left, &t, &right), "same ids, other text");
        assert!(!t.says_same(&left, &t.with_machine(MachineId::new(5)), &left));
        // Ids past the table only equal the same dangling id.
        let empty = TextTable::default();
        assert!(t.says_same(&empty, &t, &empty));
        assert!(!t.says_same(&empty, &renumbered, &empty));
        assert!(!t.says_same(&left, &t, &empty));
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
            TextId::new(0),
            TextId::new(0),
            None,
        );
    }

    #[test]
    #[should_panic(expected = "close at or after opening")]
    fn reversed_window_rejected() {
        let _ = ticket().with_window(SimTime::from_days(1), SimTime::ZERO);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(TicketKind::Crash.to_string(), "crash");
        assert_eq!(TicketKind::NonCrash.label(), "non-crash");
    }
}
