//! Indexed ticket storage.
//!
//! The paper mines "a large number of distributed ticketing and performance
//! databases"; [`TicketStore`] is the consolidated view — tickets indexed by
//! machine and time so extraction and classification can scan efficiently.

use dcfail_model::prelude::*;
use std::collections::BTreeMap;

/// An indexed collection of problem tickets.
#[derive(Debug, Clone, Default)]
pub struct TicketStore {
    tickets: Vec<Ticket>,
    by_machine: BTreeMap<MachineId, Vec<usize>>,
    /// Indexes sorted by opening time.
    by_time: Vec<usize>,
}

impl TicketStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a store from tickets (cloned out of a dataset or loaded from
    /// disk).
    pub fn from_tickets(tickets: Vec<Ticket>) -> Self {
        let mut store = Self {
            tickets,
            by_machine: BTreeMap::new(),
            by_time: Vec::new(),
        };
        store.reindex();
        store
    }

    fn reindex(&mut self) {
        self.by_machine.clear();
        for (i, t) in self.tickets.iter().enumerate() {
            self.by_machine.entry(t.machine()).or_default().push(i);
        }
        self.by_time = (0..self.tickets.len()).collect();
        // Unstable is safe: ticket ids are unique, so the key is total.
        self.by_time
            .sort_unstable_by_key(|&i| (self.tickets[i].opened_at(), self.tickets[i].id()));
    }

    /// Adds one ticket.
    pub fn add(&mut self, ticket: Ticket) {
        let idx = self.tickets.len();
        self.by_machine
            .entry(ticket.machine())
            .or_default()
            .push(idx);
        // Insert into the time index at the right position.
        let pos = self.by_time.partition_point(|&i| {
            (self.tickets[i].opened_at(), self.tickets[i].id()) <= (ticket.opened_at(), ticket.id())
        });
        self.by_time.insert(pos, idx);
        self.tickets.push(ticket);
    }

    /// Number of tickets.
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    /// True when the store holds no tickets.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// All tickets in insertion order.
    pub fn tickets(&self) -> &[Ticket] {
        &self.tickets
    }

    /// Iterates tickets in opening-time order.
    pub fn iter_by_time(&self) -> impl Iterator<Item = &Ticket> {
        self.by_time.iter().map(|&i| &self.tickets[i])
    }

    /// Tickets filed against one machine, in insertion order.
    pub fn for_machine(&self, machine: MachineId) -> impl Iterator<Item = &Ticket> {
        self.by_machine
            .get(&machine)
            .into_iter()
            .flatten()
            .map(|&i| &self.tickets[i])
    }

    /// Tickets opened within `[from, to)`.
    pub fn in_window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &Ticket> {
        let start = self
            .by_time
            .partition_point(|&i| self.tickets[i].opened_at() < from);
        self.by_time[start..]
            .iter()
            .map(|&i| &self.tickets[i])
            .take_while(move |t| t.opened_at() < to)
    }

    /// Crash tickets only, in time order.
    pub fn crash_tickets(&self) -> impl Iterator<Item = &Ticket> {
        self.iter_by_time().filter(|t| t.is_crash())
    }
}

impl FromIterator<Ticket> for TicketStore {
    fn from_iter<I: IntoIterator<Item = Ticket>>(iter: I) -> Self {
        Self::from_tickets(iter.into_iter().collect())
    }
}

impl Extend<Ticket> for TicketStore {
    fn extend<I: IntoIterator<Item = Ticket>>(&mut self, iter: I) {
        for t in iter {
            self.add(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcfail_model::failure::FailureClass;
    use dcfail_model::time::HOUR;

    fn ticket(id: u32, machine: u32, day: i64, crash: bool) -> Ticket {
        Ticket::new(
            TicketId::new(id),
            MachineId::new(machine),
            if crash {
                TicketKind::Crash
            } else {
                TicketKind::NonCrash
            },
            crash.then(|| IncidentId::new(id)),
            SimTime::from_days(day),
            SimTime::from_days(day) + HOUR,
            format!("desc {id}").into(),
            format!("res {id}").into(),
            crash.then_some(FailureClass::Software),
        )
    }

    #[test]
    fn store_indexes_by_machine_and_time() {
        let store: TicketStore = vec![
            ticket(0, 1, 5, true),
            ticket(1, 2, 3, false),
            ticket(2, 1, 1, true),
        ]
        .into_iter()
        .collect();
        assert_eq!(store.len(), 3);
        assert!(!store.is_empty());
        assert_eq!(store.for_machine(MachineId::new(1)).count(), 2);
        assert_eq!(store.for_machine(MachineId::new(9)).count(), 0);
        let times: Vec<i64> = store
            .iter_by_time()
            .map(|t| t.opened_at().day_index())
            .collect();
        assert_eq!(times, vec![1, 3, 5]);
        assert_eq!(store.crash_tickets().count(), 2);
    }

    #[test]
    fn window_queries_are_half_open() {
        let store: TicketStore = (0..5).map(|i| ticket(i, 0, i as i64, true)).collect();
        let hits: Vec<u32> = store
            .in_window(SimTime::from_days(1), SimTime::from_days(3))
            .map(|t| t.id().raw())
            .collect();
        assert_eq!(hits, vec![1, 2]);
        assert_eq!(
            store
                .in_window(SimTime::from_days(10), SimTime::from_days(20))
                .count(),
            0
        );
    }

    #[test]
    fn incremental_add_maintains_time_order() {
        let mut store = TicketStore::new();
        store.add(ticket(0, 0, 5, true));
        store.add(ticket(1, 0, 1, false));
        store.extend([ticket(2, 0, 3, true)]);
        let times: Vec<i64> = store
            .iter_by_time()
            .map(|t| t.opened_at().day_index())
            .collect();
        assert_eq!(times, vec![1, 3, 5]);
    }
}
