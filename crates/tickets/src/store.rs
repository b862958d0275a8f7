//! Indexed ticket storage.
//!
//! The paper mines "a large number of distributed ticketing and performance
//! databases"; [`TicketStore`] is the consolidated view — tickets indexed by
//! time so extraction and classification can scan efficiently.

use dcfail_model::prelude::*;
use std::sync::Arc;

/// An indexed collection of problem tickets and the table their text lives
/// in.
#[derive(Debug, Clone)]
pub struct TicketStore {
    texts: Arc<TextTable>,
    tickets: Vec<Ticket>,
    /// Indexes sorted by opening time.
    by_time: Vec<usize>,
}

impl TicketStore {
    /// Builds a store of `tickets` (copied out of a dataset or loaded from
    /// disk) whose text ids point into `texts`.
    pub fn new(texts: Arc<TextTable>, tickets: Vec<Ticket>) -> Self {
        let mut store = Self {
            texts,
            tickets,
            by_time: Vec::new(),
        };
        store.reindex();
        store
    }

    /// A store of every ticket of `dataset`, sharing its text table.
    pub fn from_dataset(dataset: &FailureDataset) -> Self {
        Self::new(Arc::clone(dataset.texts()), dataset.tickets().to_vec())
    }

    fn reindex(&mut self) {
        self.by_time = (0..self.tickets.len()).collect();
        // Unstable is safe: ticket ids are unique, so the key is total.
        self.by_time
            .sort_unstable_by_key(|&i| (self.tickets[i].opened_at(), self.tickets[i].id()));
    }

    /// Adds one ticket; its text ids point into the store's table.
    pub fn add(&mut self, ticket: Ticket) {
        let idx = self.tickets.len();
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

    /// The table the tickets' text ids point into.
    pub fn texts(&self) -> &TextTable {
        &self.texts
    }

    /// Iterates tickets in opening-time order.
    pub fn iter_by_time(&self) -> impl Iterator<Item = &Ticket> {
        self.by_time.iter().map(|&i| &self.tickets[i])
    }

    /// Crash tickets only, in time order.
    pub fn crash_tickets(&self) -> impl Iterator<Item = &Ticket> {
        self.iter_by_time().filter(|t| t.is_crash())
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
            TextId::new(0),
            TextId::new(1),
            crash.then_some(FailureClass::Software),
        )
    }

    fn store(tickets: Vec<Ticket>) -> TicketStore {
        let mut texts = TextTable::default();
        texts.push("desc");
        texts.push("res");
        TicketStore::new(Arc::new(texts), tickets)
    }

    #[test]
    fn store_indexes_by_time() {
        let store = store(vec![
            ticket(0, 1, 5, true),
            ticket(1, 2, 3, false),
            ticket(2, 1, 1, true),
        ]);
        assert_eq!(store.len(), 3);
        assert!(!store.is_empty());
        let times: Vec<f64> = store
            .iter_by_time()
            .map(|t| t.opened_at().as_days())
            .collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
        assert_eq!(store.crash_tickets().count(), 2);
        assert_eq!(
            store.texts().get(store.tickets()[0].resolution()),
            Some("res")
        );
    }

    #[test]
    fn bulk_and_incremental_indexes_break_ties_by_id() {
        let tickets = vec![
            ticket(7, 0, 2, true),
            ticket(3, 1, 2, false),
            ticket(5, 2, 1, true),
            ticket(4, 3, 2, true),
        ];
        let bulk = store(tickets.clone());
        let mut incremental = store(Vec::new());
        for t in tickets.into_iter().rev() {
            incremental.add(t);
        }
        let ids =
            |s: &TicketStore| -> Vec<u32> { s.iter_by_time().map(|t| t.id().raw()).collect() };
        assert_eq!(ids(&bulk), vec![5, 3, 4, 7]);
        assert_eq!(ids(&incremental), ids(&bulk));
    }

    #[test]
    fn incremental_add_maintains_time_order() {
        let mut store = store(Vec::new());
        store.add(ticket(0, 0, 5, true));
        store.add(ticket(1, 0, 1, false));
        store.add(ticket(2, 0, 3, true));
        let times: Vec<f64> = store
            .iter_by_time()
            .map(|t| t.opened_at().as_days())
            .collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }
}
