//! Property tests for the ticketing pipeline.

use dcfail_model::prelude::*;
use dcfail_stats::text::tokenize;
use dcfail_tickets::classify::manual_label;
use dcfail_tickets::extract::{is_crash_text, reconstruct_incidents};
use dcfail_tickets::store::TicketStore;
use proptest::prelude::*;

fn arbitrary_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9 .,;:()_-]{0,120}").expect("valid regex")
}

fn ticket(id: u32, machine: u32, minute: i64, crash: bool) -> Ticket {
    Ticket::new(
        TicketId::new(id),
        MachineId::new(machine),
        if crash {
            TicketKind::Crash
        } else {
            TicketKind::NonCrash
        },
        crash.then(|| IncidentId::new(0)),
        SimTime::from_minutes(minute),
        SimTime::from_minutes(minute) + HOUR,
        "server crashed".into(),
        "restored".into(),
        None,
    )
}

proptest! {
    /// The tokenizer never produces empty or single-character tokens and is
    /// idempotent under re-joining.
    #[test]
    fn tokenizer_properties(text in arbitrary_text()) {
        let tokens = tokenize(&text);
        for t in &tokens {
            prop_assert!(t.len() > 1);
            prop_assert!(t.chars().all(char::is_alphanumeric));
            prop_assert_eq!(t.to_lowercase(), t.clone());
        }
        // Tokenizing the joined tokens yields the same tokens.
        let rejoined = tokens.join(" ");
        prop_assert_eq!(tokenize(&rejoined), tokens);
    }

    /// `manual_label` is total and deterministic on arbitrary text.
    #[test]
    fn manual_label_is_total(desc in arbitrary_text(), res in arbitrary_text()) {
        let a = manual_label(&desc, &res);
        let b = manual_label(&desc, &res);
        prop_assert_eq!(a, b);
        prop_assert!(FailureClass::ALL.contains(&a));
    }

    /// `is_crash_text` is total and word-order insensitive.
    #[test]
    fn crash_text_is_total(desc in arbitrary_text(), res in arbitrary_text()) {
        let _ = is_crash_text(&desc, &res);
        // Shuffled word order gives the same verdict (pure bag of words).
        let mut words: Vec<&str> = desc.split_whitespace().collect();
        words.reverse();
        let reversed = words.join(" ");
        prop_assert_eq!(is_crash_text(&desc, &res), is_crash_text(&reversed, &res));
    }

    /// The store indexes every ticket exactly once, in time order.
    #[test]
    fn store_indexing(minutes in prop::collection::vec(0i64..100_000, 1..80)) {
        let tickets: Vec<Ticket> = minutes
            .iter()
            .enumerate()
            .map(|(i, &m)| ticket(i as u32, (i % 7) as u32, m, i % 3 != 0))
            .collect();
        let store = TicketStore::from_tickets(tickets.clone());
        prop_assert_eq!(store.len(), tickets.len());
        // Time iteration is sorted and complete.
        let times: Vec<SimTime> = store.iter_by_time().map(Ticket::opened_at).collect();
        prop_assert_eq!(times.len(), tickets.len());
        for pair in times.windows(2) {
            prop_assert!(pair[0] <= pair[1]);
        }
    }

    /// Incident reconstruction covers every crash ticket exactly once and
    /// groups within the window only.
    #[test]
    fn reconstruction_partitions(minutes in prop::collection::vec(0i64..50_000, 1..60), window_min in 1i64..2000) {
        let tickets: Vec<Ticket> = minutes
            .iter()
            .enumerate()
            .map(|(i, &m)| ticket(i as u32, i as u32, m, true))
            .collect();
        let store = TicketStore::from_tickets(tickets.clone());
        let window = SimDuration::from_minutes(window_min);
        let groups = reconstruct_incidents(&store, window);
        let covered: usize = groups.iter().map(|g| g.tickets.len()).sum();
        prop_assert_eq!(covered, tickets.len());
        // Group spans don't exceed the window, and group starts are ordered.
        for pair in groups.windows(2) {
            prop_assert!(pair[0].at <= pair[1].at);
            prop_assert!(pair[1].at - pair[0].at > window);
        }
        for g in &groups {
            prop_assert!(!g.machines.is_empty());
            prop_assert!(g.size() <= g.tickets.len());
        }
    }
}
