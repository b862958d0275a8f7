//! Crash-ticket extraction and incident reconstruction.
//!
//! The paper's first processing step: "Out of the tens of thousands of
//! problem tickets gathered, we extract crash tickets which are associated
//! with the underlying PMs and VMs being unresponsive or unreachable."
//! [`is_crash_text`] does that from text alone; [`reconstruct_incidents`]
//! then groups crash tickets that struck together — the basis of the spatial
//! dependency analysis when no explicit incident ids exist.

use crate::classify::text_of;
use crate::store::TicketStore;
use dcfail_model::prelude::*;
use dcfail_stats::text::tokenize;

/// Tokens indicating the machine itself was down (crash evidence). The
/// vague words ("issue", "problem", "incident") carry low precision on
/// their own but are what degraded crash tickets offer; the routine
/// counter-evidence keeps them in check.
const CRASH_WORDS: [&str; 23] = [
    "issue",
    "problem",
    "incident",
    "escalated",
    "alert",
    "unreachable",
    "unresponsive",
    "down",
    "crash",
    "crashed",
    "outage",
    "reboot",
    "rebooted",
    "restart",
    "restarted",
    "hang",
    "frozen",
    "panic",
    "offline",
    "powered",
    "isolated",
    "dropped",
    "cycled",
];

/// Tokens indicating routine non-crash work (counter-evidence).
const ROUTINE_WORDS: [&str; 12] = [
    "request",
    "threshold",
    "renewal",
    "approval",
    "password",
    "backup",
    "certificate",
    "granted",
    "patching",
    "capacity",
    "heartbeat",
    "logrotate",
];

/// Decides from text whether a ticket records a server crash.
pub fn is_crash_text(description: &str, resolution: &str) -> bool {
    let mut crash = 0i32;
    let mut routine = 0i32;
    for token in tokenize(description)
        .iter()
        .chain(tokenize(resolution).iter())
    {
        if CRASH_WORDS.contains(&token.as_str()) {
            crash += 1;
        }
        if ROUTINE_WORDS.contains(&token.as_str()) {
            routine += 1;
        }
    }
    crash > routine
}

/// Extraction quality against the ticketing system's own crash flags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtractionReport {
    /// Tickets classified as crashes by the text filter.
    pub extracted: usize,
    /// True crash tickets found (true positives).
    pub true_positives: usize,
    /// Non-crash tickets wrongly extracted (false positives).
    pub false_positives: usize,
    /// Crash tickets missed (false negatives).
    pub false_negatives: usize,
}

impl ExtractionReport {
    /// Precision of the extraction.
    pub fn precision(&self) -> f64 {
        if self.extracted == 0 {
            return 0.0;
        }
        self.true_positives as f64 / self.extracted as f64
    }

    /// Recall of the extraction.
    pub fn recall(&self) -> f64 {
        let actual = self.true_positives + self.false_negatives;
        if actual == 0 {
            return 0.0;
        }
        self.true_positives as f64 / actual as f64
    }
}

/// Extracts crash tickets from a store by text, reporting quality against
/// the stored crash flags.
pub fn extract_crash_tickets(store: &TicketStore) -> (Vec<TicketId>, ExtractionReport) {
    let mut extracted = Vec::new();
    let mut report = ExtractionReport {
        extracted: 0,
        true_positives: 0,
        false_positives: 0,
        false_negatives: 0,
    };
    for t in store.iter_by_time() {
        let (description, resolution) = text_of(store.texts(), t);
        let predicted = is_crash_text(description, resolution);
        match (predicted, t.is_crash()) {
            (true, true) => {
                report.true_positives += 1;
                extracted.push(t.id());
            }
            (true, false) => {
                report.false_positives += 1;
                extracted.push(t.id());
            }
            (false, true) => report.false_negatives += 1,
            (false, false) => {}
        }
    }
    report.extracted = extracted.len();
    (extracted, report)
}

/// A reconstructed failure incident: crash tickets that struck together.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructedIncident {
    /// Tickets grouped into this incident, in time order.
    pub tickets: Vec<TicketId>,
    /// Machines affected.
    pub machines: Vec<MachineId>,
    /// Earliest opening time in the group.
    pub at: SimTime,
}

impl ReconstructedIncident {
    /// Number of distinct machines involved.
    pub fn size(&self) -> usize {
        self.machines.len()
    }
}

/// Groups crash tickets into incidents: tickets opened within `window` of
/// the group's start belong together. This is the time-proximity heuristic a
/// study must fall back on when the ticketing system assigns no incident
/// ids.
pub fn reconstruct_incidents(
    store: &TicketStore,
    window: SimDuration,
) -> Vec<ReconstructedIncident> {
    let mut out: Vec<ReconstructedIncident> = Vec::new();
    for t in store.crash_tickets() {
        let fits_last = out.last().is_some_and(|g| t.opened_at() - g.at <= window);
        if fits_last {
            let g = out.last_mut().expect("checked non-empty");
            g.tickets.push(t.id());
            if !g.machines.contains(&t.machine()) {
                g.machines.push(t.machine());
            }
        } else {
            out.push(ReconstructedIncident {
                tickets: vec![t.id()],
                machines: vec![t.machine()],
                at: t.opened_at(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcfail_model::failure::FailureClass;
    use dcfail_model::time::{HOUR, MINUTE};

    #[test]
    fn crash_text_detection() {
        assert!(is_crash_text(
            "server unreachable ping timeout",
            "switch port reset"
        ));
        assert!(is_crash_text(
            "unexpected reboot server restarted",
            "back online"
        ));
        assert!(!is_crash_text(
            "disk space threshold warning",
            "cleaned old files"
        ));
        assert!(!is_crash_text(
            "password reset request",
            "password reset completed user notified"
        ));
        assert!(!is_crash_text("", ""));
    }

    /// Ids of [`empty_store`]'s texts.
    const CRASHED: TextId = TextId::new(0);
    const RESTORED: TextId = TextId::new(1);
    const BACKUP: TextId = TextId::new(2);
    const GRANTED: TextId = TextId::new(3);

    /// A store with no tickets yet and the texts of the ticket helpers.
    fn empty_store() -> TicketStore {
        let mut texts = TextTable::default();
        for text in [
            "server unreachable crashed",
            "restored",
            "backup request threshold",
            "approval granted",
        ] {
            texts.push(text);
        }
        TicketStore::new(std::sync::Arc::new(texts), Vec::new())
    }

    fn crash_ticket(id: u32, machine: u32, at: SimTime) -> Ticket {
        Ticket::new(
            TicketId::new(id),
            MachineId::new(machine),
            TicketKind::Crash,
            Some(IncidentId::new(0)),
            at,
            at + HOUR,
            CRASHED,
            RESTORED,
            Some(FailureClass::Other),
        )
    }

    fn routine_ticket(id: u32, at: SimTime) -> Ticket {
        Ticket::new(
            TicketId::new(id),
            MachineId::new(0),
            TicketKind::NonCrash,
            None,
            at,
            at + HOUR,
            BACKUP,
            GRANTED,
            None,
        )
    }

    #[test]
    fn extraction_report_quality() {
        let mut store = empty_store();
        for i in 0..50 {
            store.add(crash_ticket(i, i, SimTime::from_days(i as i64)));
        }
        for i in 50..100 {
            store.add(routine_ticket(i, SimTime::from_days(i as i64)));
        }
        let (ids, report) = extract_crash_tickets(&store);
        assert_eq!(ids.len(), 50);
        assert_eq!(report.true_positives, 50);
        assert_eq!(report.false_positives, 0);
        assert_eq!(report.false_negatives, 0);
        assert_eq!(report.precision(), 1.0);
        assert_eq!(report.recall(), 1.0);
    }

    #[test]
    fn extraction_on_simulated_data_is_accurate() {
        let dataset = dcfail_synth::Scenario::paper()
            .seed(11)
            .scale(0.02)
            .build()
            .into_dataset();
        let store = TicketStore::from_dataset(&dataset);
        let (_, report) = extract_crash_tickets(&store);
        assert!(report.precision() > 0.8, "precision {}", report.precision());
        assert!(report.recall() > 0.6, "recall {}", report.recall());
    }

    #[test]
    fn reconstruction_groups_co_occurring_tickets() {
        let mut store = empty_store();
        let t0 = SimTime::from_days(10);
        // Three tickets within 10 minutes: one incident.
        store.add(crash_ticket(0, 1, t0));
        store.add(crash_ticket(1, 2, t0 + MINUTE * 5));
        store.add(crash_ticket(2, 3, t0 + MINUTE * 10));
        // A later singleton.
        store.add(crash_ticket(3, 4, t0 + HOUR * 24));
        // Duplicate machine within a group collapses.
        store.add(crash_ticket(4, 4, t0 + HOUR * 24 + MINUTE));

        let groups = reconstruct_incidents(&store, MINUTE * 30);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].size(), 3);
        assert_eq!(groups[0].tickets.len(), 3);
        assert_eq!(groups[1].size(), 1);
        assert_eq!(groups[1].tickets.len(), 2);
        assert_eq!(groups[0].at, t0);
    }

    #[test]
    fn reconstruction_of_empty_store_is_empty() {
        assert!(reconstruct_incidents(&empty_store(), MINUTE).is_empty());
    }

    #[test]
    fn empty_report_has_zero_scores() {
        let r = ExtractionReport {
            extracted: 0,
            true_positives: 0,
            false_positives: 0,
            false_negatives: 0,
        };
        assert_eq!(r.precision(), 0.0);
        assert_eq!(r.recall(), 0.0);
    }
}
