//! Time-ordered event feeds for the streaming ingest engine.
//!
//! A [`FeedEvent`] stream is the event-at-a-time view of a
//! [`FailureDataset`]: machine attributes announce themselves at the horizon
//! start, weekly usage rollups arrive at their week's start, and failures
//! and tickets arrive at their own timestamps. [`dataset_feed`] derives the
//! canonical (time-ordered) feed; [`reorder_within_slack`] produces a *legal*
//! shuffled arrival order for a given slack bound, for exercising the
//! streaming engine's reorder tolerance.
//!
//! The canonical order is a total order: events are sorted by timestamp with
//! deterministic tie-breaking (payload rank, then machine, then week), and
//! each event carries its canonical position as `seq`. Any consumer that
//! re-sorts a reordered feed by `(at, seq)` recovers the canonical feed
//! byte-for-byte — which is exactly what `dcfail-stream`'s reorder buffer
//! does.

use dcfail_model::prelude::*;
use dcfail_stats::rng::StreamRng;

/// One event of a streaming feed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedEvent {
    /// When the event happened (the stream's logical clock).
    pub at: SimTime,
    /// Canonical position in the time-ordered feed; ties in `at` are broken
    /// by `seq`, making `(at, seq)` a total order over the feed.
    pub seq: u64,
    /// What happened.
    pub payload: FeedPayload,
}

/// The payload of a [`FeedEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeedPayload {
    /// A machine announcing its week-invariant attributes, emitted at the
    /// horizon start before any other event of that machine.
    Attrs {
        /// The machine.
        machine: MachineId,
        /// Physical or virtual.
        kind: MachineKind,
        /// Mean consolidation level over the year (VMs with telemetry).
        consolidation: Option<f64>,
        /// Monthly on/off transition rate (VMs with an on/off log covering
        /// a non-degenerate window).
        onoff_rate: Option<f64>,
    },
    /// One machine-week usage rollup, emitted at the week's start.
    Usage {
        /// The machine.
        machine: MachineId,
        /// Physical or virtual.
        kind: MachineKind,
        /// Observation-week index within the horizon.
        week: usize,
        /// CPU utilization percent.
        cpu: f64,
        /// Memory utilization percent.
        mem: f64,
        /// Disk-space utilization percent.
        disk: f64,
        /// Network volume in Kbps.
        net: f64,
    },
    /// A failure event on a machine.
    Failure {
        /// The failing machine.
        machine: MachineId,
    },
    /// A problem ticket opened against a machine.
    Ticket {
        /// The ticketed machine.
        machine: MachineId,
    },
}

impl FeedPayload {
    /// Tie-break rank at equal timestamps: attributes before usage before
    /// failures before tickets, so that state-establishing events always
    /// precede the events that consume that state.
    fn rank(&self) -> u8 {
        match self {
            Self::Attrs { .. } => 0,
            Self::Usage { .. } => 1,
            Self::Failure { .. } => 2,
            Self::Ticket { .. } => 3,
        }
    }

    fn machine(&self) -> MachineId {
        match self {
            Self::Attrs { machine, .. }
            | Self::Usage { machine, .. }
            | Self::Failure { machine }
            | Self::Ticket { machine } => *machine,
        }
    }

    fn week(&self) -> usize {
        match self {
            Self::Usage { week, .. } => *week,
            _ => 0,
        }
    }
}

/// Derives the canonical time-ordered feed of a dataset.
///
/// Failures and tickets outside the observation horizon are dropped — the
/// batch figure paths ignore them too, so the feed carries exactly the
/// events a streamed run needs to reproduce the batch figures.
pub fn dataset_feed(dataset: &FailureDataset) -> Vec<FeedEvent> {
    let horizon = dataset.horizon();
    let telemetry = dataset.telemetry();
    // One bulk pass over the on/off logs (sorted by machine id), instead of
    // a per-machine monthly_transition_rate call.
    let onoff_rates = telemetry.monthly_transition_rates();
    let in_horizon = |at| horizon.week_of(at).is_some();
    let weeks = horizon.num_weeks();
    let usage_weeks: usize = (dataset.machines().iter())
        .filter_map(|m| telemetry.usage(m.id()))
        .map(|series| series.len().min(weeks))
        .sum();
    let events = dataset.events().iter().filter(|e| in_horizon(e.at()));
    let tickets = dataset
        .tickets()
        .iter()
        .filter(|t| in_horizon(t.opened_at()));
    // Sized exactly, so the feed holds no growth slack.
    let mut feed: Vec<FeedEvent> = Vec::with_capacity(
        dataset.machines().len() + usage_weeks + events.clone().count() + tickets.clone().count(),
    );

    for m in dataset.machines() {
        let onoff_rate = onoff_rates
            .binary_search_by_key(&m.id(), |&(id, _)| id)
            .ok()
            .map(|i| onoff_rates[i].1);
        feed.push(FeedEvent {
            at: horizon.start(),
            seq: 0,
            payload: FeedPayload::Attrs {
                machine: m.id(),
                kind: m.kind(),
                consolidation: telemetry.mean_consolidation(m.id()),
                onoff_rate,
            },
        });
        if let Some(weeks) = telemetry.usage(m.id()) {
            for (week, u) in weeks.iter().enumerate().take(horizon.num_weeks()) {
                feed.push(FeedEvent {
                    at: horizon.start() + SimDuration::from_days(7 * week as i64),
                    seq: 0,
                    payload: FeedPayload::Usage {
                        machine: m.id(),
                        kind: m.kind(),
                        week,
                        cpu: f64::from(u.cpu_pct),
                        mem: f64::from(u.mem_pct),
                        disk: f64::from(u.disk_pct),
                        net: f64::from(u.net_kbps),
                    },
                });
            }
        }
    }
    for ev in events {
        feed.push(FeedEvent {
            at: ev.at(),
            seq: 0,
            payload: FeedPayload::Failure {
                machine: ev.machine(),
            },
        });
    }
    for t in tickets {
        feed.push(FeedEvent {
            at: t.opened_at(),
            seq: 0,
            payload: FeedPayload::Ticket {
                machine: t.machine(),
            },
        });
    }

    feed.sort_by_key(|e| {
        (
            e.at,
            e.payload.rank(),
            e.payload.machine(),
            e.payload.week(),
        )
    });
    for (i, e) in feed.iter_mut().enumerate() {
        e.seq = i as u64;
    }
    feed
}

/// Shuffles a canonical feed into a *legal* arrival order for `slack`: each
/// event is delayed by an independent jitter in `[0, slack]` and the feed is
/// re-sorted by jittered time. The result provably satisfies the streaming
/// lateness bound — when an event arrives, every earlier arrival has a
/// jittered key at most the event's own, so no arrival's true time precedes
/// the high-water mark by more than `slack`.
pub fn reorder_within_slack(
    feed: &[FeedEvent],
    slack: SimDuration,
    rng: &mut StreamRng,
) -> Vec<FeedEvent> {
    let slack_minutes = slack.as_minutes().max(0);
    let mut keyed: Vec<(SimTime, u64, &FeedEvent)> = feed
        .iter()
        .map(|e| {
            let jitter = rng.below(slack_minutes as usize + 1) as i64;
            (e.at + SimDuration::from_minutes(jitter), e.seq, e)
        })
        .collect();
    keyed.sort_by_key(|&(key, seq, _)| (key, seq));
    keyed.into_iter().map(|(_, _, e)| *e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    fn dataset() -> FailureDataset {
        Scenario::paper()
            .seed(11)
            .scale(0.01)
            .build()
            .into_dataset()
    }

    #[test]
    fn feed_is_canonically_ordered_and_dense() {
        let ds = dataset();
        let feed = dataset_feed(&ds);
        assert!(!feed.is_empty());
        for (i, e) in feed.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "seq is the canonical position");
        }
        for pair in feed.windows(2) {
            assert!(pair[0].at <= pair[1].at, "timestamps are non-decreasing");
        }
        // Every machine announces attributes exactly once, at the start.
        let attrs = feed
            .iter()
            .filter(|e| matches!(e.payload, FeedPayload::Attrs { .. }))
            .count();
        assert_eq!(attrs, ds.machines().len());
        assert!(feed[..attrs]
            .iter()
            .all(|e| matches!(e.payload, FeedPayload::Attrs { .. })));
        // Usage events cover every machine-week with telemetry.
        let usage = feed
            .iter()
            .filter(|e| matches!(e.payload, FeedPayload::Usage { .. }))
            .count();
        let expected: usize = ds
            .machines()
            .iter()
            .filter_map(|m| ds.telemetry().usage(m.id()))
            .map(|w| w.len().min(ds.horizon().num_weeks()))
            .sum();
        assert_eq!(usage, expected);
    }

    #[test]
    fn reorder_is_a_permutation_and_respects_the_lateness_bound() {
        let ds = dataset();
        let feed = dataset_feed(&ds);
        let slack = SimDuration::from_minutes(720);
        let mut rng = StreamRng::new(9).fork("feed.reorder");
        let shuffled = reorder_within_slack(&feed, slack, &mut rng);
        assert_eq!(shuffled.len(), feed.len());
        assert_ne!(shuffled, feed, "a half-day slack should actually shuffle");
        // Permutation: sorting by seq recovers the canonical feed.
        let mut back = shuffled.clone();
        back.sort_by_key(|e| e.seq);
        assert_eq!(back, feed);
        // Lateness bound: no event's true time precedes the running
        // high-water mark by more than the slack.
        let mut high_water = SimTime::from_minutes(i64::MIN / 2);
        for e in &shuffled {
            assert!(e.at + slack >= high_water, "arrival violates slack bound");
            high_water = high_water.max(e.at);
        }
    }

    #[test]
    fn zero_slack_reorder_is_the_canonical_feed() {
        let ds = dataset();
        let feed = dataset_feed(&ds);
        let mut rng = StreamRng::new(1);
        let same = reorder_within_slack(&feed, SimDuration::ZERO, &mut rng);
        assert_eq!(same, feed);
    }
}
