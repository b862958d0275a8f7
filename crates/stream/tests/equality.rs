//! The stream==batch determinism contract, pinned as tests.
//!
//! A streamed run over a horizon must produce byte-identical figures and
//! digests to the batch run on the same horizon — at any thread count and
//! any legal arrival reordering within the slack bound. The workspace's
//! front-door harness (`tests/front_doors.rs`) compares the figures over
//! drawn seeds, scales, slacks and thread counts; the tests here pin the
//! replay check, late events, alert order, the memory bound and the
//! engine's counters.

#![allow(clippy::unwrap_used)]

use dcfail_model::prelude::*;
use dcfail_stats::rng::StreamRng;
use dcfail_stream::{
    batch_digest, replay_check, StreamConfig, StreamEngine, StreamError, StreamOutput, StreamStats,
};
use dcfail_synth::feed::{dataset_feed, reorder_within_slack, FeedEvent};
use dcfail_synth::Scenario;
use std::sync::OnceLock;

fn dataset() -> &'static FailureDataset {
    static DATASET: OnceLock<FailureDataset> = OnceLock::new();
    DATASET.get_or_init(|| {
        Scenario::paper()
            .seed(42)
            .scale(0.02)
            .build()
            .into_dataset()
    })
}

fn feed() -> &'static Vec<FeedEvent> {
    static FEED: OnceLock<Vec<FeedEvent>> = OnceLock::new();
    FEED.get_or_init(|| dataset_feed(dataset()))
}

/// Every arrival is applied, rejected as late, or replaced as a duplicate.
fn assert_accounted(stats: &StreamStats) {
    assert_eq!(
        stats.events_ingested,
        stats.events_applied + stats.late_events + stats.duplicate_seq,
        "{stats:?}"
    );
}

fn stream_run(events: &[FeedEvent], slack_minutes: i64) -> StreamOutput {
    let config = StreamConfig {
        slack: SimDuration::from_minutes(slack_minutes),
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(dataset().horizon(), config);
    for ev in events {
        engine.ingest(*ev).expect("legal feed is never late");
    }
    engine.finish()
}

/// The replay check behind `repro stream`, at CI's three slacks: canonical,
/// six hours and one week of scramble on the check's own fork.
#[test]
fn replay_check_holds_at_every_ci_slack() {
    for slack in [0i64, 360, 10_080] {
        let config = StreamConfig {
            slack: SimDuration::from_minutes(slack),
            ..StreamConfig::default()
        };
        let check = replay_check(42, 0.02, config, None).expect("a legal scramble is never late");
        assert_eq!(check.failure(), None, "slack {slack} min");
        assert_eq!(check.slack_minutes, slack);
        assert_eq!(check.digest, batch_digest(dataset()), "slack {slack} min");
        assert_eq!(check.batch_digest, Some(check.digest));
        assert_eq!(check.stats.events_ingested, feed().len() as u64);
        assert_eq!(check.stats.late_events, 0);
        assert_accounted(&check.stats);
    }
}

#[test]
fn a_capped_replay_skips_the_batch_gate_and_the_verdict_reads_the_counts() {
    let mut check = replay_check(42, 0.02, StreamConfig::default(), Some(1_000)).unwrap();
    assert_eq!(
        (check.batch_digest, check.stats.events_ingested),
        (None, 1_000)
    );
    assert_eq!(check.failure(), None);
    check.batch_digest = Some(check.digest ^ 1);
    assert_eq!(check.failure(), Some("stream digest diverged from batch"));
    check.batch_digest = Some(check.digest);
    check.stats.events_applied -= 1;
    let dropped = Some("events were dropped or late in a legal replay");
    assert_eq!(check.failure(), dropped);
}

#[test]
fn genuinely_late_events_are_rejected_and_counted() {
    let config = StreamConfig {
        slack: SimDuration::from_minutes(0),
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(dataset().horizon(), config);
    let events = feed();
    // Ingest a prefix, then replay the very first event: its slot is long
    // gone.
    for ev in &events[..1000] {
        engine.ingest(*ev).unwrap();
    }
    let err = engine.ingest(events[0]).unwrap_err();
    assert!(matches!(err, StreamError::LateEvent { .. }));
    assert!(err.to_string().contains("late event"));
    assert_eq!(engine.stats().late_events, 1);
    assert_accounted(&engine.finish().stats);
}

#[test]
fn alerts_are_deterministic_under_reordering() {
    let reference = stream_run(feed(), 0);
    for case in 0..3u64 {
        let mut rng = StreamRng::new(11).fork_index("equality.alerts", case);
        let shuffled = reorder_within_slack(feed(), SimDuration::from_minutes(1440), &mut rng);
        let out = stream_run(&shuffled, 1440);
        assert_eq!(out.alerts, reference.alerts, "case {case}");
        assert_accounted(&out.stats);
    }
    // Alerts arrive in window-close order.
    for pair in reference.alerts.windows(2) {
        assert!(pair[0].week < pair[1].week);
    }
}

#[test]
fn memory_stays_bounded_by_the_slack() {
    // With a one-hour slack the reorder buffer never holds more than the
    // events of a couple of timestamps, and open windows never exceed
    // two (the week being filled plus the week awaiting its close).
    let mut rng = StreamRng::new(5).fork("equality.memory");
    let shuffled = reorder_within_slack(feed(), SimDuration::from_minutes(60), &mut rng);
    let out = stream_run(&shuffled, 60);
    assert_eq!(out.digest(), batch_digest(dataset()));
    assert_accounted(&out.stats);
    assert!(
        out.stats.peak_open_windows <= 2,
        "peak open windows {}",
        out.stats.peak_open_windows
    );
    // The buffer high-water mark is a small fraction of the feed: memory is
    // O(slack), not O(horizon).
    assert!(
        out.stats.peak_buffered < feed().len() / 10,
        "peak buffered {} of {}",
        out.stats.peak_buffered,
        feed().len()
    );
}

/// The pinned `StreamStats` fields by name. A field added later is checked
/// by its own tests, so adding one does not move the pin.
fn pinned_stats(out: &StreamOutput) -> [(&'static str, u64); 12] {
    let s = &out.stats;
    [
        ("events_ingested", s.events_ingested),
        ("events_applied", s.events_applied),
        ("late_events", s.late_events),
        ("duplicate_attrs", s.duplicate_attrs),
        ("duplicate_usage", s.duplicate_usage),
        ("machines", s.machines),
        ("failures", s.failures),
        ("tickets", s.tickets),
        ("windows_opened", s.windows_opened),
        ("windows_closed", s.windows_closed),
        ("peak_buffered", s.peak_buffered as u64),
        ("peak_open_windows", s.peak_open_windows as u64),
    ]
}

/// Each alert as `(week, at minutes, observed, expected bits, score bits)`.
fn pinned_alerts(out: &StreamOutput) -> Vec<(usize, i64, u64, u64, u64)> {
    out.alerts
        .iter()
        .map(|a| {
            (
                a.week,
                a.at.as_minutes(),
                a.observed,
                a.expected.to_bits(),
                a.score.to_bits(),
            )
        })
        .collect()
}

/// The engine's full output on the seed-42 feed, pinned per arrival order
/// as `(slack minutes, peak_buffered, peak_open_windows)`; every other
/// pinned field is the same in all three orders.
const PINNED_ORDERS: [(i64, u64, u64); 3] = [(0, 375, 1), (360, 377, 2), (1440, 380, 2)];

/// The one alert of the seed-42 feed: week 17 (ending at minute 181,440),
/// 9 failures against a baseline of 1.125, score 7.625.
const PINNED_ALERTS: [(usize, i64, u64, u64, u64); 1] =
    [(17, 181_440, 9, 0x3ff2_0000_0000_0000, 0x401e_8000_0000_0000)];

#[test]
fn stats_and_alerts_match_the_pin_in_every_arrival_order() {
    for (case, (slack, peak_buffered, peak_open_windows)) in (0u64..).zip(PINNED_ORDERS) {
        let events = if slack == 0 {
            feed().clone()
        } else {
            let mut rng = StreamRng::new(42).fork_index("equality.golden", case);
            reorder_within_slack(feed(), SimDuration::from_minutes(slack), &mut rng)
        };
        let out = stream_run(&events, slack);
        assert_eq!(
            pinned_stats(&out),
            [
                ("events_ingested", 12_332),
                ("events_applied", 12_332),
                ("late_events", 0),
                ("duplicate_attrs", 0),
                ("duplicate_usage", 0),
                ("machines", 187),
                ("failures", 37),
                ("tickets", 2_384),
                ("windows_opened", 52),
                ("windows_closed", 52),
                ("peak_buffered", peak_buffered),
                ("peak_open_windows", peak_open_windows),
            ],
            "slack {slack} min"
        );
        assert_eq!(pinned_alerts(&out), PINNED_ALERTS, "slack {slack} min");
    }
}
