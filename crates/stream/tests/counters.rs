//! The reorder buffer's work counters, read from the obs export: the same
//! at every thread count, and zero where no bucket needs reordering. A
//! test binary of its own, so its obs window is the only one.

#![allow(clippy::unwrap_used)]

use dcfail_model::prelude::*;
use dcfail_stats::rng::StreamRng;
use dcfail_stream::{batch_digest, StreamConfig, StreamEngine};
use dcfail_synth::feed::{dataset_feed, reorder_within_slack};
use dcfail_synth::Scenario;

/// Buckets put in `seq` order by offset placement and by the key sort, and
/// the arrivals in them.
const WORK: [&str; 4] = [
    "stream.buckets_placed",
    "stream.arrivals_placed",
    "stream.buckets_sorted",
    "stream.arrivals_sorted",
];

/// The work counters of one replay of `dataset`'s feed, scrambled within
/// `slack` minutes, at `threads`.
fn work(dataset: &FailureDataset, slack: i64, threads: usize) -> [u64; 4] {
    dcfail_par::set_thread_override(Some(threads));
    let mut feed = dataset_feed(dataset);
    if slack > 0 {
        let mut rng = StreamRng::new(42).fork_index("counters.reorder", slack as u64);
        feed = reorder_within_slack(&feed, SimDuration::from_minutes(slack), &mut rng);
    }
    let config = StreamConfig {
        slack: SimDuration::from_minutes(slack),
        ..StreamConfig::default()
    };
    let handle = dcfail_obs::ObsHandle::install().expect("the only obs window");
    let mut engine = StreamEngine::new(dataset.horizon(), config);
    for event in feed {
        engine.ingest(event).unwrap();
    }
    let out = engine.finish();
    let report = handle.finish();
    assert_eq!(out.digest(), batch_digest(dataset), "slack {slack} min");
    WORK.map(|name| {
        let counter = report.counters.iter().find(|c| c.name == name);
        counter.unwrap_or_else(|| panic!("no {name} counter")).value
    })
}

#[test]
fn work_counters_match_across_threads_and_read_zero_where_nothing_reorders() {
    let ambient = dcfail_par::thread_override();
    let dataset = Scenario::paper()
        .seed(42)
        .scale(0.05)
        .build()
        .into_dataset();
    for slack in [0, 360, 1440] {
        let counters = work(&dataset, slack, 1);
        assert_eq!(work(&dataset, slack, 2), counters, "slack {slack} min");
        let [placed, placed_arrivals, sorted, sorted_arrivals] = counters;
        // Every bucket of a `dataset_feed` feed is dense in `seq`.
        assert_eq!((sorted, sorted_arrivals), (0, 0), "slack {slack} min");
        if slack == 0 {
            assert_eq!((placed, placed_arrivals), (0, 0), "canonical order");
        } else {
            assert!(placed > 0 && placed_arrivals > placed, "slack {slack} min");
        }
    }
    dcfail_par::set_thread_override(ambient);
}
