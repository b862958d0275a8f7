//! Property test for the stream==batch contract: *any* legal reordering at
//! *any* slack reproduces the batch digest exactly.

#![allow(clippy::unwrap_used)]

use dcfail_model::prelude::*;
use dcfail_stats::rng::StreamRng;
use dcfail_stream::{batch_digest, StreamConfig, StreamEngine};
use dcfail_synth::feed::{dataset_feed, reorder_within_slack, FeedEvent};
use dcfail_synth::Scenario;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One dataset for every case: the property varies the *arrival order*, not
/// the trace. (Thread count is deliberately not varied here — the override
/// is process-global; `tests/golden_stream.rs` sweeps it sequentially.)
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

fn reference_digest() -> u64 {
    static DIGEST: OnceLock<u64> = OnceLock::new();
    *DIGEST.get_or_init(|| batch_digest(dataset()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary slack (zero to two weeks) and arbitrary jitter seed: the
    /// streamed digest equals the batch digest, nothing arrives late, and
    /// every event is applied.
    #[test]
    fn any_legal_reordering_reproduces_the_batch_digest(
        slack_minutes in 0i64..20_160,
        jitter_seed in 0u64..1_000_000,
    ) {
        let slack = SimDuration::from_minutes(slack_minutes);
        let mut rng = StreamRng::new(jitter_seed).fork("stream.proptest.jitter");
        let shuffled = reorder_within_slack(feed(), slack, &mut rng);
        let mut engine = StreamEngine::new(
            dataset().horizon(),
            StreamConfig {
                slack,
                ..StreamConfig::default()
            },
        );
        for ev in shuffled {
            engine.ingest(ev).expect("reordering within slack is never late");
        }
        let out = engine.finish();
        prop_assert_eq!(
            out.digest(),
            reference_digest(),
            "slack {} min, jitter seed {} diverged",
            slack_minutes,
            jitter_seed
        );
        prop_assert_eq!(out.stats.late_events, 0);
        prop_assert_eq!(out.stats.events_applied, feed().len() as u64);
        prop_assert_eq!(
            out.stats.events_ingested,
            out.stats.events_applied + out.stats.late_events + out.stats.duplicate_seq
        );
    }
}
