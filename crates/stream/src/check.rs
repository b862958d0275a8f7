//! The replay check behind `repro stream`.
//!
//! [`replay_check`] streams the paper scenario's event feed, scrambled
//! within the slack, through a [`StreamEngine`] and holds the result to the
//! determinism contract: the digest equals [`batch_digest`] and every
//! arrival is applied, none late. It prints nothing; the caller reads the
//! [`ReplayCheck`] summary, which is also `repro stream --json`'s document.

use crate::{batch_digest, Alert, StreamConfig, StreamEngine, StreamError, StreamStats};
use dcfail_stats::rng::StreamRng;
use dcfail_synth::feed::{dataset_feed, reorder_within_slack};
use dcfail_synth::Scenario;
use serde::Serialize;

/// What one replay check saw.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReplayCheck {
    /// Scenario seed; it also seeds the arrival scramble.
    pub seed: u64,
    /// Scenario scale.
    pub scale: f64,
    /// The engine's slack, within which the feed was scrambled.
    pub slack_minutes: i64,
    /// Arrivals per second of wall-clock over the ingest loop and `finish`.
    pub events_per_sec: f64,
    /// Digest of the streamed figures.
    pub digest: u64,
    /// Digest of the batch pipeline's figures; absent when the replay was
    /// capped, because batch saw the whole horizon.
    pub batch_digest: Option<u64>,
    /// The engine's counters.
    pub stats: StreamStats,
    /// The burst detector's alerts, in window-close order.
    pub alerts: Vec<Alert>,
}

impl ReplayCheck {
    /// The first broken rule of the contract, `None` when it holds. A
    /// method rather than a field: the summary serializes as the document
    /// of `repro stream --json`, which carries the facts, not the verdict.
    pub fn failure(&self) -> Option<&'static str> {
        let stats = &self.stats;
        if self.batch_digest.is_some_and(|batch| batch != self.digest) {
            Some("stream digest diverged from batch")
        } else if stats.events_applied != stats.events_ingested || stats.late_events != 0 {
            Some("events were dropped or late in a legal replay")
        } else {
            None
        }
    }
}

/// Replays the paper scenario at `seed` and `scale` under `config`.
///
/// A positive slack scrambles the canonical feed within it on the
/// `repro.stream.reorder` fork of `seed`. `cap` truncates the scrambled
/// feed (throughput runs); a cap below the feed's length skips the batch
/// digest.
///
/// # Errors
///
/// The engine refused an arrival: the scramble broke the slack bound.
pub fn replay_check(
    seed: u64,
    scale: f64,
    config: StreamConfig,
    cap: Option<usize>,
) -> Result<ReplayCheck, StreamError> {
    let dataset = Scenario::paper()
        .seed(seed)
        .scale(scale)
        .build()
        .into_dataset();
    let mut feed = dataset_feed(&dataset);
    if config.slack.as_minutes() > 0 {
        let mut rng = StreamRng::new(seed).fork("repro.stream.reorder");
        feed = reorder_within_slack(&feed, config.slack, &mut rng);
    }
    let capped = cap.is_some_and(|n| n < feed.len());
    feed.truncate(cap.unwrap_or(usize::MAX));

    let mut engine = StreamEngine::new(dataset.horizon(), config);
    // dlint::allow(D03): throughput of the replay only; never reaches the digest
    let start = std::time::Instant::now();
    for event in feed {
        engine.ingest(event)?;
    }
    let out = engine.finish();
    let elapsed_s = start.elapsed().as_secs_f64();
    Ok(ReplayCheck {
        seed,
        scale,
        slack_minutes: config.slack.as_minutes(),
        events_per_sec: out.stats.events_ingested as f64 / elapsed_s.max(1e-9),
        digest: out.digest(),
        batch_digest: (!capped).then(|| batch_digest(&dataset)),
        stats: out.stats,
        alerts: out.alerts,
    })
}
