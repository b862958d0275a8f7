//! `stream_replay`: one caller replays a scale-1.0 dataset feed through
//! `StreamEngine`, cycling canonical order and two jittered arrival orders.
//!
//! Feed synthesis and reordering happen at set-up; the timed work is the
//! reorder buffer, the weekly windows and the burst detector, from the
//! first `ingest` through `finish`.

use crate::measure::{
    between_probes, bracket, derive_seed, median, ms_since, probe_ms, raw_and_probe, scaled_median,
    Report, PROBE_REF_MS,
};
use crate::Settings;
use dcfail_model::prelude::*;
use dcfail_obs::ObsHandle;
use dcfail_stats::rng::StreamRng;
use dcfail_stream::{batch_digest, DetectorConfig, FeedEvent, StreamConfig, StreamEngine};
use dcfail_synth::feed::{dataset_feed, reorder_within_slack};
use dcfail_synth::Scenario;
use std::time::Instant;

/// Scenario scale of the replayed dataset.
pub const SCALE: f64 = 1.0;
/// Arrival orders of one cycle: label and jitter (= engine slack) in hours.
const VARIANTS: [(&str, i64); 3] = [("canonical", 0), ("jitter_6h", 6), ("jitter_24h", 24)];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// The replay inputs built at set-up.
struct Feeds {
    dataset: FailureDataset,
    /// One feed per entry of `VARIANTS`, in that order.
    feeds: Vec<Vec<FeedEvent>>,
    build_ms: f64,
    feed_ms: f64,
}

fn setup(seed: u64) -> Feeds {
    let t = Instant::now();
    let dataset = Scenario::paper()
        .seed(seed)
        .scale(SCALE)
        .build()
        .into_dataset();
    let build_ms = ms_since(t);
    let t = Instant::now();
    let canonical = dataset_feed(&dataset);
    let feed_ms = ms_since(t);
    let rng = StreamRng::new(seed).fork("perfbench.stream.reorder");
    let mut feeds = vec![];
    for (i, &(_, hours)) in VARIANTS.iter().enumerate() {
        feeds.push(if hours == 0 {
            canonical.clone()
        } else {
            let mut rng = rng.fork_index("variant", i as u64);
            reorder_within_slack(&canonical, SimDuration::from_hours(hours), &mut rng)
        });
    }
    Feeds {
        dataset,
        feeds,
        build_ms,
        feed_ms,
    }
}

/// One replay's timings and output.
struct Replay {
    ingest_ms: f64,
    finish_ms: f64,
    rejected: u64,
    digest: u64,
    stats: dcfail_stream::StreamStats,
}

fn replay(horizon: Horizon, feed: &[FeedEvent], slack_hours: i64) -> Replay {
    let config = StreamConfig {
        slack: SimDuration::from_hours(slack_hours),
        detector: DetectorConfig::weekly(),
    };
    let mut engine = StreamEngine::new(horizon, config);
    let t = Instant::now();
    let mut rejected = 0;
    for &event in feed {
        if engine.ingest(event).is_err() {
            rejected += 1;
        }
    }
    let ingest_ms = ms_since(t);
    let t = Instant::now();
    let out = engine.finish();
    let finish_ms = ms_since(t);
    Replay {
        ingest_ms,
        finish_ms,
        rejected,
        digest: out.digest(),
        stats: out.stats,
    }
}

pub fn run(settings: &Settings, report: &mut Report) -> Result<(), String> {
    let seed = derive_seed(settings.seed, 0);
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut feed_ms = Vec::new();
    let mut feeds = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first so peak memory holds one copy.
        drop(feeds.take());
        let (built, timed) = between_probes(1, || setup(seed));
        setup_s.push(timed);
        build_ms.push(built.build_ms);
        feed_ms.push(built.feed_ms);
        feeds = Some(built);
    }
    let feeds = feeds.ok_or("no set-up ran")?;
    let horizon = feeds.dataset.horizon();
    let expected = batch_digest(&feeds.dataset);
    let events: usize = feeds.feeds.iter().map(Vec::len).sum();

    report.work("seed", seed);
    report.work("scale", SCALE);
    report.work("machines", feeds.dataset.machines().len());
    report.work("events", feeds.dataset.events().len());
    report.work("tickets", feeds.dataset.tickets().len());
    report.work("feed_events", feeds.feeds[0].len());
    report.work("cycle", VARIANTS.map(|(label, _)| label).join(","));
    report.work("batch_digest", format!("{expected:#018x}"));

    // Warm-up: one untimed cycle.
    for (feed, &(_, hours)) in feeds.feeds.iter().zip(&VARIANTS) {
        replay(horizon, feed, hours);
    }

    // (cycle ms, probe before it, traced) of every cycle.
    let mut timed = Vec::new();
    let (mut ingest, mut finish) = (Vec::new(), Vec::new());
    let (mut peak_buffered, mut windows_closed, mut late) = (0usize, 0u64, 0u64);
    let mut bad = 0usize;
    let window = Instant::now();
    // At least one operation, and one traced/untraced pair when tracing.
    let least = 1 + usize::from(settings.trace);
    let mut i = 0usize;
    while i < least || window.elapsed().as_secs_f64() < settings.seconds {
        let traced = settings.trace && i % 2 == 1;
        let obs = if traced {
            Some(ObsHandle::install().ok_or("the obs window is already taken")?)
        } else {
            None
        };
        let probe = probe_ms(1);
        let mut total_ms = 0.0;
        for (feed, &(label, hours)) in feeds.feeds.iter().zip(&VARIANTS) {
            report.attempted += 1;
            let r = replay(horizon, feed, hours);
            total_ms += r.ingest_ms + r.finish_ms;
            let ok = r.digest == expected && r.rejected == 0 && r.stats.late_events == 0;
            if !ok {
                bad += 1;
                report.failed += 1;
                report.check(
                    format!("replay {label}"),
                    false,
                    format!(
                        "digest {:#018x} (batch {expected:#018x}), {} late events",
                        r.digest, r.stats.late_events
                    ),
                );
            }
            if traced {
                ingest.push(r.ingest_ms);
                finish.push(r.finish_ms);
                peak_buffered = peak_buffered.max(r.stats.peak_buffered);
                windows_closed = r.stats.windows_closed;
                late += r.stats.late_events;
            }
        }
        timed.push((total_ms, probe, obs.map(ObsHandle::finish).is_some()));
        i += 1;
    }
    report.window_peak_rss()?;
    if bad == 0 {
        report.check(
            "stream_equals_batch",
            true,
            format!("every replay digest equals batch_digest {expected:#018x}, no late events"),
        );
    }
    let (cycle_ms, traced_cycle_ms) = bracket(&timed, probe_ms(1));
    report.done("cycles", timed.len());
    report.done("replays", report.attempted);
    report.done("window_s", window.elapsed().as_secs_f64());

    // A few set-ups are too few to average out the noise of scaling each
    // by its own probes: the set-up phase is scaled as one, by the median
    // of all its probes.
    let (setup_raw, setup_probe) = raw_and_probe(&setup_s);
    let setup = setup_raw * PROBE_REF_MS / setup_probe;
    report.named(
        "setup_s",
        setup,
        "s",
        format!(
            "median of {SETUP_REPEATS} set-ups, scaled by {PROBE_REF_MS} ms over the probe \
             median; raw median {setup_raw}, probe median {setup_probe}"
        ),
    );
    if settings.trace {
        report.layer("synth.build_ms", median(&build_ms));
        report.layer("synth.feed_ms", median(&feed_ms));
        report.layer("stream.ingest_ms", median(&ingest));
        report.layer("stream.finish_ms", median(&finish));
        report.layer("stream.peak_buffered", peak_buffered as f64);
        report.layer("stream.windows_closed", windows_closed as f64);
        report.layer("stream.late_events", late as f64);
        report.layer(
            "trace.overhead_pct",
            (scaled_median(&traced_cycle_ms, PROBE_REF_MS)
                / scaled_median(&cycle_ms, PROBE_REF_MS)
                - 1.0)
                * 100.0,
        );
        report.absent(
            "report.fig8_ms",
            "the stream layer keeps the figure curves itself; no report runner runs",
        );
    } else {
        let cycle = scaled_median(&cycle_ms, PROBE_REF_MS);
        let (raw, probe) = raw_and_probe(&cycle_ms);
        let replays = VARIANTS.len() as f64;
        let rate = events as f64 / (cycle / 1e3);
        report.e2e_scaled("setup_s", setup, setup_raw, setup_probe);
        report.e2e_scaled("result_ms", cycle / replays, raw / replays, probe);
        report.e2e_scaled("throughput_per_s", rate, events as f64 / (raw / 1e3), probe);
        report.named(
            "ingest_events_per_s",
            rate,
            "1/s",
            format!(
                "{events} events a cycle over the median of {} cycles scaled to the \
                 {PROBE_REF_MS} ms probe; raw median cycle {raw} ms, probe median {probe}",
                cycle_ms.len(),
            ),
        );
        report.named(
            "replay_ms",
            cycle / replays,
            "ms",
            "scaled median cycle time / 3 replays",
        );
    }
    Ok(())
}
