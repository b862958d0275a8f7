//! The one traced pipeline behind `repro metrics` and `repro bench`.
//!
//! [`run`] drives every stage once: synth and audit, chaos injection and
//! recovery, ticket classification, every report runner, then a streamed
//! replay of the same dataset. It returns the run's settings and sizes and
//! nothing else. Every duration lives in the `dcfail-obs` spans the stages
//! record, so the caller opens the collection window and reads its numbers
//! from the window's `MetricsReport`. Printing, exporting and gating all
//! read the same spans.

use dcfail_audit::recover::recover_raw;
use dcfail_chaos::{inject, InjectionPlan};
use dcfail_report::experiments::{run_all, RunConfig};
use dcfail_stats::rng::StreamRng;
use dcfail_stream::{StreamConfig, StreamEngine};
use dcfail_synth::feed::dataset_feed;
use dcfail_synth::Scenario;
use dcfail_tickets::classify::{apply_to_dataset, PipelineConfig};

/// The span around the stream replay: every `ingest` of the feed and the
/// closing `finish`. Building the feed is outside it.
pub const REPLAY_SPAN: &str = "stream.replay";

/// The settings and sizes of one [`run`]. Its timings are the spans it
/// recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineRun {
    /// Scenario seed.
    pub seed: u64,
    /// Scenario scale.
    pub scale: f64,
    /// Worker threads the parallel runtime resolved for the run.
    pub threads: usize,
    /// Machines in the built dataset.
    pub machines: usize,
    /// Failure events in the built dataset.
    pub events: usize,
    /// Incidents in the built dataset.
    pub incidents: usize,
    /// Tickets in the built dataset.
    pub tickets: usize,
    /// Events in the replayed feed.
    pub feed_events: u64,
}

/// Runs the whole pipeline once for the paper scenario at `seed`/`scale`,
/// corrupting a copy of the trace at `rate` for the recovery stage.
pub fn run(seed: u64, scale: f64, rate: f64) -> Result<PipelineRun, String> {
    let mut dataset = Scenario::paper()
        .seed(seed)
        .scale(scale)
        .build()
        .into_dataset();
    if !dcfail_audit::audit_dataset(&dataset).is_clean() {
        return Err("generated dataset failed audit".into());
    }

    // Chaos + quarantine-and-recover, on a copy of the trace.
    let (parts, _log) = inject(&dataset, &InjectionPlan::uniform(seed, rate));
    recover_raw(&parts).map_err(|e| format!("recovery failed: {e}"))?;

    let mut rng = StreamRng::new(seed ^ 0x7ea).fork("repro.classify");
    apply_to_dataset(&mut dataset, PipelineConfig::default(), &mut rng);

    // Every report runner: paper artifacts + extension reports.
    run_all(&dataset, &RunConfig::with_seed(seed));

    let feed = dataset_feed(&dataset);
    let feed_events = feed.len() as u64;
    let mut engine = StreamEngine::new(dataset.horizon(), StreamConfig::default());
    // The span closes before the replay's output drops.
    let _replayed = {
        let _span = dcfail_obs::span(REPLAY_SPAN);
        for ev in feed {
            engine
                .ingest(ev)
                .map_err(|e| format!("feed replay failed: {e}"))?;
        }
        engine.finish()
    };

    Ok(PipelineRun {
        seed,
        scale,
        threads: dcfail_par::thread_count(),
        machines: dataset.machines().len(),
        events: dataset.events().len(),
        incidents: dataset.incidents().len(),
        tickets: dataset.tickets().len(),
        feed_events,
    })
}
