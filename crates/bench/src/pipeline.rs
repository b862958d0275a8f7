//! The one traced pipeline behind `repro metrics` and `repro bench`.
//!
//! [`run`] drives every stage once, in the benchmark's order: synth and
//! audit, chaos injection and recovery, then classification, every report
//! runner through the artifact cache and a streamed replay of the
//! recovered dataset. It returns the run's settings and sizes and nothing
//! else. Every duration lives in the `dcfail-obs` spans the stages
//! record, so the caller opens the collection window and reads its numbers
//! from the window's `MetricsReport`. Printing, exporting and gating all
//! read the same spans.
//!
//! [`export_check`] is `repro metrics`: it opens that window around one
//! [`run`] and checks the export against its contract. It prints nothing;
//! the caller reads the [`ExportCheck`] summary.

use dcfail_audit::recover::recover_raw;
use dcfail_chaos::{inject, InjectionPlan};
use dcfail_obs::MetricsReport;
use dcfail_report::{ExperimentId, RunConfig, Toolkit};
use dcfail_stats::rng::StreamRng;
use dcfail_stream::{StreamConfig, StreamEngine};
use dcfail_synth::feed::dataset_feed;
use dcfail_synth::Scenario;
use dcfail_tickets::classify::{apply_to_dataset, PipelineConfig};
use std::hint::black_box;
use std::time::Instant;

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
/// corrupting a copy of the trace at `rate` for the recovery stage. Each
/// copy of the trace drops as soon as the next exists, as in the
/// benchmark's `paper_batch`.
pub fn run(seed: u64, scale: f64, rate: f64) -> Result<PipelineRun, String> {
    let dataset = Scenario::paper()
        .seed(seed)
        .scale(scale)
        .build()
        .into_dataset();
    let (machines, events) = (dataset.machines().len(), dataset.events().len());
    let (incidents, tickets) = (dataset.incidents().len(), dataset.tickets().len());
    if !dcfail_audit::audit_dataset(&dataset).is_clean() {
        return Err("generated dataset failed audit".into());
    }

    // Chaos + quarantine-and-recover: the recovered dataset goes on.
    let (parts, _log) = inject(&dataset, &InjectionPlan::uniform(seed, rate));
    drop(dataset);
    let recovered = recover_raw(&parts).map_err(|e| format!("recovery failed: {e}"))?;
    drop(parts);
    let mut dataset = recovered.dataset;

    let mut rng = StreamRng::new(seed ^ 0x7ea).fork("repro.classify");
    apply_to_dataset(&mut dataset, PipelineConfig::default(), &mut rng);

    // Every report runner, through the artifact cache: paper artifacts +
    // extension reports.
    let toolkit = Toolkit::from_dataset(dataset, RunConfig::with_seed(seed));
    toolkit.render_all();
    let dataset = toolkit.snapshot().dataset();

    let feed = dataset_feed(dataset);
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
        machines,
        events,
        incidents,
        tickets,
        feed_events,
    })
}

/// Span leaves (`has_stage` names) every traced run must record, besides
/// [`REPLAY_SPAN`] and each report runner. In order: synth, audit and
/// recovery, chaos, ticket classification, stats, and the report fan-out
/// (the registry covers the extras too).
const REQUIRED_STAGES: &str = "synth.build population placement telemetry incidents hazard \
    spatial individual assemble tickets haystack audit.dataset audit.recover recover.machines \
    recover.tickets recover.events recover.telemetry recover.build chaos.copy chaos.inject \
    classify tokenize tfidf.fit tfidf.transform kmeans kmeans.seed kmeans.assign kmeans.update \
    manual_label stats.bootstrap report.run_all";

/// Counters every traced run must record, and nonzero: the parallel
/// runtime's jobs and five exact work counts, the hazard evaluations of
/// the individual-failure walk, the values the panel kernel binned, the
/// distinct texts the classifier tokenized, the k-means Lloyd iterations
/// and the machine-weeks the prediction sweep scored.
const REQUIRED_COUNTERS: [&str; 6] = [
    "par.jobs",
    "synth.individual.hazard_evals",
    "panel.values_binned",
    "classify.texts",
    "kmeans.iterations",
    "prediction.machine_weeks",
];

/// The stages [`run`] opens on its own thread, at the root of the span
/// tree: on Linux each must carry a minor-fault count.
const ROOT_STAGES: [&str; 8] = [
    "synth.build",
    "audit.dataset",
    "chaos.copy",
    "chaos.inject",
    "audit.recover",
    "classify",
    "report.run_all",
    REPLAY_SPAN,
];

/// What one [`export_check`] saw.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportCheck {
    /// The collection window's export.
    pub report: MetricsReport,
    /// Wall-clock of the traced run, ms.
    pub wall_ms: f64,
    /// Nanoseconds per inert `span` + `add` call with no window open: what
    /// every instrumented hot path pays when nothing collects.
    pub per_call_ns: f64,
    /// Inert calls the run would have made with the layer disabled: two
    /// per span closure (open and drop), one per histogram sample, one per
    /// counter. Counter totals hide how many `add` calls made them, so span
    /// closures dominate the estimate by construction.
    pub instrumented_calls: u64,
    /// Those calls' estimated share of the run's wall-clock, percent.
    pub overhead_pct: f64,
    /// The first broken rule of the export contract (schema version, every
    /// stage span, on Linux a minor-fault count on every root stage, a
    /// nonzero `par.jobs`, `synth.individual.hazard_evals`,
    /// `panel.values_binned`, `classify.texts` and `kmeans.iterations`
    /// count, disabled overhead under 2%); `None` when it holds.
    pub failure: Option<String>,
}

/// Measures the disabled layer's cost per call, outside any window.
fn disabled_ns_per_call() -> f64 {
    const CALLS: u32 = 1_000_000;
    let start = Instant::now();
    for _ in 0..CALLS {
        let span = dcfail_obs::span(black_box("overhead.probe"));
        dcfail_obs::add(black_box("overhead.probe"), black_box(1));
        drop(black_box(span));
    }
    start.elapsed().as_secs_f64() * 1e9 / (2.0 * f64::from(CALLS))
}

/// Probes the disabled layer's cost, then traces one [`run`] at `seed`,
/// `scale` and `rate` under a collection window of its own and checks the
/// window's export.
///
/// # Errors
///
/// Another collection window is open, so neither the probe nor the run
/// can be trusted, or the run itself failed.
pub fn export_check(seed: u64, scale: f64, rate: f64) -> Result<ExportCheck, String> {
    if dcfail_obs::enabled() {
        return Err("another metrics collection window is active".into());
    }
    let per_call_ns = disabled_ns_per_call();
    let handle =
        dcfail_obs::ObsHandle::install().ok_or("another metrics collection window is active")?;
    let wall = Instant::now();
    run(seed, scale, rate)?;
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let report = handle.finish();

    let samples: u64 = report.histograms.iter().map(|h| h.count as u64).sum();
    let instrumented_calls = report.spans.iter().map(|s| s.count * 2).sum::<u64>()
        + samples
        + report.counters.len() as u64;
    let overhead_pct = instrumented_calls as f64 * per_call_ns / (wall_ms * 1e6) * 100.0;
    let runners = ExperimentId::ALL
        .iter()
        .map(|id| format!("report.{}", id.key()));
    let missing: Vec<String> = REQUIRED_STAGES
        .split_whitespace()
        .chain([REPLAY_SPAN])
        .map(str::to_string)
        .chain(runners)
        .filter(|stage| !report.has_stage(stage))
        .collect();
    let uncounted: Vec<&str> = ROOT_STAGES
        .into_iter()
        .filter(|&stage| report.span(stage).is_some_and(|s| s.minor_faults.is_none()))
        .collect();
    let failure = if report.schema_version != dcfail_obs::SCHEMA_VERSION {
        Some(format!(
            "schema version {} != {}",
            report.schema_version,
            dcfail_obs::SCHEMA_VERSION
        ))
    } else if !missing.is_empty() {
        Some(format!("missing stage spans: {}", missing.join(", ")))
    } else if cfg!(target_os = "linux") && !uncounted.is_empty() {
        Some(format!(
            "root stages without a minor-fault count: {}",
            uncounted.join(", ")
        ))
    } else if let Some(counter) = REQUIRED_COUNTERS
        .into_iter()
        .find(|&name| report.counter(name).unwrap_or(0) == 0)
    {
        Some(format!("no {counter} counter, or it reads zero"))
    } else if overhead_pct >= 2.0 {
        Some(format!("disabled-path overhead {overhead_pct:.2}% >= 2%"))
    } else {
        None
    };
    Ok(ExportCheck {
        report,
        wall_ms,
        per_call_ns,
        instrumented_calls,
        overhead_pct,
        failure,
    })
}
