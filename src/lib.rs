//! # dcfail
//!
//! Facade crate re-exporting the dcfail workspace: a datacenter failure-trace
//! simulator and analysis toolkit reproducing Birke et al., *"Failure Analysis
//! of Virtual and Physical Machines"* (DSN 2014).
//!
//! See [`model`], [`stats`], [`synth`], [`tickets`], [`analysis`],
//! [`report`], [`serve`], [`stream`], [`audit`], [`chaos`], [`ckpt`],
//! [`par`] and [`obs`] for the individual subsystems. The artifacts are
//! servable as a long-running HTTP/JSON daemon through [`serve`] (or `repro
//! serve`): snapshot-isolated queries over the [`report::Toolkit`] handle,
//! with bounded queues and typed backpressure. Datasets can also be consumed as
//! an event-at-a-time feed through [`stream`], whose windowed estimators
//! are pinned byte-identical to the batch figures (`repro stream --smoke`
//! checks the digests). Long sharded runs can be made crash-safe through
//! [`ckpt`], which persists per-shard state as checksummed segments behind
//! an injectable [`ckpt::FaultFs`] — a run killed at any I/O operation and
//! resumed ([`shard::resume_sharded`]) is byte-identical to an uninterrupted
//! one (`repro crashtest` proves it by sweeping every kill point). The determinism contract those subsystems rely on is itself
//! enforced at the source level by [`dlint`], a static-analysis pass over
//! the workspace's own Rust code (run it with `repro lint`); [`findings`]
//! holds the rule-catalog/report machinery [`dlint`] shares with [`audit`]. Hot paths run on the [`par`] deterministic parallel runtime:
//! set `DCFAIL_THREADS` to pick the worker count (output is bit-identical
//! at any setting; `1` is the sequential fallback). The whole pipeline is
//! instrumented through the [`obs`] tracing/metrics layer — install an
//! [`obs::ObsHandle`] (or run `repro metrics`) to collect per-stage span
//! timings, counters and worker-utilization histograms; when no window is
//! active the instrumentation costs one relaxed atomic load per call and
//! never changes analysis output.
//!
//! ```
//! use dcfail::synth::Scenario;
//! let dataset = Scenario::paper().seed(7).scale(0.05).build().into_dataset();
//! let rates = dcfail::analysis::rates::weekly_failure_rates(&dataset);
//! assert!(rates.all_pm.is_some_and(|pm| pm.mean > 0.0));
//! ```
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub use dcfail_audit as audit;
pub use dcfail_chaos as chaos;
pub use dcfail_ckpt as ckpt;
pub use dcfail_core as analysis;
pub use dcfail_dlint as dlint;
pub use dcfail_findings as findings;
pub use dcfail_model as model;
pub use dcfail_obs as obs;
pub use dcfail_par as par;
pub use dcfail_report as report;
pub use dcfail_serve as serve;
pub use dcfail_shard as shard;
pub use dcfail_stats as stats;
pub use dcfail_stream as stream;
pub use dcfail_synth as synth;
pub use dcfail_tickets as tickets;
