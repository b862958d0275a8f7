//! # dcfail-report
//!
//! Experiment runners and renderers: one runner per table and figure of
//! Birke et al. (DSN 2014), producing aligned-text reports (with the paper's
//! reference values inline) and machine-readable CSV series.
//!
//! Every artifact — the paper's 17 tables and figures plus the 7 extension
//! reports — is addressed by [`ExperimentId`] and dispatched through
//! [`run`]/[`run_all`] with a [`RunConfig`] (seed, thread override). The
//! pre-registry direct entry points (`runners::table*`, `runners::fig*`,
//! `extras::*_report` and the seed-only `extras::run_all`) were deprecated
//! for one release and are now removed.
//!
//! Long-lived callers (the `repro` CLI, the dcfail-serve daemon) hold a
//! [`Toolkit`]: a built [`DatasetSnapshot`] plus a keyed artifact cache, so
//! repeated renders reuse the dataset and emit through the versioned JSON
//! [`Envelope`].
//!
//! ```
//! use dcfail_report::{run, ExperimentId, RunConfig};
//! use dcfail_synth::Scenario;
//!
//! let dataset = Scenario::paper().seed(1).scale(0.05).build().into_dataset();
//! let report = run(ExperimentId::Fig2, &dataset, &RunConfig::default());
//! assert!(report.text.contains("weekly failure rate"));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod envelope;
pub mod experiments;
pub mod extras;
pub mod runners;
pub mod summary;
pub mod table;
pub mod toolkit;

pub use envelope::{Envelope, EnvelopeError, ENVELOPE_SCHEMA_VERSION};
pub use experiments::{run, run_all, ExperimentId, ParseExperimentError, RunConfig, DEFAULT_SEED};
pub use runners::Rendered;
pub use toolkit::{DatasetSnapshot, Toolkit};
