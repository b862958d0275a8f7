//! # dcfail-chaos
//!
//! Deterministic, seeded fault injection over dcfail failure datasets.
//!
//! The paper's own input was dirty — 53% of crash tickets were unclassifiable,
//! the ticket classifier was only 87% accurate, and observation windows were
//! censored — so a reproduction that only ever sees pristine simulator output
//! proves nothing about the ingest path. This crate corrupts datasets *on
//! purpose*, with a typed catalog of realistic defects, so the lenient
//! recovery path in `dcfail-audit` and the degradation-aware estimators in
//! `dcfail-core` can be exercised against known ground truth.
//!
//! The injector is deterministic: an [`InjectionPlan`] is a seed plus one rate
//! per [`Corruption`] kind, and the same plan applied to the same dataset
//! always yields the same corrupted output (every random stream is forked from
//! the plan seed via `dcfail_stats::rng::StreamRng`).
//!
//! ```
//! use dcfail_chaos::{inject, InjectionPlan};
//! use dcfail_model::prelude::*;
//!
//! # fn demo(ds: &FailureDataset) {
//! let plan = InjectionPlan::uniform(42, 0.05);
//! let (corrupted, log) = inject(ds, &plan);
//! assert!(log.total() > 0 || ds.events().is_empty());
//! # let _ = corrupted;
//! # }
//! ```
//!
//! Corruption targets the *serialized* representation
//! ([`dcfail_audit::RawDatasetParts`]) rather than `FailureDataset` itself:
//! the validated type cannot even represent most of the defects the catalog
//! injects (dangling placements, reversed ticket windows, out-of-horizon
//! events), which is exactly why the lenient ingest path exists.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod check;
mod csv;
mod inject;
pub mod iofault;
mod plan;

pub use check::{recovery_check, RecoveryCheck};
pub use csv::garble_csv;
pub use inject::{inject, inject_raw, InjectionLog};
pub use iofault::{IoFault, IoFaultInjector, IoFaultPlan};
pub use plan::{Corruption, CorruptionRates, InjectionPlan};
