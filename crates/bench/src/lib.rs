//! # dcfail-bench
//!
//! The `repro` harness for the dcfail workspace:
//!
//! * the `repro` binary (`cargo run -p dcfail-bench --bin repro --release --
//!   all`) regenerates every table and figure of the paper from a fresh
//!   simulation;
//! * [`ablation`] quantifies how each ground-truth effect family carries its
//!   paper artifact (switch the effect off → the artifact collapses);
//! * [`pipeline`] is the one traced run behind `repro metrics` and
//!   `repro bench`: every stage once, timed only by the `dcfail-obs` spans
//!   it records;
//! * [`history`] backs `repro bench --record`/`--check`: it projects that
//!   run's spans onto the committed `bench/history.jsonl` perf baseline and
//!   applies the regression gate CI runs on every push.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod ablation;
pub mod history;
pub mod pipeline;
