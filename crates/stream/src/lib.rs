//! # dcfail-stream
//!
//! Streaming ingest for the failure-analysis pipeline: tickets and
//! telemetry arrive as a time-ordered (or boundedly-reordered) event feed,
//! and the Fig. 8/9/10 estimators update incrementally as each event is
//! applied, with an online burst detector riding a *sliding* window of
//! per-week (*tumbling*) failure counts.
//!
//! ## The determinism contract
//!
//! A streamed run over a horizon produces **byte-identical** figures and
//! digests to the batch run on the same horizon — at any thread count and
//! under any legal arrival reordering within the configured slack bound.
//! The contract holds by construction, not by averaging: the engine parks
//! arrivals in a slack-bounded reorder buffer, one bucket per distinct
//! timestamp, and only replays a bucket once the watermark (newest arrival
//! minus slack) has passed it. Any later arrival at that timestamp is
//! rejected as late, so the drained bucket is complete, and its arrivals in
//! `seq` order are exactly the `(at, seq)` order the batch pipeline
//! iterates. The drain finds that order without moving a payload: arrival
//! order when `seq` already increases, each arrival's index written at its
//! `seq` offset when the `seq`s are dense, and a sort of `(seq, index)`
//! keys only when they lie far apart. The estimators are the batch
//! runners' own: each replayed `Attrs` or `Usage` payload walks its machine
//! kind's slots through the steps of [`dcfail_core::panel::PanelCounts`],
//! and each failure is attributed through the machine's bin rows.
//!
//! Memory is O(machines seen + open weeks): the reorder buffer holds at
//! most a slack's worth of events; each machine keeps one constant and one
//! weekly bin row (its latest usage week — canonical order delivers a
//! machine's weeks in order and every failure after its week's rollup), in
//! a table indexed by machine id that covers ids only up to twice the
//! machines seen plus a fixed headroom, with a sparse map for the rest, so
//! no outside id sizes an allocation; and an open window is one failure
//! count in a slot per week of the horizon, which already sizes the panel
//! counts.
//!
//! ```
//! use dcfail_model::prelude::*;
//! use dcfail_stream::{FeedEvent, FeedPayload, StreamConfig, StreamEngine};
//!
//! let horizon = Horizon::observation_year();
//! let mut engine = StreamEngine::new(horizon, StreamConfig::default());
//! engine
//!     .ingest(FeedEvent {
//!         at: horizon.start(),
//!         seq: 0,
//!         payload: FeedPayload::Attrs {
//!             machine: MachineId::new(0),
//!             kind: MachineKind::Vm,
//!             consolidation: Some(16.0),
//!             onoff_rate: Some(0.5),
//!         },
//!     })
//!     .unwrap();
//! let output = engine.finish();
//! assert_eq!(output.stats.machines, 1);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod check;
pub mod detect;
pub mod engine;

pub use check::{replay_check, ReplayCheck};
pub use dcfail_synth::feed::{FeedEvent, FeedPayload};
pub use detect::{Alert, BurstDetector, DetectorConfig};
pub use engine::{
    batch_digest, StreamConfig, StreamEngine, StreamError, StreamOutput, StreamStats,
};
