//! # dcfail-ckpt
//!
//! Crash-safe checkpoint storage for the sharded pipeline.
//!
//! `dcfail-shard` studies machines that die mid-work; this crate makes sure
//! the pipeline itself survives dying mid-work. Per-shard state is written
//! as checksummed *segment* files ([`segment`]) via write-temp + fsync +
//! atomic-rename, tracked by a versioned, checksummed [`manifest`]; a
//! [`CheckpointStore`] ties the two together over an injectable [`FaultFs`]
//! so every byte of checkpoint I/O can be fault-injected in tests.
//!
//! ## Crash-consistency argument
//!
//! 1. A segment is only ever *published* by `rename(tmp, final)`, which is
//!    atomic on POSIX filesystems: readers see the old file, no file, or
//!    the complete new file — never a prefix.
//! 2. The manifest is rewritten (same temp + rename discipline) *after* the
//!    segment it describes is published, so every manifest entry points at
//!    a file that was fully durable when the entry was written.
//! 3. Both segments and the manifest carry an FNV-64 checksum over their
//!    payload plus an explicit length; a torn, bit-rotted or stale file
//!    fails validation on load and is discarded and re-derived — never
//!    silently ingested.
//!
//! A crash can therefore only lose the *in-flight* segment (left behind as
//! an unreferenced `*.tmp` the next run overwrites); everything the
//! manifest references is complete. `dcfail_shard::resume_sharded` recomputes
//! whatever is missing, which is exactly why a resumed run is byte-identical
//! to an uninterrupted one.
//!
//! ## Fault injection
//!
//! All I/O flows through the [`FaultFs`] trait: [`RealFs`] is the one
//! sanctioned `std::fs` call site in the workspace (see dlint rule D13),
//! [`MemFs`] is a hermetic in-memory store for tests, and [`ChaosFs`] wraps
//! any of them with a seeded [`dcfail_chaos::IoFaultPlan`] that injects
//! transient `EIO`/`ENOSPC` errors (absorbed by the deterministic,
//! attempt-indexed [`RetryPolicy`] — no wall clock anywhere), torn writes,
//! and hard kills at the K-th operation. The `repro crashtest` harness
//! sweeps that K across a full run and asserts every resume converges to
//! the golden digest.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod fs;
pub mod manifest;
pub mod retry;
pub mod segment;
mod store;

pub use fs::{ChaosFs, FaultFs, FsError, FsErrorKind, MemFs, RealFs};
pub use manifest::{Manifest, SegmentMeta, MANIFEST_VERSION};
pub use retry::RetryPolicy;
pub use segment::{decode_segment, encode_segment, SegmentError, SEGMENT_VERSION};
pub use store::{CheckpointStore, MANIFEST_FILE};

use std::fmt;

/// Errors the checkpoint layer surfaces to its caller.
///
/// [`CkptError::Killed`] is special: it models the injected process death
/// from a [`ChaosFs`] kill schedule, and the crash-matrix harness matches on
/// it to distinguish "run died as planned" from a real failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The run was hard-killed by an injected fault at I/O operation `op`.
    Killed {
        /// 0-based index of the fatal I/O operation.
        op: u64,
    },
    /// A persistent (non-transient, non-kill) I/O failure after retries.
    Io {
        /// Human-oriented description including the failing path.
        message: String,
    },
    /// The on-disk manifest was written by an incompatible layer version.
    ManifestVersion {
        /// Version found in the manifest file.
        found: u32,
        /// Version this build writes and understands.
        expected: u32,
    },
    /// The manifest describes a different run (config digest or shard
    /// count differ); resuming it would splice incompatible state.
    Mismatch {
        /// What differed, with both values.
        message: String,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Killed { op } => {
                write!(f, "run killed by injected fault at I/O operation {op}")
            }
            CkptError::Io { message } => write!(f, "checkpoint I/O failed: {message}"),
            CkptError::ManifestVersion { found, expected } => write!(
                f,
                "stale checkpoint manifest: version {found}, this build expects {expected}; \
                 delete the checkpoint directory to start fresh"
            ),
            CkptError::Mismatch { message } => {
                write!(
                    f,
                    "checkpoint directory belongs to a different run: {message}"
                )
            }
        }
    }
}

impl std::error::Error for CkptError {}

impl From<FsError> for CkptError {
    fn from(e: FsError) -> Self {
        match e.kind {
            FsErrorKind::Killed { op } => CkptError::Killed { op },
            _ => CkptError::Io { message: e.message },
        }
    }
}
