//! Crash-safe, resumable variant of [`crate::build_sharded`].
//!
//! [`resume_sharded`] runs the one sharded driver with a store: it persists
//! each per-shard result (pass-1 [`NormAccum`], pass-2 incident specs +
//! panel counts) as a checksummed segment through a
//! [`dcfail_ckpt::CheckpointStore`] and, on restart, reloads every segment
//! that validates instead of recomputing it. The population build, the
//! global spatial stage and the final merge/assembly are recomputed each
//! run: they are cheap relative to the per-shard passes and depend only on
//! the seed, so recomputation cannot diverge.
//!
//! ## Determinism contract
//!
//! A run killed at *any* I/O operation and resumed — any number of times —
//! produces a [`ShardedOutput`] byte-identical to an uninterrupted run:
//!
//! - the checkpointed and the uninterrupted run are the same driver calling
//!   the same per-shard workers, on the same immutable forked RNG streams;
//! - segment payloads round-trip exactly (the vendored JSON writes `f64`
//!   via shortest-round-trip formatting, and [`NormAccum`]'s `ExactSum`
//!   components are plain finite doubles);
//! - the merge always walks shards in index order, mixing loaded and
//!   recomputed state freely — `absorb` is associative over that order, so
//!   *which* shards came from disk cannot matter;
//! - invalid segments (torn, bit-rotted, wrong length) are discarded and
//!   recomputed, never ingested.
//!
//! Checkpoint I/O happens on the sequential coordinator path in shard index
//! order (loads in the manifest scan, writes after the parallel recompute),
//! so the I/O operation index is schedule-independent — which is what makes
//! `repro crashtest`'s kill-at-op-K sweep reproducible at any thread count.
//!
//! [`NormAccum`]: dcfail_synth::hazard::NormAccum

use crate::ShardedOutput;
use dcfail_ckpt::{CheckpointStore, CkptError, Manifest};
use dcfail_report::experiments::RunConfig;
use dcfail_report::runners::reports_digest;
use dcfail_stats::digest::fnv1a;
use dcfail_synth::ScenarioConfig;
use serde::{Deserialize, Serialize};

/// FNV-64 digest identifying a (configuration, pipeline-layout) pair.
///
/// Stored in the checkpoint manifest so a resume under a different seed,
/// scale, horizon — any config field — is refused instead of splicing
/// incompatible shards together. The digest is computed over the config's
/// canonical JSON, which the vendored serializer emits with sorted struct
/// fields and shortest-round-trip floats.
pub fn config_digest(config: &ScenarioConfig) -> u64 {
    let json = serde_json::to_string(config)
        .expect("ScenarioConfig is a closed tree of serializable fields");
    fnv1a([json])
}

fn segment_name(stage: &str, shard: usize) -> String {
    format!("{stage}-{shard:04}.seg")
}

/// Decodes a validated segment payload into `T`; a payload that passed the
/// checksum but fails to parse is treated like a torn segment — discarded
/// and recomputed, never ingested.
fn decode_payload<T: Deserialize>(name: &str, bytes: &[u8]) -> Option<T> {
    let text = String::from_utf8_lossy(bytes);
    match serde_json::from_str(&text) {
        Ok(value) => Some(value),
        Err(e) => {
            dcfail_obs::warn(format!(
                "ckpt: segment {name} passed checksum but failed to parse ({e}); recomputing"
            ));
            None
        }
    }
}

/// Runs the sharded pipeline with crash-safe checkpoints, resuming from
/// whatever complete per-shard segments `store` already holds.
///
/// On a fresh directory this computes exactly what [`crate::build_sharded`]
/// computes, writing one segment per shard per pass as it goes; on a
/// directory left behind by an interrupted run it reloads every segment
/// that validates and recomputes the rest. Either way the output is
/// byte-identical to the uninterrupted build.
///
/// # Errors
///
/// [`CkptError::Killed`] when an injected fault kills the run,
/// [`CkptError::ManifestVersion`] / [`CkptError::Mismatch`] when the
/// directory belongs to an incompatible run, [`CkptError::Io`] on
/// persistent storage failure.
///
/// # Panics
///
/// Panics if `num_shards` is zero or the configuration has Error-level
/// audit findings (same contract as [`crate::build_sharded`]).
pub fn resume_sharded(
    config: &ScenarioConfig,
    num_shards: usize,
    store: &CheckpointStore,
) -> Result<ShardedOutput, CkptError> {
    crate::run(config, num_shards, Some(store))
}

/// Runs one per-shard stage over `shards` shards: each shard's segment is
/// loaded where it validates, the rest are computed (in parallel) by
/// `compute` and published. Without a checkpoint every shard is computed.
/// Loads and writes run on this thread in shard index order, so a run's
/// I/O operation indexes do not depend on the schedule.
pub(crate) fn stage<T: Serialize + Deserialize + Send>(
    checkpoint: &mut Option<(&CheckpointStore, Manifest)>,
    stage: &str,
    shards: usize,
    compute: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, CkptError> {
    let mut done: Vec<Option<T>> = Vec::with_capacity(shards);
    for s in 0..shards {
        let loaded = match checkpoint {
            Some((store, manifest)) => {
                let name = segment_name(stage, s);
                store
                    .load_segment(manifest, &name)?
                    .and_then(|bytes| decode_payload(&name, &bytes))
            }
            None => None,
        };
        done.push(loaded);
    }
    let missing: Vec<usize> = (0..shards).filter(|&s| done[s].is_none()).collect();
    let computed = dcfail_par::par_map(&missing, |_, &s| compute(s));
    for (&s, value) in missing.iter().zip(computed) {
        if let Some((store, manifest)) = checkpoint {
            let payload = serde_json::to_string(&value)
                .expect("segment payloads are closed trees of serializable fields");
            store.write_segment(manifest, &segment_name(stage, s), payload.as_bytes())?;
        }
        done[s] = Some(value);
    }
    Ok(done.into_iter().flatten().collect())
}

impl ShardedOutput {
    /// [`reports_digest`] over every paper report, restricted to the paper
    /// registry (the subset a sharded build can serve). The crash-matrix
    /// harness compares killed-and-resumed runs against an uninterrupted
    /// run through this digest.
    pub fn paper_digest(&self, run: &RunConfig) -> u64 {
        reports_digest(&self.paper_reports(run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardYield;
    use dcfail_ckpt::{decode_segment, MemFs};
    use dcfail_stats::merge::CountMatrix;
    use dcfail_synth::incidents::IncidentSpec;
    use dcfail_synth::Scenario;

    /// A pass-2 payload in the shape earlier releases wrote: the shard's
    /// specs plus per-figure curve counts under `curves`.
    fn legacy_payload(specs: &[IncidentSpec], weeks: usize) -> String {
        let matrix = serde_json::to_string(&CountMatrix::zeros(10, weeks)).unwrap();
        let counts = |attribute: &str| {
            format!(
                r#"{{"attribute":"{attribute}","events":{matrix},"labels":[],"population":{matrix},"weeks":{weeks}}}"#
            )
        };
        let shares = r#"{"counts":[0,0,0,0,0,0]}"#;
        format!(
            r#"{{"curves":{{"consolidation":{},"level_shares":{shares},"onoff":{},"onoff_shares":{shares},"pm_cpu":{},"pm_mem":{},"vm_cpu":{},"vm_disk":{},"vm_mem":{},"vm_net":{}}},"specs":{}}}"#,
            counts("consolidation"),
            counts("on/off per month"),
            counts("cpu util %"),
            counts("mem util %"),
            counts("cpu util %"),
            counts("disk util %"),
            counts("mem util %"),
            counts("net kbps"),
            serde_json::to_string(specs).unwrap(),
        )
    }

    #[test]
    fn undecodable_pass2_payload_is_recomputed_not_ingested() {
        let config = Scenario::paper().seed(42).scale(0.015).config().clone();
        let run = RunConfig::default();
        let mem = MemFs::new();
        let store = CheckpointStore::new(Box::new(mem.clone()), "ckpt");
        let golden = resume_sharded(&config, 2, &store)
            .unwrap()
            .paper_digest(&run);

        // Swap shard 0's pass-2 payload for the legacy shape, published
        // through the store so envelope, checksum and manifest all agree.
        let name = segment_name("pass2", 0);
        let path = format!("ckpt/{name}");
        let current = mem.snapshot(&path).unwrap();
        let segment: ShardYield = decode_payload(&name, decode_segment(&current).unwrap()).unwrap();
        let legacy = legacy_payload(&segment.specs, config.horizon.num_weeks());
        assert!(decode_payload::<ShardYield>(&name, legacy.as_bytes()).is_none());
        let mut manifest = store.open(config_digest(&config), 2).unwrap();
        store
            .write_segment(&mut manifest, &name, legacy.as_bytes())
            .unwrap();
        let loaded = store.load_segment(&mut manifest, &name).unwrap();
        assert_eq!(loaded.as_deref(), Some(legacy.as_bytes()), "checksum holds");

        let resumed = resume_sharded(&config, 2, &store).unwrap();
        assert_eq!(resumed.paper_digest(&run), golden);
        // The segment was recomputed and republished in the current shape.
        let rewritten = mem.snapshot(&path).unwrap();
        let payload = decode_segment(&rewritten).unwrap();
        assert_ne!(payload, legacy.as_bytes());
        assert!(decode_payload::<ShardYield>(&name, payload).is_some());
        assert_eq!(rewritten, current);
    }

    #[test]
    fn config_digest_follows_the_config() {
        let config = |seed, scale| Scenario::paper().seed(seed).scale(scale).config().clone();
        let base = config(1, 0.01);
        assert_eq!(config_digest(&base), config_digest(&config(1, 0.01)));
        assert_ne!(config_digest(&base), config_digest(&config(2, 0.01)));
        assert_ne!(config_digest(&base), config_digest(&config(1, 0.02)));
    }

    #[test]
    fn a_stage_without_a_checkpoint_computes_every_shard_in_order() {
        assert_eq!(
            stage(&mut None, "norms", 5, |s| s * 10).unwrap(),
            [0, 10, 20, 30, 40]
        );
        assert!(stage(&mut None, "norms", 0, |s| s).unwrap().is_empty());
    }

    #[test]
    fn a_stage_reloads_published_shards_and_computes_only_the_rest() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mem = MemFs::new();
        let store = CheckpointStore::new(Box::new(mem.clone()), "ckpt");
        let computed = AtomicUsize::new(0);
        let compute = |s: usize| {
            computed.fetch_add(1, Ordering::SeqCst);
            vec![s as u64; s]
        };
        let mut checkpoint = Some((&store, store.open(7, 3).unwrap()));
        let first = stage(&mut checkpoint, "pass", 3, compute).unwrap();
        assert_eq!(computed.load(Ordering::SeqCst), 3);
        assert!(mem.snapshot("ckpt/pass-0002.seg").is_some());

        let mut manifest = store.open(7, 3).unwrap();
        assert_eq!(
            manifest.segments.len(),
            3,
            "each publish reached the manifest"
        );
        manifest.segments.remove("pass-0001.seg");
        let mut checkpoint = Some((&store, manifest));
        assert_eq!(stage(&mut checkpoint, "pass", 3, compute).unwrap(), first);
        assert_eq!(
            computed.load(Ordering::SeqCst),
            4,
            "only shard 1 is recomputed"
        );
        let (_, manifest) = checkpoint.unwrap();
        assert!(manifest.segments.contains_key("pass-0001.seg"));
    }
}
