//! Crash-safe, resumable variant of [`crate::build_sharded`].
//!
//! [`resume_sharded`] runs the same five-stage pipeline, but persists each
//! per-shard result (pass-1 [`NormAccum`], pass-2 incident specs + panel
//! counts) as a checksummed segment through a
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
//! - every per-shard worker is the *same function* the uninterrupted path
//!   calls, on the same immutable forked RNG streams;
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

use crate::{
    merge_and_assemble, norms_shard, pass2_shard, shard_ranges, ShardYield, ShardedOutput,
};
use dcfail_ckpt::{fnv64, CheckpointStore, CkptError};
use dcfail_report::experiments::RunConfig;
use dcfail_report::runners::reports_digest;
use dcfail_stats::merge::Mergeable;
use dcfail_stats::rng::StreamRng;
use dcfail_synth::hazard::NormAccum;
use dcfail_synth::incidents;
use dcfail_synth::{population, ScenarioConfig};
use serde::Deserialize;

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
    fnv64(json.as_bytes())
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
    let config_report = dcfail_synth::config_audit::audit_config(config);
    assert!(
        config_report.is_clean(),
        "scenario configuration failed audit:\n{config_report}"
    );
    let _span = dcfail_obs::span("shard.resume");
    let mut manifest = store.open(config_digest(config), num_shards as u64)?;

    let rng = StreamRng::new(config.seed);
    let pop = {
        let _s = dcfail_obs::span("population");
        population::build(config, &rng)
    };
    let ranges = shard_ranges(pop.machines.len(), num_shards);

    // Pass 1 — per-shard norm accumulators, loaded where a valid segment
    // exists, recomputed (in parallel) and persisted where not.
    let norms = {
        let _s = dcfail_obs::span("shard.norms");
        let mut accums: Vec<Option<NormAccum>> = Vec::with_capacity(ranges.len());
        for s in 0..ranges.len() {
            let name = segment_name("norms", s);
            let loaded = store
                .load_segment(&mut manifest, &name)?
                .and_then(|bytes| decode_payload::<NormAccum>(&name, &bytes));
            accums.push(loaded);
        }
        let missing: Vec<usize> = (0..ranges.len()).filter(|&s| accums[s].is_none()).collect();
        // dlint::allow(D05): StreamRng is immutable; norms_shard forks a stream per machine id
        let computed = dcfail_par::par_map(&missing, |_, &s| {
            norms_shard(config, &pop, &ranges[s], &rng)
        });
        for (&s, accum) in missing.iter().zip(computed) {
            let payload = serde_json::to_string(&accum)
                .expect("NormAccum is a closed tree of serializable fields");
            store.write_segment(&mut manifest, &segment_name("norms", s), payload.as_bytes())?;
            accums[s] = Some(accum);
        }
        let mut merged = NormAccum::identity();
        for accum in accums.iter().flatten() {
            merged.absorb(accum);
        }
        merged.finalize()
    };

    // Spatial incidents are recomputed every run: one cheap, telemetry-free
    // sequential stream, a pure function of the seed.
    let (spatial_specs, spatial_hits) = {
        let _s = dcfail_obs::span("shard.spatial");
        incidents::spatial_stage(config, &pop, &rng)
    };

    // Pass 2 — per-shard specs + panel counts, same load-else-recompute
    // shape.
    let yields = {
        let _s = dcfail_obs::span("shard.fanout");
        let mut yields: Vec<Option<ShardYield>> = Vec::with_capacity(ranges.len());
        for s in 0..ranges.len() {
            let name = segment_name("pass2", s);
            let loaded = store
                .load_segment(&mut manifest, &name)?
                .and_then(|bytes| decode_payload::<ShardYield>(&name, &bytes));
            yields.push(loaded);
        }
        let missing: Vec<usize> = (0..ranges.len()).filter(|&s| yields[s].is_none()).collect();
        // dlint::allow(D05): StreamRng is immutable; pass2_shard forks a stream per machine id
        let computed = dcfail_par::par_map(&missing, |_, &s| {
            pass2_shard(
                config,
                &pop,
                &ranges[s],
                &norms,
                &spatial_specs,
                &spatial_hits,
                &rng,
            )
        });
        for (&s, shard_yield) in missing.iter().zip(computed) {
            let payload = serde_json::to_string(&shard_yield)
                .expect("ShardYield is a closed tree of serializable fields");
            store.write_segment(&mut manifest, &segment_name("pass2", s), payload.as_bytes())?;
            yields[s] = Some(shard_yield);
        }
        yields.into_iter().flatten().collect()
    };

    Ok(merge_and_assemble(
        config,
        num_shards,
        pop,
        spatial_specs,
        yields,
        &rng,
    ))
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
}
