//! The crash-consistency contract: a checkpointed run killed at any I/O
//! operation and resumed — any number of times — produces output
//! byte-identical to an uninterrupted `build_sharded`. The kill-point and
//! transient sweeps run through `crash_matrix`, the same check
//! `repro crashtest` runs; the tests around it tear segments and refuse
//! stale or foreign checkpoints. Random kill points, double kills and the
//! byte comparison of each resume are drawn by the workspace's front-door
//! harness (`tests/front_doors.rs`).

#![allow(clippy::unwrap_used)]

use dcfail_ckpt::{encode_segment, CheckpointStore, CkptError, FaultFs, MemFs};
use dcfail_report::experiments::RunConfig;
use dcfail_shard::{crash_matrix, resume_sharded};
use dcfail_synth::{Scenario, ScenarioConfig};

const DIR: &str = "ckpt";

fn config(seed: u64, scale: f64) -> ScenarioConfig {
    Scenario::paper().seed(seed).scale(scale).config().clone()
}

/// Store over `mem` with no injected faults.
fn quiet_store(mem: &MemFs) -> CheckpointStore {
    CheckpointStore::new(Box::new(mem.clone()), DIR)
}

/// Unwraps the error of a run that must have crashed (`ShardedOutput` has
/// no `Debug`, so `expect_err` cannot be used directly).
fn expect_crash(result: Result<dcfail_shard::ShardedOutput, CkptError>, what: &str) -> CkptError {
    match result {
        Err(e) => e,
        Ok(_) => panic!("{what}: run finished but should have crashed"),
    }
}

#[test]
fn crash_matrix_converges_at_every_kill_point_and_absorbs_transients() {
    let every = crash_matrix(&config(7, 0.015), 3, 0.0, true).unwrap();
    assert!(every.failures.is_empty(), "{:#?}", every.failures);
    assert!(every.total_ops >= 8, "a 3-shard run must checkpoint");
    assert_eq!(every.kill_points.len() as u64, every.total_ops);
    assert!(every.transients > 0, "rate 0.25 injected nothing");
}

#[test]
fn kill_runs_that_draw_transients_still_resume_to_the_golden_digest() {
    // Such runs may die early, of exhausted retries; resumes converge.
    let spread = crash_matrix(&config(13, 0.015), 2, 0.3, false).unwrap();
    assert!(spread.failures.is_empty(), "{:#?}", spread.failures);
    assert_eq!((spread.kill_points.len(), spread.transient_rate), (3, 0.3));
}

#[test]
fn torn_segment_is_recomputed_not_ingested() {
    let cfg = config(42, 0.015);
    let rc = RunConfig::default();
    let mem = MemFs::new();
    let golden = resume_sharded(&cfg, 3, &quiet_store(&mem))
        .unwrap()
        .paper_digest(&rc);

    // Tear one pass-2 segment mid-payload and bit-flip a norms segment.
    let torn = mem.snapshot("ckpt/pass2-0001.seg").unwrap();
    mem.write("ckpt/pass2-0001.seg", &torn[..torn.len() / 2])
        .unwrap();
    let mut flipped = mem.snapshot("ckpt/norms-0000.seg").unwrap();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x10;
    mem.write("ckpt/norms-0000.seg", &flipped).unwrap();

    let resumed = resume_sharded(&cfg, 3, &quiet_store(&mem)).unwrap();
    assert_eq!(
        resumed.paper_digest(&rc),
        golden,
        "corrupt segments must be re-derived"
    );
    // The recomputed segments were re-published and validate again.
    let resumed = resume_sharded(&cfg, 3, &quiet_store(&mem)).unwrap();
    assert_eq!(resumed.paper_digest(&rc), golden);
}

#[test]
fn stale_manifest_version_is_refused() {
    let cfg = config(42, 0.015);
    let mem = MemFs::new();
    resume_sharded(&cfg, 2, &quiet_store(&mem)).unwrap();

    let manifest = mem.snapshot("ckpt/MANIFEST").unwrap();
    let payload = dcfail_ckpt::decode_segment(&manifest).unwrap().to_vec();
    let text = String::from_utf8(payload).unwrap();
    let bumped = text.replace("\"version\":1", "\"version\":2");
    assert_ne!(text, bumped);
    mem.write("ckpt/MANIFEST", &encode_segment(bumped.as_bytes()))
        .unwrap();

    let err = expect_crash(resume_sharded(&cfg, 2, &quiet_store(&mem)), "stale version");
    assert!(
        matches!(err, CkptError::ManifestVersion { found: 2, .. }),
        "got {err:?}"
    );
}

#[test]
fn checkpoint_of_a_different_run_is_refused() {
    let mem = MemFs::new();
    resume_sharded(&config(42, 0.015), 2, &quiet_store(&mem)).unwrap();
    // Different seed → different config digest.
    let err = expect_crash(
        resume_sharded(&config(43, 0.015), 2, &quiet_store(&mem)),
        "seed",
    );
    assert!(matches!(err, CkptError::Mismatch { .. }), "got {err:?}");
    // Same config, different shard count.
    let err = expect_crash(
        resume_sharded(&config(42, 0.015), 4, &quiet_store(&mem)),
        "shards",
    );
    assert!(matches!(err, CkptError::Mismatch { .. }), "got {err:?}");
}
