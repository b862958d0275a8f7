//! The crash-consistency contract: a checkpointed run killed at any I/O
//! operation and resumed — any number of times — produces output
//! byte-identical to an uninterrupted `build_sharded`.

#![allow(clippy::unwrap_used)]

use dcfail_chaos::IoFaultPlan;
use dcfail_ckpt::{encode_segment, ChaosFs, CheckpointStore, CkptError, FaultFs, MemFs};
use dcfail_report::experiments::RunConfig;
use dcfail_shard::{build_sharded, resume_sharded};
use dcfail_synth::{Scenario, ScenarioConfig};
use proptest::prelude::*;
use std::sync::Arc;

const DIR: &str = "ckpt";

fn config(seed: u64, scale: f64) -> ScenarioConfig {
    Scenario::paper().seed(seed).scale(scale).config().clone()
}

/// Store over `mem` with no injected faults.
fn quiet_store(mem: &MemFs) -> CheckpointStore {
    CheckpointStore::new(Box::new(mem.clone()), DIR)
}

/// Store over `mem` whose every operation is gated by `plan`, plus a shared
/// handle to the injector's op/transient counters.
fn chaos_store(mem: &MemFs, plan: IoFaultPlan) -> (CheckpointStore, Arc<ChaosFs<MemFs>>) {
    let fs = Arc::new(ChaosFs::new(mem.clone(), plan));
    (CheckpointStore::new(Box::new(fs.clone()), DIR), fs)
}

/// A plan that hard-kills the run at operation `op`, tearing a write.
fn kill_at(seed: u64, op: u64) -> IoFaultPlan {
    IoFaultPlan {
        kill_at_op: Some(op),
        torn_writes: true,
        ..IoFaultPlan::quiet(seed)
    }
}

/// Unwraps the error of a run that must have crashed (`ShardedOutput` has
/// no `Debug`, so `expect_err` cannot be used directly).
fn expect_crash(result: Result<dcfail_shard::ShardedOutput, CkptError>, what: &str) -> CkptError {
    match result {
        Err(e) => e,
        Ok(_) => panic!("{what}: run finished but should have crashed"),
    }
}

/// Total checkpoint I/O operations of an uninterrupted fresh run.
fn probe_total_ops(cfg: &ScenarioConfig, shards: usize) -> u64 {
    let mem = MemFs::new();
    let (store, spy) = chaos_store(&mem, IoFaultPlan::quiet(0));
    resume_sharded(cfg, shards, &store).expect("quiet probe run must succeed");
    spy.ops()
}

#[test]
fn uninterrupted_checkpointed_run_matches_build_sharded() {
    let cfg = config(42, 0.015);
    let rc = RunConfig::default();
    let golden = build_sharded(&cfg, 3);

    let mem = MemFs::new();
    let fresh = resume_sharded(&cfg, 3, &quiet_store(&mem)).unwrap();
    assert_eq!(fresh.dataset().machines(), golden.dataset().machines());
    assert_eq!(fresh.dataset().incidents(), golden.dataset().incidents());
    assert_eq!(fresh.dataset().events(), golden.dataset().events());
    assert_eq!(fresh.dataset().tickets(), golden.dataset().tickets());
    assert_eq!(fresh.paper_digest(&rc), golden.paper_digest(&rc));

    // A second run over the same directory loads every shard from disk —
    // the full JSON round-trip — and must still be byte-identical.
    let resumed = resume_sharded(&cfg, 3, &quiet_store(&mem)).unwrap();
    assert_eq!(resumed.dataset().events(), golden.dataset().events());
    assert_eq!(resumed.paper_digest(&rc), golden.paper_digest(&rc));
}

#[test]
fn kill_and_resume_converges_at_spread_kill_points() {
    let cfg = config(7, 0.015);
    let rc = RunConfig::default();
    let shards = 3;
    let golden = build_sharded(&cfg, shards).paper_digest(&rc);
    let total = probe_total_ops(&cfg, shards);
    assert!(
        total >= 8,
        "a {shards}-shard run must checkpoint: {total} ops"
    );

    for k in [0, 1, total / 3, 2 * total / 3, total - 1] {
        let mem = MemFs::new();
        let (store, _spy) = chaos_store(&mem, kill_at(99, k));
        let err = expect_crash(resume_sharded(&cfg, shards, &store), "kill run");
        assert_eq!(err, CkptError::Killed { op: k }, "kill point {k}");

        let resumed = resume_sharded(&cfg, shards, &quiet_store(&mem)).unwrap();
        assert_eq!(
            resumed.paper_digest(&rc),
            golden,
            "resume after kill at op {k} diverged"
        );
    }
}

#[test]
fn double_kill_then_resume_still_converges() {
    let cfg = config(7, 0.015);
    let rc = RunConfig::default();
    let golden = build_sharded(&cfg, 3).paper_digest(&rc);
    let total = probe_total_ops(&cfg, 3);

    let mem = MemFs::new();
    let (store, _) = chaos_store(&mem, kill_at(5, total / 2));
    expect_crash(resume_sharded(&cfg, 3, &store), "first kill");
    let (store, _) = chaos_store(&mem, kill_at(6, 3));
    expect_crash(resume_sharded(&cfg, 3, &store), "second kill");
    let resumed = resume_sharded(&cfg, 3, &quiet_store(&mem)).unwrap();
    assert_eq!(resumed.paper_digest(&rc), golden);
}

#[test]
fn transient_faults_are_absorbed_by_retry() {
    let cfg = config(13, 0.015);
    let rc = RunConfig::default();
    let golden = build_sharded(&cfg, 2).paper_digest(&rc);

    let mem = MemFs::new();
    let (store, spy) = chaos_store(&mem, IoFaultPlan::transient(21, 0.3));
    let out = resume_sharded(&cfg, 2, &store).expect("30% transients must be absorbed");
    assert!(
        spy.transients() > 0,
        "rate 0.3 must have injected something"
    );
    assert_eq!(out.paper_digest(&rc), golden);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Sweep (seed, shard count, kill fraction, transient rate): a faulted,
    /// killed, resumed run always converges to the uninterrupted digest.
    #[test]
    fn resumed_digest_equals_uninterrupted_digest(
        seed in 0u64..1000,
        shards in 1usize..5,
        kill_frac in 0.0f64..1.0,
        rate in 0.0f64..0.4,
    ) {
        let cfg = config(seed, 0.01);
        let rc = RunConfig::default();
        let golden = build_sharded(&cfg, shards).paper_digest(&rc);
        let total = probe_total_ops(&cfg, shards);
        let kill_at = ((total as f64 - 1.0) * kill_frac) as u64;

        let mem = MemFs::new();
        let plan = IoFaultPlan {
            seed: seed ^ 0xc0ffee,
            transient_rate: rate,
            kill_at_op: Some(kill_at),
            torn_writes: true,
        };
        let (store, _) = chaos_store(&mem, plan);
        // With transients ahead of the kill the run may die at the kill op
        // or exhaust retries earlier; either way it must not finish clean
        // beyond the kill point, and the resume must converge.
        let crashed = resume_sharded(&cfg, shards, &store);
        prop_assert!(crashed.is_err(), "kill at {kill_at}/{total} must crash");

        let resumed = resume_sharded(&cfg, shards, &quiet_store(&mem))
            .expect("quiet resume succeeds");
        prop_assert_eq!(resumed.paper_digest(&rc), golden);
    }
}
