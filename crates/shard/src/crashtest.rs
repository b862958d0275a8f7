//! The crash-matrix check behind `repro crashtest`.
//!
//! [`crash_matrix`] proves [`resume_sharded`]'s determinism contract on an
//! in-memory filesystem: a checkpointed run hard-killed at a chosen I/O
//! operation, then resumed, reaches the digest of an uninterrupted
//! [`build_sharded`] run, and transient `EIO`/`ENOSPC` faults are absorbed
//! by the retry policy. It prints nothing; the caller reads the
//! [`CrashMatrix`] summary.

use crate::{build_sharded, resume_sharded};
use dcfail_chaos::IoFaultPlan;
use dcfail_ckpt::{ChaosFs, CheckpointStore, CkptError, MemFs};
use dcfail_report::experiments::RunConfig;
use dcfail_synth::ScenarioConfig;
use std::sync::Arc;

/// Checkpoint directory inside the in-memory filesystem.
const DIR: &str = "crashtest-ckpt";

/// What one crash-matrix sweep found.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashMatrix {
    /// Paper digest of the uninterrupted run every resume must reach.
    pub golden: u64,
    /// I/O operations of a clean checkpointed run: the kill-point domain.
    pub total_ops: u64,
    /// The kill points swept, in order.
    pub kill_points: Vec<u64>,
    /// Transient rate of the retry leg, after clamping.
    pub transient_rate: f64,
    /// Transient faults the retry leg injected and absorbed.
    pub transients: u64,
    /// One line per divergence; empty when the contract holds.
    pub failures: Vec<String>,
}

/// Store over `mem` whose every operation is gated by `plan`, plus a shared
/// handle to the injector's op/transient counters.
fn chaos_store(mem: &MemFs, plan: IoFaultPlan) -> (CheckpointStore, Arc<ChaosFs<MemFs>>) {
    let fs = Arc::new(ChaosFs::new(mem.clone(), plan));
    (CheckpointStore::new(Box::new(fs.clone()), DIR), fs)
}

/// Runs the crash matrix over `config` at `shards` shards.
///
/// The fault seed and the report config both come from `config.seed`. Each
/// kill run also draws transients at `rate`, so it may die at its kill
/// point or exhaust its retries earlier; either way it must not finish, and
/// its resume must reach the golden digest. `every_op` sweeps every I/O
/// operation of a clean run; otherwise three spread points (first, middle,
/// last). The retry leg runs at `rate` clamped to `[0.25, 0.5]`: below it
/// proves too little, near 1.0 six consecutive faults (legitimate retry
/// exhaustion) become likely.
///
/// # Errors
///
/// The uninterrupted checkpointed probe run failed, so there is no
/// operation count to sweep.
///
/// # Panics
///
/// Panics if `shards` is zero, `rate` lies outside `[0, 1]`, or the
/// configuration has Error-level audit findings.
pub fn crash_matrix(
    config: &ScenarioConfig,
    shards: usize,
    rate: f64,
    every_op: bool,
) -> Result<CrashMatrix, CkptError> {
    let seed = config.seed;
    let run_config = RunConfig::with_seed(seed);
    let golden = build_sharded(config, shards).paper_digest(&run_config);
    let transient_rate = rate.clamp(0.25, 0.5);
    let mut failures = Vec::new();

    // Probe: count the I/O ops of a clean checkpointed run, and cross-check
    // that the checkpointed path itself matches the uninterrupted golden.
    let (store, fs) = chaos_store(&MemFs::new(), IoFaultPlan::quiet(seed));
    if resume_sharded(config, shards, &store)?.paper_digest(&run_config) != golden {
        failures.push("checkpointed run diverges from build_sharded".to_string());
    }
    let total_ops = fs.ops();
    let kill_points: Vec<u64> = if every_op {
        (0..total_ops).collect()
    } else {
        vec![0, total_ops / 2, total_ops.saturating_sub(1)]
    };

    for &k in &kill_points {
        let mem = MemFs::new();
        let plan = IoFaultPlan {
            seed,
            transient_rate: rate,
            kill_at_op: Some(k),
            torn_writes: true,
        };
        match resume_sharded(config, shards, &chaos_store(&mem, plan).0) {
            Err(CkptError::Killed { op }) if op == k => {}
            Err(CkptError::Io { .. }) if rate > 0.0 => {}
            Err(e) => failures.push(format!("kill at op {k}: run died otherwise: {e}")),
            Ok(_) => failures.push(format!("kill at op {k}: run unexpectedly completed")),
        }
        let resumed = CheckpointStore::new(Box::new(mem), DIR);
        let digest =
            resume_sharded(config, shards, &resumed).map(|out| out.paper_digest(&run_config));
        if digest != Ok(golden) {
            failures.push(format!(
                "kill at op {k}: resume gave {digest:x?}, want {golden:#x}"
            ));
        }
    }

    let (store, fs) = chaos_store(&MemFs::new(), IoFaultPlan::transient(seed, transient_rate));
    let digest = resume_sharded(config, shards, &store).map(|out| out.paper_digest(&run_config));
    if digest != Ok(golden) {
        let leg = format!("transient leg at rate {transient_rate}");
        failures.push(format!("{leg}: run gave {digest:x?}, want {golden:#x}"));
    }
    Ok(CrashMatrix {
        golden,
        total_ops,
        kill_points,
        transient_rate,
        transients: fs.transients(),
        failures,
    })
}
