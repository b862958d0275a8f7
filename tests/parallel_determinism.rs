//! Thread-count independence: the deterministic parallel runtime's contract
//! is that `DCFAIL_THREADS` can never change any output, only wall-clock
//! time. These tests pin the thread count via the test override and compare
//! whole datasets and the ticket classification across 1, 2, 3 and 8
//! workers; every rendered artifact is compared at drawn thread counts by
//! the front-door harness (`tests/front_doors.rs`).
//!
//! The override is process-wide, but that is safe even with tests running
//! concurrently in one binary: the invariant under test is precisely that
//! the thread count cannot affect results, so a concurrent flip from
//! another test thread cannot introduce a difference.

#![allow(clippy::unwrap_used)]

use dcfail::model::dataset::FailureDataset;
use dcfail::par;
use dcfail::stats::rng::StreamRng;
use dcfail::synth::Scenario;
use dcfail::tickets::classify::{apply_to_dataset, PipelineConfig};

fn build_with_threads(threads: usize) -> FailureDataset {
    build_at_scale(threads, 0.05)
}

fn build_at_scale(threads: usize, scale: f64) -> FailureDataset {
    par::set_thread_override(Some(threads));
    let ds = Scenario::paper()
        .seed(21)
        .scale(scale)
        .build()
        .into_dataset();
    par::set_thread_override(None);
    ds
}

#[test]
fn scenario_build_is_thread_count_independent() {
    // The hazard model is built over fixed 128-machine chunks: scale 0.05
    // (473 machines) spans four of them, scale 0.12 (1,131 machines) nine.
    for scale in [0.05, 0.12] {
        let baseline = build_at_scale(1, scale);
        for threads in [2, 3, 8] {
            assert_eq!(
                build_at_scale(threads, scale),
                baseline,
                "dataset diverged at {threads} threads, scale {scale}"
            );
        }
    }
}

#[test]
fn classification_is_thread_count_independent() {
    let classify = |threads: usize| {
        let mut ds = build_with_threads(threads);
        par::set_thread_override(Some(threads));
        let mut rng = StreamRng::new(0x15 ^ 0x7ea).fork("test.classify");
        let comparison = apply_to_dataset(&mut ds, PipelineConfig::default(), &mut rng);
        par::set_thread_override(None);
        (ds, comparison.accuracy_vs_manual().map(f64::to_bits))
    };
    assert_eq!(classify(1), classify(8));
}
