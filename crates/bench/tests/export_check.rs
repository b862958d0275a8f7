//! The export check behind `repro metrics` (`pipeline::export_check`) over
//! a small traced run. Kept in its own test binary: the check opens the
//! process-global obs window, which no other test may hold meanwhile.

use dcfail_bench::pipeline::{export_check, REPLAY_SPAN};

/// The exact work counters of `export_check(7, 0.02, 0.05)`: 187 machines,
/// scored over the 44 weeks from week 8.
const WORK: [(&str, u64); 9] = [
    ("synth.individual.draws", 67_704),
    ("synth.individual.hazard_evals", 19_928),
    ("panel.values_binned", 50_384),
    ("classify.texts", 41),
    ("kmeans.iterations", 14),
    ("kmeans.distance_evals", 5_580),
    ("kmeans.rows", 15_998),
    ("prediction.machine_weeks", 8_228),
    ("stream.events_applied", 11_180),
];

#[test]
fn export_check_holds_and_refuses_a_window_it_does_not_own() {
    let other = dcfail_obs::ObsHandle::install().expect("no window is open yet");
    let refused = export_check(7, 0.02, 0.05).expect_err("the probe needs the layer disabled");
    assert!(
        refused.contains("another metrics collection window"),
        "{refused}"
    );
    drop(other.finish());

    let check = export_check(7, 0.02, 0.05).expect("the window is free again");
    assert_eq!(check.failure, None);
    assert_eq!(check.report.schema_version, dcfail_obs::SCHEMA_VERSION);
    assert!(check.report.has_stage(REPLAY_SPAN));
    assert!(check.report.has_stage("report.fig8"));
    assert!(check.report.counter("par.jobs").unwrap_or(0) > 0);
    // The work counters count work, so they read the same on any host and
    // at any thread count; a change that moves one on purpose re-records it.
    for (counter, want) in WORK {
        assert_eq!(check.report.counter(counter), Some(want), "{counter}");
    }
    assert!(check.report.has_stage("kmeans.update"));
    assert!(check.instrumented_calls > 0 && check.per_call_ns > 0.0);
    assert!(check.overhead_pct < 2.0, "{}%", check.overhead_pct);
    assert!(check.wall_ms > 0.0);
}
