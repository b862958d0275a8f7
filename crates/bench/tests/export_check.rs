//! The export check behind `repro metrics` (`pipeline::export_check`) over
//! a small traced run. Kept in its own test binary: the check opens the
//! process-global obs window, which no other test may hold meanwhile.

use dcfail_bench::pipeline::{export_check, REPLAY_SPAN};

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
    for counter in [
        "par.jobs",
        "synth.individual.draws",
        "synth.individual.hazard_evals",
        "panel.values_binned",
        "kmeans.iterations",
        "prediction.machine_weeks",
    ] {
        assert!(check.report.counter(counter).unwrap_or(0) > 0, "{counter}");
    }
    assert!(check.report.has_stage("kmeans.update"));
    assert!(check.instrumented_calls > 0 && check.per_call_ns > 0.0);
    assert!(check.overhead_pct < 2.0, "{}%", check.overhead_pct);
    assert!(check.wall_ms > 0.0);
}
