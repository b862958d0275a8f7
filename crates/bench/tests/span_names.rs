//! The per-layer benchmark metrics sum every span whose path is a layer name
//! or ends in `/name` (perfbench's `measure::span_ms`). A new span ending in
//! one of those names would move a metric without anyone asking it to, so
//! this pins which spans of the traced pipeline end in each. Kept in its own
//! test binary: it opens the process-global obs window.

use dcfail_bench::pipeline::run;

#[test]
fn only_the_measured_stages_end_in_a_per_layer_name() {
    let handle = dcfail_obs::ObsHandle::install().expect("no window is open yet");
    run(7, 0.02, 0.05).expect("the pipeline runs");
    let report = handle.finish();
    for (leaf, measured) in [
        ("tickets", "synth.build/assemble/tickets"),
        ("telemetry", "synth.build/telemetry"),
        ("incidents", "synth.build/incidents"),
        ("kmeans", "classify/kmeans"),
    ] {
        let nested = format!("/{leaf}");
        let ending: Vec<&str> = report
            .spans
            .iter()
            .map(|s| s.path.as_str())
            .filter(|path| *path == leaf || path.ends_with(&nested))
            .collect();
        assert_eq!(ending, [measured], "spans ending in {leaf}");
    }
    // Recovery's stages are named apart from the layers they resemble.
    for stage in ["tickets", "telemetry", "events", "machines", "build"] {
        let path = format!("audit.recover/recover.{stage}");
        assert!(report.span(&path).is_some(), "no {path}");
    }
}
