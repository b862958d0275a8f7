//! Observability equivalence: enabling the `dcfail-obs` collection window
//! can never change analysis output. The metrics layer only reads clocks
//! and bumps counters — it never touches an RNG stream or a data structure
//! the pipeline consumes — so a traced run must render bit-identically to
//! an untraced one, at any thread count.
//!
//! The collection window is process-global and exclusive, so every test
//! that installs one goes through [`window_gate`].

#![allow(clippy::unwrap_used)]

use dcfail::obs;
use dcfail::par;
use dcfail::synth::Scenario;
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn window_gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Builds the scenario at `seed` and renders every paper artifact plus every
/// extension report into one string.
fn render_all(seed: u64) -> String {
    let ds = Scenario::paper()
        .seed(seed)
        .scale(0.03)
        .build()
        .into_dataset();
    let config = dcfail::report::experiments::RunConfig::with_seed(seed);
    let mut out = String::new();
    for (id, r) in dcfail::report::experiments::run_all(&ds, &config) {
        let _ = writeln!(out, "{id}:{}", r.text);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For arbitrary seeds, the report output with metrics enabled is
    /// byte-identical to the output with metrics disabled — pinned both
    /// sequentially (`DCFAIL_THREADS=1` equivalent) and at the default
    /// thread resolution.
    #[test]
    fn metrics_window_never_changes_report_output(seed in 0u64..1000) {
        let _gate = window_gate();
        for threads in [Some(1), None] {
            par::set_thread_override(threads);
            let baseline = render_all(seed);
            let handle = obs::ObsHandle::install().expect("gate serializes windows");
            let traced = render_all(seed);
            let report = handle.finish();
            par::set_thread_override(None);
            prop_assert_eq!(
                &traced,
                &baseline,
                "enabling metrics changed report output (threads {:?})",
                threads
            );
            // The window did observe the run it wrapped.
            prop_assert!(report.has_stage("synth.build"));
            prop_assert!(report.has_stage("report.run_all"));
        }
    }
}

/// Span paths nest across crate boundaries: stages of `Scenario::build`
/// record under the build span when they run on the same thread.
#[test]
fn span_paths_nest_across_crates() {
    let _gate = window_gate();
    let handle = obs::ObsHandle::install().expect("gate serializes windows");
    // Sequential, so nesting is deterministic (fanned-out work records at
    // the root of its worker thread).
    par::set_thread_override(Some(1));
    let _ds = Scenario::paper().seed(5).scale(0.02).build();
    par::set_thread_override(None);
    let report = handle.finish();
    let build = report.span("synth.build").expect("build span");
    assert_eq!(build.count, 1);
    for child in ["population", "telemetry", "incidents", "assemble"] {
        let path = format!("synth.build/{child}");
        let span = report
            .span(&path)
            .unwrap_or_else(|| panic!("{path} missing"));
        assert_eq!(span.count, 1, "{path}");
        assert!(span.total_ms <= build.total_ms, "{path} exceeds parent");
    }
    assert!(report.has_stage("placement"));
    assert!(report.has_stage("tickets"));
    assert!(report.counter("synth.machines").unwrap_or(0) > 0);
}

/// The JSON export parses as JSON and leads with the schema version.
#[test]
fn json_export_is_parseable_and_versioned() {
    let _gate = window_gate();
    let handle = obs::ObsHandle::install().expect("gate serializes windows");
    let _ds = Scenario::paper().seed(6).scale(0.02).build();
    let report = handle.finish();
    let json = report.to_json();
    assert!(json.starts_with("{\n  \"schema_version\": 2,"));
    let value: serde::Value = serde_json::from_str(&json).expect("export parses as JSON");
    let obj = match value {
        serde::Value::Object(map) => map,
        other => panic!("export is not a JSON object: {other:?}"),
    };
    for key in [
        "schema_version",
        "spans",
        "counters",
        "histograms",
        "warnings",
    ] {
        assert!(obj.iter().any(|(k, _)| k == key), "{key} missing");
    }
}

/// What the counters `names` read after `work` runs under a window of its
/// own.
fn counted(names: &[&str], work: impl FnOnce()) -> Vec<u64> {
    let handle = obs::ObsHandle::install().expect("gate serializes windows");
    work();
    let report = handle.finish();
    names
        .iter()
        .map(|name| report.counter(name).unwrap_or(0))
        .collect()
}

/// The reorder buffer's drain counters over one replay of `feed` jittered
/// within 6 h, its `seq`s spread threefold as a feed thinned upstream would
/// have them: a bucket of one or two arrivals is placed by offset, a larger
/// one spans too many offsets and is sorted.
fn jittered_drains(
    dataset: &dcfail::model::dataset::FailureDataset,
    feed: &[dcfail::synth::feed::FeedEvent],
) -> Vec<u64> {
    use dcfail::stream::{StreamConfig, StreamEngine};
    use dcfail::synth::feed::{reorder_within_slack, FeedEvent};

    let slack = dcfail::model::time::SimDuration::from_hours(6);
    let spread: Vec<FeedEvent> = (feed.iter())
        .map(|&ev| FeedEvent {
            seq: ev.seq * 3,
            ..ev
        })
        .collect();
    let mut rng = dcfail::stats::rng::StreamRng::new(11);
    let jittered = reorder_within_slack(&spread, slack, &mut rng);
    let drains = [
        "stream.buckets_placed",
        "stream.buckets_sorted",
        "stream.arrivals_placed",
        "stream.arrivals_sorted",
    ];
    counted(&drains, || {
        let config = StreamConfig {
            slack,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::new(dataset.horizon(), config);
        for &ev in &jittered {
            engine
                .ingest(ev)
                .expect("a jittered feed arrives within its slack");
        }
        engine.finish();
    })
}

/// The exact work counters count work, not scheduling: each reads the same
/// at 1, 2 and 3 threads. The panel kernel bins the same values whether the
/// Fig. 8–10 panels are counted over the whole fleet, shard by shard, or
/// from a canonical replay of the dataset's feed. The individual-failure
/// walk counts the same draws and hazard evaluations over the whole fleet
/// and summed over shards, and its draws are the per-day walk's: one per
/// machine-day with a positive hazard, which in the paper's model is every
/// day of a machine with a positive base rate. The prediction sweep scores
/// every machine in every week from week 8, and a jittered replay puts its
/// buckets in order by offset and by sort.
#[test]
fn work_counters_read_the_same_at_any_thread_count() {
    use dcfail::analysis::panel::{self, Panel};
    use dcfail::model::machine::MachineKind;
    use dcfail::report::experiments::{self, ExperimentId, RunConfig};
    use dcfail::stream::{StreamConfig, StreamEngine};
    use dcfail::tickets::classify::{apply_to_dataset, PipelineConfig};

    let _gate = window_gate();
    let config = Scenario::paper().seed(11).scale(0.03).config().clone();
    let dataset = Scenario::from_config(config.clone()).build().into_dataset();
    let feed = dcfail::synth::feed::dataset_feed(&dataset);
    let machine_weeks = dataset.machines().len() * (dataset.horizon().num_weeks() - 8);
    let (_, batch) = panel::observe_dataset(&dataset, Panel::reads_telemetry);
    let positive_rate = dataset
        .machines()
        .iter()
        .filter(|m| {
            let sys = &config.subsystems[m.subsystem().index()];
            match m.kind() {
                MachineKind::Pm => config.pm_base_weekly * sys.pm_rate_mult > 0.0,
                MachineKind::Vm => config.vm_base_weekly * sys.vm_rate_mult > 0.0,
            }
        })
        .count();
    let per_day_draws = (positive_rate * config.horizon.num_days()) as u64;
    let values = ["panel.values_binned"];
    let walk = ["synth.individual.draws", "synth.individual.hazard_evals"];
    let mut readings = Vec::new();
    for threads in [1, 2, 3] {
        par::set_thread_override(Some(threads));
        let figures = counted(&values, || {
            for id in [ExperimentId::Fig8, ExperimentId::Fig9, ExperimentId::Fig10] {
                experiments::run(id, &dataset, &RunConfig::default());
            }
        });
        let fleet = counted(&walk, || {
            Scenario::from_config(config.clone()).build();
        });
        let [draws, hazard_evals] = fleet[..] else {
            unreachable!("two counters")
        };
        assert_eq!(draws, per_day_draws, "{threads} threads: the walk's draws");
        assert!(hazard_evals * 3 < draws, "{threads} threads: {fleet:?}");
        let shards = counted(&[values[0], walk[0], walk[1]], || {
            dcfail::shard::build_sharded(&config, 3);
        });
        assert_eq!(
            shards,
            [batch, draws, hazard_evals],
            "{threads} threads: the sum over shards"
        );
        let prediction = counted(&["prediction.machine_weeks"], || {
            experiments::run(ExperimentId::Prediction, &dataset, &RunConfig::default());
        });
        assert_eq!(
            prediction,
            [machine_weeks as u64],
            "{threads} threads: every machine-week from week 8"
        );
        let stream = counted(&values, || {
            let mut engine = StreamEngine::new(dataset.horizon(), StreamConfig::default());
            for &ev in &feed {
                engine.ingest(ev).expect("a canonical feed is never late");
            }
            engine.finish();
        });
        assert_eq!(figures, [batch], "{threads} threads: the figure runners");
        assert_eq!(stream, [batch], "{threads} threads: the stream replay");
        let drained = jittered_drains(&dataset, &feed);
        assert!(
            drained.iter().all(|&n| n > 0),
            "{threads} threads: {drained:?}"
        );
        let classify = [
            "classify.texts",
            "kmeans.iterations",
            "kmeans.distance_evals",
            "kmeans.rows",
        ];
        let kmeans = counted(&classify, || {
            let mut rng = dcfail::stats::rng::StreamRng::new(11);
            apply_to_dataset(&mut dataset.clone(), PipelineConfig::default(), &mut rng);
        });
        assert!(kmeans.iter().all(|&n| n > 0), "{kmeans:?}");
        readings.push([fleet, prediction, drained, kmeans].concat());
    }
    par::set_thread_override(None);
    assert!(batch > 0);
    assert!(readings.windows(2).all(|w| w[0] == w[1]), "{readings:?}");
}
