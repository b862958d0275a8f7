//! Single flight over the artifact cache: readers that all miss one cold
//! key share one render and one encoding. Kept in its own test binary
//! because it counts renders in the process-global obs window, which one
//! test at a time may own.

#![allow(clippy::unwrap_used)]

use dcfail_obs::ObsHandle;
use dcfail_report::{run, Envelope, ExperimentId, RunConfig, Toolkit};
use std::sync::{Arc, Barrier};

const READERS: usize = 8;

#[test]
fn concurrent_misses_of_one_cold_key_render_once() {
    let config = RunConfig::with_seed(42);
    let toolkit = Toolkit::build_scaled(config.clone(), 0.05);
    let obs = ObsHandle::install().expect("the only test in this binary opening a window");
    let barrier = Barrier::new(READERS);
    let results: Vec<_> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    (
                        toolkit.render(ExperimentId::Fig8),
                        toolkit.envelope_json(ExperimentId::Fig8),
                    )
                })
            })
            .collect();
        readers
            .into_iter()
            .map(|r| r.join().expect("reader thread"))
            .collect()
    });
    let report = obs.finish();
    assert_eq!(
        report.counter("toolkit.cache_miss"),
        Some(1),
        "{READERS} concurrent cold readers must share one render"
    );
    assert_eq!(
        report.counter("toolkit.cache_hit"),
        Some(2 * READERS as u64 - 1)
    );
    let (rendered, json) = &results[0];
    for (r, j) in &results {
        assert!(Arc::ptr_eq(r, rendered), "every reader shares one render");
        assert!(Arc::ptr_eq(j, json), "every reader shares one encoding");
    }
    let independent = Envelope::new(
        ExperimentId::Fig8,
        0,
        &config,
        run(ExperimentId::Fig8, toolkit.snapshot().dataset(), &config),
    )
    .to_json();
    assert_eq!(**json, *independent, "cached bytes != a fresh envelope");
}
