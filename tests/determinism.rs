//! Determinism and serialization guarantees: every experiment is
//! reproducible bit-for-bit from `(seed, scale)` and every dataset survives
//! a JSON roundtrip.

#![allow(clippy::unwrap_used)]

use dcfail::analysis::rates;
use dcfail::model::dataset::FailureDataset;
use dcfail::report::experiments::{run, ExperimentId, RunConfig};
use dcfail::synth::{EffectToggles, Scenario};

#[test]
fn same_seed_same_dataset_same_reports() {
    let a = Scenario::paper()
        .seed(77)
        .scale(0.04)
        .build()
        .into_dataset();
    let b = Scenario::paper()
        .seed(77)
        .scale(0.04)
        .build()
        .into_dataset();
    assert_eq!(a, b);
    let config = RunConfig::default();
    for id in [ExperimentId::Fig2, ExperimentId::Table5, ExperimentId::Fig7] {
        assert_eq!(
            run(id, &a, &config).text,
            run(id, &b, &config).text,
            "{id} diverged"
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = Scenario::paper()
        .seed(77)
        .scale(0.04)
        .build()
        .into_dataset();
    let b = Scenario::paper()
        .seed(78)
        .scale(0.04)
        .build()
        .into_dataset();
    assert_ne!(a, b);
}

#[test]
fn json_roundtrip_is_lossless_and_analyzable() {
    let ds = Scenario::paper().seed(5).scale(0.03).build().into_dataset();
    let json = serde_json::to_string(&ds).expect("serialize");
    let back: FailureDataset = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, ds);
    assert_eq!(
        rates::weekly_failure_rates(&ds),
        rates::weekly_failure_rates(&back)
    );
}

#[test]
fn effect_toggles_change_the_dataset() {
    let all = Scenario::paper().seed(9).scale(0.04).build().into_dataset();
    let none = Scenario::paper()
        .seed(9)
        .scale(0.04)
        .effects(EffectToggles::none())
        .build()
        .into_dataset();
    assert_ne!(all, none);
    // Machines/topology are identical — only the failure processes change.
    assert_eq!(all.machines(), none.machines());
    assert_eq!(all.topology(), none.topology());
}

#[test]
fn scaled_scenarios_nest_sensibly() {
    // Rates should be scale-invariant (within noise): the 4% estate and the
    // 12% estate measure a similar PM weekly rate.
    let small = Scenario::paper()
        .seed(13)
        .scale(0.06)
        .build()
        .into_dataset();
    let large = Scenario::paper()
        .seed(13)
        .scale(0.24)
        .build()
        .into_dataset();
    let rs = rates::weekly_failure_rates(&small).all_pm.unwrap().mean;
    let rl = rates::weekly_failure_rates(&large).all_pm.unwrap().mean;
    assert!(
        (rs / rl) > 0.5 && (rs / rl) < 2.0,
        "scale-dependent rates: {rs} vs {rl}"
    );
}
