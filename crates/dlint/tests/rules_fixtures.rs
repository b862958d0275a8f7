//! Fixture-based rule tests: every token rule (D01–D10, D13–D17) has at least
//! one minimal source file that fires it and a suppressed twin that does not.
//!
//! The fixtures live under `tests/fixtures/` (excluded from the workspace
//! walk) and are linted one file at a time under a virtual path that puts
//! them in the rule's scope — e.g. the D01 fixture pretends to live in
//! `crates/core/src/`, where hash collections are banned. A one-file corpus
//! is also all the callers D17 sees.

use dcfail_dlint::{Baseline, Corpus, LintReport, LintRule};

/// Lints one in-memory file under `path` (no baseline).
fn lint_source(path: &str, source: &str) -> LintReport {
    Corpus::from_sources([(path, source)]).lint_with_baseline(&Baseline::default())
}

struct Case {
    rule: LintRule,
    /// Virtual path placing the fixture in the rule's scope.
    virtual_path: &'static str,
    fire: &'static str,
    suppressed: &'static str,
}

const CASES: &[Case] = &[
    Case {
        rule: LintRule::D01,
        virtual_path: "crates/core/src/fixture.rs",
        fire: include_str!("fixtures/d01_fire.rs"),
        suppressed: include_str!("fixtures/d01_suppressed.rs"),
    },
    Case {
        rule: LintRule::D02,
        virtual_path: "crates/stats/src/fixture.rs",
        fire: include_str!("fixtures/d02_fire.rs"),
        suppressed: include_str!("fixtures/d02_suppressed.rs"),
    },
    Case {
        rule: LintRule::D03,
        virtual_path: "crates/synth/src/fixture.rs",
        fire: include_str!("fixtures/d03_fire.rs"),
        suppressed: include_str!("fixtures/d03_suppressed.rs"),
    },
    Case {
        rule: LintRule::D04,
        virtual_path: "crates/core/src/fixture.rs",
        fire: include_str!("fixtures/d04_fire.rs"),
        suppressed: include_str!("fixtures/d04_suppressed.rs"),
    },
    Case {
        rule: LintRule::D05,
        virtual_path: "crates/synth/src/fixture.rs",
        fire: include_str!("fixtures/d05_fire.rs"),
        suppressed: include_str!("fixtures/d05_suppressed.rs"),
    },
    Case {
        rule: LintRule::D05,
        virtual_path: "crates/shard/src/lib.rs",
        fire: include_str!("fixtures/d05_stage_fire.rs"),
        suppressed: include_str!("fixtures/d05_stage_suppressed.rs"),
    },
    Case {
        rule: LintRule::D06,
        virtual_path: "crates/synth/src/norm_fixture.rs",
        fire: include_str!("fixtures/d06_fire.rs"),
        suppressed: include_str!("fixtures/d06_suppressed.rs"),
    },
    Case {
        rule: LintRule::D07,
        virtual_path: "crates/model/src/fixture.rs",
        fire: include_str!("fixtures/d07_fire.rs"),
        suppressed: include_str!("fixtures/d07_suppressed.rs"),
    },
    Case {
        rule: LintRule::D08,
        virtual_path: "crates/core/src/counts_fixture.rs",
        fire: include_str!("fixtures/d08_fire.rs"),
        suppressed: include_str!("fixtures/d08_suppressed.rs"),
    },
    Case {
        rule: LintRule::D09,
        virtual_path: "crates/stats/src/fixture.rs",
        fire: include_str!("fixtures/d09_fire.rs"),
        suppressed: include_str!("fixtures/d09_suppressed.rs"),
    },
    Case {
        rule: LintRule::D10,
        virtual_path: "crates/core/src/fixture.rs",
        fire: include_str!("fixtures/d10_fire.rs"),
        suppressed: include_str!("fixtures/d10_suppressed.rs"),
    },
    Case {
        rule: LintRule::D13,
        virtual_path: "crates/report/src/fixture.rs",
        fire: include_str!("fixtures/d13_fire.rs"),
        suppressed: include_str!("fixtures/d13_suppressed.rs"),
    },
    Case {
        rule: LintRule::D14,
        virtual_path: "crates/core/src/fixture.rs",
        fire: include_str!("fixtures/d14_fire.rs"),
        suppressed: include_str!("fixtures/d14_suppressed.rs"),
    },
    Case {
        rule: LintRule::D14,
        virtual_path: "crates/core/src/fixture.rs",
        fire: include_str!("fixtures/d14_walk_forward_fire.rs"),
        suppressed: include_str!("fixtures/d14_walk_forward_suppressed.rs"),
    },
    Case {
        rule: LintRule::D15,
        virtual_path: "crates/stream/src/fixture.rs",
        fire: include_str!("fixtures/d15_fire.rs"),
        suppressed: include_str!("fixtures/d15_suppressed.rs"),
    },
    Case {
        rule: LintRule::D15,
        virtual_path: "crates/stream/src/fixture.rs",
        fire: include_str!("fixtures/d15_collections_fire.rs"),
        suppressed: include_str!("fixtures/d15_collections_suppressed.rs"),
    },
    Case {
        rule: LintRule::D16,
        // In scope even inside the serve crate: only conn.rs is exempt.
        virtual_path: "crates/serve/src/fixture.rs",
        fire: include_str!("fixtures/d16_fire.rs"),
        suppressed: include_str!("fixtures/d16_suppressed.rs"),
    },
    Case {
        rule: LintRule::D17,
        virtual_path: "crates/stats/src/fixture.rs",
        fire: include_str!("fixtures/d17_fire.rs"),
        suppressed: include_str!("fixtures/d17_suppressed.rs"),
    },
    Case {
        rule: LintRule::D17,
        virtual_path: "crates/stats/src/fixture.rs",
        fire: include_str!("fixtures/d17_path_fire.rs"),
        suppressed: include_str!("fixtures/d17_path_suppressed.rs"),
    },
    Case {
        rule: LintRule::D17,
        virtual_path: "crates/stats/src/fixture.rs",
        fire: include_str!("fixtures/d17_method_fire.rs"),
        suppressed: include_str!("fixtures/d17_method_suppressed.rs"),
    },
];

#[test]
fn every_rule_fires_on_its_fixture() {
    for case in CASES {
        let r = lint_source(case.virtual_path, case.fire);
        assert!(
            r.report.find(case.rule).is_some(),
            "{} fixture did not fire:\n{}",
            case.rule.code(),
            r.render_text()
        );
        let d = r.report.find(case.rule).expect("finding present");
        assert!(
            d.subjects[0].starts_with(case.virtual_path),
            "{}: finding lacks a path:line subject ({:?})",
            case.rule.code(),
            d.subjects
        );
    }
}

#[test]
fn suppressed_twin_is_silent() {
    for case in CASES {
        let r = lint_source(case.virtual_path, case.suppressed);
        assert!(
            r.report.find(case.rule).is_none(),
            "{} twin still fires:\n{}",
            case.rule.code(),
            r.render_text()
        );
        assert!(
            r.suppressed >= 1,
            "{} twin should count its suppression",
            case.rule.code()
        );
        assert!(
            r.report.find(LintRule::D11).is_none(),
            "{} twin suppression must carry a reason:\n{}",
            case.rule.code(),
            r.render_text()
        );
    }
}

#[test]
fn d14_names_the_fix_for_each_scan() {
    let telemetry = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/d14_fire.rs"),
    );
    let d = telemetry
        .report
        .find(LintRule::D14)
        .expect("finding present");
    assert!(
        d.message.contains("monthly_transition_rates"),
        "{}",
        d.message
    );
    let walk = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/d14_walk_forward_fire.rs"),
    );
    let d = walk.report.find(LintRule::D14).expect("finding present");
    assert!(d.message.starts_with("score_week "), "{}", d.message);
    assert!(d.message.contains("evaluate's sweep"), "{}", d.message);
}

#[test]
fn d15_sees_each_call_that_grows_a_collection() {
    let r = lint_source(
        "crates/stream/src/fixture.rs",
        include_str!("fixtures/d15_collections_fire.rs"),
    );
    let mut calls: Vec<&str> = r
        .report
        .diagnostics
        .iter()
        .filter(|d| d.rule == LintRule::D15)
        .map(|d| d.message.split('…').next().unwrap_or_default())
        .collect();
    calls.sort_unstable();
    assert_eq!(
        calls,
        [".extend(", ".insert(", ".push_back("],
        "{}",
        r.render_text()
    );
    let twin = lint_source(
        "crates/stream/src/fixture.rs",
        include_str!("fixtures/d15_collections_suppressed.rs"),
    );
    assert_eq!(twin.suppressed, 3, "{}", twin.render_text());
}

#[test]
fn d14_exempts_examples_benches_and_tests() {
    let fire = include_str!("fixtures/d14_walk_forward_fire.rs");
    for path in [
        "examples/failure_prediction.rs",
        "crates/bench/benches/analysis.rs",
        "crates/core/tests/fixture.rs",
    ] {
        let r = lint_source(path, fire);
        assert!(
            r.report.find(LintRule::D14).is_none(),
            "{path}:\n{}",
            r.render_text()
        );
    }
    let in_cfg_test = format!("#[cfg(test)]\nmod oracle {{\n{fire}}}\n");
    let r = lint_source("crates/core/src/fixture.rs", &in_cfg_test);
    assert!(
        r.report.find(LintRule::D14).is_none(),
        "{}",
        r.render_text()
    );
}

#[test]
fn fire_fixtures_fire_at_error_or_warn() {
    for case in CASES {
        let r = lint_source(case.virtual_path, case.fire);
        let d = r.report.find(case.rule).expect("finding present");
        assert_eq!(d.severity, case.rule.severity());
    }
}
