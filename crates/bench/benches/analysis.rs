//! Benchmarks for the analysis toolkit: one bench per paper table/figure,
//! timing the analysis that regenerates it on a fixed mid-size dataset.

#![allow(clippy::unwrap_used, clippy::semicolon_if_nothing_returned)]

use criterion::{criterion_group, criterion_main, Criterion};
use dcfail_bench::bench_dataset;
use dcfail_core::{
    age, availability, capacity, class_mix, consolidation, interfailure, onoff, panel, prediction,
    rates, recurrence, repair, spatial, usage, ClassSource,
};
use dcfail_model::machine::MachineKind;
use dcfail_model::telemetry::OnOffLog;

fn bench_artifacts(c: &mut Criterion) {
    let ds = bench_dataset(0.2, 7);
    let mut g = c.benchmark_group("analysis");

    g.bench_function("table2_dataset_stats", |b| b.iter(|| ds.subsystem_stats()));
    g.bench_function("fig1_class_mix", |b| {
        b.iter(|| class_mix::class_mix(&ds, ClassSource::Reported))
    });
    g.bench_function("fig2_weekly_rates", |b| {
        b.iter(|| rates::weekly_failure_rates(&ds))
    });
    g.bench_function("fig3_interfailure_fit", |b| {
        b.iter(|| interfailure::analyze(&ds, MachineKind::Vm))
    });
    g.bench_function("table3_interfailure_by_class", |b| {
        b.iter(|| interfailure::table3(&ds, ClassSource::Reported))
    });
    g.bench_function("fig4_repair_fit", |b| {
        b.iter(|| repair::analyze(&ds, MachineKind::Pm))
    });
    g.bench_function("table4_repair_by_class", |b| {
        b.iter(|| repair::table4(&ds, ClassSource::Reported))
    });
    g.bench_function("fig5_recurrence_windows", |b| {
        b.iter(|| recurrence::fig5(&ds, MachineKind::Pm))
    });
    g.bench_function("table5_random_vs_recurrent", |b| {
        b.iter(|| recurrence::table5(&ds))
    });
    g.bench_function("table6_incident_census", |b| {
        b.iter(|| spatial::table6(&ds))
    });
    g.bench_function("table7_incident_by_class", |b| {
        b.iter(|| spatial::table7(&ds, ClassSource::Reported))
    });
    g.bench_function("fig6_age", |b| b.iter(|| age::analyze(&ds)));
    g.bench_function("fig7_capacity_curves", |b| {
        b.iter(|| {
            (
                capacity::rate_by_cpu(&ds, MachineKind::Pm),
                capacity::rate_by_memory(&ds, MachineKind::Vm),
                capacity::rate_by_disk_count(&ds),
            )
        })
    });
    g.bench_function("fig8_usage_curves", |b| {
        b.iter(|| {
            (
                usage::rate_by_cpu_util(&ds, MachineKind::Vm),
                usage::rate_by_mem_util(&ds, MachineKind::Pm),
                usage::rate_by_network(&ds),
            )
        })
    });
    g.bench_function("fig9_consolidation", |b| {
        b.iter(|| consolidation::rate_by_consolidation(&ds))
    });
    g.bench_function("fig10_onoff", |b| b.iter(|| onoff::rate_by_onoff(&ds)));
    g.bench_function("fig8_10_panels_single_pass", |b| {
        b.iter(|| panel::observe_dataset(&ds, panel::Panel::reads_telemetry))
    });
    g.bench_function("extra_availability", |b| {
        b.iter(|| availability::by_kind(&ds, MachineKind::Pm))
    });
    g.bench_function("extra_censored_interfailure", |b| {
        b.iter(|| interfailure::analyze_censored(&ds, MachineKind::Vm))
    });
    g.bench_function("extra_prediction_score_week", |b| {
        b.iter(|| prediction::score_week(&ds, 26, &prediction::PredictorWeights::default()))
    });
    g.finish();
}

/// The two ways to count observable on/off transitions over every VM log:
/// the O(toggles) grid-parity walk the analyses use, and the old
/// materialize-the-samples path kept as its oracle. The pair documents the
/// asymptotic gap the fleet-scale perf pass bought (and guards it — the
/// equality of the two counts is pinned by tests, this pins the speed).
fn bench_transition_counting(c: &mut Criterion) {
    let ds = bench_dataset(0.2, 7);
    let logs: Vec<&OnOffLog> = ds
        .machines()
        .iter()
        .filter_map(|m| ds.telemetry().onoff(m.id()))
        .collect();
    let mut g = c.benchmark_group("transitions");
    g.bench_function("grid_parity_walk", |b| {
        b.iter(|| {
            logs.iter()
                .map(|log| log.sampled_transitions())
                .sum::<usize>()
        })
    });
    g.bench_function("sampled_view_oracle", |b| {
        b.iter(|| {
            logs.iter()
                .map(|log| {
                    log.samples_15min()
                        .windows(2)
                        .filter(|w| w[0] != w[1])
                        .count()
                })
                .sum::<usize>()
        })
    });
    g.finish();
}

criterion_group!(transition_benches, bench_transition_counting);

criterion_group!(benches, bench_artifacts);
criterion_main!(benches, transition_benches);
