//! Engine-level checks of how applied payloads land in the Fig. 8–10
//! panels: duplicate and stale usage, out-of-range values, machine kinds.

#![allow(clippy::unwrap_used)]

use dcfail_core::curve::AttributeCurve;
use dcfail_core::panel::{panel, Constant, Source, Usage};
use dcfail_model::prelude::*;
use dcfail_stream::{FeedEvent, FeedPayload, StreamConfig, StreamEngine, StreamOutput};

fn horizon() -> Horizon {
    Horizon::observation_year()
}

fn week_start(week: usize) -> SimTime {
    horizon().start() + SimDuration::from_days(7 * week as i64)
}

fn attrs(machine: u32, kind: MachineKind) -> FeedPayload {
    FeedPayload::Attrs {
        machine: MachineId::new(machine),
        kind,
        consolidation: Some(16.0),
        onoff_rate: Some(0.5),
    }
}

/// A usage rollup of `machine` for `week`: `[cpu, mem, disk, net]`.
fn usage(machine: u32, kind: MachineKind, week: usize, values: [f64; 4]) -> FeedPayload {
    let [cpu, mem, disk, net] = values;
    FeedPayload::Usage {
        machine: MachineId::new(machine),
        kind,
        week,
        cpu,
        mem,
        disk,
        net,
    }
}

fn failure(machine: u32) -> FeedPayload {
    FeedPayload::Failure {
        machine: MachineId::new(machine),
    }
}

/// Streams `events` at zero slack, numbering them in order.
fn run(events: &[(SimTime, FeedPayload)]) -> StreamOutput {
    let mut engine = StreamEngine::new(horizon(), StreamConfig::default());
    for (seq, &(at, payload)) in events.iter().enumerate() {
        engine
            .ingest(FeedEvent {
                at,
                seq: seq as u64,
                payload,
            })
            .unwrap();
    }
    engine.finish()
}

fn curve(out: &StreamOutput, kind: MachineKind, source: Source) -> &AttributeCurve {
    let wanted = panel(kind, source);
    &out.panels
        .iter()
        .find(|p| std::ptr::eq(p.panel, wanted))
        .unwrap()
        .curve
}

/// `(label, machine-weeks, events)` of every populated bucket.
fn points(curve: &AttributeCurve) -> Vec<(&str, usize, usize)> {
    curve
        .points
        .iter()
        .map(|p| (p.label.as_str(), p.machine_weeks, p.events))
        .collect()
}

const CPU: Source = Source::Weekly(Usage::Cpu);
const MEM: Source = Source::Weekly(Usage::Mem);
const DISK: Source = Source::Weekly(Usage::Disk);
const NET: Source = Source::Weekly(Usage::Net);

#[test]
fn duplicate_machine_week_usage_counts_once() {
    let out = run(&[
        (week_start(0), attrs(0, MachineKind::Vm)),
        (
            week_start(0),
            usage(0, MachineKind::Vm, 0, [15.0, 55.0, 90.0, 64.0]),
        ),
        // A second rollup for the same machine-week, with other values.
        (
            week_start(0),
            usage(0, MachineKind::Vm, 0, [95.0, 5.0, 5.0, 1.0]),
        ),
        (week_start(0) + SimDuration::from_days(2), failure(0)),
    ]);
    assert_eq!(out.stats.duplicate_usage, 1);
    // The first rollup's bins stand; the machine-week counts once.
    assert_eq!(points(curve(&out, MachineKind::Vm, CPU)), [("10-20", 1, 1)]);
    assert_eq!(
        points(curve(&out, MachineKind::Vm, NET)),
        [("64-128", 1, 1)]
    );
}

#[test]
fn usage_for_a_closed_week_is_ignored_and_counted() {
    let out = run(&[
        (week_start(0), attrs(0, MachineKind::Vm)),
        // Moving the clock to week 2 closes weeks 0 and 1 ...
        (week_start(2), failure(1)),
        // ... so a week-0 rollup arriving now has nowhere to go.
        (
            week_start(2),
            usage(0, MachineKind::Vm, 0, [15.0, 55.0, 90.0, 64.0]),
        ),
    ]);
    assert_eq!(out.stats.duplicate_usage, 1);
    assert_eq!(out.stats.late_events, 0);
    for source in [CPU, MEM, DISK, NET] {
        assert!(curve(&out, MachineKind::Vm, source).points.is_empty());
    }
}

#[test]
fn sub_2kbps_network_volume_is_unbinned_only_in_fig8d() {
    let out = run(&[
        (week_start(3), attrs(7, MachineKind::Vm)),
        // 0.5 Kbps is below the 2 Kbps bottom edge of the network bins.
        (
            week_start(3),
            usage(7, MachineKind::Vm, 3, [1.0, 1.0, 1.0, 0.5]),
        ),
        (week_start(3) + SimDuration::from_hours(5), failure(7)),
    ]);
    assert!(curve(&out, MachineKind::Vm, NET).points.is_empty());
    for source in [CPU, MEM, DISK] {
        assert_eq!(
            points(curve(&out, MachineKind::Vm, source)),
            [("0-10", 1, 1)]
        );
    }
    // The constant panels still see the machine and its failure.
    let level = curve(
        &out,
        MachineKind::Vm,
        Source::Constant(Constant::Consolidation),
    );
    assert_eq!(points(level), [("16", horizon().num_weeks(), 1)]);
}

#[test]
fn pm_usage_lands_only_in_pm_panels() {
    let out = run(&[
        (week_start(0), attrs(0, MachineKind::Pm)),
        (
            week_start(0),
            usage(0, MachineKind::Pm, 0, [15.0, 55.0, 90.0, 64.0]),
        ),
        (week_start(0) + SimDuration::from_days(1), failure(0)),
    ]);
    assert_eq!(points(curve(&out, MachineKind::Pm, CPU)), [("10-20", 1, 1)]);
    assert_eq!(points(curve(&out, MachineKind::Pm, MEM)), [("50-60", 1, 1)]);
    for p in &out.panels {
        if p.panel.kind == MachineKind::Vm {
            assert!(p.curve.points.is_empty(), "{} counted a PM", p.panel.name);
            assert!(p.shares.iter().all(|&(_, s)| s == 0.0));
        }
    }
}

#[test]
fn extreme_machine_ids_are_counted_without_dense_sizing() {
    let id = u32::MAX;
    let out = run(&[
        (week_start(0), attrs(id, MachineKind::Vm)),
        (
            week_start(0),
            usage(id, MachineKind::Vm, 0, [15.0, 55.0, 90.0, 64.0]),
        ),
        (week_start(0) + SimDuration::from_days(1), failure(id)),
    ]);
    assert_eq!(out.stats.machines, 1);
    assert_eq!(points(curve(&out, MachineKind::Vm, CPU)), [("10-20", 1, 1)]);
}
