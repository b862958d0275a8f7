//! The injector: applies an [`InjectionPlan`] to a dataset deterministically.

use crate::plan::InjectionPlan;
use dcfail_audit::RawDatasetParts;
use dcfail_model::prelude::*;
use dcfail_stats::rng::StreamRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// What one injection run actually did, per corruption stage.
///
/// Counts are exact, not expectations: a rate of 0.05 over 100 events may hit
/// 3 or 7 of them, and the log records the realized number so tests can
/// compare a recovery pass against the ground-truth damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct InjectionLog {
    /// Subsystems whose collector clock was skewed.
    pub skewed_subsystems: usize,
    /// Events shifted by a subsystem clock skew.
    pub skewed_events: usize,
    /// Events whose repair duration was truncated.
    pub truncated_repairs: usize,
    /// Events whose reported class was flipped.
    pub mislabeled_events: usize,
    /// Events recorded a second time.
    pub duplicated_events: usize,
    /// Events removed from the trace.
    pub dropped_events: usize,
    /// Order-breaking swaps applied to the event list.
    pub displaced_events: usize,
    /// VMs whose placement now points at a nonexistent box.
    pub orphaned_vms: usize,
    /// Weekly-usage series removed entirely.
    pub dropped_usage_series: usize,
    /// Weekly-usage series cut short (missing trailing windows).
    pub truncated_usage_series: usize,
    /// On/off logs removed.
    pub dropped_onoff_logs: usize,
    /// Consolidation series removed.
    pub dropped_consolidation: usize,
}

impl InjectionLog {
    /// Total number of corruptions applied.
    pub const fn total(&self) -> usize {
        self.skewed_events
            + self.truncated_repairs
            + self.mislabeled_events
            + self.duplicated_events
            + self.dropped_events
            + self.displaced_events
            + self.orphaned_vms
            + self.dropped_usage_series
            + self.truncated_usage_series
            + self.dropped_onoff_logs
            + self.dropped_consolidation
    }

    /// True when the run changed nothing.
    pub const fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

impl fmt::Display for InjectionLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "injected {} corruptions:", self.total())?;
        let rows = [
            ("events dropped", self.dropped_events),
            ("events duplicated", self.duplicated_events),
            ("order-breaking swaps", self.displaced_events),
            ("events clock-skewed", self.skewed_events),
            ("repairs truncated", self.truncated_repairs),
            ("classes mislabeled", self.mislabeled_events),
            ("VM placements orphaned", self.orphaned_vms),
            ("usage series dropped", self.dropped_usage_series),
            ("usage series truncated", self.truncated_usage_series),
            ("on/off logs dropped", self.dropped_onoff_logs),
            ("consolidation series dropped", self.dropped_consolidation),
        ];
        for (label, n) in rows {
            if n > 0 {
                writeln!(f, "  {n:>6}  {label}")?;
            }
        }
        Ok(())
    }
}

/// Corrupts a validated dataset according to `plan`.
///
/// The output is a [`RawDatasetParts`] rather than a `FailureDataset` because
/// the injected defects are, by design, states the validated type rejects.
pub fn inject(dataset: &FailureDataset, plan: &InjectionPlan) -> (RawDatasetParts, InjectionLog) {
    let mut parts = {
        let _span = dcfail_obs::span("chaos.copy");
        RawDatasetParts::from(dataset)
    };
    let log = inject_raw(&mut parts, plan);
    (parts, log)
}

/// Corrupts raw dataset parts in place according to `plan`.
///
/// Every corruption stage draws from its own forked random stream, so the
/// realized damage of one stage is independent of the rates of the others.
pub fn inject_raw(parts: &mut RawDatasetParts, plan: &InjectionPlan) -> InjectionLog {
    let _span = dcfail_obs::span("chaos.inject");
    let root = StreamRng::new(plan.seed).fork("chaos");
    let mut log = InjectionLog::default();

    skew_clocks(parts, plan, &root, &mut log);
    truncate_repairs(parts, plan, &root, &mut log);
    mislabel_classes(parts, plan, &root, &mut log);
    duplicate_events(parts, plan, &root, &mut log);
    drop_events(parts, plan, &root, &mut log);
    shuffle_events(parts, plan, &root, &mut log);
    orphan_placements(parts, plan, &root, &mut log);
    thin_telemetry(parts, plan, &root, &mut log);

    count_injections(&log);
    log
}

/// Feeds one injection run's realized damage into the metrics layer, one
/// counter per corruption type plus the total.
fn count_injections(log: &InjectionLog) {
    if !dcfail_obs::enabled() {
        return;
    }
    dcfail_obs::add("chaos.corruptions", log.total() as u64);
    let by_type: [(&'static str, usize); 11] = [
        ("chaos.skewed_events", log.skewed_events),
        ("chaos.truncated_repairs", log.truncated_repairs),
        ("chaos.mislabeled_events", log.mislabeled_events),
        ("chaos.duplicated_events", log.duplicated_events),
        ("chaos.dropped_events", log.dropped_events),
        ("chaos.displaced_events", log.displaced_events),
        ("chaos.orphaned_vms", log.orphaned_vms),
        ("chaos.dropped_usage_series", log.dropped_usage_series),
        ("chaos.truncated_usage_series", log.truncated_usage_series),
        ("chaos.dropped_onoff_logs", log.dropped_onoff_logs),
        ("chaos.dropped_consolidation", log.dropped_consolidation),
    ];
    for (name, n) in by_type {
        if n > 0 {
            dcfail_obs::add(name, n as u64);
        }
    }
}

/// Rebuilds an event with a different failure instant and repair duration.
fn reschedule(ev: &FailureEvent, at: SimTime, repair: SimDuration) -> FailureEvent {
    FailureEvent::new(
        ev.machine(),
        ev.incident(),
        ev.ticket(),
        at,
        ev.true_class(),
        ev.reported_class(),
        repair,
    )
}

/// Shifts every event of a skewed subsystem by a constant offset.
///
/// The offset is constant *per subsystem*, as a drifted collector clock would
/// be — so interfailure gaps within one machine survive, but events drift out
/// of the horizon and out of agreement with their tickets and incidents.
fn skew_clocks(
    parts: &mut RawDatasetParts,
    plan: &InjectionPlan,
    root: &StreamRng,
    log: &mut InjectionLog,
) {
    let rate = plan.rates.clock_skew;
    let num_sys = parts.topology.subsystems().len();
    if rate <= 0.0 || num_sys == 0 {
        return;
    }
    let mut rng = root.fork("clock-skew");
    let mut offsets: Vec<Option<SimDuration>> = vec![None; num_sys];
    for offset in &mut offsets {
        if rng.bernoulli(rate) {
            // Up to ±3 days of drift, never exactly zero.
            let minutes = rng.uniform_in(-3.0, 3.0) * 24.0 * 60.0;
            let minutes = if minutes.abs() < 1.0 { 60.0 } else { minutes };
            *offset = Some(SimDuration::from_minutes(minutes as i64));
            log.skewed_subsystems += 1;
        }
    }
    let subsystem_of: BTreeMap<MachineId, SubsystemId> = parts
        .machines
        .iter()
        .map(|m| (m.id(), m.subsystem()))
        .collect();
    for ev in &mut parts.events {
        // Raw input may carry negative repairs; those events cannot be
        // rebuilt through the typed constructor, so leave them as-is.
        if ev.repair().is_negative() {
            continue;
        }
        let Some(sys) = subsystem_of.get(&ev.machine()) else {
            continue;
        };
        if let Some(Some(offset)) = offsets.get(sys.index()) {
            *ev = reschedule(ev, ev.at() + *offset, ev.repair());
            log.skewed_events += 1;
        }
    }
}

/// Cuts repair durations short, as a ticket closed by a bulk cleanup or a
/// record truncated mid-write would be. Tickets are left untouched, so the
/// event and its ticket disagree afterwards.
fn truncate_repairs(
    parts: &mut RawDatasetParts,
    plan: &InjectionPlan,
    root: &StreamRng,
    log: &mut InjectionLog,
) {
    let rate = plan.rates.truncate_repair;
    if rate <= 0.0 {
        return;
    }
    let mut rng = root.fork("truncate-repair");
    for ev in &mut parts.events {
        if ev.repair().is_negative() || !rng.bernoulli(rate) {
            continue;
        }
        let keep = rng.uniform_in(0.0, 0.5);
        let repair = SimDuration::from_minutes((ev.repair().as_minutes() as f64 * keep) as i64);
        *ev = reschedule(ev, ev.at(), repair);
        log.truncated_repairs += 1;
    }
}

/// Flips reported failure classes to a random different class.
fn mislabel_classes(
    parts: &mut RawDatasetParts,
    plan: &InjectionPlan,
    root: &StreamRng,
    log: &mut InjectionLog,
) {
    let rate = plan.rates.mislabel_class;
    if rate <= 0.0 {
        return;
    }
    let mut rng = root.fork("mislabel");
    for ev in &mut parts.events {
        if !rng.bernoulli(rate) {
            continue;
        }
        let others: Vec<FailureClass> = FailureClass::ALL
            .into_iter()
            .filter(|&c| c != ev.reported_class())
            .collect();
        let class = others[rng.below(others.len())];
        *ev = ev.with_reported_class(class);
        log.mislabeled_events += 1;
    }
}

/// Records events a second time (retried writes / double entry).
fn duplicate_events(
    parts: &mut RawDatasetParts,
    plan: &InjectionPlan,
    root: &StreamRng,
    log: &mut InjectionLog,
) {
    let rate = plan.rates.duplicate_event;
    if rate <= 0.0 {
        return;
    }
    let mut rng = root.fork("duplicate");
    let original = parts.events.len();
    for i in 0..original {
        if rng.bernoulli(rate) {
            let dup = parts.events[i];
            parts.events.push(dup);
            log.duplicated_events += 1;
        }
    }
}

/// Removes events from the trace (lost writes).
fn drop_events(
    parts: &mut RawDatasetParts,
    plan: &InjectionPlan,
    root: &StreamRng,
    log: &mut InjectionLog,
) {
    let rate = plan.rates.drop_event;
    if rate <= 0.0 {
        return;
    }
    let mut rng = root.fork("drop");
    let before = parts.events.len();
    parts.events.retain(|_| !rng.bernoulli(rate));
    log.dropped_events += before - parts.events.len();
}

/// Breaks chronological order with random swaps (merge of unsynced sources).
fn shuffle_events(
    parts: &mut RawDatasetParts,
    plan: &InjectionPlan,
    root: &StreamRng,
    log: &mut InjectionLog,
) {
    let rate = plan.rates.shuffle_events;
    let len = parts.events.len();
    if rate <= 0.0 || len < 2 {
        return;
    }
    let mut rng = root.fork("shuffle");
    let swaps = ((rate.min(1.0) * len as f64).ceil() as usize).max(1);
    for _ in 0..swaps {
        let i = rng.below(len);
        let j = rng.below(len);
        if i != j {
            parts.events.swap(i, j);
            log.displaced_events += 1;
        }
    }
}

/// Points VM placements at boxes that do not exist (stale inventory).
fn orphan_placements(
    parts: &mut RawDatasetParts,
    plan: &InjectionPlan,
    root: &StreamRng,
    log: &mut InjectionLog,
) {
    let rate = plan.rates.orphan_placement;
    if rate <= 0.0 {
        return;
    }
    let mut rng = root.fork("orphan");
    let num_boxes = parts.topology.num_boxes() as u32;
    let mut next_ghost = num_boxes;
    for m in &mut parts.machines {
        if !m.is_vm() || !rng.bernoulli(rate) {
            continue;
        }
        *m = m.clone().with_host(Some(BoxId::new(next_ghost)));
        next_ghost += 1;
        log.orphaned_vms += 1;
    }
}

/// Drops or truncates telemetry series (monitoring outages).
fn thin_telemetry(
    parts: &mut RawDatasetParts,
    plan: &InjectionPlan,
    root: &StreamRng,
    log: &mut InjectionLog,
) {
    let rate = plan.rates.drop_telemetry;
    if rate <= 0.0 {
        return;
    }
    let mut rng = root.fork("telemetry");
    let mut thinned = Telemetry::new();
    for (machine, weeks) in parts.telemetry.usage_series() {
        if rng.bernoulli(rate) {
            log.dropped_usage_series += 1;
            continue;
        }
        let mut weeks = weeks.to_vec();
        if !weeks.is_empty() && rng.bernoulli(rate) {
            weeks.truncate(rng.below(weeks.len()));
            log.truncated_usage_series += 1;
        }
        thinned.set_usage(machine, weeks);
    }
    for (machine, onoff) in parts.telemetry.onoff_logs() {
        if rng.bernoulli(rate) {
            log.dropped_onoff_logs += 1;
            continue;
        }
        thinned.set_onoff(machine, onoff.clone());
    }
    for (machine, levels) in parts.telemetry.consolidation_series() {
        if rng.bernoulli(rate) {
            log.dropped_consolidation += 1;
            continue;
        }
        thinned.set_consolidation(machine, levels.to_vec());
    }
    parts.telemetry = thinned;
}
