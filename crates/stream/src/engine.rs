//! The event-at-a-time ingest engine.
//!
//! [`StreamEngine`] consumes a boundedly-reordered feed of
//! [`FeedPayload`]-shaped events and maintains the Fig. 8/9/10 estimators
//! incrementally: a slack-bounded reorder buffer canonicalizes arrivals back
//! into `(at, seq)` order — one bucket per distinct timestamp, drained whole
//! once the watermark passes it — and each applied event goes straight into
//! the shared panel counts through the panel kernel's two steps: an `Attrs`
//! payload walks the machine kind's constant slots, a `Usage` payload walks
//! its weekly slots for one machine-week, and a failure is attributed
//! through the machine's bin rows.
//! Tumbling per-week windows only count failures for the burst detector and
//! close when the watermark passes their end. Because arrivals are
//! canonicalized *before* they touch any estimator, a streamed run is
//! byte-identical to the batch run by construction — at any thread count and
//! any legal reordering within the slack bound.

use crate::detect::{Alert, BurstDetector, DetectorConfig};
use dcfail_core::panel::{Constant, Panel, PanelCounts, PanelCurve, Slots, Usage, NO_BIN};
use dcfail_model::prelude::*;
use dcfail_report::experiments::{self, ExperimentId, RunConfig};
use dcfail_report::runners::{reports_digest, Rendered};
use dcfail_stats::merge::Mergeable;
use dcfail_synth::feed::{FeedEvent, FeedPayload};
use serde::Serialize;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Maximum arrival lateness the engine tolerates: an event may arrive
    /// after events up to `slack` newer than it. `ZERO` still permits
    /// arbitrary permutations of equal-timestamp events.
    pub slack: SimDuration,
    /// Burst-detector tuning.
    pub detector: DetectorConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            slack: SimDuration::ZERO,
            detector: DetectorConfig::weekly(),
        }
    }
}

/// An arrival the engine must reject to keep the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum StreamError {
    /// The event's time precedes the applied watermark: its canonical slot
    /// has already been replayed, so absorbing it would diverge from the
    /// batch result. Arrivals within the configured slack never trip this.
    LateEvent {
        /// The rejected event's time.
        at: SimTime,
        /// The watermark the event fell behind.
        watermark: SimTime,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LateEvent { at, watermark } => write!(
                f,
                "late event: at {} min < applied watermark {} min (exceeds the slack bound)",
                at.as_minutes(),
                watermark.as_minutes()
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// Ingest and window-lifecycle counters of one streamed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StreamStats {
    /// Events offered to [`StreamEngine::ingest`] (including rejected ones).
    pub events_ingested: u64,
    /// Events replayed out of the reorder buffer into the estimators.
    pub events_applied: u64,
    /// Arrivals rejected as late ([`StreamError::LateEvent`]).
    pub late_events: u64,
    /// Arrivals replaced by a later arrival with the same `(at, seq)` key:
    /// the last one is applied, the earlier ones only counted here. With
    /// them, `events_ingested == events_applied + late_events +
    /// duplicate_seq`.
    pub duplicate_seq: u64,
    /// Duplicate attribute announcements ignored.
    pub duplicate_attrs: u64,
    /// Duplicate machine-week usage rollups ignored.
    pub duplicate_usage: u64,
    /// Machines announced via `Attrs`.
    pub machines: u64,
    /// Failure events absorbed into windows.
    pub failures: u64,
    /// Tickets absorbed into windows.
    pub tickets: u64,
    /// Tumbling windows opened.
    pub windows_opened: u64,
    /// Tumbling windows closed (includes synthesized empty windows).
    pub windows_closed: u64,
    /// High-water mark of the reorder buffer, in events (a duplicate
    /// `(at, seq)` arrival counts while it is parked).
    pub peak_buffered: usize,
    /// High-water mark of simultaneously open windows.
    pub peak_open_windows: usize,
}

/// The bins of one machine seen in the feed, as bin rows of the engine's
/// panel counts.
#[derive(Debug, Clone)]
struct MachineRows {
    /// Whether an `Attrs` payload announced the machine.
    announced: bool,
    /// Bins of the constant (Fig. 9/10) panels, set on announcement.
    constants: Vec<u8>,
    /// The week `weekly` describes: the machine's latest usage rollup.
    usage_week: Option<usize>,
    /// Bins of the weekly (Fig. 8) panels in `usage_week`.
    weekly: Vec<u8>,
}

impl MachineRows {
    fn new(width: usize) -> Self {
        Self {
            announced: false,
            constants: vec![NO_BIN; width],
            usage_week: None,
            weekly: vec![NO_BIN; width],
        }
    }
}

/// Ids the dense machine table may cover beyond twice the machines seen.
const DENSE_HEADROOM: usize = 4096;

/// The bin rows of every machine seen in the feed. Machine ids come from
/// outside input, so none sizes an allocation: the dense table grows only to
/// cover ids below `2 × machines seen + DENSE_HEADROOM`, and every other id
/// lives in the sparse map. An empty dense slot also falls back to the map,
/// so an id stored sparse stays findable after the table grows past it.
/// Memory is O(machines seen).
#[derive(Debug, Default)]
struct MachineTable {
    dense: Vec<Option<MachineRows>>,
    sparse: BTreeMap<MachineId, MachineRows>,
    /// Machines stored, dense and sparse.
    len: usize,
}

impl MachineTable {
    fn get(&self, machine: MachineId) -> Option<&MachineRows> {
        match self.dense.get(machine.index()) {
            Some(Some(rows)) => Some(rows),
            _ => self.sparse.get(&machine),
        }
    }

    /// The rows of `machine`, `width` slots each, created on first sight.
    fn get_or_insert(&mut self, machine: MachineId, width: usize) -> &mut MachineRows {
        let i = machine.index();
        if self.get(machine).is_none() {
            self.len += 1;
            if i < 2 * self.len + DENSE_HEADROOM {
                if i >= self.dense.len() {
                    self.dense.resize_with(i + 1, || None);
                }
                self.dense[i] = Some(MachineRows::new(width));
            } else {
                self.sparse.insert(machine, MachineRows::new(width));
            }
        }
        match self.dense.get_mut(i) {
            Some(Some(rows)) => rows,
            _ => self.sparse.get_mut(&machine).expect("machine just ensured"),
        }
    }
}

/// Largest arrival list a drained bucket hands on for reuse. Outside the
/// weekly rollups a timestamp carries a handful of arrivals, so every such
/// list is kept; a rollup's list (thousands) is freed, so the pool stays
/// O(buckets parked at once) and never holds one rollup list per week.
const REUSED_CAPACITY: usize = 64;

/// An offset of the placement scratch that no arrival holds.
const EMPTY: u32 = u32::MAX;

/// How much reordering the drains did: the buckets put in `seq` order by
/// offset placement and by the key sort, and the arrivals in them. A bucket
/// that arrived in order counts in neither. Plain integers, added to obs
/// once, when the stream finishes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct DrainWork {
    buckets_placed: u64,
    arrivals_placed: u64,
    buckets_sorted: u64,
    arrivals_sorted: u64,
}

/// The slack-bounded reorder buffer: one bucket of arrivals per distinct
/// timestamp. The engine drains strictly below the watermark and rejects
/// any arrival behind it, so a bucket is complete when it leaves, and its
/// arrivals in `seq` order are exactly the canonical `(at, seq)` order.
/// The drain computes that order as a permutation of arrival indexes and
/// hands the arrivals over by index: no payload moves after it is parked.
#[derive(Debug, Default)]
struct ReorderBuffer {
    /// Each parked timestamp's arrival list, as an index into `lists`.
    buckets: BTreeMap<SimTime, usize>,
    /// Arrival lists, as `(seq, payload)`. A drained list is cleared and
    /// kept for a later timestamp, so parking seldom allocates.
    lists: Vec<Vec<(u64, FeedPayload)>>,
    /// Indexes of the drained lists, ready for reuse.
    free: Vec<usize>,
    /// The previous arrival's timestamp and list: an arrival at the same
    /// time joins that list without a map lookup. Cleared when the list
    /// drains.
    last: Option<(SimTime, usize)>,
    /// Arrivals parked across all buckets.
    len: usize,
    /// Placement scratch of a dense bucket: the index of the arrival at
    /// each `seq` offset from the bucket's least `seq`, or [`EMPTY`].
    slots: Vec<u32>,
    /// Sort scratch of a sparse bucket: `(seq, arrival index)` keys.
    keys: Vec<(u64, usize)>,
    work: DrainWork,
}

impl ReorderBuffer {
    fn park(&mut self, event: FeedEvent) {
        let list = match self.last {
            Some((at, list)) if at == event.at => list,
            _ => {
                let list = match self.buckets.entry(event.at) {
                    Entry::Occupied(slot) => *slot.get(),
                    Entry::Vacant(slot) => *slot.insert(self.free.pop().unwrap_or_else(|| {
                        self.lists.push(Vec::new());
                        self.lists.len() - 1
                    })),
                };
                self.last = Some((event.at, list));
                list
            }
        };
        // dlint::allow(D15): the list is a bucket of the watermark-drained reorder buffer; the drain bounds its memory to the slack
        self.lists[list].push((event.seq, event.payload));
        self.len += 1;
    }

    /// Drains every bucket before `bound` (all of them when `None`) in
    /// canonical order, handing each kept arrival to `apply` as
    /// `(at, seq, payload)`. Of arrivals sharing a `seq` only the last is
    /// kept, as a map insert would keep it. Returns how many arrivals were
    /// applied and how many were dropped that way.
    fn drain_before(
        &mut self,
        bound: Option<SimTime>,
        mut apply: impl FnMut(SimTime, u64, FeedPayload),
    ) -> (u64, u64) {
        let (mut applied, mut dropped) = (0, 0);
        while let Some(entry) = self.buckets.first_entry() {
            if bound.is_some_and(|bound| *entry.key() >= bound) {
                break;
            }
            let (at, list) = entry.remove_entry();
            if self.last.is_some_and(|(_, last)| last == list) {
                self.last = None;
            }
            let mut arrivals = std::mem::take(&mut self.lists[list]);
            self.len -= arrivals.len();
            let repeats = self.apply_in_order(&arrivals, |seq, payload| apply(at, seq, payload));
            applied += (arrivals.len() - repeats) as u64;
            dropped += repeats as u64;
            if arrivals.capacity() <= REUSED_CAPACITY {
                arrivals.clear();
                self.lists[list] = arrivals;
            }
            self.free.push(list);
        }
        (applied, dropped)
    }

    /// Hands one complete bucket's arrivals to `apply` in `seq` order, the
    /// last of each repeated `seq` only; returns how many repeats it
    /// dropped.
    fn apply_in_order(
        &mut self,
        arrivals: &[(u64, FeedPayload)],
        mut apply: impl FnMut(u64, FeedPayload),
    ) -> usize {
        // A strictly increasing `seq` is already canonical: the common case.
        if arrivals.is_sorted_by(|a, b| a.0 < b.0) {
            for &(seq, payload) in arrivals {
                apply(seq, payload);
            }
            return 0;
        }
        let n = arrivals.len();
        let (min, max) = arrivals.iter().fold((u64::MAX, 0), |(lo, hi), &(seq, _)| {
            (lo.min(seq), hi.max(seq))
        });
        // Dense: the `seq`s span fewer offsets than twice the arrivals, so
        // the scratch stays O(bucket) whatever the `seq`s are. Each arrival
        // writes its index at its offset; a later one overwrites an earlier
        // one with its `seq`, which keeps the last.
        if max - min < (n as u64).saturating_mul(2) && n < EMPTY as usize {
            self.work.buckets_placed += 1;
            self.work.arrivals_placed += n as u64;
            self.slots.clear();
            self.slots.resize((max - min) as usize + 1, EMPTY);
            let mut repeats = 0;
            for (i, &(seq, _)) in arrivals.iter().enumerate() {
                let slot = &mut self.slots[(seq - min) as usize];
                repeats += usize::from(*slot != EMPTY);
                *slot = i as u32;
            }
            for &i in self.slots.iter().filter(|&&i| i != EMPTY) {
                let (seq, payload) = arrivals[i as usize];
                apply(seq, payload);
            }
            return repeats;
        }
        // Sparse: `seq` comes from outside input and must not size the
        // scratch, so sort the unique `(seq, arrival index)` keys instead.
        self.work.buckets_sorted += 1;
        self.work.arrivals_sorted += n as u64;
        self.keys.clear();
        self.keys
            .extend(arrivals.iter().enumerate().map(|(i, &(seq, _))| (seq, i)));
        self.keys.sort_unstable();
        let mut repeats = 0;
        for (k, &(seq, i)) in self.keys.iter().enumerate() {
            // Keys sort by arrival within a `seq`: only the last is kept.
            if self.keys.get(k + 1).is_some_and(|next| next.0 == seq) {
                repeats += 1;
            } else {
                apply(seq, arrivals[i].1);
            }
        }
        repeats
    }
}

/// The figures and telemetry produced by a completed streamed run.
#[derive(Debug, Clone)]
pub struct StreamOutput {
    /// The finalized Fig. 8, 9 and 10 panels, in table order.
    pub panels: Vec<PanelCurve>,
    /// Burst alerts in deterministic (window-close) order.
    pub alerts: Vec<Alert>,
    /// Ingest and window-lifecycle counters.
    pub stats: StreamStats,
}

impl StreamOutput {
    /// Renders each figure whose panels the run counted, with the batch
    /// pipeline's figure renderer, keyed like the experiment registry and
    /// in its order.
    pub fn rendered(&self) -> Vec<(&'static str, Rendered)> {
        ExperimentId::ALL
            .into_iter()
            .filter_map(|id| Some((id.key(), experiments::render_panels(id, &self.panels)?)))
            .collect()
    }

    /// [`reports_digest`] over the rendered figures, byte-compatible with
    /// the golden-report digest format.
    pub fn digest(&self) -> u64 {
        reports_digest(&self.rendered())
    }
}

/// [`reports_digest`] of the batch pipeline's renders of the figures a
/// streamed run renders (those whose panels read telemetry) — the
/// comparison target of the stream==batch determinism contract. Computed
/// by the batch runners over the dataset, never through the engine.
pub fn batch_digest(dataset: &FailureDataset) -> u64 {
    let config = RunConfig::default();
    let batch: Vec<(ExperimentId, Rendered)> = ExperimentId::ALL
        .into_iter()
        .filter(|id| id.panels().any(Panel::reads_telemetry))
        .map(|id| (id, experiments::run(id, dataset, &config)))
        .collect();
    reports_digest(&batch)
}

/// Streaming ingest engine over one observation horizon.
pub struct StreamEngine {
    /// Slack-bounded reorder buffer: arrivals wait here until the watermark
    /// proves their canonical slot, then replay in `(at, seq)` order.
    buffer: ReorderBuffer,
    /// Everything else. Kept apart from the buffer so a drain hands each
    /// arrival from the buffer straight to [`Estimators::apply`].
    est: Estimators,
}

/// The engine's state outside the reorder buffer: the watermark, the
/// estimators the applied events update, the windows and the detector.
struct Estimators {
    horizon: Horizon,
    config: StreamConfig,
    max_seen: Option<SimTime>,
    /// Exclusive watermark: every event strictly before it has been applied.
    applied_through: Option<SimTime>,
    next_close: usize,
    /// Failure events of each week's tumbling window, `Some` while the
    /// window is open — the detector's input.
    windows: Vec<Option<u64>>,
    /// Windows currently open.
    open_windows: usize,
    /// Bin rows of every machine seen in the feed.
    machines: MachineTable,
    /// The Fig. 8–10 panel counts.
    counts: PanelCounts,
    /// The slot lists of `counts`, built once.
    slots: Slots,
    /// Values the panel steps binned, added to obs once, at `finish`.
    values_binned: u64,
    detector: BurstDetector,
    alerts: Vec<Alert>,
    stats: StreamStats,
}

impl StreamEngine {
    /// Fresh engine over `horizon`.
    pub fn new(horizon: Horizon, config: StreamConfig) -> Self {
        let counts = PanelCounts::new(Panel::reads_telemetry, horizon.num_weeks());
        Self {
            buffer: ReorderBuffer::default(),
            est: Estimators {
                slots: Slots::of(&counts),
                counts,
                values_binned: 0,
                detector: BurstDetector::new(config.detector),
                horizon,
                config,
                max_seen: None,
                applied_through: None,
                next_close: 0,
                windows: vec![None; horizon.num_weeks()],
                open_windows: 0,
                machines: MachineTable::default(),
                alerts: Vec::new(),
                stats: StreamStats::default(),
            },
        }
    }

    /// Ingest counters so far.
    #[cfg(test)]
    fn stats(&self) -> &StreamStats {
        &self.est.stats
    }

    /// Offers one arrival to the engine. Arrivals within the slack bound are
    /// buffered and replayed in canonical order; an arrival behind the
    /// applied watermark is rejected as [`StreamError::LateEvent`] and
    /// changes nothing.
    pub fn ingest(&mut self, event: FeedEvent) -> Result<(), StreamError> {
        let est = &mut self.est;
        est.stats.events_ingested += 1;
        if let Some(watermark) = est.applied_through {
            if event.at < watermark {
                est.stats.late_events += 1;
                dcfail_obs::add("stream.late_events", 1);
                return Err(StreamError::LateEvent {
                    at: event.at,
                    watermark,
                });
            }
        }
        est.max_seen = Some(est.max_seen.map_or(event.at, |m| m.max(event.at)));
        self.buffer.park(event);
        est.stats.peak_buffered = est.stats.peak_buffered.max(self.buffer.len);
        let watermark = est.max_seen.unwrap_or(event.at) - est.config.slack;
        self.advance_to(watermark);
        Ok(())
    }

    /// Replays every buffered event strictly before `watermark` in canonical
    /// order, then closes every window whose end the watermark passed.
    /// Draining strictly *below* keeps equal-timestamp arrivals waiting
    /// until the clock moves past them, which is what makes zero-slack runs
    /// safe under equal-timestamp permutations.
    fn advance_to(&mut self, watermark: SimTime) {
        if self.est.applied_through.is_some_and(|w| w >= watermark) {
            return;
        }
        self.drain(Some(watermark));
        let est = &mut self.est;
        est.applied_through = Some(watermark);
        while est.next_close < est.horizon.num_weeks() {
            if est.window_end(est.next_close) > watermark {
                break;
            }
            est.close_next_window();
        }
    }

    /// Replays every bucket before `bound` (all of them when `None`) in
    /// canonical order.
    fn drain(&mut self, bound: Option<SimTime>) {
        let est = &mut self.est;
        let (applied, duplicates) = self
            .buffer
            .drain_before(bound, |at, _, payload| est.apply(at, payload));
        if applied > 0 {
            dcfail_obs::add("stream.events_applied", applied);
        }
        if duplicates > 0 {
            dcfail_obs::add("stream.duplicate_seq", duplicates);
        }
        est.stats.events_applied += applied;
        est.stats.duplicate_seq += duplicates;
    }

    /// Ends the stream: replays everything still buffered, closes every
    /// remaining window (through the end of the horizon), and finalizes the
    /// estimators.
    pub fn finish(mut self) -> StreamOutput {
        let _span = dcfail_obs::span("stream.finish");
        self.drain(None);
        let mut est = self.est;
        while est.next_close < est.horizon.num_weeks() {
            est.close_next_window();
        }
        let work = self.buffer.work;
        dcfail_obs::add("stream.buckets_placed", work.buckets_placed);
        dcfail_obs::add("stream.arrivals_placed", work.arrivals_placed);
        dcfail_obs::add("stream.buckets_sorted", work.buckets_sorted);
        dcfail_obs::add("stream.arrivals_sorted", work.arrivals_sorted);
        dcfail_obs::add("panel.values_binned", est.values_binned);
        StreamOutput {
            panels: est.counts.finalize(),
            alerts: est.alerts,
            stats: est.stats,
        }
    }
}

impl Estimators {
    fn window_end(&self, week: usize) -> SimTime {
        self.horizon.start() + SimDuration::from_days(7 * (week as i64 + 1))
    }

    /// Applies one canonically-ordered event to the estimators.
    fn apply(&mut self, at: SimTime, payload: FeedPayload) {
        match payload {
            FeedPayload::Attrs {
                machine,
                kind,
                consolidation,
                onoff_rate,
            } => {
                let bins = self.machines.get_or_insert(machine, self.counts.width());
                if bins.announced {
                    self.stats.duplicate_attrs += 1;
                    return;
                }
                bins.announced = true;
                // The constant step counts the machine into every week at
                // once, exactly like the batch driver.
                self.values_binned += self.counts.observe_machine(
                    &self.slots,
                    kind,
                    |constant| match constant {
                        Constant::Consolidation => consolidation,
                        Constant::OnOff => onoff_rate,
                        _ => None,
                    },
                    &mut bins.constants,
                );
                self.stats.machines += 1;
            }
            FeedPayload::Usage {
                machine,
                kind,
                week,
                cpu,
                mem,
                disk,
                net,
            } => {
                if week >= self.horizon.num_weeks() || week < self.next_close {
                    self.stats.duplicate_usage += 1;
                    return;
                }
                self.window(week);
                let bins = self.machines.get_or_insert(machine, self.counts.width());
                // Canonical order delivers a machine's weeks in order, so a
                // week at or before its latest one is a repeat.
                if bins.usage_week.is_some_and(|latest| latest >= week) {
                    self.stats.duplicate_usage += 1;
                    return;
                }
                bins.usage_week = Some(week);
                self.values_binned += self.counts.observe_weeks(
                    &self.slots,
                    kind,
                    week,
                    &[(cpu, mem, disk, net)],
                    |column, &(cpu, mem, disk, net)| match column {
                        Usage::Cpu => cpu,
                        Usage::Mem => mem,
                        Usage::Disk => disk,
                        Usage::Net => net,
                    },
                    &mut bins.weekly,
                );
            }
            FeedPayload::Failure { machine } => {
                let Some(week) = self.horizon.week_of(at) else {
                    return;
                };
                debug_assert!(week >= self.next_close, "failure behind the close line");
                *self.window(week) += 1;
                self.stats.failures += 1;
                if let Some(bins) = self.machines.get(machine) {
                    self.counts.add_event(&bins.constants, week);
                    if bins.usage_week == Some(week) {
                        self.counts.add_event(&bins.weekly, week);
                    }
                }
            }
            FeedPayload::Ticket { machine: _ } => {
                let Some(week) = self.horizon.week_of(at) else {
                    return;
                };
                self.window(week);
                self.stats.tickets += 1;
            }
        }
    }

    /// The failure count of the open window for `week`, opened on first
    /// touch.
    fn window(&mut self, week: usize) -> &mut u64 {
        let slot = &mut self.windows[week];
        if slot.is_none() {
            self.stats.windows_opened += 1;
            dcfail_obs::add("stream.windows_opened", 1);
            self.open_windows += 1;
            self.stats.peak_open_windows = self.stats.peak_open_windows.max(self.open_windows);
        }
        slot.get_or_insert(0)
    }

    /// Closes the next tumbling window in dense week order (an eventless
    /// week closes with zero failures, so the detector sees a dense series)
    /// and feeds its failure count to the detector.
    fn close_next_window(&mut self) {
        let week = self.next_close;
        self.next_close += 1;
        let failures = match self.windows[week].take() {
            Some(failures) => {
                self.open_windows -= 1;
                failures
            }
            None => 0,
        };
        let end = self.window_end(week);
        self.stats.windows_closed += 1;
        dcfail_obs::add("stream.windows_closed", 1);
        dcfail_obs::observe("stream.window_failures", failures as f64);
        if let Some(alert) = self.detector.observe(week, end, failures) {
            dcfail_obs::add("stream.alerts", 1);
            self.alerts.push(alert);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcfail_stats::rng::StreamRng;
    use proptest::prelude::*;

    fn minute(m: i64) -> SimTime {
        Horizon::observation_year().start() + SimDuration::from_minutes(m)
    }

    /// A payload that names its arrival, so last-wins is observable.
    fn arrival(index: usize) -> FeedPayload {
        FeedPayload::Failure {
            machine: MachineId::new(index as u32),
        }
    }

    /// Releases every bucket before `bound` as `(at, seq, payload)`, and
    /// returns how many arrivals it dropped as duplicates.
    fn release(
        buffer: &mut ReorderBuffer,
        bound: Option<SimTime>,
        out: &mut Vec<(SimTime, u64, FeedPayload)>,
    ) -> u64 {
        let (_, dropped) =
            buffer.drain_before(bound, |at, seq, payload| out.push((at, seq, payload)));
        dropped
    }

    /// The oracle: a map keyed by `(at, seq)`, one entry per event, where a
    /// repeated key keeps the last arrival.
    fn release_oracle(
        oracle: &mut BTreeMap<(SimTime, u64), FeedPayload>,
        bound: Option<SimTime>,
        out: &mut Vec<(SimTime, u64, FeedPayload)>,
    ) {
        while let Some(entry) = oracle.first_entry() {
            if bound.is_some_and(|bound| entry.key().0 >= bound) {
                break;
            }
            let ((at, seq), payload) = entry.remove_entry();
            out.push((at, seq, payload));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arrivals over a few timestamps (so most share one), a share of
        /// them repeating an earlier `(at, seq)`, delivered with jitter up to
        /// the slack and equal jittered times in random order: at every
        /// watermark step the buckets release exactly what the ordered map
        /// releases. The `seq`s are the canonical positions (every bucket
        /// dense, placed by offset) or, in a share of the cases, partly far
        /// apart, `u64::MAX` among them (buckets that take the key sort).
        #[test]
        fn buckets_release_what_the_ordered_map_releases(
            seed in any::<u64>(),
            events in 1usize..160,
            spread in 1usize..12,
            slack in 0i64..6,
            repeat_pct in 0usize..40,
            sparse_pct in 0usize..3,
        ) {
            let mut rng = StreamRng::new(seed).fork("engine.buffer.oracle");
            let sparse_pct = [0, 10, 60][sparse_pct];
            let mut canonical: Vec<(SimTime, u64)> = Vec::with_capacity(events);
            let (mut at, mut position) = (0i64, 0u64);
            for _ in 0..events {
                if !canonical.is_empty() && rng.below(100) < repeat_pct {
                    canonical.push(canonical[rng.below(canonical.len())]);
                    continue;
                }
                at += rng.below(spread) as i64;
                let seq = if rng.below(100) < sparse_pct {
                    match rng.below(3) {
                        0 => u64::MAX - rng.below(2) as u64,
                        1 => (1 << 40) + rng.below(1 << 20) as u64,
                        _ => position * 1_000,
                    }
                } else {
                    position
                };
                position += 1;
                canonical.push((minute(at), seq));
            }
            let mut keyed: Vec<(SimTime, usize, FeedEvent)> = canonical
                .iter()
                .enumerate()
                .map(|(i, &(at, seq))| {
                    let jitter = SimDuration::from_minutes(rng.below(slack as usize + 1) as i64);
                    let event = FeedEvent { at, seq, payload: arrival(i) };
                    (at + jitter, rng.below(usize::MAX), event)
                })
                .collect();
            keyed.sort_by_key(|&(key, tie, _)| (key, tie));

            let slack = SimDuration::from_minutes(slack);
            let mut buffer = ReorderBuffer::default();
            let mut oracle = BTreeMap::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let (mut parked, mut dropped) = (0, 0);
            let mut max_seen = None::<SimTime>;
            let mut applied_through = None::<SimTime>;
            for (_, _, event) in keyed {
                if applied_through.is_some_and(|w| event.at < w) {
                    continue;
                }
                buffer.park(event);
                oracle.insert((event.at, event.seq), event.payload);
                parked += 1;
                let newest = max_seen.map_or(event.at, |m| m.max(event.at));
                max_seen = Some(newest);
                let watermark = newest - slack;
                if applied_through.is_some_and(|w| w >= watermark) {
                    continue;
                }
                dropped += release(&mut buffer, Some(watermark), &mut got);
                release_oracle(&mut oracle, Some(watermark), &mut want);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(buffer.len, parked - got.len() - dropped as usize);
                applied_through = Some(watermark);
            }
            dropped += release(&mut buffer, None, &mut got);
            release_oracle(&mut oracle, None, &mut want);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(buffer.len, 0);
            prop_assert_eq!(got.len() + dropped as usize, parked);
            if sparse_pct == 0 {
                prop_assert_eq!(buffer.work.buckets_sorted, 0);
            }
            // The placement scratch never outgrows twice the largest bucket.
            prop_assert!(buffer.slots.len() <= 2 * events);
        }

        /// Arbitrary ids, `u32::MAX` and ids around the dense bound among
        /// them: every lookup matches a map oracle, and the dense table never
        /// covers more than the bound allows.
        #[test]
        fn machine_table_matches_a_map_oracle(
            seed in any::<u64>(),
            ops in 1usize..3000,
        ) {
            let mut rng = StreamRng::new(seed).fork("engine.machines.oracle");
            let mut table = MachineTable::default();
            let mut oracle = BTreeMap::new();
            for op in 0..ops {
                let raw = match rng.below(6) {
                    0 => u32::MAX - rng.below(3) as u32,
                    1 => rng.below(u32::MAX as usize) as u32,
                    2 => rng.below(64) as u32,
                    _ => rng.below(3 * DENSE_HEADROOM) as u32,
                };
                let machine = MachineId::new(raw);
                if rng.below(3) > 0 {
                    table.get_or_insert(machine, 2).usage_week = Some(op);
                    oracle.insert(machine, op);
                }
                prop_assert_eq!(
                    table.get(machine).map(|rows| rows.usage_week),
                    oracle.get(&machine).map(|&op| Some(op))
                );
                prop_assert_eq!(table.len, oracle.len());
                prop_assert!(table.dense.len() <= 2 * table.len + DENSE_HEADROOM);
            }
            for (&machine, &op) in &oracle {
                prop_assert_eq!(table.get(machine).and_then(|rows| rows.usage_week), Some(op));
            }
        }
    }

    #[test]
    fn an_id_stored_sparse_stays_findable_after_the_dense_table_grows_past_it() {
        let mut table = MachineTable::default();
        let far = MachineId::new(DENSE_HEADROOM as u32 + 10);
        table.get_or_insert(far, 1).usage_week = Some(7);
        assert!(table.dense.len() <= far.index(), "first sight is sparse");
        for raw in 0..10 {
            table.get_or_insert(MachineId::new(raw), 1);
        }
        // Eleven machines seen: the bound now covers `far + 1`, and the
        // dense table grows past `far`, whose slot stays empty.
        table.get_or_insert(MachineId::new(far.raw() + 1), 1);
        assert!(table.dense.len() > far.index());
        assert_eq!(table.get(far).map(|rows| rows.usage_week), Some(Some(7)));
        assert_eq!(table.get_or_insert(far, 1).usage_week, Some(7));
        assert_eq!(table.len, 12);
    }

    /// Parks one arrival per `seq` at minute 5, each naming its position.
    fn parked(seqs: &[u64]) -> ReorderBuffer {
        let mut buffer = ReorderBuffer::default();
        for (index, &seq) in seqs.iter().enumerate() {
            buffer.park(FeedEvent {
                at: minute(5),
                seq,
                payload: arrival(index),
            });
        }
        buffer
    }

    #[test]
    fn a_repeated_seq_keeps_the_last_arrival_and_counts_the_rest() {
        // Dense `seq`s take the offset placement, far ones the key sort.
        for (high, placed, sorted) in [(2, 1, 0), (u64::MAX, 0, 1)] {
            let mut buffer = parked(&[high, 1, high, high]);
            let mut got = Vec::new();
            assert_eq!(release(&mut buffer, Some(minute(6)), &mut got), 2);
            assert_eq!(
                got,
                [(minute(5), 1, arrival(1)), (minute(5), high, arrival(3))]
            );
            assert_eq!(buffer.len, 0);
            let work = buffer.work;
            assert_eq!((work.buckets_placed, work.buckets_sorted), (placed, sorted));
            assert_eq!(work.arrivals_placed + work.arrivals_sorted, 4);
        }
    }

    #[test]
    fn seqs_far_apart_are_sorted_without_a_span_sized_scratch() {
        let mut buffer = parked(&[u64::MAX, 0]);
        let mut got = Vec::new();
        assert_eq!(release(&mut buffer, None, &mut got), 0);
        assert_eq!(
            got,
            [
                (minute(5), 0, arrival(1)),
                (minute(5), u64::MAX, arrival(0))
            ]
        );
        assert_eq!(buffer.slots.capacity(), 0, "no offset scratch at all");
        assert_eq!(buffer.work.buckets_sorted, 1);
    }

    fn engine(slack_minutes: i64) -> StreamEngine {
        let config = StreamConfig {
            slack: SimDuration::from_minutes(slack_minutes),
            ..StreamConfig::default()
        };
        StreamEngine::new(Horizon::observation_year(), config)
    }

    fn failure_at(m: i64, seq: u64) -> FeedEvent {
        FeedEvent {
            at: minute(m),
            seq,
            payload: arrival(0),
        }
    }

    #[test]
    fn an_empty_stream_still_closes_every_window() {
        let out = engine(0).finish();
        let s = out.stats;
        let weeks = Horizon::observation_year().num_weeks() as u64;
        assert_eq!((s.windows_closed, s.windows_opened), (weeks, 0));
        assert_eq!((s.events_ingested, s.peak_buffered), (0, 0));
        assert!(out.alerts.is_empty());
    }

    #[test]
    fn zero_slack_holds_an_instant_until_the_clock_moves_past_it() {
        let mut engine = engine(0);
        engine.ingest(failure_at(10, 0)).unwrap();
        engine.ingest(failure_at(10, 1)).unwrap();
        assert_eq!(engine.stats().events_applied, 0, "equal timestamps wait");
        assert_eq!(engine.stats().peak_buffered, 2);
        engine.ingest(failure_at(11, 2)).unwrap();
        assert_eq!(engine.stats().events_applied, 2);
        let late = engine.ingest(failure_at(10, 3)).unwrap_err();
        let watermark = minute(11);
        assert_eq!(
            late,
            StreamError::LateEvent {
                at: minute(10),
                watermark
            }
        );
        let s = engine.finish().stats;
        assert_eq!((s.events_ingested, s.events_applied), (4, 3));
        assert_eq!((s.late_events, s.failures), (1, 3));
    }

    #[test]
    fn a_window_closes_once_the_watermark_reaches_its_end() {
        let week = 7 * 24 * 60;
        let mut engine = engine(60);
        engine.ingest(failure_at(week + 30, 0)).unwrap();
        assert_eq!(engine.stats().windows_closed, 0);
        engine.ingest(failure_at(week + 60, 1)).unwrap();
        assert_eq!(engine.stats().windows_closed, 1);
        engine.ingest(failure_at(3 * week + 60, 2)).unwrap();
        assert_eq!(engine.stats().windows_closed, 3);
        assert_eq!(engine.stats().windows_opened, 1, "only week 1 saw an event");
    }

    #[test]
    fn an_ordered_bucket_is_neither_placed_nor_sorted() {
        let mut buffer = parked(&[0, 1, 7, u64::MAX]);
        let mut got = Vec::new();
        assert_eq!(release(&mut buffer, None, &mut got), 0);
        assert_eq!(got.len(), 4);
        assert_eq!(buffer.work, DrainWork::default());
    }

    /// One machine announced as a VM reports usage as a PM, a VM and a PM
    /// again in successive weeks, and fails in each and in a week without
    /// usage; another is announced as a PM and reports as a VM. Each week's
    /// failure counts only in the panels of that week's kind, the constant
    /// panels count every failure of an announced VM, and the counts are
    /// those the engine gave before the per-kind slot walks.
    #[test]
    fn a_machine_whose_kind_flips_counts_each_week_under_its_kind() {
        let week = 7 * 24 * 60;
        let usage = |machine: u32, kind, w: usize, cpu, net| FeedPayload::Usage {
            machine: MachineId::new(machine),
            kind,
            week: w,
            cpu,
            mem: 100.0 - cpu,
            disk: cpu / 2.0,
            net,
        };
        let failure = |machine: u32| FeedPayload::Failure {
            machine: MachineId::new(machine),
        };
        let feed = [
            (
                0,
                FeedPayload::Attrs {
                    machine: MachineId::new(3),
                    kind: MachineKind::Vm,
                    consolidation: Some(16.0),
                    onoff_rate: Some(1.5),
                },
            ),
            (
                0,
                FeedPayload::Attrs {
                    machine: MachineId::new(4),
                    kind: MachineKind::Pm,
                    consolidation: None,
                    onoff_rate: None,
                },
            ),
            (0, usage(3, MachineKind::Pm, 0, 55.0, 100.0)),
            (0, usage(4, MachineKind::Vm, 0, 15.0, 20.0)),
            (60, failure(3)),
            (61, failure(4)),
            (week, usage(3, MachineKind::Vm, 1, 5.0, 3000.0)),
            (week + 60, failure(3)),
            (2 * week, usage(3, MachineKind::Pm, 2, 12.0, 7.0)),
            (2 * week + 60, failure(3)),
            (3 * week + 60, failure(3)),
        ];
        let mut engine = engine(0);
        for (seq, (m, payload)) in feed.into_iter().enumerate() {
            engine
                .ingest(FeedEvent {
                    at: minute(m),
                    seq: seq as u64,
                    payload,
                })
                .unwrap();
        }
        let got: Vec<(&str, String, usize, usize)> = engine
            .finish()
            .panels
            .iter()
            .flat_map(|p| {
                p.curve
                    .points
                    .iter()
                    .map(|q| (p.panel.name, q.label.clone(), q.machine_weeks, q.events))
            })
            .collect();
        let want: &[(&str, &str, usize, usize)] = &[
            ("8a PM cpu util", "10-20", 1, 1),
            ("8a PM cpu util", "50-60", 1, 1),
            ("8a VM cpu util", "0-10", 1, 1),
            ("8a VM cpu util", "10-20", 1, 1),
            ("8b PM mem util", "40-50", 1, 1),
            ("8b PM mem util", "80-90", 1, 1),
            ("8b VM mem util", "80-90", 1, 1),
            ("8b VM mem util", "90-100", 1, 1),
            ("8c VM disk util", "0-10", 2, 2),
            ("8d VM net kbps", "16-32", 1, 1),
            ("8d VM net kbps", "2048-4096", 1, 1),
            ("9 consolidation", "16", 52, 4),
            ("10 on/off per month", "1-2", 52, 4),
        ];
        let want: Vec<(&str, String, usize, usize)> = want
            .iter()
            .map(|&(name, label, mw, ev)| (name, label.to_string(), mw, ev))
            .collect();
        assert_eq!(got, want);
    }
}
