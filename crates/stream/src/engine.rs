//! The event-at-a-time ingest engine.
//!
//! [`StreamEngine`] consumes a boundedly-reordered feed of
//! [`FeedPayload`]-shaped events and maintains the Fig. 8/9/10 estimators
//! incrementally: a slack-bounded reorder buffer canonicalizes arrivals back
//! into `(at, seq)` order, and each applied event goes straight into the
//! shared panel counts through the batch driver's per-machine steps — an
//! `Attrs` payload bins the machine's constants, a `Usage` payload bins one
//! machine-week, a failure is attributed through the machine's bin row.
//! Tumbling per-week windows only count failures for the burst detector and
//! close when the watermark passes their end. Because arrivals are
//! canonicalized *before* they touch any estimator, a streamed run is
//! byte-identical to the batch run by construction — at any thread count and
//! any legal reordering within the slack bound.

use crate::detect::{Alert, BurstDetector, DetectorConfig};
use dcfail_core::panel::{Constant, Panel, PanelCounts, PanelCurve, Usage, NO_BIN};
use dcfail_model::prelude::*;
use dcfail_report::experiments::{self, ExperimentId, RunConfig};
use dcfail_report::runners::{render_fig10, render_fig8, render_fig9, Rendered};
use dcfail_stats::merge::Mergeable;
use dcfail_synth::feed::{FeedEvent, FeedPayload};
use serde::Serialize;
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
    /// High-water mark of the reorder buffer, in events.
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
    /// Renders the streamed figures with the same renderers the batch
    /// pipeline uses, keyed like the experiment registry.
    pub fn rendered(&self) -> [(&'static str, Rendered); 3] {
        [
            ("fig8", render_fig8(&self.panels)),
            ("fig9", render_fig9(&self.panels)),
            ("fig10", render_fig10(&self.panels)),
        ]
    }

    /// FNV-1a digest over the rendered figures, byte-compatible with the
    /// golden-report digest format.
    pub fn digest(&self) -> u64 {
        figure_digest(&self.rendered())
    }
}

/// FNV-1a over `id:text\ncsv\n` of each rendered report — the exact format
/// the golden-report pin hashes, so streamed and batch digests are
/// comparable byte-for-byte.
pub fn figure_digest(reports: &[(&'static str, Rendered)]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for (id, rendered) in reports {
        for byte in format!("{id}:{}\n{:?}\n", rendered.text, rendered.csv).bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

/// The batch pipeline's Fig. 8/9/10 renders for `dataset`, keyed like
/// [`StreamOutput::rendered`] — the comparison target of the stream==batch
/// determinism contract. Computed by the batch runners over the dataset,
/// never through the engine.
pub fn batch_rendered(dataset: &FailureDataset) -> [(&'static str, Rendered); 3] {
    let run = |id: ExperimentId| {
        (
            id.key(),
            experiments::run(id, dataset, &RunConfig::default()),
        )
    };
    [
        run(ExperimentId::Fig8),
        run(ExperimentId::Fig9),
        run(ExperimentId::Fig10),
    ]
}

/// [`figure_digest`] of [`batch_rendered`].
pub fn batch_digest(dataset: &FailureDataset) -> u64 {
    figure_digest(&batch_rendered(dataset))
}

/// Streaming ingest engine over one observation horizon.
pub struct StreamEngine {
    horizon: Horizon,
    config: StreamConfig,
    /// Slack-bounded reorder buffer: arrivals wait here until the watermark
    /// proves their canonical slot, then replay in `(at, seq)` order.
    buffer: BTreeMap<(SimTime, u64), FeedPayload>,
    max_seen: Option<SimTime>,
    /// Exclusive watermark: every event strictly before it has been applied.
    applied_through: Option<SimTime>,
    next_close: usize,
    /// Failure events per open tumbling window (week) — the detector's
    /// input.
    open: BTreeMap<usize, u64>,
    /// Bin rows of every machine seen in the feed.
    machines: BTreeMap<MachineId, MachineRows>,
    /// The Fig. 8–10 panel counts.
    counts: PanelCounts,
    detector: BurstDetector,
    alerts: Vec<Alert>,
    stats: StreamStats,
}

impl StreamEngine {
    /// Fresh engine over `horizon`.
    pub fn new(horizon: Horizon, config: StreamConfig) -> Self {
        Self {
            counts: PanelCounts::new(Panel::reads_telemetry, horizon.num_weeks()),
            detector: BurstDetector::new(config.detector),
            horizon,
            config,
            buffer: BTreeMap::new(),
            max_seen: None,
            applied_through: None,
            next_close: 0,
            open: BTreeMap::new(),
            machines: BTreeMap::new(),
            alerts: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    /// Ingest counters so far.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Events currently parked in the reorder buffer.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Currently open tumbling windows.
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Offers one arrival to the engine. Arrivals within the slack bound are
    /// buffered and replayed in canonical order; an arrival behind the
    /// applied watermark is rejected as [`StreamError::LateEvent`] and
    /// changes nothing.
    pub fn ingest(&mut self, event: FeedEvent) -> Result<(), StreamError> {
        self.stats.events_ingested += 1;
        if let Some(watermark) = self.applied_through {
            if event.at < watermark {
                self.stats.late_events += 1;
                dcfail_obs::add("stream.late_events", 1);
                return Err(StreamError::LateEvent {
                    at: event.at,
                    watermark,
                });
            }
        }
        self.max_seen = Some(self.max_seen.map_or(event.at, |m| m.max(event.at)));
        self.buffer.insert((event.at, event.seq), event.payload);
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffer.len());
        let watermark = self.max_seen.unwrap_or(event.at) - self.config.slack;
        self.advance_to(watermark);
        Ok(())
    }

    /// Replays every buffered event strictly before `watermark` in canonical
    /// order, then closes every window whose end the watermark passed.
    /// Draining strictly *below* keeps equal-timestamp arrivals waiting
    /// until the clock moves past them, which is what makes zero-slack runs
    /// safe under equal-timestamp permutations.
    fn advance_to(&mut self, watermark: SimTime) {
        if self.applied_through.is_some_and(|w| w >= watermark) {
            return;
        }
        let mut applied = 0u64;
        while let Some((&(at, _), _)) = self.buffer.first_key_value() {
            if at >= watermark {
                break;
            }
            let (_, payload) = self.buffer.pop_first().expect("nonempty buffer");
            self.apply(at, payload);
            applied += 1;
        }
        if applied > 0 {
            dcfail_obs::add("stream.events_applied", applied);
        }
        self.stats.events_applied += applied;
        self.applied_through = Some(watermark);
        while self.next_close < self.horizon.num_weeks() {
            let end = self.window_end(self.next_close);
            if end > watermark {
                break;
            }
            self.close_next_window();
        }
    }

    fn window_end(&self, week: usize) -> SimTime {
        self.horizon.start() + SimDuration::from_days(7 * (week as i64 + 1))
    }

    /// The bin rows of `machine`, `width` slots each, created on first
    /// sight. An associated function for the same disjoint-borrow reason as
    /// [`Self::window`].
    fn machine_in(
        machines: &mut BTreeMap<MachineId, MachineRows>,
        width: usize,
        machine: MachineId,
    ) -> &mut MachineRows {
        machines.entry(machine).or_insert_with(|| MachineRows {
            announced: false,
            constants: vec![NO_BIN; width],
            usage_week: None,
            weekly: vec![NO_BIN; width],
        })
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
                let bins = Self::machine_in(&mut self.machines, self.counts.width(), machine);
                if bins.announced {
                    self.stats.duplicate_attrs += 1;
                    return;
                }
                bins.announced = true;
                // The constant step counts the machine into every week at
                // once, exactly like the batch driver.
                self.counts.observe_machine(
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
                Self::window(&mut self.open, &mut self.stats, week);
                let bins = Self::machine_in(&mut self.machines, self.counts.width(), machine);
                // Canonical order delivers a machine's weeks in order, so a
                // week at or before its latest one is a repeat.
                if bins.usage_week.is_some_and(|latest| latest >= week) {
                    self.stats.duplicate_usage += 1;
                    return;
                }
                bins.usage_week = Some(week);
                self.counts.observe_week(
                    kind,
                    week,
                    |column| match column {
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
                *Self::window(&mut self.open, &mut self.stats, week) += 1;
                self.stats.failures += 1;
                if let Some(bins) = self.machines.get(&machine) {
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
                Self::window(&mut self.open, &mut self.stats, week);
                self.stats.tickets += 1;
            }
        }
    }

    /// The failure count of the open window for `week`, opened on first
    /// touch. An associated function over disjoint fields so callers can
    /// keep borrowing the rest of the engine.
    fn window<'a>(
        open: &'a mut BTreeMap<usize, u64>,
        stats: &mut StreamStats,
        week: usize,
    ) -> &'a mut u64 {
        if let std::collections::btree_map::Entry::Vacant(slot) = open.entry(week) {
            stats.windows_opened += 1;
            dcfail_obs::add("stream.windows_opened", 1);
            slot.insert(0);
            stats.peak_open_windows = stats.peak_open_windows.max(open.len());
        }
        open.get_mut(&week).expect("window just ensured")
    }

    /// Closes the next tumbling window in dense week order (an eventless
    /// week closes with zero failures, so the detector sees a dense series)
    /// and feeds its failure count to the detector.
    fn close_next_window(&mut self) {
        let week = self.next_close;
        self.next_close += 1;
        let failures = self.open.remove(&week).unwrap_or(0);
        let end = self.window_end(week);
        self.stats.windows_closed += 1;
        dcfail_obs::add("stream.windows_closed", 1);
        dcfail_obs::observe("stream.window_failures", failures as f64);
        if let Some(alert) = self.detector.observe(week, end, failures) {
            dcfail_obs::add("stream.alerts", 1);
            self.alerts.push(alert);
        }
    }

    /// Ends the stream: replays everything still buffered, closes every
    /// remaining window (through the end of the horizon), and finalizes the
    /// estimators.
    pub fn finish(mut self) -> StreamOutput {
        let _span = dcfail_obs::span("stream.finish");
        let mut applied = 0u64;
        while let Some(((at, _), payload)) = self.buffer.pop_first() {
            self.apply(at, payload);
            applied += 1;
        }
        if applied > 0 {
            dcfail_obs::add("stream.events_applied", applied);
        }
        self.stats.events_applied += applied;
        while self.next_close < self.horizon.num_weeks() {
            self.close_next_window();
        }
        StreamOutput {
            panels: self.counts.finalize(),
            alerts: self.alerts,
            stats: self.stats,
        }
    }
}
