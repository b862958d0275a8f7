//! Resource telemetry: weekly usage rollups, 15-minute on/off logs and
//! consolidation series.
//!
//! The paper's monitoring database keeps two years of records at 15-min,
//! hourly, daily, weekly and monthly granularity. The analyses only consume
//! weekly usage averages, monthly consolidation levels and 15-minute power
//! samples over a two-month window, so those are the rollups modelled here.

use crate::ids::MachineId;
use crate::time::{Horizon, SimTime, MINUTE};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The 15-minute telemetry sampling period.
pub const SAMPLE_PERIOD_MINUTES: i64 = 15;

/// Weekly average resource usage of one machine.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WeeklyUsage {
    /// CPU utilization in percent (0–100).
    pub cpu_pct: f32,
    /// Memory utilization in percent (0–100).
    pub mem_pct: f32,
    /// Disk-space utilization in percent (0–100).
    pub disk_pct: f32,
    /// Network traffic in Kbps (sent + received).
    pub net_kbps: f32,
}

impl WeeklyUsage {
    /// Creates a usage record, clamping percentages into `[0, 100]` and
    /// network volume to be nonnegative.
    pub fn new(cpu_pct: f32, mem_pct: f32, disk_pct: f32, net_kbps: f32) -> Self {
        Self {
            cpu_pct: cpu_pct.clamp(0.0, 100.0),
            mem_pct: mem_pct.clamp(0.0, 100.0),
            disk_pct: disk_pct.clamp(0.0, 100.0),
            net_kbps: net_kbps.max(0.0),
        }
    }
}

/// Power-state log of a VM: an initial state plus toggle instants.
///
/// The log covers `window` (the paper's two-month March–April slice); the
/// 15-minute sample view is derived, exactly like counting transitions in the
/// monitoring database's 15-min data points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnOffLog {
    window: Horizon,
    initial_on: bool,
    toggles: Vec<SimTime>,
}

impl OnOffLog {
    /// Creates an on/off log.
    ///
    /// # Panics
    ///
    /// Panics if the toggles are not strictly increasing or fall outside the
    /// window.
    pub fn new(window: Horizon, initial_on: bool, toggles: Vec<SimTime>) -> Self {
        for pair in toggles.windows(2) {
            assert!(pair[0] < pair[1], "toggle instants must strictly increase");
        }
        if let (Some(first), Some(last)) = (toggles.first(), toggles.last()) {
            assert!(
                window.contains(*first) && window.contains(*last),
                "toggles must fall inside the log window"
            );
        }
        Self {
            window,
            initial_on,
            toggles,
        }
    }

    /// A log of a machine that stayed on for the whole window.
    pub fn always_on(window: Horizon) -> Self {
        Self::new(window, true, Vec::new())
    }

    /// The window the log covers.
    pub const fn window(&self) -> Horizon {
        self.window
    }

    /// Power state at the start of the window, before any toggle.
    pub const fn initial_on(&self) -> bool {
        self.initial_on
    }

    /// Raw toggle instants.
    pub fn toggles(&self) -> &[SimTime] {
        &self.toggles
    }

    /// Whether the toggles strictly increase and fall inside the window, as
    /// [`OnOffLog::new`] asserts. A deserialized log has not been checked.
    pub fn has_valid_toggles(&self) -> bool {
        self.toggles.windows(2).all(|pair| pair[0] < pair[1])
            && self.toggles.iter().all(|&t| self.window.contains(t))
    }

    /// Power state at instant `t` (clamped to the log window).
    ///
    /// Toggles are strictly increasing by construction, so the number of
    /// flips at or before `t` is a `partition_point` binary search rather
    /// than a linear scan.
    pub fn is_on_at(&self, t: SimTime) -> bool {
        let flips = self.toggles.partition_point(|&x| x <= t);
        self.initial_on ^ (flips % 2 == 1)
    }

    /// Samples the power state every 15 minutes across the log window,
    /// mirroring the monitoring database's 15-min data points.
    pub fn samples_15min(&self) -> Vec<bool> {
        let step = MINUTE * SAMPLE_PERIOD_MINUTES;
        let mut out = Vec::new();
        let mut t = self.window.start();
        while t < self.window.end() {
            out.push(self.is_on_at(t));
            t += step;
        }
        out
    }

    /// Number of observable on/off transitions in the 15-min sample view.
    ///
    /// A power cycle shorter than one sampling period is invisible, exactly
    /// as it would be in the real monitoring data.
    ///
    /// Counted in O(toggles) without materializing the samples: sample `k`
    /// is taken at `start + k·period` (k in `0..N`, `N = ⌈window/period⌉`),
    /// so a toggle at offset `o` from the window start separates samples
    /// `k-1` and `k` where `k = ⌈o/period⌉`. Adjacent samples differ iff an
    /// odd number of toggles landed in their grid cell, so the sampled count
    /// is the number of cells `1..=N-1` with odd toggle parity (cell 0 only
    /// shifts the first sample's state; cells past `N-1` are unobserved).
    /// Equality with the [`Self::samples_15min`]-derived count is pinned by
    /// `transition_count_matches_sampled_view` below and a property test
    /// over arbitrary windows/toggle sets in `tests/proptest.rs`.
    pub fn sampled_transitions(&self) -> usize {
        let len = self.window.len().as_minutes();
        if len <= 0 {
            return 0;
        }
        let num_samples = (len + SAMPLE_PERIOD_MINUTES - 1) / SAMPLE_PERIOD_MINUTES;
        let start = self.window.start();
        let cell_of = |t: SimTime| {
            // Ceiling division; toggle offsets are nonnegative (window-checked).
            ((t - start).as_minutes() + SAMPLE_PERIOD_MINUTES - 1) / SAMPLE_PERIOD_MINUTES
        };
        let mut transitions = 0usize;
        let mut i = 0;
        while i < self.toggles.len() {
            let cell = cell_of(self.toggles[i]);
            if cell > num_samples - 1 {
                // Past the last sample instant: unobserved, as is every
                // later toggle (instants strictly increase).
                break;
            }
            let mut run = 1;
            while i + run < self.toggles.len() && cell_of(self.toggles[i + run]) == cell {
                run += 1;
            }
            if cell >= 1 && run % 2 == 1 {
                transitions += 1;
            }
            i += run;
        }
        transitions
    }

    /// Exact number of toggles in the log (ground truth).
    pub fn true_transitions(&self) -> usize {
        self.toggles.len()
    }

    /// Average observable transitions per 28-day month over the log window,
    /// or `None` when the window is degenerate (length ≤ 0): an unobservable
    /// machine has no rate at all, rather than a fake maximally-stable `0.0`
    /// that would misfile it into the "0-1" bin of Fig. 10.
    pub fn monthly_transition_rate(&self) -> Option<f64> {
        let months = self.window.len().as_days() / 28.0;
        if months <= 0.0 {
            return None;
        }
        Some(self.sampled_transitions() as f64 / months)
    }
}

/// All telemetry for a dataset, keyed by machine.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    /// Weekly usage per machine, indexed by observation-week.
    usage: BTreeMap<MachineId, Vec<WeeklyUsage>>,
    /// On/off logs (VMs only; PMs are assumed always-on).
    onoff: BTreeMap<MachineId, OnOffLog>,
    /// Monthly consolidation level per VM (co-residents incl. itself).
    consolidation: BTreeMap<MachineId, Vec<u16>>,
}

impl Telemetry {
    /// Creates an empty telemetry store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores the weekly usage series of a machine.
    pub fn set_usage(&mut self, machine: MachineId, weeks: Vec<WeeklyUsage>) {
        self.usage.insert(machine, weeks);
    }

    /// Stores the on/off log of a VM.
    pub fn set_onoff(&mut self, machine: MachineId, log: OnOffLog) {
        self.onoff.insert(machine, log);
    }

    /// Stores the monthly consolidation series of a VM.
    pub fn set_consolidation(&mut self, machine: MachineId, levels: Vec<u16>) {
        self.consolidation.insert(machine, levels);
    }

    /// Weekly usage series of a machine.
    pub fn usage(&self, machine: MachineId) -> Option<&[WeeklyUsage]> {
        self.usage.get(&machine).map(Vec::as_slice)
    }

    /// On/off log of a machine.
    pub fn onoff(&self, machine: MachineId) -> Option<&OnOffLog> {
        self.onoff.get(&machine)
    }

    /// Monthly consolidation series of a VM.
    pub fn consolidation(&self, machine: MachineId) -> Option<&[u16]> {
        self.consolidation.get(&machine).map(Vec::as_slice)
    }

    /// Average monthly consolidation level of a VM over the year.
    pub fn mean_consolidation(&self, machine: MachineId) -> Option<f64> {
        let levels = self.consolidation.get(&machine)?;
        if levels.is_empty() {
            return None;
        }
        Some(levels.iter().map(|&l| l as f64).sum::<f64>() / levels.len() as f64)
    }

    /// Iterates over every stored usage series, keyed by machine.
    pub fn usage_series(&self) -> impl Iterator<Item = (MachineId, &[WeeklyUsage])> {
        self.usage.iter().map(|(&m, v)| (m, v.as_slice()))
    }

    /// Iterates over every stored on/off log, keyed by machine.
    pub fn onoff_logs(&self) -> impl Iterator<Item = (MachineId, &OnOffLog)> {
        self.onoff.iter().map(|(&m, log)| (m, log))
    }

    /// Iterates over every stored consolidation series, keyed by machine.
    pub fn consolidation_series(&self) -> impl Iterator<Item = (MachineId, &[u16])> {
        self.consolidation.iter().map(|(&m, v)| (m, v.as_slice()))
    }

    /// Monthly on/off transition rate of every logged machine with a
    /// non-degenerate window, sorted by machine id (the map's iteration
    /// order). Machines whose log window has length ≤ 0 are skipped: they
    /// contribute to neither the Fig. 10 rate curve nor its share panel.
    ///
    /// Figs. 9/10's twin panels and the what-if model all need per-VM
    /// rates; this computes each log's rate exactly once per dataset pass
    /// so no analysis loop has to re-derive it per machine-week.
    pub fn monthly_transition_rates(&self) -> Vec<(MachineId, f64)> {
        let mut rates = Vec::with_capacity(self.onoff.len());
        for (&m, log) in &self.onoff {
            // dlint::allow(D14): the one sanctioned bulk site all analyses share
            if let Some(rate) = log.monthly_transition_rate() {
                rates.push((m, rate));
            }
        }
        rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn window() -> Horizon {
        // Two 28-day months.
        Horizon::new(SimTime::ZERO, SimTime::ZERO + SimDuration::from_days(56))
    }

    #[test]
    fn usage_clamps() {
        let u = WeeklyUsage::new(120.0, -5.0, 50.0, -1.0);
        assert_eq!(u.cpu_pct, 100.0);
        assert_eq!(u.mem_pct, 0.0);
        assert_eq!(u.disk_pct, 50.0);
        assert_eq!(u.net_kbps, 0.0);
    }

    #[test]
    fn onoff_state_tracks_toggles() {
        let log = OnOffLog::new(
            window(),
            true,
            vec![SimTime::from_days(1), SimTime::from_days(2)],
        );
        assert!(log.is_on_at(SimTime::ZERO));
        assert!(!log.is_on_at(SimTime::from_days(1)));
        assert!(log.is_on_at(SimTime::from_days(2)));
        assert_eq!(log.true_transitions(), 2);
        assert_eq!(log.window(), window());
        assert_eq!(log.toggles().len(), 2);
        assert!(log.initial_on());
    }

    #[test]
    fn initial_state_ignores_toggles_at_the_window_start() {
        let w = window();
        let log = OnOffLog::new(w, false, vec![w.start(), w.start() + MINUTE]);
        assert!(!log.initial_on());
        assert!(log.is_on_at(w.start()));
    }

    #[test]
    fn sampled_transitions_match_well_separated_toggles() {
        let log = OnOffLog::new(
            window(),
            true,
            vec![SimTime::from_days(10), SimTime::from_days(20)],
        );
        assert_eq!(log.sampled_transitions(), 2);
        // 2 transitions over 2 months → 1/month.
        assert!((log.monthly_transition_rate().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sub_sample_power_cycle_is_invisible() {
        // Off and back on within 10 minutes: both inside one 15-min sample.
        let t = SimTime::from_days(5);
        let log = OnOffLog::new(window(), true, vec![t + MINUTE * 2, t + MINUTE * 9]);
        assert_eq!(log.true_transitions(), 2);
        assert_eq!(log.sampled_transitions(), 0);
    }

    #[test]
    fn always_on_has_no_transitions() {
        let log = OnOffLog::always_on(window());
        assert_eq!(log.sampled_transitions(), 0);
        assert!(log.is_on_at(SimTime::from_days(30)));
        let samples = log.samples_15min();
        assert_eq!(samples.len(), 56 * 96);
        assert!(samples.iter().all(|&s| s));
    }

    /// The O(samples × toggles) reference count the fast grid-parity walk
    /// replaced: derive the samples and count adjacent differences.
    fn sampled_reference(log: &OnOffLog) -> usize {
        let samples = log.samples_15min();
        samples.windows(2).filter(|w| w[0] != w[1]).count()
    }

    #[test]
    fn transition_count_matches_sampled_view() {
        let step = MINUTE * SAMPLE_PERIOD_MINUTES;
        let w = window();
        let cases: Vec<Vec<SimTime>> = vec![
            vec![],
            // Toggle exactly at the window start: shifts sample 0's state only.
            vec![w.start()],
            // Toggle exactly on a sample instant: flips that sample.
            vec![w.start() + step],
            vec![w.start() + step, w.start() + step * 2],
            // Pair inside one cell: invisible.
            vec![w.start() + MINUTE, w.start() + MINUTE * 14],
            // Triple inside one cell: one visible transition.
            vec![
                w.start() + MINUTE,
                w.start() + MINUTE * 5,
                w.start() + MINUTE * 14,
            ],
            // Toggle after the last sample instant: unobserved.
            vec![w.end() - MINUTE * 10],
            // Dense burst straddling several cells.
            (1..40).map(|i| w.start() + MINUTE * (i * 7)).collect(),
            vec![w.start(), w.start() + MINUTE * 20, w.end() - MINUTE],
        ];
        for toggles in cases {
            for initial_on in [false, true] {
                let log = OnOffLog::new(w, initial_on, toggles.clone());
                assert_eq!(
                    log.sampled_transitions(),
                    sampled_reference(&log),
                    "toggles {toggles:?} initial_on {initial_on}"
                );
            }
        }
    }

    #[test]
    fn transition_count_matches_on_non_aligned_window() {
        // Window length not a multiple of the sample period, odd start.
        let w = Horizon::new(SimTime::from_minutes(7), SimTime::from_minutes(7 + 1000));
        let cases: Vec<Vec<SimTime>> = vec![
            vec![SimTime::from_minutes(7)],
            vec![SimTime::from_minutes(22), SimTime::from_minutes(37)],
            // Inside the trailing partial cell (after the last sample).
            vec![SimTime::from_minutes(7 + 999)],
            (0..60).map(|i| SimTime::from_minutes(9 + i * 13)).collect(),
        ];
        for toggles in cases {
            let log = OnOffLog::new(w, true, toggles.clone());
            assert_eq!(
                log.sampled_transitions(),
                sampled_reference(&log),
                "toggles {toggles:?}"
            );
        }
    }

    #[test]
    fn bulk_rates_match_per_log_rates() {
        let mut t = Telemetry::new();
        let w = window();
        t.set_onoff(MachineId::new(3), OnOffLog::always_on(w));
        t.set_onoff(
            MachineId::new(1),
            OnOffLog::new(
                w,
                true,
                vec![SimTime::from_days(10), SimTime::from_days(20)],
            ),
        );
        let rates = t.monthly_transition_rates();
        // Sorted by machine id, one entry per log, exact same value.
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[0].0, MachineId::new(1));
        assert_eq!(rates[1].0, MachineId::new(3));
        for (m, rate) in rates {
            assert_eq!(Some(rate), t.onoff(m).unwrap().monthly_transition_rate());
        }
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn unsorted_toggles_rejected() {
        let _ = OnOffLog::new(
            window(),
            true,
            vec![SimTime::from_days(2), SimTime::from_days(1)],
        );
    }

    #[test]
    #[should_panic(expected = "inside the log window")]
    fn out_of_window_toggles_rejected() {
        let _ = OnOffLog::new(window(), true, vec![SimTime::from_days(100)]);
    }

    #[test]
    fn telemetry_store_roundtrip() {
        let mut t = Telemetry::new();
        let m = MachineId::new(0);
        t.set_usage(
            m,
            vec![
                WeeklyUsage::new(10.0, 20.0, 30.0, 64.0),
                WeeklyUsage::new(30.0, 40.0, 50.0, 128.0),
            ],
        );
        t.set_onoff(m, OnOffLog::always_on(window()));
        t.set_consolidation(m, vec![4, 6]);

        assert_eq!(t.usage_series().count(), 1);
        assert_eq!(t.onoff_logs().count(), 1);
        assert_eq!(t.usage(m).unwrap()[1].cpu_pct, 30.0);
        assert_eq!(t.usage(m).unwrap().get(2), None);
        assert_eq!(t.mean_consolidation(m), Some(5.0));
        assert_eq!(t.consolidation(m).unwrap(), &[4, 6]);
        assert!(t.onoff(m).is_some());
        // Missing machine.
        let missing = MachineId::new(99);
        assert!(t.usage(missing).is_none());
        assert!(t.mean_consolidation(missing).is_none());
    }
}
