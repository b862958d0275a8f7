//! Resource telemetry: weekly usage rollups, 15-minute on/off logs and
//! consolidation series.
//!
//! The paper's monitoring database keeps two years of records at 15-min,
//! hourly, daily, weekly and monthly granularity. The analyses only consume
//! weekly usage averages, monthly consolidation levels and 15-minute power
//! samples over a two-month window, so those are the rollups modelled here.
//!
//! [`Telemetry`] keeps each of the three families as plain data: a column of
//! strictly increasing machine ids, one row per id saying where its series
//! sits in the family's value buffer, and that one buffer. A copy is a few
//! memcpys and a drop frees a handful of blocks, whatever the fleet size.

use crate::ids::MachineId;
use crate::spare::Spares;
use crate::time::{Horizon, SimTime, MINUTE};
use serde::{Deserialize, Number, Serialize, Value};

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
/// monitoring database's 15-min data points. This is the owned form a
/// generator or a repair produces; [`Telemetry`] copies its toggles into its
/// shared buffer and hands back [`OnOffView`]s, which hold every reader.
#[derive(Debug, Clone, PartialEq, Deserialize)]
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
    #[cfg(test)]
    pub(crate) fn always_on(window: Horizon) -> Self {
        Self::new(window, true, Vec::new())
    }

    /// The log as the borrowed view every reader takes.
    pub fn view(&self) -> OnOffView<'_> {
        OnOffView {
            window: self.window,
            initial_on: self.initial_on,
            toggles: &self.toggles,
        }
    }
}

impl Serialize for OnOffLog {
    fn to_value(&self) -> Value {
        self.view().to_value()
    }
}

/// A borrowed on/off log: its window, its initial state and its toggles,
/// which for a stored log are a slice of the store's shared toggle buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnOffView<'a> {
    window: Horizon,
    initial_on: bool,
    toggles: &'a [SimTime],
}

impl<'a> OnOffView<'a> {
    /// The window the log covers.
    pub const fn window(self) -> Horizon {
        self.window
    }

    /// Power state at the start of the window, before any toggle.
    pub const fn initial_on(self) -> bool {
        self.initial_on
    }

    /// Raw toggle instants.
    pub const fn toggles(self) -> &'a [SimTime] {
        self.toggles
    }

    /// Whether the toggles strictly increase and fall inside the window, as
    /// [`OnOffLog::new`] asserts. A deserialized log has not been checked.
    pub fn has_valid_toggles(self) -> bool {
        self.toggles.windows(2).all(|pair| pair[0] < pair[1])
            && self.toggles.iter().all(|&t| self.window.contains(t))
    }

    /// Power state at instant `t` (clamped to the log window).
    ///
    /// Toggles are strictly increasing by construction, so the number of
    /// flips at or before `t` is a `partition_point` binary search rather
    /// than a linear scan.
    pub fn is_on_at(self, t: SimTime) -> bool {
        let flips = self.toggles.partition_point(|&x| x <= t);
        self.initial_on ^ (flips % 2 == 1)
    }

    /// Samples the power state every 15 minutes across the log window,
    /// mirroring the monitoring database's 15-min data points.
    // dlint::allow(D17): oracle for sampled_transitions, pinned by the model proptest suite (an integration test)
    pub fn samples_15min(self) -> Vec<bool> {
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
    pub fn sampled_transitions(self) -> usize {
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
        let toggles = self.toggles;
        let mut transitions = 0usize;
        let mut i = 0;
        while i < toggles.len() {
            let cell = cell_of(toggles[i]);
            if cell > num_samples - 1 {
                // Past the last sample instant: unobserved, as is every
                // later toggle (instants strictly increase).
                break;
            }
            let mut run = 1;
            while i + run < toggles.len() && cell_of(toggles[i + run]) == cell {
                run += 1;
            }
            if cell >= 1 && run % 2 == 1 {
                transitions += 1;
            }
            i += run;
        }
        transitions
    }

    /// Average observable transitions per 28-day month over the log window,
    /// or `None` when the window is degenerate (length ≤ 0): an unobservable
    /// machine has no rate at all, rather than a fake maximally-stable `0.0`
    /// that would misfile it into the "0-1" bin of Fig. 10.
    pub fn monthly_transition_rate(self) -> Option<f64> {
        let months = self.window.len().as_days() / 28.0;
        if months <= 0.0 {
            return None;
        }
        Some(self.sampled_transitions() as f64 / months)
    }
}

impl Serialize for OnOffView<'_> {
    /// The object `OnOffLog`'s fields make: window, initial state, toggles.
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("window".to_string(), self.window.to_value()),
            ("initial_on".to_string(), self.initial_on.to_value()),
            ("toggles".to_string(), self.toggles.to_value()),
        ])
    }
}

/// Where one series sits in its family's value buffer, and what the family
/// keeps per series besides its values.
#[derive(Debug, Clone, Copy)]
struct Row<H> {
    start: usize,
    len: usize,
    head: H,
}

/// An on/off log's row head: everything but its toggles.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LogHead {
    window: Horizon,
    initial_on: bool,
}

impl LogHead {
    fn view(self, toggles: &[SimTime]) -> OnOffView<'_> {
        OnOffView {
            window: self.window,
            initial_on: self.initial_on,
            toggles,
        }
    }
}

/// One telemetry family: strictly increasing machine ids, one row per id,
/// and every series' values in one buffer.
///
/// Rows need not tile the buffer. A dropped, shortened or replaced series
/// leaves its old values behind as a hole; equality and the JSON read only
/// what the rows name.
#[derive(Debug, Clone)]
struct Column<T, H = ()> {
    ids: Vec<MachineId>,
    rows: Vec<Row<H>>,
    values: Vec<T>,
}

impl<T, H> Default for Column<T, H> {
    fn default() -> Self {
        Self {
            ids: Vec::new(),
            rows: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<T: Copy, H: Copy> Column<T, H> {
    /// The position of `machine`'s row.
    ///
    /// Ids strictly increase, so `ids[i] ≥ ids[0] + i`: a machine sits at its
    /// offset from the first id when the column is contiguous (a fleet from
    /// 0, a shard's range from its start), and otherwise no later, where a
    /// binary search finds it. The id sizes nothing.
    fn position(&self, machine: MachineId) -> Option<usize> {
        let offset = machine.raw().checked_sub(self.ids.first()?.raw())? as usize;
        if self.ids.get(offset) == Some(&machine) {
            return Some(offset);
        }
        let before = &self.ids[..offset.min(self.ids.len())];
        before.binary_search(&machine).ok()
    }

    fn values_of(&self, row: Row<H>) -> &[T] {
        &self.values[row.start..row.start + row.len]
    }

    fn get(&self, machine: MachineId) -> Option<(H, &[T])> {
        let row = self.rows[self.position(machine)?];
        Some((row.head, self.values_of(row)))
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = (MachineId, H, &[T])> {
        self.ids
            .iter()
            .zip(&self.rows)
            .map(|(&m, &row)| (m, row.head, self.values_of(row)))
    }

    /// Copies `values` to the end of the buffer as a row.
    fn append_values(&mut self, head: H, values: &[T]) -> Row<H> {
        let start = self.values.len();
        self.values.extend_from_slice(values);
        Row {
            start,
            len: values.len(),
            head,
        }
    }

    /// Stores `machine`'s series, replacing any stored one. An id past every
    /// stored one appends its row; any other is found, or inserted in order.
    fn set(&mut self, machine: MachineId, head: H, values: &[T]) {
        let row = self.append_values(head, values);
        match self.ids.binary_search(&machine) {
            Ok(i) => self.rows[i] = row,
            Err(i) => {
                self.ids.insert(i, machine);
                self.rows.insert(i, row);
            }
        }
    }

    /// Appends one row per `(machine, length)` of `series` and has `fill`
    /// write their values in place, back to back in series order.
    fn append_with(
        &mut self,
        series: impl IntoIterator<Item = (MachineId, usize)>,
        head: H,
        fill: impl FnOnce(&mut [T]),
    ) where
        T: Default,
    {
        let base = self.values.len();
        let mut end = base;
        for (machine, len) in series {
            assert!(
                self.ids.last().is_none_or(|&last| last < machine),
                "appended machine ids must increase past every stored one"
            );
            self.ids.push(machine);
            self.rows.push(Row {
                start: end,
                len,
                head,
            });
            end += len;
        }
        self.values.resize(end, T::default());
        fill(&mut self.values[base..]);
    }

    /// Keeps, in id order, each series for which `keep` (given its length)
    /// returns a length, shortened to at most that; drops the others. The
    /// values stay where they are.
    fn retain(&mut self, mut keep: impl FnMut(usize) -> Option<usize>) {
        let mut kept = 0;
        for i in 0..self.ids.len() {
            let mut row = self.rows[i];
            if let Some(len) = keep(row.len) {
                row.len = row.len.min(len);
                self.ids[kept] = self.ids[i];
                self.rows[kept] = row;
                kept += 1;
            }
        }
        self.ids.truncate(kept);
        self.rows.truncate(kept);
    }

    /// The family as the JSON object a map keyed by machine writes: keys in
    /// id order, each series written by `write`.
    fn to_map(&self, write: impl Fn(H, &[T]) -> Value) -> Value {
        let entries = self.iter().map(|(m, head, values)| {
            let key = m.raw().to_string();
            (key, write(head, values))
        });
        Value::Object(entries.collect())
    }

    /// Reads what a map keyed by machine reads: an object whose keys may come
    /// in any order, the last of a repeated key winning.
    fn from_map(
        value: &Value,
        read: impl Fn(&Value) -> Result<(H, Vec<T>), serde::Error>,
    ) -> Result<Self, serde::Error> {
        let Value::Object(entries) = value else {
            return Err(serde::Error::custom(format!(
                "expected object, found {}",
                value.kind()
            )));
        };
        let mut column = Self::default();
        for (key, value) in entries {
            let machine = machine_key(key)?;
            let (head, values) = read(value)?;
            let row = column.append_values(head, &values);
            column.ids.push(machine);
            column.rows.push(row);
        }
        if !column.ids.is_sorted_by(|a, b| a < b) {
            // A stable sort keeps a repeated id's rows in input order, so the
            // last of each run is the one a map would keep.
            let mut order: Vec<usize> = (0..column.ids.len()).collect();
            order.sort_by_key(|&i| column.ids[i]);
            let ids = &column.ids;
            let last: Vec<usize> = order
                .iter()
                .enumerate()
                .filter(|&(k, &i)| order.get(k + 1).is_none_or(|&j| ids[j] != ids[i]))
                .map(|(_, &i)| i)
                .collect();
            column.ids = last.iter().map(|&i| column.ids[i]).collect();
            column.rows = last.iter().map(|&i| column.rows[i]).collect();
        }
        Ok(column)
    }
}

impl<T: Copy + Serialize> Serialize for Column<T> {
    fn to_value(&self) -> Value {
        self.to_map(|(), values| values.to_value())
    }
}

impl Serialize for Column<SimTime, LogHead> {
    fn to_value(&self) -> Value {
        self.to_map(|head, toggles| head.view(toggles).to_value())
    }
}

impl<T: Copy + Deserialize> Deserialize for Column<T> {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Self::from_map(value, |series| Ok(((), Vec::from_value(series)?)))
    }
}

impl Deserialize for Column<SimTime, LogHead> {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Self::from_map(value, |log| {
            let OnOffLog {
                window,
                initial_on,
                toggles,
            } = OnOffLog::from_value(log)?;
            Ok((LogHead { window, initial_on }, toggles))
        })
    }
}

impl<T: Copy + PartialEq, H: Copy + PartialEq> PartialEq for Column<T, H> {
    /// The same series under the same ids, wherever they sit in the buffers.
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids
            && self
                .iter()
                .zip(other.iter())
                .all(|((_, h, a), (_, g, b))| h == g && a == b)
    }
}

/// A JSON object key read back as a machine id, as serde reads an integer
/// map key: decimal digits are a number, anything else a string the id
/// rejects.
fn machine_key(key: &str) -> Result<MachineId, serde::Error> {
    let key = match (key.parse::<u64>(), key.parse::<i64>()) {
        (Ok(u), _) => Value::Num(Number::U(u)),
        (_, Ok(i)) => Value::Num(Number::I(i)),
        _ => Value::Str(key.to_string()),
    };
    MachineId::from_value(&key)
}

/// All telemetry for a dataset, keyed by machine: three flat families (see
/// the module docs), each iterated in machine-id order.
///
/// The JSON is three objects keyed by machine id, as a store of maps writes
/// it. Reading takes keys in any order, the last of a repeated key winning,
/// and no id sizes an allocation.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    /// Weekly usage per machine, indexed by observation-week.
    usage: Column<WeeklyUsage>,
    /// On/off logs (VMs only; PMs are assumed always-on): a row's head is
    /// the log's window and initial state, its values the toggles.
    onoff: Column<SimTime, LogHead>,
    /// Monthly consolidation level per VM (co-residents incl. itself).
    consolidation: Column<u16>,
}

/// Emptied usage buffers of dropped stores (see [`crate::spare`]). Two cover
/// a pipeline: at most two stores are alive while a third is filled.
static USAGE_SPARES: Spares<WeeklyUsage, 2> = Spares::new();

impl Clone for Telemetry {
    /// Copies each family's columns; the usage records go into the spare
    /// buffer of a dropped store when there is one.
    fn clone(&self) -> Self {
        let mut values = USAGE_SPARES.take();
        values.extend_from_slice(&self.usage.values);
        let usage = Column {
            ids: self.usage.ids.clone(),
            rows: self.usage.rows.clone(),
            values,
        };
        Self {
            usage,
            onoff: self.onoff.clone(),
            consolidation: self.consolidation.clone(),
        }
    }
}

impl Drop for Telemetry {
    /// Keeps the usage buffer as a spare.
    fn drop(&mut self) {
        USAGE_SPARES.keep(std::mem::take(&mut self.usage.values));
    }
}

impl Telemetry {
    /// Creates an empty telemetry store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores the weekly usage series of a machine, replacing any stored one.
    // dlint::allow(D17): builds a store series by series for the audit corruption suite, an integration test
    pub fn set_usage(&mut self, machine: MachineId, weeks: impl AsRef<[WeeklyUsage]>) {
        self.usage.set(machine, (), weeks.as_ref());
    }

    /// Stores the on/off log of a VM, replacing any stored one.
    pub fn set_onoff(&mut self, machine: MachineId, log: OnOffLog) {
        let OnOffLog {
            window,
            initial_on,
            toggles,
        } = log;
        self.onoff
            .set(machine, LogHead { window, initial_on }, &toggles);
    }

    /// Stores the monthly consolidation series of a VM, replacing any stored
    /// one.
    pub fn set_consolidation(&mut self, machine: MachineId, levels: impl AsRef<[u16]>) {
        self.consolidation.set(machine, (), levels.as_ref());
    }

    /// Appends weekly usage series, one per `(machine, weeks)` of `series`,
    /// and has `fill` write their records in place, back to back in series
    /// order: the bulk form of [`Telemetry::set_usage`] for a producer that
    /// writes one buffer. An empty family fills the spare buffer of a
    /// dropped store when there is one.
    ///
    /// # Panics
    ///
    /// Panics if the ids do not increase past every stored usage id.
    pub fn append_usage(
        &mut self,
        series: impl IntoIterator<Item = (MachineId, usize)>,
        fill: impl FnOnce(&mut [WeeklyUsage]),
    ) {
        if self.usage.values.capacity() == 0 {
            self.usage.values = USAGE_SPARES.take();
        }
        self.usage.append_with(series, (), fill);
    }

    /// Weekly usage series of a machine.
    pub fn usage(&self, machine: MachineId) -> Option<&[WeeklyUsage]> {
        self.usage.get(machine).map(|((), weeks)| weeks)
    }

    /// On/off log of a machine.
    pub fn onoff(&self, machine: MachineId) -> Option<OnOffView<'_>> {
        let (head, toggles) = self.onoff.get(machine)?;
        Some(head.view(toggles))
    }

    /// Monthly consolidation series of a VM.
    pub fn consolidation(&self, machine: MachineId) -> Option<&[u16]> {
        self.consolidation.get(machine).map(|((), levels)| levels)
    }

    /// Average monthly consolidation level of a VM over the year.
    pub fn mean_consolidation(&self, machine: MachineId) -> Option<f64> {
        let levels = self.consolidation(machine)?;
        if levels.is_empty() {
            return None;
        }
        Some(levels.iter().map(|&l| l as f64).sum::<f64>() / levels.len() as f64)
    }

    /// Iterates over every stored usage series, keyed by machine.
    pub fn usage_series(&self) -> impl ExactSizeIterator<Item = (MachineId, &[WeeklyUsage])> {
        self.usage.iter().map(|(m, (), weeks)| (m, weeks))
    }

    /// Iterates over every stored on/off log, keyed by machine.
    pub fn onoff_logs(&self) -> impl ExactSizeIterator<Item = (MachineId, OnOffView<'_>)> {
        self.onoff
            .iter()
            .map(|(m, head, toggles)| (m, head.view(toggles)))
    }

    /// Iterates over every stored consolidation series, keyed by machine.
    pub fn consolidation_series(&self) -> impl ExactSizeIterator<Item = (MachineId, &[u16])> {
        self.consolidation.iter().map(|(m, (), levels)| (m, levels))
    }

    /// Thins the usage family in place, in id order: `keep` gets each
    /// series' length and returns the length to keep (at most the series'),
    /// or `None` to drop the series.
    pub fn retain_usage(&mut self, keep: impl FnMut(usize) -> Option<usize>) {
        self.usage.retain(keep);
    }

    /// Thins the on/off family in place as [`Telemetry::retain_usage`] does
    /// usage; a kept length keeps the log's first toggles.
    pub fn retain_onoff(&mut self, keep: impl FnMut(usize) -> Option<usize>) {
        self.onoff.retain(keep);
    }

    /// Thins the consolidation family in place as
    /// [`Telemetry::retain_usage`] does usage.
    pub fn retain_consolidation(&mut self, keep: impl FnMut(usize) -> Option<usize>) {
        self.consolidation.retain(keep);
    }

    /// Monthly on/off transition rate of every logged machine with a
    /// non-degenerate window, sorted by machine id (the store's iteration
    /// order). Machines whose log window has length ≤ 0 are skipped: they
    /// contribute to neither the Fig. 10 rate curve nor its share panel.
    ///
    /// Figs. 9/10's twin panels and the what-if model all need per-VM
    /// rates; this computes each log's rate exactly once per dataset pass
    /// so no analysis loop has to re-derive it per machine-week.
    pub fn monthly_transition_rates(&self) -> Vec<(MachineId, f64)> {
        let mut rates = Vec::with_capacity(self.onoff.ids.len());
        for (m, log) in self.onoff_logs() {
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
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        let log = log.view();
        assert!(log.is_on_at(SimTime::ZERO));
        assert!(!log.is_on_at(SimTime::from_days(1)));
        assert!(log.is_on_at(SimTime::from_days(2)));
        assert_eq!(log.window(), window());
        assert_eq!(log.toggles().len(), 2);
        assert!(log.initial_on());
    }

    #[test]
    fn initial_state_ignores_toggles_at_the_window_start() {
        let w = window();
        let log = OnOffLog::new(w, false, vec![w.start(), w.start() + MINUTE]);
        let log = log.view();
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
        let log = log.view();
        assert_eq!(log.sampled_transitions(), 2);
        // 2 transitions over 2 months → 1/month.
        assert!((log.monthly_transition_rate().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sub_sample_power_cycle_is_invisible() {
        // Off and back on within 10 minutes: both inside one 15-min sample.
        let t = SimTime::from_days(5);
        let log = OnOffLog::new(window(), true, vec![t + MINUTE * 2, t + MINUTE * 9]);
        let log = log.view();
        assert_eq!(log.toggles().len(), 2);
        assert_eq!(log.sampled_transitions(), 0);
    }

    #[test]
    fn always_on_has_no_transitions() {
        let log = OnOffLog::always_on(window());
        let log = log.view();
        assert_eq!(log.sampled_transitions(), 0);
        assert!(log.is_on_at(SimTime::from_days(30)));
        let samples = log.samples_15min();
        assert_eq!(samples.len(), 56 * 96);
        assert!(samples.iter().all(|&s| s));
    }

    /// The O(samples × toggles) reference count the fast grid-parity walk
    /// replaced: derive the samples and count adjacent differences.
    fn sampled_reference(log: OnOffView<'_>) -> usize {
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
                let log = log.view();
                assert_eq!(
                    log.sampled_transitions(),
                    sampled_reference(log),
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
            let log = log.view();
            assert_eq!(
                log.sampled_transitions(),
                sampled_reference(log),
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

    #[test]
    fn a_log_writes_its_fields_in_declaration_order() {
        let log = OnOffLog::new(window(), false, vec![SimTime::from_minutes(90)]);
        let json = serde_json::to_string(&log).unwrap();
        assert_eq!(
            json,
            format!(
                "{{\"window\":{},\"initial_on\":false,\"toggles\":[90]}}",
                serde_json::to_string(&window()).unwrap()
            )
        );
        assert_eq!(serde_json::from_str::<OnOffLog>(&json).unwrap(), log);
    }

    #[test]
    fn lookups_take_the_offset_then_search_below_it() {
        let mut t = Telemetry::new();
        let week = |kbps| vec![WeeklyUsage::new(0.0, 0.0, 0.0, kbps)];
        // A shard's contiguous range: every lookup hits its offset.
        for id in 500..510 {
            t.set_usage(MachineId::new(id), week(id as f32));
        }
        for id in 500..510 {
            assert_eq!(t.usage(MachineId::new(id)).unwrap()[0].net_kbps, id as f32);
        }
        for id in [0, 499, 510, u32::MAX] {
            assert_eq!(t.usage(MachineId::new(id)), None);
        }
        // A gap: later ids sit before their offset and are searched for.
        t.set_usage(MachineId::new(u32::MAX), week(1.0));
        t.set_usage(MachineId::new(700), week(2.0));
        assert_eq!(t.usage(MachineId::new(700)).unwrap()[0].net_kbps, 2.0);
        assert_eq!(t.usage(MachineId::new(u32::MAX)).unwrap()[0].net_kbps, 1.0);
        assert_eq!(t.usage(MachineId::new(701)), None);
        let ids: Vec<u32> = t.usage_series().map(|(m, _)| m.raw()).collect();
        assert_eq!(ids.len(), 12);
        assert!(ids.is_sorted_by(|a, b| a < b));
    }

    #[test]
    fn a_store_with_holes_equals_its_compact_copy() {
        let mut t = Telemetry::new();
        let levels: Vec<Vec<u16>> = vec![vec![1, 2, 3], vec![4, 5], vec![6]];
        for (id, l) in levels.iter().enumerate() {
            t.set_consolidation(MachineId::new(id as u32), l);
        }
        // Drop the middle series and shorten the first: both leave holes.
        let mut id = 0;
        t.retain_consolidation(|len| {
            id += 1;
            match id {
                1 => Some(1),
                2 => None,
                _ => Some(len),
            }
        });
        let mut compact = Telemetry::new();
        compact.set_consolidation(MachineId::new(0), [1]);
        compact.set_consolidation(MachineId::new(2), [6]);
        assert_eq!(t, compact);
        assert_eq!(
            serde_json::to_string(&t).unwrap(),
            serde_json::to_string(&compact).unwrap()
        );
        compact.set_consolidation(MachineId::new(2), [7]);
        assert_ne!(t, compact);
    }

    #[test]
    fn a_bulk_append_lays_series_back_to_back() {
        let mut t = Telemetry::new();
        let kbps = |k| WeeklyUsage::new(0.0, 0.0, 0.0, k);
        let series = [(3, 2), (4, 1), (9, 3)].map(|(m, len)| (MachineId::new(m), len));
        t.append_usage(series, |weeks| {
            for (i, week) in weeks.iter_mut().enumerate() {
                *week = kbps(i as f32);
            }
        });
        t.append_usage([(MachineId::new(10), 0)], |weeks| assert!(weeks.is_empty()));
        assert_eq!(
            t.usage(MachineId::new(3)),
            Some(&[kbps(0.0), kbps(1.0)][..])
        );
        assert_eq!(t.usage(MachineId::new(4)), Some(&[kbps(2.0)][..]));
        assert_eq!(t.usage(MachineId::new(9)).map(<[_]>::len), Some(3));
        assert_eq!(t.usage(MachineId::new(10)), Some(&[][..]));
        assert_eq!(t.usage(MachineId::new(5)), None);
        // A copy reads the same, whichever buffer it fills.
        assert_eq!(t.clone(), t);
    }

    #[test]
    #[should_panic(expected = "must increase")]
    fn a_bulk_append_rejects_ids_out_of_order() {
        let mut t = Telemetry::new();
        t.append_usage([(MachineId::new(5), 1)], |_| ());
        t.append_usage([(MachineId::new(5), 1)], |_| ());
    }

    #[test]
    fn an_id_at_u32_max_sizes_nothing() {
        let json = "{\"usage\":{\"4294967295\":[]},\"onoff\":{},\"consolidation\":{}}";
        let t: Telemetry = serde_json::from_str(json).unwrap();
        assert_eq!(t.usage(MachineId::new(u32::MAX)), Some(&[][..]));
        assert_eq!(t.usage(MachineId::new(0)), None);
        for (bad, why) in [
            ("4294967296", "out of range for u32"),
            ("-1", "expected unsigned integer"),
            ("m7", "expected unsigned integer, found string"),
        ] {
            let err = serde_json::from_str::<Telemetry>(&json.replace("4294967295", bad))
                .unwrap_err()
                .to_string();
            assert!(
                err.contains("invalid field `Telemetry.usage`") && err.contains(why),
                "{err}"
            );
        }
        let err = serde_json::from_str::<Telemetry>("{\"usage\":{},\"onoff\":{}}").unwrap_err();
        assert!(
            err.to_string().contains("missing field `consolidation`"),
            "{err}"
        );
    }

    /// The store of maps this layout replaced, kept as the oracle of every
    /// reader: one `BTreeMap` per family.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct MapTelemetry {
        usage: BTreeMap<MachineId, Vec<WeeklyUsage>>,
        onoff: BTreeMap<MachineId, OnOffLog>,
        consolidation: BTreeMap<MachineId, Vec<u16>>,
    }

    impl MapTelemetry {
        fn mean_consolidation(&self, machine: MachineId) -> Option<f64> {
            let levels = self.consolidation.get(&machine)?;
            if levels.is_empty() {
                return None;
            }
            Some(levels.iter().map(|&l| l as f64).sum::<f64>() / levels.len() as f64)
        }

        fn monthly_transition_rates(&self) -> Vec<(MachineId, f64)> {
            let logs = self.onoff.iter();
            logs.filter_map(|(&m, log)| Some((m, log.view().monthly_transition_rate()?)))
                .collect()
        }
    }

    /// One drawn set: a family, a machine and a series, as a JSON map entry.
    #[derive(Debug, Clone)]
    enum Set {
        Usage(MachineId, Vec<WeeklyUsage>),
        OnOff(MachineId, OnOffLog),
        Consolidation(MachineId, Vec<u16>),
    }

    /// Draws the `j`-th set of a case from `bits`. `pattern` picks the ids:
    /// dense from 0, dense from an offset (a shard's range), sparse, or just
    /// below `u32::MAX`; `in_order` sets the `j`-th id, so dense patterns
    /// give contiguous columns, and otherwise ids come in any order and
    /// repeat.
    fn draw_set(pattern: u64, in_order: bool, j: usize, bits: u64) -> Set {
        let k = if in_order {
            j as u32
        } else {
            (bits >> 8) as u32 % 48
        };
        let id = MachineId::new(match pattern % 4 {
            0 => k,
            1 => 70_000 + k,
            2 => k * 977 + 3,
            _ => u32::MAX - k * 5,
        });
        let len = (bits >> 16) as usize % 6;
        let value = |i: usize| ((bits >> 24) as usize + 7 * i) % 101;
        match bits % 3 {
            0 => Set::Usage(
                id,
                (0..len)
                    .map(|i| WeeklyUsage::new(value(i) as f32, 1.0, 2.0, 3.0))
                    .collect(),
            ),
            1 => {
                let days = 1 + (bits >> 40) as i64 % 60;
                let w = Horizon::new(SimTime::from_days(days), SimTime::from_days(2 * days));
                let toggles = (0..len)
                    .map(|i| w.start() + MINUTE * (value(i) as i64 + 200 * i as i64))
                    .filter(|&t| w.contains(t))
                    .collect();
                Set::OnOff(id, OnOffLog::new(w, bits & 8 == 0, toggles))
            }
            _ => Set::Consolidation(id, (0..len).map(|i| value(i) as u16 % 5).collect()),
        }
    }

    /// The sets applied to both stores, and as one JSON object whose maps
    /// hold one entry per set, in set order, repeats and all.
    fn apply(sets: &[Set]) -> (Telemetry, MapTelemetry, Value) {
        let (mut flat, mut maps) = (Telemetry::new(), MapTelemetry::default());
        let mut json: [Vec<(String, Value)>; 3] = Default::default();
        for set in sets.iter().cloned() {
            match set {
                Set::Usage(m, weeks) => {
                    json[0].push((m.raw().to_string(), weeks.to_value()));
                    flat.set_usage(m, &weeks);
                    maps.usage.insert(m, weeks);
                }
                Set::OnOff(m, log) => {
                    json[1].push((m.raw().to_string(), log.to_value()));
                    flat.set_onoff(m, log.clone());
                    maps.onoff.insert(m, log);
                }
                Set::Consolidation(m, levels) => {
                    json[2].push((m.raw().to_string(), levels.to_value()));
                    flat.set_consolidation(m, &levels);
                    maps.consolidation.insert(m, levels);
                }
            }
        }
        let [usage, onoff, consolidation] = json.map(Value::Object);
        let json = Value::Object(vec![
            ("usage".to_string(), usage),
            ("onoff".to_string(), onoff),
            ("consolidation".to_string(), consolidation),
        ]);
        (flat, maps, json)
    }

    /// Every reader of `flat` answers as `maps` does.
    fn assert_reads_as(flat: &Telemetry, maps: &MapTelemetry) {
        let stored = maps.usage.keys().chain(maps.onoff.keys());
        let probes = stored
            .chain(maps.consolidation.keys())
            .copied()
            .chain([0, 1, 47, 70_000, 70_047, u32::MAX, u32::MAX - 1].map(MachineId::new));
        for m in probes {
            assert_eq!(flat.usage(m), maps.usage.get(&m).map(Vec::as_slice), "{m}");
            assert_eq!(flat.onoff(m), maps.onoff.get(&m).map(OnOffLog::view), "{m}");
            let levels = maps.consolidation.get(&m).map(Vec::as_slice);
            assert_eq!(flat.consolidation(m), levels, "{m}");
            let mean = flat.mean_consolidation(m).map(f64::to_bits);
            assert_eq!(mean, maps.mean_consolidation(m).map(f64::to_bits), "{m}");
        }
        let usage: Vec<_> = maps.usage.iter().map(|(&m, v)| (m, &v[..])).collect();
        assert_eq!(flat.usage_series().collect::<Vec<_>>(), usage);
        let logs: Vec<_> = maps.onoff.iter().map(|(&m, l)| (m, l.view())).collect();
        assert_eq!(flat.onoff_logs().collect::<Vec<_>>(), logs);
        let levels: Vec<_> = maps
            .consolidation
            .iter()
            .map(|(&m, v)| (m, &v[..]))
            .collect();
        assert_eq!(flat.consolidation_series().collect::<Vec<_>>(), levels);
        assert_eq!(flat.usage_series().len(), maps.usage.len());
        let bits = |rates: Vec<(MachineId, f64)>| -> Vec<(MachineId, u64)> {
            rates.into_iter().map(|(m, r)| (m, r.to_bits())).collect()
        };
        assert_eq!(
            bits(flat.monthly_transition_rates()),
            bits(maps.monthly_transition_rates())
        );
        let json = serde_json::to_string(flat).unwrap();
        assert_eq!(json, serde_json::to_string(maps).unwrap());
        assert_eq!(&serde_json::from_str::<Telemetry>(&json).unwrap(), flat);
    }

    /// The flat store built from `maps` in id order: compact, no holes.
    fn compact(maps: &MapTelemetry) -> Telemetry {
        let mut t = Telemetry::new();
        for (&m, weeks) in &maps.usage {
            t.set_usage(m, weeks);
        }
        for (&m, log) in &maps.onoff {
            t.set_onoff(m, log.clone());
        }
        for (&m, levels) in &maps.consolidation {
            t.set_consolidation(m, levels);
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Sets in any order, overwrites, empty series and every id pattern:
        /// the flat store reads, iterates, compares and writes as the maps,
        /// and reading the sets as one JSON with repeated, unsorted keys
        /// gives the same store.
        #[test]
        fn the_flat_store_reads_as_the_map_store(
            pattern in 0u64..4,
            in_order in any::<bool>(),
            draws in prop::collection::vec(any::<u64>(), 0..64),
        ) {
            let sets: Vec<Set> = draws
                .iter()
                .enumerate()
                .map(|(j, &bits)| draw_set(pattern, in_order, j, bits))
                .collect();
            let (flat, maps, json) = apply(&sets);
            assert_reads_as(&flat, &maps);
            prop_assert_eq!(&compact(&maps), &flat);
            let read = Telemetry::from_value(&json).unwrap();
            prop_assert_eq!(&read, &flat);
            let oracle = MapTelemetry::from_value(&json).unwrap();
            assert_reads_as(&read, &oracle);
        }

        /// Thinning in place keeps what the maps keep after the same cuts,
        /// and the store with holes equals its compact copy.
        #[test]
        fn thinning_in_place_reads_as_thinned_maps(
            pattern in 0u64..4,
            draws in prop::collection::vec(any::<u64>(), 0..48),
            cuts in prop::collection::vec(any::<u64>(), 48..49),
        ) {
            let sets: Vec<Set> = draws
                .iter()
                .enumerate()
                .map(|(j, &bits)| draw_set(pattern, false, j, bits))
                .collect();
            let (mut flat, mut maps, _) = apply(&sets);
            let mut cut = cuts.iter().cycle();
            let mut keep = |len: usize| {
                let c = *cut.next().unwrap();
                (c % 3 != 0).then_some(if c % 3 == 1 { len } else { (c >> 8) as usize % (len + 1) })
            };
            let mut decisions = Vec::new();
            let mut record = |len: usize| {
                let kept = keep(len);
                decisions.push(kept);
                kept
            };
            flat.retain_usage(&mut record);
            flat.retain_onoff(&mut record);
            flat.retain_consolidation(&mut record);
            let mut decided = decisions.into_iter();
            maps.usage.retain(|_, weeks| match decided.next().unwrap() {
                Some(len) => { weeks.truncate(len); true }
                None => false,
            });
            maps.onoff.retain(|_, log| match decided.next().unwrap() {
                Some(len) => { log.toggles.truncate(len); true }
                None => false,
            });
            maps.consolidation.retain(|_, levels| match decided.next().unwrap() {
                Some(len) => { levels.truncate(len); true }
                None => false,
            });
            prop_assert!(decided.next().is_none());
            assert_reads_as(&flat, &maps);
            prop_assert_eq!(&compact(&maps), &flat);
        }
    }
}
