//! The Fig. 7–10 panel table and the one driver that bins machines into it.
//!
//! Every rate-vs-attribute panel of Figs. 7–10 is the same estimator: bin
//! machine-weeks by an attribute, then count failure events per
//! (bin, week). [`PANELS`] declares all fourteen panels as data — machine
//! kind, attribute [`Source`], bins, attribute label, and whether the panel
//! carries a VM population-share panel — and [`PanelCounts`] is the one
//! mergeable counts type behind them.
//!
//! Every front door bins through the same two per-machine steps:
//! [`PanelCounts::observe_machine`] bins a machine's constants once and
//! counts the machine in every week, [`PanelCounts::observe_week`] bins one
//! week of its usage. [`observe`] runs both over a contiguous machine range —
//! the whole fleet for the batch runners ([`observe_dataset`]), one shard's
//! range for `dcfail-shard` — reading each machine's usage series once and
//! attributing the machine's `(machine, week)` failure events through its
//! bin rows. The streaming engine calls the two steps itself as machine
//! attributes and usage rollups arrive.

use crate::curve::AttributeCurve;
use dcfail_model::prelude::*;
use dcfail_stats::binning::Bins;
use dcfail_stats::merge::{CountMatrix, Mergeable};
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::sync::OnceLock;
use MachineKind::{Pm, Vm};

/// Sentinel slot value of a bin row: the panel does not bin this machine
/// (other kind, missing or out-of-range attribute). Every panel has far
/// fewer bins, so bin ids fit a `u8`.
pub const NO_BIN: u8 = u8::MAX;

/// A weekly usage column (Fig. 8), binned once per machine-week.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Usage {
    /// CPU utilization percent.
    Cpu,
    /// Memory utilization percent.
    Mem,
    /// Disk-space utilization percent.
    Disk,
    /// Network volume in Kbps.
    Net,
}

impl Usage {
    /// The column's value in one weekly rollup.
    pub fn of(self, usage: &WeeklyUsage) -> f64 {
        f64::from(match self {
            Self::Cpu => usage.cpu_pct,
            Self::Mem => usage.mem_pct,
            Self::Disk => usage.disk_pct,
            Self::Net => usage.net_kbps,
        })
    }
}

/// A per-machine constant (Figs. 7, 9, 10), binned once per machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constant {
    /// Number of (v)CPUs.
    Cpus,
    /// Memory size in GB.
    MemoryGb,
    /// Total disk capacity in GB.
    DiskGb,
    /// Number of (virtual) disks.
    Disks,
    /// Mean monthly consolidation level over the year.
    Consolidation,
    /// Monthly on/off transition rate.
    OnOff,
}

/// Where a panel's attribute comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A weekly usage column.
    Weekly(Usage),
    /// A per-machine constant.
    Constant(Constant),
}

/// One rate-vs-attribute panel of Figs. 7–10.
#[derive(Debug)]
pub struct Panel {
    /// The paper figure the panel belongs to (7–10).
    pub figure: u8,
    /// Panel name as rendered, e.g. `"8a PM cpu util"`.
    pub name: &'static str,
    /// The machines the panel counts.
    pub kind: MachineKind,
    /// The binned attribute.
    pub source: Source,
    /// Attribute label of the panel's curve, e.g. `"cpu util %"`.
    pub attribute: &'static str,
    /// Whether the panel carries a VM population-share panel.
    pub share: bool,
    bins: fn() -> Bins,
}

impl Panel {
    /// The panel's bins.
    pub fn bins(&self) -> &'static Bins {
        let index = PANELS
            .iter()
            .position(|p| std::ptr::eq(p, self))
            .expect("panels live in the table");
        &table_bins()[index]
    }

    /// Whether the panel reads telemetry (Figs. 8–10) rather than only
    /// machine capacity (Fig. 7) — the panels a sharded or streamed run
    /// has to count itself.
    pub fn reads_telemetry(&self) -> bool {
        self.figure >= 8
    }
}

/// Utilization-percentage bins (0–100 in 10-point steps) of the Fig. 8
/// CPU, memory and disk panels.
fn percent_bins() -> Bins {
    Bins::linear(0.0, 100.0, 10)
}

/// Every Fig. 7–10 panel, in rendering order.
pub static PANELS: [Panel; 14] = [
    Panel {
        figure: 7,
        name: "7a PM cpu",
        kind: Pm,
        source: Source::Constant(Constant::Cpus),
        attribute: "cpu count",
        share: false,
        bins: || Bins::discrete(&[1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 64.0]),
    },
    Panel {
        figure: 7,
        name: "7a VM cpu",
        kind: Vm,
        source: Source::Constant(Constant::Cpus),
        attribute: "cpu count",
        share: false,
        bins: || Bins::discrete(&[1.0, 2.0, 4.0, 8.0]),
    },
    Panel {
        figure: 7,
        name: "7b PM mem",
        kind: Pm,
        source: Source::Constant(Constant::MemoryGb),
        attribute: "memory GB",
        share: false,
        bins: || Bins::discrete(&[2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]),
    },
    Panel {
        figure: 7,
        name: "7b VM mem",
        kind: Vm,
        source: Source::Constant(Constant::MemoryGb),
        attribute: "memory GB",
        share: false,
        bins: || Bins::discrete(&[0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
    },
    Panel {
        figure: 7,
        name: "7c VM disk GB",
        kind: Vm,
        source: Source::Constant(Constant::DiskGb),
        attribute: "disk GB",
        share: false,
        bins: || {
            Bins::discrete(&[
                8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
            ])
        },
    },
    Panel {
        figure: 7,
        name: "7d VM disk count",
        kind: Vm,
        source: Source::Constant(Constant::Disks),
        attribute: "disk count",
        share: false,
        bins: || Bins::discrete(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    },
    Panel {
        figure: 8,
        name: "8a PM cpu util",
        kind: Pm,
        source: Source::Weekly(Usage::Cpu),
        attribute: "cpu util %",
        share: false,
        bins: percent_bins,
    },
    Panel {
        figure: 8,
        name: "8a VM cpu util",
        kind: Vm,
        source: Source::Weekly(Usage::Cpu),
        attribute: "cpu util %",
        share: false,
        bins: percent_bins,
    },
    Panel {
        figure: 8,
        name: "8b PM mem util",
        kind: Pm,
        source: Source::Weekly(Usage::Mem),
        attribute: "mem util %",
        share: false,
        bins: percent_bins,
    },
    Panel {
        figure: 8,
        name: "8b VM mem util",
        kind: Vm,
        source: Source::Weekly(Usage::Mem),
        attribute: "mem util %",
        share: false,
        bins: percent_bins,
    },
    Panel {
        figure: 8,
        name: "8c VM disk util",
        kind: Vm,
        source: Source::Weekly(Usage::Disk),
        attribute: "disk util %",
        share: false,
        bins: percent_bins,
    },
    // Power-of-two Kbps over the paper's 2 Kbps – 8 Mbps range.
    Panel {
        figure: 8,
        name: "8d VM net kbps",
        kind: Vm,
        source: Source::Weekly(Usage::Net),
        attribute: "net kbps",
        share: false,
        bins: || Bins::log2(1, 13),
    },
    // Levels 1, 2, 4, ..., 32 with geometric-midpoint edges: a VM whose
    // co-residents are occasionally off still lands in its box's nominal
    // level (a yearly mean of 29.7 on a 32-VM box is a "32"), and the
    // open-ended top bin keeps any higher mean in "32".
    Panel {
        figure: 9,
        name: "9 consolidation",
        kind: Vm,
        source: Source::Constant(Constant::Consolidation),
        attribute: "consolidation",
        share: true,
        bins: || {
            Bins::open_last(vec![1.0, 1.5, 3.0, 6.0, 12.0, 24.0])
                .with_labels(["1", "2", "4", "8", "16", "32"].map(String::from).to_vec())
        },
    },
    // Monthly on/off transitions; a VM cycling more than 8 times a month is
    // an "8+" machine, not a dropped one.
    Panel {
        figure: 10,
        name: "10 on/off per month",
        kind: Vm,
        source: Source::Constant(Constant::OnOff),
        attribute: "on/off per month",
        share: true,
        bins: || Bins::open_last(vec![0.0, 1.0, 2.0, 4.0, 8.0]),
    },
];

/// The bins of every [`PANELS`] entry, built once per process.
fn table_bins() -> &'static [Bins] {
    static BINS: OnceLock<Vec<Bins>> = OnceLock::new();
    BINS.get_or_init(|| PANELS.iter().map(|p| (p.bins)()).collect())
}

/// The table entry counting `kind` machines by `source`.
///
/// # Panics
///
/// Panics if no panel counts `kind` by `source`.
pub fn panel(kind: MachineKind, source: Source) -> &'static Panel {
    PANELS
        .iter()
        .find(|p| p.kind == kind && p.source == source)
        .expect("no Fig. 7-10 panel counts this kind by this source")
}

/// Per-machine constants over one telemetry store: capacity fields from the
/// machine record, consolidation from its series, on/off rates from the
/// store's one bulk pass.
#[derive(Debug, Clone)]
pub(crate) struct MachineAttrs<'a> {
    telemetry: &'a Telemetry,
    /// `Telemetry::monthly_transition_rates` (sorted by machine id), taken
    /// on first use.
    onoff: OnceCell<Vec<(MachineId, f64)>>,
}

impl<'a> MachineAttrs<'a> {
    pub(crate) fn new(telemetry: &'a Telemetry) -> Self {
        Self {
            telemetry,
            onoff: OnceCell::new(),
        }
    }

    /// The machine's value of `constant`, if it has one.
    pub(crate) fn value(&self, m: &Machine, constant: Constant) -> Option<f64> {
        let capacity = m.capacity();
        match constant {
            Constant::Cpus => Some(f64::from(capacity.cpus())),
            Constant::MemoryGb => Some(capacity.memory_gb()),
            Constant::DiskGb => Some(capacity.disk_gb() as f64),
            Constant::Disks => Some(f64::from(capacity.disks())),
            Constant::Consolidation => self.telemetry.mean_consolidation(m.id()),
            Constant::OnOff => {
                let rates = self
                    .onoff
                    .get_or_init(|| self.telemetry.monthly_transition_rates());
                let i = rates.binary_search_by_key(&m.id(), |&(id, _)| id).ok()?;
                Some(rates[i].1)
            }
        }
    }
}

/// Mergeable per-(bin, week) machine and event counts of a set of panels.
///
/// A machine's bins live in a *bin row*: one slot per counted panel, in
/// panel order, holding a bin id or [`NO_BIN`]. The steps that bin a machine
/// write its slots; [`PanelCounts::add_event`] attributes a failure through
/// them. Counting is integer addition, so a whole-fleet pass, per-shard
/// passes absorbed in any grouping and a streamed replay all finalize to
/// identical curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanelCounts {
    /// Indices into [`PANELS`] of the counted panels, in table order.
    panels: Vec<usize>,
    /// Machine-weeks per (bin, week), one matrix per counted panel.
    population: Vec<CountMatrix>,
    /// Failure events per (bin, week), one matrix per counted panel.
    events: Vec<CountMatrix>,
}

impl PanelCounts {
    /// Empty counts over `weeks` observation weeks for every panel `select`
    /// picks.
    pub fn new(select: impl Fn(&Panel) -> bool, weeks: usize) -> Self {
        let panels: Vec<usize> = (0..PANELS.len()).filter(|&i| select(&PANELS[i])).collect();
        let zeros = || {
            panels
                .iter()
                .map(|&i| CountMatrix::zeros(table_bins()[i].len(), weeks))
                .collect()
        };
        Self {
            population: zeros(),
            events: zeros(),
            panels,
        }
    }

    /// Slots of a bin row: one per counted panel.
    pub fn width(&self) -> usize {
        self.panels.len()
    }

    /// Bins a `kind` machine's constants: each constant-source slot of `row`
    /// gets the machine's bin, counted in every week. Weekly slots are not
    /// touched.
    pub fn observe_machine(
        &mut self,
        kind: MachineKind,
        value: impl Fn(Constant) -> Option<f64>,
        row: &mut [u8],
    ) {
        self.observe(kind, None, row, |source| match source {
            Source::Constant(constant) => value(constant),
            Source::Weekly(_) => None,
        });
    }

    /// Bins one week of a `kind` machine's usage: each weekly-source slot of
    /// `row` gets the machine-week's bin, counted in `week`. Constant slots
    /// are not touched.
    pub fn observe_week(
        &mut self,
        kind: MachineKind,
        week: usize,
        value: impl Fn(Usage) -> f64,
        row: &mut [u8],
    ) {
        self.observe(kind, Some(week), row, |source| match source {
            Source::Weekly(column) => Some(value(column)),
            Source::Constant(_) => None,
        });
    }

    /// The shared step: a constant (`week` is `None`) or weekly slot whose
    /// panel is of the other kind, or whose value is missing or rejected by
    /// the bins, gets [`NO_BIN`].
    fn observe(
        &mut self,
        kind: MachineKind,
        week: Option<usize>,
        row: &mut [u8],
        value: impl Fn(Source) -> Option<f64>,
    ) {
        let bins = table_bins();
        for ((slot, &p), population) in row.iter_mut().zip(&self.panels).zip(&mut self.population) {
            let panel = &PANELS[p];
            if matches!(panel.source, Source::Constant(_)) != week.is_none() {
                continue;
            }
            *slot = NO_BIN;
            if panel.kind != kind {
                continue;
            }
            let Some(bin) = value(panel.source).and_then(|v| bins[p].index_of(v)) else {
                continue;
            };
            match week {
                Some(week) => population.add(bin, week, 1),
                None => population.add_row(bin, 1),
            }
            *slot = bin as u8;
        }
    }

    /// Counts one failure event in `week` in every panel whose slot of
    /// `row` holds a bin.
    pub fn add_event(&mut self, row: &[u8], week: usize) {
        for (&bin, events) in row.iter().zip(&mut self.events) {
            if bin != NO_BIN {
                events.add(usize::from(bin), week, 1);
            }
        }
    }
}

/// One finalized panel: its curve plus, for a share panel, the population
/// share per bin as `(label, share)` rows.
#[derive(Debug, Clone)]
pub struct PanelCurve {
    /// The table entry.
    pub panel: &'static Panel,
    /// Weekly failure rate per bin.
    pub curve: AttributeCurve,
    /// Population share per bin; empty unless the panel has a share panel.
    pub shares: Vec<(String, f64)>,
}

impl Mergeable for PanelCounts {
    type Output = Vec<PanelCurve>;

    fn identity() -> Self {
        Self {
            panels: Vec::new(),
            population: Vec::new(),
            events: Vec::new(),
        }
    }

    fn absorb(&mut self, other: &Self) {
        if self.panels.is_empty() {
            self.clone_from(other);
            return;
        }
        if other.panels.is_empty() {
            return;
        }
        assert_eq!(self.panels, other.panels, "panel sets must match");
        for (mine, theirs) in self.population.iter_mut().zip(&other.population) {
            mine.absorb(theirs);
        }
        for (mine, theirs) in self.events.iter_mut().zip(&other.events) {
            mine.absorb(theirs);
        }
    }

    fn finalize(self) -> Vec<PanelCurve> {
        let bins = table_bins();
        self.panels
            .iter()
            .zip(self.population.iter().zip(&self.events))
            .map(|(&p, (population, events))| {
                let panel = &PANELS[p];
                let labels = bins[p].labels();
                PanelCurve {
                    panel,
                    curve: AttributeCurve::from_counts(panel.attribute, labels, population, events),
                    shares: if panel.share {
                        machine_shares(labels, population)
                    } else {
                        Vec::new()
                    },
                }
            })
            .collect()
    }
}

/// Machines per bin of a constant-source panel as `(label, share)` rows. A
/// constant counts each machine in every week, so the first week's column
/// is the machine count per bin.
fn machine_shares(labels: &[String], population: &CountMatrix) -> Vec<(String, f64)> {
    let machines: Vec<u64> = (0..labels.len())
        .map(|bin| {
            if population.cols() > 0 {
                population.get(bin, 0)
            } else {
                0
            }
        })
        .collect();
    let total = machines.iter().sum::<u64>().max(1) as f64;
    labels
        .iter()
        .cloned()
        .zip(machines.iter().map(|&c| c as f64 / total))
        .collect()
}

/// The binning driver: bins every machine of `machines` — a contiguous id
/// range — into the panels `select` picks, its constants once and its usage
/// series (one lookup per machine) once per week, and counts each
/// `(machine, week)` failure of `events` through that machine's bin rows.
/// Events of machines outside the range or weeks outside the horizon are
/// ignored.
pub fn observe(
    select: impl Fn(&Panel) -> bool,
    machines: &[Machine],
    telemetry: &Telemetry,
    weeks: usize,
    events: impl IntoIterator<Item = (MachineId, usize)>,
) -> PanelCounts {
    let first = machines.first().map_or(0, |m| m.id().index());
    debug_assert!(
        machines
            .iter()
            .enumerate()
            .all(|(i, m)| m.id().index() == first + i),
        "machines must be a contiguous id range"
    );
    // Failure weeks grouped by machine, in machine order.
    let mut events: Vec<(usize, usize)> = events
        .into_iter()
        .filter_map(|(machine, week)| {
            let local = machine.index().checked_sub(first)?;
            (local < machines.len() && week < weeks).then_some((local, week))
        })
        .collect();
    events.sort_unstable();
    let mut events = events.into_iter().peekable();

    let mut counts = PanelCounts::new(select, weeks);
    let width = counts.width();
    let weekly = counts
        .panels
        .iter()
        .any(|&p| matches!(PANELS[p].source, Source::Weekly(_)));
    let attrs = MachineAttrs::new(telemetry);
    // One machine's bin rows: one per week when a weekly panel is counted,
    // else one for the whole horizon.
    let mut rows = vec![NO_BIN; if weekly { weeks.max(1) } else { 1 } * width];
    for (local, m) in machines.iter().enumerate() {
        rows.fill(NO_BIN);
        let (constants, later) = rows.split_at_mut(width);
        counts.observe_machine(m.kind(), |c| attrs.value(m, c), constants);
        if weekly {
            for row in later.chunks_exact_mut(width) {
                row.copy_from_slice(constants);
            }
            let series = telemetry.usage(m.id()).unwrap_or_default();
            for (week, (usage, row)) in series.iter().zip(rows.chunks_exact_mut(width)).enumerate()
            {
                counts.observe_week(m.kind(), week, |column| column.of(usage), row);
            }
        }
        while let Some((_, week)) = events.next_if(|&(l, _)| l == local) {
            let row = if weekly { week } else { 0 };
            counts.add_event(&rows[row * width..(row + 1) * width], week);
        }
    }
    counts
}

/// The batch driver: [`observe`] over `dataset`'s whole fleet and every
/// in-horizon failure event.
pub fn observe_dataset(dataset: &FailureDataset, select: impl Fn(&Panel) -> bool) -> PanelCounts {
    let horizon = dataset.horizon();
    let events = dataset
        .events()
        .iter()
        .filter_map(|ev| Some((ev.machine(), horizon.week_of(ev.at())?)));
    observe(
        select,
        dataset.machines(),
        dataset.telemetry(),
        horizon.num_weeks(),
        events,
    )
}

/// The finalized `(kind, source)` panel over `dataset`.
pub fn panel_curve(dataset: &FailureDataset, kind: MachineKind, source: Source) -> PanelCurve {
    let wanted = panel(kind, source);
    observe_dataset(dataset, |p| std::ptr::eq(p, wanted))
        .finalize()
        .pop()
        .expect("one panel selected")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn table_is_consistent() {
        for (i, p) in PANELS.iter().enumerate() {
            // Unique (kind, source) keys: the lookup finds this very entry.
            assert!(std::ptr::eq(panel(p.kind, p.source), p), "{}", p.name);
            assert!(p.bins().len() < usize::from(NO_BIN), "{}", p.name);
            assert_eq!(p.bins(), &table_bins()[i]);
            assert_eq!(p.share, p.figure >= 9, "{}", p.name);
            // Only Fig. 7 reads nothing but the machine records.
            let capacity = matches!(
                p.source,
                Source::Constant(
                    Constant::Cpus | Constant::MemoryGb | Constant::DiskGb | Constant::Disks
                )
            );
            assert_eq!(p.reads_telemetry(), !capacity, "{}", p.name);
        }
        // Rendering order: figures never go back.
        assert!(PANELS.windows(2).all(|w| w[0].figure <= w[1].figure));
    }

    #[test]
    fn events_and_machine_weeks_are_consistent() {
        let ds = testutil::dataset();
        // Every PM has a CPU count inside the Fig. 7a bins, so the curve's
        // events are exactly the in-horizon PM failures.
        let curve = panel_curve(ds, Pm, Source::Constant(Constant::Cpus)).curve;
        let total_events: usize = curve.points.iter().map(|p| p.events).sum();
        let expected = ds
            .events()
            .iter()
            .filter(|e| ds.machine(e.machine()).is_pm() && ds.horizon().week_of(e.at()).is_some())
            .count();
        assert_eq!(total_events, expected);
        let total_mw: usize = curve.points.iter().map(|p| p.machine_weeks).sum();
        assert_eq!(total_mw, ds.population(Pm, None) * ds.horizon().num_weeks());
    }

    #[test]
    fn one_pass_over_many_panels_matches_one_pass_per_panel() {
        let ds = testutil::dataset();
        let all = observe_dataset(ds, |_| true).finalize();
        assert_eq!(all.len(), PANELS.len());
        for (joint, p) in all.iter().zip(&PANELS) {
            let alone = panel_curve(ds, p.kind, p.source);
            assert!(std::ptr::eq(joint.panel, p));
            assert_eq!(joint.curve, alone.curve, "{}", p.name);
            assert_eq!(joint.shares, alone.shares, "{}", p.name);
        }
    }

    #[test]
    fn weekly_panels_match_an_independent_count() {
        let ds = testutil::dataset();
        let weeks = ds.horizon().num_weeks();
        let p = panel(Vm, Source::Weekly(Usage::Net));
        let bins = p.bins();
        let mut machine_weeks = vec![0usize; bins.len()];
        let mut events = vec![0usize; bins.len()];
        let bin_of = |id: MachineId, week: usize| {
            let usage = ds.telemetry().usage(id)?.get(week)?;
            bins.index_of(Usage::Net.of(usage))
        };
        for m in ds.machines_of_kind(Vm) {
            for w in 0..weeks {
                if let Some(b) = bin_of(m.id(), w) {
                    machine_weeks[b] += 1;
                }
            }
        }
        for ev in ds.events() {
            let Some(w) = ds.horizon().week_of(ev.at()) else {
                continue;
            };
            if ds.machine(ev.machine()).kind() == Vm {
                if let Some(b) = bin_of(ev.machine(), w) {
                    events[b] += 1;
                }
            }
        }
        let curve = panel_curve(ds, Vm, p.source).curve;
        for point in &curve.points {
            let b = bins
                .labels()
                .iter()
                .position(|l| *l == point.label)
                .unwrap();
            assert_eq!(point.machine_weeks, machine_weeks[b], "{}", point.label);
            assert_eq!(point.events, events[b], "{}", point.label);
        }
        let counted: usize = curve.points.iter().map(|p| p.machine_weeks).sum();
        assert_eq!(counted, machine_weeks.iter().sum::<usize>());
    }

    #[test]
    fn steps_fill_only_their_own_slots() {
        let mut counts = PanelCounts::new(Panel::reads_telemetry, 3);
        let width = counts.width();
        assert_eq!(width, 8);
        let mut row = vec![7; width];
        counts.observe_machine(
            Vm,
            |c| (c == Constant::Consolidation).then_some(16.0),
            &mut row,
        );
        let selected: Vec<&Panel> = PANELS.iter().filter(|p| p.reads_telemetry()).collect();
        for (slot, p) in row.iter().zip(&selected) {
            match p.source {
                Source::Constant(Constant::Consolidation) => assert_eq!(*slot, 4),
                Source::Constant(_) => assert_eq!(*slot, NO_BIN, "{}", p.name),
                Source::Weekly(_) => assert_eq!(*slot, 7, "{} untouched", p.name),
            }
        }
        // A PM week fills the PM weekly slots and clears the VM ones.
        counts.observe_week(Pm, 1, |_| 55.0, &mut row);
        for (slot, p) in row.iter().zip(&selected) {
            match (p.source, p.kind) {
                (Source::Weekly(_), Pm) => assert_eq!(*slot, 5, "{}", p.name),
                (Source::Constant(Constant::Consolidation), _) => assert_eq!(*slot, 4),
                // VM weekly slots are cleared; on/off has no value.
                _ => assert_eq!(*slot, NO_BIN, "{}", p.name),
            }
        }
    }

    #[test]
    fn panel_counts_absorb_law() {
        let ds = testutil::dataset();
        let weeks = ds.horizon().num_weeks();
        let machines = ds.machines();
        let mid = machines.len() / 2;
        let halves = [&machines[..mid], &machines[mid..]];

        // Each half bins its own machines and sees every event; events of
        // the other half's machines fall outside its range.
        let events: Vec<(MachineId, usize)> = ds
            .events()
            .iter()
            .filter_map(|ev| Some((ev.machine(), ds.horizon().week_of(ev.at())?)))
            .collect();
        let [left, right] = halves.map(|half| {
            observe(
                |_| true,
                half,
                ds.telemetry(),
                weeks,
                events.iter().copied(),
            )
        });

        let whole = observe_dataset(ds, |_| true);
        let mut merged = PanelCounts::identity();
        merged.absorb(&left);
        merged.absorb(&right);
        assert_eq!(merged, whole, "absorb must equal the whole-fleet pass");

        // Identity is neutral on both sides.
        let mut right_id = left.clone();
        right_id.absorb(&PanelCounts::identity());
        assert_eq!(right_id, left);

        for (m, w) in merged.finalize().iter().zip(whole.finalize()) {
            assert_eq!(m.curve, w.curve);
            assert_eq!(m.shares, w.shares);
        }
    }

    #[test]
    #[should_panic(expected = "panel sets must match")]
    fn absorb_rejects_different_panel_sets() {
        let mut fig7 = PanelCounts::new(|p| p.figure == 7, 2);
        fig7.absorb(&PanelCounts::new(|p| p.figure == 8, 2));
    }

    #[test]
    fn shares_count_machines_once() {
        let ds = testutil::dataset();
        let p = panel(Vm, Source::Constant(Constant::Consolidation));
        let shares = panel_curve(ds, Vm, p.source).shares;
        let mut per_bin = vec![0u64; p.bins().len()];
        for m in ds.machines_of_kind(Vm) {
            let level = ds.telemetry().mean_consolidation(m.id());
            if let Some(b) = level.and_then(|l| p.bins().index_of(l)) {
                per_bin[b] += 1;
            }
        }
        let total: u64 = per_bin.iter().sum();
        let expected: Vec<(String, f64)> = per_bin
            .iter()
            .enumerate()
            .map(|(b, &c)| (p.bins().label(b).to_string(), c as f64 / total as f64))
            .collect();
        assert_eq!(shares, expected);
        // Panels without a share panel carry no shares.
        assert!(panel_curve(ds, Vm, Source::Constant(Constant::Disks))
            .shares
            .is_empty());
    }
}
