//! The Fig. 7–10 panel table and the one binning kernel behind it.
//!
//! Every rate-vs-attribute panel of Figs. 7–10 is the same estimator: bin
//! machine-weeks by an attribute, then count failure events per
//! (bin, week). [`PANELS`] declares all fourteen panels as data — machine
//! kind, attribute [`Source`], bins, attribute label, and whether the panel
//! carries a VM population-share panel — and [`PanelCounts`] is the one
//! mergeable counts type behind them.
//!
//! Every front door bins through one kernel: [`Slots`] lists, per machine
//! kind, the constant and the weekly panels a [`PanelCounts`] counts, so a
//! machine walks only its own kind's panels.
//! [`PanelCounts::observe_machine`] bins a machine's constants once and
//! counts the machine in every week; [`PanelCounts::observe_weeks`] bins a
//! run of consecutive weeks of its usage, slot by slot, and leaves the run's
//! last week in the machine's bin row; [`PanelCounts::add_event`] counts a
//! failure in the bins of that row. [`observe`], the batch and shard
//! driver, runs over a contiguous machine range — the whole fleet for the
//! batch runners ([`observe_dataset`]), one shard's range for
//! `dcfail-shard`. It takes each machine's constant step once, looks its
//! usage series up once and bins the series in runs that end at the
//! machine's failure weeks. The streaming engine takes the same steps as
//! machine attributes, usage rollups (a run of one week) and failures
//! arrive.

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

/// One counted panel in a machine kind's walk: its index among the counted
/// panels (its slot in a bin row and its matrices in the counts), its bins
/// and the attribute it reads.
#[derive(Debug, Clone, Copy)]
struct Slot<A> {
    index: usize,
    bins: &'static Bins,
    attribute: A,
}

/// The slot lists of a [`PanelCounts`]' panel set: per machine kind, its
/// constant slots and its weekly slots, in panel order.
///
/// Derived from the counts and never stored in them: `PanelCounts` is the
/// checkpointed pass-2 payload of a sharded run, and its bytes stay those of
/// its matrices. Build it once per counting pass, and pass it only to the
/// steps of counts over the same panel set.
#[derive(Debug, Clone)]
pub struct Slots {
    /// The panel set the slots index, as in [`PanelCounts`].
    panels: Vec<usize>,
    /// Indexed by [`kind_index`].
    constant: [Vec<Slot<Constant>>; 2],
    /// Indexed by [`kind_index`].
    weekly: [Vec<Slot<Usage>>; 2],
}

/// A machine kind's index in the per-kind slot lists.
fn kind_index(kind: MachineKind) -> usize {
    match kind {
        Pm => 0,
        Vm => 1,
    }
}

impl Slots {
    /// The slot lists of `counts`' panels.
    pub fn of(counts: &PanelCounts) -> Self {
        let bins = table_bins();
        let mut slots = Self {
            panels: counts.panels.clone(),
            constant: [Vec::new(), Vec::new()],
            weekly: [Vec::new(), Vec::new()],
        };
        for (index, &p) in counts.panels.iter().enumerate() {
            let panel = &PANELS[p];
            let kind = kind_index(panel.kind);
            let bins = &bins[p];
            match panel.source {
                Source::Constant(attribute) => slots.constant[kind].push(Slot {
                    index,
                    bins,
                    attribute,
                }),
                Source::Weekly(attribute) => slots.weekly[kind].push(Slot {
                    index,
                    bins,
                    attribute,
                }),
            }
        }
        slots
    }
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

    /// Bins a `kind` machine's constants: each of the kind's constant slots
    /// of `row` gets the machine's bin, counted in every week, or
    /// [`NO_BIN`] when the value is missing or the bins reject it. The other
    /// kind's constant slots are cleared; weekly slots are not touched.
    /// Returns the values binned: one per slot of the kind.
    pub fn observe_machine(
        &mut self,
        slots: &Slots,
        kind: MachineKind,
        value: impl Fn(Constant) -> Option<f64>,
        row: &mut [u8],
    ) -> u64 {
        debug_assert_eq!(slots.panels, self.panels, "slots of another panel set");
        let [own, other] = per_kind(&slots.constant, kind);
        for s in other {
            row[s.index] = NO_BIN;
        }
        for s in own {
            row[s.index] = match value(s.attribute).and_then(|v| s.bins.index_of(v)) {
                Some(bin) => {
                    self.population[s.index].add_row(bin, 1);
                    bin as u8
                }
                None => NO_BIN,
            };
        }
        own.len() as u64
    }

    /// Bins a run of consecutive weeks of a `kind` machine's usage: entry
    /// `i` of `run` is week `first_week + i`, and each of the kind's weekly
    /// slots counts every week in the bin of `value(column, entry)`, one
    /// slot at a time. The kind's weekly slots of `row` get the bins of the
    /// run's last week, or [`NO_BIN`]; the other kind's weekly slots are
    /// cleared, since a feed may name one machine with both kinds; constant
    /// slots are not touched. An empty run changes nothing. Returns the
    /// values binned: one per slot of the kind per week of the run.
    pub fn observe_weeks<W>(
        &mut self,
        slots: &Slots,
        kind: MachineKind,
        first_week: usize,
        run: &[W],
        value: impl Fn(Usage, &W) -> f64,
        row: &mut [u8],
    ) -> u64 {
        debug_assert_eq!(slots.panels, self.panels, "slots of another panel set");
        let Some((last, earlier)) = run.split_last() else {
            return 0;
        };
        let last_week = first_week + earlier.len();
        let [own, other] = per_kind(&slots.weekly, kind);
        for s in other {
            row[s.index] = NO_BIN;
        }
        for s in own {
            let population = &mut self.population[s.index];
            for (week, usage) in (first_week..).zip(earlier) {
                if let Some(bin) = s.bins.index_of(value(s.attribute, usage)) {
                    population.add(bin, week, 1);
                }
            }
            row[s.index] = match s.bins.index_of(value(s.attribute, last)) {
                Some(bin) => {
                    population.add(bin, last_week, 1);
                    bin as u8
                }
                None => NO_BIN,
            };
        }
        (own.len() * run.len()) as u64
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

/// `kind`'s list of `lists`, then the other kind's.
fn per_kind<T>(lists: &[Vec<T>; 2], kind: MachineKind) -> [&[T]; 2] {
    let own = kind_index(kind);
    [&lists[own], &lists[1 - own]]
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

/// The batch and shard driver: bins every machine of `machines` — a
/// contiguous id range — into the panels `select` picks and counts each
/// `(machine, week)` failure of `events` in the bins of that machine-week.
/// Each machine takes the constant step once and the weekly step over runs
/// of its usage series that end at its failure weeks, so the bin row holds
/// a failure week's bins when the failure is added. A failure past the end
/// of the series counts only in the constant panels. Events of machines
/// outside the range or weeks outside the horizon are ignored.
///
/// Returns the counts and the values the steps binned.
pub fn observe(
    select: impl Fn(&Panel) -> bool,
    machines: &[Machine],
    telemetry: &Telemetry,
    weeks: usize,
    events: impl IntoIterator<Item = (MachineId, usize)>,
) -> (PanelCounts, u64) {
    let first = machines.first().map_or(0, |m| m.id().index());
    debug_assert!(
        machines
            .iter()
            .enumerate()
            .all(|(i, m)| m.id().index() == first + i),
        "machines must be a contiguous id range"
    );
    // Failure weeks in (machine, week) order.
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
    let slots = Slots::of(&counts);
    let attrs = MachineAttrs::new(telemetry);
    let mut binned = 0;
    let mut row = vec![NO_BIN; counts.width()];
    for (local, m) in machines.iter().enumerate() {
        let kind = m.kind();
        binned += counts.observe_machine(&slots, kind, |c| attrs.value(m, c), &mut row);
        let weekly = &slots.weekly[kind_index(kind)];
        let series = if weekly.is_empty() {
            &[]
        } else {
            telemetry.usage(m.id()).unwrap_or_default()
        };
        let series = &series[..series.len().min(weeks)];
        // The weeks before `next` are binned. A second failure in a week
        // takes an empty run and finds the week's bins still in the row.
        let mut next = 0;
        while let Some((_, week)) = events.next_if(|&(l, w)| l == local && w < series.len()) {
            let run = &series[next..=week];
            binned += counts.observe_weeks(&slots, kind, next, run, Usage::of, &mut row);
            next = week + 1;
            counts.add_event(&row, week);
        }
        let rest = &series[next..];
        binned += counts.observe_weeks(&slots, kind, next, rest, Usage::of, &mut row);
        // Past the series only the constant slots count.
        for s in weekly {
            row[s.index] = NO_BIN;
        }
        while let Some((_, week)) = events.next_if(|&(l, _)| l == local) {
            counts.add_event(&row, week);
        }
    }
    (counts, binned)
}

/// The batch driver: [`observe`] over `dataset`'s whole fleet and every
/// in-horizon failure event.
pub fn observe_dataset(
    dataset: &FailureDataset,
    select: impl Fn(&Panel) -> bool,
) -> (PanelCounts, u64) {
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
        .0
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
        let all = observe_dataset(ds, |_| true).0.finalize();
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
        let slots = Slots::of(&counts);
        let width = counts.width();
        assert_eq!(width, 8);
        let mut row = vec![7; width];
        let binned = counts.observe_machine(
            &slots,
            Vm,
            |c| (c == Constant::Consolidation).then_some(16.0),
            &mut row,
        );
        assert_eq!(binned, 2, "the VM constant slots: Figs. 9 and 10");
        let selected: Vec<&Panel> = PANELS.iter().filter(|p| p.reads_telemetry()).collect();
        for (slot, p) in row.iter().zip(&selected) {
            match p.source {
                Source::Constant(Constant::Consolidation) => assert_eq!(*slot, 4),
                Source::Constant(_) => assert_eq!(*slot, NO_BIN, "{}", p.name),
                Source::Weekly(_) => assert_eq!(*slot, 7, "{} untouched", p.name),
            }
        }
        // A PM week fills the PM weekly slots and clears the VM ones.
        assert_eq!(
            counts.observe_weeks(&slots, Pm, 1, &[55.0], |_, &v| v, &mut row),
            2
        );
        for (slot, p) in row.iter().zip(&selected) {
            match (p.source, p.kind) {
                (Source::Weekly(_), Pm) => assert_eq!(*slot, 5, "{}", p.name),
                (Source::Constant(Constant::Consolidation), _) => assert_eq!(*slot, 4),
                // VM weekly slots are cleared; on/off has no value.
                _ => assert_eq!(*slot, NO_BIN, "{}", p.name),
            }
        }
        // The same machine as a VM the next week: the PM slots clear.
        assert_eq!(
            counts.observe_weeks(&slots, Vm, 2, &[5.0], |_, &v| v, &mut row),
            4
        );
        for (slot, p) in row.iter().zip(&selected) {
            match (p.source, p.kind) {
                // 5 Kbps is in 8d's 4–8 bin; 5% in the first percent bin.
                (Source::Weekly(Usage::Net), Vm) => assert_eq!(*slot, 1, "{}", p.name),
                (Source::Weekly(_), Vm) => assert_eq!(*slot, 0, "{}", p.name),
                (Source::Constant(Constant::Consolidation), _) => assert_eq!(*slot, 4),
                _ => assert_eq!(*slot, NO_BIN, "{}", p.name),
            }
        }
        // A constant step leaves the weekly slots alone.
        let before = row.clone();
        counts.observe_machine(&slots, Pm, |_| Some(1.0), &mut row);
        for ((slot, was), p) in row.iter().zip(&before).zip(&selected) {
            match p.source {
                Source::Weekly(_) => assert_eq!(slot, was, "{}", p.name),
                // No PM panel reads a constant from telemetry.
                Source::Constant(_) => assert_eq!(*slot, NO_BIN, "{}", p.name),
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slots of another panel set")]
    fn steps_reject_slots_of_another_panel_set() {
        // Figs. 7 and 8 both count six panels, so only the panel set tells
        // their slots apart.
        let slots = Slots::of(&PanelCounts::new(|p| p.figure == 8, 2));
        let mut fig7 = PanelCounts::new(|p| p.figure == 7, 2);
        let mut row = vec![NO_BIN; fig7.width()];
        fig7.observe_weeks(&slots, Pm, 0, &[50.0], |_, &v| v, &mut row);
    }

    #[test]
    fn a_run_counts_as_its_weeks_one_at_a_time() {
        let ds = testutil::dataset();
        let weeks = ds.horizon().num_weeks();
        let mut runs = PanelCounts::new(|p| p.figure == 8, weeks);
        let mut singles = runs.clone();
        let slots = Slots::of(&runs);
        for m in ds.machines() {
            let series = ds.telemetry().usage(m.id()).unwrap_or_default();
            let series = &series[..series.len().min(weeks)];
            let (mut run_row, mut single_row) = (vec![7; runs.width()], vec![7; runs.width()]);
            // Two runs split at week 5 with an empty run between them,
            // against one step per week.
            let split = series.len().min(5);
            let mut binned = 0;
            for (first, run) in [
                (0, &series[..split]),
                (split, &[][..]),
                (split, &series[split..]),
            ] {
                binned += runs.observe_weeks(&slots, m.kind(), first, run, Usage::of, &mut run_row);
            }
            let mut single_binned = 0;
            for (week, usage) in series.iter().enumerate() {
                let week_run = std::slice::from_ref(usage);
                single_binned += singles.observe_weeks(
                    &slots,
                    m.kind(),
                    week,
                    week_run,
                    Usage::of,
                    &mut single_row,
                );
            }
            assert_eq!(binned, single_binned);
            assert_eq!(run_row, single_row, "the last week's bins");
        }
        assert_eq!(runs, singles);
        // An empty run leaves the row alone.
        let mut row = vec![7; runs.width()];
        assert_eq!(
            runs.observe_weeks(&slots, Vm, 0, &[5.0; 0], |_, &v| v, &mut row),
            0
        );
        assert!(row.iter().all(|&b| b == 7));
    }

    #[test]
    fn slots_list_each_counted_panel_once_under_its_kind() {
        let counts = PanelCounts::new(|_| true, 2);
        let slots = Slots::of(&counts);
        let mut seen = vec![0; counts.width()];
        for kind in MachineKind::ALL {
            let k = kind_index(kind);
            for s in &slots.constant[k] {
                let p = &PANELS[counts.panels[s.index]];
                assert_eq!((p.kind, p.source), (kind, Source::Constant(s.attribute)));
                assert_eq!(s.bins, p.bins());
                seen[s.index] += 1;
            }
            for s in &slots.weekly[k] {
                let p = &PANELS[counts.panels[s.index]];
                assert_eq!((p.kind, p.source), (kind, Source::Weekly(s.attribute)));
                assert_eq!(s.bins, p.bins());
                seen[s.index] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "{seen:?}");
        // Slots are in panel order within each list.
        assert!(slots.weekly[kind_index(Vm)]
            .windows(2)
            .all(|w| w[0].index < w[1].index));
    }

    #[test]
    fn values_binned_counts_each_machines_slot_walk() {
        let ds = testutil::dataset();
        let weeks = ds.horizon().num_weeks();
        let (_, binned) = observe_dataset(ds, Panel::reads_telemetry);
        // Figs. 9 and 10 bin each VM's two constants; Fig. 8 bins each
        // machine-week of a PM in two panels and of a VM in four.
        let expected: usize = ds
            .machines()
            .iter()
            .map(|m| {
                let series = ds
                    .telemetry()
                    .usage(m.id())
                    .map_or(0, |s| s.len().min(weeks));
                match m.kind() {
                    Pm => 2 * series,
                    Vm => 2 + 4 * series,
                }
            })
            .sum();
        assert_eq!(binned, expected as u64);
        // Fig. 7 bins two capacities of every machine and two more of a VM.
        assert_eq!(
            observe_dataset(ds, |p| p.figure == 7).1,
            ds.machines().len() as u64 * 2 + ds.population(Vm, None) as u64 * 2
        );
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
        let [(left, left_binned), (right, right_binned)] = halves.map(|half| {
            observe(
                |_| true,
                half,
                ds.telemetry(),
                weeks,
                events.iter().copied(),
            )
        });

        let (whole, whole_binned) = observe_dataset(ds, |_| true);
        assert_eq!(left_binned + right_binned, whole_binned);
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
