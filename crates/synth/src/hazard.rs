//! The per-machine failure-intensity model.
//!
//! Each machine's daily hazard is a product of:
//!
//! * a **base rate** by kind (PM/VM) and subsystem (Table V skews),
//! * **capacity multipliers** from the Fig. 7 curves (CPU count, memory
//!   size, and for VMs disk count and disk capacity),
//! * **usage multipliers** from the Fig. 8 curves (weekly CPU/memory
//!   utilization, and for VMs disk utilization and network volume),
//! * a **consolidation multiplier** (Fig. 9) and an **on/off multiplier**
//!   (Fig. 10) for VMs,
//! * a **VM age trend** (Fig. 6), and
//! * a post-failure **burst multiplier** (self-exciting decay) producing the
//!   recurrent-failure intensities of Table V and Fig. 5.
//!
//! Every multiplier family is normalized so its population mean is 1; the
//! base rates therefore calibrate the aggregate weekly failure rates
//! directly (Fig. 2) while the curves only *redistribute* risk.

use crate::config::{curves, ScenarioConfig};
use crate::population::Population;
use dcfail_model::prelude::*;
use dcfail_stats::merge::{ExactSum, Mergeable};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Mutex;

/// Precomputed hazard state for one scenario (or one machine-ID range of
/// it, when built via [`HazardModel::for_range`]).
#[derive(Debug, Clone)]
pub struct HazardModel {
    /// First global machine index covered (0 for a whole-fleet model).
    offset: usize,
    /// Per-machine base daily hazard (kind + subsystem calibrated).
    base_daily: Vec<f64>,
    /// Per-machine static multiplier (capacity × consolidation × on/off) and
    /// per-machine-week usage multiplier, each normalized to mean 1 per kind.
    mult: Rows,
    /// Per-machine age multiplier at observation start, and its daily slope;
    /// `(1.0, 0.0)` when age is unknown or the effect is disabled.
    age_at_start: Vec<(f64, f64)>,
    /// Recurrence parameters per kind: (peak daily probability, tau days).
    pm_burst: (f64, f64),
    vm_burst: (f64, f64),
    recurrence_enabled: bool,
}

/// A machine's hazard loses the burst boost after this many days.
pub const BURST_HORIZON_DAYS: f64 = 28.0;

/// Machines per chunk of [`HazardModel::new`]'s parallel pass. A constant,
/// so the chunks never depend on the thread count.
const CHUNK_MACHINES: usize = 128;

/// The population-mean divisors that normalize the multiplier families to
/// mean 1 per machine kind. A divisor of `1.0` means "leave as is" (empty
/// group or non-positive sum), mirroring the monolithic normalization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormConstants {
    static_div: [f64; 2],
    usage_div: [f64; 2],
}

/// Mergeable accumulator of the normalization sums behind [`NormConstants`].
///
/// The sums are [`ExactSum`]s, so accumulating machines shard-by-shard and
/// absorbing the per-shard accumulators yields divisors bit-identical to a
/// single pass over the whole fleet — the key to sharded generation
/// matching monolithic generation exactly.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NormAccum {
    static_sum: [ExactSum; 2],
    static_n: [u64; 2],
    usage_sum: [ExactSum; 2],
    usage_n: [u64; 2],
}

impl NormAccum {
    /// Folds one machine's raw multipliers into the sums.
    ///
    /// One [`ExactSum::push`] per value, so a checkpointed accumulator keeps
    /// its expansion's bytes.
    pub fn accumulate(&mut self, config: &ScenarioConfig, m: &Machine, telemetry: &Telemetry) {
        let (static_raw, usage_raw) = raw_row(config, m, telemetry);
        let k = kind_slot(m.kind());
        self.static_sum[k].push(static_raw);
        self.static_n[k] += 1;
        for u in usage_raw {
            self.usage_sum[k].push(u);
            self.usage_n[k] += 1;
        }
    }

    /// Folds a run of machines' already evaluated raw multipliers, `weeks`
    /// usage values per machine, into the sums: one batched
    /// [`ExactSum`] extend per kind and family, with the exact sums of
    /// [`NormAccum::accumulate`].
    fn fold_run(&mut self, machines: &[Machine], statics: &[f64], usage: &[f64], weeks: usize) {
        for kind in [MachineKind::Pm, MachineKind::Vm] {
            let k = kind_slot(kind);
            let rows = || (0..machines.len()).filter(move |&i| machines[i].kind() == kind);
            self.static_sum[k].extend(rows().map(|i| statics[i]));
            self.usage_sum[k].extend(
                rows()
                    .flat_map(|i| &usage[i * weeks..(i + 1) * weeks])
                    .copied(),
            );
            let n = rows().count() as u64;
            self.static_n[k] += n;
            self.usage_n[k] += n * weeks as u64;
        }
    }
}

impl Mergeable for NormAccum {
    type Output = NormConstants;

    fn identity() -> Self {
        Self::default()
    }

    fn absorb(&mut self, other: &Self) {
        for k in 0..2 {
            self.static_sum[k].absorb(&other.static_sum[k]);
            self.static_n[k] += other.static_n[k];
            self.usage_sum[k].absorb(&other.usage_sum[k]);
            self.usage_n[k] += other.usage_n[k];
        }
    }

    fn finalize(self) -> NormConstants {
        let div = |sum: &ExactSum, n: u64| -> f64 {
            let s = sum.value();
            if n == 0 || s <= 0.0 {
                1.0
            } else {
                s / n as f64
            }
        };
        NormConstants {
            static_div: [
                div(&self.static_sum[0], self.static_n[0]),
                div(&self.static_sum[1], self.static_n[1]),
            ],
            usage_div: [
                div(&self.usage_sum[0], self.usage_n[0]),
                div(&self.usage_sum[1], self.usage_n[1]),
            ],
        }
    }
}

const fn kind_slot(kind: MachineKind) -> usize {
    match kind {
        MachineKind::Pm => 0,
        MachineKind::Vm => 1,
    }
}

/// The multipliers of consecutive machines: one static value per machine,
/// and their usage values as one flat `machines × weeks` block.
#[derive(Debug, Clone)]
struct Rows {
    weeks: usize,
    statics: Vec<f64>,
    usage: Vec<f64>,
}

impl Rows {
    /// `machines` rows of zeros, to be overwritten.
    fn zeroed(machines: usize, weeks: usize) -> Self {
        Self {
            weeks,
            statics: vec![0.0; machines],
            usage: vec![0.0; machines * weeks],
        }
    }

    /// Machine `i`'s static multiplier and its usage row.
    fn row(&self, i: usize) -> (f64, &[f64]) {
        (
            self.statics[i],
            &self.usage[i * self.weeks..(i + 1) * self.weeks],
        )
    }

    /// The rows split into disjoint runs of `len` machines (the last run
    /// may be shorter): each a `statics` run and its `usage` block.
    fn runs_mut(&mut self, len: usize) -> impl Iterator<Item = (&mut [f64], &mut [f64])> {
        let weeks = self.weeks;
        let mut usage = self.usage.as_mut_slice();
        self.statics.chunks_mut(len).map(move |statics| {
            let (run, rest) = std::mem::take(&mut usage).split_at_mut(statics.len() * weeks);
            usage = rest;
            (statics, run)
        })
    }

    /// Divides every raw value by its machine's kind's divisor.
    fn normalize(&mut self, machines: &[Machine], norms: &NormConstants) {
        let weeks = self.weeks;
        for (i, m) in machines.iter().enumerate() {
            let k = kind_slot(m.kind());
            self.statics[i] /= norms.static_div[k];
            let div = norms.usage_div[k];
            for u in &mut self.usage[i * weeks..(i + 1) * weeks] {
                *u /= div;
            }
        }
    }
}

/// Writes `machines`' raw multipliers into `statics` (one per machine) and
/// `usage` (`weeks` per machine, in machine order).
fn write_raw(
    config: &ScenarioConfig,
    machines: &[Machine],
    telemetry: &Telemetry,
    statics: &mut [f64],
    usage: &mut [f64],
) {
    let weeks = config.horizon.num_weeks();
    for (i, m) in machines.iter().enumerate() {
        let (static_raw, usage_raw) = raw_row(config, m, telemetry);
        statics[i] = static_raw;
        for (slot, u) in usage[i * weeks..(i + 1) * weeks].iter_mut().zip(usage_raw) {
            *slot = u;
        }
    }
}

/// One machine's raw (un-normalized) multipliers: the static one, and its
/// usage ones in week order. The one multiplier evaluator behind
/// [`HazardModel::new`], [`HazardModel::for_range`] and
/// [`NormAccum::accumulate`].
fn raw_row<'a>(
    config: &'a ScenarioConfig,
    m: &'a Machine,
    telemetry: &'a Telemetry,
) -> (f64, impl Iterator<Item = f64> + 'a) {
    let series = telemetry.usage(m.id());
    let usage =
        (0..config.horizon.num_weeks()).map(move |w| raw_usage_week_mult(config, m, series, w));
    (raw_static_mult(config, m, telemetry), usage)
}

/// The raw (un-normalized) static multiplier of one machine.
fn raw_static_mult(config: &ScenarioConfig, m: &Machine, telemetry: &Telemetry) -> f64 {
    let fx = config.effects;
    let mut mult = 1.0;
    if fx.capacity {
        mult *= capacity_mult(m);
    }
    if m.is_vm() {
        if fx.consolidation {
            let level = telemetry.mean_consolidation(m.id()).unwrap_or(1.0);
            mult *= curves::consolidation_mult(level);
        }
        if fx.onoff {
            let rate = telemetry
                .onoff(m.id())
                .and_then(OnOffView::monthly_transition_rate)
                .unwrap_or(0.0);
            mult *= curves::onoff_mult(rate);
        }
    }
    mult
}

/// The raw usage multiplier of one machine-week.
fn raw_usage_week_mult(
    config: &ScenarioConfig,
    m: &Machine,
    series: Option<&[WeeklyUsage]>,
    week: usize,
) -> f64 {
    if !config.effects.usage {
        1.0
    } else if let Some(u) = series.and_then(|s| s.get(week)) {
        usage_week_mult(m.kind(), u)
    } else {
        1.0
    }
}

impl HazardModel {
    /// Builds the hazard model for a generated population.
    ///
    /// One pass over fixed chunks of machines on `dcfail-par`: each chunk
    /// writes its machines' raw multipliers, evaluated once, straight into
    /// its rows of the model's arrays and folds them into a chunk
    /// [`NormAccum`], one batched exact add per kind and family. The chunk
    /// accumulators absorb in chunk order, and
    /// their exact sums give the divisors of a serial fold over the fleet
    /// bit for bit. The kept values are then divided in place, as
    /// [`HazardModel::for_range`] divides them.
    pub fn new(config: &ScenarioConfig, pop: &Population, telemetry: &Telemetry) -> Self {
        let machines = &pop.machines;
        let weeks = config.horizon.num_weeks();
        let mut mult = Rows::zeroed(machines.len(), weeks);
        let accums = {
            // Each chunk's rows, locked only by the worker that claims it.
            let runs: Vec<Mutex<(&mut [f64], &mut [f64])>> =
                mult.runs_mut(CHUNK_MACHINES).map(Mutex::new).collect();
            dcfail_par::par_map_index(runs.len(), |c| {
                let mut run = runs[c].lock().expect("a hazard worker panicked");
                let (statics, usage) = &mut *run;
                let chunk = &machines[c * CHUNK_MACHINES..][..statics.len()];
                write_raw(config, chunk, telemetry, statics, usage);
                let mut accum = NormAccum::identity();
                accum.fold_run(chunk, statics, usage, weeks);
                accum
            })
        };
        let mut accum = NormAccum::identity();
        for chunk_accum in &accums {
            accum.absorb(chunk_accum);
        }
        mult.normalize(machines, &accum.finalize());
        Self::assemble(config, machines, 0, mult)
    }

    /// Builds the hazard model for machines `range` only, using
    /// fleet-global normalization constants (see [`NormAccum`]).
    ///
    /// `telemetry` needs entries only for the machines in `range`. Hazard
    /// queries keep taking *global* machine indexes, so per-shard models
    /// plug into the same simulation code as whole-fleet ones.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for the population.
    pub fn for_range(
        config: &ScenarioConfig,
        pop: &Population,
        telemetry: &Telemetry,
        range: Range<usize>,
        norms: &NormConstants,
    ) -> Self {
        let machines = &pop.machines[range.clone()];
        let mut mult = Rows::zeroed(machines.len(), config.horizon.num_weeks());
        let Rows { statics, usage, .. } = &mut mult;
        write_raw(config, machines, telemetry, statics, usage);
        mult.normalize(machines, norms);
        Self::assemble(config, machines, range.start, mult)
    }

    /// The model of `machines`, the first at global index `offset`, from
    /// their normalized multipliers: adds the base rates and the age trend.
    fn assemble(config: &ScenarioConfig, machines: &[Machine], offset: usize, mult: Rows) -> Self {
        let fx = config.effects;
        let age_at_start = machines
            .iter()
            .map(|m| {
                if !fx.age || !m.is_vm() {
                    return (1.0, 0.0);
                }
                match m.age_days_at(config.horizon.start()) {
                    Some(age0) => {
                        let at_start = curves::vm_age_mult(age0);
                        // Linear in age ⇒ constant daily slope.
                        let slope = curves::vm_age_mult(age0 + 1.0) - at_start;
                        (at_start, slope)
                    }
                    None => (1.0, 0.0),
                }
            })
            .collect();
        let base_daily = machines
            .iter()
            .map(|m| {
                let sys = &config.subsystems[m.subsystem().index()];
                match m.kind() {
                    MachineKind::Pm => config.pm_base_weekly * sys.pm_rate_mult / 7.0,
                    MachineKind::Vm => config.vm_base_weekly * sys.vm_rate_mult / 7.0,
                }
            })
            .collect();
        Self {
            offset,
            base_daily,
            mult,
            age_at_start,
            pm_burst: (config.pm_recur_daily, config.burst_tau_days),
            vm_burst: (config.vm_recur_daily, config.burst_tau_days),
            recurrence_enabled: fx.recurrence,
        }
    }

    /// Machine `idx`'s (global index) hazard terms, looked up once.
    pub(crate) fn machine(&self, idx: usize) -> MachineHazard<'_> {
        let idx = idx - self.offset;
        let (static_mult, usage) = self.mult.row(idx);
        let (age0, slope) = self.age_at_start[idx];
        MachineHazard {
            base: self.base_daily[idx],
            static_mult,
            usage,
            age0,
            slope,
        }
    }

    /// An upper bound on [`HazardModel::recurrence_daily`] for `kind` at
    /// every number of days since a failure: 0 with recurrence off, the
    /// kind's peak when the peak is at least 0 and the decay constant is
    /// positive (the ranges the config audit admits), `None` otherwise.
    pub(crate) fn recurrence_bound(&self, kind: MachineKind) -> Option<f64> {
        if !self.recurrence_enabled {
            return Some(0.0);
        }
        let (peak, tau) = self.burst(kind);
        // `peak · e^(−d/τ)` with `τ > 0` and `d ≥ 1` multiplies the peak by
        // a factor in [0, 1], and rounding is monotone.
        (peak >= 0.0 && tau > 0.0).then_some(peak)
    }

    fn burst(&self, kind: MachineKind) -> (f64, f64) {
        match kind {
            MachineKind::Pm => self.pm_burst,
            MachineKind::Vm => self.vm_burst,
        }
    }

    /// Absolute additional daily failure probability of a machine of `kind`,
    /// `days_since_failure` days after its last failure.
    ///
    /// The recurrence process is *additive* rather than multiplicative: the
    /// paper's recurrent-failure probabilities are of the same order across
    /// subsystems whose random rates differ by ~7×, so the post-failure
    /// elevation cannot scale with the base rate (and a multiplicative burst
    /// would drive high-rate subsystems into failure cascades).
    pub fn recurrence_daily(&self, kind: MachineKind, days_since_failure: f64) -> f64 {
        if !self.recurrence_enabled || !(1.0..=BURST_HORIZON_DAYS).contains(&days_since_failure) {
            return 0.0;
        }
        let (peak, tau) = self.burst(kind);
        peak * (-days_since_failure / tau).exp()
    }
}

/// One machine's hazard terms: base rate, static multiplier, usage row, age
/// multiplier at observation start and its daily slope.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MachineHazard<'a> {
    base: f64,
    static_mult: f64,
    usage: &'a [f64],
    age0: f64,
    slope: f64,
}

impl MachineHazard<'_> {
    /// Daily failure probability on observation day `day` (without the
    /// recurrence burst). Days past the usage row take its last week.
    pub(crate) fn at(&self, day: usize) -> f64 {
        capped(self.week_factor(day), self.age(day))
    }

    /// The largest of [`MachineHazard::at`] over days `first..=last`, which
    /// lie in one week, when every one of those days is positive; `None`
    /// when the two ends do not show that, or when the week's factor or
    /// either end's age is not finite.
    ///
    /// Within a week `at` is `capped(c, age(day))` for one constant `c`.
    /// `age0 + slope·day` is monotone in the day under round-to-nearest, so
    /// when both ends' ages are finite, so is every age between them. With
    /// `c` finite too, `c · age` is never NaN, multiplying by the constant
    /// keeps the order (reverses it when `c < 0`), and `min(0.5)` keeps it.
    /// So `at` is monotone over the week whatever the signs: its larger end
    /// bounds every day, and both ends positive make every day positive.
    pub(crate) fn week_bound(&self, first: usize, last: usize) -> Option<f64> {
        debug_assert_eq!(first / 7, last / 7, "days {first} and {last}");
        let c = self.week_factor(first);
        let (a, b) = (self.age(first), self.age(last));
        if !(c.is_finite() && a.is_finite() && b.is_finite()) {
            return None;
        }
        let (ha, hb) = (capped(c, a), capped(c, b));
        (ha > 0.0 && hb > 0.0).then_some(ha.max(hb))
    }

    /// Base rate × static multiplier × the usage multiplier of `day`'s week.
    fn week_factor(&self, day: usize) -> f64 {
        let week = (day / 7).min(self.usage.len().saturating_sub(1));
        let usage = self.usage.get(week).copied().unwrap_or(1.0);
        self.base * self.static_mult * usage
    }

    fn age(&self, day: usize) -> f64 {
        self.age0 + self.slope * day as f64
    }
}

/// The hazard of a day from its week's factor and its age multiplier.
fn capped(week_factor: f64, age: f64) -> f64 {
    (week_factor * age).min(0.5)
}

/// Capacity multiplier from the Fig. 7 curves.
fn capacity_mult(m: &Machine) -> f64 {
    let cap = m.capacity();
    match m.kind() {
        MachineKind::Pm => {
            lookup(
                &curves::PM_CPU_COUNTS,
                &curves::PM_CPU_MULT,
                cap.cpus() as f64,
            ) * lookup(&curves::PM_MEM_GB, &curves::PM_MEM_MULT, cap.memory_gb())
        }
        MachineKind::Vm => {
            lookup(
                &curves::VM_CPU_COUNTS,
                &curves::VM_CPU_MULT,
                cap.cpus() as f64,
            ) * lookup(
                &curves::VM_MEM_MB,
                &curves::VM_MEM_MULT,
                cap.memory_mb() as f64,
            ) * lookup(
                &curves::VM_DISK_COUNTS,
                &curves::VM_DISK_COUNT_MULT,
                cap.disks() as f64,
            ) * lookup(
                &curves::VM_DISK_GB,
                &curves::VM_DISK_GB_MULT,
                cap.disk_gb() as f64,
            )
        }
    }
}

/// Usage multiplier for one week from the Fig. 8 curves.
fn usage_week_mult(kind: MachineKind, u: &WeeklyUsage) -> f64 {
    match kind {
        MachineKind::Pm => {
            curves::pm_cpu_util_mult(u.cpu_pct as f64) * curves::pm_mem_util_mult(u.mem_pct as f64)
        }
        MachineKind::Vm => {
            curves::vm_cpu_util_mult(u.cpu_pct as f64)
                * curves::vm_mem_util_mult(u.mem_pct as f64)
                * curves::vm_disk_util_mult(u.disk_pct as f64)
                * curves::vm_net_mult(u.net_kbps as f64)
        }
    }
}

/// Largest anchor ≤ `value` (clamped to the ends), returning its multiplier.
fn lookup<const N: usize, T: Copy + Into<u64>>(
    anchors: &[T; N],
    mults: &[f64; N],
    value: f64,
) -> f64 {
    let mut chosen = 0usize;
    for (i, &a) in anchors.iter().enumerate() {
        if a.into() as f64 <= value {
            chosen = i;
        } else {
            break;
        }
    }
    mults[chosen]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EffectToggles;
    use crate::{population, telemetry_gen};
    use dcfail_stats::rng::StreamRng;

    fn fleet(scale: f64, effects: EffectToggles) -> (ScenarioConfig, Population, Telemetry) {
        let mut config = ScenarioConfig::paper();
        config.scale = scale;
        config.effects = effects;
        let rng = StreamRng::new(3);
        let pop = population::build(&config, &rng);
        let telemetry = telemetry_gen::generate(&config, &pop, &rng);
        (config, pop, telemetry)
    }

    fn setup(effects: EffectToggles) -> (ScenarioConfig, Population, Telemetry, HazardModel) {
        let (config, pop, telemetry) = fleet(0.05, effects);
        let hazard = HazardModel::new(&config, &pop, &telemetry);
        (config, pop, telemetry, hazard)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn new_matches_the_serial_reference_bit_for_bit() {
        // One fleet smaller than a chunk, one spanning many chunks.
        for (scale, spans_many) in [(0.01, false), (0.15, true)] {
            let (config, pop, telemetry) = fleet(scale, EffectToggles::all());
            let n = pop.machines.len();
            assert_eq!(n > 8 * CHUNK_MACHINES, spans_many, "{n} machines");
            assert_eq!(n < CHUNK_MACHINES, !spans_many, "{n} machines");

            // The serial reference: one fold over the fleet, then one
            // `for_range` over all of it.
            let mut accum = NormAccum::identity();
            for m in &pop.machines {
                accum.accumulate(&config, m, &telemetry);
            }
            let reference =
                HazardModel::for_range(&config, &pop, &telemetry, 0..n, &accum.finalize());
            let ages = |h: &HazardModel| -> Vec<u64> {
                h.age_at_start
                    .iter()
                    .flat_map(|&(at_start, slope)| [at_start.to_bits(), slope.to_bits()])
                    .collect()
            };
            // The first and last horizon days, and one past the horizon,
            // where the week index clamps to the last week.
            let num_days = config.horizon.num_days();
            let days = [0, num_days - 1, num_days + 7];

            let previous = dcfail_par::thread_override();
            for threads in [1, 2, 3, 8] {
                dcfail_par::set_thread_override(Some(threads));
                let model = HazardModel::new(&config, &pop, &telemetry);
                let at = format!("{n} machines, {threads} threads");
                assert_eq!(model.offset, 0, "{at}");
                assert_eq!(
                    bits(&model.mult.statics),
                    bits(&reference.mult.statics),
                    "{at}"
                );
                assert_eq!(bits(&model.mult.usage), bits(&reference.mult.usage), "{at}");
                assert_eq!(bits(&model.base_daily), bits(&reference.base_daily), "{at}");
                assert_eq!(ages(&model), ages(&reference), "{at}");
                for idx in [0, n / 2, n - 1] {
                    for day in days {
                        assert_eq!(
                            model.machine(idx).at(day).to_bits(),
                            reference.machine(idx).at(day).to_bits(),
                            "machine {idx}, day {day}, {at}"
                        );
                    }
                }
            }
            dcfail_par::set_thread_override(previous);
        }
    }

    #[test]
    fn norm_accum_absorb_law() {
        let (config, pop, telemetry, _) = setup(EffectToggles::all());

        let mut whole = NormAccum::identity();
        for m in &pop.machines {
            whole.accumulate(&config, m, &telemetry);
        }

        // Accumulate the same machines in two halves and absorb in index
        // order: the ExactSums make the divisors bit-identical.
        let mid = pop.machines.len() / 2;
        let mut left = NormAccum::identity();
        for m in &pop.machines[..mid] {
            left.accumulate(&config, m, &telemetry);
        }
        let mut right = NormAccum::identity();
        for m in &pop.machines[mid..] {
            right.accumulate(&config, m, &telemetry);
        }
        let mut merged = NormAccum::identity();
        merged.absorb(&left);
        merged.absorb(&right);
        assert_eq!(merged.finalize(), whole.finalize());

        // Identity is neutral.
        let mut padded = left.clone();
        padded.absorb(&NormAccum::identity());
        assert_eq!(padded.finalize(), left.finalize());
    }

    #[test]
    fn population_mean_hazard_matches_base_rates() {
        let (config, pop, _, hazard) = setup(EffectToggles::all());
        for kind in MachineKind::ALL {
            let machines: Vec<_> = pop.machines.iter().filter(|m| m.kind() == kind).collect();
            // Mean weekly hazard across the population and the year.
            let mut sum = 0.0;
            let mut n = 0usize;
            for m in &machines {
                for day in [10usize, 100, 200, 300] {
                    sum += hazard.machine(m.id().index()).at(day) * 7.0;
                    n += 1;
                }
            }
            let mean_weekly = sum / n as f64;
            // Expected: base × population-weighted subsystem multiplier.
            let expected: f64 = machines
                .iter()
                .map(|m| {
                    let sys = &config.subsystems[m.subsystem().index()];
                    match kind {
                        MachineKind::Pm => config.pm_base_weekly * sys.pm_rate_mult,
                        MachineKind::Vm => config.vm_base_weekly * sys.vm_rate_mult,
                    }
                })
                .sum::<f64>()
                / machines.len() as f64;
            assert!(
                (mean_weekly - expected).abs() / expected < 0.25,
                "{kind}: mean weekly {mean_weekly} vs expected {expected}"
            );
        }
    }

    #[test]
    fn static_mult_is_normalized() {
        let (_, pop, _, hazard) = setup(EffectToggles::all());
        for kind in MachineKind::ALL {
            let vals: Vec<f64> = pop
                .machines
                .iter()
                .filter(|m| m.kind() == kind)
                .map(|m| hazard.mult.statics[m.id().index()])
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            assert!((mean - 1.0).abs() < 1e-9, "{kind}: mean {mean}");
            assert!(vals.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn disabled_effects_flatten_multipliers() {
        let (_, pop, _, hazard) = setup(EffectToggles::none());
        for m in &pop.machines {
            assert!((hazard.mult.statics[m.id().index()] - 1.0).abs() < 1e-9);
            let h = hazard.machine(m.id().index());
            let (h10, h300) = (h.at(10), h.at(300));
            assert!((h10 - h300).abs() < 1e-12, "hazard should be flat in time");
        }
    }

    /// Every bounded week's days are positive and at most its bound, which
    /// is one of its ends; only a week with an end not positive is left
    /// unbounded. VMs age, so many weeks peak on their last day.
    #[test]
    fn week_bound_bounds_every_day_of_its_week() {
        for effects in [EffectToggles::all(), EffectToggles::none()] {
            let (config, pop, _, hazard) = setup(effects);
            let num_days = config.horizon.num_days();
            let (mut bounded, mut rising) = (0, 0);
            for m in &pop.machines {
                let h = hazard.machine(m.id().index());
                for first in (0..num_days).step_by(7) {
                    let last = (first + 7).min(num_days) - 1;
                    let (a, b) = (h.at(first), h.at(last));
                    let Some(bound) = h.week_bound(first, last) else {
                        assert!(a <= 0.0 || b <= 0.0, "{} week of day {first}", m.id());
                        continue;
                    };
                    assert!(bound == a.max(b), "{} week of day {first}", m.id());
                    for day in first..=last {
                        let at = h.at(day);
                        assert!(at > 0.0 && at <= bound, "{} day {day}", m.id());
                    }
                    bounded += 1;
                    rising += usize::from(b > a);
                }
            }
            assert!(bounded > 0);
            assert_eq!(rising > 0, effects.age, "{rising} weeks peak last");
        }
    }

    #[test]
    fn recurrence_decays_and_respects_toggle() {
        let (_, _, _, hazard) = setup(EffectToggles::all());
        let r1 = hazard.recurrence_daily(MachineKind::Pm, 1.0);
        let r3 = hazard.recurrence_daily(MachineKind::Pm, 3.0);
        let r30 = hazard.recurrence_daily(MachineKind::Pm, 30.0);
        assert!(r1 > 0.03, "recurrence at t=1 is {r1}");
        assert!(r3 < r1 && r3 > 0.0);
        assert_eq!(r30, 0.0);
        // Same-day recurrence is not double-counted.
        assert_eq!(hazard.recurrence_daily(MachineKind::Pm, 0.0), 0.0);
        // The weekly recurrence integral lands near the paper's 0.22 (PM)
        // and 0.16 (VM), before the base hazard's own contribution.
        let weekly = |kind| -> f64 {
            (1..=7)
                .map(|d| hazard.recurrence_daily(kind, d as f64))
                .sum()
        };
        let pm = weekly(MachineKind::Pm);
        let vm = weekly(MachineKind::Vm);
        assert!((pm - 0.22).abs() < 0.05, "PM weekly recurrence {pm}");
        assert!((vm - 0.16).abs() < 0.05, "VM weekly recurrence {vm}");
        assert!(pm > vm);

        let (_, _, _, no_rec) = setup(EffectToggles::none());
        assert_eq!(no_rec.recurrence_daily(MachineKind::Pm, 1.0), 0.0);
    }

    #[test]
    fn capacity_effect_orders_pm_hazards() {
        let (_, pop, _, hazard) = setup(EffectToggles::all());
        // Among PMs, 24-CPU machines should carry more static risk than
        // 1-CPU machines on average.
        let mean_static = |pred: &dyn Fn(&Machine) -> bool| {
            let vals: Vec<f64> = pop
                .machines
                .iter()
                .filter(|m| m.is_pm() && pred(m))
                .map(|m| hazard.mult.statics[m.id().index()])
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        let small = mean_static(&|m| m.capacity().cpus() <= 2);
        let big = mean_static(&|m| m.capacity().cpus() >= 16 && m.capacity().cpus() <= 24);
        assert!(big > small, "big {big} vs small {small}");
    }

    #[test]
    fn consolidation_lowers_vm_hazard() {
        let (_, pop, telemetry, hazard) = setup(EffectToggles::all());
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for m in pop.machines.iter().filter(|m| m.is_vm()) {
            let level = telemetry.mean_consolidation(m.id()).unwrap();
            let s = hazard.mult.statics[m.id().index()];
            if level <= 2.0 {
                lo.push(s);
            } else if level >= 16.0 {
                hi.push(s);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(!lo.is_empty() && !hi.is_empty());
        assert!(mean(&lo) > mean(&hi), "lo {} hi {}", mean(&lo), mean(&hi));
    }

    #[test]
    fn sys2_vms_never_fail() {
        let (_, pop, _, hazard) = setup(EffectToggles::all());
        for m in &pop.machines {
            if m.is_vm() && m.subsystem().index() == 1 {
                assert_eq!(hazard.base_daily[m.id().index()], 0.0);
            }
        }
    }

    #[test]
    fn lookup_clamps_to_ends() {
        assert_eq!(lookup(&[1u32, 2, 4], &[0.1, 0.2, 0.4], 0.5), 0.1);
        assert_eq!(lookup(&[1u32, 2, 4], &[0.1, 0.2, 0.4], 3.0), 0.2);
        assert_eq!(lookup(&[1u32, 2, 4], &[0.1, 0.2, 0.4], 100.0), 0.4);
    }
}
