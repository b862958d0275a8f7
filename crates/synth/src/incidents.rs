//! Failure-incident simulation.
//!
//! Two layers produce the paper's failure structure:
//!
//! 1. **Correlated incident processes** (Tables VI, VII): power-domain
//!    outages striking co-located subsets (largest footprints, Sys V heavy,
//!    Sys III none), host-box crashes rebooting co-hosted VMs, distributed
//!    application faults taking down several cluster members, network
//!    incidents and the occasional shared-hardware fault.
//! 2. **Individual failures** driven by the per-machine hazard model, with
//!    the post-failure burst that makes recurrent failures ~35–42× more
//!    likely than random ones (Table V).
//!
//! The simulation runs in two stages. The correlated processes walk the
//! window one day at a time on a single stream, recording which days each
//! machine was struck. The individual layer then runs per machine on its
//! own forked stream (`fork_index("incidents.individual", machine)`),
//! replaying that machine's spatial hit-days to reconstruct the burst
//! state — so the per-machine walks are independent and execute in
//! parallel with bit-identical results for any thread count. Each walk
//! bounds a week's daily failure probability up front and computes it
//! only on the days whose draw falls under the bound.

use crate::config::ScenarioConfig;
use crate::hazard::{HazardModel, BURST_HORIZON_DAYS};
use crate::population::Population;
use dcfail_model::prelude::*;
use dcfail_stats::rng::StreamRng;
use serde::{Deserialize, Serialize};

/// One simulated failure incident (pre-ticketing).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentSpec {
    /// Ground-truth root cause.
    pub class: FailureClass,
    /// Instant the incident struck.
    pub at: SimTime,
    /// Affected machines (distinct).
    pub machines: Vec<MachineId>,
}

/// Daily power-outage probability per power domain (before the subsystem
/// multiplier); calibrated so power has the largest mean footprint while
/// staying a minor share of tickets.
const POWER_DOMAIN_DAILY: f64 = 0.0002;
/// Daily crash probability of a low-end host box.
const BOX_CRASH_DAILY_LOW: f64 = 0.00025;
/// Daily crash probability of a high-end (fault-tolerant) host box.
const BOX_CRASH_DAILY_HIGH: f64 = 0.00006;
/// Probability a hosted VM is taken down by its box crashing.
const BOX_CRASH_VM_HIT: f64 = 0.25;
/// Daily distributed-software fault probability per app cluster.
const CLUSTER_SW_DAILY: f64 = 0.0008;
/// Daily network-incident rate per 1000 machines of a subsystem.
const NET_PER_1K_DAILY: f64 = 0.014;
/// Daily shared-hardware-incident rate per 1000 machines of a subsystem.
const SHARED_HW_PER_1K_DAILY: f64 = 0.004;

/// Cap on a machine's daily individual-failure probability.
const DAILY_CAP: f64 = 0.9;

/// Individual-failure class weights for PMs:
/// (hardware, network, power, reboot, software).
const PM_CLASS_MIX: [f64; 5] = [0.23, 0.08, 0.015, 0.365, 0.31];
/// Individual-failure class weights for VMs. Reboots dominate (the paper:
/// ~35% of VM failures are unexpected reboots) and hardware is rare since a
/// VM has no direct hardware access.
const VM_CLASS_MIX: [f64; 5] = [0.05, 0.06, 0.01, 0.55, 0.33];

/// Simulates all incidents over the observation window.
pub fn simulate(
    config: &ScenarioConfig,
    pop: &Population,
    telemetry: &Telemetry,
    rng: &StreamRng,
) -> Vec<IncidentSpec> {
    let hazard = {
        let _s = dcfail_obs::span("hazard");
        HazardModel::new(config, pop, telemetry)
    };

    // Stage 1 — correlated incidents, one day at a time on one stream.
    let (mut out, spatial_hits) = {
        let _s = dcfail_obs::span("spatial");
        spatial_stage(config, pop, rng)
    };

    // Stage 2 — individual failures, one independent stream per machine.
    // A machine's burst state depends only on its own failures and the
    // spatial hits recorded above, so the walks never interact.
    {
        let _s = dcfail_obs::span("individual");
        out.extend(individual_incidents(
            config,
            &hazard,
            &pop.machines,
            &spatial_hits,
            rng,
        ));
    }

    out.sort_by_key(|i| (i.at, i.machines[0]));
    out
}

/// Runs the correlated (spatial) incident stage for the whole fleet.
///
/// Returns the spatial incident specs plus, for each machine (by global
/// index), the ascending list of days it was struck — the burst-replay
/// input [`individual_incidents`] needs. The stage walks a single
/// sequential stream (`fork("incidents.spatial")`) and reads no telemetry,
/// so a shard coordinator runs it once, globally, before fanning out.
///
/// Honors `config.effects.spatial`: when disabled the outputs are empty.
pub fn spatial_stage(
    config: &ScenarioConfig,
    pop: &Population,
    rng: &StreamRng,
) -> (Vec<IncidentSpec>, Vec<Vec<i64>>) {
    let num_days = config.horizon.num_days() as i64;
    let mut rng_spatial = rng.fork("incidents.spatial");

    // VMs of subsystems with a zero VM rate (Sys II in the paper: 52 VMs,
    // zero crash tickets all year) are exempt from every failure process.
    let immune: Vec<bool> = pop
        .machines
        .iter()
        .map(|m| m.is_vm() && config.subsystems[m.subsystem().index()].vm_rate_mult == 0.0)
        .collect();
    let power_domains: Vec<PowerDomainId> = pop.topology.power_domain_ids().collect();
    let app_clusters: Vec<ClusterId> = pop.topology.app_cluster_ids().collect();
    // Per-subsystem machine lists for network / shared-hardware incidents.
    let num_sys = pop.topology.subsystems().len();
    let mut sys_members: Vec<Vec<MachineId>> = vec![Vec::new(); num_sys];
    for m in &pop.machines {
        sys_members[m.subsystem().index()].push(m.id());
    }

    // Records per-machine hit-days (ascending) for the burst replay.
    let mut out = Vec::new();
    let mut spatial_hits: Vec<Vec<i64>> = vec![Vec::new(); pop.machines.len()];
    if config.effects.spatial {
        for day in 0..num_days {
            spatial_incidents(
                config,
                pop,
                &power_domains,
                &app_clusters,
                &sys_members,
                day,
                &mut rng_spatial,
                &mut spatial_hits,
                &mut out,
                &immune,
            );
        }
    }
    (out, spatial_hits)
}

#[allow(clippy::too_many_arguments)]
fn spatial_incidents(
    config: &ScenarioConfig,
    pop: &Population,
    power_domains: &[PowerDomainId],
    app_clusters: &[ClusterId],
    sys_members: &[Vec<MachineId>],
    day: i64,
    rng: &mut StreamRng,
    spatial_hits: &mut [Vec<i64>],
    out: &mut Vec<IncidentSpec>,
    immune: &[bool],
) {
    let keep = |affected: Vec<MachineId>| -> Vec<MachineId> {
        affected
            .into_iter()
            .filter(|m| !immune[m.index()])
            .collect()
    };
    // Power-domain outages: the paper's largest footprints (mean 2.7,
    // max ~21), local in scale, absent from Sys III, dominant in Sys V.
    for &pd in power_domains {
        let members = pop.topology.power_domain_members(pd);
        if members.is_empty() {
            continue;
        }
        let sys = pop.machines[members[0].index()].subsystem();
        let p = POWER_DOMAIN_DAILY * config.subsystems[sys.index()].power_mult;
        if p > 0.0 && rng.bernoulli(p) {
            let size = (1 + geometric_extra(rng, 2.2)).min(members.len()).min(21);
            let affected = pick_distinct(rng, members, size);
            let affected = keep(affected);
            if !affected.is_empty() {
                record(out, spatial_hits, FailureClass::Power, day, affected, rng);
            }
        }
    }

    // Host-box crashes: unexpected reboots of several co-hosted VMs.
    for hbox in pop.topology.boxes() {
        let p = if hbox.is_high_end() {
            BOX_CRASH_DAILY_HIGH
        } else {
            BOX_CRASH_DAILY_LOW
        };
        if rng.bernoulli(p) {
            let mut affected: Vec<MachineId> = hbox
                .vms()
                .iter()
                .copied()
                .filter(|_| rng.bernoulli(BOX_CRASH_VM_HIT))
                .collect();
            if affected.is_empty() {
                affected.push(hbox.vms()[rng.below(hbox.vms().len())]);
            }
            affected.truncate(15);
            let affected = keep(affected);
            if !affected.is_empty() {
                record(out, spatial_hits, FailureClass::Reboot, day, affected, rng);
            }
        }
    }

    // Distributed-application software faults: 3-tier apps spanning servers.
    for &cluster in app_clusters {
        if rng.bernoulli(CLUSTER_SW_DAILY) {
            let members = pop.topology.app_cluster_members(cluster);
            let size = (1 + geometric_extra(rng, 1.0)).min(members.len()).min(10);
            let affected = pick_distinct(rng, members, size);
            let affected = keep(affected);
            if !affected.is_empty() {
                record(
                    out,
                    spatial_hits,
                    FailureClass::Software,
                    day,
                    affected,
                    rng,
                );
            }
        }
    }

    // Network incidents and shared-hardware faults per subsystem.
    for (sys_idx, members) in sys_members.iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let hw_net = config.subsystems[sys_idx].hw_net_mult;
        let per_1k = members.len() as f64 / 1000.0;
        if rng.bernoulli(NET_PER_1K_DAILY * per_1k * hw_net) {
            let size = (1 + geometric_extra(rng, 0.8)).min(members.len()).min(9);
            let affected = pick_distinct(rng, members, size);
            let affected = keep(affected);
            if !affected.is_empty() {
                record(out, spatial_hits, FailureClass::Network, day, affected, rng);
            }
        }
        if rng.bernoulli(SHARED_HW_PER_1K_DAILY * per_1k * hw_net) {
            let size = (1 + geometric_extra(rng, 0.5)).min(members.len()).min(10);
            let affected = pick_distinct(rng, members, size);
            let affected = keep(affected);
            if !affected.is_empty() {
                record(
                    out,
                    spatial_hits,
                    FailureClass::Hardware,
                    day,
                    affected,
                    rng,
                );
            }
        }
    }
}

/// The exact work of the individual-failure walk.
#[derive(Debug, Clone, Copy, Default)]
struct WalkWork {
    /// Bernoulli uniforms drawn: one per machine-day with a positive hazard.
    draws: u64,
    /// Exact [`MachineHazard::at`](crate::hazard::MachineHazard::at)
    /// evaluations: week bounds, candidate days and per-day-path days.
    hazard_evals: u64,
}

/// Walks the individual failures of `machines`, in parallel, and returns
/// their specs in machine order. Adds the walk's exact work counters
/// `synth.individual.draws` and `synth.individual.hazard_evals` once.
///
/// Each machine walks on its own stream forked from its *global* index and
/// reads `spatial_hits` (as [`spatial_stage`] returns it) at that index, and
/// `hazard` may be a per-range model ([`HazardModel::for_range`]) covering
/// `machines` — the output is bit-identical whether the fleet is walked
/// whole or shard by shard.
pub fn individual_incidents(
    config: &ScenarioConfig,
    hazard: &HazardModel,
    machines: &[Machine],
    spatial_hits: &[Vec<i64>],
    rng: &StreamRng,
) -> Vec<IncidentSpec> {
    let num_days = config.horizon.num_days();
    let walks = dcfail_par::par_map(machines, |_, m| {
        let idx = m.id().index();
        let mut stream = rng.fork_index("incidents.individual", idx as u64);
        walk_machine(config, hazard, m, &spatial_hits[idx], num_days, &mut stream)
    });
    let mut work = WalkWork::default();
    let mut out = Vec::new();
    for (specs, w) in walks {
        work.draws += w.draws;
        work.hazard_evals += w.hazard_evals;
        out.extend(specs);
    }
    dcfail_obs::add("synth.individual.draws", work.draws);
    dcfail_obs::add("synth.individual.hazard_evals", work.hazard_evals);
    out
}

/// Walks one machine's days on its own stream `rng`, merging the spatial
/// hit-days (ascending) into the burst state: a spatial hit on day `d` is
/// visible to the individual check of day `d` and later.
///
/// Each day with a positive hazard `h` draws one uniform `u` and fails when
/// `u < p`, `p = (h + recur).min(0.9)` — `StreamRng::bernoulli(p)` spelled
/// out — where `recur` is the burst after the last failure. Computing `p`
/// is what costs, so the walk bounds it per week and computes it only when
/// `u` falls under the bound:
///
/// * [`MachineHazard::week_bound`](crate::hazard::MachineHazard::week_bound)
///   gives `h_max ≥ h` for every day of the week from the week's two end
///   days (the hazard is monotone within a week), and shows every day's
///   `h` positive, so every day draws, as the per-day walk does.
/// * [`HazardModel::recurrence_bound`] gives `peak ≥ recur` on every day.
///   Outside the burst window (no failure in the last 28 days) `recur` is
///   0. Rounded `+` and `min` are monotone, so `p ≤ q0 = min(h_max, 0.9)`
///   outside the window and `p ≤ q1 = min(h_max + peak, 0.9)` inside it.
/// * `u ≥ q` therefore means `u < p` is false: the day made the same one
///   draw and did not fail. Below the bound the day computes `p` exactly.
///
/// So the walk makes the draws, and takes the failures, of the per-day
/// walk it replaced. A week the bound does not cover — an end day not
/// positive, a non-finite term, burst parameters outside the audited
/// range — takes that per-day path.
fn walk_machine(
    config: &ScenarioConfig,
    hazard: &HazardModel,
    m: &Machine,
    spatial_days: &[i64],
    num_days: usize,
    rng: &mut StreamRng,
) -> (Vec<IncidentSpec>, WalkWork) {
    let h = hazard.machine(m.id().index());
    let peak = hazard.recurrence_bound(m.kind());
    let mut work = WalkWork::default();
    let mut out = Vec::new();
    let mut last_fail_day: Option<i64> = None;
    let mut next_spatial = 0usize;
    for first in (0..num_days).step_by(7) {
        let last = (first + 7).min(num_days) - 1;
        let bounds = match peak {
            Some(peak) => {
                work.hazard_evals += 2;
                h.week_bound(first, last)
                    .map(|h_max| (h_max.min(DAILY_CAP), (h_max + peak).min(DAILY_CAP)))
            }
            None => None,
        };
        for day in first..=last {
            let day = day as i64;
            while next_spatial < spatial_days.len() && spatial_days[next_spatial] <= day {
                last_fail_day = Some(spatial_days[next_spatial]);
                next_spatial += 1;
            }
            let fails = if let Some((q0, q1)) = bounds {
                let in_burst =
                    last_fail_day.is_some_and(|last| (day - last) as f64 <= BURST_HORIZON_DAYS);
                let q = if in_burst { q1 } else { q0 };
                work.draws += 1;
                let u = rng.uniform();
                if u >= q {
                    continue;
                }
                work.hazard_evals += 1;
                let base = h.at(day as usize);
                let p = day_probability(hazard, m.kind(), base, last_fail_day, day);
                debug_assert!(base > 0.0 && p <= q, "day {day}: h {base}, p {p} > q {q}");
                u < p.clamp(0.0, 1.0)
            } else {
                work.hazard_evals += 1;
                let base = h.at(day as usize);
                if base <= 0.0 {
                    continue;
                }
                work.draws += 1;
                rng.bernoulli(day_probability(hazard, m.kind(), base, last_fail_day, day))
            };
            if fails {
                let class = sample_class(config, m, rng);
                let minute = rng.below(24 * 60) as i64;
                out.push(IncidentSpec {
                    class,
                    at: SimTime::from_days(day) + SimDuration::from_minutes(minute),
                    machines: vec![m.id()],
                });
                last_fail_day = Some(day);
            }
        }
    }
    (out, work)
}

/// A day's failure probability from its hazard `base` and the burst after
/// the last failure, if any.
fn day_probability(
    hazard: &HazardModel,
    kind: MachineKind,
    base: f64,
    last_fail_day: Option<i64>,
    day: i64,
) -> f64 {
    let recur = match last_fail_day {
        Some(last) => hazard.recurrence_daily(kind, (day - last) as f64),
        None => 0.0,
    };
    (base + recur).min(DAILY_CAP)
}

/// Draws the root cause of an individual failure from the per-kind mix,
/// modulated by the subsystem's hardware/network and power skews.
fn sample_class(config: &ScenarioConfig, m: &Machine, rng: &mut StreamRng) -> FailureClass {
    let sys = &config.subsystems[m.subsystem().index()];
    let mix = match m.kind() {
        MachineKind::Pm => PM_CLASS_MIX,
        MachineKind::Vm => VM_CLASS_MIX,
    };
    let weights = [
        mix[0] * sys.hw_net_mult,
        mix[1] * sys.hw_net_mult,
        mix[2] * sys.power_mult.min(1.5),
        mix[3],
        mix[4],
    ];
    match rng.weighted(&weights) {
        0 => FailureClass::Hardware,
        1 => FailureClass::Network,
        2 => FailureClass::Power,
        3 => FailureClass::Reboot,
        _ => FailureClass::Software,
    }
}

fn record(
    out: &mut Vec<IncidentSpec>,
    spatial_hits: &mut [Vec<i64>],
    class: FailureClass,
    day: i64,
    machines: Vec<MachineId>,
    rng: &mut StreamRng,
) {
    debug_assert!(!machines.is_empty());
    for m in &machines {
        spatial_hits[m.index()].push(day);
    }
    let minute = rng.below(24 * 60) as i64;
    out.push(IncidentSpec {
        class,
        at: SimTime::from_days(day) + SimDuration::from_minutes(minute),
        machines,
    });
}

/// Geometric "extra members" draw with the given mean.
fn geometric_extra(rng: &mut StreamRng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let q = 1.0 / (1.0 + mean); // success prob; mean extras = (1-q)/q
    let u = rng.uniform().max(f64::MIN_POSITIVE);
    (u.ln() / (1.0 - q).ln()).floor() as usize
}

/// Samples `k` distinct machines from `members`.
fn pick_distinct(rng: &mut StreamRng, members: &[MachineId], k: usize) -> Vec<MachineId> {
    rng.sample_indexes(members.len(), k.min(members.len()))
        .into_iter()
        .map(|i| members[i])
        .collect()
}

/// The per-day walk the bounded walk replaced, kept as the oracle it is
/// held to: every day with a positive hazard computes its probability and
/// draws one Bernoulli.
#[cfg(test)]
mod oracle {
    use super::*;

    /// What one machine's per-day walk produced.
    pub(super) struct OracleWalk {
        pub(super) specs: Vec<IncidentSpec>,
        /// Bernoulli draws made.
        pub(super) draws: u64,
        /// Draws whose probability the 0.9 cap cut.
        pub(super) capped: u64,
    }

    pub(super) fn walk(
        config: &ScenarioConfig,
        hazard: &HazardModel,
        m: &Machine,
        spatial_days: &[i64],
        num_days: i64,
        rng: &mut StreamRng,
    ) -> OracleWalk {
        let idx = m.id().index();
        let mut out = Vec::new();
        let (mut draws, mut capped) = (0, 0);
        let mut last_fail_day: Option<i64> = None;
        let mut next_spatial = 0usize;
        for day in 0..num_days {
            while next_spatial < spatial_days.len() && spatial_days[next_spatial] <= day {
                last_fail_day = Some(spatial_days[next_spatial]);
                next_spatial += 1;
            }
            let base = hazard.machine(idx).at(day as usize);
            if base <= 0.0 {
                continue;
            }
            let recur = match last_fail_day {
                Some(last) => hazard.recurrence_daily(m.kind(), (day - last) as f64),
                None => 0.0,
            };
            let p = (base + recur).min(0.9);
            draws += 1;
            capped += u64::from(p != base + recur);
            if rng.bernoulli(p) {
                let class = sample_class(config, m, rng);
                let minute = rng.below(24 * 60) as i64;
                out.push(IncidentSpec {
                    class,
                    at: SimTime::from_days(day) + SimDuration::from_minutes(minute),
                    machines: vec![m.id()],
                });
                last_fail_day = Some(day);
            }
        }
        OracleWalk {
            specs: out,
            draws,
            capped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EffectToggles;
    use crate::hazard::NormAccum;
    use crate::{population, telemetry_gen};
    use dcfail_stats::merge::Mergeable;
    use proptest::prelude::*;
    use rand::RngCore;
    use std::collections::HashMap;

    /// What holding the bounded walk to the oracle over some machines saw.
    #[derive(Debug, Default)]
    struct Seen {
        draws: u64,
        hazard_evals: u64,
        /// Machines that drew nothing (a zero hazard all year).
        silent: usize,
        /// Failures on the last day of a week.
        last_day_failures: usize,
        /// Spatial hits on the first day of a week.
        first_day_hits: usize,
        /// Oracle draws whose probability the 0.9 cap cut.
        capped: u64,
    }

    /// Walks `machines` both ways, each machine on a clone of its stream,
    /// and asserts the same specs, the same draw count and the streams left
    /// at the same position; `individual_incidents` must return the same
    /// specs too.
    fn hold_to_oracle(
        config: &ScenarioConfig,
        hazard: &HazardModel,
        machines: &[Machine],
        hits: &[Vec<i64>],
        rng: &StreamRng,
    ) -> Seen {
        let num_days = config.horizon.num_days();
        let mut seen = Seen::default();
        let mut all = Vec::new();
        for m in machines {
            let idx = m.id().index();
            let mut fast = rng.fork_index("incidents.individual", idx as u64);
            let mut slow = fast.clone();
            let (specs, work) = walk_machine(config, hazard, m, &hits[idx], num_days, &mut fast);
            let run = oracle::walk(config, hazard, m, &hits[idx], num_days as i64, &mut slow);
            assert_eq!(specs, run.specs, "machine {idx}");
            assert_eq!(work.draws, run.draws, "machine {idx}: draws");
            assert_eq!(fast.next_u64(), slow.next_u64(), "machine {idx}: stream");
            seen.draws += work.draws;
            seen.hazard_evals += work.hazard_evals;
            seen.silent += usize::from(work.draws == 0);
            seen.capped += run.capped;
            seen.last_day_failures += specs
                .iter()
                .filter(|s| s.at.as_minutes() / (24 * 60) % 7 == 6)
                .count();
            seen.first_day_hits += hits[idx].iter().filter(|&&d| d % 7 == 0).count();
            all.extend(specs);
        }
        assert_eq!(
            individual_incidents(config, hazard, machines, hits, rng),
            all,
            "individual_incidents"
        );
        seen
    }

    /// A fleet at `config`'s scale and seed `seed`.
    fn fleet(config: &ScenarioConfig, seed: u64) -> (Population, Telemetry, StreamRng) {
        let rng = StreamRng::new(seed);
        let pop = population::build(config, &rng);
        let telemetry = telemetry_gen::generate(config, &pop, &rng);
        (pop, telemetry, rng)
    }

    /// Ascending hit days, a hit on each day with probability `density`;
    /// every seventh list also hits day 0 and the first day of its week 1.
    fn dense_hits(machines: usize, num_days: usize, density: f64, seed: u64) -> Vec<Vec<i64>> {
        let mut rng = StreamRng::new(seed);
        (0..machines)
            .map(|i| {
                let mut days: Vec<i64> = (0..num_days as i64)
                    .filter(|_| rng.bernoulli(density))
                    .collect();
                if i % 7 == 0 {
                    days.extend([0, 7]);
                    days.sort_unstable();
                }
                days
            })
            .collect()
    }

    /// Holds the walk to the oracle over the whole fleet and over a
    /// `for_range` slice with a nonzero offset.
    fn hold_fleet(config: &ScenarioConfig, seed: u64, density: Option<f64>) -> Seen {
        let (pop, telemetry, rng) = fleet(config, seed);
        let n = pop.machines.len();
        let hits = match density {
            Some(density) => dense_hits(n, config.horizon.num_days(), density, seed),
            None => spatial_stage(config, &pop, &rng).1,
        };
        let hazard = HazardModel::new(config, &pop, &telemetry);
        let seen = hold_to_oracle(config, &hazard, &pop.machines, &hits, &rng);

        let mut accum = NormAccum::identity();
        for m in &pop.machines {
            accum.accumulate(config, m, &telemetry);
        }
        let range = n / 3..n;
        let slice =
            HazardModel::for_range(config, &pop, &telemetry, range.clone(), &accum.finalize());
        hold_to_oracle(config, &slice, &pop.machines[range], &hits, &rng);
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The bounded walk makes the per-day walk's draws and failures and
        /// leaves each stream where the per-day walk leaves it, across
        /// seeds, scales, each effect switched off, zero and high base
        /// rates, extreme burst parameters the audit still admits, burst
        /// parameters and rates it does not, and dense spatial hits.
        fn bounded_walk_matches_per_day_oracle(
            seed in any::<u64>(),
            scale in 0.002f64..0.012,
            variant in 0usize..10,
            peak in 0.9f64..1.0,
            log_tau in -2.0f64..3.0,
            dense in 0usize..3,
        ) {
            let mut config = ScenarioConfig::paper();
            config.scale = scale;
            match variant {
                0 => {}
                1 => config.effects.recurrence = false,
                2 => config.effects.usage = false,
                3 => config.effects.age = false,
                4 => config.effects.spatial = false,
                5 => {
                    config.pm_recur_daily = peak;
                    config.vm_recur_daily = peak;
                    config.burst_tau_days = 10f64.powf(log_tau);
                }
                6 => {
                    config.pm_base_weekly = 0.95;
                    config.vm_base_weekly = 0.95;
                }
                7 => config.pm_base_weekly = 0.0,
                8 => {
                    config.pm_recur_daily = -peak;
                    config.burst_tau_days = [0.0, -1.0, f64::NAN][dense];
                }
                _ => config.vm_base_weekly = [f64::NAN, f64::INFINITY, 0.95][dense],
            }
            let density = (dense > 0 && config.effects.spatial).then(|| [0.0, 0.05, 0.3][dense]);
            hold_fleet(&config, seed, density);
        }
    }

    /// The cases the bound's argument turns on each occur, and the walk
    /// still meets the oracle: a failure on a week's last day (the next
    /// week starts in a burst), a spatial hit on a week's first day, the
    /// 0.9 cap cutting the probability, and machines with a zero hazard,
    /// which draw nothing.
    #[test]
    fn bound_edge_cases_occur_and_match_the_oracle() {
        let mut config = ScenarioConfig::paper();
        config.scale = 0.01;
        config.pm_base_weekly = 0.95;
        config.vm_base_weekly = 0.95;
        config.pm_recur_daily = 1.0;
        config.vm_recur_daily = 0.99;
        config.burst_tau_days = 40.0;
        assert!(crate::config_audit::audit_config(&config).is_clean());
        let seen = hold_fleet(&config, 21, Some(0.05));
        assert!(seen.last_day_failures > 0, "{seen:?}");
        assert!(seen.first_day_hits > 0, "{seen:?}");
        assert!(seen.capped > 0, "{seen:?}");

        // Sys II VMs have a zero base rate: every week takes the per-day
        // path, finds nothing positive and draws nothing.
        let config = ScenarioConfig {
            scale: 0.05,
            ..ScenarioConfig::paper()
        };
        let seen = hold_fleet(&config, 22, None);
        assert!(seen.silent > 0, "{seen:?}");
        assert!(seen.hazard_evals * 3 < seen.draws, "{seen:?}");
    }

    fn run(
        scale: f64,
        effects: EffectToggles,
        seed: u64,
    ) -> (ScenarioConfig, Population, Vec<IncidentSpec>) {
        let mut config = ScenarioConfig::paper();
        config.scale = scale;
        config.effects = effects;
        let rng = StreamRng::new(seed);
        let pop = population::build(&config, &rng);
        let telemetry = telemetry_gen::generate(&config, &pop, &rng);
        let incidents = simulate(&config, &pop, &telemetry, &rng);
        (config, pop, incidents)
    }

    #[test]
    fn incidents_are_sorted_and_well_formed() {
        let (config, pop, incidents) = run(0.05, EffectToggles::all(), 1);
        assert!(!incidents.is_empty());
        for pair in incidents.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        for inc in &incidents {
            assert!(config.horizon.contains(inc.at));
            assert!(!inc.machines.is_empty());
            // Distinct machines within an incident.
            let mut ms = inc.machines.clone();
            ms.sort_unstable();
            ms.dedup();
            assert_eq!(ms.len(), inc.machines.len());
            // All ids valid.
            assert!(ms.iter().all(|m| m.index() < pop.machines.len()));
        }
    }

    #[test]
    fn aggregate_rates_have_paper_shape() {
        let (config, pop, incidents) = run(0.3, EffectToggles::all(), 2);
        let mut events: HashMap<MachineKind, usize> = HashMap::new();
        for inc in &incidents {
            for m in &inc.machines {
                *events.entry(pop.machines[m.index()].kind()).or_insert(0) += 1;
            }
        }
        let weeks = config.horizon.num_weeks() as f64;
        let pms = pop.machines.iter().filter(|m| m.is_pm()).count() as f64;
        let vms = pop.machines.iter().filter(|m| m.is_vm()).count() as f64;
        let pm_rate = events[&MachineKind::Pm] as f64 / pms / weeks;
        let vm_rate = events[&MachineKind::Vm] as f64 / vms / weeks;
        // Paper: PM ≈ 0.005/week, VM ≈ 0.003/week, PM ≈ 1.4× VM.
        assert!(pm_rate > 0.0035 && pm_rate < 0.0075, "pm rate {pm_rate}");
        assert!(vm_rate > 0.0018 && vm_rate < 0.0050, "vm rate {vm_rate}");
        assert!(pm_rate > vm_rate, "pm {pm_rate} vs vm {vm_rate}");
    }

    #[test]
    fn spatial_structure_matches_tables_6_and_7() {
        let (_, _, incidents) = run(0.3, EffectToggles::all(), 3);
        let multi = incidents.iter().filter(|i| i.machines.len() >= 2).count();
        let share = multi as f64 / incidents.len() as f64;
        // Paper: 22% of incidents involve ≥ 2 servers.
        assert!(share > 0.05 && share < 0.40, "multi-machine share {share}");
        // Power incidents have the largest mean footprint.
        let mean_size = |class: FailureClass| {
            let sizes: Vec<f64> = incidents
                .iter()
                .filter(|i| i.class == class)
                .map(|i| i.machines.len() as f64)
                .collect();
            sizes.iter().sum::<f64>() / sizes.len().max(1) as f64
        };
        let power = mean_size(FailureClass::Power);
        assert!(power > mean_size(FailureClass::Hardware));
        assert!(power > mean_size(FailureClass::Reboot));
        assert!(power > 1.5, "power mean footprint {power}");
    }

    #[test]
    fn no_spatial_toggle_gives_singletons_only() {
        let (_, _, incidents) = run(
            0.1,
            {
                let mut e = EffectToggles::all();
                e.spatial = false;
                e
            },
            4,
        );
        assert!(incidents.iter().all(|i| i.machines.len() == 1));
    }

    #[test]
    fn recurrence_concentrates_failures() {
        let count_repeaters = |incidents: &[IncidentSpec]| {
            let mut per_machine: HashMap<MachineId, usize> = HashMap::new();
            for inc in incidents {
                for &m in &inc.machines {
                    *per_machine.entry(m).or_insert(0) += 1;
                }
            }
            let repeat = per_machine.values().filter(|&&c| c >= 2).count();
            (
                repeat as f64 / per_machine.len().max(1) as f64,
                per_machine.len(),
            )
        };
        let (_, _, with_burst) = run(0.3, EffectToggles::all(), 5);
        let mut no_rec = EffectToggles::all();
        no_rec.recurrence = false;
        let (_, _, without_burst) = run(0.3, no_rec, 5);
        let (with_frac, _) = count_repeaters(&with_burst);
        let (without_frac, _) = count_repeaters(&without_burst);
        assert!(
            with_frac > 1.5 * without_frac,
            "repeat share with burst {with_frac} vs without {without_frac}"
        );
    }

    #[test]
    fn sys3_has_no_power_and_sys5_is_power_heavy() {
        let (_, pop, incidents) = run(0.5, EffectToggles::all(), 6);
        let mut power_by_sys = [0usize; 5];
        for inc in incidents.iter().filter(|i| i.class == FailureClass::Power) {
            let sys = pop.machines[inc.machines[0].index()].subsystem().index();
            power_by_sys[sys] += 1;
        }
        assert_eq!(power_by_sys[2], 0, "Sys III saw power incidents");
        let max_other = power_by_sys[..4].iter().max().copied().unwrap_or(0);
        assert!(
            power_by_sys[4] > max_other,
            "Sys V should dominate power: {power_by_sys:?}"
        );
    }

    #[test]
    fn vm_failures_are_mostly_reboot_and_software() {
        let (_, pop, incidents) = run(0.3, EffectToggles::all(), 7);
        let mut vm_class = [0usize; 6];
        let mut vm_total = 0usize;
        for inc in &incidents {
            for m in &inc.machines {
                if pop.machines[m.index()].is_vm() {
                    vm_class[inc.class.index()] += 1;
                    vm_total += 1;
                }
            }
        }
        let reboot_share = vm_class[FailureClass::Reboot.index()] as f64 / vm_total as f64;
        // Paper: roughly 35% of VM failures are unexpected reboots.
        assert!(
            reboot_share > 0.25 && reboot_share < 0.55,
            "VM reboot share {reboot_share}"
        );
    }

    #[test]
    fn geometric_extra_mean() {
        let mut rng = StreamRng::new(8);
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| geometric_extra(&mut rng, 1.7) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.7).abs() < 0.1, "mean {mean}");
        assert_eq!(geometric_extra(&mut rng, 0.0), 0);
    }

    /// Prints calibration diagnostics; run with
    /// `cargo test -p dcfail-synth calibration_report -- --ignored --nocapture`.
    #[test]
    #[ignore = "diagnostic output only"]
    fn calibration_report() {
        let (config, pop, incidents) = run(1.0, EffectToggles::all(), 42);
        let weeks = config.horizon.num_weeks() as f64;
        let pms = pop.machines.iter().filter(|m| m.is_pm()).count() as f64;
        let vms = pop.machines.iter().filter(|m| m.is_vm()).count() as f64;
        let mut pm_events = 0usize;
        let mut vm_events = 0usize;
        let mut class_counts = [0usize; 6];
        for inc in &incidents {
            for m in &inc.machines {
                class_counts[inc.class.index()] += 1;
                if pop.machines[m.index()].is_pm() {
                    pm_events += 1;
                } else {
                    vm_events += 1;
                }
            }
        }
        let multi = incidents.iter().filter(|i| i.machines.len() >= 2).count();
        println!(
            "incidents={} events={} multi_share={:.3}",
            incidents.len(),
            pm_events + vm_events,
            multi as f64 / incidents.len() as f64
        );
        println!(
            "pm_rate={:.5} vm_rate={:.5}",
            pm_events as f64 / pms / weeks,
            vm_events as f64 / vms / weeks
        );
        let total = (pm_events + vm_events) as f64;
        for class in FailureClass::ALL {
            println!(
                "{:8} {:5} ({:.3})",
                class.label(),
                class_counts[class.index()],
                class_counts[class.index()] as f64 / total
            );
        }
        let mean_size = |class: FailureClass| {
            let sizes: Vec<f64> = incidents
                .iter()
                .filter(|i| i.class == class)
                .map(|i| i.machines.len() as f64)
                .collect();
            (
                sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
                sizes.iter().fold(0.0f64, |a, &b| a.max(b)),
            )
        };
        for class in FailureClass::CLASSIFIED {
            let (mean, max) = mean_size(class);
            println!("size {:8} mean={:.2} max={}", class.label(), mean, max);
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let (_, _, a) = run(0.05, EffectToggles::all(), 9);
        let (_, _, b) = run(0.05, EffectToggles::all(), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_simulation() {
        dcfail_par::set_thread_override(Some(1));
        let (_, _, seq) = run(0.05, EffectToggles::all(), 10);
        dcfail_par::set_thread_override(Some(8));
        let (_, _, par) = run(0.05, EffectToggles::all(), 10);
        dcfail_par::set_thread_override(None);
        assert_eq!(seq, par);
    }
}
