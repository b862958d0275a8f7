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
//! parallel with bit-identical results for any thread count.

use crate::config::ScenarioConfig;
use crate::hazard::HazardModel;
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
    let num_days = config.horizon.num_days() as i64;

    // Stage 1 — correlated incidents, one day at a time on one stream.
    let (mut out, spatial_hits) = {
        let _s = dcfail_obs::span("spatial");
        spatial_stage(config, pop, rng)
    };

    // Stage 2 — individual failures, one independent stream per machine.
    // A machine's burst state depends only on its own failures and the
    // spatial hits recorded above, so the walks never interact.
    let individual_span = dcfail_obs::span("individual");
    // dlint::allow(D05): StreamRng is immutable; individual_incidents_for forks per machine id
    let per_machine = dcfail_par::par_map(&pop.machines, |idx, m| {
        individual_incidents_for(config, &hazard, m, &spatial_hits[idx], num_days, rng)
    });
    out.extend(per_machine.into_iter().flatten());
    drop(individual_span);

    out.sort_by_key(|i| (i.at, i.machines[0]));
    out
}

/// Runs the correlated (spatial) incident stage for the whole fleet.
///
/// Returns the spatial incident specs plus, for each machine (by global
/// index), the ascending list of days it was struck — the burst-replay
/// input [`individual_incidents_for`] needs. The stage walks a single
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

/// Walks one machine's days on its own forked stream, merging the spatial
/// hit-days (ascending) into the burst state exactly as the day-by-day
/// interleaving did: a spatial hit on day `d` is visible to the individual
/// check of day `d` and later.
///
/// The stream is forked from the machine's *global* index, and `hazard`
/// may be a per-range model ([`HazardModel::for_range`]) — the output is
/// bit-identical whether the fleet is simulated whole or shard-by-shard.
pub fn individual_incidents_for(
    config: &ScenarioConfig,
    hazard: &HazardModel,
    m: &Machine,
    spatial_days: &[i64],
    num_days: i64,
    rng: &StreamRng,
) -> Vec<IncidentSpec> {
    let idx = m.id().index();
    let mut rng = rng.fork_index("incidents.individual", idx as u64);
    let mut out = Vec::new();
    let mut last_fail_day: Option<i64> = None;
    let mut next_spatial = 0usize;
    for day in 0..num_days {
        while next_spatial < spatial_days.len() && spatial_days[next_spatial] <= day {
            last_fail_day = Some(spatial_days[next_spatial]);
            next_spatial += 1;
        }
        let base = hazard.daily_hazard(idx, day as usize);
        if base <= 0.0 {
            continue;
        }
        let recur = match last_fail_day {
            Some(last) => hazard.recurrence_daily(m.kind(), (day - last) as f64),
            None => 0.0,
        };
        let p = (base + recur).min(0.9);
        if rng.bernoulli(p) {
            let class = sample_class(config, m, &mut rng);
            let minute = rng.below(24 * 60) as i64;
            out.push(IncidentSpec {
                class,
                at: SimTime::from_days(day) + SimDuration::from_minutes(minute),
                machines: vec![m.id()],
            });
            last_fail_day = Some(day);
        }
    }
    out
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EffectToggles;
    use crate::{population, telemetry_gen};
    use std::collections::HashMap;

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
