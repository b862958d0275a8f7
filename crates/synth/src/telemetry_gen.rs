//! Telemetry generation: weekly usage rollups, on/off logs and consolidation
//! series.
//!
//! Usage mixes follow the paper's observations: more than half of both VMs
//! and PMs run at ≤ 10% CPU; VM memory utilization is mostly ≤ 10% while the
//! PM population *increases* with memory utilization; 45% of VMs move 2–64
//! Kbps, 34% 128–512 Kbps and 21% 1–8 Mbps.

use crate::config::ScenarioConfig;
use crate::lifecycle;
use crate::population::Population;
use dcfail_model::prelude::*;
use dcfail_stats::rng::StreamRng;
use std::ops::Range;
use std::sync::Mutex;

/// Machines per chunk of [`generate_range`]'s parallel pass. A constant, so
/// the chunks never depend on the thread count.
const CHUNK_MACHINES: usize = 128;

/// One chunk of machines and its rows of the usage and consolidation
/// buffers: `weeks` records per machine, `months` levels per VM.
type Chunk<'a> = (&'a [Machine], &'a mut [WeeklyUsage], &'a mut [u16]);

/// Draws one chunk's telemetry: writes each machine's usage and each VM's
/// consolidation into the chunk's rows, and returns the VMs' on/off logs in
/// machine order. Each machine draws from its own stream
/// (`fork_index("telemetry", id)`): its base levels, its weekly noise, then,
/// for a VM, its on/off log and its consolidation levels.
fn draw_chunk(
    config: &ScenarioConfig,
    pop: &Population,
    (machines, usage, levels): Chunk<'_>,
    rng: &StreamRng,
) -> Vec<OnOffLog> {
    let weeks = config.horizon.num_weeks();
    let months = config.horizon.num_months();
    let onoff_window = config.onoff_window();
    // Batched draws, reused across the chunk: 4 per week in the same
    // cpu/mem/disk/net order a per-week loop would use, and one per month.
    let mut noise = vec![0.0; 4 * weeks];
    let mut monthly = vec![0.0; months];
    let mut logs = Vec::new();
    for (i, machine) in machines.iter().enumerate() {
        let mut rng = rng.fork_index("telemetry", machine.id().raw() as u64);
        let base = sample_base_usage(&mut rng, machine.kind());
        rng.uniform_fill(&mut noise);
        let row = &mut usage[i * weeks..][..weeks];
        for (week, n) in row.iter_mut().zip(noise.chunks_exact(4)) {
            *week = jitter_week(n, base);
        }
        if machine.is_vm() {
            let vm = logs.len();
            logs.push(lifecycle::sample_onoff_log(&mut rng, onoff_window));
            let occupancy = machine
                .host()
                .and_then(|b| pop.topology.host_box(b))
                .map_or(1, HostBox::occupancy);
            rng.uniform_fill(&mut monthly);
            let row = &mut levels[vm * months..][..months];
            for (level, &u) in row.iter_mut().zip(&monthly) {
                *level = consolidation_level(occupancy, u);
            }
        }
    }
    logs
}

/// Generates all telemetry for a population.
///
/// Each machine draws from its own stream (`fork_index("telemetry", id)`),
/// so the per-machine series are computed in parallel, chunk by chunk, and
/// land in machine order — bit-identical to the sequential loop for any
/// thread count.
pub fn generate(config: &ScenarioConfig, pop: &Population, rng: &StreamRng) -> Telemetry {
    generate_range(config, pop, 0..pop.machines.len(), rng)
}

/// Generates telemetry for machines `range` only.
///
/// Because each machine forks its stream from its *global* id, the series
/// produced for a machine here are bit-identical to the ones [`generate`]
/// produces for it — this is what lets a shard coordinator materialize one
/// machine range at a time and drop it before the next.
///
/// The usage family and a buffer of every VM's consolidation levels are
/// sized from the range up front and filled in place, one fixed chunk of
/// machines per task, as `HazardModel::new` fills its rows. Each VM's levels
/// and on/off log are then stored in machine order.
///
/// # Panics
///
/// Panics if `range` is out of bounds for the population.
pub fn generate_range(
    config: &ScenarioConfig,
    pop: &Population,
    range: Range<usize>,
    rng: &StreamRng,
) -> Telemetry {
    let machines = &pop.machines[range];
    let weeks = config.horizon.num_weeks();
    let months = config.horizon.num_months();
    let vm_count = |machines: &[Machine]| machines.iter().filter(|m| m.is_vm()).count();
    let mut levels = vec![0; vm_count(machines) * months];
    let mut logs = Vec::new();
    let mut telemetry = Telemetry::new();
    telemetry.append_usage(machines.iter().map(|m| (m.id(), weeks)), |usage| {
        // Each chunk's rows, locked only by the worker that claims it.
        let (mut usage, mut levels) = (usage, levels.as_mut_slice());
        let chunks: Vec<Mutex<Chunk<'_>>> = machines
            .chunks(CHUNK_MACHINES)
            .map(|chunk| {
                let (u, rest) = std::mem::take(&mut usage).split_at_mut(chunk.len() * weeks);
                usage = rest;
                let (l, rest) = std::mem::take(&mut levels).split_at_mut(vm_count(chunk) * months);
                levels = rest;
                Mutex::new((chunk, u, l))
            })
            .collect();
        // dlint::allow(D05): StreamRng is immutable; draw_chunk forks per machine id
        logs = dcfail_par::par_map_index(chunks.len(), |c| {
            let mut chunk = chunks[c].lock().expect("a telemetry worker panicked");
            let (machines, usage, levels) = &mut *chunk;
            draw_chunk(config, pop, (machines, usage, levels), rng)
        });
    });
    let vms = machines.iter().filter(|m| m.is_vm());
    for (k, (vm, log)) in vms.zip(logs.into_iter().flatten()).enumerate() {
        telemetry.set_consolidation(vm.id(), &levels[k * months..][..months]);
        telemetry.set_onoff(vm.id(), log);
    }
    telemetry
}

/// Per-machine long-run usage levels, sampled once and jittered weekly.
fn sample_base_usage(rng: &mut StreamRng, kind: MachineKind) -> WeeklyUsage {
    let cpu = 100.0 * rng.uniform().powi(4); // >50% of machines ≤ ~10%
    let mem = match kind {
        // VM memory usage skews low...
        MachineKind::Vm => 100.0 * rng.uniform().powi(4),
        // ...while the PM population grows with memory utilization.
        MachineKind::Pm => 100.0 * rng.uniform().powf(0.7),
    };
    let disk = 100.0 * rng.uniform();
    let net = sample_net_kbps(rng);
    WeeklyUsage::new(cpu as f32, mem as f32, disk as f32, net as f32)
}

/// Network volume mixture: 45% in 2–64 Kbps, 34% in 128–512, 21% in
/// 1024–8192 (log-uniform within each band).
fn sample_net_kbps(rng: &mut StreamRng) -> f64 {
    let (lo, hi) = match rng.weighted(&[0.45, 0.34, 0.21]) {
        0 => (2.0f64, 64.0f64),
        1 => (128.0, 512.0),
        _ => (1024.0, 8192.0),
    };
    (lo.ln() + (hi.ln() - lo.ln()) * rng.uniform()).exp()
}

/// Adds bounded multiplicative weekly noise around the base levels, from
/// one batched draw of 4 uniforms (cpu, mem, disk, net).
fn jitter_week(draws: &[f64], base: WeeklyUsage) -> WeeklyUsage {
    let noise = |u: f64| 1.0 + 0.25 * (u - 0.5) as f32;
    WeeklyUsage::new(
        base.cpu_pct * noise(draws[0]),
        base.mem_pct * noise(draws[1]),
        base.disk_pct * noise(draws[2]),
        base.net_kbps * noise(draws[3]),
    )
}

/// One month's consolidation level: home occupancy modulated by
/// co-residents' power states (85–100% of them on in any month), from one
/// batched uniform `u`.
fn consolidation_level(occupancy: usize, u: f64) -> u16 {
    // `uniform_in(0.85, 1.0)` spelled out over the batched draw — the exact
    // same float expression, so values are bit-identical.
    let on_frac = 0.85 + (1.0 - 0.85) * u;
    let co_resident_on = ((occupancy - 1) as f64 * on_frac).round() as u16;
    1 + co_resident_on
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population;

    fn setup() -> (ScenarioConfig, Population, Telemetry) {
        let mut config = ScenarioConfig::paper();
        config.scale = 0.05;
        let rng = StreamRng::new(7);
        let pop = population::build(&config, &rng);
        let telemetry = generate(&config, &pop, &rng);
        (config, pop, telemetry)
    }

    /// Mean of one usage column over a machine's weeks.
    fn mean_of(telemetry: &Telemetry, m: &Machine, column: fn(&WeeklyUsage) -> f32) -> f64 {
        let weeks = telemetry.usage(m.id()).expect("usage series exists");
        weeks.iter().map(|w| f64::from(column(w))).sum::<f64>() / weeks.len() as f64
    }

    #[test]
    fn every_machine_has_52_weeks_of_usage() {
        let (config, pop, telemetry) = setup();
        for m in &pop.machines {
            let usage = telemetry.usage(m.id()).expect("usage series exists");
            assert_eq!(usage.len(), config.horizon.num_weeks());
            for w in usage {
                assert!((0.0..=100.0).contains(&w.cpu_pct));
                assert!((0.0..=100.0).contains(&w.mem_pct));
                assert!((0.0..=100.0).contains(&w.disk_pct));
                assert!(w.net_kbps >= 0.0);
            }
        }
    }

    #[test]
    fn only_vms_have_onoff_and_consolidation() {
        let (config, pop, telemetry) = setup();
        for m in &pop.machines {
            if m.is_vm() {
                let log = telemetry.onoff(m.id()).expect("VM has on/off log");
                assert_eq!(log.window(), config.onoff_window());
                let cons = telemetry
                    .consolidation(m.id())
                    .expect("VM has consolidation");
                assert_eq!(cons.len(), config.horizon.num_months());
                assert!(cons.iter().all(|&l| l >= 1));
            } else {
                assert!(telemetry.onoff(m.id()).is_none());
                assert!(telemetry.consolidation(m.id()).is_none());
            }
        }
    }

    #[test]
    fn cpu_usage_skews_low() {
        let (_, pop, telemetry) = setup();
        let mut low = 0usize;
        let mut total = 0usize;
        for m in &pop.machines {
            total += 1;
            if mean_of(&telemetry, m, |w| w.cpu_pct) <= 10.0 {
                low += 1;
            }
        }
        // Paper: "more than half of VMs and PMs is utilized at most 10%".
        assert!(low as f64 / total as f64 > 0.5);
    }

    #[test]
    fn pm_memory_skews_higher_than_vm_memory() {
        let (_, pop, telemetry) = setup();
        let mean_of = |kind: MachineKind| {
            let (sum, n) = pop
                .machines
                .iter()
                .filter(|m| m.kind() == kind)
                .map(|m| mean_of(&telemetry, m, |w| w.mem_pct))
                .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
            sum / n as f64
        };
        assert!(mean_of(MachineKind::Pm) > mean_of(MachineKind::Vm) + 10.0);
    }

    #[test]
    fn network_mixture_bands() {
        let (_, pop, telemetry) = setup();
        let nets: Vec<f64> = pop
            .machines
            .iter()
            .filter(|m| m.is_vm())
            .map(|m| mean_of(&telemetry, m, |w| w.net_kbps))
            .collect();
        let low = nets.iter().filter(|&&k| k <= 100.0).count() as f64 / nets.len() as f64;
        let high = nets.iter().filter(|&&k| k >= 800.0).count() as f64 / nets.len() as f64;
        assert!((low - 0.45).abs() < 0.15, "low band {low}");
        assert!((high - 0.21).abs() < 0.12, "high band {high}");
    }

    #[test]
    fn consolidation_tracks_occupancy() {
        let (_, pop, telemetry) = setup();
        for m in pop.machines.iter().filter(|m| m.is_vm()) {
            let occupancy = pop
                .topology
                .host_box(m.host().unwrap())
                .unwrap()
                .occupancy() as f64;
            let mean = telemetry.mean_consolidation(m.id()).unwrap();
            assert!(mean <= occupancy + 1e-9);
            assert!(mean >= 0.8 * occupancy);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut config = ScenarioConfig::paper();
        config.scale = 0.02;
        let rng = StreamRng::new(11);
        let pop = population::build(&config, &rng);
        let t1 = generate(&config, &pop, &rng);
        let t2 = generate(&config, &pop, &rng);
        assert_eq!(t1, t2);
    }
}
