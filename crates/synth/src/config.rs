//! Scenario configuration and calibration constants.
//!
//! All magic numbers that encode the paper's reported effects live here, so
//! the calibration is inspectable in one place and ablations can switch
//! individual effects off.

use dcfail_model::prelude::*;
use serde::{Deserialize, Serialize};

/// Per-subsystem calibration (one row of the paper's Table II plus the
/// subsystem-specific rate skews read off Table V and Fig. 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsystemConfig {
    /// Display name ("Sys I").
    pub name: String,
    /// Physical machine count at scale 1.0.
    pub pms: usize,
    /// Virtual machine count at scale 1.0.
    pub vms: usize,
    /// Total problem tickets (crash + non-crash) at scale 1.0.
    pub all_tickets: usize,
    /// Multiplier on the PM base hazard (Table V row "Random", PMs).
    pub pm_rate_mult: f64,
    /// Multiplier on the VM base hazard (Table V row "Random", VMs).
    pub vm_rate_mult: f64,
    /// Multiplier on the power-outage incident rate (Sys V is power-heavy,
    /// Sys III saw none all year).
    pub power_mult: f64,
    /// Multiplier on hardware+network individual-failure share (Sys I and II
    /// skew hardware/network; Sys II has almost none of anything else).
    pub hw_net_mult: f64,
}

/// Ablation switches: each maps to one family of ground-truth effects.
/// Disabling one collapses the corresponding paper artifact, which the
/// ablation benches demonstrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(clippy::struct_excessive_bools)] // ablation switches are genuinely independent flags
pub struct EffectToggles {
    /// Post-failure self-exciting burst (Table V ratios, Fig. 5).
    pub recurrence: bool,
    /// Correlated multi-machine incidents (Tables VI, VII).
    pub spatial: bool,
    /// Capacity-dependent hazard curves (Fig. 7).
    pub capacity: bool,
    /// Usage-dependent hazard curves (Fig. 8).
    pub usage: bool,
    /// Consolidation-level hazard curve (Fig. 9).
    pub consolidation: bool,
    /// VM age trend (Fig. 6).
    pub age: bool,
    /// On/off-frequency hazard curve (Fig. 10).
    pub onoff: bool,
}

impl Default for EffectToggles {
    fn default() -> Self {
        Self {
            recurrence: true,
            spatial: true,
            capacity: true,
            usage: true,
            consolidation: true,
            age: true,
            onoff: true,
        }
    }
}

impl EffectToggles {
    /// All effects enabled (the paper scenario).
    pub fn all() -> Self {
        Self::default()
    }

    /// All effects disabled: homogeneous, memoryless, independent failures.
    pub fn none() -> Self {
        Self {
            recurrence: false,
            spatial: false,
            capacity: false,
            usage: false,
            consolidation: false,
            age: false,
            onoff: false,
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Root RNG seed.
    pub seed: u64,
    /// Population scale factor in `(0, 1]`; 1.0 is the paper's ~10K hosts.
    pub scale: f64,
    /// Observation window.
    pub horizon: Horizon,
    /// The five subsystems.
    pub subsystems: Vec<SubsystemConfig>,
    /// Ground-truth effect switches.
    pub effects: EffectToggles,
    /// Base weekly failure probability of an average PM from the individual
    /// (single-machine) failure process.
    pub pm_base_weekly: f64,
    /// Base weekly failure probability of an average VM.
    pub vm_base_weekly: f64,
    /// Peak absolute daily recurrence probability of a PM right after a
    /// failure (decays with [`ScenarioConfig::burst_tau_days`]); calibrated
    /// so P(recurrent failure within a week) ≈ 0.22 (Table V).
    pub pm_recur_daily: f64,
    /// Peak absolute daily recurrence probability of a VM right after a
    /// failure; calibrated so P(recurrent failure within a week) ≈ 0.16.
    pub vm_recur_daily: f64,
    /// Recurrence decay constant in days.
    pub burst_tau_days: f64,
    /// Fraction of crash tickets whose text is too poor to classify
    /// (the paper's 53% "other" share).
    pub degraded_text_fraction: f64,
    /// Start of the two-month on/off telemetry window, in observation days
    /// (the paper's March–April slice).
    pub onoff_window_start_day: i64,
}

impl ScenarioConfig {
    /// The paper-calibrated configuration (Table II populations, Table V
    /// skews, Fig. 1 class structure).
    pub fn paper() -> Self {
        Self {
            seed: 42,
            scale: 1.0,
            horizon: Horizon::observation_year(),
            subsystems: vec![
                SubsystemConfig {
                    name: "Sys I".into(),
                    pms: 463,
                    vms: 1320,
                    all_tickets: 7079,
                    pm_rate_mult: 2.4,
                    vm_rate_mult: 0.6,
                    power_mult: 1.0,
                    hw_net_mult: 2.0,
                },
                SubsystemConfig {
                    name: "Sys II".into(),
                    pms: 2025,
                    vms: 52,
                    all_tickets: 27577,
                    pm_rate_mult: 0.32,
                    vm_rate_mult: 0.0,
                    power_mult: 1.0,
                    hw_net_mult: 2.5,
                },
                SubsystemConfig {
                    name: "Sys III".into(),
                    pms: 1114,
                    vms: 1971,
                    all_tickets: 50157,
                    pm_rate_mult: 1.45,
                    vm_rate_mult: 0.8,
                    power_mult: 0.0,
                    hw_net_mult: 1.0,
                },
                SubsystemConfig {
                    name: "Sys IV".into(),
                    pms: 717,
                    vms: 313,
                    all_tickets: 8382,
                    pm_rate_mult: 0.35,
                    vm_rate_mult: 1.60,
                    power_mult: 0.5,
                    hw_net_mult: 1.0,
                },
                SubsystemConfig {
                    name: "Sys V".into(),
                    pms: 810,
                    vms: 636,
                    all_tickets: 25940,
                    pm_rate_mult: 1.4,
                    vm_rate_mult: 2.5,
                    power_mult: 8.0,
                    hw_net_mult: 0.8,
                },
            ],
            effects: EffectToggles::all(),
            pm_base_weekly: 0.0026,
            vm_base_weekly: 0.0011,
            pm_recur_daily: 0.118,
            vm_recur_daily: 0.105,
            burst_tau_days: 2.5,
            degraded_text_fraction: 0.53,
            onoff_window_start_day: 224,
        }
    }

    /// Scales an at-scale-1.0 count by `self.scale`, keeping at least
    /// `min_when_nonzero` when the unscaled count is nonzero.
    pub fn scaled(&self, count: usize, min_when_nonzero: usize) -> usize {
        if count == 0 {
            return 0;
        }
        ((count as f64 * self.scale).round() as usize).max(min_when_nonzero)
    }

    /// The two-month on/off telemetry window.
    pub fn onoff_window(&self) -> Horizon {
        let start = SimTime::from_days(self.onoff_window_start_day);
        Horizon::new(start, start + MONTH * 2)
    }

    /// Total PM count after scaling.
    #[cfg(test)]
    pub(crate) fn total_pms(&self) -> usize {
        self.subsystems.iter().map(|s| self.scaled(s.pms, 1)).sum()
    }

    /// Total VM count after scaling.
    #[cfg(test)]
    pub(crate) fn total_vms(&self) -> usize {
        self.subsystems.iter().map(|s| self.scaled(s.vms, 1)).sum()
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Calibration tables shared by the hazard model and generators. These are
/// the "shape" constants read off the paper's figures.
pub mod curves {
    /// PM CPU-count hazard multipliers for counts 1, 2, 4, 8, 16, 24, 32, 64
    /// (Fig. 7a: rises ~5.5× to 24 cores, drops for 32/64).
    pub const PM_CPU_COUNTS: [u32; 8] = [1, 2, 4, 8, 16, 24, 32, 64];
    /// Multiplier per CPU-count class (parallel to [`PM_CPU_COUNTS`]).
    pub const PM_CPU_MULT: [f64; 8] = [0.45, 0.55, 0.75, 1.25, 1.9, 2.4, 1.0, 0.95];
    /// Population weights of the PM CPU-count classes (72% ≤ 4 CPUs).
    pub const PM_CPU_WEIGHTS: [f64; 8] = [0.18, 0.28, 0.26, 0.12, 0.07, 0.04, 0.03, 0.02];

    /// VM vCPU-count hazard multipliers for counts 1, 2, 4, 8 (Fig. 7a:
    /// ~2.5× from 1 to 8; 1–2 vCPUs dominate the population).
    pub const VM_CPU_COUNTS: [u32; 4] = [1, 2, 4, 8];
    /// Multiplier per vCPU class.
    pub const VM_CPU_MULT: [f64; 4] = [0.55, 0.80, 1.35, 2.00];
    /// Population weights of the vCPU classes.
    pub const VM_CPU_WEIGHTS: [f64; 4] = [0.32, 0.45, 0.16, 0.07];

    /// PM memory sizes in GB (Fig. 7b: bathtub — high ≤ 4 GB, low 4–32 GB,
    /// high again toward 128+ GB).
    pub const PM_MEM_GB: [u64; 8] = [2, 4, 8, 16, 32, 64, 128, 256];
    /// Multiplier per PM memory class.
    pub const PM_MEM_MULT: [f64; 8] = [1.9, 1.6, 0.75, 0.65, 0.7, 1.3, 2.4, 2.8];
    /// Population weights of the PM memory classes.
    pub const PM_MEM_WEIGHTS: [f64; 8] = [0.10, 0.18, 0.24, 0.22, 0.14, 0.07, 0.04, 0.01];

    /// VM memory sizes in MB (Fig. 7b: flat to 4 GB, dip at 4–8 GB, rise to
    /// 32 GB; 1–2 GB dominates).
    pub const VM_MEM_MB: [u64; 8] = [256, 512, 1024, 2048, 4096, 8192, 16384, 32768];
    /// Multiplier per VM memory class.
    pub const VM_MEM_MULT: [f64; 8] = [1.05, 1.0, 0.95, 1.0, 0.55, 0.45, 1.1, 1.5];
    /// Population weights of the VM memory classes.
    pub const VM_MEM_WEIGHTS: [f64; 8] = [0.05, 0.08, 0.28, 0.30, 0.15, 0.08, 0.04, 0.02];

    /// VM disk counts (Fig. 7d: ~10× from 1 to 6 disks, 2 disks dominant).
    pub const VM_DISK_COUNTS: [u32; 6] = [1, 2, 3, 4, 5, 6];
    /// Multiplier per disk count.
    pub const VM_DISK_COUNT_MULT: [f64; 6] = [0.15, 0.50, 0.95, 1.45, 2.00, 2.60];
    /// Population weights of disk counts.
    pub const VM_DISK_COUNT_WEIGHTS: [f64; 6] = [0.28, 0.45, 0.12, 0.08, 0.05, 0.02];

    /// VM total disk capacities in GB (Fig. 7c: rises steeply below 32 GB,
    /// then flat ~0.0025 for 32 GB – 4 TB; 85% of VMs are ≥ 32 GB).
    pub const VM_DISK_GB: [u64; 10] = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
    /// Multiplier per disk-capacity class.
    pub const VM_DISK_GB_MULT: [f64; 10] = [0.08, 0.40, 1.0, 1.0, 1.0, 1.0, 1.0, 1.05, 1.05, 1.05];
    /// Population weights of disk capacities.
    pub const VM_DISK_GB_WEIGHTS: [f64; 10] =
        [0.05, 0.10, 0.17, 0.18, 0.16, 0.13, 0.10, 0.06, 0.03, 0.02];

    /// PM CPU-utilization hazard multiplier (Fig. 8a: decreasing over the
    /// populated 0–30% range, bathtub over the full range).
    pub fn pm_cpu_util_mult(util_pct: f64) -> f64 {
        let u = util_pct.clamp(0.0, 100.0);
        if u < 30.0 {
            2.0 - 0.055 * u
        } else if u < 70.0 {
            0.35
        } else {
            0.35 + 0.02 * (u - 70.0)
        }
    }

    /// VM CPU-utilization hazard multiplier (Fig. 8a: increasing ~an order
    /// of magnitude over 0–30%).
    pub fn vm_cpu_util_mult(util_pct: f64) -> f64 {
        let u = util_pct.clamp(0.0, 100.0);
        (0.35 + 0.085 * u.min(30.0)) * if u > 30.0 { 1.05 } else { 1.0 }
    }

    /// PM memory-utilization hazard multiplier (Fig. 8b: inverted bathtub —
    /// low below 20% and above 70%, peak in the middle; strongest PM usage
    /// factor).
    pub fn pm_mem_util_mult(util_pct: f64) -> f64 {
        let u = util_pct.clamp(0.0, 100.0);
        if u < 20.0 {
            0.55
        } else if u < 70.0 {
            0.55 + 2.6 * ((u - 20.0) / 50.0 * std::f64::consts::PI).sin()
        } else {
            0.5
        }
    }

    /// VM memory-utilization hazard multiplier (Fig. 8b: inverted bathtub,
    /// milder than PMs — low below 10% and above 50%).
    pub fn vm_mem_util_mult(util_pct: f64) -> f64 {
        let u = util_pct.clamp(0.0, 100.0);
        if u < 10.0 {
            0.7
        } else if u < 50.0 {
            0.7 + 1.0 * ((u - 10.0) / 40.0 * std::f64::consts::PI).sin()
        } else {
            0.65
        }
    }

    /// VM disk-utilization hazard multiplier (Fig. 8c: mild increase from
    /// ~0.001 below 10% to ~0.003 above 70%).
    pub fn vm_disk_util_mult(util_pct: f64) -> f64 {
        let u = util_pct.clamp(0.0, 100.0);
        0.55 + 0.011 * u
    }

    /// VM network-traffic hazard multiplier (Fig. 8d: rises up to 64 Kbps,
    /// decreases beyond).
    pub fn vm_net_mult(kbps: f64) -> f64 {
        let k = kbps.max(0.0);
        if k <= 64.0 {
            0.4 + 1.6 * (k / 64.0)
        } else {
            // Gentle decay with volume past the peak.
            (2.0 - 0.35 * (k / 64.0).log2()).max(0.5)
        }
    }

    /// Consolidation-level hazard multiplier (Fig. 9: decreasing
    /// significantly with the level, 1–32).
    pub fn consolidation_mult(level: f64) -> f64 {
        let l = level.max(1.0);
        2.2 / (1.0 + 0.28 * (l - 1.0)).powf(0.85)
    }

    /// On/off-frequency hazard multiplier (Fig. 10: rises from ~0.002 at 0
    /// to ~0.0035 at 2 toggles/month, no clear trend beyond).
    pub fn onoff_mult(per_month: f64) -> f64 {
        let f = per_month.max(0.0);
        if f <= 2.0 {
            0.45 + 0.675 * f
        } else {
            1.8
        }
    }

    /// VM age hazard multiplier (Fig. 6: no bathtub, weak positive trend).
    pub fn vm_age_mult(age_days: f64) -> f64 {
        1.0 + 0.18 * (age_days.clamp(0.0, 730.0) / 365.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2_populations() {
        let c = ScenarioConfig::paper();
        assert_eq!(c.subsystems.len(), 5);
        assert_eq!(c.total_pms(), 463 + 2025 + 1114 + 717 + 810);
        assert_eq!(c.total_vms(), 1320 + 52 + 1971 + 313 + 636);
        let tickets: usize = c.subsystems.iter().map(|s| s.all_tickets).sum();
        assert_eq!(tickets, 7079 + 27577 + 50157 + 8382 + 25940);
    }

    #[test]
    fn scaled_counts_round_and_floor() {
        let mut c = ScenarioConfig::paper();
        c.scale = 0.01;
        assert_eq!(c.scaled(1000, 1), 10);
        assert_eq!(c.scaled(10, 1), 1); // floored at min
        assert_eq!(c.scaled(0, 1), 0); // zero stays zero
    }

    #[test]
    fn onoff_window_is_two_months() {
        let c = ScenarioConfig::paper();
        let w = c.onoff_window();
        assert_eq!(w.len().as_days(), 56.0);
        assert_eq!(w.start().as_days(), 224.0);
    }

    #[test]
    fn toggles_presets() {
        assert!(EffectToggles::all().recurrence);
        assert!(!EffectToggles::none().spatial);
        assert_eq!(EffectToggles::default(), EffectToggles::all());
    }

    #[test]
    fn weights_sum_to_one() {
        for weights in [
            curves::PM_CPU_WEIGHTS.as_slice(),
            curves::VM_CPU_WEIGHTS.as_slice(),
            curves::PM_MEM_WEIGHTS.as_slice(),
            curves::VM_MEM_WEIGHTS.as_slice(),
            curves::VM_DISK_COUNT_WEIGHTS.as_slice(),
            curves::VM_DISK_GB_WEIGHTS.as_slice(),
        ] {
            let sum: f64 = weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
        }
    }

    #[test]
    fn pm_cpu_curve_peaks_at_24_and_drops() {
        let m = curves::PM_CPU_MULT;
        // Rising to index 5 (24 CPUs)...
        for i in 0..5 {
            assert!(m[i] < m[i + 1]);
        }
        // ...then dropping for 32 and 64.
        assert!(m[6] < m[5]);
        assert!(m[7] <= m[6]);
        // ~5.5× dynamic range.
        assert!(m[5] / m[0] > 4.0 && m[5] / m[0] < 7.0);
    }

    #[test]
    fn vm_disk_count_curve_is_monotone() {
        let m = curves::VM_DISK_COUNT_MULT;
        for i in 0..m.len() - 1 {
            assert!(m[i] < m[i + 1]);
        }
        // ~10× from 1 to 6 disks.
        assert!(m[5] / m[0] > 8.0);
    }

    #[test]
    fn usage_curves_have_paper_shapes() {
        use curves::*;
        // PM CPU util decreasing on [0, 30].
        assert!(pm_cpu_util_mult(5.0) > pm_cpu_util_mult(25.0));
        // Bathtub: tail rises again.
        assert!(pm_cpu_util_mult(95.0) > pm_cpu_util_mult(50.0));
        // VM CPU util increasing on [0, 30].
        assert!(vm_cpu_util_mult(25.0) > vm_cpu_util_mult(5.0));
        // Memory inverted bathtub: middle beats both ends.
        assert!(pm_mem_util_mult(45.0) > pm_mem_util_mult(10.0));
        assert!(pm_mem_util_mult(45.0) > pm_mem_util_mult(85.0));
        assert!(vm_mem_util_mult(30.0) > vm_mem_util_mult(5.0));
        assert!(vm_mem_util_mult(30.0) > vm_mem_util_mult(80.0));
        // Disk util mildly increasing.
        assert!(vm_disk_util_mult(80.0) > vm_disk_util_mult(5.0));
        // Network peaks at 64 Kbps.
        assert!(vm_net_mult(64.0) > vm_net_mult(2.0));
        assert!(vm_net_mult(64.0) > vm_net_mult(4096.0));
        // Consolidation decreasing.
        assert!(consolidation_mult(1.0) > consolidation_mult(8.0));
        assert!(consolidation_mult(8.0) > consolidation_mult(32.0));
        // On/off rises to 2/month then flattens.
        assert!(onoff_mult(2.0) > 1.5 * onoff_mult(0.0));
        assert!((onoff_mult(4.0) - onoff_mult(8.0)).abs() < 1e-12);
        // Age weak positive.
        assert!(vm_age_mult(700.0) > vm_age_mult(10.0));
        assert!(vm_age_mult(700.0) < 1.5);
    }

    #[test]
    fn serde_roundtrip() {
        let c = ScenarioConfig::paper();
        let json = serde_json::to_string(&c).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
