//! Counterfactual policy evaluation from measured curves.
//!
//! The paper ends with operational advice: consolidate VMs onto well-filled
//! platforms (Fig. 9), keep power-cycling moderate (Fig. 10), prefer fewer
//! virtual disks (Fig. 7d). This module makes that advice executable: it
//! learns the measured rate-vs-attribute curves from a dataset and predicts
//! the fleet-wide VM failure rate under an intervention that moves machines
//! across buckets.
//!
//! The prediction is a *reweighting* counterfactual: it assumes the measured
//! per-bucket rates are causal and stable — exactly the reading the paper's
//! recommendations imply. That assumption is documented, not hidden:
//! comparing a prediction's [`WhatIfOutcome::baseline`] with the actual
//! Fig. 2 VM rate quantifies how well the bucket model explains the fleet in
//! the first place.

use crate::panel::{observe_dataset, Constant, MachineAttrs, PanelCurve, Source};
use dcfail_model::prelude::*;
use dcfail_stats::merge::Mergeable;
use serde::{Deserialize, Serialize};

/// A policy intervention on the VM fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Intervention {
    /// Re-home every VM on a platform below `min_level` average
    /// consolidation onto platforms at `min_level` (Fig. 9 advice).
    RaiseConsolidation {
        /// Target minimum consolidation level.
        min_level: f64,
    },
    /// Throttle power cycling so no VM exceeds `max_per_month` on/off
    /// transitions (Fig. 10 advice).
    LimitPowerCycling {
        /// Maximum monthly on/off transitions after the intervention.
        max_per_month: f64,
    },
    /// Consolidate virtual disks so no VM has more than `max_disks`
    /// volumes (Fig. 7d advice).
    ConsolidateDisks {
        /// Maximum number of virtual disks after the intervention.
        max_disks: u32,
    },
}

/// Outcome of evaluating an intervention.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WhatIfOutcome {
    /// Predicted fleet VM weekly rate before the intervention.
    pub baseline: f64,
    /// Predicted rate after the intervention.
    pub counterfactual: f64,
    /// VMs whose bucket changed.
    pub vms_moved: usize,
}

impl WhatIfOutcome {
    /// Relative rate change, negative = improvement.
    pub fn relative_change(&self) -> f64 {
        if self.baseline == 0.0 {
            0.0
        } else {
            self.counterfactual / self.baseline - 1.0
        }
    }
}

impl Intervention {
    /// The VM attribute the intervention acts on.
    fn attribute(self) -> Constant {
        match self {
            Self::RaiseConsolidation { .. } => Constant::Consolidation,
            Self::LimitPowerCycling { .. } => Constant::OnOff,
            Self::ConsolidateDisks { .. } => Constant::Disks,
        }
    }

    /// The attribute's value after the intervention.
    fn apply(self, value: f64) -> f64 {
        match self {
            Self::RaiseConsolidation { min_level } => value.max(min_level),
            Self::LimitPowerCycling { max_per_month } => value.min(max_per_month),
            Self::ConsolidateDisks { max_disks } => value.min(f64::from(max_disks.max(1))),
        }
    }
}

/// A curve-based counterfactual model of the VM fleet.
#[derive(Debug, Clone)]
pub struct WhatIf<'a> {
    dataset: &'a FailureDataset,
    attrs: MachineAttrs<'a>,
    /// The Fig. 7(d), Fig. 9 and Fig. 10 panels.
    panels: Vec<PanelCurve>,
}

impl<'a> WhatIf<'a> {
    /// Measures the relevant curves from a dataset.
    pub fn from_dataset(dataset: &'a FailureDataset) -> Self {
        let panels = observe_dataset(dataset, |p| {
            p.kind == MachineKind::Vm
                && matches!(
                    p.source,
                    Source::Constant(Constant::Disks | Constant::Consolidation | Constant::OnOff)
                )
        })
        .0
        .finalize();
        Self {
            dataset,
            attrs: MachineAttrs::new(dataset.telemetry()),
            panels,
        }
    }

    /// Evaluates an intervention.
    pub fn predict(&self, intervention: Intervention) -> WhatIfOutcome {
        let attribute = intervention.attribute();
        let PanelCurve { panel, curve, .. } = self
            .panels
            .iter()
            .find(|p| p.panel.source == Source::Constant(attribute))
            .expect("from_dataset measures every intervention's panel");
        // Buckets are the panel's bins; a value the bins reject is an
        // unobserved bucket.
        let bins = panel.bins();
        let rate_of = |bin: usize| curve.mean_of(bins.label(bin));
        let mut baseline_sum = 0.0;
        let mut counterfactual_sum = 0.0;
        let mut n = 0usize;
        let mut moved = 0usize;
        for m in self.dataset.machines_of_kind(MachineKind::Vm) {
            let Some(value) = self.attrs.value(m, attribute) else {
                continue;
            };
            let Some(before) = bins.index_of(value) else {
                continue;
            };
            let Some(rate_before) = rate_of(before) else {
                continue;
            };
            let after = bins.index_of(intervention.apply(value));
            // If the target bucket was never observed, fall back to the
            // machine's own bucket (no information → no predicted change).
            let rate_after = after.and_then(rate_of).unwrap_or(rate_before);
            baseline_sum += rate_before;
            counterfactual_sum += rate_after;
            n += 1;
            if after != Some(before) {
                moved += 1;
            }
        }
        let n = n.max(1) as f64;
        WhatIfOutcome {
            baseline: baseline_sum / n,
            counterfactual: counterfactual_sum / n,
            vms_moved: moved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn bucket_model_is_calibrated() {
        let ds = testutil::dataset();
        let w = WhatIf::from_dataset(ds);
        let predicted = w
            .predict(Intervention::RaiseConsolidation { min_level: 0.0 })
            .baseline;
        let actual = crate::rates::weekly_failure_rates(ds).all_vm.unwrap().mean;
        // The bucket model must explain the fleet rate within 15%.
        assert!(
            (predicted - actual).abs() / actual < 0.15,
            "predicted {predicted} vs actual {actual}"
        );
    }

    #[test]
    fn raising_consolidation_reduces_predicted_rate() {
        let ds = testutil::dataset();
        let w = WhatIf::from_dataset(ds);
        let outcome = w.predict(Intervention::RaiseConsolidation { min_level: 16.0 });
        assert!(outcome.vms_moved > 0);
        assert!(
            outcome.relative_change() < -0.10,
            "change {}",
            outcome.relative_change()
        );
        assert!(outcome.counterfactual < outcome.baseline);
    }

    #[test]
    fn consolidating_disks_reduces_predicted_rate() {
        let ds = testutil::dataset();
        let w = WhatIf::from_dataset(ds);
        let outcome = w.predict(Intervention::ConsolidateDisks { max_disks: 2 });
        assert!(outcome.vms_moved > 0);
        assert!(outcome.counterfactual < outcome.baseline);
    }

    #[test]
    fn noop_interventions_change_nothing() {
        let ds = testutil::dataset();
        let w = WhatIf::from_dataset(ds);
        for intervention in [
            Intervention::RaiseConsolidation { min_level: 0.0 },
            Intervention::LimitPowerCycling { max_per_month: 1e9 },
            Intervention::ConsolidateDisks { max_disks: 32 },
        ] {
            let outcome = w.predict(intervention);
            assert_eq!(outcome.vms_moved, 0, "{intervention:?}");
            assert_eq!(outcome.baseline, outcome.counterfactual);
            assert_eq!(outcome.relative_change(), 0.0);
        }
    }

    #[test]
    fn limiting_power_cycling_helps_a_little() {
        let ds = testutil::dataset();
        let w = WhatIf::from_dataset(ds);
        let outcome = w.predict(Intervention::LimitPowerCycling { max_per_month: 1.0 });
        assert!(outcome.vms_moved > 0);
        // Fig. 10's effect is modest but real.
        assert!(
            outcome.counterfactual <= outcome.baseline,
            "{} vs {}",
            outcome.counterfactual,
            outcome.baseline
        );
    }
}
