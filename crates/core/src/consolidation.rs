//! Failure rate vs VM consolidation level (Fig. 9).
//!
//! The consolidation level of a VM is the number of VMs sharing its hosting
//! platform; since it drifts with power-cycling and migration, the paper
//! (and we) use the average monthly level over the year.

use crate::curve::AttributeCurve;
use crate::panel::{panel_curve, Constant, Source};
use dcfail_model::prelude::*;

const SOURCE: Source = Source::Constant(Constant::Consolidation);

/// Fig. 9: weekly VM failure rate vs average consolidation level.
pub fn rate_by_consolidation(dataset: &FailureDataset) -> AttributeCurve {
    panel_curve(dataset, MachineKind::Vm, SOURCE).curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn rate_decreases_with_consolidation() {
        let curve = rate_by_consolidation(testutil::dataset());
        let lone = curve.mean_of("1").or(curve.mean_of("2")).unwrap();
        let packed = curve.mean_of("32").or(curve.mean_of("16")).unwrap();
        assert!(
            lone > 1.5 * packed,
            "level-1 rate {lone} vs level-32 rate {packed}"
        );
        // Monotone-ish decrease across the curve (allow small noise).
        let means: Vec<f64> = curve.points.iter().map(|p| p.mean).collect();
        assert!(means.first().unwrap() > means.last().unwrap());
    }

    #[test]
    fn vm_population_skews_toward_high_consolidation() {
        let shares = panel_curve(testutil::dataset(), MachineKind::Vm, SOURCE).shares;
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let lone = shares
            .iter()
            .find(|(l, _)| l == "1")
            .map_or(0.0, |&(_, s)| s);
        let high: f64 = shares
            .iter()
            .filter(|(l, _)| l == "16" || l == "32")
            .map(|&(_, s)| s)
            .sum();
        // Paper: 0.6% at level 1, ~62% at levels 16+.
        assert!(lone < 0.15, "lone share {lone}");
        assert!(high > 0.35, "high share {high}");
    }

    #[test]
    fn curve_points_are_ordered_by_level() {
        let curve = rate_by_consolidation(testutil::dataset());
        let labels: Vec<&str> = curve.points.iter().map(|p| p.label.as_str()).collect();
        let expected = ["1", "2", "4", "8", "16", "32"];
        let mut last_pos = 0;
        for l in &labels {
            let pos = expected.iter().position(|e| e == l).expect("known label");
            assert!(pos >= last_pos);
            last_pos = pos;
        }
    }
}
