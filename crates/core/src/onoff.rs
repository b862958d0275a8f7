//! Failure rate vs VM on/off frequency (Fig. 10).
//!
//! On/off frequencies are counted from the 15-minute power samples over the
//! two-month telemetry window (the paper's March–April slice) and assumed
//! representative of the whole year.

use crate::curve::AttributeCurve;
use crate::panel::{panel_curve, Constant, Source};
use dcfail_model::prelude::*;

const SOURCE: Source = Source::Constant(Constant::OnOff);

/// Fig. 10: weekly VM failure rate vs monthly on/off frequency.
pub fn rate_by_onoff(dataset: &FailureDataset) -> AttributeCurve {
    panel_curve(dataset, MachineKind::Vm, SOURCE).curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn rate_rises_to_two_per_month_then_flattens() {
        let curve = rate_by_onoff(testutil::dataset());
        let stable = curve.mean_of("0-1").unwrap();
        let cycled = curve.mean_of("1-2").or(curve.mean_of("2-4")).unwrap();
        // Paper: increasing trend from 0 to ~2 toggles/month...
        assert!(cycled > stable, "cycled {cycled} vs stable {stable}");
        // ...but no deterioration for heavy cycling: the 8+ bucket is not
        // dramatically worse than the 2-4 bucket.
        if let (Some(mid), Some(heavy)) = (curve.mean_of("2-4"), curve.mean_of("8+")) {
            assert!(
                heavy < 1.8 * mid,
                "heavy cycling {heavy} should not blow past mid {mid}"
            );
        }
    }

    #[test]
    fn most_vms_rarely_power_cycle() {
        let shares = panel_curve(testutil::dataset(), MachineKind::Vm, SOURCE).shares;
        let stable = shares
            .iter()
            .find(|(l, _)| l == "0-1")
            .map(|&(_, s)| s)
            .unwrap();
        let heavy = shares
            .iter()
            .find(|(l, _)| l == "8+")
            .map_or(0.0, |&(_, s)| s);
        // Paper: 60% ≤ 1/month, 14% ≥ 8/month.
        assert!((stable - 0.60).abs() < 0.15, "stable share {stable}");
        assert!(heavy > 0.03 && heavy < 0.30, "heavy share {heavy}");
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn only_vms_contribute() {
        let curve = rate_by_onoff(testutil::dataset());
        let mw: usize = curve.points.iter().map(|p| p.machine_weeks).sum();
        let vms = testutil::dataset().population(MachineKind::Vm, None);
        assert_eq!(mw, vms * 52);
    }
}
