//! Inter-failure times (Fig. 3, Table III).
//!
//! Two views, as in the paper: the **single-server view** (gaps between
//! consecutive failures of the same machine; servers failing once contribute
//! nothing) and the **operator view** (gaps between consecutive failures of
//! a class anywhere in the estate).

use crate::ClassSource;
use dcfail_model::prelude::*;
use dcfail_stats::empirical::{Ecdf, Summary};
use dcfail_stats::fit::{Family, ModelSelection};
use dcfail_stats::gof::{ks_test, KsTest};
use dcfail_stats::survival::{KaplanMeier, Observation};
use serde::{Deserialize, Serialize};

/// Fig. 3 for one machine kind: the gap sample, its ECDF, the fitted model
/// ranking and context statistics.
#[derive(Debug, Clone)]
pub struct InterFailureAnalysis {
    /// Per-server inter-failure gaps in days.
    pub gaps_days: Vec<f64>,
    /// ECDF of the gaps.
    pub ecdf: Ecdf,
    /// MLE fits of the paper's candidate families, ranked by log-likelihood.
    pub fits: ModelSelection,
    /// KS test of the winning fit.
    pub best_fit_ks: KsTest,
    /// Mean gap in days (the paper quotes 37.22 days for VMs).
    pub mean_days: f64,
    /// Fraction of failing servers with exactly one failure (the paper:
    /// ~60% of VMs fail once, contributing no gaps).
    pub single_failure_fraction: f64,
}

/// Per-server inter-failure gaps in days for one machine kind, optionally
/// restricted to one failure class.
pub fn per_server_gaps_days(
    dataset: &FailureDataset,
    kind: Option<MachineKind>,
    class: Option<(FailureClass, ClassSource)>,
) -> Vec<f64> {
    let mut gaps = Vec::new();
    for (machine, _) in dataset.failing_machines() {
        if let Some(k) = kind {
            if dataset.machine(machine).kind() != k {
                continue;
            }
        }
        let mut prev: Option<SimTime> = None;
        for ev in dataset.events_for(machine) {
            if let Some((c, source)) = class {
                if source.class_of(ev) != c {
                    continue;
                }
            }
            if let Some(p) = prev {
                let gap = (ev.at() - p).as_days();
                if gap > 0.0 {
                    gaps.push(gap);
                }
            }
            prev = Some(ev.at());
        }
    }
    gaps
}

/// Operator-view gaps in days: time between consecutive failures of `class`
/// anywhere in the estate.
pub fn operator_gaps_days(
    dataset: &FailureDataset,
    class: FailureClass,
    source: ClassSource,
) -> Vec<f64> {
    let mut gaps = Vec::new();
    let mut prev: Option<SimTime> = None;
    for ev in dataset.events() {
        if source.class_of(ev) != class {
            continue;
        }
        if let Some(p) = prev {
            let gap = (ev.at() - p).as_days();
            if gap > 0.0 {
                gaps.push(gap);
            }
        }
        prev = Some(ev.at());
    }
    gaps
}

/// Runs the Fig. 3 analysis for one machine kind.
///
/// # Errors
///
/// Returns `None` when there are not enough gaps to fit (fewer than 10).
pub fn analyze(dataset: &FailureDataset, kind: MachineKind) -> Option<InterFailureAnalysis> {
    let gaps = per_server_gaps_days(dataset, Some(kind), None);
    if gaps.len() < 10 {
        return None;
    }
    let fits = ModelSelection::fit(&gaps, &Family::ALL).ok()?;
    let best_fit_ks = ks_test(&gaps, fits.best().dist.as_dist()).ok()?;
    let mean_days = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let (total_failing, single) = dataset
        .failing_machines()
        .filter(|&(m, _)| dataset.machine(m).kind() == kind)
        .fold((0usize, 0usize), |(t, s), (_, count)| {
            (t + 1, s + usize::from(count == 1))
        });
    Some(InterFailureAnalysis {
        ecdf: Ecdf::new(&gaps),
        best_fit_ks,
        mean_days,
        single_failure_fraction: if total_failing == 0 {
            0.0
        } else {
            single as f64 / total_failing as f64
        },
        fits,
        gaps_days: gaps,
    })
}

/// Censoring-aware inter-failure analysis.
///
/// The paper notes it "collect\[s\] no inter-failure times for servers that
/// only fail once" — but those servers carry information: they survived
/// from their (only) failure to the end of the window without failing
/// again. Treating that span as a right-censored observation and running
/// Kaplan–Meier gives an unbiased survival curve; comparing its median to
/// the naive gaps-only median quantifies the paper's bias.
#[derive(Debug, Clone)]
pub struct CensoredInterFailure {
    /// The fitted survival curve over gap days.
    pub km: KaplanMeier,
    /// Naive median of observed gaps only (the paper's estimator).
    pub naive_median_days: Option<f64>,
    /// KM median gap, when the curve reaches 0.5.
    pub km_median_days: Option<f64>,
    /// Share of observations that are censored (single-failure tails).
    pub censored_share: f64,
}

/// Runs the censoring-aware analysis for one machine kind; `None` with
/// fewer than 10 events.
pub fn analyze_censored(
    dataset: &FailureDataset,
    kind: MachineKind,
) -> Option<CensoredInterFailure> {
    let mut observations = Vec::new();
    let mut gaps = Vec::new();
    let end = dataset.horizon().end();
    for (machine, _) in dataset.failing_machines() {
        if dataset.machine(machine).kind() != kind {
            continue;
        }
        let times: Vec<SimTime> = dataset.events_for(machine).map(FailureEvent::at).collect();
        for pair in times.windows(2) {
            let gap = (pair[1] - pair[0]).as_days();
            if gap > 0.0 {
                observations.push(Observation::event(gap));
                gaps.push(gap);
            }
        }
        // The span from the last failure to the window end is censored.
        if let Some(&last) = times.last() {
            let tail = (end - last).as_days();
            if tail > 0.0 {
                observations.push(Observation::censored(tail));
            }
        }
    }
    if observations.len() < 10 {
        return None;
    }
    let km = KaplanMeier::fit(&observations).ok()?;
    let naive_median_days = Summary::of(&gaps).map(|s| s.median);
    Some(CensoredInterFailure {
        km_median_days: km.median(),
        censored_share: km.n_censored() as f64 / km.n() as f64,
        naive_median_days,
        km,
    })
}

/// One row pair of Table III: mean and median gap days per class for both
/// views.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassGapStats {
    /// Operator view: gaps between failures of the class estate-wide.
    pub operator: Option<GapStats>,
    /// Single-server view: per-server gaps within the class.
    pub server: Option<GapStats>,
}

/// Mean/median gap statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GapStats {
    /// Mean gap in days.
    pub mean: f64,
    /// Median gap in days.
    pub median: f64,
    /// Number of gaps.
    pub n: usize,
}

impl GapStats {
    fn of(gaps: &[f64]) -> Option<Self> {
        let s = Summary::of(gaps)?;
        Some(Self {
            mean: s.mean,
            median: s.median,
            n: s.n,
        })
    }
}

/// Computes Table III: per-class inter-failure times from both views,
/// dense by [`FailureClass::index`].
pub fn table3(dataset: &FailureDataset, source: ClassSource) -> [ClassGapStats; 6] {
    let mut out = [ClassGapStats {
        operator: None,
        server: None,
    }; 6];
    for class in FailureClass::ALL {
        let operator = operator_gaps_days(dataset, class, source);
        let server = per_server_gaps_days(dataset, None, Some((class, source)));
        out[class.index()] = ClassGapStats {
            operator: GapStats::of(&operator),
            server: GapStats::of(&server),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn gamma_fits_well_and_failures_are_not_memoryless() {
        let ds = testutil::dataset();
        for kind in MachineKind::ALL {
            let a = analyze(ds, kind).expect("enough gaps");
            // The paper's headline: inter-failure times are NOT exponential
            // and the heavy-tail families (Gamma in particular) fit well.
            let best = a.fits.best();
            assert_ne!(best.dist.family(), Family::Exponential, "{kind}");
            let gamma = a.fits.for_family(Family::Gamma).expect("gamma fitted");
            let expo = a.fits.for_family(Family::Exponential).expect("expo fitted");
            assert!(
                gamma.log_likelihood > expo.log_likelihood,
                "{kind}: gamma {} vs exponential {}",
                gamma.log_likelihood,
                expo.log_likelihood
            );
            // Gamma stays in the same ballpark as the winning family. (On
            // our synthetic gaps Log-normal/Weibull edge Gamma out by
            // ~0.1–0.2 nats per gap — the simulator's day-granular
            // recurrence clock bounds burst gaps away from zero, which the
            // paper's event-granular data does not; see EXPERIMENTS.md.)
            let gap = (best.log_likelihood - gamma.log_likelihood).abs();
            assert!(
                gap <= 0.25 * a.fits.n as f64,
                "{kind}: gamma trails best by {gap} over {} gaps",
                a.fits.n
            );
            // VM mean inter-failure ≈ 37 days in the paper; accept a band.
            assert!(
                a.mean_days > 10.0 && a.mean_days < 120.0,
                "{kind}: mean gap {}",
                a.mean_days
            );
            // Burstiness ⇒ fitted gamma shape < 1.
            if let dcfail_stats::fit::FittedDist::Gamma(g) = gamma.dist {
                assert!(g.shape() < 1.2, "{kind}: gamma shape {}", g.shape());
            }
        }
    }

    #[test]
    fn majority_of_failing_vms_fail_once() {
        let ds = testutil::dataset();
        let a = analyze(ds, MachineKind::Vm).unwrap();
        // Paper: roughly 60% of VMs have only a single failure.
        assert!(
            a.single_failure_fraction > 0.4 && a.single_failure_fraction < 0.8,
            "single-failure fraction {}",
            a.single_failure_fraction
        );
    }

    #[test]
    fn ecdf_covers_gap_range() {
        let ds = testutil::dataset();
        let a = analyze(ds, MachineKind::Pm).unwrap();
        assert_eq!(a.ecdf.len(), a.gaps_days.len());
        assert!(a.gaps_days.iter().all(|&g| g > 0.0));
        assert_eq!(a.ecdf.eval(f64::MAX), 1.0);
    }

    #[test]
    fn table3_operator_gaps_are_much_shorter_than_server_gaps() {
        let ds = testutil::dataset();
        let t3 = table3(ds, ClassSource::Reported);
        // For the high-volume classes the estate sees failures far more
        // often than any single server does. (For sparse classes like
        // network, our per-server gaps are burst-dominated, so the contrast
        // is only guaranteed where the paper's is strongest.)
        for class in [
            FailureClass::Software,
            FailureClass::Reboot,
            FailureClass::Other,
        ] {
            let stats = t3[class.index()];
            let (Some(op), Some(srv)) = (stats.operator, stats.server) else {
                continue;
            };
            assert!(
                op.mean < srv.mean,
                "{class}: operator {} vs server {}",
                op.mean,
                srv.mean
            );
        }
        // In aggregate the effect is enormous: estate-wide consecutive
        // failures are hours apart, per-server gaps are weeks apart.
        let all_operator: Vec<f64> = {
            let mut prev: Option<f64> = None;
            let mut gaps = Vec::new();
            for ev in ds.events() {
                let t = ev.at().as_days();
                if let Some(p) = prev {
                    if t > p {
                        gaps.push(t - p);
                    }
                }
                prev = Some(t);
            }
            gaps
        };
        let op_mean = all_operator.iter().sum::<f64>() / all_operator.len() as f64;
        let srv = per_server_gaps_days(ds, None, None);
        let srv_mean = srv.iter().sum::<f64>() / srv.len() as f64;
        assert!(op_mean * 10.0 < srv_mean, "op {op_mean} vs srv {srv_mean}");
    }

    #[test]
    fn software_is_least_reliable_classified_class_for_operators() {
        let ds = testutil::dataset();
        let t3 = table3(ds, ClassSource::Truth);
        let sw = t3[FailureClass::Software.index()].operator.unwrap();
        let hw = t3[FailureClass::Hardware.index()].operator.unwrap();
        let net = t3[FailureClass::Network.index()].operator.unwrap();
        // Paper: software gaps are shortest (2.84 d), network longest
        // (10.27 d) among classified classes.
        assert!(sw.mean < hw.mean, "sw {} vs hw {}", sw.mean, hw.mean);
        assert!(sw.mean < net.mean, "sw {} vs net {}", sw.mean, net.mean);
    }

    #[test]
    fn censored_analysis_corrects_the_naive_bias() {
        let ds = testutil::dataset();
        for kind in MachineKind::ALL {
            let c = analyze_censored(ds, kind).expect("enough observations");
            // Most failing servers fail once ⇒ censoring dominates.
            assert!(
                c.censored_share > 0.4,
                "{kind}: censored share {}",
                c.censored_share
            );
            // The KM median (when reached) must exceed the naive gaps-only
            // median: dropping survivors biases gaps downward.
            if let (Some(km), Some(naive)) = (c.km_median_days, c.naive_median_days) {
                assert!(km >= naive, "{kind}: KM median {km} vs naive {naive}");
            }
            // Survival curve is a proper survival curve.
            assert!(c.km.survival_at(0.0) <= 1.0);
            assert!(c.km.survival_at(1e9) >= 0.0);
        }
    }

    #[test]
    fn gaps_are_positive_and_within_horizon() {
        let ds = testutil::tiny();
        let gaps = per_server_gaps_days(ds, None, None);
        assert!(gaps.iter().all(|&g| g > 0.0 && g < 365.0));
    }

    /// Asserts that `gaps` are the positive steps of the sorted `times`:
    /// one per strictly later time, summing to the span they cover.
    fn assert_gaps_telescope(gaps: &[f64], times: &[SimTime], what: &str) {
        let steps = times.windows(2).filter(|w| w[1] > w[0]).count();
        assert_eq!(gaps.len(), steps, "{what}");
        assert!(gaps.iter().all(|&g| g > 0.0), "{what}");
        let span = match (times.first(), times.last()) {
            (Some(&first), Some(&last)) => (last - first).as_days(),
            _ => 0.0,
        };
        let sum: f64 = gaps.iter().sum();
        assert!(
            (sum - span).abs() <= 1e-9 * span.max(1.0),
            "{what}: {sum} vs {span}"
        );
    }

    #[test]
    fn operator_gaps_telescope_to_the_span_of_each_class() {
        let ds = testutil::dataset();
        for source in [ClassSource::Reported, ClassSource::Truth] {
            for class in FailureClass::ALL {
                let times: Vec<SimTime> = ds
                    .events()
                    .iter()
                    .filter(|e| source.class_of(e) == class)
                    .map(FailureEvent::at)
                    .collect();
                let gaps = operator_gaps_days(ds, class, source);
                assert_gaps_telescope(&gaps, &times, &format!("{class:?} {source:?}"));
            }
        }
    }

    #[test]
    fn server_gaps_telescope_per_machine() {
        let ds = testutil::dataset();
        for kind in MachineKind::ALL {
            let mut want = Vec::new();
            for (machine, _) in ds.failing_machines() {
                if ds.machine(machine).kind() == kind {
                    want.push(
                        ds.events_for(machine)
                            .map(FailureEvent::at)
                            .collect::<Vec<_>>(),
                    );
                }
            }
            let gaps = per_server_gaps_days(ds, Some(kind), None);
            let mut at = 0;
            for times in &want {
                let steps = times.windows(2).filter(|w| w[1] > w[0]).count();
                assert_gaps_telescope(&gaps[at..at + steps], times, &format!("{kind:?}"));
                at += steps;
            }
            assert_eq!(at, gaps.len(), "{kind:?}");
        }
    }

    #[test]
    fn analyze_returns_none_for_missing_population() {
        // A dataset with almost no events per kind: use class filter that
        // yields nothing instead.
        let ds = testutil::tiny();
        let gaps = per_server_gaps_days(
            ds,
            Some(MachineKind::Vm),
            Some((FailureClass::Power, ClassSource::Truth)),
        );
        // Few or no power gaps on VMs in a tiny run; at minimum the call is
        // well-formed and nonnegative.
        assert!(gaps.iter().all(|&g| g > 0.0));
    }
}
