//! One runner per paper artifact.
//!
//! Each runner computes the corresponding analysis from `dcfail-core`,
//! renders an aligned-text report with the paper's reference values inline,
//! and emits a CSV series for plotting.

use crate::table::{fmt2, fmt_opt, fmt_pct, fmt_rate, TextTable};
use dcfail_core::curve::AttributeCurve;
use dcfail_core::panel::{self, PanelCurve};
use dcfail_core::{age, class_mix, interfailure, rates, recurrence, repair, spatial, ClassSource};
use dcfail_model::prelude::*;
use dcfail_stats::digest::fnv1a;
use dcfail_stats::merge::Mergeable;
use std::fmt::Write as _;

/// A rendered experiment report.
///
/// Serializable so front-ends (the `repro` CLI's `--json` mode and the
/// dcfail-serve daemon) can ship it inside the versioned
/// [`Envelope`](crate::envelope::Envelope) with byte-identical payloads.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Rendered {
    /// Report title.
    pub title: String,
    /// Human-readable report text.
    pub text: String,
    /// Machine-readable CSV of the main series, when applicable.
    pub csv: Option<String>,
}

/// FNV-1a over `id:text\n{csv:?}\n` of each report, in order — the format
/// `tests/golden_report.rs` pins, so sharded, resumed and streamed digests
/// compare byte for byte with batch ones.
pub fn reports_digest<D: std::fmt::Display>(reports: &[(D, Rendered)]) -> u64 {
    fnv1a(
        reports
            .iter()
            .map(|(id, rendered)| format!("{id}:{}\n{:?}\n", rendered.text, rendered.csv)),
    )
}

/// Table I: scope comparison with related work (static, from the paper).
pub(crate) fn table1_impl() -> Rendered {
    let mut t = TextTable::new(vec![
        "Scope",
        "[4] HPC",
        "[5] HPC",
        "[2] Laptops",
        "[3] DC",
        "Ours DC VM/PM",
    ]);
    t.row(vec!["Hardware failures", "yes", "yes", "yes", "yes", "yes"]);
    t.row(vec!["Software failures", "yes", "yes", "no", "no", "yes"]);
    t.row(vec!["Power failures", "yes", "yes", "no", "no", "yes"]);
    t.row(vec!["Capacity factors", "no", "no", "yes", "yes", "yes"]);
    t.row(vec!["Usage factors", "no", "no", "yes", "no", "yes"]);
    t.row(vec!["Age factors", "yes", "no", "yes", "yes", "yes"]);
    t.row(vec!["Repair time", "yes", "no", "no", "yes", "yes"]);
    Rendered {
        title: "Table I — study scope vs related work (static)".into(),
        csv: Some(t.to_csv()),
        text: t.render(),
    }
}

/// Table II: dataset statistics per subsystem.
pub(crate) fn table2_impl(dataset: &FailureDataset) -> Rendered {
    let stats = dataset.subsystem_stats();
    let mut t = TextTable::new(vec![
        "",
        "PMs",
        "VMs",
        "All tickets",
        "% crash",
        "% crash (PMs)",
        "% crash (VMs)",
    ]);
    for s in &stats {
        t.row(vec![
            s.name.clone(),
            s.pms.to_string(),
            s.vms.to_string(),
            s.all_tickets.to_string(),
            fmt_pct(s.crash_pct()),
            fmt_pct(s.crash_pm_pct()),
            fmt_pct(s.crash_vm_pct()),
        ]);
    }
    let text = format!(
        "{}\npaper reference (at scale 1.0): PMs 463/2025/1114/717/810, \
         VMs 1320/52/1971/313/636, crash share 6.9/0.85/2/1.3/3.3 %\n",
        t.render()
    );
    Rendered {
        title: "Table II — dataset statistics".into(),
        csv: Some(t.to_csv()),
        text,
    }
}

/// Fig. 1: crash-ticket distribution across failure classes per subsystem.
pub(crate) fn fig1_impl(dataset: &FailureDataset) -> Rendered {
    let mix = class_mix::class_mix(dataset, ClassSource::Reported);
    let mut t = TextTable::new(vec![
        "",
        "HW",
        "Net",
        "Power",
        "Reboot",
        "SW",
        "other share",
    ]);
    for s in mix
        .per_subsystem
        .iter()
        .chain(std::iter::once(&mix.overall))
    {
        let share = |c: FailureClass| fmt_pct(100.0 * s.classified_shares[c.index()]);
        t.row(vec![
            s.name.clone(),
            share(FailureClass::Hardware),
            share(FailureClass::Network),
            share(FailureClass::Power),
            share(FailureClass::Reboot),
            share(FailureClass::Software),
            fmt_pct(100.0 * s.other_share),
        ]);
    }
    let text = format!(
        "{}\npaper reference: software+reboot dominate classified tickets; \
         Sys V power-heavy (29%), Sys III power-free; other = 53% overall\n",
        t.render()
    );
    Rendered {
        title: "Fig. 1 — ticket distribution across failure classes".into(),
        csv: Some(t.to_csv()),
        text,
    }
}

/// Fig. 2: weekly failure rates of PMs and VMs.
pub(crate) fn fig2_impl(dataset: &FailureDataset) -> Rendered {
    let f = rates::weekly_failure_rates(dataset);
    let mut t = TextTable::new(vec!["group", "mean", "p25", "p75", "machines", "events"]);
    let mut push = |label: String, s: Option<rates::RateSummary>| {
        t.row(vec![
            label,
            fmt_opt(s, |s| fmt_rate(s.mean)),
            fmt_opt(s, |s| fmt_rate(s.p25)),
            fmt_opt(s, |s| fmt_rate(s.p75)),
            fmt_opt(s, |s| s.n_machines.to_string()),
            fmt_opt(s, |s| s.total_events.to_string()),
        ]);
    };
    push("All PM".into(), f.all_pm);
    push("All VM".into(), f.all_vm);
    for sys in &f.per_subsystem {
        push(format!("{} PM", sys.name), sys.pm);
        push(format!("{} VM", sys.name), sys.vm);
    }
    let missing = f.estate().err().map_or(String::new(), |m| format!("{m}; "));
    let text = format!(
        "{}\nmeasured weekly failure rate: PM {} vs VM {} ({missing}paper: 0.005 vs 0.003, PMs ≈ +40%)\n",
        t.render(),
        fmt_opt(f.all_pm, |s| fmt_rate(s.mean)),
        fmt_opt(f.all_vm, |s| fmt_rate(s.mean)),
    );
    Rendered {
        title: "Fig. 2 — weekly failure rates (PM vs VM)".into(),
        csv: Some(t.to_csv()),
        text,
    }
}

fn fit_lines(fits: &dcfail_stats::fit::ModelSelection) -> String {
    let mut s = String::new();
    for r in &fits.ranked {
        let _ = writeln!(
            s,
            "  {:<12} {}  loglik={:.1}  aic={:.1}",
            r.dist.family().name(),
            r.dist.params(),
            r.log_likelihood,
            r.aic
        );
    }
    s
}

/// Fig. 3: inter-failure time CDFs and fits.
pub(crate) fn fig3_impl(dataset: &FailureDataset) -> Rendered {
    let mut text = String::new();
    let mut t = TextTable::new(vec!["days", "PM cdf", "VM cdf"]);
    let pm = interfailure::analyze(dataset, MachineKind::Pm);
    let vm = interfailure::analyze(dataset, MachineKind::Vm);
    if let (Some(pm), Some(vm)) = (&pm, &vm) {
        for i in 0..=20 {
            let d = 300.0 * i as f64 / 20.0;
            t.row(vec![fmt2(d), fmt2(pm.ecdf.eval(d)), fmt2(vm.ecdf.eval(d))]);
        }
        text.push_str(&t.render());
        let _ = write!(
            text,
            "\nPM: mean gap {:.1} d, {} gaps, single-failure share {:.0}%; fits:\n{}",
            pm.mean_days,
            pm.gaps_days.len(),
            100.0 * pm.single_failure_fraction,
            fit_lines(&pm.fits)
        );
        let _ = write!(
            text,
            "VM: mean gap {:.1} d, {} gaps, single-failure share {:.0}%; fits:\n{}",
            vm.mean_days,
            vm.gaps_days.len(),
            100.0 * vm.single_failure_fraction,
            fit_lines(&vm.fits)
        );
        text.push_str(
            "paper reference: Gamma fits best, VM mean 37.22 d; ~60% of VMs fail only once\n",
        );
    } else {
        text.push_str("not enough gaps to analyze\n");
    }
    Rendered {
        title: "Fig. 3 — inter-failure time CDF and fits".into(),
        csv: Some(t.to_csv()),
        text,
    }
}

/// Table III: inter-failure times per class, operator vs server view.
pub(crate) fn table3_impl(dataset: &FailureDataset) -> Rendered {
    let t3 = interfailure::table3(dataset, ClassSource::Reported);
    let mut t = TextTable::new(vec!["view", "HW", "Net", "Power", "Reboot", "SW", "Other"]);
    let row = |view: &str, f: &dyn Fn(interfailure::ClassGapStats) -> Option<f64>| {
        let mut cells = vec![view.to_string()];
        for class in FailureClass::ALL {
            cells.push(fmt_opt(f(t3[class.index()]), fmt2));
        }
        cells
    };
    t.row(row("operator mean", &|s| s.operator.map(|g| g.mean)));
    t.row(row("operator median", &|s| s.operator.map(|g| g.median)));
    t.row(row("server mean", &|s| s.server.map(|g| g.mean)));
    t.row(row("server median", &|s| s.server.map(|g| g.median)));
    let text = format!(
        "{}\npaper reference (days): operator mean 9.21/10.27/7.6/3.63/2.84/1.12, \
         server mean 59.46/65.68/57.60/54.59/21.58/30.01; software shortest\n",
        t.render()
    );
    Rendered {
        title: "Table III — inter-failure times by root cause (days)".into(),
        csv: Some(t.to_csv()),
        text,
    }
}

/// Fig. 4: repair-time CDFs and fits.
pub(crate) fn fig4_impl(dataset: &FailureDataset) -> Rendered {
    let mut text = String::new();
    let mut t = TextTable::new(vec!["hours", "PM cdf", "VM cdf"]);
    let pm = repair::analyze(dataset, MachineKind::Pm);
    let vm = repair::analyze(dataset, MachineKind::Vm);
    if let (Some(pm), Some(vm)) = (&pm, &vm) {
        for &h in &[
            0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 48.0, 96.0, 168.0, 336.0,
        ] {
            t.row(vec![fmt2(h), fmt2(pm.ecdf.eval(h)), fmt2(vm.ecdf.eval(h))]);
        }
        text.push_str(&t.render());
        let _ = write!(
            text,
            "\nPM: mean {:.1} h over {} repairs; fits:\n{}",
            pm.mean_hours,
            pm.hours.len(),
            fit_lines(&pm.fits)
        );
        let _ = write!(
            text,
            "VM: mean {:.1} h over {} repairs; fits:\n{}",
            vm.mean_hours,
            vm.hours.len(),
            fit_lines(&vm.fits)
        );
        text.push_str("paper reference: Log-normal fits best; means 38.5 h (PM) vs 19.6 h (VM)\n");
    } else {
        text.push_str("not enough repairs to analyze\n");
    }
    Rendered {
        title: "Fig. 4 — repair-time CDF and fits".into(),
        csv: Some(t.to_csv()),
        text,
    }
}

/// Table IV: repair times per class.
pub(crate) fn table4_impl(dataset: &FailureDataset) -> Rendered {
    let t4 = repair::table4(dataset, ClassSource::Reported);
    let mut t = TextTable::new(vec!["stat", "HW", "Net", "Power", "Reboot", "SW", "Other"]);
    let row = |label: &str, f: &dyn Fn(repair::RepairStats) -> f64| {
        let mut cells = vec![label.to_string()];
        for class in FailureClass::ALL {
            cells.push(fmt_opt(t4[class.index()], |s| fmt2(f(s))));
        }
        cells
    };
    t.row(row("mean", &|s| s.mean));
    t.row(row("median", &|s| s.median));
    t.row(row("cv", &|s| s.cv));
    let text = format!(
        "{}\npaper reference (hours): mean 80.1/67.6/12.17/18.03/30.0, \
         median 8.28/8.97/0.83/2.27/22.37; software least variable\n",
        t.render()
    );
    Rendered {
        title: "Table IV — repair times by failure class (hours)".into(),
        csv: Some(t.to_csv()),
        text,
    }
}

/// Fig. 5: recurrent failure probabilities.
pub(crate) fn fig5_impl(dataset: &FailureDataset) -> Rendered {
    let mut t = TextTable::new(vec!["kind", "day", "week", "month"]);
    for kind in MachineKind::ALL {
        if let Some(w) = recurrence::fig5(dataset, kind) {
            t.row(vec![
                kind.label().to_string(),
                fmt_rate(w.day),
                fmt_rate(w.week),
                fmt_rate(w.month),
            ]);
        }
    }
    let text = format!(
        "{}\npaper reference: recurrence grows sublinearly with the window; \
         PM above VM (week ≈ 0.22 vs 0.16)\n",
        t.render()
    );
    Rendered {
        title: "Fig. 5 — recurrent failure probabilities".into(),
        csv: Some(t.to_csv()),
        text,
    }
}

/// Table V: random vs recurrent weekly failure probabilities.
pub(crate) fn table5_impl(dataset: &FailureDataset) -> Rendered {
    let t5 = recurrence::table5(dataset);
    let mut t = TextTable::new(
        std::iter::once("row".to_string())
            .chain(t5.columns.iter().cloned())
            .collect::<Vec<_>>(),
    );
    for (kind, cells) in [("PM", &t5.pm), ("VM", &t5.vm)] {
        let mut random = vec![format!("{kind} random")];
        let mut recurrent = vec![format!("{kind} recurrent")];
        let mut ratio = vec![format!("{kind} ratio")];
        for cell in cells {
            random.push(fmt_opt(*cell, |c| fmt_rate(c.random)));
            recurrent.push(fmt_opt(*cell, |c| fmt2(c.recurrent)));
            ratio.push(fmt_opt(cell.and_then(|c| c.ratio()), |r| {
                format!("{r:.1}x")
            }));
        }
        t.row(random);
        t.row(recurrent);
        t.row(ratio);
    }
    let text = format!(
        "{}\npaper reference: All-ratio 35.5x (PM) and 42.1x (VM); \
         VM ratios exceed PM ratios in every subsystem\n",
        t.render()
    );
    Rendered {
        title: "Table V — random vs recurrent weekly failures".into(),
        csv: Some(t.to_csv()),
        text,
    }
}

/// Table VI: incident footprints by machine type.
pub(crate) fn table6_impl(dataset: &FailureDataset) -> Rendered {
    let t6 = spatial::table6(dataset);
    let mut t = TextTable::new(vec!["count scope", "0", "1", ">=2", "dependent share"]);
    for (label, row) in [
        ("PM and VM", t6.both),
        ("PM only", t6.pm_only),
        ("VM only", t6.vm_only),
    ] {
        t.row(vec![
            label.to_string(),
            fmt_pct(row.zero_pct),
            fmt_pct(row.one_pct),
            fmt_pct(row.two_plus_pct),
            fmt_pct(100.0 * row.dependent_share()),
        ]);
    }
    let text = format!(
        "{}\npaper reference: 78% of incidents hit one server, 22% several; \
         dependent share ≈ 26% (VM) vs ≈ 16% (PM)\n",
        t.render()
    );
    Rendered {
        title: "Table VI — incidents by number of affected servers".into(),
        csv: Some(t.to_csv()),
        text,
    }
}

/// Table VII: incident footprint by failure class.
pub(crate) fn table7_impl(dataset: &FailureDataset) -> Rendered {
    let t7 = spatial::table7(dataset, ClassSource::Reported);
    let mut t = TextTable::new(vec!["stat", "HW", "Net", "Power", "Reboot", "SW", "Other"]);
    let row = |label: &str, f: &dyn Fn(spatial::FootprintStats) -> String| {
        let mut cells = vec![label.to_string()];
        for class in FailureClass::ALL {
            cells.push(fmt_opt(t7[class.index()], f));
        }
        cells
    };
    t.row(row("mean", &|s| fmt2(s.mean)));
    t.row(row("max", &|s| s.max.to_string()));
    t.row(row("incidents", &|s| s.incidents.to_string()));
    let text = format!(
        "{}\npaper reference: mean 1.2/1.5/2.7/1.1/1.7, max 10/9/21/15/10 — \
         power has the largest footprint\n",
        t.render()
    );
    Rendered {
        title: "Table VII — servers involved per incident by class".into(),
        csv: Some(t.to_csv()),
        text,
    }
}

/// Fig. 6: VM failures vs age.
pub(crate) fn fig6_impl(dataset: &FailureDataset) -> Rendered {
    let Some(a) = age::analyze(dataset) else {
        return Rendered {
            title: "Fig. 6 — VM failures vs age".into(),
            text: "not enough aged VM failures\n".into(),
            csv: None,
        };
    };
    let mut t = TextTable::new(vec!["age (days)", "cdf", "pdf"]);
    for &(center, dens) in &a.density {
        t.row(vec![
            fmt2(center),
            fmt2(a.ecdf.eval(center)),
            format!("{dens:.6}"),
        ]);
    }
    let text = format!(
        "{}\nmax CDF deviation from diagonal: {:.3}; density trend slope {:+.2e}/day; \
         KS-vs-uniform D = {:.3}; known-age failures {:.0}%\n\
         paper reference: CDF close to diagonal (no bathtub), weak positive trend\n",
        t.render(),
        a.max_diagonal_gap,
        a.trend_slope,
        a.uniform_ks.statistic,
        100.0 * a.known_age_fraction
    );
    Rendered {
        title: "Fig. 6 — VM failures vs age".into(),
        csv: Some(t.to_csv()),
        text,
    }
}

fn curve_table(curves: &[(&str, &AttributeCurve)]) -> String {
    let mut out = String::new();
    for (label, curve) in curves {
        let mut t = TextTable::new(vec!["bucket", "mean", "p25", "p75", "mach-wks", "events"]);
        for p in &curve.points {
            t.row(vec![
                p.label.clone(),
                fmt_rate(p.mean),
                fmt_rate(p.p25),
                fmt_rate(p.p75),
                p.machine_weeks.to_string(),
                p.events.to_string(),
            ]);
        }
        let _ = writeln!(out, "[{label}] ({})", curve.attribute);
        out.push_str(&t.render());
        if let Some(range) = curve.dynamic_range() {
            let _ = writeln!(out, "dynamic range: {range:.1}x");
        }
        out.push('\n');
    }
    out
}

fn curves_csv(curves: &[(&str, &AttributeCurve)]) -> String {
    let mut t = TextTable::new(vec!["panel", "bucket", "mean", "p25", "p75"]);
    for (label, curve) in curves {
        for p in &curve.points {
            t.row(vec![
                label.to_string(),
                p.label.clone(),
                fmt_rate(p.mean),
                fmt_rate(p.p25),
                fmt_rate(p.p75),
            ]);
        }
    }
    t.to_csv()
}

/// A Fig. 7–10 figure: the number its panels carry, and the text around
/// their curves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Figure {
    /// The [`Panel::figure`](dcfail_core::panel::Panel::figure) of the
    /// figure's panels.
    pub(crate) number: u8,
    pub(crate) title: &'static str,
    /// Printed before a share panel's population shares.
    pub(crate) share_label: &'static str,
    /// The paper reference, printed last.
    pub(crate) reference: &'static str,
}

impl Figure {
    /// The figure's finalized panels, counted over `dataset` by the panel
    /// kernel (`panel::observe_dataset`).
    pub(crate) fn count(&self, dataset: &FailureDataset) -> Vec<PanelCurve> {
        let (counts, binned) = panel::observe_dataset(dataset, |p| p.figure == self.number);
        dcfail_obs::add("panel.values_binned", binned);
        counts.finalize()
    }
}

/// Renders `figure` from finalized panels (any set holding its panels):
/// the curve tables, then the population shares of a share panel after its
/// share label, then the paper reference. Every front door renders Figs.
/// 7–10 through here.
pub(crate) fn render_figure(figure: &Figure, panels: &[PanelCurve]) -> Rendered {
    let panels: Vec<&PanelCurve> = panels
        .iter()
        .filter(|p| p.panel.figure == figure.number)
        .collect();
    let curves: Vec<(&str, &AttributeCurve)> =
        panels.iter().map(|p| (p.panel.name, &p.curve)).collect();
    let mut text = curve_table(&curves);
    text.push_str(figure.share_label);
    for (label, share) in panels.iter().flat_map(|p| &p.shares) {
        let _ = write!(text, "{label}: {:.1}%  ", 100.0 * share);
    }
    text.push_str(figure.reference);
    Rendered {
        title: figure.title.into(),
        csv: Some(curves_csv(&curves)),
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentId, RunConfig};
    use dcfail_synth::Scenario;
    use std::sync::OnceLock;

    fn dataset() -> &'static FailureDataset {
        static DS: OnceLock<FailureDataset> = OnceLock::new();
        DS.get_or_init(|| Scenario::paper().seed(5).scale(0.2).build().into_dataset())
    }

    #[test]
    fn every_runner_produces_text_and_csv() {
        let ds = dataset();
        let config = RunConfig::default();
        let rendered = ExperimentId::PAPER.map(|id| crate::run(id, ds, &config));
        for r in rendered {
            assert!(!r.title.is_empty());
            assert!(r.text.len() > 50, "{}: text too short", r.title);
            if let Some(csv) = &r.csv {
                assert!(csv.lines().count() >= 2, "{}: empty csv", r.title);
            }
        }
    }

    fn rendered(text: &str, csv: Option<&str>) -> Rendered {
        Rendered {
            title: String::new(),
            text: text.to_string(),
            csv: csv.map(str::to_string),
        }
    }

    /// FNV-1a over raw bytes, written out independently of `reports_digest`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn reports_digest_folds_id_text_and_csv_as_one_stream() {
        let reports = [
            ("fig2", rendered("rates\n", Some("a,b\n1,2\n"))),
            ("table1", rendered("scope\n", None)),
        ];
        let stream = "fig2:rates\n\nSome(\"a,b\\n1,2\\n\")\ntable1:scope\n\nNone\n";
        assert_eq!(reports_digest(&reports), fnv1a(stream.as_bytes()));
        // The title is presentation only and stays out of the digest.
        let mut retitled = reports.clone();
        retitled[0].1.title = "Figure 2".into();
        assert_eq!(reports_digest(&retitled), reports_digest(&reports));
    }

    #[test]
    fn reports_digest_tracks_order_ids_and_payload() {
        let a = ("fig8", rendered("x\n", Some("c\n")));
        let b = ("fig9", rendered("y\n", None));
        let base = reports_digest(&[a.clone(), b.clone()]);
        assert_ne!(reports_digest(&[b.clone(), a.clone()]), base, "order");
        let renamed = ("fig10", a.1.clone());
        assert_ne!(reports_digest(&[renamed, b.clone()]), base, "id");
        let no_csv = ("fig8", rendered("x\n", None));
        assert_ne!(reports_digest(&[no_csv, b]), base, "csv");
        let none: [(&str, Rendered); 0] = [];
        assert_eq!(
            reports_digest(&none),
            fnv1a(b""),
            "empty is the offset basis"
        );
    }

    #[test]
    fn fig2_report_mentions_rates() {
        let r = fig2_impl(dataset());
        assert!(r.text.contains("All PM"));
        assert!(r.text.contains("paper"));
    }

    #[test]
    fn fig2_prints_a_dash_for_a_group_without_failures() {
        let ds = Scenario::paper()
            .seed(0)
            .scale(0.004)
            .build()
            .into_dataset();
        let r = fig2_impl(&ds);
        let vm_row = r.text.lines().find(|l| l.starts_with("All VM")).unwrap();
        assert!(
            vm_row.split_whitespace().skip(2).all(|cell| cell == "-"),
            "{vm_row}"
        );
        assert!(
            r.text.contains(" vs VM - (no VM failures; paper:"),
            "{}",
            r.text
        );
        assert!(r.csv.unwrap().contains("All VM,-,-,-,-,-"));
    }

    #[test]
    fn table5_report_has_ratios() {
        let r = table5_impl(dataset());
        assert!(r.text.contains("PM ratio"));
        assert!(r.text.contains('x'));
    }

    #[test]
    fn fig7_reports_all_panels() {
        let r = crate::run(ExperimentId::Fig7, dataset(), &RunConfig::default());
        for panel in [
            "7a PM cpu",
            "7a VM cpu",
            "7b PM mem",
            "7b VM mem",
            "7c",
            "7d",
        ] {
            assert!(r.text.contains(panel), "missing {panel}");
        }
    }
}
