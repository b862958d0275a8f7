//! The lint pass applied to the workspace that ships it.
//!
//! This is the same gate CI runs via `repro lint`: the tree at head must
//! carry zero Error-level findings and an empty baseline. Every tolerated
//! exception is an inline `dlint::allow` with a reason, not a baseline
//! entry.

use dcfail_dlint::{Baseline, Corpus, LintRule};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_no_error_findings() {
    let report = dcfail_dlint::lint_workspace(&workspace_root()).expect("lint workspace");
    assert!(report.files_scanned > 50, "walker missed the tree");
    assert_eq!(
        report.error_count(),
        0,
        "determinism lint found errors:\n{}",
        report.render_text()
    );
}

#[test]
fn baseline_only_ever_shrinks() {
    // The baseline grandfathers nothing: the workspace went in clean, so any
    // new entry is a regression. This test is the ratchet — adding an entry
    // fails it, and stale entries already fire D12 in the main pass.
    let baseline =
        dcfail_dlint::Baseline::load(&workspace_root().join(dcfail_dlint::BASELINE_FILE))
            .expect("parse baseline");
    assert!(
        baseline.is_empty(),
        "dlint.baseline grew ({} entr{} forgiving {} finding(s)); fix the code or add an inline dlint::allow with a reason instead",
        baseline.entries.len(),
        if baseline.entries.len() == 1 { "y" } else { "ies" },
        baseline.total()
    );
}

#[test]
fn every_inline_suppression_carries_a_reason() {
    let report = dcfail_dlint::lint_workspace(&workspace_root()).expect("lint workspace");
    assert!(
        report.report.find(dcfail_dlint::LintRule::D11).is_none(),
        "suppression hygiene:\n{}",
        report.render_text()
    );
}

/// Every first-party `.rs` file under `dir`, as workspace-relative
/// `(path, source)` pairs — the same tree `repro lint` walks.
fn sources_under(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, "target" | "vendor" | "fixtures") {
                sources_under(root, &path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).expect("under root");
            let text = std::fs::read_to_string(&path).expect("read source");
            out.push((rel.to_string_lossy().replace('\\', "/"), text));
        }
    }
}

#[test]
fn every_d17_allow_is_load_bearing() {
    // Disarm each `allow(D17)` in place (line numbers stay put) and check
    // D17 then fires on the line it shielded: an allow that shields nothing
    // is a stale exception.
    let root = workspace_root().canonicalize().expect("workspace root");
    let mut sources = Vec::new();
    for dir in ["src", "examples", "tests", "perfbench/src", "crates"] {
        sources_under(&root, &root.join(dir), &mut sources);
    }
    let mut shielded = Vec::new();
    for (path, text) in &mut sources {
        let mut disarmed = false;
        for (idx, line) in text.lines().enumerate() {
            let Some(at) = line.find("dlint::allow(D17)") else {
                continue;
            };
            // A directive opens a line comment; a quoted one is test data.
            let before = line[..at].trim_end();
            if !before.ends_with("//") || before.contains('"') {
                continue;
            }
            let comment_only = before.trim_start() == "//";
            let target = if comment_only { idx + 2 } else { idx + 1 };
            shielded.push(format!("{path}:{target}"));
            disarmed = true;
        }
        if disarmed {
            *text = text.replace("dlint::allow(D17)", "dlint-allow-D17-disarmed");
        }
    }
    assert!(
        !shielded.is_empty(),
        "no allow(D17) found; walker missed the tree"
    );
    let report = Corpus::from_sources(sources).lint_with_baseline(&Baseline::default());
    let fired: Vec<&str> = report
        .report
        .diagnostics
        .iter()
        .filter(|d| d.rule == LintRule::D17)
        .flat_map(|d| d.subjects.iter().map(String::as_str))
        .collect();
    for site in &shielded {
        assert!(
            fired.contains(&site.as_str()),
            "allow(D17) shielding {site} is stale; D17 fired at {fired:?}"
        );
    }
}
