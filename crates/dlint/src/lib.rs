//! # dcfail-dlint
//!
//! A determinism lint pass over the dcfail workspace's own Rust source.
//!
//! The workspace's core contract — parallel == sequential bit-for-bit, obs
//! on/off identical, shard == monolithic byte-identical — is enforced at
//! runtime by equivalence tests, which catch a violation only on the inputs
//! they happen to exercise. dlint turns the same invariants into build-time
//! source guarantees: it scans every crate with a hand-rolled
//! comment/string-blanking lexer (no `syn`, no new dependencies) and flags
//! the constructs that historically break reproducibility — unordered
//! iteration, NaN-sensitive comparators, wall-clock reads, ambient
//! randomness, unforked RNG captures in parallel closures, bare float
//! accumulation, and untested merge operators — and public functions that
//! nothing but a test calls.
//!
//! Findings use the same Error/Warn/Info report machinery as `dcfail-audit`
//! (via `dcfail-findings`) and render as text or versioned JSON. Real
//! exceptions are declared inline:
//!
//! ```text
//! // dlint::allow(D03): obs-gated timer; never reaches analysis output
//! ```
//!
//! The reason is mandatory — an empty reason is itself a finding (D11).
//! Pre-existing debt lives in `dlint.baseline` at the workspace root, which
//! may only shrink; a stale entry is a finding (D12). The file ships empty.
//!
//! ```
//! let report = dcfail_dlint::Corpus::from_sources([(
//!     "crates/core/src/demo.rs",
//!     "use std::collections::HashMap;\n",
//! )])
//! .lint_with_baseline(&dcfail_dlint::Baseline::default());
//! assert!(report.report.find(dcfail_dlint::LintRule::D01).is_some());
//! ```
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod baseline;
mod rules;
mod scan;

pub use baseline::{Baseline, BaselineEntry};
pub use dcfail_findings::{Diagnostic as GenericDiagnostic, Report, Severity};
pub use rules::FileCtx;
pub use scan::ScannedFile;

use serde::{Deserialize, Serialize};
use std::path::Path;

/// One dlint finding (a [`LintRule`] plus `path:line` subject).
pub type Diagnostic = dcfail_findings::Diagnostic<LintRule>;

/// JSON schema version emitted in [`LintReport`] output.
pub const SCHEMA_VERSION: u32 = 1;

/// Name of the baseline file, resolved against the workspace root.
pub const BASELINE_FILE: &str = "dlint.baseline";

dcfail_findings::rule_catalog! {
    /// Stable identifier of one determinism rule.
    ///
    /// Serializes as the rule code (`"D01"` … `"D17"`). D01–D10 are the
    /// published catalog; D11/D12 police the escape hatches themselves;
    /// D13 guards the crash-safety boundary around checkpoint I/O; D14
    /// guards the fleet-scale perf contract on whole-input scans; D15 guards
    /// the O(slack) memory bound of the streaming ingest engine; D16
    /// confines raw socket I/O to the serve daemon's connection module; D17
    /// keeps public library API to what something other than a test calls.
    LintRule, domain = "dlint" {
        /// Hash collections iterate in randomized order.
        D01 = ("D01", Error,
            "no HashMap/HashSet in digest-bearing crates (core, stats, synth, report, shard, tickets, stream); use BTreeMap/BTreeSet or sorted Vec");
        /// `partial_cmp` is not a total order over floats.
        D02 = ("D02", Error,
            "no partial_cmp-based comparisons or sorts; use f64::total_cmp");
        /// Wall-clock and ambient randomness vary run to run.
        D03 = ("D03", Error,
            "no Instant::now/SystemTime::now/thread_rng/rand::random outside obs, bench and serve");
        /// Environment reads smuggle ambient state into analysis.
        D04 = ("D04", Error,
            "no std::env::var outside the par thread-resolution point");
        /// A shared RNG stream draws in schedule order.
        D05 = ("D05", Error,
            "closures passed to par_map/par_map_index that name an RNG must derive it via fork_index/fork");
        /// Naive float sums depend on merge order.
        D06 = ("D06", Warn,
            "float accumulation in accumulator modules should go through ExactSum/NormAccum, not bare +=");
        /// Belt and suspenders over `forbid(unsafe_code)`.
        D07 = ("D07", Error,
            "no unsafe token anywhere in the workspace");
        /// An untested merge operator is a latent shard-equivalence bug.
        D08 = ("D08", Error,
            "every Mergeable::absorb impl must be exercised by an absorb-law test");
        /// Stray stdout corrupts machine-readable pipelines.
        D09 = ("D09", Error,
            "no println!/eprintln! outside bin, bench and obs");
        /// Estimators accumulate in f64 or not at all.
        D10 = ("D10", Error,
            "no f32 in estimator crates (core, shard, stats, stream) outside the feature-vector pipeline");
        /// Suppressions must say why.
        D11 = ("D11", Error,
            "dlint::allow directives require a nonempty reason and a known rule code");
        /// The baseline may only shrink.
        D12 = ("D12", Warn,
            "baseline entries that no longer match any finding must be removed");
        /// Ambient filesystem writes dodge fault injection and crash testing.
        D13 = ("D13", Error,
            "no direct std::fs mutation (fs::write, File::create, OpenOptions, rename, remove, create_dir) in library crates; route writes through dcfail_ckpt::FaultFs");
        /// Per-log telemetry scans are linear in the sample window and
        /// `score_week` in the event count; a loop over them is a quadratic
        /// fleet-scale path all over again.
        D14 = ("D14", Error,
            "no samples_15min/monthly_transition_rate/score_week calls inside loops in library code; hoist the scan, or use the bulk Telemetry::monthly_transition_rates pass or prediction::evaluate's sweep");
        /// A growable event backlog silently voids the O(slack) bound.
        D15 = ("D15", Error,
            "no growable buffering of feed events (push, push_back, extend or insert of event-like values) in stream library code; park arrivals in the slack-bounded reorder buffer");
        /// Scattered socket I/O dodges the serve daemon's timeout, size-cap
        /// and shutdown policy, which lives in exactly one module.
        D16 = ("D16", Error,
            "no TcpStream in library code outside crates/serve/src/conn.rs; route socket I/O through the serve connection module");
        /// A public function only tests call is API kept for nobody.
        D17 = ("D17", Error,
            "every pub fn in library code needs a caller outside tests (workspace or perfbench/src); delete it, move it behind #[cfg(test)], or allow it with a reason");
    }
}

/// The outcome of one lint pass: findings plus scan accounting, rendered as
/// text or versioned JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct LintReport {
    /// The findings, sorted by (rule, path, line).
    pub report: Report<LintRule>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Findings shielded by inline `dlint::allow` directives.
    pub suppressed: usize,
    /// Findings forgiven by the baseline file.
    pub baselined: usize,
}

impl LintReport {
    /// Number of Error-level findings (the CI gate).
    pub fn error_count(&self) -> usize {
        self.report.error_count()
    }

    /// True when no Error-level finding exists.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }

    /// Renders the report as human-readable text: one line per finding, the
    /// shared summary line, then scan accounting.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.report.render_text();
        let _ = writeln!(
            out,
            "scanned {} file(s); {} finding(s) suppressed inline, {} baselined",
            self.files_scanned, self.suppressed, self.baselined
        );
        out
    }
}

impl Serialize for LintReport {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("schema_version".to_string(), SCHEMA_VERSION.to_value()),
            ("files_scanned".to_string(), self.files_scanned.to_value()),
            ("suppressed".to_string(), self.suppressed.to_value()),
            ("baselined".to_string(), self.baselined.to_value()),
            ("report".to_string(), self.report.to_value()),
        ])
    }
}

impl Deserialize for LintReport {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            value
                .get(name)
                .ok_or_else(|| serde::Error::custom(format!("lint report missing field '{name}'")))
        };
        let version = u32::from_value(field("schema_version")?)?;
        if version != SCHEMA_VERSION {
            return Err(serde::Error::custom(format!(
                "unsupported dlint schema version {version} (expected {SCHEMA_VERSION})"
            )));
        }
        Ok(Self {
            report: Report::from_value(field("report")?)?,
            files_scanned: usize::from_value(field("files_scanned")?)?,
            suppressed: usize::from_value(field("suppressed")?)?,
            baselined: usize::from_value(field("baselined")?)?,
        })
    }
}

/// A set of scanned source files linted as one unit (rules D08 and D17 are
/// cross-file).
#[derive(Debug)]
pub struct Corpus {
    files: Vec<ScannedFile>,
    /// `perfbench/` sources: they count as callers for D17 and no rule
    /// lints them.
    callers: Vec<ScannedFile>,
}

impl Corpus {
    /// Scans in-memory `(path, source)` pairs. Paths should be
    /// workspace-relative with `/` separators — rule scoping keys off them,
    /// and a path under `perfbench/` makes its file a caller only.
    pub fn from_sources<I, P, S>(sources: I) -> Corpus
    where
        I: IntoIterator<Item = (P, S)>,
        P: AsRef<str>,
        S: AsRef<str>,
    {
        let (callers, mut files): (Vec<ScannedFile>, Vec<ScannedFile>) = sources
            .into_iter()
            .map(|(p, s)| ScannedFile::scan(p.as_ref(), s.as_ref()))
            .partition(|f| f.path.starts_with("perfbench/"));
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Corpus { files, callers }
    }

    /// Walks the workspace at `root` and scans every first-party `.rs` file:
    /// `src/`, `examples/`, `tests/` at the root plus each `crates/*`
    /// member, and `perfbench/src/` as callers only. `vendor/`, `target/`
    /// and dlint's own rule fixtures are excluded.
    pub fn from_workspace(root: &Path) -> Result<Corpus, String> {
        let mut sources: Vec<(String, String)> = Vec::new();
        let mut roots: Vec<std::path::PathBuf> = vec![
            root.join("src"),
            root.join("examples"),
            root.join("tests"),
            root.join("perfbench/src"),
        ];
        let crates_dir = root.join("crates");
        let entries = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
        let mut members: Vec<_> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        roots.extend(members);

        for dir in roots {
            collect_rs_files(root, &dir, &mut sources)?;
        }
        if sources.is_empty() {
            return Err(format!(
                "no Rust sources found under {} — is it a workspace root?",
                root.display()
            ));
        }
        Ok(Corpus::from_sources(sources))
    }

    /// Lints the corpus, filtering suppressed findings, applying `baseline`,
    /// and policing the escape hatches (D11, D12).
    pub fn lint_with_baseline(&self, baseline: &Baseline) -> LintReport {
        let mut raw: Vec<rules::RawFinding> = Vec::new();
        for file in &self.files {
            rules::lint_file(file, &mut raw);
        }
        rules::lint_absorb_coverage(&self.files, &mut raw);
        rules::lint_test_only_api(&self.files, &self.callers, &mut raw);

        // Inline suppressions: a matching directive on the finding's line
        // shields it (directives on comment-only lines target the next line;
        // the scanner already resolved that).
        let mut suppressed = 0usize;
        raw.retain(|f| {
            let file = self
                .files
                .iter()
                .find(|s| s.path == f.path)
                .expect("finding refers to scanned file");
            if file.suppression(f.line - 1, f.rule.code()).is_some() {
                suppressed += 1;
                false
            } else {
                true
            }
        });

        // D11: every directive must carry a reason and name a known rule.
        // Test regions are exempt — rule fixtures and scanner tests quote
        // directive syntax in string literals the line scan cannot tell
        // apart from real directives.
        for file in &self.files {
            for d in &file.directives {
                if file.is_test_line(d.directive_line - 1) {
                    continue;
                }
                if LintRule::from_code(&d.code).is_none() {
                    raw.push(rules::RawFinding {
                        rule: LintRule::D11,
                        path: file.path.clone(),
                        line: d.directive_line,
                        message: format!("dlint::allow names unknown rule code '{}'", d.code),
                    });
                } else if d.reason.is_empty() {
                    raw.push(rules::RawFinding {
                        rule: LintRule::D11,
                        path: file.path.clone(),
                        line: d.directive_line,
                        message: format!(
                            "dlint::allow({}) has no reason; justify the exception after a colon",
                            d.code
                        ),
                    });
                }
            }
        }

        // Baseline: forgive up to `count` findings per (rule, path) entry;
        // an entry that forgives nothing is stale (D12).
        let mut baselined = 0usize;
        for entry in &baseline.entries {
            let mut remaining = entry.count;
            let before = raw.len();
            raw.retain(|f| {
                if remaining > 0 && f.rule.code() == entry.rule_code && f.path == entry.path {
                    remaining -= 1;
                    false
                } else {
                    true
                }
            });
            baselined += before - raw.len();
            if remaining > 0 {
                raw.push(rules::RawFinding {
                    rule: LintRule::D12,
                    path: entry.path.clone(),
                    line: 0,
                    message: format!(
                        "baseline entry `{} {} {}` forgives {} finding(s) that no longer occur; shrink the baseline",
                        entry.rule_code, entry.path, entry.count, remaining
                    ),
                });
            }
        }

        raw.sort_by(|a, b| {
            a.rule
                .code()
                .cmp(b.rule.code())
                .then_with(|| a.path.cmp(&b.path))
                .then(a.line.cmp(&b.line))
        });
        let diagnostics = raw
            .into_iter()
            .map(|f| {
                let subject = if f.line == 0 {
                    f.path
                } else {
                    format!("{}:{}", f.path, f.line)
                };
                Diagnostic::new(f.rule, vec![subject], f.message)
            })
            .collect();
        LintReport {
            report: Report::from_diagnostics(diagnostics),
            files_scanned: self.files.len() + self.callers.len(),
            suppressed,
            baselined,
        }
    }
}

/// Recursively collects `.rs` files under `dir` (if it exists) as
/// `(relative-path, contents)`, skipping `target/`, `vendor/` and dlint's
/// own firing fixtures.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<(String, String)>,
) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if matches!(name, "target" | "vendor" | "fixtures") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| format!("{} escapes workspace root", path.display()))?
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            out.push((rel, text));
        }
    }
    Ok(())
}

/// Lints the workspace at `root`, applying `root/dlint.baseline` if present.
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let corpus = Corpus::from_workspace(root)?;
    let baseline = Baseline::load(&root.join(BASELINE_FILE))?;
    Ok(corpus.lint_with_baseline(&baseline))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lints one in-memory file; its own lines are D17's only callers.
    fn lint_source(path: &str, source: &str) -> LintReport {
        Corpus::from_sources([(path, source)]).lint_with_baseline(&Baseline::default())
    }

    #[test]
    fn catalog_covers_d01_through_d17() {
        assert_eq!(LintRule::ALL.len(), 17);
        for (i, rule) in LintRule::ALL.iter().enumerate() {
            assert_eq!(rule.code(), format!("D{:02}", i + 1));
            assert_eq!(LintRule::from_code(rule.code()), Some(*rule));
        }
        assert_eq!(LintRule::from_code("D99"), None);
    }

    #[test]
    fn clean_source_yields_clean_report() {
        let r = lint_source(
            "crates/core/src/demo.rs",
            "use std::collections::BTreeMap;\nfn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n",
        );
        assert!(r.report.is_empty(), "unexpected: {}", r.render_text());
        assert_eq!(r.files_scanned, 1);
    }

    #[test]
    fn report_json_roundtrip_carries_schema_version() {
        let r = lint_source(
            "crates/core/src/demo.rs",
            "use std::collections::HashMap;\n",
        );
        assert!(r.report.find(LintRule::D01).is_some());
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"schema_version\""));
        let back: LintReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let r = lint_source("crates/core/src/demo.rs", "fn f() {}\n");
        let mut json = serde_json::to_string(&r).unwrap();
        json = json.replace("\"schema_version\":1", "\"schema_version\":999");
        assert!(serde_json::from_str::<LintReport>(&json).is_err());
    }

    #[test]
    fn suppression_counts_and_shields() {
        let src =
            "use std::collections::HashMap; // dlint::allow(D01): interop with external map type\n";
        let r = lint_source("crates/core/src/demo.rs", src);
        assert!(r.report.is_empty(), "unexpected: {}", r.render_text());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn empty_reason_fires_d11() {
        let src = "// dlint::allow(D01)\nuse std::collections::HashMap;\n";
        let r = lint_source("crates/core/src/demo.rs", src);
        assert!(r.report.find(LintRule::D11).is_some());
        assert!(
            r.report.find(LintRule::D01).is_none(),
            "suppression still shields"
        );
    }

    #[test]
    fn unknown_code_fires_d11() {
        let src = "// dlint::allow(D77): bogus\nfn f() {}\n";
        let r = lint_source("crates/core/src/demo.rs", src);
        assert!(r.report.find(LintRule::D11).is_some());
    }

    #[test]
    fn baseline_forgives_and_stale_entries_fire_d12() {
        let corpus = Corpus::from_sources([(
            "crates/core/src/demo.rs",
            "use std::collections::HashMap;\n",
        )]);
        let b = Baseline::parse("D01 crates/core/src/demo.rs 2\n").unwrap();
        let r = corpus.lint_with_baseline(&b);
        assert!(
            r.report.find(LintRule::D01).is_none(),
            "baseline forgives the finding"
        );
        assert_eq!(r.baselined, 1);
        assert!(
            r.report.find(LintRule::D12).is_some(),
            "over-forgiving entry is stale"
        );
    }

    #[test]
    fn findings_are_sorted_and_located() {
        let src = "use std::collections::HashSet;\nuse std::collections::HashMap;\n";
        let r = lint_source("crates/stats/src/demo.rs", src);
        let subjects: Vec<_> = r
            .report
            .diagnostics
            .iter()
            .map(|d| d.subjects[0].clone())
            .collect();
        assert_eq!(
            subjects,
            vec!["crates/stats/src/demo.rs:1", "crates/stats/src/demo.rs:2"]
        );
    }

    /// D17 over a library file defining `pub fn histogram` plus `callers`.
    fn d17_with_callers(callers: &[(&str, &str)]) -> LintReport {
        let lib = ("crates/obs/src/report.rs", "pub fn histogram() {}\n");
        Corpus::from_sources(std::iter::once(lib).chain(callers.iter().copied()))
            .lint_with_baseline(&Baseline::default())
    }

    #[test]
    fn d17_counts_a_perfbench_call_and_lints_nothing_there() {
        assert!(d17_with_callers(&[]).report.find(LintRule::D17).is_some());
        let perfbench = (
            "perfbench/src/main.rs",
            "fn main() {\n    dcfail_obs::histogram();\n    println!(\"{:?}\", 1.0f64.partial_cmp(&2.0));\n}\n",
        );
        let r = d17_with_callers(&[perfbench]);
        assert!(r.report.is_empty(), "unexpected: {}", r.render_text());
        assert_eq!(r.files_scanned, 2);
    }

    #[test]
    fn d17_ignores_use_items_and_test_code() {
        let r = d17_with_callers(&[
            ("crates/bench/src/lib.rs", "use dcfail_obs::histogram;\n"),
            (
                "crates/serve/src/lib.rs",
                "pub use dcfail_obs::{\n    histogram,\n};\n",
            ),
            ("crates/obs/tests/t.rs", "fn t() { histogram(); }\n"),
            (
                "crates/stats/src/lib.rs",
                "#[cfg(test)]\nmod tests {\n    fn t() { histogram(); }\n}\n",
            ),
        ]);
        let d = r
            .report
            .find(LintRule::D17)
            .expect("test-only pub fn fires");
        assert_eq!(d.subjects, vec!["crates/obs/src/report.rs:1"]);
    }

    #[test]
    fn d17_a_definition_is_not_a_caller() {
        let r = lint_source(
            "crates/model/src/time.rs",
            "impl A {\n    pub fn days() {}\n}\nimpl B {\n    pub fn days() {}\n}\n",
        );
        let lines: Vec<_> = r
            .report
            .diagnostics
            .iter()
            .map(|d| d.subjects[0].as_str())
            .collect();
        assert_eq!(
            lines,
            ["crates/model/src/time.rs:2", "crates/model/src/time.rs:5"]
        );
    }

    #[test]
    fn d17_skips_bins_and_cfg_test_definitions() {
        let r = lint_source(
            "crates/bench/src/bin/repro.rs",
            "pub fn run() {}\nfn main() {}\n",
        );
        assert!(r.report.is_empty(), "unexpected: {}", r.render_text());
        let r = lint_source(
            "crates/ckpt/src/fs.rs",
            "impl MemFs {\n    /// Test hook.\n    #[cfg(test)]\n    pub fn paths() {}\n}\n",
        );
        assert!(r.report.is_empty(), "unexpected: {}", r.render_text());
    }

    #[test]
    fn d17_checks_pub_const_fn() {
        let r = lint_source(
            "crates/model/src/time.rs",
            "pub const fn minutes() -> i64 {\n    1\n}\n",
        );
        let d = r
            .report
            .find(LintRule::D17)
            .expect("uncalled pub const fn fires");
        assert_eq!(d.subjects, vec!["crates/model/src/time.rs:1"]);
        assert!(d.message.contains("pub fn minutes "), "{}", d.message);
    }

    #[test]
    fn d17_counts_method_calls_paths_and_fn_pointers() {
        for caller in [
            "fn a(r: &Report) -> u64 {\n    r.histogram()\n}\n",
            "fn b() {\n    Report::histogram();\n}\n",
            "fn c(xs: &[u8]) {\n    xs.iter().for_each(histogram);\n}\n",
        ] {
            let r = d17_with_callers(&[("crates/bench/src/lib.rs", caller)]);
            assert!(r.report.is_empty(), "{caller}: {}", r.render_text());
        }
    }

    #[test]
    fn d17_ignores_names_in_comments_and_strings() {
        let r = d17_with_callers(&[(
            "crates/bench/src/lib.rs",
            "// histogram() summarizes a series\nfn label() -> &'static str {\n    \"histogram\"\n}\n",
        )]);
        let d = r
            .report
            .find(LintRule::D17)
            .expect("a mention is not a call");
        assert_eq!(d.subjects, vec!["crates/obs/src/report.rs:1"]);
    }

    #[test]
    fn d17_restricted_visibility_is_neither_checked_nor_a_caller() {
        let r = lint_source(
            "crates/ckpt/src/fs.rs",
            "pub(crate) fn paths() {}\npub(super) fn near() {}\nfn helper() {}\n",
        );
        assert!(r.report.is_empty(), "unexpected: {}", r.render_text());
        let r = d17_with_callers(&[(
            "crates/obs/src/lib.rs",
            "pub(crate) use crate::report::{\n    histogram,\n};\n",
        )]);
        assert!(
            r.report.find(LintRule::D17).is_some(),
            "a re-export is not a call: {}",
            r.render_text()
        );
    }

    #[test]
    fn d17_counts_callers_in_the_root_package_examples_and_bins() {
        for path in [
            "src/lib.rs",
            "examples/quickstart.rs",
            "crates/bench/src/bin/repro.rs",
        ] {
            let r = d17_with_callers(&[(path, "fn run() {\n    dcfail_obs::histogram();\n}\n")]);
            assert!(r.report.is_empty(), "{path}: {}", r.render_text());
        }
    }

    #[test]
    fn d17_only_cfg_test_exempts_a_definition() {
        let r = lint_source(
            "crates/ckpt/src/fs.rs",
            "impl MemFs {\n    #[cfg(test)]\n    #[must_use]\n    pub fn paths() {}\n    #[cfg(not(test))]\n    pub fn real() {}\n    #[cfg(test)]\n    const N: u8 = 1;\n    pub fn after() {}\n}\n",
        );
        let lines: Vec<_> = r
            .report
            .diagnostics
            .iter()
            .map(|d| d.subjects[0].as_str())
            .collect();
        assert_eq!(
            lines,
            ["crates/ckpt/src/fs.rs:6", "crates/ckpt/src/fs.rs:9"]
        );
    }

    #[test]
    fn d05_checks_par_map_index_closures() {
        let shared = "fn f(rng: &StreamRng) -> Vec<u64> {\n    dcfail_par::par_map_index(4, |i| draw(rng) + i as u64)\n}\n";
        let r = lint_source("crates/synth/src/demo.rs", shared);
        assert!(
            r.report.find(LintRule::D05).is_some(),
            "shared stream: {}",
            r.render_text()
        );
        let forked = "fn f(rng: &StreamRng) -> Vec<u64> {\n    dcfail_par::par_map_index(4, |i| draw(&rng.fork_index(i as u64)))\n}\n";
        let r = lint_source("crates/synth/src/demo.rs", forked);
        assert!(
            r.report.find(LintRule::D05).is_none(),
            "forked stream: {}",
            r.render_text()
        );
    }
}
