//! Tracked performance history behind `repro bench --record` / `--check`.
//!
//! Perf is a contract, not a vibe: `bench/history.jsonl` is a committed
//! JSON-lines file of [`HistoryEntry`] records (one per `--record` run,
//! appended, never rewritten), and `--check` compares the current run's
//! total report time against the most recent entry at the same
//! scale/thread-count, failing the run when it regressed by more than
//! [`REGRESSION_TOLERANCE`]. CI runs the smoke-scale check on every push, so
//! an accidental quadratic path fails the build instead of shipping.
//!
//! Every duration in an entry is read from the spans of one traced
//! [`pipeline::run`](crate::pipeline::run) ([`HistoryEntry::from_run`]), the
//! same spans `repro metrics` prints.

use crate::pipeline::{PipelineRun, REPLAY_SPAN};
use dcfail_obs::MetricsReport;
use dcfail_report::experiments::ExperimentId;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;

/// Where the tracked history lives, relative to the workspace root.
pub const DEFAULT_PATH: &str = "bench/history.jsonl";

/// Maximum tolerated growth of total report time vs. the baseline before
/// `--check` fails: 0.15 = +15%. Narrow enough that reintroducing a
/// quadratic hot path (a multiple, not a percentage) can never slip
/// through.
pub const REGRESSION_TOLERANCE: f64 = 0.15;

/// Absolute grace on top of the relative tolerance: a regression must also
/// exceed the baseline by this many milliseconds before the gate fires.
/// Smoke-scale report times sit in the single-digit milliseconds, where
/// scheduler jitter alone routinely exceeds 15%; a genuine regression of
/// the kind the gate exists for — a reintroduced quadratic path — costs
/// hundreds of milliseconds even at smoke scale and clears this floor
/// everywhere.
pub const NOISE_FLOOR_MS: f64 = 10.0;

/// Per-runner wall-clock milliseconds, as stored in the history file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunnerEntry {
    /// Artifact key (`table1` .. `fig10`).
    pub id: String,
    /// Wall-clock milliseconds of the runner's `report.<key>` span.
    pub ms: f64,
}

/// Streaming-ingest timing, as stored in the history file. `None` in
/// entries recorded before the stream engine existed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamEntry {
    /// Events in the replayed feed.
    pub events: u64,
    /// Wall-clock ms from first ingest through `finish()`.
    pub ingest_ms: f64,
    /// Ingest throughput, events per second.
    pub events_per_sec: f64,
}

/// One recorded bench run: the settings, sizes and span timings that
/// matter for regression tracking, in a shape that round-trips through
/// JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// Short git revision the run measured.
    pub git: String,
    /// Scenario seed.
    pub seed: u64,
    /// Scenario scale (part of the baseline-matching key).
    pub scale: f64,
    /// Worker threads (part of the baseline-matching key).
    pub threads: usize,
    /// Machines in the built dataset — a sanity anchor that the scale meant
    /// the same fleet when the entry was recorded.
    pub machines: usize,
    /// Failure events in the built dataset.
    pub events: usize,
    /// Wall-clock ms of `Scenario::build` (the `synth.build` span).
    pub build_ms: f64,
    /// Wall-clock ms of the parallel report fan-out (the `report.run_all`
    /// span) — what `--check` gates.
    pub report_ms: f64,
    /// Peak RSS (kB) after the monolithic pipeline, when readable.
    pub peak_rss_kb: Option<u64>,
    /// Per-runner wall-clock ms, for diagnosing *where* a regression lives.
    pub runners: Vec<RunnerEntry>,
    /// Streaming-ingest replay timing; `None` in pre-stream entries.
    pub stream: Option<StreamEntry>,
}

impl HistoryEntry {
    /// Projects a traced pipeline run onto its tracked fields. Every
    /// duration comes from `metrics`, the run's collection window:
    /// `build_ms` from `synth.build`, `report_ms` from `report.run_all`, one
    /// runner per `report.<key>` span in [`ExperimentId::ALL`] order, and
    /// the stream replay from [`REPLAY_SPAN`].
    ///
    /// A missing span is an error: a gate that read zeros would pass any
    /// regression.
    pub fn from_run(
        git: String,
        run: &PipelineRun,
        metrics: &MetricsReport,
        peak_rss_kb: Option<u64>,
    ) -> Result<Self, String> {
        let runners = ExperimentId::ALL
            .iter()
            .map(|id| {
                Ok(RunnerEntry {
                    id: id.key().to_string(),
                    ms: stage_ms(metrics, &format!("report.{}", id.key()))?,
                })
            })
            .collect::<Result<_, String>>()?;
        let ingest_ms = stage_ms(metrics, REPLAY_SPAN)?;
        Ok(Self {
            git,
            seed: run.seed,
            scale: run.scale,
            threads: run.threads,
            machines: run.machines,
            events: run.events,
            build_ms: stage_ms(metrics, "synth.build")?,
            report_ms: stage_ms(metrics, "report.run_all")?,
            peak_rss_kb,
            runners,
            stream: Some(StreamEntry {
                events: run.feed_events,
                ingest_ms,
                events_per_sec: run.feed_events as f64 / (ingest_ms / 1e3).max(1e-9),
            }),
        })
    }

    /// True when `other` was measured under the same conditions: identical
    /// scale and thread count. Seed is deliberately not part of the key —
    /// report time depends on dataset *size*, which the scale pins.
    pub fn same_conditions(&self, other: &Self) -> bool {
        self.scale == other.scale && self.threads == other.threads
    }
}

/// Total milliseconds of every span whose leaf name is `stage`. Spans match
/// by leaf, as `MetricsReport::has_stage` does, because work fanned out to
/// `dcfail-par` workers records at the root rather than under its caller.
fn stage_ms(metrics: &MetricsReport, stage: &str) -> Result<f64, String> {
    let spans: Vec<f64> = metrics
        .spans
        .iter()
        .filter(|s| {
            s.path == stage
                || s.path
                    .strip_suffix(stage)
                    .is_some_and(|parent| parent.ends_with('/'))
        })
        .map(|s| s.total_ms)
        .collect();
    if spans.is_empty() {
        return Err(format!("no `{stage}` span recorded in the bench run"));
    }
    Ok(spans.iter().sum())
}

/// The outcome of a `--check` run against the loaded history.
#[derive(Debug, Clone, PartialEq)]
pub enum GateVerdict {
    /// A baseline at matching conditions exists and the current run is
    /// within tolerance of it.
    Pass {
        /// The entry the run was compared against.
        baseline: HistoryEntry,
        /// Current / baseline total report time.
        ratio: f64,
    },
    /// A baseline exists and the current run exceeds it by more than the
    /// tolerance.
    Regression {
        /// The entry the run was compared against.
        baseline: HistoryEntry,
        /// Current / baseline total report time.
        ratio: f64,
    },
    /// The report fan-out held, but the streaming-ingest replay exceeds its
    /// baseline by more than the tolerance (same relative + absolute rule,
    /// applied to `ingest_ms`). Only possible when both entries carry stream
    /// timing — pre-stream baselines never fire this.
    StreamRegression {
        /// The entry the run was compared against.
        baseline: HistoryEntry,
        /// Current / baseline stream ingest time.
        ratio: f64,
    },
    /// No entry in the history matches the current scale/thread count, so
    /// there is nothing to gate against. `--check` treats this as a finding:
    /// a gate that silently passes without a baseline is not a gate.
    NoBaseline,
}

/// Compares `current` against the *last* history entry at matching
/// conditions (the history is append-only, so the last match is the most
/// recently accepted baseline). A regression must exceed the relative
/// `tolerance` *and* the absolute [`NOISE_FLOOR_MS`].
pub fn check(history: &[HistoryEntry], current: &HistoryEntry, tolerance: f64) -> GateVerdict {
    let Some(baseline) = history
        .iter()
        .rev()
        .find(|e| e.same_conditions(current))
        .cloned()
    else {
        return GateVerdict::NoBaseline;
    };
    let ratio = current.report_ms / baseline.report_ms;
    let threshold = baseline.report_ms * (1.0 + tolerance) + NOISE_FLOOR_MS;
    if current.report_ms > threshold {
        return GateVerdict::Regression { baseline, ratio };
    }
    // Stream leg of the gate: same relative + absolute rule on ingest time,
    // gated only when both entries measured the stream replay.
    if let (Some(cur), Some(base)) = (&current.stream, &baseline.stream) {
        let stream_threshold = base.ingest_ms * (1.0 + tolerance) + NOISE_FLOOR_MS;
        if cur.ingest_ms > stream_threshold {
            let stream_ratio = cur.ingest_ms / base.ingest_ms;
            return GateVerdict::StreamRegression {
                baseline,
                ratio: stream_ratio,
            };
        }
    }
    GateVerdict::Pass { baseline, ratio }
}

impl GateVerdict {
    /// Whether the gate failed: a regression, or no baseline to gate against.
    pub fn failed(&self) -> bool {
        !matches!(self, GateVerdict::Pass { .. })
    }

    /// The verdict on `current`, as printed lines. A report regression also
    /// names the three runners that grew most, so the offender is obvious
    /// without rerunning anything.
    pub fn render(&self, current: &HistoryEntry, history_path: &Path) -> String {
        let (GateVerdict::Pass { baseline, ratio }
        | GateVerdict::Regression { baseline, ratio }
        | GateVerdict::StreamRegression { baseline, ratio }) = self
        else {
            return format!(
                "perf gate: NO BASELINE at scale {} with {} threads in {} — record one \
                 with `repro bench --record`\n",
                current.scale,
                current.threads,
                history_path.display()
            );
        };
        let compare = |verdict: &str, what: &str, now: f64, then: f64, rule: &str| {
            format!(
                "perf gate: {verdict} — {what} {now:.1} ms vs baseline {then:.1} ms ({} @ scale \
                 {}, {} threads): {:+.1}% {rule} the {:.0}% + {NOISE_FLOOR_MS:.0} ms tolerance",
                baseline.git,
                current.scale,
                current.threads,
                (ratio - 1.0) * 100.0,
                REGRESSION_TOLERANCE * 100.0
            )
        };
        let (now, then) = (current.report_ms, baseline.report_ms);
        match self {
            GateVerdict::Regression { .. } => {
                let mut growth: Vec<(&str, f64, f64)> = current
                    .runners
                    .iter()
                    .filter_map(|r| {
                        let base = baseline.runners.iter().find(|b| b.id == r.id)?;
                        Some((r.id.as_str(), base.ms, r.ms))
                    })
                    .collect();
                growth.sort_by(|a, b| (b.2 - b.1).total_cmp(&(a.2 - a.1)));
                let mut out = compare("REGRESSION", "report", now, then, "exceeds") + "\n";
                for (id, base_ms, ms) in growth.iter().take(3) {
                    let _ = writeln!(out, "  {id}: {base_ms:.1} ms -> {ms:.1} ms");
                }
                out
            }
            GateVerdict::StreamRegression { .. } => {
                let (cur, base) = (
                    current.stream.as_ref().expect("stream leg fired"),
                    baseline.stream.as_ref().expect("stream leg fired"),
                );
                let line = compare(
                    "STREAM REGRESSION",
                    "ingest",
                    cur.ingest_ms,
                    base.ingest_ms,
                    "exceeds",
                );
                format!(
                    "{line} ({:.2} -> {:.2} M events/s)\n",
                    base.events_per_sec / 1e6,
                    cur.events_per_sec / 1e6
                )
            }
            _ => compare("ok", "report", now, then, "within") + "\n",
        }
    }
}

/// Loads every entry of a JSON-lines history file. A missing file is an
/// empty history (the `--record` bootstrap case); an unparseable line is an
/// error naming the line, because a silently skipped baseline would turn
/// the gate into a no-op.
pub fn load(path: &Path) -> Result<Vec<HistoryEntry>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            serde_json::from_str(line)
                .map_err(|e| format!("{}:{}: bad history entry: {e}", path.display(), i + 1))
        })
        .collect()
}

/// Appends one entry as a single JSON line, creating the file (and its
/// parent directory) on first use.
pub fn append(path: &Path, entry: &HistoryEntry) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            // dlint::allow(D13): the history is a tracked repo artifact written by the repro CLI, not checkpoint state — crash-safety fault injection has nothing to probe here
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let line =
        serde_json::to_string(entry).map_err(|e| format!("cannot serialize history entry: {e}"))?;
    // dlint::allow(D13): append-only write to the tracked perf history, same CLI-artifact exemption as above
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`), or `None` when the file is unavailable (non-Linux).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Short git revision of the checkout at `dir`, or `"nogit"` when it is
/// not a git checkout (export tarballs, vendored checkouts) or git itself
/// is unavailable. Any failure yields `"nogit"` rather than an error: the
/// revision only labels the report.
pub fn git_revision(dir: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "nogit".into(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn entry(scale: f64, threads: usize, report_ms: f64) -> HistoryEntry {
        HistoryEntry {
            git: "abc1234".into(),
            seed: 42,
            scale,
            threads,
            machines: 100,
            events: 1000,
            build_ms: 10.0,
            report_ms,
            peak_rss_kb: Some(50_000),
            runners: vec![RunnerEntry {
                id: "table1".into(),
                ms: report_ms / 2.0,
            }],
            stream: Some(StreamEntry {
                events: 30_000,
                ingest_ms: 20.0,
                events_per_sec: 1_500_000.0,
            }),
        }
    }

    /// A directory of its own for one test, removed when dropped.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(test: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("dcfail-history-{}-{test}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn file(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn append_then_load_round_trips() {
        let scratch = Scratch::new("roundtrip");
        let path = scratch.file("roundtrip.jsonl");
        let a = entry(0.05, 1, 100.0);
        let b = entry(1.0, 8, 200.0);
        append(&path, &a).unwrap();
        append(&path, &b).unwrap();
        assert_eq!(load(&path).unwrap(), vec![a, b]);
    }

    #[test]
    fn missing_file_is_empty_history() {
        let scratch = Scratch::new("missing");
        let path = scratch.file("never-created.jsonl");
        assert_eq!(load(&path).unwrap(), Vec::new());
    }

    #[test]
    fn bad_line_is_an_error_naming_the_line() {
        let scratch = Scratch::new("corrupt");
        let path = scratch.file("corrupt.jsonl");
        append(&path, &entry(0.05, 1, 100.0)).unwrap();
        std::fs::write(
            &path,
            format!("{}not json\n", std::fs::read_to_string(&path).unwrap()),
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains(":2:"), "error names the bad line: {err}");
    }

    #[test]
    fn conditions_are_scale_and_threads_not_seed_or_timings() {
        let base = entry(0.05, 2, 100.0);
        let other_seed = HistoryEntry {
            seed: 7,
            git: "def5678".into(),
            ..entry(0.05, 2, 900.0)
        };
        assert!(base.same_conditions(&other_seed));
        assert!(!base.same_conditions(&entry(0.05, 1, 100.0)));
        assert!(!base.same_conditions(&entry(0.1, 2, 100.0)));
    }

    #[test]
    fn stage_time_sums_every_span_with_that_leaf() {
        let span = |path: &str, total_ms| dcfail_obs::SpanMetric {
            path: path.into(),
            count: 1,
            total_ms,
            minor_faults: None,
        };
        let metrics = MetricsReport {
            schema_version: dcfail_obs::SCHEMA_VERSION,
            spans: vec![
                span("synth.build", 2.0),
                span("run/synth.build", 3.0),
                span("xsynth.build", 100.0),
                span("synth.build/population", 50.0),
            ],
            counters: Vec::new(),
            histograms: Vec::new(),
            warnings: Vec::new(),
        };
        assert_eq!(stage_ms(&metrics, "synth.build"), Ok(5.0));
        assert_eq!(stage_ms(&metrics, "population"), Ok(50.0));
        let err = stage_ms(&metrics, "report.run_all").unwrap_err();
        assert!(err.contains("no `report.run_all` span"), "{err}");
    }

    #[test]
    fn check_matches_last_entry_at_same_conditions() {
        let history = vec![
            entry(0.05, 1, 500.0), // stale baseline, superseded below
            entry(1.0, 8, 150.0),  // different conditions, ignored
            entry(0.05, 1, 100.0),
        ];
        let current = entry(0.05, 1, 110.0);
        match check(&history, &current, REGRESSION_TOLERANCE) {
            GateVerdict::Pass { baseline, ratio } => {
                assert_eq!(baseline.report_ms, 100.0);
                assert!((ratio - 1.1).abs() < 1e-12);
            }
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let history = vec![entry(0.05, 1, 100.0)];
        let slow = entry(0.05, 1, 126.0);
        assert!(matches!(
            check(&history, &slow, REGRESSION_TOLERANCE),
            GateVerdict::Regression { .. }
        ));
        // Just inside the boundary (baseline * 1.15 + the 10 ms floor)
        // still passes: the gate fires on *more than* the threshold.
        let boundary = entry(0.05, 1, 124.9);
        assert!(matches!(
            check(&history, &boundary, REGRESSION_TOLERANCE),
            GateVerdict::Pass { .. }
        ));
    }

    #[test]
    fn noise_floor_absorbs_millisecond_jitter() {
        // Double the time of a 5 ms baseline: +100% relative, but only
        // 5 ms absolute — indistinguishable from scheduler noise on a
        // smoke-scale run, so the gate must not fire.
        let history = vec![entry(0.05, 1, 5.0)];
        let jittery = entry(0.05, 1, 10.0);
        assert!(matches!(
            check(&history, &jittery, REGRESSION_TOLERANCE),
            GateVerdict::Pass { .. }
        ));
        // A reintroduced quadratic path is a multiple *and* clears the
        // floor even at smoke scale.
        let quadratic = entry(0.05, 1, 300.0);
        assert!(matches!(
            check(&history, &quadratic, REGRESSION_TOLERANCE),
            GateVerdict::Regression { .. }
        ));
    }

    #[test]
    fn stream_leg_gates_ingest_time() {
        let history = vec![entry(0.05, 1, 100.0)]; // stream baseline: 20 ms
                                                   // Report time holds, stream ingest triples: the stream leg fires.
        let mut slow_stream = entry(0.05, 1, 100.0);
        slow_stream.stream.as_mut().unwrap().ingest_ms = 60.0;
        match check(&history, &slow_stream, REGRESSION_TOLERANCE) {
            GateVerdict::StreamRegression { ratio, .. } => {
                assert!((ratio - 3.0).abs() < 1e-12);
            }
            other => panic!("expected stream regression, got {other:?}"),
        }
        // A pre-stream current run (or baseline) never fires the stream leg.
        let mut no_stream = entry(0.05, 1, 100.0);
        no_stream.stream = None;
        assert!(matches!(
            check(&history, &no_stream, REGRESSION_TOLERANCE),
            GateVerdict::Pass { .. }
        ));
        // Jitter inside the noise floor passes: 20 ms -> 30 ms is +50%
        // relative but only 10 ms absolute, not *more than* the threshold.
        let mut jitter = entry(0.05, 1, 100.0);
        jitter.stream.as_mut().unwrap().ingest_ms = 30.0;
        assert!(matches!(
            check(&history, &jitter, REGRESSION_TOLERANCE),
            GateVerdict::Pass { .. }
        ));
    }

    #[test]
    fn missing_baseline_is_reported() {
        let history = vec![entry(1.0, 8, 150.0)];
        let current = entry(0.05, 1, 100.0);
        assert_eq!(
            check(&history, &current, REGRESSION_TOLERANCE),
            GateVerdict::NoBaseline
        );
    }

    #[test]
    fn entry_projects_a_traced_run() {
        // The only test in this binary that opens a window. The ablation
        // tests build scenarios at the same time and record into it, so no
        // span total below is asserted exactly.
        let handle = dcfail_obs::ObsHandle::install().expect("no other window in this binary");
        let run = crate::pipeline::run(3, 0.02, 0.05);
        let metrics = handle.finish();
        let run = run.unwrap();
        let entry = HistoryEntry::from_run("test".into(), &run, &metrics, Some(1)).unwrap();
        assert_eq!(entry.git, "test");
        assert_eq!((entry.seed, entry.scale), (3, 0.02));
        assert_eq!(entry.threads, run.threads);
        assert!(entry.machines > 0 && entry.events > 0);
        assert!(entry.build_ms > 0.0 && entry.report_ms > 0.0);
        let ids: Vec<&str> = entry.runners.iter().map(|r| r.id.as_str()).collect();
        let keys: Vec<&str> = ExperimentId::ALL.iter().map(|id| id.key()).collect();
        assert_eq!(ids, keys);
        let stream = entry.stream.clone().unwrap();
        assert_eq!(stream.events, run.feed_events);
        assert!(stream.events > 0 && stream.ingest_ms > 0.0);
        let json = serde_json::to_string(&entry).unwrap();
        let back: HistoryEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, entry);

        // A report without the spans cannot be projected.
        let untraced = MetricsReport {
            spans: Vec::new(),
            ..metrics
        };
        let err = HistoryEntry::from_run("test".into(), &run, &untraced, None).unwrap_err();
        assert!(err.contains("report.table1"), "{err}");
    }

    #[test]
    fn git_revision_falls_back_outside_a_checkout() {
        // A directory that cannot exist: spawning git there fails, which is
        // exactly the "not a checkout" path.
        let rev = git_revision(Path::new("/nonexistent/definitely/not/a/repo"));
        assert_eq!(rev, "nogit");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_on_linux() {
        let hwm = peak_rss_kb().expect("VmHWM available on Linux");
        assert!(hwm > 0);
    }
}
