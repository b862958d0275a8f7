//! Aggregated metrics and their exporters.
//!
//! A [`MetricsReport`] is an immutable snapshot of one collection window:
//! spans (sorted by path), counters and histograms (sorted by name), and
//! warnings (in arrival order). It renders as an indented text tree for
//! humans and as schema-versioned JSON with a fixed key order for machines —
//! two exports of the same report are byte-identical, and two reports of
//! different runs diff cleanly.

use std::fmt::Write as _;

/// Version stamped into every JSON export as `schema_version`. Bump on any
/// change to the key set, key order, or value semantics of the export.
pub const SCHEMA_VERSION: u32 = 2;

/// One aggregated span: every closure of the same path folded together.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanMetric {
    /// Nest-aware path, `/`-separated (e.g. `"synth.build/population"`).
    pub path: String,
    /// Number of times a span with this path closed.
    pub count: u64,
    /// Total wall-clock milliseconds across all closures.
    pub total_ms: f64,
    /// Minor page faults of the whole process while the span was open,
    /// summed over its closures on the thread that installed the window.
    /// `None` when no closure could count them: the span ran only on other
    /// threads, or `/proc/self/stat` is unreadable. Never a zero standing
    /// in for "unknown".
    pub minor_faults: Option<u64>,
}

/// One named counter total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterMetric {
    /// Counter name.
    pub name: String,
    /// Final value of the collection window.
    pub value: u64,
}

/// Summary of one named f64 sample series.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramMetric {
    /// Histogram name.
    pub name: String,
    /// Number of samples recorded.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl HistogramMetric {
    /// Summarizes an already-sorted, finite sample series.
    ///
    /// # Panics
    ///
    /// Panics if `sorted` is empty (the registry never stores an empty
    /// series).
    #[must_use]
    pub fn from_sorted(name: String, sorted: &[f64]) -> Self {
        assert!(!sorted.is_empty(), "histogram of empty sample");
        let n = sorted.len();
        Self {
            name,
            count: n,
            min: sorted[0],
            max: sorted[n - 1],
            mean: sorted.iter().sum::<f64>() / n as f64,
            p50: quantile_sorted(sorted, 0.50),
            p95: quantile_sorted(sorted, 0.95),
            p99: quantile_sorted(sorted, 0.99),
        }
    }
}

/// Type-7 (R/NumPy default) linear-interpolation quantile of sorted data.
///
/// This mirrors `dcfail_stats::empirical::quantile_sorted`; it is duplicated
/// here because obs sits *below* dcfail-stats in the dependency graph —
/// stats itself is instrumented with these metrics, so obs cannot depend on
/// it. Agreement between the two implementations is pinned by a test in
/// dcfail-stats.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// An immutable aggregate of one collection window.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Export schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Aggregated spans, sorted by path.
    pub spans: Vec<SpanMetric>,
    /// Counter totals, sorted by name.
    pub counters: Vec<CounterMetric>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistogramMetric>,
    /// Recorded warnings, oldest first.
    pub warnings: Vec<String>,
}

impl MetricsReport {
    /// The span recorded under exactly `path`, if any.
    #[must_use]
    pub fn span(&self, path: &str) -> Option<&SpanMetric> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// The counter named `name`, if any.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The histogram named `name`, if any.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramMetric> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// True when a span named `stage` was recorded at any nesting depth.
    ///
    /// Span parentage depends on which thread ran the stage (fanned-out work
    /// records at the root), so presence checks must match the leaf name,
    /// not the full path.
    #[must_use]
    pub fn has_stage(&self, stage: &str) -> bool {
        self.spans.iter().any(|s| {
            s.path == stage
                || (s.path.ends_with(stage)
                    && s.path.as_bytes()[s.path.len() - stage.len() - 1] == b'/')
        })
    }

    /// Renders the report as an indented, human-readable tree.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics (schema v{})", self.schema_version);
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                let depth = s.path.matches('/').count();
                let name = s.path.rsplit('/').next().unwrap_or(&s.path);
                let indent = "  ".repeat(depth + 1);
                let label = format!("{indent}{name}");
                let faults = s.minor_faults.map_or("-".to_string(), |n| n.to_string());
                let _ = writeln!(
                    out,
                    "{label:<44} {:>7}x {:>12.3} ms {faults:>9} flt",
                    s.count, s.total_ms
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for c in &self.counters {
                let _ = writeln!(out, "  {:<42} {:>10}", c.name, c.value);
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<42} n={} min={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}",
                    h.name, h.count, h.min, h.p50, h.p95, h.p99, h.max
                );
            }
        }
        if !self.warnings.is_empty() {
            out.push_str("warnings:\n");
            for w in &self.warnings {
                let _ = writeln!(out, "  ! {w}");
            }
        }
        out
    }

    /// Serializes the report as JSON with a fixed key order.
    ///
    /// The export is hand-assembled rather than derived so the byte layout
    /// is part of the schema contract: keys appear in a documented order,
    /// spans/counters/histograms are pre-sorted, and milliseconds are
    /// rounded to 3 decimals so near-identical runs diff on timings only
    /// where they genuinely differ. A span's `minor_faults` is `null` when
    /// it was not counted (schema v2).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        out.push_str("  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let faults = s.minor_faults.map_or("null".to_string(), |n| n.to_string());
            let _ = write!(
                out,
                "{sep}\n    {{\"path\": {}, \"count\": {}, \"total_ms\": {:.3}, \
                 \"minor_faults\": {faults}}}",
                json_string(&s.path),
                s.count,
                s.total_ms
            );
        }
        out.push_str(if self.spans.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": {}, \"value\": {}}}",
                json_string(&c.name),
                c.value
            );
        }
        out.push_str(if self.counters.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"name\": {}, \"count\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                json_string(&h.name),
                h.count,
                json_f64(h.min),
                json_f64(h.max),
                json_f64(h.mean),
                json_f64(h.p50),
                json_f64(h.p95),
                json_f64(h.p99)
            );
        }
        out.push_str(if self.histograms.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"warnings\": [");
        for (i, w) in self.warnings.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}", json_string(w));
        }
        out.push_str(if self.warnings.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push('}');
        out
    }
}

/// Shortest-roundtrip decimal for a finite f64 (the registry rejects
/// non-finite samples, so every exported value is finite).
fn json_f64(v: f64) -> String {
    format!("{v}")
}

/// JSON string literal with the mandatory escapes.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> MetricsReport {
        MetricsReport {
            schema_version: SCHEMA_VERSION,
            spans: vec![
                SpanMetric {
                    path: "build".into(),
                    count: 1,
                    total_ms: 12.3456,
                    minor_faults: Some(310),
                },
                SpanMetric {
                    path: "build/population".into(),
                    count: 2,
                    total_ms: 4.0,
                    minor_faults: None,
                },
            ],
            counters: vec![CounterMetric {
                name: "events".into(),
                value: 42,
            }],
            histograms: vec![HistogramMetric::from_sorted(
                "busy_ms".into(),
                &[1.0, 2.0, 3.0, 4.0],
            )],
            warnings: vec!["odd \"config\"".into()],
        }
    }

    #[test]
    fn percentiles_interpolate_type7() {
        let sorted: Vec<f64> = (1..=5).map(f64::from).collect();
        let h = HistogramMetric::from_sorted("h".into(), &sorted);
        assert_eq!(h.p50, 3.0);
        assert_eq!(h.p95, 4.8);
        assert!((h.p99 - 4.96).abs() < 1e-12);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 5.0);
        assert_eq!(h.mean, 3.0);
    }

    #[test]
    fn json_schema_is_stable() {
        let json = sample_report().to_json();
        // Fixed top-level key order, version first.
        let order = [
            "schema_version",
            "spans",
            "counters",
            "histograms",
            "warnings",
        ];
        let mut last = 0;
        for key in order {
            let at = json.find(&format!("\"{key}\"")).expect(key);
            assert!(at >= last, "{key} out of order");
            last = at;
        }
        assert!(json.starts_with("{\n  \"schema_version\": 2,"));
        assert!(json.contains("\"path\": \"build/population\""));
        assert!(json.contains("\"total_ms\": 4.000, \"minor_faults\": null}"));
        assert!(json.contains("\"minor_faults\": 310}"));
        assert!(json.contains("\"total_ms\": 12.346"), "ms rounded to 3 dp");
        assert!(json.contains("\"odd \\\"config\\\"\""));
        // Byte-stable: serializing the same report twice is identical.
        assert_eq!(json, sample_report().to_json());
    }

    #[test]
    fn empty_report_is_valid_json_shape() {
        let report = MetricsReport {
            schema_version: SCHEMA_VERSION,
            spans: vec![],
            counters: vec![],
            histograms: vec![],
            warnings: vec![],
        };
        let json = report.to_json();
        assert!(json.contains("\"spans\": [],"));
        assert!(json.contains("\"warnings\": []\n}"));
    }

    #[test]
    fn lookup_helpers() {
        let r = sample_report();
        assert_eq!(r.counter("events"), Some(42));
        assert!(r.counter("missing").is_none());
        assert_eq!(r.span("build").unwrap().count, 1);
        assert!(r.has_stage("population"));
        assert!(r.has_stage("build"));
        assert!(!r.has_stage("pop"));
        assert_eq!(r.histogram("busy_ms").unwrap().count, 4);
    }

    #[test]
    fn text_render_indents_children() {
        let text = sample_report().render_text();
        assert!(text.contains("metrics (schema v2)"));
        assert!(text.contains("\n  build "));
        assert!(text.contains("\n    population "));
        assert!(text.contains("ms       310 flt\n"), "{text}");
        assert!(text.contains("ms         - flt\n"), "{text}");
        assert!(text.contains("! odd"));
    }
}
