//! Shared measurement plumbing: the per-run [`Report`], order statistics,
//! FNV digests, peak RSS, obs-span lookups and a minimal JSON writer.

use dcfail_obs::MetricsReport;
use std::fmt::Write as _;
use std::time::Instant;

/// Every per-layer metric the benchmark knows, with its unit. A workload
/// fills the ones its layers produce; the rest print as absent with the
/// reason the workload gives (by default: the layer is idle there).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("synth.build_ms", "ms"),
    ("synth.telemetry_ms", "ms"),
    ("synth.incidents_ms", "ms"),
    ("synth.tickets_ms", "ms"),
    ("synth.feed_ms", "ms"),
    ("chaos.inject_ms", "ms"),
    ("chaos.corruptions", "count"),
    ("audit.recover_ms", "ms"),
    ("audit.recover.repaired", "count"),
    ("audit.recover.dropped", "count"),
    ("tickets.classify_ms", "ms"),
    ("tickets.kmeans_ms", "ms"),
    ("tickets.accuracy", "ratio"),
    ("report.render_all_ms", "ms"),
    ("report.prediction_ms", "ms"),
    ("report.fig8_ms", "ms"),
    ("report.whatif_ms", "ms"),
    ("report.rest_ms", "ms"),
    ("report.cache_hit_ratio", "ratio"),
    ("report.cache_len", "count"),
    ("par.speedup", "ratio"),
    ("par.worker_busy_ms", "ms"),
    ("stream.ingest_ms", "ms"),
    ("stream.finish_ms", "ms"),
    ("stream.peak_buffered", "count"),
    ("stream.windows_closed", "count"),
    ("stream.late_events", "count"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_p99_ms", "ms"),
    ("serve.read_p999_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.shed", "count"),
    ("trace.overhead_pct", "%"),
];

/// The end-to-end metrics every workload reports, with units.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("result_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (pipelines, replays, requests).
    pub attempted: u64,
    /// Operations that failed: errors, sheds, failed output checks.
    pub failed: u64,
    /// Named output checks, each passed or not, with a detail line.
    pub checks: Vec<(String, bool, String)>,
    /// End-to-end metric values by name (the `E2E_METRICS` names).
    pub e2e: Vec<(&'static str, f64)>,
    /// The host-speed-scaled end-to-end metrics, each with the raw median
    /// it was scaled from and the median probe next to it, in ms.
    pub scaling: Vec<(&'static str, f64, f64)>,
    /// The workload's own end-to-end figures under their own names
    /// (`pipeline_ms`, `req_p999_ms`, ...), with unit and a note.
    pub named: Vec<(String, f64, String, String)>,
    /// Per-layer values by name (the `LAYER_METRICS` names).
    pub layers: Vec<(&'static str, f64)>,
    /// Per-layer metrics the run cannot produce, with the reason.
    pub absent: Vec<(&'static str, String)>,
    /// Work definition: input sizes and output digests. Identical for two
    /// runs with the same seed.
    pub work: Vec<(String, String)>,
    /// Work completed in this run's window (depends on speed).
    pub done: Vec<(String, String)>,
}

impl Report {
    /// Records an output check. The workload counts the operations behind
    /// a failed check in `failed` itself.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value));
    }

    /// An end-to-end metric scaled by the host-speed probe (see
    /// [`probe_ms`]), with its raw median and the probe median.
    pub fn e2e_scaled(&mut self, name: &'static str, value: f64, raw: f64, probe: f64) {
        self.e2e(name, value);
        self.scaling.push((name, raw, probe));
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &str, note: impl Into<String>) {
        self.named
            .push((name.to_string(), value, unit.to_string(), note.into()));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    pub fn absent(&mut self, name: &'static str, reason: impl Into<String>) {
        self.absent.push((name, reason.into()));
    }

    pub fn work(&mut self, key: impl Into<String>, value: impl ToString) {
        self.work.push((key.into(), value.to_string()));
    }

    pub fn done(&mut self, key: impl Into<String>, value: impl ToString) {
        self.done.push((key.into(), value.to_string()));
    }

    /// Records the process's peak resident memory so far as `peak_rss_mb`.
    /// Workloads call it when their timed window ends, before the output
    /// checks that rebuild references after the window.
    pub fn window_peak_rss(&mut self) -> Result<(), String> {
        let mb = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        self.e2e("peak_rss_mb", mb);
        self.named("peak_rss_mb", mb, "MB", "VmHWM when the timed window ended");
        Ok(())
    }

    /// True when every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an already sorted slice, with the number of
/// samples strictly beyond the returned rank. (0.0, 0) when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Probe time of the reference host (a 2-vCPU VM) at its usual speed, in ms.
pub const PROBE_REF_MS: f64 = 3.0;

/// Times the host-speed probe: `threads` concurrent copies of a fixed
/// pure-std job that shares no code with dcfail (build and drain a
/// 20k-entry `BTreeMap`). The best of three tries of their wall time, in ms.
///
/// The reference host's speed drifts by up to half for a minute at a time
/// under its neighbours' load, longer than a run. A time multiplied by
/// `PROBE_REF_MS / probe_ms(..)`, probed next to it, is the time the
/// reference host would take at its usual speed; it repeats across runs
/// where the raw time does not. Work that keeps every CPU busy is probed on
/// `nproc` threads, so that losing part of one CPU shows in the probe.
pub fn probe_ms(threads: usize) -> f64 {
    let job = || {
        let mut map = std::collections::BTreeMap::new();
        for i in 0..20_000u64 {
            map.insert(derive_seed(7, i), i);
        }
        let mut acc = 0u64;
        while let Some((k, v)) = map.pop_first() {
            acc = acc.wrapping_add(k ^ v);
        }
        std::hint::black_box(acc);
    };
    (0..3)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|scope| {
                for _ in 1..threads {
                    scope.spawn(job);
                }
                job();
            });
            ms_since(t)
        })
        .fold(f64::MAX, f64::min)
}

/// Runs `f` between two host-speed probes on `threads` threads: its
/// result, and its wall time in seconds paired with the mean of the two
/// probes.
pub fn between_probes<T>(threads: usize, f: impl FnOnce() -> T) -> (T, (f64, f64)) {
    let before = probe_ms(threads);
    let t = Instant::now();
    let out = f();
    let seconds = t.elapsed().as_secs_f64();
    (out, (seconds, (before + probe_ms(threads)) / 2.0))
}

/// `(ms, probe ms)` pairs, as [`scaled_median`] takes them.
pub type Scaled = Vec<(f64, f64)>;

/// Splits timed operations `(ms, probe before, traced)` into untraced and
/// traced `(ms, probe)` pairs, each probe the mean of the one taken just
/// before the operation and the one taken just after it (the next
/// operation's, or `last`).
pub fn bracket(ops: &[(f64, f64, bool)], last: f64) -> (Scaled, Scaled) {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for (i, &(ms, before, is_traced)) in ops.iter().enumerate() {
        let after = ops.get(i + 1).map_or(last, |next| next.1);
        let pair = (ms, (before + after) / 2.0);
        if is_traced {
            traced.push(pair);
        } else {
            untraced.push(pair);
        }
    }
    (untraced, traced)
}

/// Median of `times`, each scaled by the probe taken next to it to the
/// probe's `reference` time.
pub fn scaled_median(times_and_probes: &[(f64, f64)], reference: f64) -> f64 {
    let scaled: Vec<f64> = times_and_probes
        .iter()
        .map(|&(t, probe)| t * reference / probe)
        .collect();
    median(&scaled)
}

/// Medians of the raw times and of the probes of `(ms, probe ms)` pairs.
pub fn raw_and_probe(times_and_probes: &[(f64, f64)]) -> (f64, f64) {
    let (raw, probes): (Vec<f64>, Vec<f64>) = times_and_probes.iter().copied().unzip();
    (median(&raw), median(&probes))
}

/// Splitmix64: derives independent seeds from the workload seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, continuing from `hash`.
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    let mut hash = hash;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The digest `tests/golden_report.rs` pins: FNV-1a over every registry
/// artifact's `id:text` and CSV, in registry order.
pub fn artifact_digest<'a>(
    artifacts: impl IntoIterator<Item = (dcfail_report::ExperimentId, &'a dcfail_report::Rendered)>,
) -> u64 {
    let mut hash = FNV_OFFSET;
    for (id, rendered) in artifacts {
        hash = fnv(
            hash,
            format!("{id}:{}\n{:?}\n", rendered.text, rendered.csv).as_bytes(),
        );
    }
    hash
}

/// Peak resident set (VmHWM) of this process in MiB, from /proc.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Total milliseconds of every span whose last path component is `name`
/// (a runner fanned out through dcfail-par records at the root on worker
/// threads and under its caller's path on the calling thread).
pub fn span_ms(report: &MetricsReport, name: &str) -> f64 {
    let nested = format!("/{name}");
    report
        .spans
        .iter()
        .filter(|s| s.path == name || s.path.ends_with(&nested))
        .map(|s| s.total_ms)
        .sum()
}

/// A counter's value, 0 when never incremented.
pub fn counter(report: &MetricsReport, name: &str) -> u64 {
    report.counter(name).unwrap_or(0)
}

/// Escapes a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite f64 as a JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON object from already-rendered values, keys in the given order.
pub fn json_obj<K: AsRef<str>>(entries: impl IntoIterator<Item = (K, String)>) -> String {
    let body: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), (500.0, 500));
        assert_eq!(quantile_sorted(&sorted, 0.999), (999.0, 1));
        assert_eq!(scaled_median(&[(10.0, 3.0), (30.0, 6.0)], 3.0), 12.5);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_obj([("k", json_num(1.5))]), "{\"k\":1.5}");
    }
}
