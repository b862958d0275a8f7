//! # dcfail-obs
//!
//! Structured tracing and metrics for the dcfail pipeline.
//!
//! The paper's artifacts are produced by a multi-stage pipeline (synthesis →
//! audit/recovery → classification → statistics → reports) whose hot paths
//! fan out across the `dcfail-par` worker threads. This crate gives every
//! stage a uniform, *optional* observability substrate:
//!
//! * **spans** — scoped wall-clock timers ([`span`]) that nest: a span
//!   started while another is active on the same thread records under the
//!   path `parent/child`, so the export reads as a call tree;
//! * **counters** — monotonically increasing named totals ([`add`]), e.g.
//!   events generated, audit findings per severity, NaNs dropped;
//! * **histograms** — named f64 samples ([`observe`]) summarized at export
//!   time as min/mean/p50/p95/p99/max, e.g. per-worker busy time;
//! * **warnings** — rare configuration-level complaints ([`warn`]) that are
//!   recorded even while metrics are disabled, so misconfiguration (a
//!   garbled `DCFAIL_THREADS`, say) is never silently swallowed.
//!
//! All of it aggregates into one process-wide, thread-safe registry and
//! exports as human-readable text or schema-versioned JSON with stable key
//! order (see [`MetricsReport`]).
//!
//! ## Overhead contract
//!
//! Collection is **off by default**. Every instrumentation call starts with
//! one relaxed atomic load; while disabled that load-and-branch is the
//! entire cost — no allocation, no clock read, no lock. Enabling is
//! explicit and scoped through an [`ObsHandle`]:
//!
//! ```
//! let handle = dcfail_obs::ObsHandle::install().expect("no other handle active");
//! {
//!     let _stage = dcfail_obs::span("demo.stage");
//!     dcfail_obs::add("demo.items", 3);
//! }
//! let report = handle.finish();
//! assert_eq!(report.counter("demo.items"), Some(3));
//! assert!(report.has_stage("demo.stage"));
//! ```
//!
//! ## Determinism
//!
//! Metrics never feed back into any analysis: no instrumentation site
//! consumes a random stream, reorders work, or branches on collected state.
//! Enabling the layer therefore cannot change any pipeline output — a
//! contract pinned by the workspace's obs-equivalence test suite. Span
//! *parentage* is per-thread, so work fanned out through `dcfail-par`
//! records its spans at the root rather than under the dispatching span;
//! counters and histograms are schedule-independent totals.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod report;

pub use report::{CounterMetric, HistogramMetric, MetricsReport, SpanMetric, SCHEMA_VERSION};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Hard cap on retained samples per histogram; overflow is counted under the
/// `obs.samples_dropped` counter instead of growing without bound.
const MAX_SAMPLES: usize = 1 << 20;

/// Hard cap on retained warnings.
const MAX_WARNINGS: usize = 64;

/// Global collection switch; every instrumentation call gates on this.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// True while an [`ObsHandle`] is installed and metrics are being collected.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Everything collected so far. Guarded by one mutex: instrumentation sites
/// touch it only while enabled, and then only at stage granularity (never
/// per item in a hot loop), so contention is negligible.
#[derive(Default)]
struct State {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
    samples: BTreeMap<String, Vec<f64>>,
    warnings: Vec<String>,
}

#[derive(Default, Clone, Copy)]
struct SpanStat {
    count: u64,
    total_ns: u128,
}

fn registry() -> MutexGuard<'static, State> {
    static REGISTRY: OnceLock<Mutex<State>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(State::default()))
        .lock()
        // A panic while holding the registry lock only interrupts metric
        // bookkeeping; the data itself stays structurally sound, and
        // observability must never take the pipeline down with it.
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    /// Per-thread stack of active span names; joined with '/' into the
    /// recorded path when a span closes.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for a scoped span timer; records on drop.
///
/// Guards close in LIFO order by construction (Rust drops locals in reverse
/// declaration order), which is exactly the nesting discipline the span
/// stack needs. An inert guard (created while collection is disabled) does
/// nothing on drop.
#[must_use = "a span records its duration when the guard drops"]
pub struct Span {
    start: Option<Instant>,
}

impl Span {
    fn begin(name: String) -> Span {
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        Span {
            start: Some(Instant::now()),
        }
    }

    const fn inert() -> Span {
        Span { start: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed();
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let name = stack.pop().unwrap_or_default();
            if stack.is_empty() {
                name
            } else {
                format!("{}/{}", stack.join("/"), name)
            }
        });
        let mut reg = registry();
        let stat = reg.spans.entry(path).or_default();
        stat.count += 1;
        stat.total_ns += elapsed.as_nanos();
    }
}

/// Starts a scoped span timer named `name`.
///
/// While collection is disabled this is one atomic load and returns an inert
/// guard. While enabled, the span records under the path formed by the
/// spans already active on this thread (e.g. `"synth.build/population"`).
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span::inert();
    }
    Span::begin(name.to_string())
}

/// Starts a span named `group.label` for dynamically-labelled stages (e.g.
/// one span per report runner). The string is only assembled while enabled.
#[inline]
pub fn span_labeled(group: &'static str, label: &str) -> Span {
    if !enabled() {
        return Span::inert();
    }
    Span::begin(format!("{group}.{label}"))
}

/// Adds `delta` to the named counter (no-op while disabled).
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    *registry().counters.entry(name.to_string()).or_insert(0) += delta;
}

/// Adds `delta` to the counter named `group.label` (no-op while disabled).
#[inline]
pub fn add_labeled(group: &'static str, label: &str, delta: u64) {
    if !enabled() {
        return;
    }
    *registry()
        .counters
        .entry(format!("{group}.{label}"))
        .or_insert(0) += delta;
}

/// Records one sample into the named histogram (no-op while disabled).
///
/// Non-finite samples are not stored; they are tallied under the
/// `obs.samples_nonfinite` counter so a NaN leaking into a timing series is
/// visible instead of silently poisoning the percentiles.
#[inline]
pub fn observe(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let mut reg = registry();
    if !value.is_finite() {
        *reg.counters
            .entry("obs.samples_nonfinite".to_string())
            .or_insert(0) += 1;
        return;
    }
    let overflowed = {
        let samples = reg.samples.entry(name.to_string()).or_default();
        if samples.len() < MAX_SAMPLES {
            samples.push(value);
            false
        } else {
            true
        }
    };
    if overflowed {
        *reg.counters
            .entry("obs.samples_dropped".to_string())
            .or_insert(0) += 1;
    }
}

/// Records a warning. Unlike every other entry point this works even while
/// collection is disabled: warnings flag rare, configuration-level problems
/// (an unparsable `DCFAIL_THREADS`, say) that must not depend on whether a
/// metrics run happens to be active. Capped at `MAX_WARNINGS`.
pub fn warn(message: impl Into<String>) {
    let mut reg = registry();
    if reg.warnings.len() < MAX_WARNINGS {
        reg.warnings.push(message.into());
    }
}

/// Exclusive handle over an enabled collection window.
///
/// [`ObsHandle::install`] flips collection on (resetting previously
/// collected spans/counters/histograms, keeping warnings); dropping or
/// [`finish`](ObsHandle::finish)ing the handle flips it off. Only one handle
/// can be live at a time, so two concurrent metrics runs cannot interleave
/// their windows.
pub struct ObsHandle {
    finished: bool,
}

impl ObsHandle {
    /// Enables collection, returning `None` when a handle is already live.
    pub fn install() -> Option<ObsHandle> {
        if ENABLED
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return None;
        }
        let mut reg = registry();
        reg.spans.clear();
        reg.counters.clear();
        reg.samples.clear();
        // Warnings survive the reset: they may predate the window (e.g. a
        // bad env var parsed at process start) and still explain this run.
        Some(ObsHandle { finished: false })
    }

    /// Aggregates everything collected so far without ending the window.
    #[must_use]
    pub fn snapshot(&self) -> MetricsReport {
        snapshot_state(&registry())
    }

    /// Ends the collection window and returns the final aggregate.
    #[must_use]
    pub fn finish(mut self) -> MetricsReport {
        ENABLED.store(false, Ordering::SeqCst);
        self.finished = true;
        snapshot_state(&registry())
    }
}

impl Drop for ObsHandle {
    fn drop(&mut self) {
        if !self.finished {
            ENABLED.store(false, Ordering::SeqCst);
        }
    }
}

fn snapshot_state(state: &State) -> MetricsReport {
    MetricsReport {
        schema_version: SCHEMA_VERSION,
        spans: state
            .spans
            .iter()
            .map(|(path, stat)| SpanMetric {
                path: path.clone(),
                count: stat.count,
                total_ms: stat.total_ns as f64 / 1e6,
            })
            .collect(),
        counters: state
            .counters
            .iter()
            .map(|(name, &value)| CounterMetric {
                name: name.clone(),
                value,
            })
            .collect(),
        histograms: state
            .samples
            .iter()
            .map(|(name, samples)| {
                let mut sorted = samples.clone();
                sorted.sort_unstable_by(f64::total_cmp);
                HistogramMetric::from_sorted(name.clone(), &sorted)
            })
            .collect(),
        warnings: state.warnings.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Serializes tests that install the process-global handle.
    fn exclusive() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<StdMutex<()>> = OnceLock::new();
        GATE.get_or_init(|| StdMutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_calls_are_inert() {
        let _gate = exclusive();
        assert!(!enabled());
        let g = span("never.recorded");
        add("never.recorded", 5);
        observe("never.recorded", 1.0);
        drop(g);
        let handle = ObsHandle::install().unwrap();
        let report = handle.finish();
        assert!(report.counter("never.recorded").is_none());
        assert!(!report.has_stage("never.recorded"));
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        let _gate = exclusive();
        let handle = ObsHandle::install().unwrap();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                let _innermost = span("leaf");
            }
            let _sibling = span("inner");
        }
        let report = handle.finish();
        assert_eq!(report.span("outer").unwrap().count, 1);
        assert_eq!(report.span("outer/inner").unwrap().count, 2);
        assert_eq!(report.span("outer/inner/leaf").unwrap().count, 1);
        assert!(
            report.span("inner").is_none(),
            "children never hit the root"
        );
        assert!(report.has_stage("leaf"));
    }

    #[test]
    fn counters_and_histograms_aggregate_across_threads() {
        let _gate = exclusive();
        let handle = ObsHandle::install().unwrap();
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    let _s = span("worker");
                    add("work.items", 10);
                    observe("work.value", f64::from(t));
                });
            }
        });
        let report = handle.finish();
        assert_eq!(report.counter("work.items"), Some(40));
        assert_eq!(report.span("worker").unwrap().count, 4);
        let h = report.histogram("work.value").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 3.0);
        assert_eq!(h.mean, 1.5);
    }

    #[test]
    fn nonfinite_samples_are_counted_not_stored() {
        let _gate = exclusive();
        let handle = ObsHandle::install().unwrap();
        observe("h", 1.0);
        observe("h", f64::NAN);
        observe("h", f64::INFINITY);
        let report = handle.finish();
        assert_eq!(report.histogram("h").unwrap().count, 1);
        assert_eq!(report.counter("obs.samples_nonfinite"), Some(2));
    }

    #[test]
    fn handle_is_exclusive_and_reenableable() {
        let _gate = exclusive();
        let first = ObsHandle::install().unwrap();
        assert!(ObsHandle::install().is_none(), "second handle must fail");
        drop(first);
        assert!(!enabled());
        let again = ObsHandle::install().unwrap();
        add("x", 1);
        assert_eq!(again.snapshot().counter("x"), Some(1));
        let report = again.finish();
        assert_eq!(report.counter("x"), Some(1));
    }

    #[test]
    fn install_resets_previous_window() {
        let _gate = exclusive();
        let h = ObsHandle::install().unwrap();
        add("stale", 7);
        drop(h);
        let h = ObsHandle::install().unwrap();
        let report = h.finish();
        assert!(report.counter("stale").is_none());
    }

    #[test]
    fn labeled_spans_and_counters_join_group_and_label() {
        let _gate = exclusive();
        add_labeled("serve", "ignored", 1);
        drop(span_labeled("report", "ignored"));
        let handle = ObsHandle::install().unwrap();
        {
            let _run = span("run");
            let _fig = span_labeled("report", "fig2");
        }
        add_labeled("serve", "reports", 2);
        add_labeled("serve", "reports", 3);
        let report = handle.finish();
        assert_eq!(report.span("run/report.fig2").unwrap().count, 1);
        assert_eq!(report.counter("serve.reports"), Some(5));
        assert!(report.counter("serve.ignored").is_none());
        assert!(!report.has_stage("report.ignored"));
    }

    #[test]
    fn samples_past_the_cap_are_counted_as_dropped() {
        let _gate = exclusive();
        let handle = ObsHandle::install().unwrap();
        for i in 0..MAX_SAMPLES + 3 {
            observe("full", i as f64);
        }
        let report = handle.finish();
        let h = report.histogram("full").unwrap();
        assert_eq!(h.count, MAX_SAMPLES);
        assert_eq!(
            h.max,
            (MAX_SAMPLES - 1) as f64,
            "the first samples are kept"
        );
        assert_eq!(report.counter("obs.samples_dropped"), Some(3));
    }

    #[test]
    fn warnings_record_even_while_disabled() {
        let _gate = exclusive();
        warn("configured sideways");
        let h = ObsHandle::install().unwrap();
        let report = h.finish();
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("configured sideways")));
    }
}
