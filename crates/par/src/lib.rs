//! Deterministic parallel map/reduce on `std::thread::scope`.
//!
//! The workspace's hot paths — per-machine hazard simulation, bootstrap
//! resampling, k-means assignment, report fan-out — are embarrassingly
//! parallel, but every result must be **bit-identical** regardless of how
//! many threads run it. This crate provides the one primitive that makes
//! that safe:
//!
//! * work is pre-partitioned into *indexed* chunks;
//! * each chunk is claimed dynamically but its results are written back
//!   into a slot addressed by chunk index;
//! * the final output is assembled in index order, so the schedule can
//!   never leak into the result.
//!
//! Callers that need randomness must give each work item its own pure
//! stream (e.g. `StreamRng::fork_index`) *before* going parallel; the
//! combinators here only guarantee that ordering and placement are
//! schedule-independent.
//!
//! Thread count resolution, in priority order:
//! 1. an explicit override installed via [`set_thread_override`] (used by
//!    determinism tests to pin a count without touching the environment);
//! 2. the `DCFAIL_THREADS` environment variable (resolved **once per
//!    process** — a zero or unparsable value is reported through a
//!    `dcfail-obs` warning and falls back to the default, instead of being
//!    silently re-parsed and ignored on every call);
//! 3. [`std::thread::available_parallelism`].
//!
//! A resolved count of `1` (or trivially small inputs) takes a plain
//! sequential path with zero thread overhead.
//!
//! When `dcfail-obs` collection is enabled, every dispatch counts its jobs
//! and items, and each worker reports its busy and idle wall-clock time as
//! `par.worker.busy_ms` / `par.worker.idle_ms` histograms — the utilization
//! view behind `repro metrics`. With collection disabled the entire layer
//! costs one relaxed atomic load per dispatch.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Environment variable controlling the worker thread count.
pub const THREADS_ENV: &str = "DCFAIL_THREADS";

/// Inputs smaller than this always run sequentially: a single work item
/// cannot be split, and the sequential path is bit-identical by
/// construction. Work-item granularity ranges from a distance computation
/// to a full report runner, so the crate does not second-guess callers
/// with a larger threshold.
const MIN_PARALLEL: usize = 2;

/// Process-wide override for the thread count; `0` means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs (or with `None` clears) a process-wide thread-count override
/// that takes precedence over `DCFAIL_THREADS`.
///
/// Because every combinator in this crate is schedule-independent, changing
/// the thread count mid-run can never change a result — the override exists
/// so tests can compare e.g. 1-thread vs 8-thread runs without mutating the
/// process environment.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The currently installed thread-count override, if any — lets callers
/// that scope an override (set, run, restore) put back what was there.
#[must_use]
pub fn thread_override() -> Option<usize> {
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => None,
        n => Some(n),
    }
}

/// `DCFAIL_THREADS` as resolved once at first use; `None` when unset or
/// invalid. An invalid value (zero, garbage) used to be silently re-parsed
/// and ignored on every call — now it is resolved once and reported as an
/// explicit `dcfail-obs` warning, so a typo'd environment cannot quietly
/// run the whole process on the default count.
fn env_threads() -> Option<usize> {
    static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *ENV_THREADS.get_or_init(|| {
        let raw = std::env::var(THREADS_ENV).ok()?;
        match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                dcfail_obs::warn(format!(
                    "{THREADS_ENV}='{raw}' is not a positive thread count; \
                     falling back to available parallelism"
                ));
                None
            }
        }
    })
}

/// Resolves the worker thread count: override, then `DCFAIL_THREADS`
/// (resolved once per process), then available parallelism. Invalid or zero
/// values fall back to the default; the result is always at least 1.
#[must_use]
pub fn thread_count() -> usize {
    let over = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        return over;
    }
    env_threads().unwrap_or_else(default_threads)
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `0..n` through `f`, possibly in parallel, returning results in
/// index order. Output is bit-identical to `(0..n).map(f).collect()` for
/// any thread count and any schedule.
///
/// # Panics
/// Propagates panics from `f` (the scope joins all workers first).
pub fn par_map_index<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = thread_count();
    let obs_on = dcfail_obs::enabled();
    if obs_on {
        dcfail_obs::add("par.jobs", 1);
        dcfail_obs::add("par.items", n as u64);
    }
    if threads <= 1 || n < MIN_PARALLEL {
        if obs_on {
            dcfail_obs::add("par.sequential_jobs", 1);
        }
        return (0..n).map(f).collect();
    }
    let threads = threads.min(n);
    // Aim for several chunks per worker so stragglers re-balance, while
    // keeping per-chunk bookkeeping negligible.
    let chunk = n.div_ceil(threads * 4).max(1);
    let num_chunks = n.div_ceil(chunk);
    if obs_on {
        dcfail_obs::add("par.chunks", num_chunks as u64);
    }
    let slots: Vec<Mutex<Option<Vec<U>>>> = (0..num_chunks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Utilization accounting only runs under an active metrics
                // window; the disabled path never reads the clock.
                // dlint::allow(D03): obs-gated worker timing; never reaches analysis output
                let spawned = obs_on.then(Instant::now);
                let mut busy = Duration::ZERO;
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= num_chunks {
                        break;
                    }
                    // dlint::allow(D03): obs-gated chunk timing; never reaches analysis output
                    let t0 = obs_on.then(Instant::now);
                    let start = c * chunk;
                    let end = (start + chunk).min(n);
                    let out: Vec<U> = (start..end).map(&f).collect();
                    let mut slot = slots[c].lock().expect("dcfail-par: worker panicked");
                    *slot = Some(out);
                    if let Some(t0) = t0 {
                        busy += t0.elapsed();
                    }
                }
                if let Some(spawned) = spawned {
                    let lifetime = spawned.elapsed();
                    dcfail_obs::observe("par.worker.busy_ms", busy.as_secs_f64() * 1e3);
                    dcfail_obs::observe(
                        "par.worker.idle_ms",
                        lifetime.saturating_sub(busy).as_secs_f64() * 1e3,
                    );
                }
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        let chunk_out = slot
            .into_inner()
            .expect("dcfail-par: worker panicked")
            .expect("dcfail-par: every chunk is claimed exactly once");
        out.extend(chunk_out);
    }
    out
}

/// Maps a slice through `f(index, &item)`, possibly in parallel, returning
/// results in input order. Bit-identical to the sequential enumerate-map
/// for any thread count.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_index(items.len(), |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes the tests that run parallel work: the metrics window and
    /// the thread override are process-global, so a concurrent test's
    /// workers would land in another test's window.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn map_index_matches_sequential() {
        let _serial = serial();
        let par = par_map_index(1000, |i| i * 3 + 1);
        let seq: Vec<usize> = (0..1000).map(|i| i * 3 + 1).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _serial = serial();
        let empty: Vec<usize> = par_map_index(0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(par_map_index(1, |i| i + 7), vec![7]);
        let no_items: [u8; 0] = [];
        let mapped: Vec<u8> = par_map(&no_items, |_, &b| b);
        assert!(mapped.is_empty());
    }

    /// Clears the thread override when dropped, even on unwind.
    struct ClearOverride;

    impl Drop for ClearOverride {
        fn drop(&mut self) {
            set_thread_override(None);
        }
    }

    #[test]
    fn override_wins_and_clears() {
        let _serial = serial();
        let _clear = ClearOverride;
        set_thread_override(Some(3));
        assert_eq!(thread_override(), Some(3));
        assert_eq!(thread_count(), 3);
        set_thread_override(None);
        assert_eq!(thread_override(), None);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn worker_panics_propagate() {
        let _serial = serial();
        let _clear = ClearOverride;
        set_thread_override(Some(4));
        let outcome = std::panic::catch_unwind(|| {
            par_map_index(1000, |i| {
                assert!(i != 700, "worker failed on item {i}");
                i
            })
        });
        assert!(outcome.is_err(), "a panicking item must fail the whole map");
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn metrics_window_sees_jobs_and_worker_utilization() {
        let _serial = serial();
        let handle = dcfail_obs::ObsHandle::install()
            .expect("the only test in this binary opening a window");
        set_thread_override(Some(4));
        let out = par_map_index(64, |i| i * 2);
        set_thread_override(None);
        let report = handle.finish();
        assert_eq!(out[63], 126);
        assert!(report.counter("par.jobs").unwrap_or(0) >= 1);
        assert!(report.counter("par.items").unwrap_or(0) >= 64);
        assert!(report.counter("par.chunks").unwrap_or(0) >= 1);
        let busy = report.histogram("par.worker.busy_ms").expect("busy series");
        assert_eq!(busy.count, 4, "one busy sample per worker");
        assert!(report.histogram("par.worker.idle_ms").is_some());
    }
}
