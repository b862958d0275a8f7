//! Shared server state: the swappable Toolkit snapshot, the stream-ingest
//! alert buffer, the optional obs window, and the worker gate.
//!
//! Snapshot isolation works by *replacing*, never mutating: the current
//! [`Toolkit`] (dataset snapshot + artifact cache) sits behind one mutex
//! that is only held long enough to clone an `Arc`. A request clones the
//! `Arc` once and renders against that Toolkit for its whole lifetime, so
//! it can never observe a torn mix of old and new data — and because the
//! artifact cache lives *inside* the Toolkit, publishing a new snapshot
//! retires the old cache in the same atomic swap.

use dcfail_obs::ObsHandle;
use dcfail_report::{RunConfig, Toolkit};
use dcfail_stream::Alert;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Result of one background stream-ingest pass, tagged with the data
/// version it replayed.
#[derive(Debug, Clone, Default)]
pub struct AlertsState {
    /// Data version of the snapshot the alerts were computed from.
    pub data_version: u64,
    /// Whether the ingest pass for `data_version` has finished.
    pub complete: bool,
    /// Events replayed through the stream engine so far.
    pub events_ingested: u64,
    /// Burst alerts the detector fired.
    pub alerts: Vec<Alert>,
}

/// Pauses and resumes the worker pool — the deterministic way to hold the
/// bounded queue full so backpressure (429) can be asserted in tests and in
/// the CI smoke gate without racing on timing.
#[derive(Debug, Default)]
pub struct WorkerGate {
    paused: Mutex<bool>,
    /// A release waiting for the acceptor to catch up (see
    /// `ServerHandle::release_workers`).
    pub(crate) release_requested: AtomicBool,
    cv: Condvar,
}

impl WorkerGate {
    /// Blocks workers at their next gate check.
    pub fn pause(&self) {
        *lock(&self.paused) = true;
    }

    /// Releases paused workers.
    pub fn resume(&self) {
        *lock(&self.paused) = false;
        self.cv.notify_all();
    }

    /// Called by workers between taking a request and serving it.
    pub fn wait_if_paused(&self) {
        let mut paused = lock(&self.paused);
        while *paused {
            paused = self
                .cv
                .wait(paused)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Everything request handlers share.
pub struct AppState {
    toolkit: Mutex<Arc<Toolkit>>,
    alerts: Mutex<AlertsState>,
    obs: Mutex<Option<ObsHandle>>,
    /// Worker pause gate (see [`WorkerGate`]).
    pub gate: WorkerGate,
}

impl std::fmt::Debug for AppState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppState")
            .field("data_version", &self.current().data_version())
            .field("metrics", &lock(&self.obs).is_some())
            .finish_non_exhaustive()
    }
}

impl AppState {
    /// Wraps an initial Toolkit; `obs` is the server's metrics window when
    /// one could be installed (`None` leaves `/metrics` answering 503).
    #[must_use]
    pub fn new(toolkit: Toolkit, obs: Option<ObsHandle>) -> AppState {
        AppState {
            toolkit: Mutex::new(Arc::new(toolkit)),
            alerts: Mutex::new(AlertsState::default()),
            obs: Mutex::new(obs),
            gate: WorkerGate::default(),
        }
    }

    /// The current snapshot handle. One `Arc` clone under the lock; the
    /// caller then renders entirely against that pinned Toolkit.
    #[must_use]
    pub fn current(&self) -> Arc<Toolkit> {
        Arc::clone(&lock(&self.toolkit))
    }

    /// Atomically replaces the served snapshot. Callers are expected to
    /// hand in a Toolkit at a *higher* data version (the publish path mints
    /// `current().data_version() + 1`); in-flight requests keep rendering
    /// from the Arc they already cloned.
    pub fn publish(&self, toolkit: Toolkit) -> Arc<Toolkit> {
        let fresh = Arc::new(toolkit);
        *lock(&self.toolkit) = Arc::clone(&fresh);
        dcfail_obs::add("serve.snapshot_published", 1);
        fresh
    }

    /// Builds and publishes the next snapshot: same scenario family, new
    /// seed, data version bumped by one. Returns the new version.
    pub fn publish_rebuilt(&self, seed: u64, scale: f64) -> u64 {
        let current = self.current();
        let next_version = current.data_version() + 1;
        let dataset = dcfail_synth::Scenario::paper()
            .seed(seed)
            .scale(scale)
            .build()
            .into_dataset();
        let snapshot = dcfail_report::DatasetSnapshot::new(dataset, next_version);
        let config = RunConfig::with_seed(seed);
        self.publish(Toolkit::from_snapshot(snapshot, config));
        next_version
    }

    /// The latest ingest result (cloned out so no lock is held rendering).
    #[must_use]
    pub fn alerts(&self) -> AlertsState {
        lock(&self.alerts).clone()
    }

    /// Stores an ingest result.
    pub fn set_alerts(&self, state: AlertsState) {
        *lock(&self.alerts) = state;
    }

    /// Runs `f` against the obs window, if the server owns one.
    pub fn with_obs<T>(&self, f: impl FnOnce(&ObsHandle) -> T) -> Option<T> {
        lock(&self.obs).as_ref().map(f)
    }

    /// Ends the obs window, returning the final report (shutdown path).
    pub fn finish_obs(&self) -> Option<dcfail_obs::MetricsReport> {
        lock(&self.obs).take().map(ObsHandle::finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcfail_report::ExperimentId;

    fn tiny_toolkit(seed: u64, version: u64) -> Toolkit {
        let dataset = dcfail_synth::Scenario::paper()
            .seed(seed)
            .scale(0.02)
            .build()
            .into_dataset();
        Toolkit::from_snapshot(
            dcfail_report::DatasetSnapshot::new(dataset, version),
            RunConfig::with_seed(seed),
        )
    }

    #[test]
    fn publish_swaps_atomically_and_keeps_old_handles_alive() {
        let state = AppState::new(tiny_toolkit(42, 0), None);
        let pinned = state.current();
        let before = pinned.envelope_json(ExperimentId::Table2);
        let next = state.publish_rebuilt(43, 0.02);
        assert_eq!(next, 1);
        // The pinned handle still renders the old snapshot, byte-identical.
        assert_eq!(pinned.envelope_json(ExperimentId::Table2), before);
        // New requests see the new version and different data.
        let fresh = state.current();
        assert_eq!(fresh.data_version(), 1);
        assert_ne!(fresh.envelope_json(ExperimentId::Table2), before);
    }

    #[test]
    fn alerts_are_replaced_whole_and_obs_is_optional() {
        let state = AppState::new(tiny_toolkit(7, 4), None);
        let empty = state.alerts();
        assert_eq!((empty.data_version, empty.complete), (0, false));
        state.set_alerts(AlertsState {
            data_version: 4,
            complete: true,
            events_ingested: 12,
            alerts: Vec::new(),
        });
        let set = state.alerts();
        assert_eq!(
            (set.data_version, set.complete, set.events_ingested),
            (4, true, 12)
        );
        assert!(state.with_obs(|_| ()).is_none());
        assert!(state.finish_obs().is_none());
        let debug = format!("{state:?}");
        assert!(
            debug.contains("data_version: 4") && debug.contains("metrics: false"),
            "{debug}"
        );
    }

    #[test]
    fn gate_pauses_and_releases() {
        let gate = WorkerGate::default();
        gate.pause();
        let released = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                gate.wait_if_paused();
                released.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            // The worker is parked; nothing observable until resume.
            gate.resume();
        });
        assert!(released.load(std::sync::atomic::Ordering::SeqCst));
    }
}
