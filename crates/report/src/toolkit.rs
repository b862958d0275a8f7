//! Library-first handle over the build-then-render flow.
//!
//! [`Toolkit`] owns a built dataset (as an immutable [`DatasetSnapshot`]
//! with a monotonic data version), a [`RunConfig`], and a keyed artifact
//! cache `(ExperimentId, data_version, config digest) → rendered bytes`.
//! The `repro` CLI and the dcfail-serve daemon are both thin front-ends
//! over this handle: the CLI builds one Toolkit per process and renders
//! through it (so repeated renders reuse the built dataset), the daemon
//! keeps the current Toolkit behind an `Arc` swap so queries see a
//! consistent snapshot and a version bump invalidates the whole cache
//! atomically — the old Toolkit's cache simply goes away with it.

use crate::envelope::Envelope;
use crate::experiments::{run, ExperimentId, RunConfig, ThreadGuard};
use crate::runners::Rendered;
use dcfail_model::dataset::FailureDataset;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// An immutable dataset plus the monotonic version it was published at.
///
/// Cloning is cheap (`Arc` inside); two clones always agree on both the
/// data and the version, which is what makes cache keys sound.
#[derive(Debug, Clone)]
pub struct DatasetSnapshot {
    dataset: Arc<FailureDataset>,
    version: u64,
}

impl DatasetSnapshot {
    /// Wraps a dataset at an explicit version.
    #[must_use]
    pub fn new(dataset: FailureDataset, version: u64) -> Self {
        Self {
            dataset: Arc::new(dataset),
            version,
        }
    }

    /// The snapshot's dataset.
    #[must_use]
    pub fn dataset(&self) -> &FailureDataset {
        &self.dataset
    }

    /// The monotonic data version this snapshot was published at.
    #[must_use]
    pub const fn version(&self) -> u64 {
        self.version
    }
}

/// Cache key: which artifact, rendered from which data, under which config.
type CacheKey = (ExperimentId, u64, u64);

/// A reusable render handle: dataset snapshot + config + artifact cache.
#[derive(Debug)]
pub struct Toolkit {
    snapshot: DatasetSnapshot,
    config: RunConfig,
    cache: Mutex<BTreeMap<CacheKey, Arc<Rendered>>>,
}

impl Toolkit {
    /// Builds the paper scenario at full scale from `config.seed` and wraps
    /// it at data version 0. Use [`Toolkit::build_scaled`] to shrink the
    /// fleet (CI and tests run at small scales).
    #[must_use]
    pub fn build(config: RunConfig) -> Self {
        Self::build_scaled(config, 1.0)
    }

    /// Builds the paper scenario at the given scale from `config.seed`.
    #[must_use]
    pub fn build_scaled(config: RunConfig, scale: f64) -> Self {
        let dataset = dcfail_synth::Scenario::paper()
            .seed(config.seed)
            .scale(scale)
            .build()
            .into_dataset();
        Self::from_dataset(dataset, config)
    }

    /// Wraps an already-built dataset at data version 0.
    #[must_use]
    pub fn from_dataset(dataset: FailureDataset, config: RunConfig) -> Self {
        Self::from_snapshot(DatasetSnapshot::new(dataset, 0), config)
    }

    /// Wraps an existing snapshot — the serve daemon's ingest path, which
    /// mints snapshots at increasing versions and swaps Toolkits whole.
    #[must_use]
    pub fn from_snapshot(snapshot: DatasetSnapshot, config: RunConfig) -> Self {
        Self {
            snapshot,
            config,
            cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// The config renders default to.
    #[must_use]
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The snapshot every render reads.
    #[must_use]
    pub fn snapshot(&self) -> &DatasetSnapshot {
        &self.snapshot
    }

    /// Shorthand for `self.snapshot().version()`.
    #[must_use]
    pub const fn data_version(&self) -> u64 {
        self.snapshot.version()
    }

    /// Renders one artifact under the Toolkit's own config, cached.
    pub fn render(&self, id: ExperimentId) -> Arc<Rendered> {
        self.render_with(id, &self.config)
    }

    /// Renders one artifact under an explicit config, cached by
    /// `(id, data_version, config.digest())`. A hit returns the cached
    /// `Arc` without touching the dataset; hit and miss are observable as
    /// the `toolkit.cache_hit` / `toolkit.cache_miss` counters.
    pub fn render_with(&self, id: ExperimentId, config: &RunConfig) -> Arc<Rendered> {
        let key = (id, self.snapshot.version(), config.digest());
        if let Some(hit) = self.lock_cache().get(&key).cloned() {
            dcfail_obs::add("toolkit.cache_hit", 1);
            return hit;
        }
        dcfail_obs::add("toolkit.cache_miss", 1);
        let rendered = Arc::new(run(id, self.snapshot.dataset(), config));
        // Concurrent misses both render (determinism makes the results
        // identical); first insert wins so callers share one allocation.
        self.lock_cache()
            .entry(key)
            .or_insert_with(|| Arc::clone(&rendered))
            .clone()
    }

    /// Renders every artifact (paper order then extras), fanning out across
    /// threads like [`crate::run_all`] and filling the cache as it goes.
    pub fn render_all(&self) -> Vec<(ExperimentId, Arc<Rendered>)> {
        let _threads = ThreadGuard::install(self.config.threads);
        let _span = dcfail_obs::span("toolkit.render_all");
        // Same shape as run_all: the outer guard owns the thread override,
        // the per-render config must not re-install it mid-fan-out.
        let inner = RunConfig {
            threads: None,
            ..self.config.clone()
        };
        dcfail_par::par_map(&ExperimentId::ALL, |_, &id| {
            (id, self.render_with(id, &inner))
        })
    }

    /// Number of distinct artifacts currently cached.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.lock_cache().len()
    }

    /// Renders one artifact and wraps it in the versioned [`Envelope`].
    pub fn envelope(&self, id: ExperimentId) -> Envelope {
        let rendered = self.render(id);
        Envelope::new(
            id,
            self.snapshot.version(),
            &self.config,
            (*rendered).clone(),
        )
    }

    /// The canonical JSON bytes for one artifact — the single code path
    /// behind both `repro --json` and the daemon's `/reports/:id`, which is
    /// what makes their outputs byte-identical.
    pub fn envelope_json(&self, id: ExperimentId) -> String {
        self.envelope(id).to_json()
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, BTreeMap<CacheKey, Arc<Rendered>>> {
        // A poisoned cache only means another render panicked mid-insert;
        // the map itself is never left in a torn state.
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn toolkit() -> &'static Toolkit {
        static TK: OnceLock<Toolkit> = OnceLock::new();
        TK.get_or_init(|| Toolkit::build_scaled(RunConfig::with_seed(42), 0.02))
    }

    #[test]
    fn cache_hit_returns_the_same_allocation() {
        let tk = toolkit();
        let a = tk.render(ExperimentId::Fig2);
        let b = tk.render(ExperimentId::Fig2);
        assert!(Arc::ptr_eq(&a, &b), "second render must be a cache hit");
    }

    #[test]
    fn cache_hit_equals_cache_miss_bytes() {
        let tk = Toolkit::build_scaled(RunConfig::with_seed(7), 0.02);
        let miss = tk.envelope_json(ExperimentId::Table5);
        let hit = tk.envelope_json(ExperimentId::Table5);
        assert_eq!(miss, hit);
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        let tk = toolkit();
        let a = tk.render_with(ExperimentId::RateConfidence, &RunConfig::with_seed(1));
        let b = tk.render_with(ExperimentId::RateConfidence, &RunConfig::with_seed(2));
        assert_ne!(a.text, b.text, "seeds must key the cache separately");
    }

    #[test]
    fn render_all_matches_registry_run_all() {
        // Fresh toolkit: the shared one's cache carries other tests' keys,
        // and this test pins the exact cache population.
        let tk = Toolkit::build_scaled(RunConfig::with_seed(42), 0.02);
        let via_toolkit = tk.render_all();
        let via_registry = crate::run_all(tk.snapshot().dataset(), &RunConfig::with_seed(42));
        assert_eq!(via_toolkit.len(), via_registry.len());
        for ((tid, tr), (rid, rr)) in via_toolkit.iter().zip(&via_registry) {
            assert_eq!(tid, rid);
            assert_eq!(tr.text, rr.text, "{tid}: toolkit diverged from registry");
        }
        assert_eq!(tk.cache_len(), ExperimentId::ALL.len());
    }

    #[test]
    fn envelope_carries_snapshot_version() {
        let ds = dcfail_synth::Scenario::paper()
            .seed(42)
            .scale(0.02)
            .build()
            .into_dataset();
        let tk = Toolkit::from_snapshot(DatasetSnapshot::new(ds, 9), RunConfig::with_seed(42));
        let e = tk.envelope(ExperimentId::Table1);
        assert_eq!(e.data_version, 9);
        assert_eq!(e.experiment_id, ExperimentId::Table1);
    }
}
