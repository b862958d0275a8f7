//! Library-first handle over the build-then-render flow.
//!
//! [`Toolkit`] owns a built dataset (as an immutable [`DatasetSnapshot`]
//! with a monotonic data version), a [`RunConfig`], and a keyed artifact
//! cache `(ExperimentId, data_version, config digest) → rendered artifact
//! and its envelope JSON`, each key rendered and encoded once.
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
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

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

/// Most cached keys whose config differs from the Toolkit's own (today the
/// daemon's re-seeded `POST /whatif`). Past it the oldest such key is
/// evicted; the Toolkit's own config keeps all of its artifacts.
pub const VARIANT_CAP: usize = 32;

/// One cache entry. Each cell is filled once: readers that find it empty
/// while another fills it wait for that one render or encoding.
#[derive(Debug, Default)]
struct Slot {
    rendered: OnceLock<Arc<Rendered>>,
    /// The key's envelope JSON, encoded on the first
    /// [`Toolkit::envelope_json_with`] so plain renders encode nothing.
    json: OnceLock<Arc<str>>,
}

#[derive(Debug, Default)]
struct Cache {
    slots: BTreeMap<CacheKey, Arc<Slot>>,
    /// The cached keys under a config other than the Toolkit's own, oldest
    /// first.
    variants: VecDeque<CacheKey>,
}

/// A reusable render handle: dataset snapshot + config + artifact cache.
#[derive(Debug)]
pub struct Toolkit {
    snapshot: DatasetSnapshot,
    config: RunConfig,
    cache: Mutex<Cache>,
}

impl Toolkit {
    /// Builds the paper scenario at the given scale (1.0 is the full fleet)
    /// from `config.seed` and wraps it at data version 0.
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
            cache: Mutex::new(Cache::default()),
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
    /// `(id, data_version, config.digest())`. Each key renders once: a hit,
    /// or a miss that waits for another caller's render of the same key,
    /// returns the cached `Arc` without touching the dataset. The caller
    /// that renders counts a `toolkit.cache_miss`, every other a
    /// `toolkit.cache_hit`.
    pub fn render_with(&self, id: ExperimentId, config: &RunConfig) -> Arc<Rendered> {
        self.rendered(&self.slot(id, config), id, config)
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
        self.lock_cache().slots.len()
    }

    /// The canonical JSON bytes for one artifact under the Toolkit's own
    /// config — the single code path behind both `repro --json` and the
    /// daemon's `/reports/:id`, which is what makes their outputs
    /// byte-identical.
    pub fn envelope_json(&self, id: ExperimentId) -> Arc<str> {
        self.envelope_json_with(id, &self.config)
    }

    /// The versioned [`Envelope`] of one artifact under `config`, as JSON.
    /// The bytes are encoded once per cache key and shared by every later
    /// call.
    pub fn envelope_json_with(&self, id: ExperimentId, config: &RunConfig) -> Arc<str> {
        let slot = self.slot(id, config);
        let rendered = self.rendered(&slot, id, config);
        let json = slot.json.get_or_init(|| {
            let envelope = Envelope::new(id, self.data_version(), config, (*rendered).clone());
            envelope.to_json().into()
        });
        Arc::clone(json)
    }

    /// The cache slot of `(id, config)`, inserted empty on first use. The
    /// lock covers only the map: renders run on the returned slot. Inserting
    /// a variant key past [`VARIANT_CAP`] evicts the oldest one; callers
    /// already holding its slot keep using it.
    fn slot(&self, id: ExperimentId, config: &RunConfig) -> Arc<Slot> {
        let digest = config.digest();
        let key = (id, self.data_version(), digest);
        let mut cache = self.lock_cache();
        if let Some(slot) = cache.slots.get(&key) {
            return Arc::clone(slot);
        }
        if digest != self.config.digest() {
            if cache.variants.len() == VARIANT_CAP {
                if let Some(oldest) = cache.variants.pop_front() {
                    cache.slots.remove(&oldest);
                    dcfail_obs::add("toolkit.cache_evicted", 1);
                }
            }
            cache.variants.push_back(key);
        }
        Arc::clone(cache.slots.entry(key).or_default())
    }

    /// The slot's render, running it if no caller has.
    fn rendered(&self, slot: &Slot, id: ExperimentId, config: &RunConfig) -> Arc<Rendered> {
        let mut missed = false;
        let rendered = slot.rendered.get_or_init(|| {
            missed = true;
            Arc::new(run(id, self.snapshot.dataset(), config))
        });
        let counter = if missed {
            "toolkit.cache_miss"
        } else {
            "toolkit.cache_hit"
        };
        dcfail_obs::add(counter, 1);
        Arc::clone(rendered)
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, Cache> {
        // Every update under the lock leaves the map and the variant queue
        // consistent, and no render runs under it.
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
    fn render_all_encodes_no_envelope() {
        let tk = Toolkit::build_scaled(RunConfig::with_seed(42), 0.02);
        tk.render_all();
        let cache = tk.lock_cache();
        assert_eq!(cache.slots.len(), ExperimentId::ALL.len());
        assert!(
            cache.slots.values().all(|slot| slot.json.get().is_none()),
            "only envelope_json may encode an envelope"
        );
    }

    #[test]
    fn variant_configs_are_evicted_oldest_first_and_the_base_never() {
        let tk = Toolkit::build_scaled(RunConfig::with_seed(42), 0.002);
        let id = ExperimentId::Table1;
        let base = tk.render(id);
        let variant = |seed: u64| tk.render_with(id, &RunConfig::with_seed(seed));
        let oldest = variant(1_000);
        for seed in 1_001..=1_000 + VARIANT_CAP as u64 {
            variant(seed);
        }
        assert_eq!(tk.cache_len(), 1 + VARIANT_CAP);
        assert!(
            !Arc::ptr_eq(&oldest, &variant(1_000)),
            "the oldest variant was evicted"
        );
        assert!(Arc::ptr_eq(&base, &tk.render(id)));
        assert_eq!(tk.cache_len(), 1 + VARIANT_CAP);
    }

    #[test]
    fn a_variant_envelope_carries_its_own_config_digest() {
        let tk = Toolkit::build_scaled(RunConfig::with_seed(42), 0.002);
        let config = RunConfig::with_seed(9);
        let json = tk.envelope_json_with(ExperimentId::Table1, &config);
        assert!(Arc::ptr_eq(
            &json,
            &tk.envelope_json_with(ExperimentId::Table1, &config)
        ));
        let e: Envelope = serde_json::from_str(&json).unwrap();
        assert_eq!(e.config_digest, format!("{:#018x}", config.digest()));
        assert_ne!(json, tk.envelope_json(ExperimentId::Table1));
    }

    #[test]
    fn envelope_carries_snapshot_version() {
        let ds = dcfail_synth::Scenario::paper()
            .seed(42)
            .scale(0.02)
            .build()
            .into_dataset();
        let tk = Toolkit::from_snapshot(DatasetSnapshot::new(ds, 9), RunConfig::with_seed(42));
        let e: Envelope = serde_json::from_str(&tk.envelope_json(ExperimentId::Table1)).unwrap();
        assert_eq!(e.data_version, 9);
        assert_eq!(e.experiment_id, ExperimentId::Table1);
    }
}
