//! # dcfail-shard
//!
//! Out-of-core sharded scenario generation with mergeable streaming
//! estimators.
//!
//! `Scenario::build` materializes the whole fleet — every telemetry series,
//! hazard table and incident — before any analysis runs, so memory (not CPU)
//! is the scaling wall. [`build_sharded`] breaks it: the fleet is split into
//! contiguous machine-ID ranges ([`plan::shard_ranges`]) and each shard is
//! generated, analyzed and dropped before its results are merged. Because
//! every per-machine stage in `dcfail-synth` forks its RNG stream from the
//! machine's *global* id (`StreamRng::fork_index`), a shard produces exactly
//! the bytes the monolithic run produces for the same machines, and the
//! merged output is bit-identical to `Scenario::build` — at any shard count
//! and any thread count.
//!
//! ## Pipeline
//!
//! 1. **Population** — built whole. Machine/topology metadata is the one
//!    deliberate O(fleet) exception: it is two orders of magnitude smaller
//!    than telemetry and the spatial incident stage needs global structure.
//! 2. **Pass 1: normalization** — each shard generates its telemetry, folds
//!    it into a [`NormAccum`] and drops it.
//!    The accumulators absorb in index order; exact summation makes the
//!    resulting divisors bit-identical to the monolithic single pass.
//! 3. **Spatial incidents** — one global, telemetry-free sequential stream,
//!    exactly as the monolithic `incidents::simulate` runs it.
//! 4. **Pass 2: per-shard generation + analysis** — each shard regenerates
//!    its telemetry, builds its slice of the hazard table, walks the
//!    per-machine incident streams, then bins its machine range into the
//!    Fig. 8–10 panels with the batch runners' own driver
//!    ([`observe`](dcfail_core::panel::observe)), attributing the shard's
//!    events, and drops the telemetry.
//! 5. **Merge + assemble** — per-shard incident specs concatenate in shard
//!    order (= machine order, matching the monolithic extend) and sort on
//!    the canonical `(time, first machine)` key; ticket/event assembly then
//!    walks the spec list with sequential streams, byte-identical to the
//!    monolithic dataset. The merged dataset carries **no telemetry** —
//!    Figs. 8–10 render from the merged
//!    [`PanelCounts`] instead.
//!
//! Shards fan out across threads via `dcfail-par`; results merge in shard
//! index order, so output is independent of the schedule. Peak residency is
//! O(active shards), i.e. O(fleet / shards) per worker thread.
//!
//! ```
//! use dcfail_report::experiments::{ExperimentId, RunConfig};
//! use dcfail_synth::Scenario;
//!
//! let config = Scenario::paper().seed(7).scale(0.02).config().clone();
//! let sharded = dcfail_shard::build_sharded(&config, 4);
//! let fig1 = sharded.report(ExperimentId::Fig1, &RunConfig::default());
//! assert!(fig1.title.contains("Fig. 1"));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod crashtest;
pub mod plan;
pub mod resume;

pub use crashtest::{crash_matrix, CrashMatrix};
pub use plan::shard_ranges;
pub use resume::{config_digest, resume_sharded};

use dcfail_ckpt::{CheckpointStore, CkptError};
use dcfail_core::panel::{self, Panel, PanelCounts, PanelCurve};
use dcfail_model::prelude::*;
use dcfail_report::experiments::{self, ExperimentId, RunConfig, ThreadGuard};
use dcfail_report::runners::{render_fig10, render_fig8, render_fig9, Rendered};
use dcfail_stats::merge::Mergeable;
use dcfail_stats::rng::StreamRng;
use dcfail_synth::hazard::{HazardModel, NormAccum};
use dcfail_synth::incidents::{self, IncidentSpec};
use dcfail_synth::{population, scenario, telemetry_gen, ScenarioConfig};

/// What one pass-2 shard worker hands back to the coordinator, and the
/// payload of its checkpointed pass-2 segment.
#[derive(serde::Serialize, serde::Deserialize)]
pub(crate) struct ShardYield {
    /// Individual incident specs of the shard's machines, in machine order.
    pub(crate) specs: Vec<IncidentSpec>,
    /// The shard's Fig. 8–10 panel counts.
    pub(crate) panels: PanelCounts,
}

/// The merged result of a sharded build: the (telemetry-free) dataset plus
/// the merged Fig. 8–10 panels.
pub struct ShardedOutput {
    config: ScenarioConfig,
    num_shards: usize,
    dataset: FailureDataset,
    panels: Vec<PanelCurve>,
}

/// Generates the scenario shard-by-shard and merges the results.
///
/// The returned dataset is byte-identical to
/// `Scenario::from_config(config).build().into_dataset()` in machines,
/// topology, incidents, events and tickets — but carries an empty telemetry
/// store. Reports that need telemetry (Figs. 8–10) are served from the
/// merged panel counts via [`ShardedOutput::report`].
///
/// # Panics
///
/// Panics if `num_shards` is zero or the configuration has Error-level
/// audit findings (same contract as `Scenario::build`).
pub fn build_sharded(config: &ScenarioConfig, num_shards: usize) -> ShardedOutput {
    match run(config, num_shards, None) {
        Ok(out) => out,
        Err(e) => unreachable!("a build without a checkpoint store does no I/O: {e}"),
    }
}

/// The sharded pipeline behind [`build_sharded`] and
/// [`resume::resume_sharded`]. With a store it opens the run's manifest,
/// loads each per-shard segment that validates and publishes each one it
/// computes; without one it loads and writes nothing.
pub(crate) fn run(
    config: &ScenarioConfig,
    num_shards: usize,
    store: Option<&CheckpointStore>,
) -> Result<ShardedOutput, CkptError> {
    let config_report = dcfail_synth::config_audit::audit_config(config);
    assert!(
        config_report.is_clean(),
        "scenario configuration failed audit:\n{config_report}"
    );
    let _span = dcfail_obs::span(if store.is_some() {
        "shard.resume"
    } else {
        "shard.build"
    });
    let mut checkpoint = match store {
        Some(store) => Some((store, store.open(config_digest(config), num_shards as u64)?)),
        None => None,
    };
    let rng = StreamRng::new(config.seed);
    let pop = {
        let _s = dcfail_obs::span("population");
        population::build(config, &rng)
    };
    let ranges = shard_ranges(pop.machines.len(), num_shards);

    // Pass 1 — normalization constants. Each shard materializes only its own
    // telemetry; per-shard accumulators absorb in index order and the exact
    // sums make the divisors independent of the grouping.
    let norms = {
        let _s = dcfail_obs::span("shard.norms");
        // dlint::allow(D05): StreamRng is immutable; norms_shard forks a stream per machine id
        let accums = resume::stage(&mut checkpoint, "norms", ranges.len(), |s| {
            norms_shard(config, &pop, &ranges[s], &rng)
        })?;
        let mut merged = NormAccum::identity();
        for a in &accums {
            merged.absorb(a);
        }
        merged.finalize()
    };

    // Correlated incidents walk one global sequential stream and read no
    // telemetry, exactly as the monolithic stage runs.
    let (spatial_specs, spatial_hits) = {
        let _s = dcfail_obs::span("shard.spatial");
        incidents::spatial_stage(config, &pop, &rng)
    };

    // Pass 2 — generate, analyze, drop, shard by shard.
    let yields = {
        let _s = dcfail_obs::span("shard.fanout");
        // dlint::allow(D05): StreamRng is immutable; pass2_shard forks a stream per machine id
        resume::stage(&mut checkpoint, "pass2", ranges.len(), |s| {
            pass2_shard(
                config,
                &pop,
                &ranges[s],
                &norms,
                &spatial_specs,
                &spatial_hits,
                &rng,
            )
        })?
    };

    Ok(merge_and_assemble(
        config,
        num_shards,
        pop,
        spatial_specs,
        yields,
        &rng,
    ))
}

/// Pass-1 worker: generates one shard's telemetry, folds it into a
/// [`NormAccum`] and drops it.
fn norms_shard(
    config: &ScenarioConfig,
    pop: &population::Population,
    range: &std::ops::Range<usize>,
    rng: &StreamRng,
) -> NormAccum {
    let telemetry = telemetry_gen::generate_range(config, pop, range.clone(), rng);
    let mut accum = NormAccum::identity();
    for m in &pop.machines[range.clone()] {
        accum.accumulate(config, m, &telemetry);
    }
    accum
}

/// Pass-2 worker: regenerates one shard's telemetry, builds its hazard
/// slice, walks the per-machine incident streams, then bins its machines
/// into the Fig. 8–10 panels with the batch runners' driver, attributing the
/// shard's events.
fn pass2_shard(
    config: &ScenarioConfig,
    pop: &population::Population,
    range: &std::ops::Range<usize>,
    norms: &dcfail_synth::hazard::NormConstants,
    spatial_specs: &[IncidentSpec],
    spatial_hits: &[Vec<i64>],
    rng: &StreamRng,
) -> ShardYield {
    let weeks = config.horizon.num_weeks();
    let num_days = config.horizon.num_days() as i64;
    let machines = &pop.machines[range.clone()];
    let telemetry = telemetry_gen::generate_range(config, pop, range.clone(), rng);
    let hazard = HazardModel::for_range(config, pop, &telemetry, range.clone(), norms);
    // dlint::allow(D05): StreamRng is immutable; individual_incidents_for forks per machine id
    let per_machine = dcfail_par::par_map(machines, |local, m| {
        incidents::individual_incidents_for(
            config,
            &hazard,
            m,
            &spatial_hits[range.start + local],
            num_days,
            rng,
        )
    });
    // Spatial specs name machines of every shard; the driver ignores the
    // ones outside this range.
    let events = per_machine
        .iter()
        .flatten()
        .chain(spatial_specs)
        .filter_map(|spec| {
            let week = config.horizon.week_of(spec.at)?;
            Some(spec.machines.iter().map(move |&machine| (machine, week)))
        })
        .flatten();
    let panels = panel::observe(Panel::reads_telemetry, machines, &telemetry, weeks, events);
    ShardYield {
        specs: per_machine.into_iter().flatten().collect(),
        panels,
    }
}

/// Final stage: index-ordered merge of the per-shard yields, canonical sort,
/// ticket/event assembly.
fn merge_and_assemble(
    config: &ScenarioConfig,
    num_shards: usize,
    pop: population::Population,
    spatial_specs: Vec<IncidentSpec>,
    yields: Vec<ShardYield>,
    rng: &StreamRng,
) -> ShardedOutput {
    // Index-ordered merge: shard order is machine order, so concatenating
    // reproduces the monolithic pre-sort spec sequence, and the stable sort
    // lands every spec in the exact monolithic position.
    let mut specs = spatial_specs;
    let mut panels = PanelCounts::identity();
    for y in yields {
        specs.extend(y.specs);
        panels.absorb(&y.panels);
    }
    specs.sort_by_key(|i| (i.at, i.machines[0]));

    if dcfail_obs::enabled() {
        dcfail_obs::add("shard.shards", num_shards as u64);
        dcfail_obs::add("shard.machines", pop.machines.len() as u64);
        dcfail_obs::add("shard.specs", specs.len() as u64);
    }

    // Ticket/event assembly walks the spec list on sequential streams and
    // never reads telemetry — an empty store yields identical bytes.
    let dataset = {
        let _s = dcfail_obs::span("assemble");
        scenario::assemble_dataset(config, pop, Telemetry::new(), &specs, rng)
    };

    ShardedOutput {
        config: config.clone(),
        num_shards,
        dataset,
        panels: panels.finalize(),
    }
}

impl ShardedOutput {
    /// The merged dataset (telemetry-free).
    pub fn dataset(&self) -> &FailureDataset {
        &self.dataset
    }

    /// The configuration the fleet was generated from.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// How many shards the build used.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Runs one experiment against the sharded results.
    ///
    /// Figures 8–10 render from the merged panel counts; every other
    /// experiment delegates to
    /// [`report::run`](dcfail_report::experiments::run) on the merged
    /// dataset. Output is byte-identical to the monolithic path for every
    /// paper experiment and every extra except [`ExperimentId::Whatif`].
    ///
    /// # Panics
    ///
    /// Panics on [`ExperimentId::Whatif`]: the what-if resampler needs the
    /// full telemetry store, which a sharded build never materializes.
    pub fn report(&self, id: ExperimentId, config: &RunConfig) -> Rendered {
        match id {
            ExperimentId::Fig8 | ExperimentId::Fig9 | ExperimentId::Fig10 => {
                let _threads = ThreadGuard::install(config.threads);
                let _span = dcfail_obs::span_labeled("report", id.key());
                match id {
                    ExperimentId::Fig8 => render_fig8(&self.panels),
                    ExperimentId::Fig9 => render_fig9(&self.panels),
                    _ => render_fig10(&self.panels),
                }
            }
            ExperimentId::Whatif => {
                panic!("what-if resampling needs full telemetry; use the monolithic path")
            }
            _ => experiments::run(id, &self.dataset, config),
        }
    }

    /// Runs every paper experiment (Tables 1–7, Figs. 1–10), fanned out via
    /// `dcfail-par`, in registry order.
    pub fn paper_reports(&self, config: &RunConfig) -> Vec<(ExperimentId, Rendered)> {
        let _threads = ThreadGuard::install(config.threads);
        let _span = dcfail_obs::span("report.run_all");
        let inner = RunConfig {
            threads: None,
            ..config.clone()
        };
        dcfail_par::par_map(&ExperimentId::PAPER, |_, &id| (id, self.report(id, &inner)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcfail_synth::Scenario;

    #[test]
    #[should_panic(expected = "what-if resampling needs full telemetry")]
    fn whatif_is_refused() {
        let config = Scenario::paper().seed(2).scale(0.015).config().clone();
        let _ = build_sharded(&config, 2).report(ExperimentId::Whatif, &RunConfig::default());
    }

    #[test]
    fn a_build_keeps_its_config_and_shard_count() {
        let config = Scenario::paper().seed(3).scale(0.002).config().clone();
        let out = build_sharded(&config, 3);
        assert_eq!(out.num_shards(), 3);
        assert_eq!(out.config(), &config);
        assert!(
            out.dataset().telemetry().usage_series().next().is_none(),
            "telemetry-free"
        );
    }

    #[test]
    #[should_panic(expected = "shard count must be at least 1")]
    fn zero_shards_are_refused() {
        let config = Scenario::paper().seed(3).scale(0.002).config().clone();
        let _ = build_sharded(&config, 0);
    }
}
