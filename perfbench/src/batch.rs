//! `paper_batch`: the paper-regeneration path, one caller in a closed loop.
//!
//! Each pipeline takes one derived seed from scale-1.0 synthesis through
//! chaos injection and recovery, ticket re-classification, and a cold-cache
//! render of all 24 artifacts.

use crate::measure::{
    artifact_digest, between_probes, bracket, counter, derive_seed, median, ms_since, probe_ms,
    raw_and_probe, scaled_median, span_ms, Report, PROBE_REF_MS,
};
use crate::Settings;
use dcfail_audit::recover::recover_raw;
use dcfail_chaos::{inject, InjectionPlan};
use dcfail_model::dataset::FailureDataset;
use dcfail_obs::{MetricsReport, ObsHandle};
use dcfail_report::{ExperimentId, RunConfig, Toolkit};
use dcfail_stats::rng::StreamRng;
use dcfail_synth::Scenario;
use dcfail_tickets::classify::{apply_to_dataset, PipelineConfig};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Scenario scale of every timed pipeline (the paper's full fleet).
pub const SCALE: f64 = 1.0;
/// Distinct scenario seeds a run cycles through.
const SEEDS: u64 = 16;
/// Uniform corruption rate of the chaos stage (`repro chaos`'s default).
const CHAOS_RATE: f64 = 0.05;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Render-all pairs behind `par.speedup`.
const SPEEDUP_REPEATS: usize = 3;
/// Where the registry's golden digest is pinned.
const GOLDEN_FILE: &str = "tests/golden_report.rs";

/// Timings and outputs of one pipeline.
struct Pipeline {
    total_ms: f64,
    build_ms: f64,
    inject_ms: f64,
    recover_ms: f64,
    classify_ms: f64,
    render_ms: f64,
    machines: usize,
    events: usize,
    tickets: usize,
    corruptions: usize,
    repaired: usize,
    dropped: usize,
    accuracy: Option<f64>,
    artifacts: usize,
    cache_len: usize,
    digest: u64,
    recovered_clean: bool,
}

fn sizes(dataset: &FailureDataset) -> (usize, usize, usize) {
    (
        dataset.machines().len(),
        dataset.events().len(),
        dataset.tickets().len(),
    )
}

/// Seed → 24 artifacts. `total_ms` excludes the re-audit of the recovered
/// dataset, which is an output check, not pipeline work.
fn pipeline(seed: u64) -> Result<Pipeline, String> {
    let start = Instant::now();
    let t = Instant::now();
    let dataset = Scenario::paper()
        .seed(seed)
        .scale(SCALE)
        .build()
        .into_dataset();
    let build_ms = ms_since(t);
    let (machines, events, tickets) = sizes(&dataset);

    let t = Instant::now();
    let (parts, log) = inject(&dataset, &InjectionPlan::uniform(seed, CHAOS_RATE));
    drop(dataset);
    let inject_ms = ms_since(t);

    let t = Instant::now();
    let recovered = recover_raw(&parts).map_err(|e| format!("recovery failed: {e}"))?;
    drop(parts);
    let recover_ms = ms_since(t);

    let t = Instant::now();
    let recovered_clean = dcfail_audit::audit_dataset(&recovered.dataset).is_clean();
    let check_ms = ms_since(t);

    let t = Instant::now();
    let mut dataset = recovered.dataset;
    let mut rng = StreamRng::new(seed ^ 0x7ea).fork("repro.classify");
    let classification = apply_to_dataset(&mut dataset, PipelineConfig::default(), &mut rng);
    let classify_ms = ms_since(t);

    let t = Instant::now();
    let toolkit = Toolkit::from_dataset(dataset, RunConfig::with_seed(seed));
    let all = toolkit.render_all();
    let render_ms = ms_since(t);
    let total_ms = ms_since(start) - check_ms;

    Ok(Pipeline {
        total_ms,
        build_ms,
        inject_ms,
        recover_ms,
        classify_ms,
        render_ms,
        machines,
        events,
        tickets,
        corruptions: log.total(),
        repaired: recovered.report.records_repaired(),
        dropped: recovered.report.records_dropped(),
        accuracy: classification.accuracy_vs_truth(),
        artifacts: all.len(),
        cache_len: toolkit.cache_len(),
        digest: artifact_digest(all.iter().map(|(id, r)| (*id, &**r))),
        recovered_clean,
    })
}

/// Reads the pinned `GOLDEN` digest out of the registry's golden test.
fn pinned_golden() -> Result<u64, String> {
    let text = std::fs::read_to_string(GOLDEN_FILE)
        .map_err(|e| format!("cannot read {GOLDEN_FILE} (run from the repository root): {e}"))?;
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("const GOLDEN: u64"))
        .ok_or_else(|| format!("{GOLDEN_FILE} pins no `const GOLDEN: u64`"))?;
    let hex = line
        .split('=')
        .nth(1)
        .and_then(|v| v.trim().trim_end_matches(';').trim().strip_prefix("0x"))
        .ok_or_else(|| format!("unparsable GOLDEN line: {line}"))?;
    u64::from_str_radix(hex, 16).map_err(|e| format!("unparsable GOLDEN {hex}: {e}"))
}

/// Set-up: the registry's golden pin (seed 42, scale 0.02, 24 artifacts),
/// then one pipeline of `seed` outside the window, so allocator growth and
/// first-touch page faults land before it. Returns the golden digest.
fn setup(seed: u64) -> Result<u64, String> {
    let dataset = Scenario::paper()
        .seed(dcfail_report::DEFAULT_SEED)
        .scale(0.02)
        .build()
        .into_dataset();
    let all = dcfail_report::run_all(&dataset, &RunConfig::default());
    let golden = artifact_digest(all.iter().map(|(id, r)| (*id, r)));
    drop((dataset, all));
    pipeline(seed)?;
    Ok(golden)
}

/// Cold-cache `render_all` at `threads` over a copy of `dataset`.
fn render_all_ms(dataset: &FailureDataset, seed: u64, threads: usize) -> (f64, u64) {
    let config = RunConfig {
        threads: NonZeroUsize::new(threads),
        ..RunConfig::with_seed(seed)
    };
    let toolkit = Toolkit::from_dataset(dataset.clone(), config);
    let t = Instant::now();
    let all = toolkit.render_all();
    let ms = ms_since(t);
    (ms, artifact_digest(all.iter().map(|(id, r)| (*id, &**r))))
}

/// Per-pipeline obs readings of a traced pipeline.
fn traced_layers(obs: &MetricsReport) -> Vec<(&'static str, f64)> {
    let rest: f64 = ExperimentId::ALL
        .iter()
        .filter(|id| {
            !matches!(
                id,
                ExperimentId::Prediction | ExperimentId::Fig8 | ExperimentId::Whatif
            )
        })
        .map(|id| span_ms(obs, &format!("report.{}", id.key())))
        .sum();
    let busy = obs
        .histogram("par.worker.busy_ms")
        .map_or(0.0, |h| h.mean * h.count as f64);
    vec![
        ("synth.telemetry_ms", span_ms(obs, "telemetry")),
        ("synth.incidents_ms", span_ms(obs, "incidents")),
        ("synth.tickets_ms", span_ms(obs, "tickets")),
        ("tickets.kmeans_ms", span_ms(obs, "kmeans")),
        ("report.prediction_ms", span_ms(obs, "report.prediction")),
        ("report.fig8_ms", span_ms(obs, "report.fig8")),
        ("report.whatif_ms", span_ms(obs, "report.whatif")),
        ("report.rest_ms", rest),
        ("par.worker_busy_ms", busy),
    ]
}

pub fn run(settings: &Settings, report: &mut Report) -> Result<(), String> {
    // Set-up, several times; setup_s is the median.
    let golden = pinned_golden()?;
    let seeds: Vec<u64> = (0..SEEDS).map(|i| derive_seed(settings.seed, i)).collect();
    let mut setup_s = Vec::new();
    let mut golden_digests = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (digest, timed) = between_probes(1, || setup(seeds[0]));
        setup_s.push(timed);
        golden_digests.push(digest?);
    }
    let golden_ok = golden_digests.iter().all(|&d| d == golden);
    if !golden_ok {
        report.failed += 1;
    }
    report.check(
        "golden_report",
        golden_ok,
        format!(
            "scale-0.02 seed-42 digests of {} set-ups {:?}, pinned {golden:#018x}",
            golden_digests.len(),
            golden_digests
                .iter()
                .map(|d| format!("{d:#018x}"))
                .collect::<Vec<_>>()
        ),
    );

    let mut per_seed: BTreeMap<u64, (usize, usize, usize, u64)> = BTreeMap::new();
    // (pipeline ms, probe before it, traced) of every checked pipeline.
    let mut timed = Vec::new();
    let mut layer_samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut accuracy = Vec::new();
    let mut cache = (0u64, 0u64, 0usize);

    let window = Instant::now();
    // At least one operation, and one traced/untraced pair when tracing.
    let least = 1 + usize::from(settings.trace);
    let mut i = 0usize;
    while i < least || window.elapsed().as_secs_f64() < settings.seconds {
        let seed = seeds[i % seeds.len()];
        // The traced run alternates untraced and traced pipelines, so the
        // tracing overhead is measured against interleaved neighbours.
        let traced = settings.trace && i % 2 == 1;
        let obs = if traced {
            Some(ObsHandle::install().ok_or("the obs window is already taken")?)
        } else {
            None
        };
        report.attempted += 1;
        let probe = probe_ms(1);
        let outcome = pipeline(seed);
        let obs = obs.map(ObsHandle::finish);
        i += 1;
        let p = match outcome {
            Ok(p) => p,
            Err(e) => {
                report.failed += 1;
                report.check(format!("pipeline seed {seed}"), false, e);
                continue;
            }
        };
        let prior = per_seed
            .entry(seed)
            .or_insert((p.machines, p.events, p.tickets, p.digest));
        let ok = p.recovered_clean
            && p.artifacts == ExperimentId::ALL.len()
            && *prior == (p.machines, p.events, p.tickets, p.digest);
        if !ok {
            report.failed += 1;
            report.check(
                format!("pipeline seed {seed}"),
                false,
                format!(
                    "recovered re-audit clean: {}, artifacts: {}, digest {:#018x} (first \
                     run of this seed: {:#018x})",
                    p.recovered_clean, p.artifacts, p.digest, prior.3
                ),
            );
            continue;
        }
        if let Some(obs) = obs {
            timed.push((p.total_ms, probe, true));
            for (name, value) in traced_layers(&obs) {
                layer_samples.entry(name).or_default().push(value);
            }
            for (name, value) in [
                ("synth.build_ms", p.build_ms),
                ("chaos.inject_ms", p.inject_ms),
                ("chaos.corruptions", p.corruptions as f64),
                ("audit.recover_ms", p.recover_ms),
                ("audit.recover.repaired", p.repaired as f64),
                ("audit.recover.dropped", p.dropped as f64),
                ("tickets.classify_ms", p.classify_ms),
                ("report.render_all_ms", p.render_ms),
            ] {
                layer_samples.entry(name).or_default().push(value);
            }
            accuracy.extend(p.accuracy);
            cache.0 += counter(&obs, "toolkit.cache_hit");
            cache.1 += counter(&obs, "toolkit.cache_miss");
            cache.2 = p.cache_len;
        } else {
            timed.push((p.total_ms, probe, false));
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    report.window_peak_rss()?;

    for (seed, (machines, events, tickets, digest)) in &per_seed {
        report.work(
            format!("seed {seed}"),
            format!(
                "machines {machines}, events {events}, tickets {tickets}, artifacts digest \
                 {digest:#018x}"
            ),
        );
    }
    report.work("seeds", per_seed.len());
    report.work("scale", SCALE);
    report.work("chaos_rate", CHAOS_RATE);
    let (untraced_ms, traced_ms) = bracket(&timed, probe_ms(1));
    report.done("pipelines", timed.len());
    report.done("window_s", window_s);

    // A few set-ups are too few to average out the noise of scaling each
    // by its own probes: the set-up phase is scaled as one, by the median
    // of all its probes.
    let (setup_raw, setup_probe) = raw_and_probe(&setup_s);
    let setup = setup_raw * PROBE_REF_MS / setup_probe;
    if settings.trace {
        // par.speedup: the same dataset rendered cold at 1 and nproc
        // threads, alternating; both must produce the same bytes.
        let dataset = Scenario::paper()
            .seed(seeds[0])
            .scale(SCALE)
            .build()
            .into_dataset();
        let (mut one, mut many, mut digests) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..SPEEDUP_REPEATS {
            let (a, da) = render_all_ms(&dataset, seeds[0], 1);
            let (b, db) = render_all_ms(&dataset, seeds[0], settings.nproc);
            one.push(a);
            many.push(b);
            digests.extend([da, db]);
        }
        let same = digests.iter().all(|&d| d == digests[0]);
        report.failed += u64::from(!same);
        report.check(
            "parallel_equals_sequential",
            same,
            format!(
                "{} cold render_all at 1 and {} threads, digest {:#018x}",
                digests.len(),
                settings.nproc,
                digests[0]
            ),
        );
        for (name, values) in &layer_samples {
            report.layer(name, median(values));
        }
        report.layer("par.speedup", median(&one) / median(&many));
        if accuracy.is_empty() {
            report.absent(
                "tickets.accuracy",
                "no ground-truth classes in the traced pipelines",
            );
        } else {
            report.layer("tickets.accuracy", median(&accuracy));
        }
        let lookups = cache.0 + cache.1;
        report.layer(
            "report.cache_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                cache.0 as f64 / lookups as f64
            },
        );
        report.layer("report.cache_len", cache.2 as f64);
        report.layer(
            "trace.overhead_pct",
            (scaled_median(&traced_ms, PROBE_REF_MS) / scaled_median(&untraced_ms, PROBE_REF_MS)
                - 1.0)
                * 100.0,
        );
        report.done("traced_pipelines", traced_ms.len());
    } else {
        let pipeline_ms = scaled_median(&untraced_ms, PROBE_REF_MS);
        let (raw, probe) = raw_and_probe(&untraced_ms);
        report.e2e_scaled("setup_s", setup, setup_raw, setup_probe);
        report.e2e_scaled("result_ms", pipeline_ms, raw, probe);
        report.e2e_scaled("throughput_per_s", 1e3 / pipeline_ms, 1e3 / raw, probe);
        report.named(
            "pipeline_ms",
            pipeline_ms,
            "ms",
            format!(
                "median of {} pipelines scaled to the {PROBE_REF_MS} ms probe; raw median {raw}, \
                 probe median {probe}",
                untraced_ms.len(),
            ),
        );
    }
    report.named(
        "setup_s",
        setup,
        "s",
        format!(
            "median of {SETUP_REPEATS} set-ups (golden pin + one pipeline), scaled by \
             {PROBE_REF_MS} ms over the probe median; raw median {setup_raw}, probe median \
             {setup_probe}"
        ),
    );
    Ok(())
}
