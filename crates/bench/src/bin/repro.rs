//! Reproduction harness: regenerates every table and figure of Birke et al.
//! (DSN 2014) from a fresh simulation.
//!
//! ```text
//! repro [--scale S] [--seed N] [--classify] [--csv DIR] [--metrics OUT.json]
//!       [all | ablate | <id>...]
//! repro audit [--json] [--lenient] [--dataset FILE.json | --machines M.csv --events E.csv]
//! repro chaos [--seed N] [--scale S] [--rate R] [--smoke]
//! repro bench [--seed N] [--scale S] [--json] [--smoke] [--record] [--check]
//!             [--history FILE]
//! repro metrics [--seed N] [--scale S] [--json] [--smoke] [--metrics OUT.json]
//! repro shard [--machines N | --scale S] [--shards K] [--seed N] [--json] [--baseline]
//!             [--checkpoint-dir DIR] [--resume]
//! repro crashtest [--seed N] [--scale S] [--shards K] [--rate R] [--smoke]
//! repro stream [--seed N] [--scale S] [--events N] [--window P] [--slack M]
//!              [--json] [--smoke]
//! repro serve [--addr HOST:PORT] [--workers N] [--queue N] [--seed N]
//!             [--scale S] [--smoke]
//! repro lint [--json] [--root DIR]
//! ```
//!
//! Every subcommand shares one exit-code convention: **0** the command ran
//! and found nothing wrong, **1** the command ran but produced findings (an
//! audit or lint that is not clean, a failed `--smoke` gate), **2** the
//! command could not run at all (bad flags, unreadable files, I/O errors).
//!
//! * `all` (default) — run every artifact in paper order.
//! * `extras` — run the extension reports (availability, censoring-corrected
//!   inter-failure times, bootstrap CIs, failure prediction, what-ifs).
//! * `summary` — re-derive the paper's §VII findings with verdicts.
//! * `ablate` — run the ablation suite instead (`--scale` defaults to 0.3
//!   here: it builds several full simulations).
//! * `audit` — lint a trace against the `dcfail-audit` rule catalog and exit
//!   nonzero on Error-level findings. Audits a JSON trace (`--dataset`,
//!   evaluated *before* validation so broken files are still diagnosable), a
//!   CSV pair (`--machines` + `--events`), or — with neither — a freshly
//!   generated synth scenario as a self-check. `--json` emits the report as
//!   JSON instead of text. `--lenient` quarantines and repairs defective
//!   records instead of rejecting the trace, printing what was done.
//! * `chaos` — self-test of the dirty-data pipeline: corrupt a clean scenario
//!   at `--rate` (default 0.05), recover it, re-audit, and report estimate
//!   drift against the clean ground truth. `--smoke` defaults the scale to
//!   0.2 and exits nonzero unless recovery produced an audit-clean dataset
//!   and a non-empty degradation report.
//! * `metrics` — run the traced pipeline (synth → audit → chaos + recovery
//!   → classification → every report runner → stream replay; `--scale`
//!   defaults to 0.2 here, 0.05 with `--smoke`) under one `dcfail-obs`
//!   collection window and print the aggregated span/counter/histogram
//!   tree. `--json` prints the schema-versioned JSON export instead;
//!   `--smoke` validates the export (schema version, every pipeline stage
//!   span present, disabled-path overhead under 2%) and exits nonzero
//!   otherwise.
//! * `bench` — run the same traced pipeline as `metrics` and read its
//!   spans: build, report fan-out, each report runner and the stream
//!   replay. A 16-shard out-of-core build runs first, outside the window,
//!   to probe the sharded peak RSS. Writes `BENCH_<git-short-sha>.json`:
//!   the history entry below plus that probe's reading. `--json` also
//!   prints it to stdout; `--smoke` defaults the scale to 0.05 for CI.
//!   `--record` appends the entry (per-runner ms, total, stream replay,
//!   peak RSS) to the tracked perf history (`bench/history.jsonl`, override
//!   with `--history FILE`); `--check` compares total report time against
//!   the last recorded entry at the same scale/thread count and exits 1
//!   when it regressed by more than 15% (or when no baseline exists) — the
//!   CI perf gate. `--metrics OUT.json` writes the run's span export.
//! * `shard` — run the full paper report suite out-of-core: the fleet is
//!   generated shard-by-shard (`--shards`, default 8) and merged, so peak
//!   memory is bounded by the shard size, not the fleet. `--machines N`
//!   picks the scale closest to an N-machine fleet (capped at the paper's
//!   full scale); `--json` emits the reports as a JSON document;
//!   `--baseline` runs the same suite monolithically with the identical
//!   JSON shape, so the two outputs can be diffed byte-for-byte.
//!   `--checkpoint-dir DIR` makes the build crash-safe: per-shard state is
//!   persisted to checksummed segment files in `DIR` and a restarted run
//!   continues from the last complete shard, byte-identical to an
//!   uninterrupted run. `--resume` additionally *requires* `DIR` to hold a
//!   checkpoint (guards against resuming a mistyped path as a fresh run).
//! * `crashtest` — the crash-matrix self-test: run the checkpointed sharded
//!   pipeline (`--scale` defaults to 0.02 here) against an in-memory
//!   filesystem, hard-kill it at every I/O
//!   operation (`--smoke`: three spread kill points), resume each killed
//!   run, and verify every resume converges to the digest of an
//!   uninterrupted run. Also proves transient `EIO`/`ENOSPC` faults
//!   (`--rate`, clamped to [0.25, 0.5] for this leg) are absorbed by the
//!   deterministic retry policy. Exits 1 on any divergence.
//! * `stream` — replay a synthesized event feed through the streaming ingest
//!   engine (`dcfail-stream`): telemetry, failures and tickets arrive event
//!   at a time, boundedly reordered within `--slack` minutes (default 0),
//!   and the Fig. 8/9/10 estimators update incrementally over tumbling
//!   windows. Prints ingest throughput, window lifecycle stats, burst-alert
//!   lines, and the run digest, which is compared against the batch
//!   pipeline's digest — the stream==batch contract, checked on every run.
//!   `--events N` caps the replay at N events (throughput experiments; the
//!   digest gate is skipped since batch saw the whole horizon); `--window P`
//!   sets the burst detector's sliding history to P closed windows;
//!   `--json` emits stats, alerts and digests as JSON. `--smoke` defaults
//!   the scale to 0.05 and exits nonzero unless the digests match and every
//!   event was applied.
//! * `serve` — run the `dcfail-serve` HTTP/JSON daemon over the experiment
//!   registry: `GET /registry`, `GET /reports/:id` (the versioned envelope,
//!   byte-identical to `repro <id> --json`), `POST /whatif`, `POST /audit`,
//!   `GET /metrics`, `GET /stream/alerts`. `--addr` picks the bind address
//!   (default `127.0.0.1:4914`; port 0 for ephemeral), `--workers` the pool
//!   size, `--queue` the bounded request-queue depth (a full queue answers a
//!   typed 429). `--smoke` is the CI gate: ephemeral port at a small
//!   scale (0.05 unless `--scale` is given), every endpoint diffed against
//!   the library's own envelope bytes, a deterministic 429 flood against a held worker pool, and a clean
//!   shutdown that releases the port. Exits 1 on any deviation.
//! * `lint` — run the `dcfail-dlint` determinism lint over the workspace's
//!   own Rust source (rules D01–D17: hash-ordered collections, wall-clock
//!   reads, ambient randomness, unstable sorts, public functions only tests
//!   call, …), honoring inline
//!   `dlint::allow` suppressions and the checked-in `dlint.baseline`.
//!   `--root DIR` points at a workspace checkout (default: the current
//!   directory if it looks like one, else the build-time source tree);
//!   `--json` emits the versioned JSON report. Exits 1 on Error findings.
//! * `<id>` — one or more of `table1..table7`, `fig1..fig10`.
//! * `--json` — with `all`/`extras`/`<id>`: print each artifact as its
//!   versioned JSON envelope instead of text — the same bytes the daemon
//!   serves at `/reports/:id` (both go through `Toolkit::envelope_json`).
//! * `--classify` — re-label events with a freshly trained k-means pipeline
//!   (instead of the simulator's monitor labels) before analyzing.
//! * `--csv DIR` — also write each artifact's CSV series under `DIR`.
//! * `--metrics OUT.json` — with any subcommand: collect metrics while the
//!   command runs and write the JSON export to `OUT.json` on the way out.
//!   `metrics` and `bench` write their own traced run's export.

use dcfail_audit::import;
use dcfail_audit::recover::recover_raw;
use dcfail_audit::{AuditReport, DegradationReport, RecoveryMode};
use dcfail_bench::history::HistoryEntry;
use dcfail_bench::{ablation, pipeline};
use dcfail_chaos::{inject, InjectionPlan, IoFaultPlan};
use dcfail_ckpt::{ChaosFs, CheckpointStore, FaultFs, MemFs, RealFs};
use dcfail_core::{degradation, rates, repair};
use dcfail_model::prelude::*;
use dcfail_report::experiments::{ExperimentId, RunConfig};
use dcfail_report::Toolkit;
use dcfail_serve::conn::{get_request, post_request, roundtrip, PendingRequest};
use dcfail_serve::http::split_response;
use dcfail_serve::{serve, ServeConfig};
use dcfail_stats::rng::StreamRng;
use dcfail_synth::Scenario;
use dcfail_tickets::classify::{apply_to_dataset, PipelineConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The command ran to completion but what it examined is not clean: audit or
/// lint findings at Error level, a failed `--smoke` gate.
const EXIT_FINDINGS: u8 = 1;
/// The command could not run: bad flags, unreadable input, I/O failure.
const EXIT_USAGE: u8 = 2;

const USAGE: &str = "usage: repro [--scale S] [--seed N] [--classify] [--csv DIR] \
            [--json] [--metrics OUT.json] [all | ablate | <id>...]\n       \
     repro audit [--json] [--lenient] [--dataset FILE.json | \
            --machines M.csv --events E.csv]\n       \
     repro chaos [--seed N] [--scale S] [--rate R] [--smoke]\n       \
     repro bench [--seed N] [--scale S] [--json] [--smoke] [--record] \
            [--check] [--history FILE]\n       \
     repro metrics [--seed N] [--scale S] [--json] [--smoke] \
            [--metrics OUT.json]\n       \
     repro shard [--machines N | --scale S] [--shards K] [--seed N] \
            [--json] [--baseline] [--checkpoint-dir DIR] [--resume]\n       \
     repro crashtest [--seed N] [--scale S] [--shards K] [--rate R] \
            [--smoke]\n       \
     repro stream [--seed N] [--scale S] [--events N] [--window P] \
            [--slack M] [--json] [--smoke]\n       \
     repro serve [--addr HOST:PORT] [--workers N] [--queue N] [--seed N] \
            [--scale S] [--smoke]\n       \
     repro lint [--json] [--root DIR]\n\
     exit codes: 0 clean, 1 findings (dirty audit/lint, failed smoke), \
     2 usage or I/O error";

// CLI flags are naturally independent booleans.
#[allow(clippy::struct_excessive_bools)]
struct Options {
    /// `--scale`: the population scale; `None` when the flag is absent, so
    /// each subcommand applies its own default. An explicit value is never
    /// rewritten.
    scale: Option<f64>,
    seed: u64,
    rate: f64,
    classify: bool,
    lenient: bool,
    smoke: bool,
    baseline: bool,
    resume: bool,
    record: bool,
    check: bool,
    shards: usize,
    checkpoint_dir: Option<PathBuf>,
    history_path: Option<PathBuf>,
    csv_dir: Option<PathBuf>,
    json: bool,
    metrics_path: Option<PathBuf>,
    dataset_json: Option<PathBuf>,
    lint_root: Option<PathBuf>,
    /// `--addr`: the serve daemon's bind address.
    addr: Option<String>,
    /// `--workers`: the serve daemon's worker-pool size.
    workers: Option<usize>,
    /// `--queue`: the serve daemon's bounded request-queue depth.
    queue: Option<usize>,
    /// `--machines`: a CSV path for `audit`, a fleet size for `shard`.
    machines_arg: Option<String>,
    /// `--events`: a CSV path for `audit`, a replay cap for `stream`.
    events_arg: Option<String>,
    /// `--slack` (minutes): the stream engine's reorder bound.
    slack_minutes: i64,
    /// `--window`: the burst detector's sliding history, in closed windows.
    window_panes: Option<usize>,
    targets: Vec<String>,
}

/// `parse_args` outcome: either run with options, or print usage and leave.
enum Parsed {
    Help,
    Run(Box<Options>),
}

#[allow(clippy::too_many_lines)] // one match arm per flag; splitting obscures the grammar
fn parse_args() -> Result<Parsed, String> {
    let mut opts = Options {
        scale: None,
        seed: 42,
        rate: 0.05,
        classify: false,
        lenient: false,
        smoke: false,
        baseline: false,
        resume: false,
        record: false,
        check: false,
        shards: 8,
        checkpoint_dir: None,
        history_path: None,
        csv_dir: None,
        json: false,
        metrics_path: None,
        dataset_json: None,
        lint_root: None,
        addr: None,
        workers: None,
        queue: None,
        machines_arg: None,
        events_arg: None,
        slack_minutes: 0,
        window_panes: None,
        targets: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                opts.scale = Some(v.parse().map_err(|_| format!("bad scale '{v}'"))?);
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--rate" => {
                let v = args.next().ok_or("--rate needs a value")?;
                opts.rate = v.parse().map_err(|_| format!("bad rate '{v}'"))?;
                if !(0.0..=1.0).contains(&opts.rate) {
                    return Err(format!("--rate must be in [0, 1], got {v}"));
                }
            }
            "--classify" => opts.classify = true,
            "--lenient" => opts.lenient = true,
            "--resume" => opts.resume = true,
            "--checkpoint-dir" => {
                let v = args.next().ok_or("--checkpoint-dir needs a directory")?;
                opts.checkpoint_dir = Some(PathBuf::from(v));
            }
            "--smoke" => opts.smoke = true,
            "--baseline" => opts.baseline = true,
            "--record" => opts.record = true,
            "--check" => opts.check = true,
            "--history" => {
                let v = args.next().ok_or("--history needs a file")?;
                opts.history_path = Some(PathBuf::from(v));
            }
            "--shards" => {
                let v = args.next().ok_or("--shards needs a value")?;
                opts.shards = v.parse().map_err(|_| format!("bad shard count '{v}'"))?;
                if opts.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--csv" => {
                let v = args.next().ok_or("--csv needs a directory")?;
                opts.csv_dir = Some(PathBuf::from(v));
            }
            "--json" => opts.json = true,
            "--metrics" => {
                let v = args.next().ok_or("--metrics needs an output file")?;
                opts.metrics_path = Some(PathBuf::from(v));
            }
            "--dataset" => {
                let v = args.next().ok_or("--dataset needs a file")?;
                opts.dataset_json = Some(PathBuf::from(v));
            }
            "--root" => {
                let v = args.next().ok_or("--root needs a directory")?;
                opts.lint_root = Some(PathBuf::from(v));
            }
            "--addr" => {
                let v = args.next().ok_or("--addr needs a HOST:PORT address")?;
                opts.addr = Some(v);
            }
            "--workers" => {
                let v = args.next().ok_or("--workers needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad worker count '{v}'"))?;
                if n == 0 {
                    return Err("--workers must be at least 1".into());
                }
                opts.workers = Some(n);
            }
            "--queue" => {
                let v = args.next().ok_or("--queue needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad queue depth '{v}'"))?;
                if n == 0 {
                    return Err("--queue must be at least 1".into());
                }
                opts.queue = Some(n);
            }
            "--machines" => {
                let v = args.next().ok_or("--machines needs a value")?;
                opts.machines_arg = Some(v);
            }
            "--events" => {
                let v = args.next().ok_or("--events needs a value")?;
                opts.events_arg = Some(v);
            }
            "--slack" => {
                let v = args.next().ok_or("--slack needs a value (minutes)")?;
                opts.slack_minutes = v.parse().map_err(|_| format!("bad slack '{v}'"))?;
                if opts.slack_minutes < 0 {
                    return Err(format!("--slack must be non-negative, got {v}"));
                }
            }
            "--window" => {
                let v = args.next().ok_or("--window needs a value (panes)")?;
                let panes: usize = v.parse().map_err(|_| format!("bad window '{v}'"))?;
                if panes == 0 {
                    return Err("--window must be at least 1".into());
                }
                opts.window_panes = Some(panes);
            }
            "--help" | "-h" => return Ok(Parsed::Help),
            other => opts.targets.push(other.to_string()),
        }
    }
    if opts.targets.is_empty() {
        opts.targets.push("all".into());
    }
    Ok(Parsed::Run(Box::new(opts)))
}

fn read_file(path: &PathBuf) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Audits the trace named by `opts`, returning the report plus whatever the
/// lenient path repaired (empty in strict mode).
fn audit_report(opts: &Options) -> Result<(AuditReport, DegradationReport), String> {
    let mode = if opts.lenient {
        RecoveryMode::Lenient
    } else {
        RecoveryMode::Strict
    };
    if let Some(path) = &opts.dataset_json {
        let json = read_file(path)?;
        if opts.lenient {
            let (_, report, degradation) = import::dataset_from_json_with(&json, mode)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            return Ok((report, degradation));
        }
        // Audit the file as written: the raw mirror accepts what the strict
        // parser would reject, so every defect gets named.
        let raw = serde_json::from_str::<dcfail_audit::RawDatasetParts>(&json)
            .map_err(|e| format!("{} does not parse as a trace: {e}", path.display()))?;
        return Ok((dcfail_audit::audit_raw(&raw), DegradationReport::default()));
    }
    if let (Some(machines), Some(events)) = (&opts.machines_arg, &opts.events_arg) {
        let machines_csv = read_file(&PathBuf::from(machines))?;
        let events_csv = read_file(&PathBuf::from(events))?;
        let horizon = Horizon::observation_year();
        let (_, report, degradation) =
            import::dataset_from_csv_with(&machines_csv, &events_csv, horizon, mode)
                .map_err(|e| e.to_string())?;
        return Ok((report, degradation));
    }
    // Self-check mode: audit a freshly generated scenario.
    let scale = opts.scale.unwrap_or(1.0);
    eprintln!(
        "auditing generated paper scenario (seed {}, scale {scale}) ...",
        opts.seed
    );
    let out = Scenario::paper().seed(opts.seed).scale(scale).build();
    Ok((
        dcfail_audit::audit_dataset(out.dataset()),
        DegradationReport::default(),
    ))
}

/// Runs the `audit` subcommand: lint a trace, print the report, exit nonzero
/// on Error-level findings.
fn run_audit(opts: &Options) -> Result<ExitCode, String> {
    if opts.machines_arg.is_some() != opts.events_arg.is_some() {
        return Err("--machines and --events must be given together".into());
    }
    if opts.dataset_json.is_some() && opts.machines_arg.is_some() {
        return Err("--dataset and --machines/--events are mutually exclusive".into());
    }
    let (report, degradation) = audit_report(opts)?;
    if !degradation.is_empty() {
        // The repair log goes to stderr so `--json` stdout stays parseable.
        eprint!("{degradation}");
    }
    if opts.json {
        let s = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("cannot serialize report: {e}"))?;
        println!("{s}");
    } else {
        print!("{}", report.render_text());
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FINDINGS)
    })
}

/// Prints clean-vs-recovered drift for the headline point estimates.
fn print_drift(clean: &FailureDataset, recovered: &FailureDataset) {
    let drift = |c: f64, r: f64| (r - c) / c * 100.0;
    for kind in [MachineKind::Pm, MachineKind::Vm] {
        match (
            rates::mtbf_days(clean, kind),
            rates::mtbf_days(recovered, kind),
        ) {
            (Some(c), Some(r)) => {
                println!(
                    "  {kind} MTBF          {c:>9.1} d  ->  {r:>9.1} d  ({:+.1}%)",
                    drift(c, r)
                );
            }
            _ => println!("  {kind} MTBF          unavailable"),
        }
        let mean_repair = |ds: &FailureDataset| {
            let hours = repair::repair_hours(ds, kind);
            if hours.is_empty() {
                None
            } else {
                Some(hours.iter().sum::<f64>() / hours.len() as f64)
            }
        };
        match (mean_repair(clean), mean_repair(recovered)) {
            (Some(c), Some(r)) => {
                println!(
                    "  {kind} mean repair   {c:>9.1} h  ->  {r:>9.1} h  ({:+.1}%)",
                    drift(c, r)
                );
            }
            _ => println!("  {kind} mean repair   unavailable"),
        }
    }
}

/// Prints the robust estimators' verdicts on the recovered dataset.
fn print_robust(recovered: &FailureDataset) {
    let fig2 = degradation::weekly_failure_rates_robust(recovered);
    println!(
        "  weekly failure rates: {} (completeness {:.0}%)",
        if fig2.value.is_some() {
            "available"
        } else {
            "unavailable"
        },
        fig2.completeness * 100.0
    );
    let mut caveats = fig2.caveats;
    for kind in [MachineKind::Pm, MachineKind::Vm] {
        caveats.extend(degradation::interfailure_robust(recovered, kind).caveats);
        caveats.extend(degradation::repair_robust(recovered, kind).caveats);
    }
    if caveats.is_empty() {
        println!("  no estimator caveats");
    }
    for caveat in caveats {
        println!("  caveat: {caveat}");
    }
}

/// Runs the `chaos` subcommand: corrupt a clean scenario, recover it, re-audit,
/// and report drift. `--smoke` makes the run a pass/fail self-test.
fn run_chaos(opts: &Options) -> Result<ExitCode, String> {
    // The smoke run is a CI gate: it defaults to a small scale.
    let scale = opts.scale.unwrap_or(if opts.smoke { 0.2 } else { 1.0 });
    eprintln!(
        "chaos: generating clean paper scenario (seed {}, scale {scale}) ...",
        opts.seed
    );
    let clean = Scenario::paper()
        .seed(opts.seed)
        .scale(scale)
        .build()
        .into_dataset();

    let plan = InjectionPlan::uniform(opts.seed, opts.rate);
    let (parts, log) = inject(&clean, &plan);
    println!(
        "== corruption (seed {}, rate {:.1}%) ==",
        opts.seed,
        opts.rate * 100.0
    );
    print!("{log}");

    let recovered = recover_raw(&parts).map_err(|e| format!("recovery failed: {e}"))?;
    let report = dcfail_audit::audit_dataset(&recovered.dataset);
    println!("\n== quarantine and recovery ==");
    print!("{}", recovered.report);
    println!(
        "re-audit of recovered dataset: {}",
        if report.is_clean() {
            "clean"
        } else {
            "DIRTY (bug in recovery)"
        }
    );
    if !report.is_clean() {
        print!("{}", report.render_text());
    }

    println!("\n== estimate drift (clean -> recovered) ==");
    print_drift(&clean, &recovered.dataset);
    print_robust(&recovered.dataset);

    if opts.smoke {
        if !report.is_clean() {
            eprintln!("chaos smoke FAILED: recovered dataset re-audits dirty");
            return Ok(ExitCode::from(EXIT_FINDINGS));
        }
        if log.total() > 0 && recovered.report.is_empty() {
            eprintln!(
                "chaos smoke FAILED: corruption was injected but the degradation \
                 report is empty"
            );
            return Ok(ExitCode::from(EXIT_FINDINGS));
        }
        println!("\nchaos smoke: OK ({} corruptions recovered)", log.total());
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FINDINGS)
    })
}

fn run_ablate(opts: &Options) -> ExitCode {
    // Ablations run several full simulations; default to a small scale.
    let scale = opts.scale.unwrap_or(0.3);
    eprintln!(
        "ablate: running the ablation suite (seed {}, scale {scale}) ...",
        opts.seed
    );
    println!("== ablation suite (seed {}, scale {scale}) ==\n", opts.seed);
    for a in ablation::run_all(opts.seed, scale) {
        println!(
            "{:<22} {:<45} with: {:>10.3}  without: {:>10.3}  impact: {}",
            a.effect,
            a.metric,
            a.with_effect,
            a.without_effect,
            a.impact()
                .map_or_else(|| "inf".into(), |i| format!("{i:.1}x"))
        );
    }
    ExitCode::SUCCESS
}

/// Shard count of `bench`'s out-of-core memory probe.
const SHARD_PROBE_SHARDS: usize = 16;

/// The `repro bench` document, printed by `--json` and written to
/// `BENCH_<git>.json`: the entry `--record` appends, plus the shard probe.
#[derive(serde::Serialize)]
struct BenchDoc {
    entry: HistoryEntry,
    shard_probe_shards: usize,
    /// Peak RSS (kB) right after the sharded build, which runs before
    /// anything monolithic touches the heap. `VmHWM` is monotone, so an
    /// `entry.peak_rss_kb` above it is memory the monolithic path needed.
    shard_peak_rss_kb: Option<u64>,
}

/// Runs the `bench` subcommand: trace the pipeline, read the build, report
/// and stream times from its spans, write `BENCH_<git-short-sha>.json`,
/// and print a summary. `--record` appends the run to the tracked perf
/// history; `--check` gates it against the last recorded entry at the same
/// scale/thread count.
fn run_bench(opts: &Options) -> Result<ExitCode, String> {
    // The smoke run is a CI gate: it defaults to a small scale. Everything
    // else benches the full fleet unless told otherwise.
    let scale = opts.scale.unwrap_or(if opts.smoke { 0.05 } else { 1.0 });
    eprintln!(
        "bench: tracing the pipeline (seed {}, scale {scale}, {} threads) ...",
        opts.seed,
        dcfail_par::thread_count()
    );
    // The shard probe runs first and outside the window: `VmHWM` is a
    // high-water mark, so it must read before anything monolithic runs.
    let shard_peak_rss_kb = {
        let config = Scenario::paper()
            .seed(opts.seed)
            .scale(scale)
            .config()
            .clone();
        let _probe = dcfail_shard::build_sharded(&config, SHARD_PROBE_SHARDS);
        peak_rss_kb()
    };

    let handle =
        dcfail_obs::ObsHandle::install().ok_or("another metrics collection window is active")?;
    let run = pipeline::run(opts.seed, scale, opts.rate);
    let metrics = handle.finish();
    if let Some(path) = &opts.metrics_path {
        write_metrics(path, &metrics)?;
    }
    let run = run?;
    let git = git_revision(Path::new("."));
    let doc = BenchDoc {
        entry: HistoryEntry::from_run(git, &run, &metrics, peak_rss_kb())?,
        shard_probe_shards: SHARD_PROBE_SHARDS,
        shard_peak_rss_kb,
    };
    let entry = &doc.entry;
    let json = serde_json::to_string_pretty(&doc)
        .map_err(|e| format!("cannot serialize bench report: {e}"))?;
    let path = PathBuf::from(format!("BENCH_{}.json", entry.git));
    std::fs::write(&path, &json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if opts.json {
        println!("{json}");
    } else {
        let runners_ms: f64 = entry.runners.iter().map(|r| r.ms).sum();
        println!(
            "build {:.1} ms | reports {:.1} ms on {} threads ({:.1} ms summed over runners)",
            entry.build_ms, entry.report_ms, entry.threads, runners_ms
        );
        println!(
            "dataset: {} machines, {} events, {} incidents, {} tickets",
            run.machines, run.events, run.incidents, run.tickets
        );
        if let Some(stream) = &entry.stream {
            println!(
                "stream: {} feed events replayed in {:.1} ms ({:.2} M events/s)",
                stream.events,
                stream.ingest_ms,
                stream.events_per_sec / 1e6
            );
        }
        match (shard_peak_rss_kb, entry.peak_rss_kb) {
            (Some(shard), Some(mono)) => println!(
                "peak RSS: {shard} kB after {SHARD_PROBE_SHARDS}-shard out-of-core build vs \
                 {mono} kB after the monolithic pipeline"
            ),
            _ => println!("peak RSS: unavailable (no readable VmHWM in /proc/self/status)"),
        }
    }
    eprintln!("bench report written to {}", path.display());

    if !(opts.record || opts.check) {
        return Ok(ExitCode::SUCCESS);
    }
    let history_path = opts
        .history_path
        .clone()
        .unwrap_or_else(|| PathBuf::from(dcfail_bench::history::DEFAULT_PATH));
    // Check before recording, so a `--check --record` run gates against the
    // previous baseline rather than against itself.
    let gate_failed = opts.check && check_perf_gate(entry, &history_path)?;
    if opts.record {
        dcfail_bench::history::append(&history_path, entry)?;
        eprintln!(
            "bench: recorded report {:.1} ms (scale {}, {} threads) to {}",
            entry.report_ms,
            entry.scale,
            entry.threads,
            history_path.display()
        );
    }
    if gate_failed {
        return Ok(ExitCode::from(EXIT_FINDINGS));
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes a collection window's JSON export to `path` (`--metrics`).
fn write_metrics(path: &Path, report: &dcfail_obs::MetricsReport) -> Result<(), String> {
    std::fs::write(path, report.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("metrics written to {}", path.display());
    Ok(())
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`), or `None` when the file is unavailable (non-Linux).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Short git revision of the checkout at `dir`, or `"nogit"` when it is
/// not a git checkout (export tarballs, vendored checkouts) or git itself
/// is unavailable. Any failure yields `"nogit"` rather than an error: the
/// revision only labels the report.
fn git_revision(dir: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(dir)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "nogit".into(), |s| s.trim().to_string())
}

/// Compares the fresh bench entry against the last recorded baseline at the
/// same (scale, threads) and prints the verdict. Returns whether the perf
/// gate failed (regression or missing baseline).
fn check_perf_gate(entry: &HistoryEntry, history_path: &Path) -> Result<bool, String> {
    use dcfail_bench::history::{check, load, GateVerdict, NOISE_FLOOR_MS, REGRESSION_TOLERANCE};
    let mut gate_failed = false;
    let history = load(history_path)?;
    match check(&history, entry, REGRESSION_TOLERANCE) {
        GateVerdict::Pass { baseline, ratio } => {
            println!(
                "perf gate: ok — report {:.1} ms vs baseline {:.1} ms ({} @ scale {}, \
                     {} threads): {:+.1}% within the {:.0}% + {:.0} ms tolerance",
                entry.report_ms,
                baseline.report_ms,
                baseline.git,
                entry.scale,
                entry.threads,
                (ratio - 1.0) * 100.0,
                REGRESSION_TOLERANCE * 100.0,
                NOISE_FLOOR_MS
            );
        }
        GateVerdict::Regression { baseline, ratio } => {
            println!(
                "perf gate: REGRESSION — report {:.1} ms vs baseline {:.1} ms ({} @ \
                     scale {}, {} threads): {:+.1}% exceeds the {:.0}% + {:.0} ms tolerance",
                entry.report_ms,
                baseline.report_ms,
                baseline.git,
                entry.scale,
                entry.threads,
                (ratio - 1.0) * 100.0,
                REGRESSION_TOLERANCE * 100.0,
                NOISE_FLOOR_MS
            );
            // Name the slowest-growing runners so the offender is
            // obvious without rerunning anything.
            let mut growth: Vec<(String, f64, f64)> = entry
                .runners
                .iter()
                .filter_map(|r| {
                    let base = baseline.runners.iter().find(|b| b.id == r.id)?;
                    Some((r.id.clone(), base.ms, r.ms))
                })
                .collect();
            growth.sort_by(|a, b| (b.2 - b.1).total_cmp(&(a.2 - a.1)));
            for (id, base_ms, ms) in growth.iter().take(3) {
                println!("  {id}: {base_ms:.1} ms -> {ms:.1} ms");
            }
            gate_failed = true;
        }
        GateVerdict::StreamRegression { baseline, ratio } => {
            let (cur, base) = (
                entry.stream.as_ref().expect("stream leg fired"),
                baseline.stream.as_ref().expect("stream leg fired"),
            );
            println!(
                "perf gate: STREAM REGRESSION — ingest {:.1} ms vs baseline {:.1} ms \
                     ({} @ scale {}, {} threads): {:+.1}% exceeds the {:.0}% + {:.0} ms \
                     tolerance ({:.2} -> {:.2} M events/s)",
                cur.ingest_ms,
                base.ingest_ms,
                baseline.git,
                entry.scale,
                entry.threads,
                (ratio - 1.0) * 100.0,
                REGRESSION_TOLERANCE * 100.0,
                NOISE_FLOOR_MS,
                base.events_per_sec / 1e6,
                cur.events_per_sec / 1e6
            );
            gate_failed = true;
        }
        GateVerdict::NoBaseline => {
            println!(
                "perf gate: NO BASELINE at scale {} with {} threads in {} — record one \
                     with `repro bench --record`",
                entry.scale,
                entry.threads,
                history_path.display()
            );
            gate_failed = true;
        }
    }
    Ok(gate_failed)
}

/// Measures the disabled-path cost of the metrics layer: nanoseconds per
/// inert `span` + `add` call while no collection window is active. This is
/// what every instrumented hot path pays when `repro` runs without
/// `--metrics` — the layer's contract is that it stays negligible (<2% of
/// pipeline wall-clock).
fn disabled_ns_per_call() -> f64 {
    use std::hint::black_box;
    const CALLS: u32 = 1_000_000;
    assert!(
        !dcfail_obs::enabled(),
        "overhead probe must run outside a collection window"
    );
    let start = Instant::now();
    for _ in 0..CALLS {
        let span = dcfail_obs::span(black_box("overhead.probe"));
        dcfail_obs::add(black_box("overhead.probe"), black_box(1));
        drop(black_box(span));
    }
    start.elapsed().as_secs_f64() * 1e9 / (2.0 * f64::from(CALLS))
}

/// Span leaves (`has_stage` names) every full-pipeline metrics run must
/// record; the smoke gate fails if any is missing.
const REQUIRED_STAGES: &[&str] = &[
    // synth
    "synth.build",
    "population",
    "placement",
    "telemetry",
    "incidents",
    "hazard",
    "spatial",
    "individual",
    "assemble",
    "tickets",
    "haystack",
    // audit + recovery
    "audit.dataset",
    "audit.recover",
    // chaos
    "chaos.copy",
    "chaos.inject",
    // ticket classification
    "classify",
    "tokenize",
    "tfidf.fit",
    "tfidf.transform",
    "kmeans",
    "manual_label",
    // stats
    "stats.bootstrap",
    // report fan-out (the registry covers the extras too)
    "report.run_all",
    // stream replay of the same dataset
    pipeline::REPLAY_SPAN,
];

/// Runs the `metrics` subcommand: trace the pipeline under one collection
/// window, print (or write) the aggregated report, and — with `--smoke` —
/// validate the export and the disabled-path overhead.
fn run_metrics(opts: &Options) -> Result<ExitCode, String> {
    // Smoke stays small for CI; without `--scale` the run defaults to
    // something that finishes quickly; an explicit scale is honoured.
    let scale = opts.scale.unwrap_or(if opts.smoke { 0.05 } else { 0.2 });

    // The disabled-cost probe must run before the window opens.
    let per_call_ns = disabled_ns_per_call();

    let handle =
        dcfail_obs::ObsHandle::install().ok_or("another metrics collection window is active")?;
    eprintln!(
        "metrics: tracing full pipeline (seed {}, scale {scale}, {} threads) ...",
        opts.seed,
        dcfail_par::thread_count()
    );
    let wall = Instant::now();
    pipeline::run(opts.seed, scale, opts.rate).map_err(|e| format!("metrics: {e}"))?;
    let wall_ns = wall.elapsed().as_secs_f64() * 1e9;
    let report = handle.finish();

    // Upper-bound estimate of what the *disabled* layer would have cost this
    // run: two inert calls per span closure (open + drop), one per histogram
    // sample, one per counter. Counter totals aggregate an unknown number of
    // add() calls, so span closures dominate the estimate by construction.
    let instrumented_calls = report.spans.iter().map(|s| s.count * 2).sum::<u64>()
        + report
            .histograms
            .iter()
            .map(|h| h.count as u64)
            .sum::<u64>()
        + report.counters.len() as u64;
    let overhead_pct = instrumented_calls as f64 * per_call_ns / wall_ns * 100.0;

    if opts.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    eprintln!(
        "disabled-path cost: {per_call_ns:.1} ns/call x {instrumented_calls} calls \
         = {overhead_pct:.3}% of {:.0} ms wall-clock",
        wall_ns / 1e6
    );
    if let Some(path) = &opts.metrics_path {
        write_metrics(path, &report)?;
    }

    if opts.smoke {
        if report.schema_version != dcfail_obs::SCHEMA_VERSION {
            eprintln!(
                "metrics smoke FAILED: schema version {} != {}",
                report.schema_version,
                dcfail_obs::SCHEMA_VERSION
            );
            return Ok(ExitCode::from(EXIT_FINDINGS));
        }
        let mut missing: Vec<&str> = REQUIRED_STAGES
            .iter()
            .copied()
            .filter(|stage| !report.has_stage(stage))
            .collect();
        missing.extend(
            ExperimentId::ALL
                .iter()
                .map(|id| id.key())
                .filter(|key| !report.has_stage(&format!("report.{key}"))),
        );
        if !missing.is_empty() {
            eprintln!(
                "metrics smoke FAILED: missing stage spans: {}",
                missing.join(", ")
            );
            return Ok(ExitCode::from(EXIT_FINDINGS));
        }
        if report.counter("par.jobs").unwrap_or(0) == 0 {
            eprintln!("metrics smoke FAILED: no par.jobs counter");
            return Ok(ExitCode::from(EXIT_FINDINGS));
        }
        if overhead_pct >= 2.0 {
            eprintln!("metrics smoke FAILED: disabled-path overhead {overhead_pct:.2}% >= 2%");
            return Ok(ExitCode::from(EXIT_FINDINGS));
        }
        println!(
            "metrics smoke: OK ({} spans, {} counters, {} histograms, overhead {overhead_pct:.3}%)",
            report.spans.len(),
            report.counters.len(),
            report.histograms.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// One rendered report in the `repro shard` JSON document.
#[derive(serde::Serialize)]
struct ShardReportEntry {
    id: String,
    title: String,
    text: String,
    csv: Option<String>,
}

/// The `repro shard --json` document. The sharded and `--baseline` paths
/// emit the identical shape (shard count deliberately excluded), so the two
/// outputs diff byte-for-byte when the pipelines agree.
#[derive(serde::Serialize)]
struct ShardReportDoc {
    seed: u64,
    scale: f64,
    machines: usize,
    reports: Vec<ShardReportEntry>,
}

/// Resolves `--machines N` to the population scale whose fleet is closest
/// to `N` machines, capped at the paper's full scale.
fn scale_for_fleet(seed: u64, target: usize) -> Result<f64, String> {
    if target == 0 {
        return Err("--machines must be at least 1".into());
    }
    let full_config = Scenario::paper().seed(seed).config().clone();
    let full = dcfail_synth::population::build(&full_config, &StreamRng::new(seed))
        .machines
        .len();
    if target >= full {
        if target > full {
            eprintln!(
                "shard: --machines {target} exceeds the paper's full fleet \
                 ({full} machines); running at full scale"
            );
        }
        return Ok(1.0);
    }
    Ok(target as f64 / full as f64)
}

/// Runs the `shard` subcommand: the full paper report suite, generated and
/// analyzed shard-by-shard (or monolithically with `--baseline`).
fn run_shard(opts: &Options) -> Result<ExitCode, String> {
    if opts.resume && opts.checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint-dir".into());
    }
    if opts.baseline && opts.checkpoint_dir.is_some() {
        return Err("--baseline and --checkpoint-dir are mutually exclusive".into());
    }
    if opts.machines_arg.is_some() && opts.scale.is_some() {
        return Err("--machines and --scale are mutually exclusive".into());
    }
    let scale = match &opts.machines_arg {
        Some(arg) => {
            let target: usize = arg
                .parse()
                .map_err(|_| format!("bad --machines fleet size '{arg}'"))?;
            scale_for_fleet(opts.seed, target)?
        }
        None => opts.scale.unwrap_or(1.0),
    };
    let config = Scenario::paper()
        .seed(opts.seed)
        .scale(scale)
        .config()
        .clone();
    let run_config = RunConfig::with_seed(opts.seed);

    let (machines, reports) = if opts.baseline {
        eprintln!(
            "shard: monolithic baseline (seed {}, scale {scale:.4}) ...",
            opts.seed
        );
        let dataset = Scenario::from_config(config).build().into_dataset();
        let toolkit = Toolkit::from_dataset(dataset, run_config.clone());
        let machines = toolkit.snapshot().dataset().machines().len();
        let reports = ExperimentId::PAPER
            .iter()
            .map(|&id| (id, (*toolkit.render(id)).clone()))
            .collect();
        (machines, reports)
    } else if let Some(dir) = &opts.checkpoint_dir {
        let dir = dir.display().to_string();
        let fs = RealFs;
        let manifest_path = format!("{dir}/{}", dcfail_ckpt::MANIFEST_FILE);
        let has_manifest = fs.exists(&manifest_path).map_err(|e| e.to_string())?;
        if opts.resume && !has_manifest {
            return Err(format!(
                "--resume: no checkpoint manifest at {manifest_path} \
                 (drop --resume to start a fresh checkpointed run)"
            ));
        }
        eprintln!(
            "shard: {} checkpointed build, {} shards (seed {}, scale {scale:.4}) -> {dir} ...",
            if has_manifest { "resuming" } else { "fresh" },
            opts.shards,
            opts.seed
        );
        let store = CheckpointStore::new(Box::new(fs), dir);
        let out = dcfail_shard::resume_sharded(&config, opts.shards, &store)
            .map_err(|e| format!("checkpointed shard build failed: {e}"))?;
        let machines = out.dataset().machines().len();
        (machines, out.paper_reports(&run_config))
    } else {
        eprintln!(
            "shard: out-of-core build, {} shards (seed {}, scale {scale:.4}) ...",
            opts.shards, opts.seed
        );
        let out = dcfail_shard::build_sharded(&config, opts.shards);
        let machines = out.dataset().machines().len();
        (machines, out.paper_reports(&run_config))
    };

    if opts.json {
        let doc = ShardReportDoc {
            seed: opts.seed,
            scale,
            machines,
            reports: reports
                .into_iter()
                .map(|(id, r)| ShardReportEntry {
                    id: id.key().to_string(),
                    title: r.title,
                    text: r.text,
                    csv: r.csv,
                })
                .collect(),
        };
        let json = serde_json::to_string_pretty(&doc)
            .map_err(|e| format!("cannot serialize shard report: {e}"))?;
        println!("{json}");
    } else {
        for (_, rendered) in reports {
            println!("==== {} ====", rendered.title);
            println!("{}", rendered.text);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Checkpoint directory name inside the crashtest's in-memory filesystem.
const CRASHTEST_DIR: &str = "crashtest-ckpt";

/// Store over `mem` whose every operation is gated by `plan`, plus a shared
/// handle to the injector's op/transient counters.
fn crashtest_store(
    mem: &MemFs,
    plan: IoFaultPlan,
) -> (CheckpointStore, std::sync::Arc<ChaosFs<MemFs>>) {
    let fs = std::sync::Arc::new(ChaosFs::new(mem.clone(), plan));
    let store = CheckpointStore::new(Box::new(fs.clone()), CRASHTEST_DIR);
    (store, fs)
}

/// Runs the `crashtest` subcommand: the crash-matrix sweep proving that a
/// checkpointed run killed at any I/O operation resumes to the digest of an
/// uninterrupted run, and that transient faults are absorbed by retry.
fn run_crashtest(opts: &Options) -> Result<ExitCode, String> {
    // The sweep reruns the pipeline once per kill point; without `--scale`
    // the default stays small so the full matrix stays in CI territory.
    let scale = opts.scale.unwrap_or(0.02);
    let config = Scenario::paper()
        .seed(opts.seed)
        .scale(scale)
        .config()
        .clone();
    let run_config = RunConfig::with_seed(opts.seed);
    eprintln!(
        "crashtest: golden uninterrupted run ({} shards, seed {}, scale {scale:.4}) ...",
        opts.shards, opts.seed
    );
    let golden = dcfail_shard::build_sharded(&config, opts.shards).paper_digest(&run_config);

    // Probe: count the I/O ops of a clean checkpointed run, and cross-check
    // that the checkpointed path itself matches the monolithic golden.
    let mem = MemFs::new();
    let (store, fs) = crashtest_store(&mem, IoFaultPlan::quiet(opts.seed));
    let probe = dcfail_shard::resume_sharded(&config, opts.shards, &store)
        .map_err(|e| format!("crashtest probe run failed: {e}"))?;
    if probe.paper_digest(&run_config) != golden {
        println!("crashtest FAILED: checkpointed run diverges from build_sharded");
        return Ok(ExitCode::from(EXIT_FINDINGS));
    }
    let total = fs.ops();

    let kill_points: Vec<u64> = if opts.smoke {
        vec![0, total / 2, total - 1]
    } else {
        (0..total).collect()
    };
    eprintln!(
        "crashtest: sweeping {} kill points over {total} I/O ops \
         (transient rate {}) ...",
        kill_points.len(),
        opts.rate
    );
    let mut failures = 0u64;
    for &k in &kill_points {
        let mem = MemFs::new();
        let plan = IoFaultPlan {
            seed: opts.seed,
            transient_rate: opts.rate,
            kill_at_op: Some(k),
            torn_writes: true,
        };
        let (store, _) = crashtest_store(&mem, plan);
        // With transients ahead of the kill, the run may die at op `k` or
        // exhaust retries earlier; it must not finish clean either way.
        if dcfail_shard::resume_sharded(&config, opts.shards, &store).is_ok() {
            println!("kill at op {k}: run unexpectedly completed");
            failures += 1;
            continue;
        }
        let resume_store = CheckpointStore::new(Box::new(mem.clone()), CRASHTEST_DIR);
        match dcfail_shard::resume_sharded(&config, opts.shards, &resume_store) {
            Ok(out) => {
                let digest = out.paper_digest(&run_config);
                if digest != golden {
                    println!(
                        "kill at op {k}: resumed digest {digest:#018x} != golden {golden:#018x}"
                    );
                    failures += 1;
                }
            }
            Err(e) => {
                println!("kill at op {k}: resume failed: {e}");
                failures += 1;
            }
        }
    }

    // Transient-only leg: a fault rate the retry policy must fully absorb.
    // Clamped: below 0.25 it proves too little, near 1.0 six consecutive
    // faults (legitimate retry exhaustion) become likely.
    let transient_rate = opts.rate.clamp(0.25, 0.5);
    let mem = MemFs::new();
    let (store, fs) = crashtest_store(&mem, IoFaultPlan::transient(opts.seed, transient_rate));
    match dcfail_shard::resume_sharded(&config, opts.shards, &store) {
        Ok(out) if out.paper_digest(&run_config) == golden => eprintln!(
            "crashtest: {} transient faults absorbed by retry at rate {transient_rate}",
            fs.transients()
        ),
        Ok(_) => {
            println!("transient leg: digest diverged at rate {transient_rate}");
            failures += 1;
        }
        Err(e) => {
            println!("transient leg: run failed at rate {transient_rate}: {e}");
            failures += 1;
        }
    }

    if failures > 0 {
        println!(
            "crashtest FAILED: {failures} divergence(s) across {} kill points",
            kill_points.len()
        );
        return Ok(ExitCode::from(EXIT_FINDINGS));
    }
    println!(
        "crashtest{}: OK — {} kill points over {total} I/O ops all \
         resume to digest {golden:#018x}",
        if opts.smoke { " (smoke)" } else { "" },
        kill_points.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// The `repro stream --json` document.
#[derive(serde::Serialize)]
struct StreamRunDoc {
    seed: u64,
    scale: f64,
    slack_minutes: i64,
    events_per_sec: f64,
    digest: u64,
    /// Absent when `--events` capped the replay (batch saw the whole
    /// horizon, so the digests are not comparable).
    batch_digest: Option<u64>,
    stats: dcfail_stream::StreamStats,
    alerts: Vec<dcfail_stream::Alert>,
}

/// Runs the `stream` subcommand: replay a synthesized event feed through the
/// streaming ingest engine and hold its digest against the batch pipeline.
#[allow(clippy::too_many_lines)] // linear flag-validate -> replay -> report flow
fn run_stream(opts: &Options) -> Result<ExitCode, String> {
    // The smoke run is a CI gate: it defaults to a small scale.
    if opts.smoke && opts.events_arg.is_some() {
        return Err(
            "--smoke and --events are mutually exclusive (smoke needs the digest gate)".into(),
        );
    }
    let scale = opts.scale.unwrap_or(if opts.smoke { 0.05 } else { 1.0 });
    let slack_minutes = opts.slack_minutes;
    eprintln!(
        "stream: synthesizing feed (seed {}, scale {scale}, slack {slack_minutes} min, \
         {} threads) ...",
        opts.seed,
        dcfail_par::thread_count()
    );
    let dataset = Scenario::paper()
        .seed(opts.seed)
        .scale(scale)
        .build()
        .into_dataset();
    let mut feed = dcfail_synth::feed::dataset_feed(&dataset);
    if slack_minutes > 0 {
        // Scramble arrivals within the slack bound: the engine must undo it.
        let mut rng = StreamRng::new(opts.seed).fork("repro.stream.reorder");
        feed = dcfail_synth::feed::reorder_within_slack(
            &feed,
            SimDuration::from_minutes(slack_minutes),
            &mut rng,
        );
    }
    // `--events N` caps the replay (throughput experiments). A capped run
    // skips the digest gate: the batch pipeline saw the whole horizon.
    let capped = match &opts.events_arg {
        Some(arg) => {
            let n: usize = arg
                .parse()
                .map_err(|_| format!("bad --events cap '{arg}'"))?;
            let capped = n < feed.len();
            feed.truncate(n);
            capped
        }
        None => false,
    };

    let config = dcfail_stream::StreamConfig {
        slack: SimDuration::from_minutes(slack_minutes),
        detector: match opts.window_panes {
            Some(panes) => dcfail_stream::DetectorConfig::with_panes(panes),
            None => dcfail_stream::DetectorConfig::weekly(),
        },
    };
    let mut engine = dcfail_stream::StreamEngine::new(dataset.horizon(), config);
    let start = Instant::now();
    for ev in feed {
        engine
            .ingest(ev)
            .map_err(|e| format!("feed replay failed: {e}"))?;
    }
    let out = engine.finish();
    let elapsed_s = start.elapsed().as_secs_f64();
    let events_per_sec = out.stats.events_ingested as f64 / elapsed_s.max(1e-9);
    let digest = out.digest();
    let batch = if capped {
        None
    } else {
        Some(dcfail_stream::batch_digest(&dataset))
    };

    if opts.json {
        let doc = StreamRunDoc {
            seed: opts.seed,
            scale,
            slack_minutes,
            events_per_sec,
            digest,
            batch_digest: batch,
            stats: out.stats,
            alerts: out.alerts.clone(),
        };
        let json = serde_json::to_string_pretty(&doc)
            .map_err(|e| format!("cannot serialize stream report: {e}"))?;
        println!("{json}");
    } else {
        println!(
            "stream: {} events -> {} windows closed, {} alert(s) in {:.1} ms \
             ({:.2} M events/s)",
            out.stats.events_ingested,
            out.stats.windows_closed,
            out.alerts.len(),
            elapsed_s * 1e3,
            events_per_sec / 1e6
        );
        println!(
            "  {} machines, {} failures, {} tickets; peak {} buffered event(s), \
             {} open window(s)",
            out.stats.machines,
            out.stats.failures,
            out.stats.tickets,
            out.stats.peak_buffered,
            out.stats.peak_open_windows
        );
        for alert in &out.alerts {
            println!(
                "  alert: week {:>2} — {} failures vs {:.1} expected (score {:.1})",
                alert.week, alert.observed, alert.expected, alert.score
            );
        }
        match batch {
            Some(b) if b == digest => {
                println!("  digest {digest:#018x} == batch digest (stream==batch holds)");
            }
            Some(b) => println!("  digest {digest:#018x} != batch digest {b:#018x} — DIVERGED"),
            None => println!("  digest {digest:#018x} (capped replay; batch gate skipped)"),
        }
    }

    let diverged = batch.is_some_and(|b| b != digest);
    if opts.smoke {
        let dropped =
            out.stats.events_applied != out.stats.events_ingested || out.stats.late_events != 0;
        if diverged || dropped {
            eprintln!(
                "stream smoke FAILED: {}",
                if diverged {
                    "stream digest diverged from batch"
                } else {
                    "events were dropped or late in a legal replay"
                }
            );
            return Ok(ExitCode::from(EXIT_FINDINGS));
        }
        println!(
            "stream smoke: OK ({} events replayed at slack {slack_minutes} min, \
             digest {digest:#018x} == batch)",
            out.stats.events_ingested
        );
    }
    Ok(if diverged {
        ExitCode::from(EXIT_FINDINGS)
    } else {
        ExitCode::SUCCESS
    })
}

/// Workspace root the lint runs against when `--root` is absent: the current
/// directory when it holds a `crates/` tree (running from a checkout), else
/// the source tree this binary was built from.
fn default_lint_root() -> PathBuf {
    if Path::new("crates").is_dir() {
        PathBuf::from(".")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    }
}

/// Runs the `lint` subcommand: the determinism lint over the workspace's own
/// Rust source, honoring inline suppressions and the checked-in baseline.
fn run_lint(opts: &Options) -> Result<ExitCode, String> {
    let root = opts.lint_root.clone().unwrap_or_else(default_lint_root);
    eprintln!("lint: scanning workspace source at {} ...", root.display());
    let report = dcfail_dlint::lint_workspace(&root)?;
    if opts.json {
        let s = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("cannot serialize lint report: {e}"))?;
        println!("{s}");
    } else {
        print!("{}", report.render_text());
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FINDINGS)
    })
}

/// Default bind address of the `serve` daemon when `--addr` is absent.
const SERVE_DEFAULT_ADDR: &str = "127.0.0.1:4914";

/// Runs the `serve` subcommand: start the dcfail-serve daemon and block, or
/// — with `--smoke` — run the self-contained CI gate instead.
fn run_serve(opts: &Options) -> Result<ExitCode, String> {
    if opts.smoke {
        return run_serve_smoke(opts);
    }
    let config = ServeConfig {
        addr: opts
            .addr
            .clone()
            .unwrap_or_else(|| SERVE_DEFAULT_ADDR.to_string()),
        workers: opts.workers.unwrap_or(4),
        queue: opts.queue.unwrap_or(64),
        seed: opts.seed,
        scale: opts.scale.unwrap_or(1.0),
        metrics: true,
        ingest: true,
    };
    eprintln!(
        "serve: building paper scenario (seed {}, scale {}) ...",
        opts.seed, config.scale
    );
    let handle = serve(config).map_err(|e| format!("cannot start server: {e}"))?;
    println!("serving on http://{}", handle.addr());
    println!(
        "  GET /registry | GET /reports/:id | POST /whatif | POST /audit | \
         GET /metrics | GET /stream/alerts"
    );
    // Daemon mode: serve until the process is killed. The worker pool owns
    // all the work; this thread just has to stay alive.
    loop {
        std::thread::park();
    }
}

/// One smoke request: send raw bytes, give back (status, body-as-text).
fn smoke_fetch(addr: std::net::SocketAddr, raw: &[u8]) -> Result<(u16, String), String> {
    let response = roundtrip(addr, raw).map_err(|e| format!("roundtrip failed: {e}"))?;
    let (status, body) = split_response(&response).ok_or("unparseable HTTP response")?;
    String::from_utf8(body)
        .map(|text| (status, text))
        .map_err(|_| "non-UTF-8 response body".to_string())
}

/// The `serve --smoke` CI gate: ephemeral port at a small scale, every
/// endpoint checked (reports diffed byte-for-byte against the library's own
/// envelope), a deterministic 429 flood against a held worker pool, and a
/// clean shutdown that releases the port.
#[allow(clippy::too_many_lines)] // one linear checklist; splitting obscures the gate
fn run_serve_smoke(opts: &Options) -> Result<ExitCode, String> {
    let fail = |msg: &str| {
        eprintln!("serve smoke FAILED: {msg}");
        Ok(ExitCode::from(EXIT_FINDINGS))
    };
    // The smoke run is a CI gate: it defaults to a small scale.
    let scale = opts.scale.unwrap_or(0.05);
    let workers = opts.workers.unwrap_or(2);
    let queue = opts.queue.unwrap_or(2);
    eprintln!(
        "serve smoke: starting on an ephemeral port (seed {}, scale {scale}, \
         {workers} workers, queue {queue}) ...",
        opts.seed
    );
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue,
        seed: opts.seed,
        scale,
        metrics: true,
        ingest: true,
    })
    .map_err(|e| format!("cannot start smoke server: {e}"))?;
    let addr = handle.addr();
    // `--metrics OUT.json` already owns the process-global obs window; the
    // daemon then runs without one and /metrics answers 503.
    let owns_window = handle.state().with_obs(|_| ()).is_some();

    // Every report, diffed byte-for-byte against the library's own envelope
    // — the CLI==server identity the redesign promises.
    let reference = Toolkit::build_scaled(RunConfig::with_seed(opts.seed), scale);
    for id in ExperimentId::ALL {
        let (status, body) = smoke_fetch(addr, &get_request(&format!("/reports/{id}")))?;
        if status != 200 {
            return fail(&format!("/reports/{id} answered {status}"));
        }
        if body != reference.envelope_json(id) {
            return fail(&format!(
                "/reports/{id} bytes diverge from the library envelope"
            ));
        }
    }

    // The remaining endpoints: status plus a structural needle each.
    let checks: [(&str, Vec<u8>, u16, &str); 7] = [
        (
            "GET /registry",
            get_request("/registry"),
            200,
            "\"experiments\"",
        ),
        (
            "POST /whatif",
            post_request("/whatif", ""),
            200,
            "\"payload\"",
        ),
        (
            "POST /whatif (bad body)",
            post_request("/whatif", "{\"seed\": \"nope\"}"),
            400,
            "bad_request_body",
        ),
        (
            "POST /audit",
            post_request("/audit", ""),
            200,
            "\"clean\":true",
        ),
        (
            "GET /reports/nope",
            get_request("/reports/nope"),
            404,
            "unknown_experiment",
        ),
        ("GET /nope", get_request("/nope"), 404, "not_found"),
        (
            "POST /registry",
            post_request("/registry", ""),
            405,
            "method_not_allowed",
        ),
    ];
    for (name, raw, want_status, needle) in checks {
        let (status, body) = smoke_fetch(addr, &raw)?;
        if status != want_status {
            return fail(&format!("{name} answered {status}, want {want_status}"));
        }
        if !body.contains(needle) {
            return fail(&format!("{name} body lacks {needle:?}: {body}"));
        }
    }

    if !handle.wait_for_alerts(0) {
        return fail("background stream ingest did not complete");
    }
    let (status, body) = smoke_fetch(addr, &get_request("/stream/alerts"))?;
    if status != 200 || !body.contains("\"complete\":true") {
        return fail(&format!("/stream/alerts not complete: {status} {body}"));
    }

    if owns_window {
        let (status, body) = smoke_fetch(addr, &get_request("/metrics"))?;
        if status != 200 || !body.contains("serve.requests") {
            return fail(&format!("/metrics export incomplete: {status}"));
        }
    } else {
        eprintln!("serve smoke: note: external metrics window active, /metrics leg skipped");
    }

    // Backpressure: hold the pool, overfill the bounded queue, and require
    // typed 429s while nothing can drain. Absorbed capacity while held is
    // `workers` (each parked at the gate holding one connection) + `queue`.
    handle.hold_workers();
    let flood = workers + queue + 3;
    let (status_tx, status_rx) = std::sync::mpsc::channel();
    let mut readers = Vec::new();
    for _ in 0..flood {
        let pending = PendingRequest::open(addr, &get_request("/registry"))
            .map_err(|e| format!("flood connection failed: {e}"))?;
        let tx = status_tx.clone();
        readers.push(std::thread::spawn(move || {
            let _ = tx.send(pending.finish().ok().and_then(|raw| split_response(&raw)));
        }));
    }
    drop(status_tx);
    // While the pool is held, the only responses that can complete are the
    // acceptor's sheds — collect three, which must all be the typed 429.
    let mut statuses = Vec::new();
    for _ in 0..3 {
        match status_rx.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(Some((429, body))) if String::from_utf8_lossy(&body).contains("queue_full") => {
                statuses.push(429);
            }
            Ok(Some((status, _))) => {
                handle.release_workers();
                return fail(&format!(
                    "held pool completed a {status} response; expected only typed 429s"
                ));
            }
            Ok(None) | Err(_) => {
                handle.release_workers();
                return fail("flooded connection got no parseable response while held");
            }
        }
    }
    handle.release_workers();
    for outcome in &status_rx {
        match outcome {
            Some((status, _)) => statuses.push(status),
            None => return fail("flooded connection got no parseable response"),
        }
    }
    for reader in readers {
        let _ = reader.join();
    }
    let shed = statuses.iter().filter(|&&s| s == 429).count();
    let served = statuses.iter().filter(|&&s| s == 200).count();
    if shed < 3 || served + shed != flood {
        return fail(&format!(
            "bounded queue misbehaved: {served} served, {shed} shed of {flood}"
        ));
    }

    // Clean shutdown: threads join, the obs window closes, the port frees.
    let report = handle.shutdown();
    if owns_window && report.and_then(|r| r.counter("serve.requests")).is_none() {
        return fail("shutdown did not return the final metrics report");
    }
    if let Ok(raw) = roundtrip(addr, &get_request("/registry")) {
        let alive = split_response(&raw).is_some_and(|(status, _)| status == 200);
        if alive {
            return fail("listener still serving after shutdown");
        }
    }

    println!(
        "serve smoke: OK ({} reports byte-identical to the library envelope, \
         {shed} typed sheds, clean shutdown)",
        ExperimentId::ALL.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn run_experiments(opts: &Options) -> Result<ExitCode, String> {
    let run_extras = opts.targets.iter().any(|t| t == "extras");
    let run_summary = opts.targets.iter().any(|t| t == "summary");
    let only_special = opts.targets.iter().all(|t| t == "extras" || t == "summary");
    let ids: Vec<ExperimentId> = if only_special {
        Vec::new()
    } else if opts.targets.iter().any(|t| t == "all") {
        ExperimentId::ALL.to_vec()
    } else {
        let mut ids = Vec::new();
        for t in &opts.targets {
            if t == "extras" || t == "summary" {
                continue;
            }
            ids.push(t.parse::<ExperimentId>().map_err(|e| e.to_string())?);
        }
        ids
    };

    let scale = opts.scale.unwrap_or(1.0);
    eprintln!(
        "generating paper scenario (seed {}, scale {scale}) ...",
        opts.seed
    );
    let mut dataset = Scenario::paper()
        .seed(opts.seed)
        .scale(scale)
        .build()
        .into_dataset();

    if opts.classify {
        eprintln!("re-labeling events with the k-means pipeline ...");
        let mut rng = StreamRng::new(opts.seed ^ 0x7ea).fork("repro.classify");
        let c = apply_to_dataset(&mut dataset, PipelineConfig::default(), &mut rng);
        eprintln!(
            "pipeline accuracy vs manual labels: {:.1}% (paper: 87%)",
            100.0 * c.accuracy_vs_manual()
        );
    }

    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }

    // One Toolkit per process: every render below shares the built dataset
    // and the artifact cache, and `--json` emits the same envelope bytes the
    // serve daemon answers with at `/reports/:id`.
    let toolkit = Toolkit::from_dataset(dataset, RunConfig::with_seed(opts.seed));
    for id in ids {
        let rendered = toolkit.render(id);
        if opts.json {
            println!("{}", toolkit.envelope_json(id));
        } else {
            println!("==== {} ====", rendered.title);
            println!("{}", rendered.text);
        }
        if let (Some(dir), Some(csv)) = (&opts.csv_dir, &rendered.csv) {
            let path = dir.join(format!("{}.csv", id.key()));
            std::fs::write(&path, csv)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }

    if run_extras {
        for id in ExperimentId::EXTRAS {
            if opts.json {
                println!("{}", toolkit.envelope_json(id));
            } else {
                let rendered = toolkit.render(id);
                println!("==== {} ====", rendered.title);
                println!("{}", rendered.text);
            }
        }
    }
    if run_summary {
        let rendered = dcfail_report::summary::findings(toolkit.snapshot().dataset());
        if opts.json {
            // The summary is not a registry artifact (no experiment id), so
            // it has no envelope; emit the bare rendered document.
            let s = serde_json::to_string(&rendered)
                .map_err(|e| format!("cannot serialize summary: {e}"))?;
            println!("{s}");
        } else {
            println!("==== {} ====", rendered.title);
            println!("{}", rendered.text);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn dispatch(opts: &Options) -> Result<ExitCode, String> {
    if opts.targets.iter().any(|t| t == "audit") {
        return run_audit(opts);
    }
    if opts.targets.iter().any(|t| t == "chaos") {
        return run_chaos(opts);
    }
    if opts.targets.iter().any(|t| t == "ablate") {
        return Ok(run_ablate(opts));
    }
    if opts.targets.iter().any(|t| t == "shard") {
        return run_shard(opts);
    }
    if opts.targets.iter().any(|t| t == "crashtest") {
        return run_crashtest(opts);
    }
    if opts.targets.iter().any(|t| t == "stream") {
        return run_stream(opts);
    }
    if opts.targets.iter().any(|t| t == "serve") {
        return run_serve(opts);
    }
    if opts.targets.iter().any(|t| t == "lint") {
        return run_lint(opts);
    }
    run_experiments(opts)
}

fn try_main() -> Result<ExitCode, String> {
    let opts = match parse_args()? {
        Parsed::Help => {
            println!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        Parsed::Run(opts) => *opts,
    };
    // `metrics` and `bench` own their collection window: `metrics` runs the
    // disabled-cost probe before it opens, `bench` its shard probe.
    if opts.targets.iter().any(|t| t == "metrics") {
        return run_metrics(&opts);
    }
    if opts.targets.iter().any(|t| t == "bench") {
        return run_bench(&opts);
    }
    // `--metrics OUT.json` with any other command: collect while it runs,
    // export on the way out (even when the command itself fails).
    let handle = match &opts.metrics_path {
        Some(_) => Some(
            dcfail_obs::ObsHandle::install()
                .ok_or("another metrics collection window is active")?,
        ),
        None => None,
    };
    let result = dispatch(&opts);
    if let (Some(handle), Some(path)) = (handle, &opts.metrics_path) {
        write_metrics(path, &handle.finish())?;
    }
    result
}

fn main() -> ExitCode {
    match try_main() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
