//! dcfail benchmark: end-to-end and per-layer measurements of the paper
//! pipeline, the stream replay and the served reads, from one process.
//!
//! ```text
//! perfbench --workload <paper_batch|stream_replay|serve_reads>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root (the golden pins are read from `tests/`).
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exit codes: 0 when
//! every output check passed, 1 when one failed, 2 on a usage or set-up
//! error (no result is printed then). See README.md in this directory.

mod batch;
mod measure;
mod serve;
mod stream;

use measure::{fnv, json_num, json_obj, json_str, Report, E2E_METRICS, FNV_OFFSET, LAYER_METRICS};
use std::path::Path;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["paper_batch", "stream_replay", "serve_reads"];

/// Run settings shared by every workload.
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// CPUs this process may run on (what `nproc` prints): the dcfail-par
    /// thread count, the daemon's workers and the serve client connections.
    pub nproc: usize,
}

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// CPUs in this process's affinity mask, as `nproc` counts them.
fn nproc() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut count = 0;
    for range in list.trim().split(',') {
        let (lo, hi) = range.split_once('-').unwrap_or((range, range));
        count += hi.trim().parse::<usize>().ok()? - lo.trim().parse::<usize>().ok()? + 1;
    }
    Some(count)
}

/// The checked-out commit when `.git` is present, else `None`.
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the workspace sources (manifests and `.rs` files under
/// `crates/` plus the root manifests), path and bytes, in path order. It
/// identifies the measured program where no git metadata is available.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").into(),
        Path::new("Cargo.lock").into(),
    ];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash = FNV_OFFSET;
    for file in files {
        hash = fnv(hash, file.to_string_lossy().as_bytes());
        hash = fnv(hash, &std::fs::read(&file).unwrap_or_default());
    }
    hash
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((
        workload,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    ))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => return usage(&e),
    };
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let nproc = nproc().unwrap_or(available);
    // The par runtime resolves DCFAIL_THREADS once, at first use: pin it to
    // nproc, and refuse any other value the caller set.
    if let Ok(v) = std::env::var(dcfail_par::THREADS_ENV) {
        if v.trim().parse::<usize>() != Ok(nproc) {
            return usage(&format!(
                "{}={v}: the benchmark runs at nproc = {nproc} threads",
                dcfail_par::THREADS_ENV
            ));
        }
    }
    std::env::set_var(dcfail_par::THREADS_ENV, nproc.to_string());
    let settings = Settings {
        workload,
        seed,
        seconds,
        trace,
        nproc,
    };
    let serving = settings.workload == "serve_reads";
    let scale = match settings.workload.as_str() {
        "paper_batch" => batch::SCALE,
        "stream_replay" => stream::SCALE,
        _ => serve::SCALE,
    };

    let mut report = Report::default();
    let outcome = match settings.workload.as_str() {
        "paper_batch" => batch::run(&settings, &mut report),
        "stream_replay" => stream::run(&settings, &mut report),
        _ => serve::run(&settings, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", settings.workload);
        return ExitCode::from(2);
    }
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.named(
        "fail_frac",
        fail_frac,
        "ratio",
        format!("{} failed of {} attempted", report.failed, report.attempted),
    );

    let fingerprint = json_obj([
        ("nproc", settings.nproc.to_string()),
        ("available_parallelism", available.to_string()),
        ("dcfail_threads", dcfail_par::thread_count().to_string()),
        (
            "server_workers",
            (if serving { settings.nproc } else { 0 }).to_string(),
        ),
        (
            "client_connections",
            (if serving { settings.nproc } else { 1 }).to_string(),
        ),
        ("scale", json_num(scale)),
        ("workload", json_str(&settings.workload)),
        ("seed", settings.seed.to_string()),
        ("seconds", json_num(settings.seconds)),
        ("trace", settings.trace.to_string()),
        (
            "git_revision",
            git_revision().map_or("null".into(), |r| json_str(&r)),
        ),
        (
            "source_digest",
            json_str(&format!("{:#018x}", source_digest())),
        ),
    ]);
    println!("fingerprint {fingerprint}");
    println!(
        "work {}",
        json_obj(report.work.iter().map(|(k, v)| (k, json_str(v))))
    );
    println!(
        "done {}",
        json_obj(report.done.iter().map(|(k, v)| (k, json_str(v))))
    );
    for (name, ok, detail) in &report.checks {
        println!(
            "check {name} {}: {detail}",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    for (name, value, unit, note) in &report.named {
        println!("metric {name} {value} {unit} ({note})");
    }

    let metrics: Vec<(&str, String)> = if settings.trace {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                // A ratio over an empty sample (a very short run) is absent.
                let value = report
                    .layers
                    .iter()
                    .find(|l| l.0 == name && l.1.is_finite())
                    .map(|l| l.1);
                match value {
                    Some(v) => println!("layer {name} {v} {unit}"),
                    None => {
                        let reason = report.absent.iter().find(|a| a.0 == name).map_or_else(
                            || format!("the layer is idle in {}", settings.workload),
                            |a| a.1.clone(),
                        );
                        println!("layer {name} absent: {reason}");
                    }
                }
                (name, metric_json(value.unwrap_or(0.0), unit))
            })
            .collect()
    } else {
        E2E_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = report.e2e.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
                if !(value.is_finite() && value > 0.0) {
                    report.check(format!("metric {name}"), false, format!("measured {value}"));
                    report.failed += 1;
                }
                (name, metric_json(value, unit))
            })
            .collect()
    };
    if !settings.trace {
        println!(
            "scaling {}",
            json_obj(report.scaling.iter().map(|&(name, raw, probe)| {
                let value = report.e2e.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
                (
                    name,
                    json_obj([
                        ("value", json_num(value)),
                        ("raw", json_num(raw)),
                        ("probe_ms", json_num(probe)),
                    ]),
                )
            }))
        );
    }
    let correct = report.correct();
    println!(
        "{}",
        json_obj([
            ("correct", correct.to_string()),
            ("attempted", report.attempted.max(1).to_string()),
            ("failed", report.failed.to_string()),
            ("metrics", json_obj(metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn metric_json(value: f64, unit: &str) -> String {
    json_obj([("value", json_num(value)), ("unit", json_str(unit))])
}
