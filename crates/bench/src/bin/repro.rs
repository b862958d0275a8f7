//! Reproduction harness: regenerates every table and figure of Birke et al.
//! (DSN 2014) from a fresh simulation.
//!
//! `repro --help` prints the synopsis of every command from [`COMMANDS`],
//! the one table that declares each command's runner, the flags it reads
//! (name, kind, bound and the nouns of its usage errors), how those flags
//! need and exclude each other, and its `--scale` default with and without
//! `--smoke`. Flags may precede the command word (`repro --scale 0.2 all`);
//! a flag or second command word the chosen command does not read, and a
//! flag the chosen input or mode does not read, is a usage error that names
//! both, raised before any runner starts.
//!
//! Every command shares one exit-code convention: **0** the command ran
//! and found nothing wrong, **1** the command ran but produced findings (an
//! audit or lint that is not clean, a failed `--smoke` gate), **2** the
//! command could not run at all (bad flags, unreadable files, I/O errors).
//!
//! * `all` (default) — run every artifact in paper order.
//! * `extras` — run the extension reports (availability, censoring-corrected
//!   inter-failure times, bootstrap CIs, failure prediction, what-ifs).
//! * `summary` — re-derive the paper's §VII findings with verdicts.
//! * `<id>` — one or more of `table1..table7`, `fig1..fig10`. With
//!   `--json` each artifact prints as its versioned JSON envelope, the same
//!   bytes the daemon serves at `/reports/:id`; `--classify` re-labels
//!   events with a freshly trained k-means pipeline first; `--csv DIR` also
//!   writes each artifact's CSV series.
//! * `ablate` — run the ablation suite (several full simulations).
//! * `audit` — lint a trace against the `dcfail-audit` rule catalog and exit
//!   nonzero on Error-level findings. Audits a JSON trace (`--dataset`,
//!   evaluated *before* validation so broken files are still diagnosable), a
//!   CSV pair (`--machines` + `--events`), or — with neither — a freshly
//!   generated synth scenario as a self-check. `--lenient` quarantines and
//!   repairs defective records of a trace instead of rejecting it.
//! * `chaos` — `dcfail_chaos::recovery_check`, the self-test of the
//!   dirty-data pipeline: corrupt a clean scenario at `--rate`, recover it,
//!   re-audit, and report estimate drift against the clean ground truth.
//!   `--smoke` exits nonzero unless recovery produced an audit-clean dataset
//!   and a non-empty degradation report.
//! * `metrics` — `dcfail_bench::pipeline::export_check`: run the traced
//!   pipeline (synth → audit → chaos + recovery → classification → every
//!   report runner → stream replay) under one `dcfail-obs` collection window
//!   and print the aggregated tree (`--json`: the schema-versioned export).
//!   `--smoke` gates on the check (schema version, every stage span,
//!   nonzero `par.jobs`, `synth.individual.hazard_evals`,
//!   `panel.values_binned`, `classify.texts` and `kmeans.iterations`
//!   counters, disabled-path overhead under 2%).
//! * `bench` — run the same traced pipeline and read its spans; a 16-shard
//!   out-of-core build runs first, outside the window, to probe the sharded
//!   peak RSS. Writes `BENCH_<git-short-sha>.json`. `--record` appends the
//!   entry to `bench/history.jsonl` (or `--history FILE`); `--check` gates
//!   total report time against the last entry at the same scale and thread
//!   count and exits 1 on a regression or a missing baseline.
//! * `shard` — the paper report suite out-of-core, shard by shard.
//!   `--machines N` picks the scale closest to an N-machine fleet;
//!   `--baseline` runs monolithically with the identical `--json` shape, so
//!   the two outputs diff byte-for-byte. `--checkpoint-dir DIR` persists
//!   per-shard state so a restarted run continues from the last complete
//!   shard; `--resume` additionally *requires* a checkpoint there.
//! * `crashtest` — `dcfail_shard::crash_matrix`: kill a checkpointed run at
//!   every I/O operation (`--smoke`: three spread kill points), resume it,
//!   and require the uninterrupted digest; transient faults at `--rate`
//!   (clamped to [0.25, 0.5] for the retry leg) must be absorbed.
//! * `stream` — `dcfail_stream::replay_check`: replay a synthesized feed,
//!   reordered within `--slack` minutes, and hold its digest against the
//!   batch pipeline's. `--events N` caps the replay (the digest gate is skipped);
//!   `--window P` sets the burst detector's history; `--smoke` exits
//!   nonzero unless the digests match and every event was applied.
//! * `serve` — run the `dcfail-serve` daemon (`--addr`, `--workers`,
//!   `--queue`). `--smoke` runs `dcfail_serve::smoke::smoke` on an
//!   ephemeral port instead. `serve` refuses `--metrics`: the daemon
//!   exports its own window at `GET /metrics`.
//! * `lint` — the `dcfail-dlint` determinism lint over the workspace's own
//!   source, honoring inline suppressions and `dlint.baseline`; `--root DIR`
//!   points at a checkout. Exits 1 on Error findings.
//! * `--metrics OUT.json` — with any command but `serve`: collect metrics
//!   while the command runs and write the JSON export on the way out;
//!   `metrics` and `bench` write their own traced run's export.

use dcfail_audit::import::{self, ImportError};
use dcfail_audit::{DegradationReport, RecoveryMode};
use dcfail_bench::history::{
    self, git_revision, peak_rss_kb, HistoryEntry, DEFAULT_PATH, REGRESSION_TOLERANCE,
};
use dcfail_bench::{ablation, pipeline};
use dcfail_chaos::InjectionPlan;
use dcfail_ckpt::{CheckpointStore, FaultFs, RealFs};
use dcfail_core::{degradation, rates, repair};
use dcfail_model::prelude::*;
use dcfail_report::experiments::{ExperimentId, RunConfig};
use dcfail_report::toolkit::VARIANT_CAP;
use dcfail_report::Toolkit;
use dcfail_serve::smoke::smoke;
use dcfail_serve::{serve, ServeConfig};
use dcfail_stats::rng::StreamRng;
use dcfail_synth::Scenario;
use dcfail_tickets::classify::{apply_to_dataset, PipelineConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// The command ran to completion but what it examined is not clean: audit or
/// lint findings at Error level, a failed `--smoke` gate.
const EXIT_FINDINGS: u8 = 1;
/// The command could not run: bad flags, unreadable input, I/O failure.
const EXIT_USAGE: u8 = 2;

/// What a flag's value is, with its bound; the nouns word its usage errors.
#[derive(Clone, Copy)]
enum Kind {
    /// Present or absent.
    Switch,
    /// Free text, a path or an address: "`--flag` needs {noun}".
    Text(&'static str),
    /// A `u64` seed.
    Seed,
    /// An integer of at least `min`: "bad {noun} '…'" when it does not parse.
    Int { noun: &'static str, min: i64 },
    /// A float, inside `[lo, hi]` when bounded.
    Real {
        noun: &'static str,
        bound: Option<(f64, f64)>,
    },
}

/// One flag of the command table.
#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    /// The value's placeholder in `--help`; empty for a switch.
    meta: &'static str,
    kind: Kind,
    /// The value when the flag is absent; empty for none.
    default: &'static str,
}

const fn flag(name: &'static str, meta: &'static str, kind: Kind, default: &'static str) -> Flag {
    Flag {
        name,
        meta,
        kind,
        default,
    }
}

const fn int(noun: &'static str, min: i64) -> Kind {
    Kind::Int { noun, min }
}

const fn real(noun: &'static str, bound: Option<(f64, f64)>) -> Kind {
    Kind::Real { noun, bound }
}

const SCALE: Flag = flag("--scale", "S", real("scale", None), "");
const RATE: Flag = flag("--rate", "R", real("rate", Some((0.0, 1.0))), "0.05");
const SEED: Flag = flag("--seed", "N", Kind::Seed, "42");
const SHARDS: Flag = flag("--shards", "K", int("shard count", 1), "8");
const SLACK: Flag = flag("--slack", "M", int("slack", 0), "0");
const WINDOW: Flag = flag("--window", "P", int("window", 1), "");
const WORKERS: Flag = flag("--workers", "N", int("worker count", 1), "");
const QUEUE: Flag = flag("--queue", "N", int("queue depth", 1), "");
const FLEET: Flag = flag("--machines", "N", int("--machines fleet size", 1), "");
const EVENT_CAP: Flag = flag("--events", "N", int("--events cap", 0), "");
const JSON: Flag = flag("--json", "", Kind::Switch, "");
const SMOKE: Flag = flag("--smoke", "", Kind::Switch, "");
const CLASSIFY: Flag = flag("--classify", "", Kind::Switch, "");
const LENIENT: Flag = flag("--lenient", "", Kind::Switch, "");
const BASELINE: Flag = flag("--baseline", "", Kind::Switch, "");
const RESUME: Flag = flag("--resume", "", Kind::Switch, "");
const RECORD: Flag = flag("--record", "", Kind::Switch, "");
const CHECK: Flag = flag("--check", "", Kind::Switch, "");
const METRICS: Flag = flag("--metrics", "OUT.json", Kind::Text("an output file"), "");
const CSV: Flag = flag("--csv", "DIR", Kind::Text("a directory"), "");
const DATASET: Flag = flag("--dataset", "FILE.json", Kind::Text("a file"), "");
const INVENTORY: Flag = flag("--machines", "M.csv", Kind::Text("a file"), "");
const EVENT_LOG: Flag = flag("--events", "E.csv", Kind::Text("a file"), "");
const HISTORY: Flag = flag("--history", "FILE", Kind::Text("a file"), DEFAULT_PATH);
const CKPT_DIR: Flag = flag("--checkpoint-dir", "DIR", Kind::Text("a directory"), "");
const ROOT: Flag = flag("--root", "DIR", Kind::Text("a directory"), "");
const ADDR: Flag = flag(
    "--addr",
    "HOST:PORT",
    Kind::Text("a HOST:PORT address"),
    "127.0.0.1:4914",
);

/// A relation among one command's flags, checked before its runner starts.
#[derive(Clone, Copy)]
enum Rule {
    /// The flag is read only alongside at least one of the others.
    Needs(Flag, &'static [Flag]),
    /// The flag picks an input or a mode that none of the others may join.
    Excludes(Flag, &'static [Flag]),
    /// The two flags name one input: both or neither.
    Together(Flag, Flag),
    /// The flag is read only for paper artifacts: `all` or an artifact id
    /// must be among the words, not just `extras` or `summary`.
    NeedsArtifact(Flag),
}

/// The flags' names joined by `sep`.
fn names(flags: &[Flag], sep: &str) -> String {
    flags.iter().map(|f| f.name).collect::<Vec<_>>().join(sep)
}

impl Rule {
    /// The rule as `--help` lists it.
    fn help(self) -> String {
        match self {
            Rule::Needs(flag, any) => format!("{} needs {}", flag.name, names(any, " or ")),
            Rule::Excludes(flag, rest) => format!("{} excludes {}", flag.name, names(rest, ", ")),
            Rule::Together(a, b) => format!("{} and {} must be given together", a.name, b.name),
            Rule::NeedsArtifact(flag) => format!("{} needs all or an artifact id", flag.name),
        }
    }

    /// The usage error of a command line that breaks the rule.
    fn broken_by(self, args: &Args) -> Option<String> {
        match self {
            Rule::Needs(flag, any) if args.on(flag) && !any.iter().any(|&f| args.on(f)) => {
                Some(self.help())
            }
            Rule::Excludes(flag, rest) if args.on(flag) => rest
                .iter()
                .find(|&&f| args.on(f))
                .map(|f| format!("{} and {} are mutually exclusive", flag.name, f.name)),
            Rule::Together(a, b) if args.on(a) != args.on(b) => Some(self.help()),
            Rule::NeedsArtifact(flag)
                if args.on(flag)
                    && !args
                        .words
                        .iter()
                        .any(|w| w == "all" || w.parse::<ExperimentId>().is_ok()) =>
            {
                Some(format!("{}, not '{}'", self.help(), args.words.join(" ")))
            }
            _ => None,
        }
    }
}

/// One row of the command table.
struct Command {
    /// The command word; empty for the artifact runs, which read the
    /// words `all`, `extras`, `summary` and `<id>` instead.
    name: &'static str,
    run: fn(&Args) -> Result<ExitCode, String>,
    flags: &'static [Flag],
    /// How the flags need and exclude each other, in the order checked.
    rules: &'static [Rule],
    /// `--scale` default without and with `--smoke`.
    scale: (f64, f64),
    /// The runner writes `--metrics` from its own traced run.
    traced: bool,
}

/// The artifact runs (`all` when no word is given): the base of the default
/// row, whose `--scale` default, window and (empty) rules the other rows
/// share unless they say otherwise.
const ARTIFACTS: Command = Command {
    name: "",
    run: run_experiments,
    flags: &[SCALE, SEED, CLASSIFY, CSV, JSON, METRICS],
    rules: &[],
    scale: (1.0, 1.0),
    traced: false,
};

/// Every command `repro` runs: the artifact runs first, as the default.
const COMMANDS: &[Command] = &[
    Command {
        // The extras and the §VII summary write no CSV.
        rules: &[Rule::NeedsArtifact(CSV)],
        ..ARTIFACTS
    },
    Command {
        name: "ablate",
        run: run_ablate,
        flags: &[SCALE, SEED, METRICS],
        scale: (0.3, 0.3),
        ..ARTIFACTS
    },
    Command {
        name: "audit",
        run: run_audit,
        flags: &[
            JSON, LENIENT, DATASET, INVENTORY, EVENT_LOG, SCALE, SEED, METRICS,
        ],
        // `--seed` and `--scale` pick the generated self-check, which reads
        // no mode: a trace is the one input `--lenient` applies to.
        rules: &[
            Rule::Together(INVENTORY, EVENT_LOG),
            Rule::Excludes(DATASET, &[INVENTORY, SEED, SCALE]),
            Rule::Excludes(INVENTORY, &[SEED, SCALE]),
            Rule::Needs(LENIENT, &[DATASET, INVENTORY]),
        ],
        ..ARTIFACTS
    },
    Command {
        name: "chaos",
        run: run_chaos,
        flags: &[SEED, SCALE, RATE, SMOKE, METRICS],
        scale: (1.0, 0.2),
        ..ARTIFACTS
    },
    Command {
        name: "bench",
        run: run_bench,
        flags: &[
            SEED, SCALE, RATE, JSON, SMOKE, RECORD, CHECK, HISTORY, METRICS,
        ],
        rules: &[Rule::Needs(HISTORY, &[RECORD, CHECK])],
        scale: (1.0, 0.05),
        traced: true,
    },
    Command {
        name: "metrics",
        run: run_metrics,
        flags: &[SEED, SCALE, RATE, JSON, SMOKE, METRICS],
        rules: &[],
        scale: (0.2, 0.05),
        traced: true,
    },
    Command {
        name: "shard",
        run: run_shard,
        flags: &[
            FLEET, SCALE, SHARDS, SEED, JSON, BASELINE, CKPT_DIR, RESUME, METRICS,
        ],
        // The baseline is one monolithic, uncheckpointed build.
        rules: &[
            Rule::Needs(RESUME, &[CKPT_DIR]),
            Rule::Excludes(BASELINE, &[CKPT_DIR, SHARDS]),
            Rule::Excludes(FLEET, &[SCALE]),
        ],
        ..ARTIFACTS
    },
    Command {
        name: "crashtest",
        run: run_crashtest,
        flags: &[SEED, SCALE, SHARDS, RATE, SMOKE, METRICS],
        scale: (0.02, 0.02),
        ..ARTIFACTS
    },
    Command {
        name: "stream",
        run: run_stream,
        flags: &[SEED, SCALE, EVENT_CAP, WINDOW, SLACK, JSON, SMOKE, METRICS],
        // The smoke needs the digest gate, which a capped replay skips.
        rules: &[Rule::Excludes(SMOKE, &[EVENT_CAP])],
        scale: (1.0, 0.05),
        ..ARTIFACTS
    },
    Command {
        name: "serve",
        run: run_serve,
        flags: &[ADDR, WORKERS, QUEUE, SEED, SCALE, SMOKE],
        // The smoke binds an ephemeral port of its own.
        rules: &[Rule::Excludes(SMOKE, &[ADDR])],
        scale: (1.0, 0.05),
        ..ARTIFACTS
    },
    Command {
        name: "lint",
        run: run_lint,
        flags: &[JSON, ROOT, METRICS],
        ..ARTIFACTS
    },
];

impl Kind {
    /// Checks `value` as the value of flag `name`, which needs one unless
    /// it is a switch.
    fn check(self, name: &str, value: Option<&String>) -> Result<String, String> {
        let value = match (self, value) {
            (Kind::Switch, _) => return Ok(String::new()),
            (Kind::Text(noun), None) => return Err(format!("{name} needs {noun}")),
            (_, None) => return Err(format!("{name} needs a value")),
            (_, Some(value)) => value,
        };
        match self {
            Kind::Switch | Kind::Text(_) => Ok(()),
            Kind::Seed => value
                .parse::<u64>()
                .map(drop)
                .map_err(|_| format!("bad seed '{value}'")),
            Kind::Int { noun, min } => match value.parse::<i64>() {
                Err(_) => Err(format!("bad {noun} '{value}'")),
                Ok(n) if n >= min => Ok(()),
                Ok(_) if min == 0 => Err(format!("{name} must be non-negative, got {value}")),
                Ok(_) => Err(format!("{name} must be at least {min}, got {value}")),
            },
            Kind::Real { noun, bound } => match (value.parse::<f64>(), bound) {
                (Err(_), _) => Err(format!("bad {noun} '{value}'")),
                (Ok(x), Some((lo, hi))) if !(lo..=hi).contains(&x) => {
                    Err(format!("{name} must be in [{lo}, {hi}], got {value}"))
                }
                _ => Ok(()),
            },
        }
        .map(|()| value.clone())
    }
}

/// A command line checked against the table: the chosen row, the artifact
/// words, and each given flag's value.
struct Args {
    command: &'static Command,
    words: Vec<String>,
    values: BTreeMap<&'static str, String>,
}

impl Args {
    fn on(&self, flag: Flag) -> bool {
        self.values.contains_key(flag.name)
    }

    /// The flag's value, else its default; `None` without either.
    fn get<T: FromStr>(&self, flag: Flag) -> Option<T> {
        let value = self
            .values
            .get(flag.name)
            .map_or(flag.default, String::as_str);
        (!value.is_empty()).then(|| value.parse().ok()).flatten()
    }

    fn seed(&self) -> u64 {
        self.get(SEED).unwrap_or_default()
    }

    /// `--scale`, else the command's default for a run with or without
    /// `--smoke`.
    fn scale(&self) -> f64 {
        let (plain, smoke) = self.command.scale;
        self.get(SCALE)
            .unwrap_or(if self.on(SMOKE) { smoke } else { plain })
    }
}

/// Checks `argv` against the command table; `None` asks for `--help`.
fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    let flags = || COMMANDS.iter().flat_map(|c| c.flags);
    // The first argument that is neither a flag nor a flag's value picks
    // the command; any other word picks the artifact runs.
    let (mut word, mut skip) = (None, false);
    for arg in argv {
        if std::mem::take(&mut skip) {
            continue;
        }
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        if arg.starts_with('-') {
            skip = flags().any(|f| f.name == arg && !f.meta.is_empty());
        } else if word.is_none() {
            word = Some(arg.as_str());
        }
    }
    let word = word.unwrap_or("all");
    let command = COMMANDS
        .iter()
        .find(|c| c.name == word)
        .unwrap_or(&COMMANDS[0]);
    let mut args = Args {
        command,
        words: Vec::new(),
        values: BTreeMap::new(),
    };
    let (mut named, mut rest) = (false, argv.iter());
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            let is_command = !arg.is_empty() && COMMANDS.iter().any(|c| c.name == arg);
            if command.name.is_empty() && !is_command {
                args.words.push(arg.clone());
            } else if arg != command.name || std::mem::replace(&mut named, true) {
                return Err(format!("repro {word} does not read '{arg}'"));
            }
            continue;
        }
        let flag = command
            .flags
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("repro {word} does not read {arg}"))?;
        let value = match flag.kind {
            Kind::Switch => None,
            _ => rest.next(),
        };
        args.values.insert(flag.name, flag.kind.check(arg, value)?);
    }
    if command.name.is_empty() && args.words.is_empty() {
        args.words.push("all".into());
    }
    if let Some(error) = command.rules.iter().find_map(|r| r.broken_by(&args)) {
        return Err(error);
    }
    Ok(Some(args))
}

/// `--help`, printed from the command table.
fn usage() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("usage:\n");
    for c in COMMANDS {
        let words = c
            .name
            .is_empty()
            .then_some(" [all | extras | summary | <id>...]");
        let flags = c.flags.iter().map(|f| match f.meta {
            "" => format!(" [{}]", f.name),
            meta => format!(" [{} {meta}]", f.name),
        });
        let mut line = format!("  repro {}", c.name).trim_end().to_string();
        for item in flags.chain(words.map(String::from)) {
            if line.len() + item.len() > 78 {
                let _ = writeln!(out, "{line}");
                line = " ".repeat(9);
            }
            line += &item;
        }
        let _ = writeln!(out, "{line}");
        let (plain, smoke) = c.scale;
        if c.flags.iter().any(|f| f.name == SCALE.name) {
            let smoke = (smoke != plain).then(|| format!(", {smoke} with --smoke"));
            let _ = writeln!(
                out,
                "      --scale defaults to {plain}{}",
                smoke.unwrap_or_default()
            );
        }
        for rule in c.rules {
            let _ = writeln!(out, "      {}", rule.help());
        }
    }
    out + "exit codes: 0 clean, 1 findings (dirty audit/lint, failed smoke), 2 usage or I/O error"
}

/// The paper scenario's dataset at `seed` and `scale`.
fn paper(seed: u64, scale: f64) -> FailureDataset {
    Scenario::paper()
        .seed(seed)
        .scale(scale)
        .build()
        .into_dataset()
}

/// Prints a failed smoke gate on stderr: exit 1.
fn smoke_failed(command: &str, why: &str) -> ExitCode {
    eprintln!("{command} smoke FAILED: {why}");
    ExitCode::from(EXIT_FINDINGS)
}

fn read_file(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Runs the `audit` command: lint a trace, print the report, exit nonzero
/// on Error-level findings. A trace's repair log (`--lenient`) goes to
/// stderr so `--json` stdout stays parseable.
fn run_audit(args: &Args) -> Result<ExitCode, String> {
    let dataset: Option<PathBuf> = args.get(DATASET);
    let csv: Option<(PathBuf, PathBuf)> = args.get(INVENTORY).zip(args.get(EVENT_LOG));
    let mode = if args.on(LENIENT) {
        RecoveryMode::Lenient
    } else {
        RecoveryMode::Strict
    };
    // A strict import audits the trace as written, before validation, and
    // refuses a dirty one with its report: that report is the finding.
    let imported = if let Some(path) = &dataset {
        import::dataset_from_json(&read_file(path)?, mode)
    } else if let Some((machines, events)) = &csv {
        let horizon = Horizon::observation_year();
        import::dataset_from_csv(&read_file(machines)?, &read_file(events)?, horizon, mode)
    } else {
        let (seed, scale) = (args.seed(), args.scale());
        eprintln!("auditing generated paper scenario (seed {seed}, scale {scale}) ...");
        let generated = paper(seed, scale);
        let report = dcfail_audit::audit_dataset(&generated);
        Ok((generated, report, DegradationReport::default()))
    };
    let (report, degradation) = match imported {
        Ok((_, report, degradation)) => (report, degradation),
        Err(ImportError::Rejected(report)) => (report, DegradationReport::default()),
        Err(e) => {
            return Err(format!(
                "{}: {e}",
                args.values
                    .get(DATASET.name)
                    .map_or("--machines/--events", String::as_str)
            ))
        }
    };
    if !degradation.is_empty() {
        eprint!("{degradation}");
    }
    if args.on(JSON) {
        println!("{}", to_json(&report)?);
    } else {
        print!("{}", report.render_text());
    }
    Ok(findings_unless(report.is_clean()))
}

/// Exit 0 when `clean`, else 1 (findings).
fn findings_unless(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FINDINGS)
    }
}

/// Pretty JSON of a report document.
fn to_json<T: serde::Serialize>(doc: &T) -> Result<String, String> {
    serde_json::to_string_pretty(doc).map_err(|e| format!("cannot serialize report: {e}"))
}

/// Prints clean-vs-recovered drift for the headline point estimates.
fn print_drift(clean: &FailureDataset, recovered: &FailureDataset) {
    let mean_repair = |ds: &FailureDataset, kind| {
        let hours = repair::repair_hours(ds, kind);
        (!hours.is_empty()).then(|| hours.iter().sum::<f64>() / hours.len() as f64)
    };
    for kind in [MachineKind::Pm, MachineKind::Vm] {
        let mtbf = (
            rates::mtbf_days(clean, kind),
            rates::mtbf_days(recovered, kind),
        );
        let repair = (mean_repair(clean, kind), mean_repair(recovered, kind));
        for (what, unit, estimates) in [("MTBF       ", "d", mtbf), ("mean repair", "h", repair)] {
            match estimates {
                (Some(c), Some(r)) => println!(
                    "  {kind} {what}   {c:>9.1} {unit}  ->  {r:>9.1} {unit}  ({:+.1}%)",
                    (r - c) / c * 100.0
                ),
                _ => println!("  {kind} {what}   unavailable"),
            }
        }
    }
}

/// Prints the robust estimators' verdicts on the recovered dataset.
fn print_robust(recovered: &FailureDataset) {
    let fig2 = degradation::weekly_failure_rates_robust(recovered);
    println!(
        "  weekly failure rates: {} (completeness {:.0}%)",
        fig2.value.as_ref().map_or("unavailable", |_| "available"),
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

/// Runs the `chaos` command: `dcfail_chaos::recovery_check` on a clean
/// scenario, printed with the drift of the recovered estimates. `--smoke`
/// makes the check's verdict the exit code.
fn run_chaos(args: &Args) -> Result<ExitCode, String> {
    let (seed, scale) = (args.seed(), args.scale());
    let rate: f64 = args.get(RATE).unwrap_or_default();
    eprintln!("chaos: generating clean paper scenario (seed {seed}, scale {scale}) ...");
    let clean = paper(seed, scale);
    let check = dcfail_chaos::recovery_check(&clean, &InjectionPlan::uniform(seed, rate))
        .map_err(|e| format!("recovery failed: {e}"))?;
    println!("== corruption (seed {seed}, rate {:.1}%) ==", rate * 100.0);
    print!("{}", check.log);
    println!("\n== quarantine and recovery ==");
    print!("{}", check.recovered.report);
    if check.audit.is_clean() {
        println!("re-audit of recovered dataset: clean");
    } else {
        println!("re-audit of recovered dataset: DIRTY (bug in recovery)");
        print!("{}", check.audit.render_text());
    }

    println!("\n== estimate drift (clean -> recovered) ==");
    print_drift(&clean, &check.recovered.dataset);
    print_robust(&check.recovered.dataset);

    if args.on(SMOKE) {
        if let Some(why) = check.failure {
            return Ok(smoke_failed("chaos", why));
        }
        println!(
            "\nchaos smoke: OK ({} corruptions recovered)",
            check.log.total()
        );
    }
    Ok(findings_unless(check.audit.is_clean()))
}

#[allow(clippy::unnecessary_wraps)] // the signature every command-table runner shares
fn run_ablate(args: &Args) -> Result<ExitCode, String> {
    let (seed, scale) = (args.seed(), args.scale());
    eprintln!("ablate: running the ablation suite (seed {seed}, scale {scale}) ...");
    println!("== ablation suite (seed {seed}, scale {scale}) ==\n");
    for a in ablation::run_all(seed, scale) {
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
    Ok(ExitCode::SUCCESS)
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

/// Runs the `bench` command: trace the pipeline, read the build, report
/// and stream times from its spans, write `BENCH_<git-short-sha>.json`,
/// and print a summary. `--record` appends the run to the tracked perf
/// history; `--check` gates it against the last recorded entry at the same
/// scale/thread count.
fn run_bench(args: &Args) -> Result<ExitCode, String> {
    let (seed, scale) = (args.seed(), args.scale());
    eprintln!(
        "bench: tracing the pipeline (seed {seed}, scale {scale}, {} threads) ...",
        dcfail_par::thread_count()
    );
    // The shard probe runs first and outside the window: `VmHWM` is a
    // high-water mark, so it must read before anything monolithic runs.
    let shard_peak_rss_kb = {
        let config = Scenario::paper().seed(seed).scale(scale).config().clone();
        let _probe = dcfail_shard::build_sharded(&config, SHARD_PROBE_SHARDS);
        peak_rss_kb()
    };

    let handle =
        dcfail_obs::ObsHandle::install().ok_or("another metrics collection window is active")?;
    let run = pipeline::run(seed, scale, args.get(RATE).unwrap_or_default());
    let metrics = handle.finish();
    if let Some(path) = args.get::<PathBuf>(METRICS) {
        write_metrics(&path, &metrics)?;
    }
    let run = run?;
    let doc = BenchDoc {
        entry: HistoryEntry::from_run(git_revision(Path::new(".")), &run, &metrics, peak_rss_kb())?,
        shard_probe_shards: SHARD_PROBE_SHARDS,
        shard_peak_rss_kb,
    };
    let entry = &doc.entry;
    let json = to_json(&doc)?;
    let path = PathBuf::from(format!("BENCH_{}.json", entry.git));
    std::fs::write(&path, &json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if args.on(JSON) {
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

    let history_path: PathBuf = args.get(HISTORY).unwrap_or_default();
    // Check before recording, so a `--check --record` run gates against the
    // previous baseline rather than against itself.
    let mut gate_failed = false;
    if args.on(CHECK) {
        let verdict = history::check(&history::load(&history_path)?, entry, REGRESSION_TOLERANCE);
        print!("{}", verdict.render(entry, &history_path));
        gate_failed = verdict.failed();
    }
    if args.on(RECORD) {
        history::append(&history_path, entry)?;
        eprintln!(
            "bench: recorded report {:.1} ms (scale {}, {} threads) to {}",
            entry.report_ms,
            entry.scale,
            entry.threads,
            history_path.display()
        );
    }
    Ok(findings_unless(!gate_failed))
}

/// Writes a collection window's JSON export to `path` (`--metrics`).
fn write_metrics(path: &Path, report: &dcfail_obs::MetricsReport) -> Result<(), String> {
    std::fs::write(path, report.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("metrics written to {}", path.display());
    Ok(())
}

/// Runs the `metrics` command: `dcfail_bench::pipeline::export_check`,
/// printing (or writing) the aggregated report and, with `--smoke`, the
/// check's verdict.
fn run_metrics(args: &Args) -> Result<ExitCode, String> {
    let (seed, scale) = (args.seed(), args.scale());
    eprintln!(
        "metrics: tracing full pipeline (seed {seed}, scale {scale}, {} threads) ...",
        dcfail_par::thread_count()
    );
    let check = pipeline::export_check(seed, scale, args.get(RATE).unwrap_or_default())
        .map_err(|e| format!("metrics: {e}"))?;
    let report = &check.report;
    if args.on(JSON) {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    eprintln!(
        "disabled-path cost: {:.1} ns/call x {} calls = {:.3}% of {:.0} ms wall-clock",
        check.per_call_ns, check.instrumented_calls, check.overhead_pct, check.wall_ms
    );
    if let Some(path) = args.get::<PathBuf>(METRICS) {
        write_metrics(&path, report)?;
    }
    if args.on(SMOKE) {
        if let Some(why) = &check.failure {
            return Ok(smoke_failed("metrics", why));
        }
        println!(
            "metrics smoke: OK ({} spans, {} counters, {} histograms, overhead {:.3}%)",
            report.spans.len(),
            report.counters.len(),
            report.histograms.len(),
            check.overhead_pct
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
fn scale_for_fleet(seed: u64, target: usize) -> f64 {
    let config = Scenario::paper().seed(seed).config().clone();
    let full = dcfail_synth::population::build(&config, &StreamRng::new(seed))
        .machines
        .len();
    if target > full {
        eprintln!(
            "shard: --machines {target} exceeds the paper's full fleet \
             ({full} machines); running at full scale"
        );
    }
    (target as f64 / full as f64).min(1.0)
}

/// Runs the `shard` command: the full paper report suite, generated and
/// analyzed shard-by-shard (or monolithically with `--baseline`).
fn run_shard(args: &Args) -> Result<ExitCode, String> {
    let checkpoint_dir: Option<String> = args.get(CKPT_DIR);
    let (seed, shards) = (args.seed(), args.get(SHARDS).unwrap_or_default());
    let scale = args
        .get(FLEET)
        .map_or_else(|| args.scale(), |target| scale_for_fleet(seed, target));
    let config = Scenario::paper().seed(seed).scale(scale).config().clone();
    let run_config = RunConfig::with_seed(seed);

    let (machines, reports) = if args.on(BASELINE) {
        eprintln!("shard: monolithic baseline (seed {seed}, scale {scale:.4}) ...");
        let dataset = Scenario::from_config(config).build().into_dataset();
        let toolkit = Toolkit::from_dataset(dataset, run_config.clone());
        let machines = toolkit.snapshot().dataset().machines().len();
        let reports = ExperimentId::PAPER
            .iter()
            .map(|&id| (id, (*toolkit.render(id)).clone()))
            .collect();
        (machines, reports)
    } else {
        let out = if let Some(dir) = checkpoint_dir {
            let manifest_path = format!("{dir}/{}", dcfail_ckpt::MANIFEST_FILE);
            let has_manifest = RealFs.exists(&manifest_path).map_err(|e| e.to_string())?;
            if args.on(RESUME) && !has_manifest {
                return Err(format!(
                    "--resume: no checkpoint manifest at {manifest_path} \
                     (drop --resume to start a fresh checkpointed run)"
                ));
            }
            eprintln!(
                "shard: {} checkpointed build, {shards} shards (seed {seed}, scale {scale:.4}) \
                 -> {dir} ...",
                if has_manifest { "resuming" } else { "fresh" },
            );
            let store = CheckpointStore::new(Box::new(RealFs), dir);
            dcfail_shard::resume_sharded(&config, shards, &store)
                .map_err(|e| format!("checkpointed shard build failed: {e}"))?
        } else {
            eprintln!(
                "shard: out-of-core build, {shards} shards (seed {seed}, scale {scale:.4}) ..."
            );
            dcfail_shard::build_sharded(&config, shards)
        };
        (
            out.dataset().machines().len(),
            out.paper_reports(&run_config),
        )
    };

    if args.on(JSON) {
        let doc = ShardReportDoc {
            seed,
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
        println!("{}", to_json(&doc)?);
    } else {
        for (_, rendered) in reports {
            println!("==== {} ====\n{}", rendered.title, rendered.text);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs the `crashtest` command: `dcfail_shard::crash_matrix` at the
/// command line's settings, printed.
fn run_crashtest(args: &Args) -> Result<ExitCode, String> {
    let (seed, scale, smoke) = (args.seed(), args.scale(), args.on(SMOKE));
    let shards = args.get(SHARDS).unwrap_or_default();
    let rate = args.get(RATE).unwrap_or_default();
    eprintln!(
        "crashtest: sweeping {} kill points ({shards} shards, seed {seed}, transient rate \
         {rate}, scale {scale:.4}) ...",
        if smoke { "three spread" } else { "all" }
    );
    let config = Scenario::paper().seed(seed).scale(scale).config().clone();
    let matrix = dcfail_shard::crash_matrix(&config, shards, rate, !smoke)
        .map_err(|e| format!("crashtest probe run failed: {e}"))?;
    eprintln!(
        "crashtest: {} transient faults absorbed by retry at rate {}",
        matrix.transients, matrix.transient_rate
    );
    for failure in &matrix.failures {
        println!("{failure}");
    }
    if !matrix.failures.is_empty() {
        println!(
            "crashtest FAILED: {} divergence(s) across {} kill points",
            matrix.failures.len(),
            matrix.kill_points.len()
        );
        return Ok(ExitCode::from(EXIT_FINDINGS));
    }
    println!(
        "crashtest{}: OK — {} kill points over {} I/O ops all resume to digest {:#018x}",
        if smoke { " (smoke)" } else { "" },
        matrix.kill_points.len(),
        matrix.total_ops,
        matrix.golden
    );
    Ok(ExitCode::SUCCESS)
}

/// Runs the `stream` command: `dcfail_stream::replay_check` at the command
/// line's settings, printed.
fn run_stream(args: &Args) -> Result<ExitCode, String> {
    let (seed, scale) = (args.seed(), args.scale());
    let slack_minutes: i64 = args.get(SLACK).unwrap_or_default();
    eprintln!(
        "stream: synthesizing feed (seed {seed}, scale {scale}, slack {slack_minutes} min, \
         {} threads) ...",
        dcfail_par::thread_count()
    );
    let config = dcfail_stream::StreamConfig {
        slack: SimDuration::from_minutes(slack_minutes),
        detector: args.get(WINDOW).map_or_else(
            dcfail_stream::DetectorConfig::weekly,
            dcfail_stream::DetectorConfig::with_panes,
        ),
    };
    let check = dcfail_stream::replay_check(seed, scale, config, args.get(EVENT_CAP))
        .map_err(|e| format!("feed replay failed: {e}"))?;
    let (stats, digest) = (&check.stats, check.digest);
    if args.on(JSON) {
        println!("{}", to_json(&check)?);
    } else {
        println!(
            "stream: {} events -> {} windows closed, {} alert(s) in {:.1} ms \
             ({:.2} M events/s)",
            stats.events_ingested,
            stats.windows_closed,
            check.alerts.len(),
            stats.events_ingested as f64 / check.events_per_sec * 1e3,
            check.events_per_sec / 1e6
        );
        println!(
            "  {} machines, {} failures, {} tickets; peak {} buffered event(s), \
             {} open window(s)",
            stats.machines,
            stats.failures,
            stats.tickets,
            stats.peak_buffered,
            stats.peak_open_windows
        );
        for alert in &check.alerts {
            println!(
                "  alert: week {:>2} — {} failures vs {:.1} expected (score {:.1})",
                alert.week, alert.observed, alert.expected, alert.score
            );
        }
        match check.batch_digest {
            Some(b) if b == digest => {
                println!("  digest {digest:#018x} == batch digest (stream==batch holds)");
            }
            Some(b) => println!("  digest {digest:#018x} != batch digest {b:#018x} — DIVERGED"),
            None => println!("  digest {digest:#018x} (capped replay; batch gate skipped)"),
        }
    }
    if args.on(SMOKE) {
        if let Some(why) = check.failure() {
            return Ok(smoke_failed("stream", why));
        }
        println!(
            "stream smoke: OK ({} events replayed at slack {slack_minutes} min, \
             digest {digest:#018x} == batch)",
            stats.events_ingested
        );
    }
    Ok(findings_unless(check.failure().is_none()))
}

/// Runs the `lint` command: the determinism lint over the workspace's own
/// Rust source, honoring inline suppressions and the checked-in baseline.
/// Without `--root` it scans the current directory when that holds a
/// `crates/` tree, else the source tree this binary was built from.
fn run_lint(args: &Args) -> Result<ExitCode, String> {
    let root = args.get(ROOT).unwrap_or_else(|| {
        if Path::new("crates").is_dir() {
            PathBuf::from(".")
        } else {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
        }
    });
    eprintln!("lint: scanning workspace source at {} ...", root.display());
    let report = dcfail_dlint::lint_workspace(&root)?;
    if args.on(JSON) {
        println!("{}", to_json(&report)?);
    } else {
        print!("{}", report.render_text());
    }
    Ok(findings_unless(report.is_clean()))
}

/// Runs the `serve` command: start the dcfail-serve daemon and block, or —
/// with `--smoke` — run `dcfail_serve::smoke::smoke` and print its verdict.
fn run_serve(args: &Args) -> Result<ExitCode, String> {
    let (seed, scale) = (args.seed(), args.scale());
    let smoke_run = args.on(SMOKE);
    let workers = args.get(WORKERS).unwrap_or(if smoke_run { 2 } else { 4 });
    let queue = args.get(QUEUE).unwrap_or(if smoke_run { 2 } else { 64 });
    if smoke_run {
        eprintln!(
            "serve smoke: starting on an ephemeral port (seed {seed}, scale {scale}, \
             {workers} workers, queue {queue}) ..."
        );
        let verdict = smoke(seed, scale, workers, queue)
            .map_err(|e| format!("cannot start smoke server: {e}"))?;
        let s = match verdict {
            Ok(s) => s,
            Err(deviation) => return Ok(smoke_failed("serve", &deviation)),
        };
        println!(
            "serve smoke: OK ({} reports byte-identical to the library envelope, \
             {} typed sheds, {} concurrent cold reads cost 1 render, {} whatif seeds \
             cached {} of at most {VARIANT_CAP} and evicted {}, clean shutdown)",
            s.reports, s.shed, s.cold_reads, s.whatif_seeds, s.cached, s.evicted
        );
        return Ok(ExitCode::SUCCESS);
    }
    let config = ServeConfig {
        addr: args.get(ADDR).unwrap_or_default(),
        workers,
        queue,
        seed,
        scale,
        metrics: true,
        ingest: true,
    };
    eprintln!("serve: building paper scenario (seed {seed}, scale {scale}) ...");
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

/// Runs the artifact words (`all` when none is given): each paper
/// artifact, then the extras and the §VII summary when asked for.
fn run_experiments(args: &Args) -> Result<ExitCode, String> {
    let words = &args.words;
    let asked = |word: &str| words.iter().any(|w| w == word);
    let ids: Vec<ExperimentId> = if asked("all") {
        ExperimentId::ALL.to_vec()
    } else {
        words
            .iter()
            .filter(|w| *w != "extras" && *w != "summary")
            .map(|w| w.parse::<ExperimentId>().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?
    };

    let (seed, scale) = (args.seed(), args.scale());
    eprintln!("generating paper scenario (seed {seed}, scale {scale}) ...");
    let mut dataset = paper(seed, scale);

    if args.on(CLASSIFY) {
        eprintln!("re-labeling events with the k-means pipeline ...");
        let mut rng = StreamRng::new(seed ^ 0x7ea).fork("repro.classify");
        let c = apply_to_dataset(&mut dataset, PipelineConfig::default(), &mut rng);
        match c.accuracy_vs_manual() {
            Some(accuracy) => eprintln!(
                "pipeline accuracy vs manual labels: {:.1}% (paper: 87%)",
                100.0 * accuracy
            ),
            None => eprintln!("no crash tickets: nothing was classified"),
        }
    }

    let csv_dir: Option<PathBuf> = args.get(CSV);
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }

    // One Toolkit per process: every render below shares the built dataset
    // and the artifact cache, and `--json` emits the same envelope bytes the
    // serve daemon answers with at `/reports/:id`.
    let toolkit = Toolkit::from_dataset(dataset, RunConfig::with_seed(seed));
    let extras = ExperimentId::EXTRAS.iter().filter(|_| asked("extras"));
    for (k, &id) in ids.iter().chain(extras).enumerate() {
        let rendered = toolkit.render(id);
        if args.on(JSON) {
            println!("{}", toolkit.envelope_json(id));
        } else {
            println!("==== {} ====\n{}", rendered.title, rendered.text);
        }
        // Only the asked-for artifacts write CSV, not the extras.
        if let (Some(dir), Some(csv), true) = (&csv_dir, &rendered.csv, k < ids.len()) {
            let path = dir.join(format!("{}.csv", id.key()));
            std::fs::write(&path, csv)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    if asked("summary") {
        let rendered = dcfail_report::summary::findings(toolkit.snapshot().dataset());
        if args.on(JSON) {
            // The summary is not a registry artifact (no experiment id), so
            // it has no envelope; emit the bare rendered document.
            let s = serde_json::to_string(&rendered)
                .map_err(|e| format!("cannot serialize summary: {e}"))?;
            println!("{s}");
        } else {
            println!("==== {} ====\n{}", rendered.title, rendered.text);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn try_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse(&argv)? else {
        println!("{}", usage());
        return Ok(ExitCode::SUCCESS);
    };
    // `--metrics OUT.json` on a command without a traced run of its own:
    // collect while it runs, export on the way out (even when it fails).
    let window = match args.get::<PathBuf>(METRICS) {
        Some(path) if !args.command.traced => Some((
            path,
            dcfail_obs::ObsHandle::install()
                .ok_or("another metrics collection window is active")?,
        )),
        _ => None,
    };
    let result = (args.command.run)(&args);
    if let Some((path, handle)) = window {
        write_metrics(&path, &handle.finish())?;
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
