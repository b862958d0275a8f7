//! Exit-code contract of the `repro` binary: flag validation failures are
//! usage errors (exit 2) with a diagnostic on stderr, never panics and never
//! silently-clamped values.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary spawns")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = repro(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2 (usage), got {:?}",
        out.status.code()
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "{args:?} stderr must mention {needle:?}:\n{stderr}"
    );
}

#[test]
fn help_exits_clean_and_documents_every_subcommand() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for subcommand in [
        "audit",
        "chaos",
        "bench",
        "shard",
        "crashtest",
        "lint",
        "stream",
        "serve",
    ] {
        assert!(stdout.contains(subcommand), "usage lacks {subcommand}");
    }
    assert!(stdout.contains("--checkpoint-dir"));
    assert!(stdout.contains("--resume"));
}

#[test]
fn rate_outside_unit_interval_is_a_usage_error() {
    assert_usage_error(&["chaos", "--rate", "1.5"], "--rate must be in [0, 1]");
    assert_usage_error(&["chaos", "--rate", "-0.1"], "--rate must be in [0, 1]");
    assert_usage_error(&["chaos", "--rate", "nope"], "bad rate");
    assert_usage_error(&["chaos", "--rate"], "--rate needs a value");
}

#[test]
fn zero_shards_is_a_usage_error() {
    assert_usage_error(&["shard", "--shards", "0"], "--shards must be at least 1");
    assert_usage_error(&["shard", "--shards", "many"], "bad shard count");
}

#[test]
fn resume_without_a_checkpoint_dir_is_a_usage_error() {
    assert_usage_error(&["shard", "--resume"], "--resume needs --checkpoint-dir");
}

#[test]
fn resume_from_an_empty_dir_is_a_usage_error() {
    assert_usage_error(
        &[
            "shard",
            "--resume",
            "--checkpoint-dir",
            "/nonexistent/dcfail-ckpt",
        ],
        "no checkpoint manifest",
    );
}

#[test]
fn baseline_conflicts_with_checkpoint_dir() {
    assert_usage_error(
        &["shard", "--baseline", "--checkpoint-dir", "/tmp/x"],
        "mutually exclusive",
    );
}

#[test]
fn alternative_inputs_are_mutually_exclusive() {
    // Each pair picks one input; taking both used to drop one silently.
    assert_usage_error(
        &["shard", "--machines", "100", "--scale", "0.01"],
        "mutually exclusive",
    );
    assert_usage_error(
        &[
            "audit",
            "--dataset",
            "/nonexistent/trace.json",
            "--machines",
            "/nonexistent/m.csv",
            "--events",
            "/nonexistent/e.csv",
        ],
        "mutually exclusive",
    );
}

#[test]
fn audit_csv_inputs_come_in_pairs() {
    assert_usage_error(
        &["audit", "--machines", "/nonexistent/m.csv"],
        "--machines and --events must be given together",
    );
    assert_usage_error(
        &["audit", "--events", "/nonexistent/e.csv"],
        "--machines and --events must be given together",
    );
}

#[test]
fn stream_flag_validation_is_a_usage_error() {
    // The smoke/--events conflict must be rejected *before* any replay runs:
    // a usage error that arrives after minutes of work is not flag validation.
    assert_usage_error(
        &["stream", "--smoke", "--events", "10"],
        "mutually exclusive",
    );
    assert_usage_error(&["stream", "--slack", "-5"], "--slack must be non-negative");
    assert_usage_error(&["stream", "--slack", "soon"], "bad slack");
    assert_usage_error(&["stream", "--window", "0"], "--window must be at least 1");
}

#[test]
fn serve_flag_validation_is_a_usage_error() {
    assert_usage_error(&["serve", "--workers", "0"], "--workers must be at least 1");
    assert_usage_error(&["serve", "--workers", "many"], "bad worker count");
    assert_usage_error(&["serve", "--queue", "0"], "--queue must be at least 1");
    assert_usage_error(&["serve", "--queue", "deep"], "bad queue depth");
    assert_usage_error(&["serve", "--addr"], "--addr needs a HOST:PORT address");
}

#[test]
fn serve_unbindable_addr_is_a_usage_error() {
    // A bind failure is an environment error (exit 2), not a smoke finding.
    assert_usage_error(
        &["serve", "--addr", "256.0.0.1:0", "--scale", "0.01"],
        "cannot start server",
    );
}

#[test]
fn usage_errors_keep_stdout_empty() {
    // The diagnostic goes to stderr; stdout stays clean for pipelines.
    let out = repro(&["shard", "--shards", "0"]);
    assert!(out.stdout.is_empty(), "usage error wrote to stdout");
}

#[test]
fn a_flag_or_word_the_command_does_not_read_is_a_usage_error() {
    for (args, refusal) in [
        (
            &["lint", "--shards", "3"][..],
            "repro lint does not read --shards",
        ),
        (
            &["table1", "--workers", "2"],
            "repro table1 does not read --workers",
        ),
        (&["fig2", "audit"], "repro fig2 does not read 'audit'"),
        (&["stream", "fig2"], "repro stream does not read 'fig2'"),
        // The daemon exports its own window at GET /metrics.
        (
            &["serve", "--metrics", "m.json"],
            "repro serve does not read --metrics",
        ),
    ] {
        assert_usage_error(args, refusal);
        assert!(repro(args).stdout.is_empty(), "{args:?} wrote to stdout");
    }
}

#[test]
fn a_flag_the_chosen_input_or_mode_does_not_read_is_a_usage_error() {
    // No runner would read the second flag: it is refused before any work.
    for (line, refusal) in [
        (
            "shard --baseline --shards 3",
            "--baseline and --shards are mutually exclusive",
        ),
        (
            "audit --dataset t.json --seed 9 --scale 0.5",
            "--dataset and --seed are mutually exclusive",
        ),
        (
            "audit --machines m.csv --events e.csv --scale 0.5",
            "--machines and --scale are mutually exclusive",
        ),
        ("audit --lenient", "--lenient needs --dataset or --machines"),
        (
            "bench --smoke --history h.jsonl",
            "--history needs --record or --check",
        ),
        // The extras and the summary write no CSV.
        (
            "summary --scale 0.02 --csv D",
            "--csv needs all or an artifact id, not 'summary'",
        ),
        (
            "extras summary --csv D",
            "--csv needs all or an artifact id, not 'extras summary'",
        ),
    ] {
        let args: Vec<&str> = line.split(' ').collect();
        assert_usage_error(&args, refusal);
        assert!(repro(&args).stdout.is_empty(), "{line} wrote to stdout");
    }
}

#[test]
fn help_lists_each_flag_under_the_commands_that_read_it() {
    let out = repro(&["--help"]);
    let help = String::from_utf8_lossy(&out.stdout);
    let block = |command: &str| {
        help.split("\n  repro ")
            .find(|b| b.starts_with(&format!("{command} ")))
            .unwrap_or_else(|| panic!("help has no {command} line:\n{help}"))
            .to_string()
    };
    for command in ["bench", "metrics", "chaos", "crashtest"] {
        assert!(block(command).contains("--rate"), "{command} reads --rate");
    }
    assert!(
        !block("serve").contains("--metrics"),
        "serve refuses --metrics"
    );
    assert!(!block("lint").contains("--rate"), "lint reads no --rate");
    // Each command's flag rules follow its synopsis.
    assert!(block("shard").contains("--resume needs --checkpoint-dir"));
    assert!(block("shard").contains("--baseline excludes --checkpoint-dir, --shards"));
    assert!(block("audit").contains("--lenient needs --dataset or --machines"));
    assert!(block("bench").contains("--history needs --record or --check"));
    let artifacts = help
        .split("\n  repro ")
        .find(|b| b.starts_with('['))
        .expect("help has the artifact line");
    assert!(artifacts.contains("--csv needs all or an artifact id"));
    assert!(!block("ablate").contains("--csv"), "ablate reads no --csv");
}

#[test]
fn csv_writes_the_named_artifacts_alongside_extras() {
    let dir = std::env::temp_dir().join(format!("dcfail-cli-csv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro(&[
        "fig2",
        "extras",
        "--scale",
        "0.02",
        "--csv",
        dir.to_str().expect("a UTF-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("the CSV directory exists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(written, ["fig2.csv"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seed 0 at scale 0.004 builds 38 machines, none of whose VMs fail.
#[test]
fn a_fleet_without_vm_failures_renders_every_artifact() {
    let tiny = ["--scale", "0.004", "--seed", "0"];
    for command in [
        &["fig2"][..],
        &["summary"],
        &["all"],
        &["shard", "--shards", "3"],
    ] {
        let args = [&tiny[..], command].concat();
        let out = repro(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        if command == ["fig2"] {
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.contains("vs VM - (no VM failures; paper:"),
                "{stdout}"
            );
        }
    }
}

/// The first line `repro args` writes to stderr — the run's echo of its
/// resolved settings — after which the run is stopped. It runs in the temp
/// directory, where a `bench` that finishes first leaves its report.
fn first_stderr_line(args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro binary spawns");
    let mut line = String::new();
    BufReader::new(child.stderr.take().expect("stderr is piped"))
        .read_line(&mut line)
        .expect("stderr is readable");
    // The run may already be over; either way it is reaped.
    let _ = child.kill();
    let _ = child.wait();
    line
}

#[test]
fn explicit_scale_is_honoured_and_defaults_apply_only_when_absent() {
    for (args, echo) in [
        (&["metrics", "--scale", "1.0"][..], "scale 1,"),
        (&["metrics"][..], "scale 0.2,"),
        (&["metrics", "--smoke", "--scale", "0.3"][..], "scale 0.3,"),
        (&["metrics", "--smoke"][..], "scale 0.05,"),
        (&["bench", "--smoke", "--scale", "0.3"][..], "scale 0.3,"),
        (&["bench", "--smoke"][..], "scale 0.05,"),
        (&["stream", "--smoke", "--scale", "0.5"][..], "scale 0.5,"),
        (&["stream", "--smoke"][..], "scale 0.05,"),
        (&["serve", "--smoke", "--scale", "0.3"][..], "scale 0.3,"),
        (&["serve", "--smoke"][..], "scale 0.05,"),
        (&["chaos", "--smoke", "--scale", "0.5"][..], "scale 0.5)"),
        (&["chaos", "--smoke"][..], "scale 0.2)"),
        (&["ablate", "--scale", "1.0"][..], "scale 1)"),
        (&["ablate"][..], "scale 0.3)"),
        (&["crashtest", "--scale", "1.0"][..], "scale 1.0000)"),
        (&["crashtest"][..], "scale 0.0200)"),
    ] {
        let line = first_stderr_line(args);
        assert!(line.contains(echo), "{args:?} must echo {echo:?}: {line}");
    }
}

#[test]
fn flags_may_precede_the_command_word() {
    let line = first_stderr_line(&["--seed", "7", "--scale", "0.3", "ablate"]);
    assert!(line.contains("seed 7, scale 0.3)"), "{line}");
}

/// A `repro bench --smoke --scale 0.02 --check` run at one thread against
/// `history` (one JSON line per entry), spawned in a fresh temp directory
/// so its `BENCH_*.json` stays out of the tree. Gives back the exit code,
/// stdout and the directory.
fn bench_gate(name: &str, history: &str, extra: &[&str]) -> (Option<i32>, String, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dcfail-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let history_path = dir.join("history.jsonl");
    std::fs::write(&history_path, history).expect("history written");
    let history_arg = history_path.to_str().expect("UTF-8 temp path");
    let mut args = vec![
        "bench",
        "--smoke",
        "--scale",
        "0.02",
        "--check",
        "--history",
        history_arg,
    ];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(&args)
        .current_dir(&dir)
        .env("DCFAIL_THREADS", "1")
        .output()
        .expect("repro binary spawns");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code(), stdout, dir)
}

/// A history line at the gate's key (scale 0.02, one thread) with the given
/// totals and three named runners.
fn baseline_line(report_ms: f64, ingest_ms: f64) -> String {
    format!(
        "{{\"git\":\"base\",\"seed\":42,\"scale\":0.02,\"threads\":1,\"machines\":1,\
         \"events\":1,\"build_ms\":1.0,\"report_ms\":{report_ms},\"peak_rss_kb\":null,\
         \"runners\":[{{\"id\":\"table1\",\"ms\":{report_ms}}},\
         {{\"id\":\"fig8\",\"ms\":{report_ms}}},{{\"id\":\"prediction\",\"ms\":{report_ms}}}],\
         \"stream\":{{\"events\":1,\"ingest_ms\":{ingest_ms},\"events_per_sec\":1.0}}}}\n"
    )
}

#[test]
fn bench_gate_without_a_baseline_fails() {
    let (code, stdout, dir) = bench_gate("nobase", "", &[]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("NO BASELINE"), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bench_gate_fails_a_regression_and_names_runners() {
    // A negative baseline is exceeded on any host.
    let (code, stdout, dir) = bench_gate("regress", &baseline_line(-1000.0, 1e9), &[]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("perf gate: REGRESSION"), "{stdout}");
    for runner in ["table1", "fig8", "prediction"] {
        assert!(stdout.contains(&format!("  {runner}: ")), "{stdout}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bench_gate_passes_and_exports_its_spans() {
    let (code, stdout, dir) = bench_gate(
        "pass",
        &baseline_line(1e9, 1e9),
        &["--metrics", "metrics.json"],
    );
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("perf gate: ok"), "{stdout}");
    let export = std::fs::read_to_string(dir.join("metrics.json")).expect("export written");
    for span in ["\"report.run_all\"", "\"stream.replay\"", "\"synth.build\""] {
        assert!(export.contains(span), "export lacks {span}");
    }
    let report = std::fs::read_dir(&dir)
        .expect("temp dir lists")
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().starts_with("BENCH_"))
        .expect("bench report written");
    let doc = std::fs::read_to_string(report.path()).expect("bench report reads");
    for key in ["\"entry\"", "\"report_ms\"", "\"shard_peak_rss_kb\""] {
        assert!(doc.contains(key), "bench report lacks {key}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Seed 16 at scale 0.0002 builds a fleet without a single crash ticket:
/// the classifier relabels nothing, says so, and nothing panics.
#[test]
fn a_fleet_without_crash_tickets_classifies_nothing() {
    let tiny = ["--scale", "0.0002", "--seed", "16"];
    for command in [&["--classify", "table2"][..], &["metrics"]] {
        let args = [&tiny[..], command].concat();
        let out = repro(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        if command[0] == "--classify" {
            assert!(
                stderr.contains("no crash tickets: nothing was classified"),
                "{stderr}"
            );
        }
    }
}
