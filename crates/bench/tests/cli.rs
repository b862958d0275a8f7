//! Exit-code contract of the `repro` binary: flag validation failures are
//! usage errors (exit 2) with a diagnostic on stderr, never panics and never
//! silently-clamped values.

use std::io::{BufRead, BufReader};
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

/// The first line `repro args` writes to stderr — the run's echo of its
/// resolved settings — after which the run is stopped.
fn first_stderr_line(args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
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
        (&["crashtest", "--scale", "1.0"][..], "scale 1.0000)"),
        (&["crashtest"][..], "scale 0.0200)"),
    ] {
        let line = first_stderr_line(args);
        assert!(line.contains(echo), "{args:?} must echo {echo:?}: {line}");
    }
}
