//! Edge cases of the audited CSV and JSON import paths: malformed shapes
//! must come back as typed [`ImportError`]s, never as panics.

#![allow(clippy::unwrap_used)]

use dcfail_audit::import::{dataset_from_csv, dataset_from_json, ImportError};
use dcfail_audit::RecoveryMode;
use dcfail_model::prelude::*;

const MACHINES: &str = "\
machine,kind,subsystem,power_domain,cpus,memory_mb,disks,disk_gb,created_minutes,host_box
0,PM,0,0,4,8192,2,512,,
1,VM,0,0,2,2048,1,64,,0
";

const EVENTS: &str = "\
machine,incident,at_minutes,class,repair_minutes
0,100,1440,HW,600
1,100,1440,Reboot,60
";

fn horizon() -> Horizon {
    Horizon::observation_year()
}

#[test]
fn empty_files_are_typed_errors() {
    let e = dataset_from_csv("", "", horizon(), RecoveryMode::Strict).unwrap_err();
    assert!(matches!(e, ImportError::Parse(_)));
    assert!(e.to_string().contains("no machines"));

    let e = dataset_from_csv("", EVENTS, horizon(), RecoveryMode::Strict).unwrap_err();
    assert!(matches!(e, ImportError::Parse(_)));
}

#[test]
fn header_only_files_are_typed_errors() {
    let header = "machine,kind,subsystem,power_domain,cpus,memory_mb,disks,disk_gb,created_minutes,host_box\n";
    let e = dataset_from_csv(header, EVENTS, horizon(), RecoveryMode::Strict).unwrap_err();
    assert!(matches!(e, ImportError::Parse(_)));

    // A header-only event log is fine: a fleet with no failures.
    let (ds, report, _) = dataset_from_csv(
        MACHINES,
        "machine,incident,at_minutes,class,repair_minutes\n",
        horizon(),
        RecoveryMode::Strict,
    )
    .expect("no events is valid");
    assert_eq!(ds.events().len(), 0);
    assert!(report.is_clean());
}

#[test]
fn crlf_line_endings_parse() {
    let machines_crlf = MACHINES.replace('\n', "\r\n");
    let events_crlf = EVENTS.replace('\n', "\r\n");
    let (ds, report, _) = dataset_from_csv(
        &machines_crlf,
        &events_crlf,
        horizon(),
        RecoveryMode::Strict,
    )
    .expect("CRLF input must parse");
    assert_eq!(ds.machines().len(), 2);
    assert_eq!(ds.events().len(), 2);
    assert!(report.is_clean());
}

#[test]
fn missing_trailing_newline_parses() {
    let machines = MACHINES.trim_end();
    let events = EVENTS.trim_end();
    let (ds, _, _) = dataset_from_csv(machines, events, horizon(), RecoveryMode::Strict)
        .expect("missing trailing newline must parse");
    assert_eq!(ds.machines().len(), 2);
    assert_eq!(ds.events().len(), 2);
}

#[test]
fn duplicate_header_is_a_typed_error() {
    let doubled = format!(
        "machine,kind,subsystem,power_domain,cpus,memory_mb,disks,disk_gb,created_minutes,host_box\n{MACHINES}"
    );
    let e = dataset_from_csv(&doubled, EVENTS, horizon(), RecoveryMode::Strict).unwrap_err();
    let ImportError::Parse(msg) = e else {
        panic!("expected a parse error, got {e}");
    };
    assert!(msg.contains("line 2"), "{msg}");

    // The lenient path skips the stray header row and keeps the data.
    let (ds, report, degradation) =
        dataset_from_csv(&doubled, EVENTS, horizon(), RecoveryMode::Lenient)
            .expect("lenient import succeeds");
    assert_eq!(ds.machines().len(), 2);
    assert!(report.is_clean());
    assert!(!degradation.is_empty());
}

#[test]
fn invalid_field_values_are_typed_errors_not_panics() {
    // cpus == 0 used to panic inside ResourceCapacity::new.
    let zero_cpus = "\
machine,kind,subsystem,power_domain,cpus,memory_mb,disks,disk_gb,created_minutes,host_box
0,PM,0,0,0,8192,2,512,,
";
    let e = dataset_from_csv(zero_cpus, EVENTS, horizon(), RecoveryMode::Strict).unwrap_err();
    assert!(e.to_string().contains("cpus"), "{e}");

    // Negative repair used to panic inside FailureEvent::new.
    let negative_repair = "\
machine,incident,at_minutes,class,repair_minutes
0,100,1440,HW,-600
";
    let e =
        dataset_from_csv(MACHINES, negative_repair, horizon(), RecoveryMode::Strict).unwrap_err();
    assert!(e.to_string().contains("repair_minutes"), "{e}");

    // An event outside the horizon used to panic while the dataset was
    // assembled.
    let outside = "\
machine,incident,at_minutes,class,repair_minutes
0,100,99999999,HW,600
";
    let e = dataset_from_csv(MACHINES, outside, horizon(), RecoveryMode::Strict).unwrap_err();
    assert!(matches!(e, ImportError::Parse(_)));

    // The lenient path clamps all three and succeeds.
    let (ds, report, degradation) =
        dataset_from_csv(zero_cpus, outside, horizon(), RecoveryMode::Lenient)
            .expect("lenient import succeeds");
    assert_eq!(ds.machines().len(), 1);
    assert_eq!(ds.events().len(), 1);
    assert!(report.is_clean());
    assert!(degradation.count(dcfail_audit::RepairRule::CsvFieldClamped) >= 2);
}

#[test]
fn strict_mode_via_wrapper_matches_plain_strict() {
    let plain =
        dcfail_model::interop::dataset_from_csv(MACHINES, EVENTS, horizon()).expect("valid trace");
    let (ds, report, degradation) =
        dataset_from_csv(MACHINES, EVENTS, horizon(), RecoveryMode::Strict)
            .expect("strict import succeeds");
    assert_eq!(report, dcfail_audit::audit_dataset(&plain));
    assert_eq!(ds, plain);
    assert!(degradation.is_empty());
}

/// The CSV fixtures' trace as JSON, with an `extra` key the importer
/// ignores that nests arrays until the document is `depth` levels deep
/// (the trace object itself is the first).
fn nested_trace(depth: usize) -> String {
    let (dataset, _, _) =
        dataset_from_csv(MACHINES, EVENTS, horizon(), RecoveryMode::Strict).unwrap();
    let trace = serde_json::to_string(&dataset).unwrap();
    let arrays = depth - 1;
    format!(
        "{{\"extra\":{}{},{}",
        "[".repeat(arrays),
        "]".repeat(arrays),
        &trace[1..]
    )
}

#[test]
fn json_nested_past_the_parser_bound_is_a_parse_error_in_both_modes() {
    for mode in [RecoveryMode::Strict, RecoveryMode::Lenient] {
        // Just inside the bound of 128 levels: the trace still imports.
        let (dataset, _, _) = dataset_from_json(&nested_trace(127), mode).unwrap();
        assert_eq!(dataset.machines().len(), 2);
        for hostile in [nested_trace(128), "[".repeat(200_000)] {
            match dataset_from_json(&hostile, mode) {
                Err(ImportError::Parse(msg)) => {
                    assert!(msg.contains("recursion limit"), "{mode:?}: {msg}");
                }
                other => panic!("{mode:?}: want a parse error, got {other:?}"),
            }
        }
    }
}
