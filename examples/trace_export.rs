//! Trace export/import: save a simulated failure study to JSON and re-run an
//! analysis on the reloaded copy.
//!
//! The paper's pipeline mines persistent ticket and monitoring databases;
//! the dcfail equivalent is a serializable [`FailureDataset`] so analyses
//! are re-runnable on saved traces (and real traces, massaged into the same
//! schema, can be analyzed with the identical code).
//!
//! ```text
//! cargo run --example trace_export --release -- [out.json]
//! ```

use dcfail::analysis::rates;
use dcfail::model::dataset::FailureDataset;
use dcfail::model::interop;
use dcfail::synth::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/dcfail-trace.json".to_string());

    // Simulate and export.
    let dataset = Scenario::paper().seed(5).scale(0.05).build().into_dataset();
    let json = serde_json::to_string(&dataset)?;
    std::fs::write(&path, &json)?;
    println!(
        "exported {} machines / {} events / {} tickets to {path} ({:.1} MiB)",
        dataset.machines().len(),
        dataset.events().len(),
        dataset.tickets().len(),
        json.len() as f64 / (1024.0 * 1024.0)
    );

    // Re-import and verify the roundtrip is lossless.
    let reloaded: FailureDataset = serde_json::from_str(&std::fs::read_to_string(&path)?)?;
    assert_eq!(reloaded, dataset, "JSON roundtrip must be lossless");
    println!("reloaded trace matches the original bit-for-bit");

    // Analyses run identically on the reloaded copy.
    let original = rates::weekly_failure_rates(&dataset);
    let replayed = rates::weekly_failure_rates(&reloaded);
    assert_eq!(original, replayed);
    let (pm, vm) = replayed.estate()?;
    println!(
        "replayed analysis agrees: PM weekly rate {:.4}, VM {:.4}",
        pm.mean, vm.mean
    );

    // Flat-CSV interop: the format external failure traces arrive in.
    let machines_csv = interop::machines_to_csv(&dataset);
    let events_csv = interop::events_to_csv(&dataset);
    let imported = interop::dataset_from_csv(&machines_csv, &events_csv, dataset.horizon())?;
    let (from_csv, _) = rates::weekly_failure_rates(&imported).estate()?;
    println!(
        "CSV import ({} machine rows, {} event rows): PM rate {:.4} — matches: {}",
        machines_csv.lines().count() - 1,
        events_csv.lines().count() - 1,
        from_csv.mean,
        (from_csv.mean - pm.mean).abs() < 1e-12
    );
    Ok(())
}
