//! Cross-crate pipeline tests: the full route from raw tickets to analyses,
//! exercising the crate boundaries the way a downstream user would.

#![allow(clippy::unwrap_used)]

use dcfail::analysis::{class_mix, ClassSource};
use dcfail::model::prelude::*;
use dcfail::stats::rng::StreamRng;
use dcfail::synth::Scenario;
use dcfail::tickets::classify::{apply_to_dataset, classify, PipelineConfig};
use dcfail::tickets::extract::{extract_crash_tickets, reconstruct_incidents};
use dcfail::tickets::store::TicketStore;

fn small_dataset(seed: u64) -> FailureDataset {
    Scenario::paper()
        .seed(seed)
        .scale(0.15)
        .build()
        .into_dataset()
}

#[test]
fn extraction_then_classification_then_analysis() {
    let mut ds = small_dataset(1);

    // Extraction finds most crash tickets with decent precision.
    let store = TicketStore::from_tickets(ds.tickets().to_vec());
    let (ids, report) = extract_crash_tickets(&store);
    assert!(!ids.is_empty());
    assert!(report.precision() > 0.8, "precision {}", report.precision());
    assert!(report.recall() > 0.8, "recall {}", report.recall());

    // Classification re-labels events; the class mix stays sane.
    let mut rng = StreamRng::new(2);
    let c = apply_to_dataset(&mut ds, PipelineConfig::default(), &mut rng);
    assert!(c.accuracy_vs_manual() > 0.75);
    let mix = class_mix::class_mix(&ds, ClassSource::Reported);
    assert!(mix.overall.other_share > 0.3 && mix.overall.other_share < 0.75);

    // Event labels and the checked classification agree one-to-one.
    for ev in ds.events() {
        assert_eq!(
            Some(ev.reported_class()),
            c.checked_labels().get(&ev.ticket()).copied()
        );
    }
}

#[test]
fn classifier_differs_from_monitor_labels_but_not_wildly() {
    let mut ds = small_dataset(3);
    let monitor_labels: Vec<FailureClass> = ds
        .events()
        .iter()
        .map(FailureEvent::reported_class)
        .collect();
    let mut rng = StreamRng::new(4);
    apply_to_dataset(&mut ds, PipelineConfig::default(), &mut rng);
    let pipeline_labels: Vec<FailureClass> = ds
        .events()
        .iter()
        .map(FailureEvent::reported_class)
        .collect();
    let agree = monitor_labels
        .iter()
        .zip(&pipeline_labels)
        .filter(|(a, b)| a == b)
        .count();
    let agreement = agree as f64 / monitor_labels.len() as f64;
    // Two independent imperfect labelers of the same text: they must agree
    // on most tickets but not be identical.
    assert!(agreement > 0.7, "agreement {agreement}");
    assert!(agreement < 1.0, "pipelines should not be identical");
}

#[test]
fn incident_reconstruction_approximates_ground_truth() {
    let ds = small_dataset(5);
    let store = TicketStore::from_tickets(ds.tickets().to_vec());
    let reconstructed = reconstruct_incidents(&store, MINUTE * 10);
    let truth = ds.incidents().len();
    // Time-proximity grouping should land within 2x of the true incident
    // count (it merges co-incident singletons and splits nothing).
    assert!(
        reconstructed.len() * 2 > truth && reconstructed.len() < truth * 2,
        "reconstructed {} vs truth {truth}",
        reconstructed.len()
    );
    // Every crash ticket lands in exactly one group.
    let grouped: usize = reconstructed.iter().map(|g| g.tickets.len()).sum();
    assert_eq!(grouped, ds.events().len());
}

#[test]
fn classification_is_reproducible_per_seed() {
    let ds = small_dataset(7);
    let crash: Vec<&Ticket> = ds.tickets().iter().filter(|t| t.is_crash()).collect();
    let a = classify(&crash, PipelineConfig::default(), &mut StreamRng::new(9));
    let b = classify(&crash, PipelineConfig::default(), &mut StreamRng::new(9));
    assert_eq!(a.labels(), b.labels());
    let c = classify(&crash, PipelineConfig::default(), &mut StreamRng::new(10));
    // A different seed may flip some cluster assignments...
    let _ = c;
}

#[test]
fn truth_vs_reported_views_stay_consistent() {
    let ds = small_dataset(11);
    let truth = class_mix::class_mix(&ds, ClassSource::Truth);
    let reported = class_mix::class_mix(&ds, ClassSource::Reported);
    // Total event counts agree regardless of the label source.
    assert_eq!(
        truth.overall.counts.iter().sum::<usize>(),
        reported.overall.counts.iter().sum::<usize>()
    );
    // Truth never contains "other".
    assert_eq!(truth.overall.counts[FailureClass::Other.index()], 0);
    assert!(reported.overall.counts[FailureClass::Other.index()] > 0);
}
