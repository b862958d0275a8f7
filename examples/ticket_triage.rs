//! Ticket triage: run the paper's classification pipeline on a raw ticket
//! database — extract the crash tickets, cluster them with TF-IDF + k-means,
//! and report accuracy the way the paper does (87% vs manual labels).
//!
//! ```text
//! cargo run --example ticket_triage --release
//! ```

use dcfail::model::prelude::*;
use dcfail::stats::rng::StreamRng;
use dcfail::synth::Scenario;
use dcfail::tickets::classify::{classify, manual_label, PipelineConfig};
use dcfail::tickets::extract::{extract_crash_tickets, reconstruct_incidents};
use dcfail::tickets::store::TicketStore;

fn main() {
    let dataset = Scenario::paper().seed(99).scale(0.4).build().into_dataset();
    let store = TicketStore::from_dataset(&dataset);
    println!("ticket database: {} tickets", store.len());

    // Step 1: find the crash tickets in the haystack.
    let (crash_ids, report) = extract_crash_tickets(&store);
    println!(
        "crash extraction: {} extracted, precision {:.1}%, recall {:.1}%",
        crash_ids.len(),
        100.0 * report.precision(),
        100.0 * report.recall()
    );

    // Step 2: classify them by root cause.
    let crash: Vec<&Ticket> = store.tickets().iter().filter(|t| t.is_crash()).collect();
    let mut rng = StreamRng::new(1).fork("triage");
    let classification = classify(&crash, store.texts(), PipelineConfig::default(), &mut rng);
    let Some(accuracy) = classification.accuracy_vs_manual() else {
        println!("no crash tickets: nothing was classified");
        return;
    };
    println!(
        "k-means pipeline: {:.1}% agreement with manual labels (paper: 87%)",
        100.0 * accuracy
    );
    if let Some(acc) = classification.accuracy_vs_truth() {
        println!(
            "                  {:.1}% agreement with ground truth",
            100.0 * acc
        );
    }

    // Step 3: class mix of the triaged queue (manually-checked labels —
    // the operational output; raw k-means in parentheses).
    println!("\ntriaged queue by class (checked / raw k-means):");
    for class in FailureClass::ALL {
        let checked = classification
            .checked_labels()
            .values()
            .filter(|&&c| c == class)
            .count() as f64
            / classification.checked_labels().len() as f64;
        println!(
            "  {:<7} {:>5.1}%  ({:>5.1}%)",
            class.label(),
            100.0 * checked,
            100.0 * classification.share(class)
        );
    }

    // Step 4: show the pipeline at work on a few fresh tickets. A ticket
    // holds ids; its text is read from the dataset's table.
    println!("\nsample triage decisions:");
    let text = |id| dataset.texts().get(id).unwrap_or_default();
    for t in crash.iter().take(5) {
        let (description, resolution) = (text(t.description()), text(t.resolution()));
        println!(
            "  [{}] \"{description} / {resolution}\"\n      manual: {:<7} k-means: {:<7} truth: {}",
            t.id(),
            manual_label(description, resolution).label(),
            classification
                .label(t.id())
                .map_or("-", FailureClass::label),
            t.true_class().map_or("-", FailureClass::label),
        );
    }

    // Step 5: reconstruct incidents from ticket co-occurrence.
    let incidents = reconstruct_incidents(&store, MINUTE * 30);
    let multi = incidents.iter().filter(|g| g.size() >= 2).count();
    println!(
        "\nreconstructed {} incidents from ticket timing; {} involve several servers \
         (simulator ground truth: {})",
        incidents.len(),
        multi,
        dataset.incidents().len()
    );
}
