//! Golden pin for the ticket classifier: the full `classify` output for one
//! fixed scenario (seed 42, scale 0.1) must keep its bits. The digest covers
//! every ticket's raw k-means label and checked label, the bits of both
//! accuracies and the per-class cluster counts, so any change to the
//! TF-IDF vectors, the k-means fit or the cluster vote moves it.

#![allow(clippy::unwrap_used)]

use dcfail_model::ticket::Ticket;
use dcfail_stats::rng::StreamRng;
use dcfail_synth::Scenario;
use dcfail_tickets::classify::{classify, Classification, PipelineConfig};

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100000001b3);
    }
}

fn digest(c: &Classification) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for ((id, raw), (checked_id, checked)) in c.labels().iter().zip(c.checked_labels()) {
        assert_eq!(
            id, checked_id,
            "raw and checked labels cover one ticket set"
        );
        fnv(&mut hash, format!("{id}:{raw}:{checked}\n").as_bytes());
    }
    fnv(
        &mut hash,
        &c.accuracy_vs_manual().unwrap().to_bits().to_le_bytes(),
    );
    fnv(
        &mut hash,
        &c.accuracy_vs_truth()
            .map_or(u64::MAX, f64::to_bits)
            .to_le_bytes(),
    );
    for (class, n) in c.clusters_per_class() {
        fnv(&mut hash, format!("{class}={n}\n").as_bytes());
    }
    hash
}

#[test]
fn golden_classification_digest() {
    let dataset = Scenario::paper().seed(42).scale(0.1).build().into_dataset();
    let crash: Vec<&Ticket> = dataset.tickets().iter().filter(|t| t.is_crash()).collect();
    let mut rng = StreamRng::new(42).fork("golden.classify");
    let c = classify(&crash, dataset.texts(), PipelineConfig::default(), &mut rng);
    assert_eq!(c.labels().len(), crash.len());
    let got = digest(&c);
    assert_eq!(
        got, GOLDEN,
        "classification of the seed-42 scale-0.1 crash tickets changed: digest \
         {got:#018x} != pinned {GOLDEN:#018x}. If the change is intentional, \
         update GOLDEN in crates/tickets/tests/golden_classify.rs."
    );
}

/// Pinned digest of the seed-42, scale-0.1 classification.
const GOLDEN: u64 = 0x0ee784b48339764a;
