//! Golden pin for the ticket haystack and the chaos → recover path: the JSON
//! bytes of a generated dataset, of its corrupted raw parts and of the
//! recovered dataset. The report goldens only count tickets and the
//! classifier reads crash tickets only, so these are the digests that read
//! every byte of non-crash ticket text. If a test fails after an intentional
//! generator, injector or recovery change, update the pinned constant to the
//! digest in its failure message.

#![allow(clippy::unwrap_used)]

use dcfail::audit::recover::recover_raw;
use dcfail::audit::RawDatasetParts;
use dcfail::chaos::{inject, InjectionPlan};
use dcfail::model::dataset::FailureDataset;
use dcfail::synth::Scenario;

/// FNV-1a over a string's bytes.
fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn dataset() -> FailureDataset {
    Scenario::paper()
        .seed(42)
        .scale(0.05)
        .build()
        .into_dataset()
}

fn parts(dataset: &FailureDataset) -> RawDatasetParts {
    inject(dataset, &InjectionPlan::uniform(42, 0.05)).0
}

fn check(what: &str, json: &str, pinned: u64) {
    let got = fnv1a(json);
    assert_eq!(
        got, pinned,
        "{what} JSON changed: digest {got:#018x} != pinned {pinned:#018x}"
    );
}

#[test]
fn generated_dataset_bytes_are_pinned() {
    let dataset = dataset();
    let json = serde_json::to_string(&dataset).unwrap();
    check("generated dataset", &json, DATASET);
    // Ticket text round-trips through the validated serde path unchanged.
    let back: FailureDataset = serde_json::from_str(&json).unwrap();
    assert_eq!(back, dataset);
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
}

#[test]
fn injected_parts_bytes_are_pinned() {
    let parts = parts(&dataset());
    let json = serde_json::to_string(&parts).unwrap();
    check("injected raw parts", &json, PARTS);
    // ... and through the unvalidated mirror.
    let back: RawDatasetParts = serde_json::from_str(&json).unwrap();
    assert_eq!(back, parts);
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
}

#[test]
fn recovered_dataset_bytes_are_pinned() {
    let recovered = recover_raw(&parts(&dataset())).unwrap();
    let json = serde_json::to_string(&recovered.dataset).unwrap();
    check("recovered dataset", &json, RECOVERED);
}

/// `Scenario::paper().seed(42).scale(0.05)` as JSON.
const DATASET: u64 = 0x6612989604052384;
/// That dataset through `inject` at a uniform rate of 0.05, plan seed 42.
const PARTS: u64 = 0x2a3539c50339a6ab;
/// Those parts through `recover_raw`.
const RECOVERED: u64 = 0x9489834e81d0baae;
