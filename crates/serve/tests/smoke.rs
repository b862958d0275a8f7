//! The daemon's smoke (`dcfail_serve::smoke`, also `repro serve --smoke`)
//! over a live server. Kept in its own test binary: the smoke's daemon owns
//! the process-global obs window, which no other test may hold meanwhile.

use dcfail_report::toolkit::VARIANT_CAP;
use dcfail_report::ExperimentId;
use dcfail_serve::smoke::smoke;

#[test]
fn smoke_passes_every_leg() {
    let smoke = smoke(42, 0.02, 2, 2)
        .expect("the smoke daemon binds")
        .unwrap_or_else(|deviation| panic!("serve smoke failed: {deviation}"));
    assert_eq!(smoke.reports, ExperimentId::ALL.len());
    assert!(smoke.shed >= 3, "{smoke:?}");
    assert_eq!(smoke.cold_reads, 2);
    assert_eq!(smoke.whatif_seeds, VARIANT_CAP + 10);
    assert!(smoke.cached <= VARIANT_CAP, "{smoke:?}");
    assert_eq!(smoke.evicted, 10);
}
