//! The warning log is bounded: a flood of warnings keeps the oldest ones and
//! drops the rest.
//!
//! This is its own test binary because warnings are process-global and never
//! reset — filling the cap inside the crate's unit tests would drop the
//! warnings other tests there look for.

#![allow(clippy::unwrap_used)]

#[test]
fn warnings_are_capped_keeping_the_oldest() {
    for i in 0..1000 {
        dcfail_obs::warn(format!("flood {i}"));
    }
    let report = dcfail_obs::ObsHandle::install().unwrap().finish();
    let kept = report.warnings.len();
    assert!((1..1000).contains(&kept), "kept {kept} of 1000 warnings");
    let expected: Vec<String> = (0..kept).map(|i| format!("flood {i}")).collect();
    assert_eq!(report.warnings, expected, "the oldest warnings are kept");
}
