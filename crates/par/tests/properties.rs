//! Property tests: the parallel maps equal their sequential counterparts for
//! arbitrary inputs and thread counts.
//!
//! Thread counts are driven through [`dcfail_par::set_thread_override`],
//! which also exercises the `DCFAIL_THREADS=1` sequential fallback
//! (`Some(1)` takes the identical code path). The override is global, but
//! that is safe here precisely because of the invariant under test: output
//! never depends on the thread count, so concurrent override flips from
//! other test threads cannot change any result.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `par_map` returns exactly the sequential map for any input length —
    /// empty included — and any thread count, including more threads than
    /// items (which varies the chunk size from 1 up to the whole slice).
    #[test]
    fn par_map_matches_sequential(
        items in prop::collection::vec(any::<i64>(), 0..300),
        threads in 1usize..=9,
    ) {
        dcfail_par::set_thread_override(Some(threads));
        let par = dcfail_par::par_map(&items, |i, &x| (i, x.wrapping_mul(3)));
        dcfail_par::set_thread_override(None);
        let seq: Vec<(usize, i64)> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| (i, x.wrapping_mul(3)))
            .collect();
        prop_assert_eq!(par, seq);
    }

    /// `par_map_index` agrees with the direct range map.
    #[test]
    fn par_map_index_matches_sequential(n in 0usize..500, threads in 1usize..=9) {
        dcfail_par::set_thread_override(Some(threads));
        let par = dcfail_par::par_map_index(n, |i| i * i + 1);
        dcfail_par::set_thread_override(None);
        let seq: Vec<usize> = (0..n).map(|i| i * i + 1).collect();
        prop_assert_eq!(par, seq);
    }
}
