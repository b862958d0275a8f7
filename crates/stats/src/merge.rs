//! Mergeable streaming accumulators for out-of-core analysis.
//!
//! A [`Mergeable`] accumulator summarizes one shard of a dataset and can
//! absorb the accumulator of any other shard; the merged state is identical
//! no matter how the input was partitioned or in which order the parts were
//! absorbed. That contract — `absorb` is associative *and* commutative, and
//! `finalize` depends only on the merged state — is what lets
//! `dcfail-shard` compute the paper's figures one shard at a time while
//! staying bit-identical to the monolithic pipeline.
//!
//! Two families of accumulators live here:
//!
//! * **Exactly mergeable** — integer counters ([`Counter`],
//!   [`CountMatrix`], [`FixedHistogram`]) and the error-free float
//!   accumulator [`ExactSum`]. Their merged result equals the monolithic
//!   result bit-for-bit.
//! * **Reservoir-approximated** — [`KeyedSamples`], a bottom-k sample keyed
//!   by a deterministic priority. With a bound `>= n` it keeps everything
//!   and `finalize` restores the exact monolithic order (by key); with a
//!   smaller bound it is a deterministic uniform subsample.

use serde::{Deserialize, Serialize};

/// A shard summary that can absorb other shards' summaries.
///
/// Implementations must make `absorb` associative and commutative on the
/// accumulator state so that any partition of the input, merged in any
/// order, produces the same state. `identity()` is the neutral element:
/// absorbing it changes nothing, and an identity that absorbs one shard
/// equals that shard.
pub trait Mergeable: Sized {
    /// The finished statistic this accumulator produces.
    type Output;

    /// The neutral element: merging it into anything is a no-op.
    fn identity() -> Self;

    /// Folds another shard's accumulator into this one.
    fn absorb(&mut self, other: &Self);

    /// Consumes the merged state, producing the finished statistic.
    fn finalize(self) -> Self::Output;
}

// ---------------------------------------------------------------------------
// ExactSum
// ---------------------------------------------------------------------------

/// An error-free floating-point sum (Shewchuk's nonoverlapping expansion).
///
/// The accumulator state represents the *exact* real-number sum of every
/// value pushed so far as a sum of nonoverlapping doubles. Because the
/// representation is exact, grouping and order of addition cannot change it:
/// sharded sums match monolithic sums bit-for-bit after [`ExactSum::value`]
/// rounds the expansion once.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ExactSum {
    /// Nonoverlapping components, ordered by increasing magnitude.
    components: Vec<f64>,
}

impl ExactSum {
    /// An empty (zero) sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one value exactly.
    pub fn push(&mut self, value: f64) {
        let mut x = value;
        let mut out = 0usize;
        for i in 0..self.components.len() {
            let y = self.components[i];
            // Two-sum: hi + lo == x + y exactly.
            let hi = x + y;
            let y_virtual = hi - x;
            let x_virtual = hi - y_virtual;
            let lo = (x - x_virtual) + (y - y_virtual);
            if lo != 0.0 {
                self.components[out] = lo;
                out += 1;
            }
            x = hi;
        }
        self.components.truncate(out);
        if x != 0.0 || self.components.is_empty() {
            self.components.push(x);
        }
    }

    /// The correctly rounded value of the exact sum.
    ///
    /// Uses the `fsum` rounding pass over the partials (largest first, with
    /// a half-even correction from the first nonzero residual), so the
    /// result is the true sum rounded once — independent of push order.
    pub fn value(&self) -> f64 {
        let p = &self.components;
        let mut n = p.len();
        if n == 0 {
            return 0.0;
        }
        n -= 1;
        let mut hi = p[n];
        let mut lo = 0.0;
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = p[n];
            hi = x + y;
            let yr = hi - x;
            lo = y - yr;
            if lo != 0.0 {
                break;
            }
        }
        // Half-way case: adjust if the remaining partials push the sum
        // across the rounding boundary.
        if n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

impl Mergeable for ExactSum {
    type Output = f64;

    fn identity() -> Self {
        Self::new()
    }

    fn absorb(&mut self, other: &Self) {
        for &c in &other.components {
            self.push(c);
        }
    }

    fn finalize(self) -> f64 {
        self.value()
    }
}

// ---------------------------------------------------------------------------
// Integer counters
// ---------------------------------------------------------------------------

/// A single event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Counter(pub u64);

impl Mergeable for Counter {
    type Output = u64;

    fn identity() -> Self {
        Self(0)
    }

    fn absorb(&mut self, other: &Self) {
        self.0 += other.0;
    }

    fn finalize(self) -> u64 {
        self.0
    }
}

/// A dense `rows x cols` matrix of counters (e.g. events per bin and week).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CountMatrix {
    rows: usize,
    cols: usize,
    counts: Vec<u64>,
}

impl CountMatrix {
    /// A zeroed `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            counts: vec![0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The count at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> u64 {
        self.counts[row * self.cols + col]
    }

    /// Increments `(row, col)` by `by`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    pub fn add(&mut self, row: usize, col: usize, by: u64) {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        self.counts[row * self.cols + col] += by;
    }

    /// Increments every cell of `row` by `by` — the bulk form of calling
    /// [`Self::add`] once per column.
    ///
    /// # Panics
    ///
    /// Panics if the row is out of range.
    pub fn add_row(&mut self, row: usize, by: u64) {
        assert!(row < self.rows, "row out of range");
        for cell in &mut self.counts[row * self.cols..(row + 1) * self.cols] {
            *cell += by;
        }
    }
}

impl Mergeable for CountMatrix {
    type Output = CountMatrix;

    fn identity() -> Self {
        Self::default()
    }

    fn absorb(&mut self, other: &Self) {
        if other.counts.is_empty() {
            return;
        }
        if self.counts.is_empty() {
            *self = Self::zeros(other.rows, other.cols);
        }
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "CountMatrix dimensions must match"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    fn finalize(self) -> CountMatrix {
        self
    }
}

// ---------------------------------------------------------------------------
// Fixed-bin histogram
// ---------------------------------------------------------------------------

/// A histogram over fixed, pre-agreed bin edges.
///
/// Because the edges are part of the accumulator configuration (not derived
/// from the data), per-shard histograms merge exactly. Out-of-range values
/// are tracked in `below`/`above` so no observation is silently dropped.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FixedHistogram {
    /// Bin edges; bin `i` covers `[edges[i], edges[i+1])`.
    edges: Vec<f64>,
    counts: Vec<u64>,
    below: u64,
    above: u64,
}

impl FixedHistogram {
    /// A histogram over `edges` (ascending, at least two).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two edges are given or they are not strictly
    /// increasing.
    pub fn with_edges(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2, "need at least two edges");
        for pair in edges.windows(2) {
            assert!(pair[0] < pair[1], "edges must strictly increase");
        }
        let counts = vec![0; edges.len() - 1];
        Self {
            edges,
            counts,
            below: 0,
            above: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        if self.edges.is_empty() {
            // An identity histogram has no binning configuration; treat
            // everything as out of range below so the count is not lost.
            self.below += 1;
            return;
        }
        if value < self.edges[0] || value.is_nan() {
            self.below += 1;
        } else if value >= self.edges[self.edges.len() - 1] {
            self.above += 1;
        } else {
            let bin = self.edges.partition_point(|&e| e <= value) - 1;
            self.counts[bin] += 1;
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The bin edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Observations below the first edge (or NaN).
    pub fn below(&self) -> u64 {
        self.below
    }

    /// Observations at or above the last edge.
    pub fn above(&self) -> u64 {
        self.above
    }

    /// Total observations recorded, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.below + self.above + self.counts.iter().sum::<u64>()
    }
}

impl Mergeable for FixedHistogram {
    type Output = FixedHistogram;

    fn identity() -> Self {
        Self::default()
    }

    fn absorb(&mut self, other: &Self) {
        if other.edges.is_empty() && other.below == 0 && other.above == 0 {
            return;
        }
        if self.edges.is_empty() && self.below == 0 && self.above == 0 {
            *self = other.clone();
            return;
        }
        assert_eq!(self.edges, other.edges, "histogram edges must match");
        self.below += other.below;
        self.above += other.above;
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    fn finalize(self) -> FixedHistogram {
        self
    }
}

// ---------------------------------------------------------------------------
// Keyed samples / bounded reservoir
// ---------------------------------------------------------------------------

/// A deterministic bottom-k sample of keyed values.
///
/// Every observation carries a unique, totally ordered `key` (e.g. a global
/// event index) and a priority derived from it. The accumulator keeps the
/// `bound` observations with the smallest `(priority, key)`; because that
/// selection depends only on the set of observations, `absorb` is exactly
/// associative and commutative. `finalize` sorts the survivors by key,
/// restoring the monolithic iteration order.
///
/// With `bound >= n` nothing is evicted and the finalized vector equals the
/// monolithic collection exactly; [`KeyedSamples::unbounded`] pins that mode.
/// (Not serde-serializable: the vendored derive does not support generics.)
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedSamples<V> {
    bound: usize,
    seed: u64,
    /// `(priority, key, value)` triples, kept below `bound` in count.
    items: Vec<(u64, u64, V)>,
}

impl<V: Clone> KeyedSamples<V> {
    /// A reservoir keeping at most `bound` samples, with priorities derived
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn bounded(bound: usize, seed: u64) -> Self {
        assert!(bound > 0, "reservoir bound must be positive");
        Self {
            bound,
            seed,
            items: Vec::new(),
        }
    }

    /// A reservoir that never evicts: `finalize` returns every pushed value
    /// in key order, exactly as a monolithic pass would collect them.
    pub fn unbounded() -> Self {
        Self {
            bound: usize::MAX,
            seed: 0,
            items: Vec::new(),
        }
    }

    /// Records `value` under the unique `key`.
    pub fn push(&mut self, key: u64, value: V) {
        let priority = if self.bound == usize::MAX {
            0
        } else {
            splitmix(self.seed ^ key)
        };
        self.items.push((priority, key, value));
        if self.items.len() > self.bound.saturating_mul(2) {
            self.shrink();
        }
    }

    /// Number of currently retained samples.
    pub fn len(&self) -> usize {
        self.items.len().min(self.bound)
    }

    /// True when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn shrink(&mut self) {
        if self.items.len() > self.bound {
            self.items
                .sort_unstable_by_key(|&(priority, key, _)| (priority, key));
            self.items.truncate(self.bound);
        }
    }
}

impl<V: Clone> Mergeable for KeyedSamples<V> {
    type Output = Vec<V>;

    fn identity() -> Self {
        Self::unbounded()
    }

    fn absorb(&mut self, other: &Self) {
        if other.items.is_empty() && other.bound == usize::MAX {
            return;
        }
        if self.items.is_empty() && self.bound == usize::MAX && other.bound != usize::MAX {
            self.bound = other.bound;
            self.seed = other.seed;
        }
        assert!(
            self.bound == other.bound && (self.seed == other.seed || other.bound == usize::MAX),
            "reservoir configurations must match"
        );
        self.items.extend(other.items.iter().cloned());
        self.shrink();
    }

    fn finalize(mut self) -> Vec<V> {
        self.shrink();
        self.items.sort_unstable_by_key(|&(_, key, _)| key);
        self.items.into_iter().map(|(_, _, v)| v).collect()
    }
}

/// The splitmix64 finalizer: a bijective avalanche of the input.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_sum_is_grouping_independent() {
        let values = [1e16, 1.0, -1e16, 1e-8, 3.5, -7.25, 1e300, -1e300];
        let mut whole = ExactSum::new();
        for &v in &values {
            whole.push(v);
        }
        for split in 1..values.len() {
            let (a, b) = values.split_at(split);
            let mut left = ExactSum::new();
            let mut right = ExactSum::new();
            for &v in a {
                left.push(v);
            }
            for &v in b {
                right.push(v);
            }
            left.absorb(&right);
            assert_eq!(left.value().to_bits(), whole.value().to_bits());
        }
    }

    #[test]
    fn exact_sum_beats_naive_summation() {
        // Classic cancellation: naive summation loses the small term.
        let mut s = ExactSum::new();
        s.push(1e16);
        s.push(1.0);
        s.push(-1e16);
        assert_eq!(s.value(), 1.0);
    }

    #[test]
    fn fixed_histogram_bins_and_merges() {
        let mut a = FixedHistogram::with_edges(vec![0.0, 1.0, 2.0]);
        let mut b = FixedHistogram::with_edges(vec![0.0, 1.0, 2.0]);
        a.observe(0.5);
        a.observe(-1.0);
        b.observe(1.5);
        b.observe(7.0);
        b.observe(f64::NAN);
        a.absorb(&b);
        assert_eq!(a.counts(), &[1, 1]);
        assert_eq!(a.below(), 2);
        assert_eq!(a.above(), 1);
        assert_eq!(a.total(), 5);
    }

    #[test]
    fn keyed_samples_unbounded_restores_order() {
        let mut a = KeyedSamples::unbounded();
        let mut b = KeyedSamples::unbounded();
        b.push(1, "b");
        a.push(2, "c");
        a.push(0, "a");
        a.absorb(&b);
        assert_eq!(a.finalize(), vec!["a", "b", "c"]);
    }

    #[test]
    fn bounded_reservoir_matches_when_bound_covers_n() {
        let mut r = KeyedSamples::bounded(100, 7);
        for k in 0..50u64 {
            r.push(k, k * 10);
        }
        assert_eq!(r.finalize(), (0..50u64).map(|k| k * 10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_reservoir_is_partition_independent() {
        let keys: Vec<u64> = (0..200).collect();
        let whole = {
            let mut r = KeyedSamples::bounded(32, 42);
            for &k in &keys {
                r.push(k, k);
            }
            r.finalize()
        };
        let halved = {
            let mut left = KeyedSamples::bounded(32, 42);
            let mut right = KeyedSamples::bounded(32, 42);
            for &k in &keys[..71] {
                left.push(k, k);
            }
            for &k in &keys[71..] {
                right.push(k, k);
            }
            right.absorb(&left);
            right.finalize()
        };
        assert_eq!(whole, halved);
        assert_eq!(whole.len(), 32);
    }

    // ---- Mergeable laws: associativity, commutativity, identity ----------

    /// Checks absorb associativity/commutativity and identity neutrality,
    /// comparing accumulators through `canon` (the finalized statistic for
    /// types whose internal state is representation-dependent).
    fn law_check<M, K, FB, FC>(parts: &[Vec<f64>], build: FB, canon: FC)
    where
        M: Mergeable + Clone,
        K: PartialEq + std::fmt::Debug,
        FB: Fn(&[f64]) -> M,
        FC: Fn(&M) -> K,
    {
        let accs: Vec<M> = parts.iter().map(|p| build(p)).collect();
        if accs.len() < 3 {
            return;
        }
        let (a, b, c) = (&accs[0], &accs[1], &accs[2]);
        // Associativity: (a + b) + c == a + (b + c).
        let mut left = a.clone();
        left.absorb(b);
        left.absorb(c);
        let mut bc = b.clone();
        bc.absorb(c);
        let mut right = a.clone();
        right.absorb(&bc);
        assert_eq!(canon(&left), canon(&right), "absorb must be associative");
        // Commutativity: a + b == b + a.
        let mut ab = a.clone();
        ab.absorb(b);
        let mut ba = b.clone();
        ba.absorb(a);
        assert_eq!(canon(&ab), canon(&ba), "absorb must be commutative");
        // Identity: id + a == a.
        let mut id = M::identity();
        id.absorb(a);
        assert_eq!(canon(&id), canon(a), "identity must be neutral");
    }

    proptest! {
        #[test]
        fn exact_sum_laws(parts in prop::collection::vec(
            prop::collection::vec(-1e12f64..1e12, 0..20), 3..4))
        {
            law_check(&parts, |vals| {
                let mut s = ExactSum::new();
                for &v in vals { s.push(v); }
                s
            }, |s| s.value().to_bits());
        }

        #[test]
        fn counter_laws(parts in prop::collection::vec(
            prop::collection::vec(0.0f64..100.0, 0..20), 3..4))
        {
            law_check(&parts, |vals| Counter(vals.len() as u64), Clone::clone);
        }

        #[test]
        fn count_matrix_laws(parts in prop::collection::vec(
            prop::collection::vec(0.0f64..12.0, 0..20), 3..4))
        {
            law_check(&parts, |vals| {
                let mut m = CountMatrix::zeros(3, 4);
                for &v in vals { m.add(v as usize / 4, v as usize % 4, 1); }
                m
            }, Clone::clone);
        }

        #[test]
        fn fixed_histogram_laws(parts in prop::collection::vec(
            prop::collection::vec(-10.0f64..10.0, 0..20), 3..4))
        {
            law_check(&parts, |vals| {
                let mut h = FixedHistogram::with_edges(vec![0.0, 2.0, 5.0]);
                for &v in vals { h.observe(v); }
                h
            }, Clone::clone);
        }

        #[test]
        fn keyed_samples_laws(splits in prop::collection::vec(0usize..30, 3..4)) {
            // Build three disjoint key ranges so keys stay unique.
            let mut next = 0u64;
            let parts: Vec<Vec<f64>> = splits.iter().map(|&n| {
                let p: Vec<f64> = (0..n).map(|i| (next + i as u64) as f64).collect();
                next += n as u64;
                p
            }).collect();
            // Canonicalize state before comparing: retained sets are equal,
            // internal vector order may differ.
            fn canon(mut s: KeyedSamples<u64>) -> Vec<(u64, u64, u64)> {
                s.items.sort_unstable();
                s.items
            }
            let build = |vals: &[f64]| {
                let mut r = KeyedSamples::bounded(16, 9);
                for &v in vals { r.push(v as u64, v as u64); }
                r
            };
            let accs: Vec<KeyedSamples<u64>> = parts.iter().map(|p| build(p)).collect();
            let (a, b, c) = (&accs[0], &accs[1], &accs[2]);
            let mut left = a.clone();
            left.absorb(b);
            left.absorb(c);
            let mut bc = b.clone();
            bc.absorb(c);
            let mut right = a.clone();
            right.absorb(&bc);
            prop_assert_eq!(canon(left.clone()), canon(right), "associative");
            let mut ab = a.clone();
            ab.absorb(b);
            let mut ba = b.clone();
            ba.absorb(a);
            prop_assert_eq!(canon(ab), canon(ba), "commutative");
            // Unbounded reservoir over the same data finalizes to the full
            // key-ordered collection.
            let mut all = KeyedSamples::unbounded();
            for p in &parts {
                for &v in p {
                    all.push(v as u64, v as u64);
                }
            }
            let n = parts.iter().map(Vec::len).sum::<usize>();
            prop_assert_eq!(all.finalize().len(), n);
        }
    }

    #[test]
    fn counter_and_count_matrix_finalize() {
        let mut c = Counter::identity();
        c.absorb(&Counter(3));
        assert_eq!(c.finalize(), 3);
        let m = CountMatrix::zeros(2, 2);
        assert_eq!(m.finalize().get(1, 1), 0);
    }
}
