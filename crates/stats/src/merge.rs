//! Mergeable streaming accumulators for out-of-core analysis.
//!
//! A [`Mergeable`] accumulator summarizes one shard of a dataset and can
//! absorb the accumulator of any other shard; the merged state is identical
//! no matter how the input was partitioned or in which order the parts were
//! absorbed. That contract — `absorb` is associative *and* commutative, and
//! `finalize` depends only on the merged state — is what lets
//! `dcfail-shard` compute the paper's figures one shard at a time while
//! staying bit-identical to the monolithic pipeline.

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
    #[inline]
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
        fn count_matrix_laws(parts in prop::collection::vec(
            prop::collection::vec(0.0f64..12.0, 0..20), 3..4))
        {
            law_check(&parts, |vals| {
                let mut m = CountMatrix::zeros(3, 4);
                for &v in vals { m.add(v as usize / 4, v as usize % 4, 1); }
                m
            }, Clone::clone);
        }
    }

    #[test]
    fn exact_sum_rounds_once() {
        // Ten copies of the double nearest 0.1 sum to 1.000...0555 exactly,
        // which rounds to 1.0; adding them one rounding at a time does not.
        let mut s = ExactSum::new();
        let mut naive = 0.0f64;
        for _ in 0..10 {
            s.push(0.1);
            naive += 0.1;
        }
        assert_eq!(s.value(), 1.0);
        assert_ne!(naive, 1.0);
        assert_eq!(ExactSum::new().value(), 0.0);
    }

    #[test]
    fn absorbing_the_identity_changes_nothing() {
        let mut s = ExactSum::new();
        s.push(2.5);
        s.push(-1e-9);
        let before = s.clone();
        s.absorb(&ExactSum::identity());
        assert_eq!(s, before);

        let mut m = CountMatrix::zeros(2, 3);
        m.add(1, 2, 5);
        let before = m.clone();
        m.absorb(&CountMatrix::identity());
        assert_eq!(m, before);
    }

    #[test]
    fn count_matrix_add_row_matches_per_cell_adds() {
        let mut bulk = CountMatrix::zeros(3, 4);
        let mut cells = CountMatrix::zeros(3, 4);
        bulk.add_row(1, 7);
        for col in 0..cells.cols() {
            cells.add(1, col, 7);
        }
        assert_eq!(bulk, cells);
        assert_eq!((bulk.rows, bulk.cols()), (3, 4));
        assert_eq!(bulk.get(0, 0) + bulk.get(2, 3), 0, "other rows untouched");
    }

    #[test]
    #[should_panic(expected = "CountMatrix dimensions must match")]
    fn count_matrix_rejects_a_differently_shaped_shard() {
        let mut a = CountMatrix::zeros(2, 3);
        a.add(0, 0, 1);
        let mut b = CountMatrix::zeros(3, 2);
        b.add(0, 0, 1);
        a.absorb(&b);
    }

    #[test]
    fn count_matrix_finalize() {
        let m = CountMatrix::zeros(2, 2);
        assert_eq!(m.finalize().get(1, 1), 0);
    }
}
