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

/// Binades in one [`ExactSum::extend`] window, centred on the first binned
/// value's binade: one `i64` bin each.
const BIN_WINDOW: u64 = 64;

/// Binned values between flushes. 1,024 signed 53-bit significands sum to
/// less than 2^63 in magnitude, so no bin overflows.
const FLUSH_EVERY: usize = 1024;

/// The highest biased exponent that bins: a bin of that binade still
/// splits into two finite doubles.
const MAX_BINNED_EXPONENT: u64 = 2035;

/// `2^k` for `k` in `-1074..=1023`, subnormal below `-1022`.
fn pow2(k: i64) -> f64 {
    if k >= -1022 {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else {
        f64::from_bits(1 << (k + 1074))
    }
}

impl Extend<f64> for ExactSum {
    /// Adds every value exactly: the exact sum, and so
    /// [`ExactSum::value`], is what one [`ExactSum::push`] per value gives.
    ///
    /// A finite normal value whose binade lies in the window adds its
    /// signed significand to its binade's integer bin. Every 1,024 binned
    /// values, and at the end, each touched bin goes into the expansion as
    /// two exact doubles, zero bins included, so a zero sum rounds as `push`
    /// rounds it. Every other value (±0.0, subnormal, non-finite, or outside
    /// the window) takes `push`.
    fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        let mut bins = [0i64; BIN_WINDOW as usize];
        let mut touched = 0u64;
        // The window's lowest biased exponent; 0 until a value bins.
        let mut low = 0;
        let mut pending = 0;
        for x in values {
            let bits = x.to_bits();
            let exponent = (bits >> 52) & 0x7ff;
            let binnable = exponent != 0 && exponent <= MAX_BINNED_EXPONENT;
            if binnable && low == 0 {
                low = exponent.saturating_sub(BIN_WINDOW / 2).max(1);
            }
            let slot = exponent.wrapping_sub(low);
            if !binnable || slot >= BIN_WINDOW {
                self.push(x);
                continue;
            }
            let significand = ((bits & ((1 << 52) - 1)) | (1 << 52)) as i64;
            bins[slot as usize] += if bits >> 63 == 0 {
                significand
            } else {
                -significand
            };
            touched |= 1 << slot;
            pending += 1;
            if pending == FLUSH_EVERY {
                self.flush(&mut bins, &mut touched, low);
                pending = 0;
            }
        }
        self.flush(&mut bins, &mut touched, low);
    }
}

impl ExactSum {
    /// Pushes each touched bin of a window starting at biased exponent
    /// `low`, as its high and low 32 bits scaled to its binade, both exact,
    /// and clears it.
    fn flush(&mut self, bins: &mut [i64], touched: &mut u64, low: u64) {
        while *touched != 0 {
            let slot = touched.trailing_zeros() as usize;
            *touched &= *touched - 1;
            let bin = std::mem::take(&mut bins[slot]);
            // The bin counts units of 2^(exponent - 1075).
            let unit = (low + slot as u64) as i64 - 1075;
            self.push((bin >> 32) as f64 * pow2(unit + 32));
            self.push((bin & 0xffff_ffff) as f64 * pow2(unit));
        }
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

    /// One sum per value, the reference [`ExactSum::extend`] is held to.
    fn pushed(values: &[f64]) -> ExactSum {
        let mut sum = ExactSum::new();
        for &v in values {
            sum.push(v);
        }
        sum
    }

    fn extended(values: &[f64]) -> ExactSum {
        let mut sum = ExactSum::new();
        sum.extend(values.iter().copied());
        sum
    }

    /// Same bits, or both NaN: which NaN an arithmetic step yields is the
    /// hardware's choice.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Finite values drawn from random words, most in a crowded run of
    /// binades near 1 so that they bin and flush, the rest the cases the
    /// batched add must leave to `push` or cancel exactly: ±0.0,
    /// subnormals, all-ones significands, the negation of an earlier value,
    /// and binades across the whole exponent range, up to four above the
    /// binned ones. Fewer than 2^12 values stay under 2^1020 in sum, so no
    /// partial sum overflows.
    fn draw(words: &[u64]) -> Vec<f64> {
        let mut values: Vec<f64> = Vec::with_capacity(words.len());
        let mut huge = 0;
        for &w in words {
            let sign = w & (1 << 63);
            let mantissa = (w >> 8) & ((1 << 52) - 1);
            let pick = w >> 4;
            let bits = match w % 16 {
                0 => sign,
                1 => sign | mantissa,
                2 if !values.is_empty() => {
                    let earlier = values[pick as usize % values.len()];
                    (-earlier).to_bits()
                }
                3 => sign | (1023 << 52) | ((1 << 52) - 1),
                5 if huge < 4 => {
                    huge += 1;
                    sign | ((2036 + pick % 3) << 52) | mantissa
                }
                4 | 5 => sign | ((1 + pick % 2030) << 52) | mantissa,
                _ => sign | ((1020 + pick % 8) << 52) | mantissa,
            };
            values.push(f64::from_bits(bits));
        }
        values
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The batched add gives `push`'s bits over the whole exponent
        /// range, whole or split at a random point and absorbed.
        fn extend_matches_push(
            words in prop::collection::vec(any::<u64>(), 0..2600),
            cut in any::<u64>(),
        ) {
            let values = draw(&words);
            let want = pushed(&values).value();
            let got = extended(&values).value();
            prop_assert!(same(got, want), "{got:e} != {want:e} over {} values", values.len());
            let (a, b) = values.split_at(cut as usize % (values.len() + 1));
            let mut split = extended(a);
            split.absorb(&extended(b));
            let got = split.value();
            prop_assert!(same(got, want), "split at {}: {got:e} != {want:e}", a.len());
        }
    }

    #[test]
    fn extend_rounds_a_zero_sum_as_push_does() {
        for values in [
            &[][..],
            &[-0.0],
            &[-0.0, -0.0],
            &[0.0, -0.0],
            &[-0.0, 5.0, -5.0],
            &[5.0, -0.0, -5.0],
            &[1e-310, -0.0, -1e-310],
        ] {
            let (got, want) = (extended(values).value(), pushed(values).value());
            assert_eq!(got.to_bits(), want.to_bits(), "{values:?}: {got} != {want}");
        }
        assert_eq!(
            extended(&[-0.0, 5.0, -5.0]).value().to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn extend_flushes_before_a_bin_overflows() {
        // 2^53 − 1 units per value: 1,024 fit an `i64` bin, 2,048 do not.
        let all_ones = f64::from_bits((1023 << 52) | ((1 << 52) - 1));
        for (n, sign) in [(1025, 1.0), (3000, 1.0), (3000, -1.0)] {
            let values = vec![sign * all_ones; n];
            let (got, want) = (extended(&values).value(), pushed(&values).value());
            assert_eq!(got.to_bits(), want.to_bits(), "{n} x {}", sign * all_ones);
        }
    }

    #[test]
    fn extend_meets_nan_and_infinities_as_push_does() {
        let inf = f64::INFINITY;
        for values in [
            &[inf][..],
            &[-inf],
            &[f64::NAN],
            &[1.0, inf],
            &[inf, 1.0],
            &[inf, -inf],
            &[-inf, -inf],
            &[5.0, -5.0, inf],
            &[inf, 5.0, -5.0],
            &[-0.0, -inf],
            &[1e-310, inf],
            &[1.5, f64::NAN, 2.5],
        ] {
            let (got, want) = (extended(values).value(), pushed(values).value());
            assert!(same(got, want), "{values:?}: {got} != {want}");
        }
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
