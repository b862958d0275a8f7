//! Attribute binning.
//!
//! The rate-vs-attribute figures (Figs. 7–10) group machines by ranges of a
//! capacity or usage attribute and then compute the weekly failure rate per
//! group. [`Bins`] defines the grouping.
//!
//! [`Bins::index_of`] is the one bin lookup. Bins whose finite edges are all
//! nonnegative integers answer it from a table indexed by ⌊x⌋, built once at
//! construction: an integer edge never splits a unit interval `[n, n + 1)`,
//! so every value in it has the bin of `n`, and the table is exact. Every
//! other value, and every other set of bins, takes the edge search.

/// A partition of an attribute axis into labelled bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Bins {
    /// Bin edges; bin `i` covers `[edges[i], edges[i+1])`. The last bin is
    /// closed on the right when `closed_last` is set.
    edges: Vec<f64>,
    labels: Vec<String>,
    closed_last: bool,
    /// The bin of every unit interval between the first and the last finite
    /// edge, when those edges are nonnegative integers.
    table: Option<UnitTable>,
}

/// The bin of each unit interval `[origin + i, origin + i + 1)` below the
/// last finite edge, for bins whose finite edges are all nonnegative
/// integers; `origin` is the first edge.
#[derive(Debug, Clone, PartialEq)]
struct UnitTable {
    origin: i64,
    bins: Vec<u8>,
}

/// Widest integer span a [`UnitTable`] covers: one byte per unit interval.
const MAX_TABLE_SPAN: f64 = 65_536.0;

/// Largest edge a [`UnitTable`] may have: every integer up to it is an
/// `f64`.
const MAX_TABLE_EDGE: f64 = 9_007_199_254_740_992.0; // 2^53

impl UnitTable {
    /// The table of `bins`, or `None` when a finite edge is not an integer,
    /// the first edge is negative, the last finite one is past 2^53, the
    /// span between them is empty or over [`MAX_TABLE_SPAN`], or there are
    /// 255 bins or more.
    fn of(bins: &Bins) -> Option<Self> {
        let edges = &bins.edges;
        let first = edges[0];
        let end = edges
            .iter()
            .rev()
            .copied()
            .find(|e| e.is_finite())
            .unwrap_or(first);
        let span = end - first;
        if bins.len() >= usize::from(u8::MAX)
            || first < 0.0
            || end > MAX_TABLE_EDGE
            || !(1.0..=MAX_TABLE_SPAN).contains(&span)
            || edges.iter().any(|e| e.is_finite() && e.fract() != 0.0)
        {
            return None;
        }
        let origin = first as i64;
        let table = (origin..end as i64)
            .map(|n| {
                let bin = bins.search(n as f64);
                bin.expect("a unit interval below the last finite edge has a bin") as u8
            })
            .collect();
        Some(Self {
            origin,
            bins: table,
        })
    }
}

impl Bins {
    /// Creates bins from explicit edges. Bin `i` covers
    /// `[edges[i], edges[i+1])`; the last bin also includes its right edge.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 edges are given or edges are not strictly
    /// increasing.
    pub fn from_edges(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2, "need at least two edges");
        for pair in edges.windows(2) {
            assert!(pair[0] < pair[1], "edges must strictly increase");
        }
        let labels = edges
            .windows(2)
            .map(|pair| format!("{}-{}", trim_float(pair[0]), trim_float(pair[1])))
            .collect();
        Self::new(edges, labels, true)
    }

    /// Bins from explicit finite edges whose last bin is right-unbounded:
    /// bin `i` covers `[edges[i], edges[i+1])` and the final bin covers
    /// `[edges.last(), ∞)`, so every finite non-NaN value at or above the
    /// first edge maps to a bin. Generated labels end in `"{last}+"`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 edges are given, edges are not strictly
    /// increasing, or any edge is non-finite.
    pub fn open_last(edges: Vec<f64>) -> Self {
        assert!(edges.len() >= 2, "need at least two edges");
        for pair in edges.windows(2) {
            assert!(pair[0] < pair[1], "edges must strictly increase");
        }
        assert!(
            edges.iter().all(|e| e.is_finite()),
            "open_last edges must be finite"
        );
        let mut labels: Vec<String> = edges
            .windows(2)
            .map(|pair| format!("{}-{}", trim_float(pair[0]), trim_float(pair[1])))
            .collect();
        labels.push(format!("{}+", trim_float(edges[edges.len() - 1])));
        let mut edges = edges;
        edges.push(f64::INFINITY);
        Self::new(edges, labels, false)
    }

    /// `n` equal-width bins over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `lo >= hi`.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0, "need at least one bin");
        assert!(lo < hi, "range must be non-empty");
        let edges = (0..=n)
            .map(|i| lo + (hi - lo) * i as f64 / n as f64)
            .collect();
        Self::from_edges(edges)
    }

    /// Power-of-two bins: edges at `2^lo_exp, 2^(lo_exp+1), ..., 2^hi_exp`.
    ///
    /// # Panics
    ///
    /// Panics if `lo_exp >= hi_exp`.
    pub fn log2(lo_exp: i32, hi_exp: i32) -> Self {
        assert!(lo_exp < hi_exp, "need at least one octave");
        let edges = (lo_exp..=hi_exp).map(|e| 2f64.powi(e)).collect();
        Self::from_edges(edges)
    }

    /// Discrete bins anchored at representative values: a sample maps to the
    /// largest representative ≤ its value. Labels are the representatives
    /// themselves ("1", "2", "4", ...), matching the paper's x-axes for CPU
    /// counts and disk counts.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 1 representative is given or they are not
    /// strictly increasing.
    pub fn discrete(representatives: &[f64]) -> Self {
        assert!(!representatives.is_empty(), "need at least one value");
        for pair in representatives.windows(2) {
            assert!(pair[0] < pair[1], "representatives must strictly increase");
        }
        let mut edges: Vec<f64> = representatives.to_vec();
        edges.push(f64::INFINITY);
        let labels = representatives.iter().map(|&v| trim_float(v)).collect();
        Self::new(edges, labels, false)
    }

    /// Bins over checked edges, with their unit table when they have one.
    fn new(edges: Vec<f64>, labels: Vec<String>, closed_last: bool) -> Self {
        let mut bins = Self {
            edges,
            labels,
            closed_last,
            table: None,
        };
        bins.table = UnitTable::of(&bins);
        bins
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when there are no bins (cannot happen via constructors).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The bin index of `x`, or `None` if out of range.
    #[inline]
    pub fn index_of(&self, x: f64) -> Option<usize> {
        if let Some(table) = &self.table {
            // From the first edge on, `x >= 0`, so `x as i64` is ⌊x⌋ (it
            // saturates past 2^63); at or past the last finite edge the
            // index is past the table. NaN fails the comparison.
            if x >= self.edges[0] {
                if let Some(&bin) = table.bins.get((x as i64 - table.origin) as usize) {
                    return Some(usize::from(bin));
                }
            }
        }
        self.search(x)
    }

    /// The edge search behind [`Self::index_of`].
    fn search(&self, x: f64) -> Option<usize> {
        if x.is_nan() || x < self.edges[0] {
            return None;
        }
        let last = self.edges[self.edges.len() - 1];
        if x > last || (x == last && !self.closed_last) {
            return None;
        }
        if x == last {
            return Some(self.len() - 1);
        }
        // partition_point: first edge > x; minus one gives the bin.
        Some(self.edges.partition_point(|&e| e <= x) - 1)
    }

    /// Label of bin `i`.
    pub fn label(&self, i: usize) -> &str {
        &self.labels[i]
    }

    /// All labels in order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Replaces the generated labels (e.g. `"≤4GB"`).
    ///
    /// # Panics
    ///
    /// Panics if the label count does not match the bin count.
    #[must_use]
    pub fn with_labels(mut self, labels: Vec<String>) -> Self {
        assert_eq!(labels.len(), self.len(), "label count must match bin count");
        self.labels = labels;
        self
    }
}

fn trim_float(v: f64) -> String {
    if v.is_infinite() {
        return "inf".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The edge search as it stood before the unit table: the oracle both of
/// [`Bins::index_of`]'s paths are held to.
#[cfg(test)]
mod oracle {
    use super::Bins;

    pub fn index_of(bins: &Bins, x: f64) -> Option<usize> {
        if x.is_nan() || x < bins.edges[0] {
            return None;
        }
        let last = bins.edges[bins.edges.len() - 1];
        if x > last || (x == last && !bins.closed_last) {
            return None;
        }
        if x == last {
            return Some(bins.len() - 1);
        }
        Some(bins.edges.partition_point(|&e| e <= x) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StreamRng;
    use proptest::prelude::*;

    /// The bins of every Fig. 7–10 panel, built as `dcfail-core`'s `PANELS`
    /// table builds them (this crate sits below that one), in table order.
    fn panel_bins() -> Vec<Bins> {
        let percent = || Bins::linear(0.0, 100.0, 10);
        vec![
            Bins::discrete(&[1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 64.0]),
            Bins::discrete(&[1.0, 2.0, 4.0, 8.0]),
            Bins::discrete(&[2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]),
            Bins::discrete(&[0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            Bins::discrete(&[
                8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
            ]),
            Bins::discrete(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            percent(),
            percent(),
            percent(),
            percent(),
            percent(),
            Bins::log2(1, 13),
            Bins::open_last(vec![1.0, 1.5, 3.0, 6.0, 12.0, 24.0]),
            Bins::open_last(vec![0.0, 1.0, 2.0, 4.0, 8.0]),
        ]
    }

    /// Values that can sit on either side of a bin boundary: every edge and
    /// its neighbouring floats, the integers around and between the edges
    /// (with their neighbours and midpoints), and the special values.
    fn probes(bins: &Bins, rng: &mut StreamRng) -> Vec<f64> {
        let tiny = f64::from_bits(1);
        let mut xs = vec![
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            tiny,
            -tiny,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
        ];
        let finite: Vec<f64> = bins
            .edges
            .iter()
            .copied()
            .filter(|e| e.is_finite())
            .collect();
        for &e in &finite {
            xs.extend([e, e.next_up(), e.next_down()]);
        }
        let (lo, hi) = (finite[0], finite[finite.len() - 1]);
        let mut integers = Vec::new();
        if hi - lo <= 2_000.0 {
            let mut n = (lo - 2.0).floor();
            while n <= hi + 2.0 {
                integers.push(n);
                n += 1.0;
            }
        } else {
            integers.extend((0..400).map(|_| rng.uniform_in(lo - 2.0, hi + 2.0).floor()));
        }
        for n in integers {
            xs.extend([n, n.next_up(), n.next_down(), n + 0.5]);
        }
        xs.extend((0..64).map(|_| rng.uniform_in(lo - 1.0, hi + 1.0)));
        xs
    }

    fn assert_matches_oracle(bins: &Bins, rng: &mut StreamRng) {
        for x in probes(bins, rng) {
            assert_eq!(
                bins.index_of(x),
                oracle::index_of(bins, x),
                "x = {x:e} ({:#x}) in {bins:?}",
                x.to_bits()
            );
        }
    }

    /// Strictly increasing values: integers in `[lo, lo + range)` or, when
    /// `integral` is false, arbitrary floats over the same range.
    fn increasing(n: usize, lo: i64, range: i64, integral: bool, rng: &mut StreamRng) -> Vec<f64> {
        let mut values: Vec<f64> = (0..n)
            .map(|_| {
                let v = lo as f64 + rng.uniform() * range as f64;
                if integral {
                    v.floor()
                } else {
                    v
                }
            })
            .collect();
        values.sort_by(f64::total_cmp);
        values.dedup();
        if values.len() < 2 {
            values = vec![lo as f64, (lo + range.max(1)) as f64];
        }
        values
    }

    /// Arbitrary bins of every constructor, with integer edges (the table
    /// path, or the search past its limits) and fractional ones.
    fn arbitrary_bins(rng: &mut StreamRng) -> Bins {
        let integral = rng.below(4) != 0;
        // Mostly spans a table covers; some past 65,536.
        let range = [10, 300, 5_000, 70_000, 200_000][rng.below(5)];
        // Mostly nonnegative, as a table needs.
        let lo = rng.below(400) as i64 - if rng.below(4) == 0 { 300 } else { 0 };
        let n = 2 + rng.below(12);
        match rng.below(5) {
            0 => Bins::from_edges(increasing(n, lo, range, integral, rng)),
            1 => Bins::open_last(increasing(n, lo, range, integral, rng)),
            2 => {
                let mut reps = increasing(n, lo, range, integral, rng);
                reps.truncate(1 + rng.below(reps.len()));
                Bins::discrete(&reps)
            }
            3 => {
                // Up to 300 bins: integer edges when the width is.
                let bins = 1 + rng.below(300);
                let width = if integral {
                    (1 + rng.below(5)) as f64
                } else {
                    0.1 + rng.uniform()
                };
                Bins::linear(lo as f64, lo as f64 + width * bins as f64, bins)
            }
            _ => {
                let lo_exp = rng.below(24) as i32 - 6;
                Bins::log2(lo_exp, lo_exp + 1 + rng.below(14) as i32)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// `index_of` equals the edge search on arbitrary bins of every
        /// constructor, at every edge, its neighbours, the integers around
        /// and between the edges, and the special values.
        fn index_of_matches_the_edge_search(seed in 0u64..1_000_000) {
            let mut rng = StreamRng::new(seed);
            let bins = arbitrary_bins(&mut rng);
            assert_matches_oracle(&bins, &mut rng);
        }
    }

    #[test]
    fn panel_bins_match_the_edge_search() {
        let mut rng = StreamRng::new(26);
        for bins in panel_bins() {
            assert_matches_oracle(&bins, &mut rng);
        }
    }

    #[test]
    fn integer_edges_get_a_table_within_its_limits() {
        let tabled: Vec<bool> = panel_bins().iter().map(|b| b.table.is_some()).collect();
        // Fig. 7b VM memory (0.25, 0.5) and Fig. 9 (1.5) keep the search.
        let expected = [
            true, true, true, false, true, true, true, true, true, true, true, true, false, true,
        ];
        assert_eq!(tabled, expected);
        // Fig. 8d spans 2–8192 Kbps: 8,190 unit intervals.
        assert_eq!(Bins::log2(1, 13).table.map(|t| t.bins.len()), Some(8_190));
        assert!(Bins::linear(0.0, 254.0, 254).table.is_some());
        assert!(Bins::linear(0.0, 255.0, 255).table.is_none(), "255 bins");
        assert!(Bins::from_edges(vec![0.0, 65_536.0]).table.is_some());
        assert!(
            Bins::from_edges(vec![0.0, 65_537.0]).table.is_none(),
            "span"
        );
        assert!(Bins::discrete(&[5.0]).table.is_none(), "no finite span");
        assert!(Bins::from_edges(vec![-4.0, -1.0, 3.0]).table.is_none());
        let top = 9_007_199_254_740_992.0; // 2^53
        assert!(Bins::from_edges(vec![top - 8.0, top]).table.is_some());
        assert!(Bins::from_edges(vec![top, top + 2.0]).table.is_none());
    }

    #[test]
    fn from_edges_maps_correctly() {
        let b = Bins::from_edges(vec![0.0, 10.0, 20.0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.index_of(-0.1), None);
        assert_eq!(b.index_of(0.0), Some(0));
        assert_eq!(b.index_of(9.99), Some(0));
        assert_eq!(b.index_of(10.0), Some(1));
        assert_eq!(b.index_of(20.0), Some(1)); // last bin closed
        assert_eq!(b.index_of(20.01), None);
        assert_eq!(b.index_of(f64::NAN), None);
        assert_eq!(b.label(0), "0-10");
    }

    #[test]
    fn linear_bins() {
        let b = Bins::linear(0.0, 100.0, 10);
        assert_eq!(b.len(), 10);
        assert_eq!(b.index_of(55.0), Some(5));
        assert_eq!(b.index_of(100.0), Some(9));
    }

    #[test]
    fn log2_bins() {
        let b = Bins::log2(0, 3); // [1,2), [2,4), [4,8]
        assert_eq!(b.len(), 3);
        assert_eq!(b.index_of(1.0), Some(0));
        assert_eq!(b.index_of(3.0), Some(1));
        assert_eq!(b.index_of(8.0), Some(2));
        assert_eq!(b.index_of(0.5), None);
        assert_eq!(b.label(2), "4-8");
    }

    #[test]
    fn discrete_bins() {
        let b = Bins::discrete(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!(b.len(), 4);
        assert_eq!(b.index_of(1.0), Some(0));
        assert_eq!(b.index_of(2.0), Some(1));
        assert_eq!(b.index_of(3.0), Some(1));
        assert_eq!(b.index_of(4.0), Some(2));
        assert_eq!(b.index_of(100.0), Some(3)); // open-ended top
        assert_eq!(b.index_of(0.5), None);
        assert_eq!(b.label(1), "2");
    }

    #[test]
    fn open_last_bins() {
        let b = Bins::open_last(vec![0.0, 1.0, 2.0, 4.0, 8.0]);
        assert_eq!(b.len(), 5);
        assert_eq!(b.index_of(-0.1), None);
        assert_eq!(b.index_of(0.0), Some(0));
        assert_eq!(b.index_of(7.99), Some(3));
        assert_eq!(b.index_of(8.0), Some(4));
        assert_eq!(b.index_of(64.0), Some(4));
        assert_eq!(b.index_of(1e300), Some(4)); // no silent top-end drop
        assert_eq!(b.index_of(f64::NAN), None);
        assert_eq!(b.label(3), "4-8");
        assert_eq!(b.label(4), "8+");
        assert_eq!(Bins::from_edges(vec![0.0, 1.0]).index_of(f64::MAX), None);
        assert_eq!(Bins::discrete(&[1.0, 2.0]).index_of(f64::MAX), Some(1));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn open_last_rejects_infinite_edges() {
        let _ = Bins::open_last(vec![0.0, f64::INFINITY]);
    }

    #[test]
    fn custom_labels() {
        let b = Bins::linear(0.0, 2.0, 2).with_labels(vec!["low".into(), "high".into()]);
        assert_eq!(b.labels(), &["low".to_string(), "high".to_string()]);
        assert!(!b.is_empty());
    }

    #[test]
    #[should_panic(expected = "label count")]
    fn wrong_label_count_rejected() {
        let _ = Bins::linear(0.0, 2.0, 2).with_labels(vec!["only-one".into()]);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn unsorted_edges_rejected() {
        let _ = Bins::from_edges(vec![0.0, 2.0, 1.0]);
    }
}
