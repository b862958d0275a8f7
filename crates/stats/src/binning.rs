//! Attribute binning.
//!
//! The rate-vs-attribute figures (Figs. 7–10) group machines by ranges of a
//! capacity or usage attribute and then compute the weekly failure rate per
//! group. [`Bins`] defines the grouping.

use serde::{Deserialize, Serialize};

/// A partition of an attribute axis into labelled bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bins {
    /// Bin edges; bin `i` covers `[edges[i], edges[i+1])`. The last bin is
    /// closed on the right when `closed_last` is set.
    edges: Vec<f64>,
    labels: Vec<String>,
    closed_last: bool,
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
        Self {
            edges,
            labels,
            closed_last: true,
        }
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
        Self {
            edges,
            labels,
            closed_last: false,
        }
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
        Self {
            edges,
            labels,
            closed_last: false,
        }
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
    pub fn index_of(&self, x: f64) -> Option<usize> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
