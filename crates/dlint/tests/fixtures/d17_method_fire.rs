//! D17 method fixture: a method only a test calls, although a field and a
//! local share its name.

/// A running total.
pub struct Total {
    count: u64,
}

impl Total {
    /// Called as `.add(` by `Default` below, so not flagged.
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Only the unit test calls `.count()`; the field and the local in
    /// `Default` share the name but are not callers.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Default for Total {
    fn default() -> Self {
        let count = 0;
        let mut total = Total { count };
        total.add(count);
        total
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_fresh_total_counts_nothing() {
        assert_eq!(super::Total::default().count(), 0);
    }
}
