//! D17 path twin: the same test-only associated function, justified inline.

/// Counts kept one per entry.
pub struct Tally(Vec<u64>);

impl Tally {
    /// Called as `Self::zero` by `Default` below, so not flagged.
    pub fn zero() -> Self {
        Tally(Vec::new())
    }

    /// Only the unit test calls `Tally::new`.
    // dlint::allow(D17): fixture models an oracle an integration test must reach
    pub fn new(start: u64) -> Self {
        Tally(vec![start])
    }
}

impl Default for Tally {
    fn default() -> Self {
        Self::zero()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn new_keeps_its_argument() {
        assert_eq!(super::Tally::new(3).0, [3]);
    }
}
