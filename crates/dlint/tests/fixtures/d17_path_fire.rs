//! D17 path fixture: an associated function only a test calls by path,
//! although a same-named function has a caller.

/// Counts kept one per entry.
pub struct Tally(Vec<u64>);

impl Tally {
    /// Called as `Self::zero` by `Default` below, so not flagged.
    pub fn zero() -> Self {
        Tally(Vec::new())
    }

    /// Only the unit test calls `Tally::new`; `Vec::new` above shares the
    /// name but is not a caller.
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
