//! D17 twin: the same test-only function, justified inline.

/// Called by `yearly` below, so not flagged.
pub fn weekly(events: u64) -> u64 {
    events / 52
}

/// Only the unit test calls this one.
// dlint::allow(D17): fixture models an oracle an integration test must reach
pub fn yearly(events: u64) -> u64 {
    weekly(events) * 52
}

#[cfg(test)]
mod tests {
    #[test]
    fn yearly_rounds_down_to_whole_weeks() {
        assert_eq!(super::yearly(105), 104);
    }
}
