//! Simulation time.
//!
//! The study is driven by three clocks with very different granularities —
//! 15-minute resource samples, event-timestamped tickets and weekly/monthly
//! rollups. We unify them on a single minute-resolution signed timeline.
//!
//! `t = 0` is the start of the one-year observation window (the paper's July
//! 2012). Negative times are meaningful: VM creation dates reach back up to
//! one more year (the monitoring database keeps two years of records).
//!
//! The observation year is modelled as exactly 52 weeks = 364 days so that
//! day/week bucketing is exact; a "month" is a 28-day window (13 per year),
//! used both for month-bucketing and for "within a month" recurrence windows.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// One minute, the base tick of the simulation clock.
pub const MINUTE: SimDuration = SimDuration::from_minutes(1);
/// One hour.
pub const HOUR: SimDuration = SimDuration::from_minutes(60);
/// One day.
pub const DAY: SimDuration = SimDuration::from_minutes(24 * 60);
/// One week.
pub const WEEK: SimDuration = SimDuration::from_minutes(7 * 24 * 60);
/// One model month (28 days; 13 per observation year).
pub const MONTH: SimDuration = SimDuration::from_minutes(28 * 24 * 60);
/// The one-year observation window (exactly 52 weeks).
pub const YEAR: SimDuration = SimDuration::from_minutes(364 * 24 * 60);

/// An instant on the simulation timeline, in minutes relative to the start of
/// the observation window. May be negative (before observation started).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(i64);

/// A span of simulation time in minutes. Always representable as `i64`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(i64);

impl SimTime {
    /// The observation-window origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from minutes since the observation start.
    pub const fn from_minutes(minutes: i64) -> Self {
        Self(minutes)
    }

    /// Creates an instant from whole days since the observation start.
    pub const fn from_days(days: i64) -> Self {
        Self(days * 24 * 60)
    }

    /// Minutes since the observation start.
    pub const fn as_minutes(self) -> i64 {
        self.0
    }

    /// Fractional days since the observation start.
    pub fn as_days(self) -> f64 {
        self.0 as f64 / (24.0 * 60.0)
    }

    /// Fractional hours since the observation start.
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / 60.0
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from minutes.
    ///
    /// Negative inputs are permitted so that arithmetic composes; analyses
    /// treat negative durations as data errors.
    pub const fn from_minutes(minutes: i64) -> Self {
        Self(minutes)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: i64) -> Self {
        Self(hours * 60)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: i64) -> Self {
        Self(days * 24 * 60)
    }

    /// Creates a duration from fractional hours.
    pub fn from_hours_f64(hours: f64) -> Self {
        Self((hours * 60.0).round() as i64)
    }

    /// The duration in minutes.
    pub const fn as_minutes(self) -> i64 {
        self.0
    }

    /// The duration in fractional hours.
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / 60.0
    }

    /// The duration in fractional days.
    pub fn as_days(self) -> f64 {
        self.0 as f64 / (24.0 * 60.0)
    }

    /// The duration in fractional weeks.
    pub fn as_weeks(self) -> f64 {
        self.0 as f64 / (7.0 * 24.0 * 60.0)
    }

    /// True when the duration is negative (indicates malformed data).
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign<SimDuration> for SimTime {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<i64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: i64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<i64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: i64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.2}d", self.as_days())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= DAY.0 {
            write!(f, "{:.2}d", self.as_days())
        } else if self.0.abs() >= HOUR.0 {
            write!(f, "{:.2}h", self.as_hours())
        } else {
            write!(f, "{}min", self.0)
        }
    }
}

/// The observation window of a study: `[start, end)`.
///
/// The paper observes one year (July 2012 – June 2013); telemetry reaches two
/// years back. `Horizon` carries both bounds so analyses can clamp correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Horizon {
    start: SimTime,
    end: SimTime,
}

impl Horizon {
    /// Creates a horizon.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(end > start, "horizon end must be after start");
        Self { start, end }
    }

    /// The paper's setup: one observation year starting at `t = 0`.
    pub fn observation_year() -> Self {
        Self::new(SimTime::ZERO, SimTime::ZERO + YEAR)
    }

    /// Window start (inclusive).
    pub const fn start(self) -> SimTime {
        self.start
    }

    /// Window end (exclusive).
    pub const fn end(self) -> SimTime {
        self.end
    }

    /// Window length.
    pub fn len(self) -> SimDuration {
        self.end - self.start
    }

    /// Number of whole weeks in the window (rounded up).
    pub fn num_weeks(self) -> usize {
        self.len().as_weeks().ceil() as usize
    }

    /// Number of whole days in the window (rounded up).
    pub fn num_days(self) -> usize {
        self.len().as_days().ceil() as usize
    }

    /// Number of whole 28-day months in the window (rounded up).
    pub fn num_months(self) -> usize {
        (self.len().as_days() / 28.0).ceil() as usize
    }

    /// True when `t` falls inside `[start, end)`.
    pub fn contains(self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Week bucket of `t` relative to the window start, or `None` if outside.
    pub fn week_of(self, t: SimTime) -> Option<usize> {
        if !self.contains(t) {
            return None;
        }
        Some((t - self.start).as_minutes() as usize / WEEK.as_minutes() as usize)
    }

    /// Day bucket of `t` relative to the window start, or `None` if outside.
    pub fn day_of(self, t: SimTime) -> Option<usize> {
        if !self.contains(t) {
            return None;
        }
        Some((t - self.start).as_minutes() as usize / DAY.as_minutes() as usize)
    }

    /// Month bucket of `t` relative to the window start, or `None` if outside.
    pub fn month_of(self, t: SimTime) -> Option<usize> {
        if !self.contains(t) {
            return None;
        }
        Some((t - self.start).as_minutes() as usize / MONTH.as_minutes() as usize)
    }
}

impl Default for Horizon {
    fn default() -> Self {
        Self::observation_year()
    }
}

impl fmt::Display for Horizon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(HOUR.as_minutes(), 60);
        assert_eq!(DAY.as_minutes(), 1440);
        assert_eq!(WEEK.as_minutes(), 7 * 1440);
        assert_eq!(MONTH.as_minutes(), 28 * 1440);
        assert_eq!(YEAR.as_minutes(), 52 * WEEK.as_minutes());
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_days(10);
        let u = t + HOUR * 5;
        assert_eq!((u - t).as_hours(), 5.0);
        let mut v = u;
        v -= HOUR;
        assert_eq!((v - t).as_hours(), 4.0);
        v += DAY;
        assert_eq!((v - t).as_days(), 1.0 + 4.0 / 24.0);
    }

    #[test]
    fn horizon_buckets() {
        let h = Horizon::observation_year();
        assert_eq!(h.num_weeks(), 52);
        assert_eq!(h.num_days(), 364);
        assert_eq!(h.num_months(), 13);
        assert_eq!(h.week_of(SimTime::from_days(8)), Some(1));
        assert_eq!(h.day_of(SimTime::from_days(8)), Some(8));
        assert_eq!(h.month_of(SimTime::from_days(29)), Some(1));
        assert_eq!(h.week_of(SimTime::from_days(-1)), None);
        assert_eq!(h.week_of(h.end()), None);
        assert!(h.contains(SimTime::ZERO));
    }

    #[test]
    fn horizon_buckets_split_at_exact_boundaries() {
        // A window opening before t = 0: buckets count from its start.
        let start = SimTime::from_days(-30);
        let h = Horizon::new(start, SimTime::from_days(60));
        assert_eq!(h.day_of(start), Some(0));
        assert_eq!(h.day_of(start + DAY - MINUTE), Some(0));
        assert_eq!(h.day_of(start + DAY), Some(1));
        assert_eq!(h.week_of(start + WEEK - MINUTE), Some(0));
        assert_eq!(h.week_of(start + WEEK), Some(1));
        assert_eq!(h.week_of(SimTime::ZERO), Some(4));
        assert_eq!(h.month_of(start + MONTH - MINUTE), Some(0));
        assert_eq!(h.month_of(start + MONTH), Some(1));
        assert_eq!(h.day_of(SimTime::from_minutes(-30 * 1440 - 1)), None);
        assert_eq!(h.month_of(h.end() - MINUTE), Some(3));
        assert_eq!(h.num_months(), 4);
    }

    #[test]
    #[should_panic(expected = "horizon end must be after start")]
    fn horizon_rejects_empty_window() {
        let _ = Horizon::new(SimTime::ZERO, SimTime::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_minutes(30)), "30min");
        assert_eq!(format!("{}", SimDuration::from_hours(2)), "2.00h");
        assert_eq!(format!("{}", SimDuration::from_days(3)), "3.00d");
        assert_eq!(format!("{}", SimTime::from_days(2)), "t+2.00d");
    }

    #[test]
    fn a_partial_last_bucket_counts_as_a_whole_one() {
        let h = Horizon::new(SimTime::ZERO, SimTime::from_minutes(10 * 1440 + 1));
        assert_eq!((h.num_days(), h.num_weeks(), h.num_months()), (11, 2, 1));
        assert_eq!(h.len().as_weeks(), 14_401.0 / 10_080.0);
        assert_eq!(h.day_of(h.end() - MINUTE), Some(10));
        assert_eq!(h.to_string(), "[t+0.00d .. t+10.00d)");
        assert!((SimTime::ZERO - SimTime::from_days(1)).is_negative());
        assert!(!SimDuration::ZERO.is_negative());
    }

    #[test]
    fn fractional_constructors_round() {
        assert_eq!(SimDuration::from_hours_f64(1.5).as_minutes(), 90);
    }
}
