//! Injection plans: which corruptions to apply, at what rates, which seed.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One kind of realistic trace corruption the injector can apply.
///
/// Each kind mirrors a defect class that real operator databases exhibit and
/// that the audit catalog in `dcfail-audit` detects: records get lost,
/// re-entered, re-ordered by skewed collector clocks, truncated mid-write,
/// left dangling by racing inventory updates, or mislabeled by humans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Corruption {
    /// A crash event vanishes from the trace (lost write).
    DropEvent,
    /// A crash event is recorded twice (retried write, double entry).
    DuplicateEvent,
    /// Events appear out of chronological order (merge of unsynced sources).
    ShuffleEvents,
    /// All events from one subsystem shift by a constant clock offset.
    ClockSkew,
    /// A repair duration is truncated (ticket closed early or cut mid-write).
    TruncateRepair,
    /// A VM's placement points at a host box that does not exist.
    OrphanPlacement,
    /// A ticket/event carries the wrong failure class (human mislabeling).
    MislabelClass,
    /// Telemetry windows go missing (monitoring outage).
    DropTelemetry,
    /// A CSV data row is garbled: truncated, a field dropped or overwritten.
    GarbleCsvRow,
}

impl Corruption {
    /// Every corruption kind, in catalog order.
    pub const ALL: [Corruption; 9] = [
        Corruption::DropEvent,
        Corruption::DuplicateEvent,
        Corruption::ShuffleEvents,
        Corruption::ClockSkew,
        Corruption::TruncateRepair,
        Corruption::OrphanPlacement,
        Corruption::MislabelClass,
        Corruption::DropTelemetry,
        Corruption::GarbleCsvRow,
    ];

    /// Stable machine-readable code (used in plans serialized to JSON).
    pub const fn code(self) -> &'static str {
        match self {
            Corruption::DropEvent => "drop-event",
            Corruption::DuplicateEvent => "duplicate-event",
            Corruption::ShuffleEvents => "shuffle-events",
            Corruption::ClockSkew => "clock-skew",
            Corruption::TruncateRepair => "truncate-repair",
            Corruption::OrphanPlacement => "orphan-placement",
            Corruption::MislabelClass => "mislabel-class",
            Corruption::DropTelemetry => "drop-telemetry",
            Corruption::GarbleCsvRow => "garble-csv-row",
        }
    }

    /// One-line human description.
    pub const fn description(self) -> &'static str {
        match self {
            Corruption::DropEvent => "crash events vanish from the trace",
            Corruption::DuplicateEvent => "crash events are recorded twice",
            Corruption::ShuffleEvents => "events appear out of chronological order",
            Corruption::ClockSkew => "per-subsystem collector clocks drift",
            Corruption::TruncateRepair => "repair durations are truncated",
            Corruption::OrphanPlacement => "VM placements point at unknown boxes",
            Corruption::MislabelClass => "failure classes are mislabeled",
            Corruption::DropTelemetry => "telemetry windows go missing",
            Corruption::GarbleCsvRow => "CSV data rows are garbled",
        }
    }
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

impl Serialize for Corruption {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.code().to_string())
    }
}

impl Deserialize for Corruption {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Str(code) = value else {
            return Err(serde::Error::custom("corruption kind must be a string"));
        };
        Corruption::ALL
            .into_iter()
            .find(|c| c.code() == code)
            .ok_or_else(|| serde::Error::custom(format!("unknown corruption kind `{code}`")))
    }
}

/// Per-corruption probabilities in `[0, 1]`.
///
/// Each field is the chance that one *candidate record* (an event, a VM, a
/// telemetry series, a CSV row, a subsystem clock) is hit by that corruption.
/// Rates outside `[0, 1]` are tolerated and clamped at draw time.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CorruptionRates {
    /// Probability that an event is dropped.
    pub drop_event: f64,
    /// Probability that an event is duplicated.
    pub duplicate_event: f64,
    /// Fraction of the event list subjected to order-breaking swaps.
    pub shuffle_events: f64,
    /// Probability that a subsystem's collector clock is skewed.
    pub clock_skew: f64,
    /// Probability that an event's repair duration is truncated.
    pub truncate_repair: f64,
    /// Probability that a VM's placement is orphaned.
    pub orphan_placement: f64,
    /// Probability that an event's reported class is flipped.
    pub mislabel_class: f64,
    /// Probability that a telemetry series is dropped or truncated.
    pub drop_telemetry: f64,
    /// Probability that a CSV data row is garbled (CSV injection only).
    pub garble_csv_row: f64,
}

impl CorruptionRates {
    /// The same rate for every corruption kind.
    pub fn uniform(rate: f64) -> Self {
        Self {
            drop_event: rate,
            duplicate_event: rate,
            shuffle_events: rate,
            clock_skew: rate,
            truncate_repair: rate,
            orphan_placement: rate,
            mislabel_class: rate,
            drop_telemetry: rate,
            garble_csv_row: rate,
        }
    }

    /// The rate configured for `kind`.
    pub const fn get(&self, kind: Corruption) -> f64 {
        match kind {
            Corruption::DropEvent => self.drop_event,
            Corruption::DuplicateEvent => self.duplicate_event,
            Corruption::ShuffleEvents => self.shuffle_events,
            Corruption::ClockSkew => self.clock_skew,
            Corruption::TruncateRepair => self.truncate_repair,
            Corruption::OrphanPlacement => self.orphan_placement,
            Corruption::MislabelClass => self.mislabel_class,
            Corruption::DropTelemetry => self.drop_telemetry,
            Corruption::GarbleCsvRow => self.garble_csv_row,
        }
    }

    /// Sets the rate for `kind`, returning `self` for chaining.
    #[must_use]
    pub fn with(mut self, kind: Corruption, rate: f64) -> Self {
        match kind {
            Corruption::DropEvent => self.drop_event = rate,
            Corruption::DuplicateEvent => self.duplicate_event = rate,
            Corruption::ShuffleEvents => self.shuffle_events = rate,
            Corruption::ClockSkew => self.clock_skew = rate,
            Corruption::TruncateRepair => self.truncate_repair = rate,
            Corruption::OrphanPlacement => self.orphan_placement = rate,
            Corruption::MislabelClass => self.mislabel_class = rate,
            Corruption::DropTelemetry => self.drop_telemetry = rate,
            Corruption::GarbleCsvRow => self.garble_csv_row = rate,
        }
        self
    }

    /// True when every rate is `<= 0` (nothing will be injected).
    pub fn is_none(&self) -> bool {
        Corruption::ALL.into_iter().all(|k| self.get(k) <= 0.0)
    }
}

/// A complete, reproducible description of one corruption run.
///
/// Two runs with the same plan over the same input produce byte-identical
/// output; the seed feeds one forked `StreamRng` stream per corruption stage,
/// so changing one rate does not perturb the draws of the other stages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InjectionPlan {
    /// Root seed for every random stream of the run.
    pub seed: u64,
    /// Per-corruption probabilities.
    pub rates: CorruptionRates,
}

impl InjectionPlan {
    /// A plan applying every corruption kind at the same `rate`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            rates: CorruptionRates::uniform(rate),
        }
    }

    /// Sets one corruption rate, returning the plan for chaining.
    #[must_use]
    pub fn with(mut self, kind: Corruption, rate: f64) -> Self {
        self.rates = self.rates.with(kind, rate);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_roundtrip() {
        for kind in Corruption::ALL {
            let val = Serialize::to_value(&kind);
            let back = <Corruption as Deserialize>::from_value(&val).unwrap();
            assert_eq!(back, kind);
            assert_eq!(kind.to_string(), kind.code());
            assert!(!kind.description().is_empty());
        }
        let mut codes: Vec<_> = Corruption::ALL.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Corruption::ALL.len());
    }

    #[test]
    fn unknown_code_rejected() {
        let bad = serde::Value::Str("melt-core".to_string());
        assert!(<Corruption as Deserialize>::from_value(&bad).is_err());
    }

    #[test]
    fn rates_get_with_roundtrip() {
        let mut rates = CorruptionRates::default();
        assert!(rates.is_none());
        for (i, kind) in Corruption::ALL.into_iter().enumerate() {
            rates = rates.with(kind, (i + 1) as f64 / 100.0);
        }
        assert!(!rates.is_none());
        for (i, kind) in Corruption::ALL.into_iter().enumerate() {
            assert_eq!(rates.get(kind), (i + 1) as f64 / 100.0);
        }
    }

    #[test]
    fn uniform_plan_sets_every_rate() {
        let plan = InjectionPlan::uniform(7, 0.25);
        assert_eq!(plan.seed, 7);
        for kind in Corruption::ALL {
            assert_eq!(plan.rates.get(kind), 0.25);
        }
        let plan = InjectionPlan::uniform(7, 0.0).with(Corruption::DropEvent, 0.5);
        assert_eq!(plan.rates.get(Corruption::DropEvent), 0.5);
        assert_eq!(plan.rates.get(Corruption::ClockSkew), 0.0);
    }

    #[test]
    fn plan_serde_roundtrip() {
        let plan = InjectionPlan::uniform(99, 0.125).with(Corruption::GarbleCsvRow, 0.5);
        let json = serde_json::to_string(&plan).unwrap();
        let back: InjectionPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
