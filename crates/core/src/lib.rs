//! # dcfail-core
//!
//! The failure-trace analysis toolkit — the paper's methodology as a
//! reusable library. Every analysis consumes a
//! [`dcfail_model::dataset::FailureDataset`] (simulated, hand-built or
//! deserialized) and returns plain result structs that the report layer
//! renders and tests assert on.
//!
//! Module ↔ paper-artifact map:
//!
//! | Module | Artifacts |
//! |---|---|
//! | [`rates`] | Fig. 2 (weekly failure rates) |
//! | [`class_mix`] | Fig. 1 (ticket share per failure class) |
//! | [`interfailure`] | Fig. 3, Table III (inter-failure times + fits) |
//! | [`repair`] | Fig. 4, Table IV (repair times + fits) |
//! | [`recurrence`] | Fig. 5, Table V (recurrent vs random failures) |
//! | [`spatial`] | Tables VI, VII (incident footprints) |
//! | [`age`] | Fig. 6 (VM age vs failures) |
//! | [`capacity`] | Fig. 7 (rate vs CPU/memory/disk capacity) |
//! | [`usage`] | Fig. 8 (rate vs CPU/memory/disk/network usage) |
//! | [`consolidation`] | Fig. 9 (rate vs consolidation level) |
//! | [`onoff`] | Fig. 10 (rate vs on/off frequency) |
//!
//! Figs. 7–10 share one estimator: [`panel`] declares their fourteen panels
//! as a table and holds the one driver that bins machines into them.
//!
//! Beyond the paper's artifacts, [`availability`] turns the failure record
//! into availability/"nines" (the paper's motivating metric) and
//! [`prediction`] evaluates a week-ahead failure predictor built on the
//! paper's findings (the related-work direction the paper stops short of);
//! [`whatif`] makes the paper's §VII operational advice executable as
//! curve-based counterfactuals.
//!
//! ```
//! use dcfail_synth::Scenario;
//! use dcfail_core::rates;
//!
//! let dataset = Scenario::paper().seed(1).scale(0.05).build().into_dataset();
//! let (pm, vm) = rates::weekly_failure_rates(&dataset).estate()?;
//! assert!(pm.mean > vm.mean, "PMs fail more than VMs");
//! # Ok::<(), &str>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod age;
pub mod availability;
pub mod capacity;
pub mod class_mix;
pub mod consolidation;
pub mod curve;
pub mod degradation;
pub mod followon;
pub mod interfailure;
pub mod onoff;
pub mod panel;
pub mod prediction;
pub mod rates;
pub mod recurrence;
pub mod repair;
pub mod spatial;
pub mod temporal;
pub mod usage;
pub mod whatif;

use dcfail_model::failure::{FailureClass, FailureEvent};
use serde::{Deserialize, Serialize};

/// Which class label an analysis reads from failure events.
///
/// The paper only ever sees pipeline output ([`ClassSource::Reported`]);
/// the simulator also carries ground truth, which the ablation benches use
/// to quantify labeling noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ClassSource {
    /// Labels produced by the ticket-classification pipeline (paper setup).
    #[default]
    Reported,
    /// Simulator ground truth.
    Truth,
}

impl ClassSource {
    /// Reads the chosen label from an event.
    pub fn class_of(self, event: &FailureEvent) -> FailureClass {
        match self {
            ClassSource::Reported => event.reported_class(),
            ClassSource::Truth => event.true_class(),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use dcfail_model::dataset::FailureDataset;
    use dcfail_synth::Scenario;
    use std::sync::OnceLock;

    /// A shared mid-size dataset so the analysis tests don't each pay for a
    /// simulation run.
    pub fn dataset() -> &'static FailureDataset {
        static DS: OnceLock<FailureDataset> = OnceLock::new();
        DS.get_or_init(|| {
            Scenario::paper()
                .seed(1234)
                .scale(1.0)
                .build()
                .into_dataset()
        })
    }

    /// A tiny dataset for cheap smoke tests.
    pub fn tiny() -> &'static FailureDataset {
        static DS: OnceLock<FailureDataset> = OnceLock::new();
        DS.get_or_init(|| Scenario::paper().seed(7).scale(0.02).build().into_dataset())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcfail_model::prelude::*;
    use dcfail_model::time::HOUR;

    #[test]
    fn class_source_reads_the_right_label() {
        let ev = FailureEvent::new(
            MachineId::new(0),
            IncidentId::new(0),
            TicketId::new(0),
            SimTime::ZERO,
            FailureClass::Software,
            FailureClass::Other,
            HOUR,
        );
        assert_eq!(ClassSource::Truth.class_of(&ev), FailureClass::Software);
        assert_eq!(ClassSource::Reported.class_of(&ev), FailureClass::Other);
        assert_eq!(ClassSource::default(), ClassSource::Reported);
    }
}
