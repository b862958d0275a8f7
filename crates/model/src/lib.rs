//! # dcfail-model
//!
//! Domain model for the dcfail toolkit: the vocabulary of a commercial
//! datacenter failure study as described by Birke et al. (DSN 2014).
//!
//! The model is deliberately *data-shaped* — plain records with stable ids —
//! because everything downstream (the simulator in `dcfail-synth`, the
//! ticketing pipeline in `dcfail-tickets` and the analyses in `dcfail-core`)
//! operates on `(machine, timestamp, class, repair-duration)` tuples plus
//! resource telemetry, exactly like the paper's multi-database pipeline.
//!
//! Key types:
//!
//! * [`time::SimTime`] / [`time::SimDuration`] — minute-resolution simulation
//!   clock with day/week/month bucketing.
//! * [`machine::Machine`] — a physical or virtual machine with its
//!   [`machine::ResourceCapacity`] and lifecycle.
//! * [`topology::Topology`] — subsystem → power-domain → host-box → VM
//!   placement, plus distributed application clusters.
//! * [`failure::Incident`] / [`failure::FailureEvent`] — a root-caused event
//!   affecting one or more machines, and its per-machine projection.
//! * [`ticket::Ticket`] — a problem ticket with its repair window; its free
//!   text lives once per dataset in a [`ticket::TextTable`].
//! * [`dataset::FailureDataset`] — the assembled study input.
//! * [`interop`] — flat-CSV import/export so external failure traces can be
//!   analyzed with the same toolkit.
//!
//! ```
//! use dcfail_model::prelude::*;
//!
//! let cap = ResourceCapacity::new(4, 8 * 1024, 2, 256);
//! assert_eq!(cap.cpus(), 4);
//! assert_eq!(cap.memory_gb(), 8.0);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod dataset;
pub mod failure;
pub mod ids;
pub mod interop;
pub mod machine;
mod spare;
pub mod telemetry;
pub mod ticket;
pub mod time;
pub mod topology;

/// Convenient glob import of the most frequently used model types.
pub mod prelude {
    pub use crate::dataset::{DatasetBuilder, DatasetError, FailureDataset, SubsystemStats};
    pub use crate::failure::{FailureClass, FailureEvent, Incident};
    pub use crate::ids::{
        BoxId, ClusterId, IncidentId, MachineId, PowerDomainId, SubsystemId, TextId, TicketId,
    };
    pub use crate::machine::{Machine, MachineKind, ResourceCapacity};
    pub use crate::telemetry::{OnOffLog, OnOffView, Telemetry, WeeklyUsage};
    pub use crate::ticket::{TextTable, Ticket, TicketKind};
    pub use crate::time::{Horizon, SimDuration, SimTime, DAY, HOUR, MINUTE, MONTH, WEEK};
    pub use crate::topology::{HostBox, SubsystemMeta, Topology};
}
