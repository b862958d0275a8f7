//! Strongly-typed identifiers.
//!
//! Every entity in the model is referenced by a newtype over a dense `u32`
//! index. Dense indexes keep the dataset compact (hundreds of thousands of
//! tickets) and make cross-referencing O(1), while the newtypes prevent the
//! classic "passed a ticket id where a machine id was expected" bug.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a dense index.
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the dense index backing this id.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw `u32` value.
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(value: u32) -> Self {
                Self(value)
            }
        }

        impl From<$name> for u32 {
            fn from(value: $name) -> u32 {
                value.0
            }
        }
    };
}

define_id!(
    /// Identifier of a physical or virtual machine.
    MachineId,
    "m"
);
define_id!(
    /// Identifier of a virtualized host box (hypervisor platform).
    ///
    /// The paper excludes boxes from the *analysis* population but VM spatial
    /// dependency (host crash → co-hosted VM failures) requires modelling them.
    BoxId,
    "box"
);
define_id!(
    /// Identifier of one of the datacenter subsystems (Sys I – Sys V).
    SubsystemId,
    "sys"
);
define_id!(
    /// Identifier of a power distribution domain within a subsystem.
    PowerDomainId,
    "pd"
);
define_id!(
    /// Identifier of a distributed application cluster (e.g. a 3-tier app).
    ClusterId,
    "app"
);
define_id!(
    /// Identifier of a failure incident (one root cause, ≥ 1 machines).
    IncidentId,
    "inc"
);
define_id!(
    /// Identifier of a problem ticket.
    TicketId,
    "t"
);
define_id!(
    /// Identifier of one distinct ticket text in a dataset's
    /// [`TextTable`](crate::ticket::TextTable).
    TextId,
    "text"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn roundtrip_index() {
        let id = MachineId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(u32::from(id), 42);
        assert_eq!(MachineId::from(42u32), id);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(MachineId::new(3).to_string(), "m3");
        assert_eq!(BoxId::new(1).to_string(), "box1");
        assert_eq!(SubsystemId::new(0).to_string(), "sys0");
        assert_eq!(PowerDomainId::new(9).to_string(), "pd9");
        assert_eq!(ClusterId::new(7).to_string(), "app7");
        assert_eq!(IncidentId::new(5).to_string(), "inc5");
        assert_eq!(TicketId::new(2).to_string(), "t2");
        assert_eq!(TextId::new(4).to_string(), "text4");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut set = HashSet::new();
        set.insert(TicketId::new(1));
        set.insert(TicketId::new(2));
        set.insert(TicketId::new(1));
        assert_eq!(set.len(), 2);
        assert!(TicketId::new(1) < TicketId::new(2));
    }

    #[test]
    fn serde_is_transparent() {
        let id = IncidentId::new(17);
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, "17");
        let back: IncidentId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, id);
    }
}
