//! Machines and their resource capacity.

use crate::ids::{BoxId, ClusterId, MachineId, PowerDomainId, SubsystemId};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether a machine is a stand-alone physical server or a virtual machine.
///
/// Following the paper, virtualized *host boxes* are modelled in the topology
/// but are not part of the analyzed machine population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MachineKind {
    /// Stand-alone, non-virtualized physical machine.
    Pm,
    /// Virtual machine hosted on a virtualized box.
    Vm,
}

impl MachineKind {
    /// All machine kinds, in display order (PM first, as in the paper).
    pub const ALL: [MachineKind; 2] = [MachineKind::Pm, MachineKind::Vm];

    /// Short label used in tables ("PM" / "VM").
    pub const fn label(self) -> &'static str {
        match self {
            MachineKind::Pm => "PM",
            MachineKind::Vm => "VM",
        }
    }
}

impl fmt::Display for MachineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Provisioned resource capacity of a machine.
///
/// Mirrors the paper's capacity attributes: number of (v)CPUs, memory size,
/// number of attached disks and total disk volume. Network capacity is not
/// modelled (the paper lacked it too); network appears only as usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResourceCapacity {
    cpus: u32,
    memory_mb: u64,
    disks: u32,
    disk_gb: u64,
}

impl ResourceCapacity {
    /// Creates a capacity record.
    ///
    /// # Panics
    ///
    /// Panics if `cpus == 0`: every machine has at least one processor.
    pub fn new(cpus: u32, memory_mb: u64, disks: u32, disk_gb: u64) -> Self {
        assert!(cpus > 0, "a machine must have at least one CPU");
        Self {
            cpus,
            memory_mb,
            disks,
            disk_gb,
        }
    }

    /// Number of processors (PMs) or logical vCPUs (VMs).
    pub const fn cpus(&self) -> u32 {
        self.cpus
    }

    /// Memory size in MB.
    pub const fn memory_mb(&self) -> u64 {
        self.memory_mb
    }

    /// Memory size in GB (fractional; the paper bins VMs from 256 MB up).
    pub fn memory_gb(&self) -> f64 {
        self.memory_mb as f64 / 1024.0
    }

    /// Number of attached (virtual) disks.
    pub const fn disks(&self) -> u32 {
        self.disks
    }

    /// Total disk volume in GB.
    pub const fn disk_gb(&self) -> u64 {
        self.disk_gb
    }
}

impl Default for ResourceCapacity {
    fn default() -> Self {
        Self::new(2, 2048, 2, 64)
    }
}

impl fmt::Display for ResourceCapacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}cpu/{:.1}GB/{}x{}GB",
            self.cpus,
            self.memory_gb(),
            self.disks,
            self.disk_gb
        )
    }
}

/// A machine under observation: a PM or a VM with its placement and lifecycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    id: MachineId,
    kind: MachineKind,
    subsystem: SubsystemId,
    power_domain: PowerDomainId,
    capacity: ResourceCapacity,
    /// Creation time. For VMs this is the first occurrence in the monitoring
    /// database; `None` means the creation date is unknown (predates the
    /// telemetry window), mirroring the paper's 25% filtered-out VMs.
    created_at: Option<SimTime>,
    /// Hosting box; `Some` only for VMs.
    host: Option<BoxId>,
    /// Distributed application cluster membership, if any.
    app_cluster: Option<ClusterId>,
}

impl Machine {
    /// Creates a stand-alone physical machine.
    pub fn new_pm(
        id: MachineId,
        subsystem: SubsystemId,
        power_domain: PowerDomainId,
        capacity: ResourceCapacity,
        created_at: Option<SimTime>,
    ) -> Self {
        Self {
            id,
            kind: MachineKind::Pm,
            subsystem,
            power_domain,
            capacity,
            created_at,
            host: None,
            app_cluster: None,
        }
    }

    /// Creates a virtual machine hosted on `host`.
    pub fn new_vm(
        id: MachineId,
        subsystem: SubsystemId,
        power_domain: PowerDomainId,
        capacity: ResourceCapacity,
        created_at: Option<SimTime>,
        host: BoxId,
    ) -> Self {
        Self {
            id,
            kind: MachineKind::Vm,
            subsystem,
            power_domain,
            capacity,
            created_at,
            host: Some(host),
            app_cluster: None,
        }
    }

    /// Assigns the machine to a distributed application cluster.
    #[must_use]
    pub fn with_app_cluster(mut self, cluster: ClusterId) -> Self {
        self.app_cluster = Some(cluster);
        self
    }

    /// Returns a copy carrying a different id.
    ///
    /// Intended for tooling that re-densifies machine records (fault
    /// injection, lenient trace recovery); analyses never re-id machines.
    #[must_use]
    pub fn with_id(mut self, id: MachineId) -> Self {
        self.id = id;
        self
    }

    /// Returns a copy with its host link replaced.
    ///
    /// This can express states the constructors forbid (a PM with a host, a
    /// VM without one, a dangling box id); it exists for fault-injection and
    /// trace-recovery tooling, which needs to create and repair exactly those
    /// states. The kind is unchanged.
    #[must_use]
    pub fn with_host(mut self, host: Option<BoxId>) -> Self {
        self.host = host;
        self
    }

    /// Machine id.
    pub const fn id(&self) -> MachineId {
        self.id
    }

    /// PM or VM.
    pub const fn kind(&self) -> MachineKind {
        self.kind
    }

    /// True if this machine is a VM.
    pub const fn is_vm(&self) -> bool {
        matches!(self.kind, MachineKind::Vm)
    }

    /// True if this machine is a PM.
    pub const fn is_pm(&self) -> bool {
        matches!(self.kind, MachineKind::Pm)
    }

    /// Subsystem (Sys I – V) the machine belongs to.
    pub const fn subsystem(&self) -> SubsystemId {
        self.subsystem
    }

    /// Power distribution domain.
    pub const fn power_domain(&self) -> PowerDomainId {
        self.power_domain
    }

    /// Provisioned capacity.
    pub const fn capacity(&self) -> &ResourceCapacity {
        &self.capacity
    }

    /// Creation time, if known.
    pub const fn created_at(&self) -> Option<SimTime> {
        self.created_at
    }

    /// Hosting box (VMs only).
    pub const fn host(&self) -> Option<BoxId> {
        self.host
    }

    /// Application cluster membership, if any.
    pub const fn app_cluster(&self) -> Option<ClusterId> {
        self.app_cluster
    }

    /// Age of the machine at instant `t`, in days, if the creation date is
    /// known and not in the future.
    pub fn age_days_at(&self, t: SimTime) -> Option<f64> {
        let created = self.created_at?;
        let age = (t - created).as_days();
        (age >= 0.0).then_some(age)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::DAY;

    fn pm() -> Machine {
        Machine::new_pm(
            MachineId::new(0),
            SubsystemId::new(1),
            PowerDomainId::new(2),
            ResourceCapacity::new(8, 16 * 1024, 4, 1024),
            Some(SimTime::from_days(-100)),
        )
    }

    #[test]
    fn pm_accessors() {
        let m = pm();
        assert!(m.is_pm());
        assert!(!m.is_vm());
        assert_eq!(m.kind(), MachineKind::Pm);
        assert_eq!(m.host(), None);
        assert_eq!(m.capacity().cpus(), 8);
        assert_eq!(m.capacity().memory_gb(), 16.0);
        assert_eq!(m.subsystem(), SubsystemId::new(1));
        assert_eq!(m.power_domain(), PowerDomainId::new(2));
    }

    #[test]
    fn vm_has_host_and_cluster() {
        let vm = Machine::new_vm(
            MachineId::new(1),
            SubsystemId::new(0),
            PowerDomainId::new(0),
            ResourceCapacity::default(),
            Some(SimTime::ZERO),
            BoxId::new(9),
        )
        .with_app_cluster(ClusterId::new(3));
        assert!(vm.is_vm());
        assert_eq!(vm.host(), Some(BoxId::new(9)));
        assert_eq!(vm.app_cluster(), Some(ClusterId::new(3)));
    }

    #[test]
    fn age_is_relative_to_creation() {
        let m = pm();
        assert_eq!(m.age_days_at(SimTime::ZERO), Some(100.0));
        assert_eq!(m.age_days_at(SimTime::from_days(-100) + DAY), Some(1.0));
        // Before creation: no age.
        assert_eq!(m.age_days_at(SimTime::from_days(-200)), None);
    }

    #[test]
    fn unknown_creation_yields_no_age() {
        let m = Machine::new_pm(
            MachineId::new(0),
            SubsystemId::new(0),
            PowerDomainId::new(0),
            ResourceCapacity::default(),
            None,
        );
        assert_eq!(m.age_days_at(SimTime::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpu_capacity_rejected() {
        let _ = ResourceCapacity::new(0, 1024, 1, 10);
    }

    #[test]
    fn capacity_display() {
        let c = ResourceCapacity::new(4, 8192, 2, 256);
        assert_eq!(c.to_string(), "4cpu/8.0GB/2x256GB");
    }

    #[test]
    fn kind_labels() {
        assert_eq!(MachineKind::Pm.label(), "PM");
        assert_eq!(MachineKind::Vm.to_string(), "VM");
        assert_eq!(MachineKind::ALL.len(), 2);
    }

    #[test]
    fn repair_builders_replace_one_field_and_keep_the_kind() {
        let original = pm();
        let moved = original.clone().with_id(MachineId::new(7));
        assert_eq!(moved.id(), MachineId::new(7));
        assert_eq!(moved.clone().with_id(MachineId::new(0)), original);
        let hosted = original.clone().with_host(Some(BoxId::new(4)));
        assert!(hosted.is_pm(), "with_host never changes the kind");
        assert_eq!(hosted.host(), Some(BoxId::new(4)));
        assert_eq!(hosted.with_host(None), original);
    }
}
