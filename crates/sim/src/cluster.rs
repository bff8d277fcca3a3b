//! The testbed topology (§V-A, Figure 4): physical servers, user VMs and
//! the Dom0 monitors that watch them.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a physical server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServerId(pub u32);

/// Identifier of a user VM (globally unique across servers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VmId(pub u32);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server-{}", self.0)
    }
}

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm-{}", self.0)
    }
}

/// Static description of the datacenter testbed.
///
/// The paper's deployment is [`ClusterConfig::paper`]: 20 servers × 40
/// VMs = 800 VMs, one coordinator per 5 servers.
///
/// ```
/// use volley_sim::{ClusterConfig, VmId};
///
/// let cluster = ClusterConfig::paper();
/// assert_eq!(cluster.total_vms(), 800);
/// assert_eq!(cluster.server_of(VmId(41)).0, 1);
/// assert_eq!(cluster.coordinator_count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClusterConfig {
    servers: u32,
    vms_per_server: u32,
    servers_per_coordinator: u32,
}

impl ClusterConfig {
    /// Creates a topology of `servers × vms_per_server` VMs with one
    /// coordinator per `servers_per_coordinator` servers. Zero inputs are
    /// clamped to 1.
    pub fn new(servers: u32, vms_per_server: u32, servers_per_coordinator: u32) -> Self {
        ClusterConfig {
            servers: servers.max(1),
            vms_per_server: vms_per_server.max(1),
            servers_per_coordinator: servers_per_coordinator.max(1),
        }
    }

    /// The paper's testbed: 20 servers, 40 VMs each, a coordinator per 5
    /// servers.
    pub fn paper() -> Self {
        ClusterConfig::new(20, 40, 5)
    }

    /// Number of physical servers.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// VMs hosted per server.
    pub fn vms_per_server(&self) -> u32 {
        self.vms_per_server
    }

    /// Servers per coordinator group.
    pub fn servers_per_coordinator(&self) -> u32 {
        self.servers_per_coordinator
    }

    /// Total user VMs in the testbed.
    ///
    /// # Panics
    ///
    /// Panics when `servers × vms_per_server` overflows `u32`; use
    /// [`ClusterConfig::total_vms_u64`] for topologies that may exceed
    /// four billion VMs.
    pub fn total_vms(&self) -> u32 {
        self.servers
            .checked_mul(self.vms_per_server)
            .expect("servers * vms_per_server overflows u32; use total_vms_u64")
    }

    /// Total user VMs as `u64` — never overflows for any `u32` inputs.
    pub fn total_vms_u64(&self) -> u64 {
        u64::from(self.servers) * u64::from(self.vms_per_server)
    }

    /// Number of coordinators (one per `servers_per_coordinator` servers,
    /// rounded up).
    pub fn coordinator_count(&self) -> u32 {
        self.servers.div_ceil(self.servers_per_coordinator)
    }

    /// The server hosting `vm`.
    ///
    /// # Panics
    ///
    /// Panics when `vm` is outside the topology.
    pub fn server_of(&self, vm: VmId) -> ServerId {
        self.try_server_of(vm)
            .unwrap_or_else(|| panic!("{vm} outside topology of {} VMs", self.total_vms_u64()))
    }

    /// Overflow-checked [`ClusterConfig::server_of`]: `None` when `vm`
    /// is outside the topology. All arithmetic is widened to `u64` so
    /// million-VM (and larger) topologies can't silently wrap.
    pub fn try_server_of(&self, vm: VmId) -> Option<ServerId> {
        if u64::from(vm.0) >= self.total_vms_u64() {
            return None;
        }
        Some(ServerId(vm.0 / self.vms_per_server))
    }

    /// The coordinator responsible for `server`.
    ///
    /// # Panics
    ///
    /// Panics when `server` is outside the topology.
    pub fn coordinator_of(&self, server: ServerId) -> u32 {
        self.try_coordinator_of(server)
            .unwrap_or_else(|| panic!("{server} outside topology"))
    }

    /// Overflow-checked [`ClusterConfig::coordinator_of`]: `None` when
    /// `server` is outside the topology.
    pub fn try_coordinator_of(&self, server: ServerId) -> Option<u32> {
        if server.0 >= self.servers {
            return None;
        }
        Some(server.0 / self.servers_per_coordinator)
    }

    /// Iterates over the VMs hosted by `server`.
    ///
    /// # Panics
    ///
    /// Panics when `server` is outside the topology or its VM range does
    /// not fit in `u32` ids.
    pub fn vms_on(&self, server: ServerId) -> impl Iterator<Item = VmId> {
        self.try_vms_on(server)
            .unwrap_or_else(|| panic!("{server} outside topology or VM ids overflow u32"))
    }

    /// Overflow-checked [`ClusterConfig::vms_on`]: `None` when `server`
    /// is outside the topology or when `server.0 * vms_per_server` would
    /// wrap `u32` (the silent-wrap bug this guards against showed up at
    /// million-VM scale: `start..start + vms_per_server` wrapped and
    /// yielded VMs belonging to server 0).
    pub fn try_vms_on(&self, server: ServerId) -> Option<impl Iterator<Item = VmId>> {
        if server.0 >= self.servers {
            return None;
        }
        let start = server.0.checked_mul(self.vms_per_server)?;
        let end = start.checked_add(self.vms_per_server)?;
        Some((start..end).map(VmId))
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_dimensions() {
        let c = ClusterConfig::paper();
        assert_eq!(c.servers(), 20);
        assert_eq!(c.vms_per_server(), 40);
        assert_eq!(c.total_vms(), 800);
        assert_eq!(c.coordinator_count(), 4);
    }

    #[test]
    fn vm_to_server_mapping() {
        let c = ClusterConfig::paper();
        assert_eq!(c.server_of(VmId(0)), ServerId(0));
        assert_eq!(c.server_of(VmId(39)), ServerId(0));
        assert_eq!(c.server_of(VmId(40)), ServerId(1));
        assert_eq!(c.server_of(VmId(799)), ServerId(19));
    }

    #[test]
    fn server_to_coordinator_mapping() {
        let c = ClusterConfig::paper();
        assert_eq!(c.coordinator_of(ServerId(0)), 0);
        assert_eq!(c.coordinator_of(ServerId(4)), 0);
        assert_eq!(c.coordinator_of(ServerId(5)), 1);
        assert_eq!(c.coordinator_of(ServerId(19)), 3);
    }

    #[test]
    fn vms_on_server_are_contiguous() {
        let c = ClusterConfig::new(3, 4, 1);
        let vms: Vec<u32> = c.vms_on(ServerId(1)).map(|v| v.0).collect();
        assert_eq!(vms, vec![4, 5, 6, 7]);
    }

    #[test]
    fn coordinator_count_rounds_up() {
        assert_eq!(ClusterConfig::new(7, 1, 5).coordinator_count(), 2);
        assert_eq!(ClusterConfig::new(5, 1, 5).coordinator_count(), 1);
    }

    #[test]
    fn zero_inputs_clamped() {
        let c = ClusterConfig::new(0, 0, 0);
        assert_eq!(c.total_vms(), 1);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn out_of_range_vm_panics() {
        ClusterConfig::new(1, 1, 1).server_of(VmId(5));
    }

    #[test]
    fn million_vm_topology_does_not_wrap() {
        // 25 000 servers × 40 VMs = exactly 1M VMs.
        let c = ClusterConfig::new(25_000, 40, 5);
        assert_eq!(c.total_vms(), 1_000_000);
        assert_eq!(c.total_vms_u64(), 1_000_000);
        let last = VmId(999_999);
        assert_eq!(c.try_server_of(last), Some(ServerId(24_999)));
        assert_eq!(c.try_coordinator_of(ServerId(24_999)), Some(4_999));
        let vms: Vec<u32> = c
            .try_vms_on(ServerId(24_999))
            .unwrap()
            .map(|v| v.0)
            .collect();
        assert_eq!(vms.first().copied(), Some(999_960));
        assert_eq!(vms.last().copied(), Some(999_999));
        assert_eq!(c.try_server_of(VmId(1_000_000)), None);
    }

    #[test]
    fn try_vms_on_detects_u32_wrap() {
        // 3 servers × ~1.5 billion VMs each: server 2's VM range exceeds
        // u32 — the unchecked `start + vms_per_server` used to wrap and
        // hand back server-0 VM ids.
        let c = ClusterConfig::new(3, 1_500_000_000, 1);
        assert!(c.try_vms_on(ServerId(0)).is_some());
        assert!(c.try_vms_on(ServerId(2)).is_none());
        assert_eq!(c.total_vms_u64(), 4_500_000_000);
    }

    proptest::proptest! {
        /// Checked variants never panic and agree with u64 arithmetic on
        /// arbitrary topologies, up to and beyond million-VM scale.
        #[test]
        fn checked_mapping_matches_u64_math(
            servers in 1u32..2_000_000,
            vms_per_server in 1u32..4_096,
            servers_per_coordinator in 1u32..10_000,
            probe in 0u64..u64::from(u32::MAX),
        ) {
            let c = ClusterConfig::new(servers, vms_per_server, servers_per_coordinator);
            let total = c.total_vms_u64();
            proptest::prop_assert_eq!(total, u64::from(servers) * u64::from(vms_per_server));

            let vm = VmId((probe % total).min(u64::from(u32::MAX)) as u32);
            if u64::from(vm.0) < total {
                let server = c.try_server_of(vm).expect("vm in range");
                proptest::prop_assert_eq!(
                    u64::from(server.0),
                    u64::from(vm.0) / u64::from(vms_per_server)
                );
                let coordinator = c.try_coordinator_of(server).expect("server in range");
                proptest::prop_assert_eq!(
                    u64::from(coordinator),
                    u64::from(server.0) / u64::from(servers_per_coordinator)
                );
                // The VM must appear in its own server's range whenever
                // that range is representable.
                if let Some(mut vms) = c.try_vms_on(server) {
                    proptest::prop_assert!(vms.any(|v| v == vm));
                }
            }
            // Out-of-range probes are rejected, never mismapped.
            let beyond = ServerId(servers.saturating_add(probe as u32 % 7));
            if beyond.0 >= servers {
                proptest::prop_assert_eq!(c.try_coordinator_of(beyond), None);
                proptest::prop_assert!(c.try_vms_on(beyond).is_none());
            }
        }
    }
}
