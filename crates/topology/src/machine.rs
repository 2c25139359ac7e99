//! The machine model: sockets, NUMA nodes, cores, links, one NIC.
//!
//! This plays the role hwloc plays in the paper's benchmark: it answers
//! locality questions ("is this NUMA node local to the computing socket?",
//! "does a DMA to this node cross the inter-socket bus?") and enumerates
//! placement combinations.

use serde::{Deserialize, Serialize};

use crate::cxl::CxlPool;
use crate::error::TopologyError;
use crate::ids::{NumaId, SocketId};
use crate::link::{InterSocketLink, InterSocketTech};
use crate::nic::Nic;

/// One processor package.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Socket {
    /// Identifier (also its index in [`MachineTopology::sockets`]).
    pub id: SocketId,
    /// Marketing name of the processor, as in the paper's Table I.
    pub processor: String,
    /// Number of physical cores on this socket.
    pub cores: u16,
    /// NUMA nodes belonging to this socket, in machine order.
    pub numa_nodes: Vec<NumaId>,
}

/// One NUMA node: a memory bank plus its memory controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumaNode {
    /// Identifier (also its index in [`MachineTopology::numa_nodes`]).
    pub id: NumaId,
    /// Socket this node belongs to.
    pub socket: SocketId,
    /// Capacity of the memory bank in GB (Table I column "Memory"). Not
    /// used by the bandwidth model, kept for completeness of the testbed
    /// description.
    pub memory_gb: u32,
}

/// A complete machine description.
///
/// Invariants (checked by [`MachineTopology::validate`]):
/// * sockets, NUMA nodes and cores are numbered densely in socket order;
/// * every socket has the same number of cores and of NUMA nodes;
/// * every pair of sockets is connected by exactly one inter-socket link;
/// * the NIC is attached to an existing socket and its closest NUMA node
///   belongs to that socket;
/// * CXL pools are numbered densely, attach to existing sockets, and
///   every bandwidth on a link, the NIC, or a pool is finite and
///   positive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineTopology {
    /// Machine name (Table I "Name" column).
    pub name: String,
    /// Processor packages.
    pub sockets: Vec<Socket>,
    /// All NUMA nodes, machine-wide order (socket-major).
    pub numa_nodes: Vec<NumaNode>,
    /// Inter-socket links.
    pub links: Vec<InterSocketLink>,
    /// The (single) high-performance NIC.
    pub nic: Nic,
    /// CXL.mem pools attached to the node (usually empty; the paper's
    /// Table I machines have none).
    #[serde(default)]
    pub cxl_pools: Vec<CxlPool>,
}

impl MachineTopology {
    /// Build a homogeneous dual-socket (or more) machine.
    ///
    /// * `numa_per_socket` — the paper's `#m`;
    /// * `cores_per_socket` — physical cores per socket;
    /// * `memory_gb` — total machine memory, split evenly across nodes.
    #[allow(clippy::too_many_arguments)]
    pub fn homogeneous(
        name: impl Into<String>,
        processor: impl Into<String>,
        sockets: u16,
        cores_per_socket: u16,
        numa_per_socket: u16,
        memory_gb: u32,
        link_tech: InterSocketTech,
        link_cpu_bw: f64,
        link_dma_bw: f64,
        nic: Nic,
    ) -> Result<Self, TopologyError> {
        if sockets == 0 || cores_per_socket == 0 || numa_per_socket == 0 {
            return Err(TopologyError::Empty);
        }
        let processor = processor.into();
        let total_nodes = sockets * numa_per_socket;
        let per_node_gb = memory_gb / u32::from(total_nodes);

        let mut socket_vec = Vec::with_capacity(sockets as usize);
        let mut numa_vec = Vec::with_capacity(total_nodes as usize);
        for s in 0..sockets {
            let node_ids: Vec<NumaId> = (0..numa_per_socket)
                .map(|m| NumaId::new(s * numa_per_socket + m))
                .collect();
            for &nid in &node_ids {
                numa_vec.push(NumaNode {
                    id: nid,
                    socket: SocketId::new(s),
                    memory_gb: per_node_gb,
                });
            }
            socket_vec.push(Socket {
                id: SocketId::new(s),
                processor: processor.clone(),
                cores: cores_per_socket,
                numa_nodes: node_ids,
            });
        }

        let mut links = Vec::new();
        for a in 0..sockets {
            for b in (a + 1)..sockets {
                links.push(InterSocketLink {
                    a: SocketId::new(a),
                    b: SocketId::new(b),
                    tech: link_tech,
                    cpu_bandwidth: link_cpu_bw,
                    dma_bandwidth: link_dma_bw,
                });
            }
        }

        let machine = MachineTopology {
            name: name.into(),
            sockets: socket_vec,
            numa_nodes: numa_vec,
            links,
            nic,
            cxl_pools: Vec::new(),
        };
        machine.validate()?;
        Ok(machine)
    }

    /// Check the structural invariants listed on the type.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.sockets.is_empty() || self.numa_nodes.is_empty() {
            return Err(TopologyError::Empty);
        }
        let per = self.sockets[0].numa_nodes.len();
        let cores = self.sockets[0].cores;
        for (i, s) in self.sockets.iter().enumerate() {
            if s.id.index() != i {
                return Err(TopologyError::NonDenseIds("socket"));
            }
            if s.numa_nodes.len() != per {
                return Err(TopologyError::HeterogeneousSockets);
            }
            if s.cores != cores {
                return Err(TopologyError::HeterogeneousSockets);
            }
        }
        for (i, n) in self.numa_nodes.iter().enumerate() {
            if n.id.index() != i {
                return Err(TopologyError::NonDenseIds("numa"));
            }
            let s = self
                .sockets
                .get(n.socket.index())
                .ok_or(TopologyError::DanglingReference("numa node socket"))?;
            if !s.numa_nodes.contains(&n.id) {
                return Err(TopologyError::DanglingReference("socket numa list"));
            }
        }
        for s in 1..self.sockets.len() {
            for t in 0..s {
                let count = self
                    .links
                    .iter()
                    .filter(|l| l.connects(SocketId::new(s as u16), SocketId::new(t as u16)))
                    .count();
                if count != 1 {
                    return Err(TopologyError::BadLinkCount {
                        a: SocketId::new(s as u16),
                        b: SocketId::new(t as u16),
                        count,
                    });
                }
            }
        }
        if self.nic.socket.index() >= self.sockets.len() {
            return Err(TopologyError::DanglingReference("nic socket"));
        }
        let nic_node = self
            .numa_nodes
            .get(self.nic.closest_numa.index())
            .ok_or(TopologyError::DanglingReference("nic numa"))?;
        if nic_node.socket != self.nic.socket {
            return Err(TopologyError::DanglingReference(
                "nic numa not on nic socket",
            ));
        }
        // Bandwidths the solver divides by must be finite and positive —
        // a zero or NaN capacity would silently poison every rate.
        fn positive(what: &'static str, v: f64) -> Result<(), TopologyError> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(TopologyError::DegenerateBandwidth(what))
            }
        }
        for l in &self.links {
            positive("inter-socket link cpu bandwidth", l.cpu_bandwidth)?;
            positive("inter-socket link dma bandwidth", l.dma_bandwidth)?;
        }
        positive("nic pcie bandwidth", self.nic.pcie.usable_bandwidth())?;
        positive(
            "nic wire bandwidth",
            self.nic.tech.wire_rate() * self.nic.tech.protocol_efficiency(),
        )?;
        for (i, pool) in self.cxl_pools.iter().enumerate() {
            if pool.id.index() != i {
                return Err(TopologyError::NonDenseIds("cxl pool"));
            }
            if pool.socket.index() >= self.sockets.len() {
                return Err(TopologyError::DanglingReference("cxl pool socket"));
            }
            if pool.ports == 0 {
                return Err(TopologyError::DegenerateBandwidth("cxl pool has no ports"));
            }
            positive("cxl port bandwidth", pool.port_bandwidth)?;
            positive("cxl pool bandwidth", pool.pool_bandwidth)?;
            positive("cxl stream bandwidth", pool.stream_bandwidth)?;
            if !(pool.latency.is_finite() && pool.latency >= 0.0) {
                return Err(TopologyError::DegenerateBandwidth("cxl pool latency"));
            }
        }
        Ok(())
    }

    /// Number of NUMA nodes per socket — the paper's `#m`.
    pub fn numa_per_socket(&self) -> usize {
        self.sockets[0].numa_nodes.len()
    }

    /// Total number of NUMA nodes.
    pub fn numa_count(&self) -> usize {
        self.numa_nodes.len()
    }

    /// Physical cores per socket.
    pub fn cores_per_socket(&self) -> usize {
        self.sockets[0].cores as usize
    }

    /// Socket owning a NUMA node.
    pub fn socket_of_numa(&self, numa: NumaId) -> SocketId {
        self.numa_nodes[numa.index()].socket
    }

    /// Is `numa` local to `socket` (paper terminology: a *local* access)?
    pub fn is_local(&self, socket: SocketId, numa: NumaId) -> bool {
        self.socket_of_numa(numa) == socket
    }

    /// Does a DMA from the NIC to `numa` cross the inter-socket bus?
    pub fn dma_crosses_socket_link(&self, numa: NumaId) -> bool {
        self.socket_of_numa(numa) != self.nic.socket
    }

    /// The inter-socket link between two sockets, if distinct.
    pub fn link_between(&self, a: SocketId, b: SocketId) -> Option<&InterSocketLink> {
        if a == b {
            return None;
        }
        self.links.iter().find(|l| l.connects(a, b))
    }

    /// All NUMA node identifiers, machine order.
    pub fn numa_ids(&self) -> impl Iterator<Item = NumaId> + '_ {
        self.numa_nodes.iter().map(|n| n.id)
    }

    /// The first NUMA node of a socket (the calibration configurations of
    /// the paper use "the first NUMA node of the first socket" and "the
    /// first NUMA node of the second socket").
    pub fn first_numa_of(&self, socket: SocketId) -> NumaId {
        self.sockets[socket.index()].numa_nodes[0]
    }

    /// All `(m_comp, m_comm)` placement combinations, row-major with the
    /// communication placement as the outer index — matching the layout of
    /// the paper's figures (each *line* of subplots is one communication
    /// placement, each *column* one computation placement).
    pub fn placement_combinations(&self) -> Vec<(NumaId, NumaId)> {
        let mut v = Vec::with_capacity(self.numa_count() * self.numa_count());
        for comm in self.numa_ids() {
            for comp in self.numa_ids() {
                v.push((comp, comm));
            }
        }
        v
    }

    /// Human-readable one-line summary in the style of Table I.
    pub fn summary(&self) -> String {
        let total_mem: u32 = self.numa_nodes.iter().map(|n| n.memory_gb).sum();
        format!(
            "{}: {} x {} with {} cores, {} GB of RAM, {} NUMA nodes, {}",
            self.name,
            self.sockets.len(),
            self.sockets[0].processor,
            self.sockets[0].cores,
            total_mem,
            self.numa_count(),
            self.nic.tech
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::PcieGen;
    use crate::nic::NetworkTech;

    fn two_socket_machine(numa_per_socket: u16) -> MachineTopology {
        MachineTopology::homogeneous(
            "test",
            "Testor 9000",
            2,
            18,
            numa_per_socket,
            96,
            InterSocketTech::Upi,
            36.0,
            30.0,
            Nic {
                tech: NetworkTech::InfinibandEdr,
                socket: SocketId::new(0),
                pcie: PcieGen::GEN3_X16,
                closest_numa: NumaId::new(0),
            },
        )
        .unwrap()
    }

    #[test]
    fn homogeneous_builds_and_validates() {
        let m = two_socket_machine(2);
        assert_eq!(m.numa_count(), 4);
        assert_eq!(m.numa_per_socket(), 2);
        assert_eq!(m.cores_per_socket(), 18);
        m.validate().unwrap();
    }

    #[test]
    fn numa_ownership_is_socket_major() {
        let m = two_socket_machine(2);
        assert_eq!(m.socket_of_numa(NumaId::new(0)), SocketId::new(0));
        assert_eq!(m.socket_of_numa(NumaId::new(1)), SocketId::new(0));
        assert_eq!(m.socket_of_numa(NumaId::new(2)), SocketId::new(1));
        assert_eq!(m.socket_of_numa(NumaId::new(3)), SocketId::new(1));
    }

    #[test]
    fn dma_crossing_depends_on_nic_socket() {
        let m = two_socket_machine(2);
        assert!(!m.dma_crosses_socket_link(NumaId::new(0)));
        assert!(m.dma_crosses_socket_link(NumaId::new(2)));
    }

    #[test]
    fn placement_combinations_cover_the_grid() {
        let m = two_socket_machine(2);
        let combos = m.placement_combinations();
        assert_eq!(combos.len(), 16);
        // First row: comm on node 0, comp sweeping.
        assert_eq!(combos[0], (NumaId::new(0), NumaId::new(0)));
        assert_eq!(combos[1], (NumaId::new(1), NumaId::new(0)));
        // Last entry: both on last node.
        assert_eq!(combos[15], (NumaId::new(3), NumaId::new(3)));
    }

    #[test]
    fn link_between_finds_the_single_link() {
        let m = two_socket_machine(1);
        assert!(m.link_between(SocketId::new(0), SocketId::new(1)).is_some());
        assert!(m.link_between(SocketId::new(0), SocketId::new(0)).is_none());
    }

    #[test]
    fn first_numa_of_socket() {
        let m = two_socket_machine(2);
        assert_eq!(m.first_numa_of(SocketId::new(0)), NumaId::new(0));
        assert_eq!(m.first_numa_of(SocketId::new(1)), NumaId::new(2));
    }

    #[test]
    fn summary_mentions_key_facts() {
        let m = two_socket_machine(2);
        let s = m.summary();
        assert!(s.contains("test"));
        assert!(s.contains("18 cores"));
        assert!(s.contains("4 NUMA nodes"));
        assert!(s.contains("InfiniBand EDR"));
    }

    #[test]
    fn validation_rejects_nic_on_wrong_socket() {
        let mut m = two_socket_machine(2);
        m.nic.closest_numa = NumaId::new(2); // belongs to socket 1, NIC on 0
        assert!(m.validate().is_err());
    }

    #[test]
    fn validation_rejects_missing_link() {
        let mut m = two_socket_machine(1);
        m.links.clear();
        assert!(m.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_sockets() {
        let err = MachineTopology::homogeneous(
            "bad",
            "p",
            0,
            1,
            1,
            1,
            InterSocketTech::Upi,
            1.0,
            1.0,
            Nic {
                tech: NetworkTech::InfinibandEdr,
                socket: SocketId::new(0),
                pcie: PcieGen::GEN3_X16,
                closest_numa: NumaId::new(0),
            },
        );
        assert!(err.is_err());
    }
}
