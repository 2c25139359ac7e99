//! The declarative resource graph: every capacity-bearing hardware
//! component of a platform as a named node with its capacity rule.
//!
//! [`ResourceGraph::for_topology`] enumerates the nodes of a
//! [`MachineTopology`], each a [`ResourceKind`] with a [`CapacityRule`]
//! saying how its effective capacity is computed. The graph knows
//! nothing of streams: `mc_memsim::fabric` routes each stream to the
//! ordered node indices it occupies, and the progressive-filling solver
//! downstream consumes plain indices and never learns what a node *is*.
//!
//! ## Bit-identity invariants
//!
//! The node emission order reproduces the historical hardwired builder
//! exactly, so solves on pre-existing platforms stay bit-identical:
//!
//! * nodes: one `MemCtrl` per NUMA node (machine order), then two
//!   `LinkDir` per inter-socket link (a→b, then b→a), then
//!   `Pcie(nic.socket)`, then `NicWire` — and only *after* all of
//!   those, CXL ports/controllers (two nodes per pool, port before
//!   controller), so platforms without pools get the same indices as
//!   before the graph existed;
//! * `Fixed` capacities are evaluated here with the same expressions
//!   the legacy builder used, so the floats are identical to the bit.

use std::collections::HashMap;

use crate::ids::{NumaId, PoolId, SocketId};
use crate::machine::MachineTopology;

/// What kind of hardware component a resource node denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// The memory controller of one NUMA node.
    MemCtrl(NumaId),
    /// One direction of an inter-socket link.
    LinkDir {
        /// Source socket.
        from: SocketId,
        /// Destination socket.
        to: SocketId,
    },
    /// The PCIe link hosting the NIC.
    Pcie(SocketId),
    /// The NIC wire (network line rate after protocol efficiency).
    NicWire,
    /// The CXL ports into one pool (aggregate of all ports).
    CxlPort(PoolId),
    /// The internal memory controller of one CXL pool.
    CxlCtrl(PoolId),
}

/// How a node's effective capacity is obtained at solve time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityRule {
    /// Constant bandwidth in GB/s, precomputed when the graph is built.
    Fixed(f64),
    /// A NUMA memory controller: capacity depends on how many CPU and
    /// DMA accessors currently target the node, so the simulator
    /// evaluates it per solve from the behavioural spec.
    Controller(NumaId),
}

/// One capacity-bearing node of the graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceNode {
    /// What the node is.
    pub kind: ResourceKind,
    /// How its capacity is computed.
    pub capacity: CapacityRule,
}

/// The resource graph of one machine. Build once per platform.
#[derive(Debug, Clone)]
pub struct ResourceGraph {
    nodes: Vec<ResourceNode>,
    index: HashMap<ResourceKind, usize>,
}

impl ResourceGraph {
    /// Enumerate every capacity-bearing component of `topo` in the
    /// canonical order documented on the module.
    pub fn for_topology(topo: &MachineTopology) -> Self {
        let mut nodes = Vec::new();
        for n in topo.numa_ids() {
            nodes.push(ResourceNode {
                kind: ResourceKind::MemCtrl(n),
                capacity: CapacityRule::Controller(n),
            });
        }
        for link in &topo.links {
            nodes.push(ResourceNode {
                kind: ResourceKind::LinkDir {
                    from: link.a,
                    to: link.b,
                },
                capacity: CapacityRule::Fixed(link.cpu_bandwidth),
            });
            nodes.push(ResourceNode {
                kind: ResourceKind::LinkDir {
                    from: link.b,
                    to: link.a,
                },
                capacity: CapacityRule::Fixed(link.cpu_bandwidth),
            });
        }
        nodes.push(ResourceNode {
            kind: ResourceKind::Pcie(topo.nic.socket),
            capacity: CapacityRule::Fixed(topo.nic.pcie.usable_bandwidth()),
        });
        nodes.push(ResourceNode {
            kind: ResourceKind::NicWire,
            capacity: CapacityRule::Fixed(
                topo.nic.tech.wire_rate() * topo.nic.tech.protocol_efficiency(),
            ),
        });
        // CXL nodes strictly after every legacy node: platforms without
        // pools keep their historical indices bit-for-bit.
        for pool in &topo.cxl_pools {
            nodes.push(ResourceNode {
                kind: ResourceKind::CxlPort(pool.id),
                capacity: CapacityRule::Fixed(pool.total_port_bandwidth()),
            });
            nodes.push(ResourceNode {
                kind: ResourceKind::CxlCtrl(pool.id),
                capacity: CapacityRule::Fixed(pool.pool_bandwidth),
            });
        }
        let index = nodes.iter().enumerate().map(|(i, n)| (n.kind, i)).collect();
        ResourceGraph { nodes, index }
    }

    /// All nodes, canonical order.
    pub fn nodes(&self) -> &[ResourceNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (never true for a valid machine).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Index of a resource kind, if the machine has it.
    pub fn index_of(&self, kind: ResourceKind) -> Option<usize> {
        self.index.get(&kind).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms;

    #[test]
    fn legacy_node_order_is_preserved() {
        let p = platforms::henri();
        let g = ResourceGraph::for_topology(&p.topology);
        let kinds: Vec<ResourceKind> = g.nodes().iter().map(|n| n.kind).collect();
        assert_eq!(
            kinds,
            [
                ResourceKind::MemCtrl(NumaId::new(0)),
                ResourceKind::MemCtrl(NumaId::new(1)),
                ResourceKind::LinkDir {
                    from: SocketId::new(0),
                    to: SocketId::new(1)
                },
                ResourceKind::LinkDir {
                    from: SocketId::new(1),
                    to: SocketId::new(0)
                },
                ResourceKind::Pcie(SocketId::new(0)),
                ResourceKind::NicWire,
            ]
        );
    }

    #[test]
    fn cxl_nodes_append_after_the_legacy_set() {
        let base = platforms::henri();
        let cxl = platforms::henri_cxl();
        let g_base = ResourceGraph::for_topology(&base.topology);
        let g_cxl = ResourceGraph::for_topology(&cxl.topology);
        let base_kinds: Vec<ResourceKind> = g_base.nodes().iter().map(|n| n.kind).collect();
        let cxl_kinds: Vec<ResourceKind> = g_cxl.nodes().iter().map(|n| n.kind).collect();
        assert_eq!(&cxl_kinds[..base_kinds.len()], &base_kinds[..]);
        assert_eq!(
            &cxl_kinds[base_kinds.len()..],
            [
                ResourceKind::CxlPort(PoolId::new(0)),
                ResourceKind::CxlCtrl(PoolId::new(0)),
            ]
        );
    }

    #[test]
    fn fixed_capacities_match_the_legacy_expressions() {
        let p = platforms::diablo();
        let g = ResourceGraph::for_topology(&p.topology);
        let topo = &p.topology;
        for node in g.nodes() {
            match (node.kind, node.capacity) {
                (ResourceKind::LinkDir { from, to }, CapacityRule::Fixed(c)) => {
                    let l = topo.link_between(from, to).unwrap();
                    assert_eq!(c.to_bits(), l.cpu_bandwidth.to_bits());
                }
                (ResourceKind::Pcie(_), CapacityRule::Fixed(c)) => {
                    assert_eq!(c.to_bits(), topo.nic.pcie.usable_bandwidth().to_bits());
                }
                (ResourceKind::NicWire, CapacityRule::Fixed(c)) => {
                    let w = topo.nic.tech.wire_rate() * topo.nic.tech.protocol_efficiency();
                    assert_eq!(c.to_bits(), w.to_bits());
                }
                (ResourceKind::MemCtrl(n), CapacityRule::Controller(m)) => assert_eq!(n, m),
                other => panic!("unexpected node {other:?}"),
            }
        }
    }
}
