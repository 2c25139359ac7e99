//! CXL.mem pools: fabric-attached memory shared by the whole node.
//!
//! A pool is a memory device reached through CXL ports hanging off one
//! socket. Unlike a NUMA node, its bandwidth is not arbitrated by a
//! socket's memory controller: accesses ride the CXL ports (each with
//! its own line rate) and then the pool's internal controller. Ranks
//! can use a pool as a *communication medium* — the writer stores a
//! message into pooled memory and the reader loads it back, no NIC
//! involved — which is the message-free scenario of Vanecek et al.
//! ("Modeling the Potential of Message-Free Communication via
//! CXL.mem").

use crate::ids::{PoolId, SocketId};

/// One CXL.mem pool attached to the node.
///
/// All bandwidths are GB/s, the latency is in seconds. Every bandwidth
/// must be finite and positive (enforced by
/// [`crate::machine::MachineTopology::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CxlPool {
    /// Identifier (also its index in
    /// [`crate::machine::MachineTopology::cxl_pools`]).
    pub id: PoolId,
    /// Socket whose root complex hosts the CXL ports.
    pub socket: SocketId,
    /// Number of CXL ports into the pool. Concurrent streams spread
    /// over the ports; the port resource caps their aggregate.
    pub ports: u16,
    /// Usable bandwidth of one CXL port, GB/s (a CXL 2.0 x8 port
    /// carries ≈ 25 GB/s raw; usable payload rates are lower).
    pub port_bandwidth: f64,
    /// Aggregate bandwidth of the pool's internal memory controller,
    /// GB/s — the device-side bottleneck all ports share.
    pub pool_bandwidth: f64,
    /// Bandwidth a single load/store stream sustains against the pool,
    /// GB/s. CXL.mem adds protocol hops a core cannot hide, so one
    /// stream achieves well below a local-DRAM stream.
    pub stream_bandwidth: f64,
    /// One-way access latency in seconds (link + controller).
    pub latency: f64,
}

impl CxlPool {
    /// Total port-side bandwidth: ports × per-port rate.
    pub fn total_port_bandwidth(&self) -> f64 {
        f64::from(self.ports) * self.port_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_bandwidth_aggregates() {
        let pool = CxlPool {
            id: PoolId::new(0),
            socket: SocketId::new(0),
            ports: 4,
            port_bandwidth: 8.0,
            pool_bandwidth: 24.0,
            stream_bandwidth: 6.0,
            latency: 0.4e-6,
        };
        assert!((pool.total_port_bandwidth() - 32.0).abs() < 1e-12);
    }
}
