//! Inter-component links: inter-socket buses and PCIe attachments.

use std::fmt;

use crate::ids::SocketId;

/// The technology of an inter-socket bus. The paper (Fig. 1) notes the bus is
/// called *Ultra Path Interconnect* (UPI) on Intel, *Infinity Fabric* (IF) on
/// AMD; ARM ThunderX2 uses *Cavium Coherent Processor Interconnect* (CCPI),
/// and the older occigen platform uses *QuickPath Interconnect* (QPI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterSocketTech {
    /// Intel Ultra Path Interconnect (Skylake-SP and later).
    Upi,
    /// Intel QuickPath Interconnect (pre-Skylake Xeons).
    Qpi,
    /// AMD Infinity Fabric (xGMI between sockets).
    InfinityFabric,
    /// Cavium/Marvell Coherent Processor Interconnect (ThunderX2).
    Ccpi2,
}

impl fmt::Display for InterSocketTech {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InterSocketTech::Upi => "UPI",
            InterSocketTech::Qpi => "QPI",
            InterSocketTech::InfinityFabric => "Infinity Fabric",
            InterSocketTech::Ccpi2 => "CCPI2",
        };
        f.write_str(s)
    }
}

/// A PCI Express generation/width, used for the NIC attachment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PcieGen {
    /// PCIe generation (3 or 4 on the paper's platforms).
    pub generation: u8,
    /// Number of lanes (x16 for all HPC NICs considered).
    pub lanes: u8,
}

impl PcieGen {
    /// PCIe 3.0 x16, the attachment of EDR InfiniBand and Omni-Path NICs.
    pub const GEN3_X16: PcieGen = PcieGen {
        generation: 3,
        lanes: 16,
    };
    /// PCIe 4.0 x16, the attachment of HDR InfiniBand NICs (diablo).
    pub const GEN4_X16: PcieGen = PcieGen {
        generation: 4,
        lanes: 16,
    };

    /// Usable (payload) bandwidth in GB/s, after encoding and protocol
    /// overheads. Gen3 x16 delivers ≈ 13.8 GB/s of payload in practice,
    /// gen4 x16 about twice that.
    pub fn usable_bandwidth(self) -> f64 {
        // Per-lane payload bandwidth in GB/s after 128b/130b encoding and
        // ~13% TLP header overhead (measured values from vendor tuning
        // guides rather than the raw signalling rate).
        let per_lane = match self.generation {
            1 => 0.21,
            2 => 0.42,
            3 => 0.86,
            4 => 1.72,
            _ => 3.4, // gen5+
        };
        per_lane * f64::from(self.lanes)
    }
}

impl fmt::Display for PcieGen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PCIe {}.0 x{}", self.generation, self.lanes)
    }
}

/// An inter-socket link between two sockets.
///
/// Capacities are *per direction*: the benchmark only streams data in one
/// direction at a time (computation writes, communication receives), so the
/// simulator models each direction as an independent resource.
#[derive(Debug, Clone, PartialEq)]
pub struct InterSocketLink {
    /// One endpoint.
    pub a: SocketId,
    /// The other endpoint.
    pub b: SocketId,
    /// Bus technology (display/documentation only; behaviour is carried by
    /// the capacity numbers).
    pub tech: InterSocketTech,
    /// Usable bandwidth in GB/s per direction for CPU-initiated traffic.
    pub cpu_bandwidth: f64,
    /// Usable bandwidth in GB/s per direction for DMA (PCIe-originated)
    /// traffic crossing the bus. On some machines (diablo) this is markedly
    /// lower than `cpu_bandwidth` because I/O traffic takes a narrower path
    /// through the fabric, which is what makes the NIC locality-sensitive.
    pub dma_bandwidth: f64,
}

impl InterSocketLink {
    /// Whether this link connects `x` and `y` (in either order).
    pub fn connects(&self, x: SocketId, y: SocketId) -> bool {
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_bandwidth_is_monotonic_in_generation() {
        assert!(PcieGen::GEN4_X16.usable_bandwidth() > PcieGen::GEN3_X16.usable_bandwidth());
    }

    #[test]
    fn pcie_gen3_x16_close_to_measured() {
        let bw = PcieGen::GEN3_X16.usable_bandwidth();
        assert!((12.0..15.0).contains(&bw), "got {bw}");
    }

    #[test]
    fn link_connects_is_symmetric() {
        let l = InterSocketLink {
            a: SocketId::new(0),
            b: SocketId::new(1),
            tech: InterSocketTech::Upi,
            cpu_bandwidth: 36.0,
            dma_bandwidth: 30.0,
        };
        assert!(l.connects(SocketId::new(0), SocketId::new(1)));
        assert!(l.connects(SocketId::new(1), SocketId::new(0)));
        assert!(!l.connects(SocketId::new(0), SocketId::new(2)));
    }

    #[test]
    fn tech_display() {
        assert_eq!(
            InterSocketTech::InfinityFabric.to_string(),
            "Infinity Fabric"
        );
        assert_eq!(PcieGen::GEN3_X16.to_string(), "PCIe 3.0 x16");
    }
}
