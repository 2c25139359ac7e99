//! Network interface description: technology, wire rate, attachment point.

use std::fmt;

use crate::ids::{NumaId, SocketId};
use crate::link::PcieGen;

/// High-speed interconnect technologies used by the paper's testbed
/// (Table I). Only fast networks are considered, "where contention occurs
/// more".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkTech {
    /// InfiniBand FDR: 56 Gb/s signalling, ≈ 6.8 GB/s payload.
    InfinibandFdr,
    /// InfiniBand EDR: 100 Gb/s signalling, ≈ 12.3 GB/s payload.
    InfinibandEdr,
    /// InfiniBand HDR: 200 Gb/s signalling, ≈ 24.6 GB/s payload.
    InfinibandHdr,
    /// Intel Omni-Path 100 series: 100 Gb/s signalling, ≈ 12.3 GB/s payload.
    OmniPath100,
}

impl NetworkTech {
    /// Raw payload wire rate in GB/s (after encoding), before any protocol
    /// or PCIe overhead. This is the upper bound a perfect benchmark could
    /// observe for very large messages.
    pub fn wire_rate(self) -> f64 {
        match self {
            NetworkTech::InfinibandFdr => 6.8,
            NetworkTech::InfinibandEdr => 12.3,
            NetworkTech::InfinibandHdr => 24.6,
            NetworkTech::OmniPath100 => 12.3,
        }
    }

    /// One-way wire latency in microseconds for a small control message
    /// (used by the rendezvous handshake in the protocol simulator).
    pub fn small_message_latency_us(self) -> f64 {
        match self {
            NetworkTech::InfinibandFdr => 1.1,
            NetworkTech::InfinibandEdr => 0.9,
            NetworkTech::InfinibandHdr => 0.8,
            // Omni-Path is an "onloaded" design: the host CPU runs more of
            // the protocol, giving slightly higher small-message latency.
            NetworkTech::OmniPath100 => 1.3,
        }
    }

    /// Fraction of the wire rate a well-tuned receive benchmark achieves
    /// with 64 MB messages (protocol efficiency). Omni-Path's PIO/onload
    /// design loses a little more than InfiniBand's full offload.
    pub fn protocol_efficiency(self) -> f64 {
        match self {
            NetworkTech::InfinibandFdr => 0.92,
            NetworkTech::InfinibandEdr => 0.92,
            NetworkTech::InfinibandHdr => 0.93,
            NetworkTech::OmniPath100 => 0.86,
        }
    }
}

impl fmt::Display for NetworkTech {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NetworkTech::InfinibandFdr => "InfiniBand FDR",
            NetworkTech::InfinibandEdr => "InfiniBand EDR",
            NetworkTech::InfinibandHdr => "InfiniBand HDR",
            NetworkTech::OmniPath100 => "Omni-Path 100",
        };
        f.write_str(s)
    }
}

/// A network interface card and where it is plugged.
///
/// The NIC sits behind a PCIe link attached to one socket; received data is
/// DMA-written to the NUMA node holding the communication buffer, crossing
/// the inter-socket bus when that node belongs to the other socket. Knowing
/// the attachment socket is essential: the paper observes (diablo) that
/// network bandwidth can almost double when the destination buffer is local
/// to the NIC's socket.
#[derive(Debug, Clone, PartialEq)]
pub struct Nic {
    /// Interconnect technology.
    pub tech: NetworkTech,
    /// Socket whose PCIe root complex hosts the NIC.
    pub socket: SocketId,
    /// PCIe attachment.
    pub pcie: PcieGen,
    /// NUMA node closest to the NIC (first node of `socket` unless the
    /// platform says otherwise). DMA to this node never crosses the
    /// inter-socket bus.
    pub closest_numa: NumaId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_rates_are_ordered() {
        assert!(NetworkTech::InfinibandFdr.wire_rate() < NetworkTech::InfinibandEdr.wire_rate());
        assert!(NetworkTech::InfinibandEdr.wire_rate() < NetworkTech::InfinibandHdr.wire_rate());
    }

    #[test]
    fn display_names() {
        assert_eq!(NetworkTech::OmniPath100.to_string(), "Omni-Path 100");
    }
}
