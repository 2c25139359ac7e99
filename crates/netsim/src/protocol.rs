//! Message-transfer protocols: eager and rendezvous.
//!
//! High-performance MPI implementations (the paper uses MadMPI, the MPI
//! interface of NewMadeleine) send small messages *eagerly* (payload rides
//! along the first packet) and large messages with a *rendezvous* protocol:
//! the sender posts a Request-To-Send, the receiver answers Clear-To-Send
//! once the receive buffer is known, and the NIC then moves the payload by
//! RDMA directly into the destination buffer. The paper's benchmark
//! exchanges 64 MB messages, firmly in rendezvous territory; the eager path
//! is implemented for completeness (and for the ping-pong example).

use mc_topology::NetworkTech;

/// Protocol configuration for one NIC/library pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// Messages up to this size (bytes) are sent eagerly.
    pub eager_threshold: u64,
    /// Fixed software overhead per message on each side, seconds
    /// (descriptor preparation, completion handling).
    pub sw_overhead: f64,
    /// One-way wire latency for control messages, seconds.
    pub wire_latency: f64,
}

impl ProtocolConfig {
    /// Default configuration for a network technology: 32 KiB eager
    /// threshold (MadMPI/NewMadeleine ballpark), latency from the
    /// technology table, 0.3 µs software overhead per message.
    pub fn for_tech(tech: NetworkTech) -> Self {
        ProtocolConfig {
            eager_threshold: 32 * 1024,
            sw_overhead: 0.3e-6,
            wire_latency: tech.small_message_latency_us() * 1e-6,
        }
    }

    /// Is a message of `bytes` sent eagerly?
    pub fn is_eager(&self, bytes: u64) -> bool {
        bytes <= self.eager_threshold
    }

    /// Build the transfer plan for a message of `bytes`.
    pub fn plan(&self, bytes: u64) -> TransferPlan {
        if self.is_eager(bytes) {
            TransferPlan {
                mode: TransferMode::Eager,
                // Eager: one-way latency plus software overhead, then the
                // payload streams.
                pre_transfer: self.wire_latency + self.sw_overhead,
                payload: bytes,
                post_transfer: self.sw_overhead,
            }
        } else {
            TransferPlan {
                mode: TransferMode::Rendezvous,
                // RTS + CTS round trip plus overhead on both sides.
                pre_transfer: 2.0 * self.wire_latency + 2.0 * self.sw_overhead,
                payload: bytes,
                post_transfer: self.sw_overhead,
            }
        }
    }
}

/// Which protocol path a message takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Payload piggybacks on the first packet(s).
    Eager,
    /// RTS/CTS handshake, then RDMA of the payload.
    Rendezvous,
}

/// Timing skeleton of one message transfer. The payload phase streams at
/// whatever rate the memory fabric grants the DMA flow; the pre/post phases
/// are fixed latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferPlan {
    /// Protocol path taken.
    pub mode: TransferMode,
    /// Seconds before the payload starts moving.
    pub pre_transfer: f64,
    /// Payload bytes moved by DMA.
    pub payload: u64,
    /// Seconds of wrap-up after the payload lands.
    pub post_transfer: f64,
}

impl TransferPlan {
    /// Total transfer time given a payload rate in GB/s.
    pub fn duration_at_rate(&self, rate_gbs: f64) -> f64 {
        assert!(rate_gbs > 0.0, "rate must be positive");
        self.pre_transfer + self.payload as f64 / (rate_gbs * 1e9) + self.post_transfer
    }

    /// Observed bandwidth (GB/s) for this message at a payload rate: bytes
    /// divided by total time, protocol overheads included — this is what a
    /// benchmark measuring "message size over the necessary time to receive
    /// data" reports.
    pub fn observed_bandwidth(&self, rate_gbs: f64) -> f64 {
        self.payload as f64 / self.duration_at_rate(rate_gbs) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::for_tech(NetworkTech::InfinibandEdr)
    }

    #[test]
    fn small_messages_are_eager() {
        assert!(cfg().is_eager(1024));
        assert_eq!(cfg().plan(1024).mode, TransferMode::Eager);
    }

    #[test]
    fn large_messages_use_rendezvous() {
        let plan = cfg().plan(64 * 1024 * 1024);
        assert_eq!(plan.mode, TransferMode::Rendezvous);
        // Rendezvous pays a full round trip before the payload moves.
        assert!(plan.pre_transfer > cfg().plan(1024).pre_transfer);
    }

    #[test]
    fn threshold_is_inclusive() {
        let c = cfg();
        assert!(c.is_eager(c.eager_threshold));
        assert!(!c.is_eager(c.eager_threshold + 1));
    }

    #[test]
    fn observed_bandwidth_below_payload_rate() {
        let plan = cfg().plan(64 * 1024 * 1024);
        let rate = 11.3;
        let bw = plan.observed_bandwidth(rate);
        assert!(bw < rate);
        // ...but 64 MB messages amortise the handshake almost entirely.
        assert!(bw > rate * 0.99, "{bw}");
    }

    #[test]
    fn small_message_bandwidth_is_latency_bound() {
        let plan = cfg().plan(1024);
        let bw = plan.observed_bandwidth(11.3);
        // 1 KiB in ~1.2 µs is well below 1 GB/s.
        assert!(bw < 1.0, "{bw}");
    }

    #[test]
    fn duration_decreases_with_rate() {
        let plan = cfg().plan(1 << 20);
        assert!(plan.duration_at_rate(10.0) < plan.duration_at_rate(5.0));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        cfg().plan(1024).duration_at_rate(0.0);
    }

    #[test]
    fn omnipath_has_higher_latency_than_ib() {
        let ib = ProtocolConfig::for_tech(NetworkTech::InfinibandEdr);
        let opa = ProtocolConfig::for_tech(NetworkTech::OmniPath100);
        assert!(opa.wire_latency > ib.wire_latency);
    }
}
