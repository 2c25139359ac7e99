//! Analytic ping-pong benchmark (half round-trip time vs message size).
//!
//! Not part of the paper's evaluation (their benchmark is receive-only
//! "pongs"), but the standard way to characterise a network — and the
//! paper's future work explicitly asks what happens "if application
//! performs communications with bidirectional data movements (i.e.
//! ping-pongs instead of only pongs)". The `pingpong` example uses this
//! module to contrast unidirectional and bidirectional behaviour.

use mc_memsim::fabric::{Fabric, StreamSpec};
use mc_topology::NumaId;

use crate::protocol::ProtocolConfig;

/// One point of a ping-pong curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingPongPoint {
    /// Message size in bytes.
    pub bytes: u64,
    /// Half round-trip time, seconds.
    pub half_rtt: f64,
    /// Observed bandwidth, GB/s.
    pub bandwidth: f64,
}

/// Sweep message sizes on a platform and produce the classic ping-pong
/// curve, assuming both buffers live on `numa` and the fabric is otherwise
/// idle.
pub fn pingpong_curve(
    fabric: &Fabric,
    protocol: &ProtocolConfig,
    numa: NumaId,
    sizes: &[u64],
) -> Vec<PingPongPoint> {
    sizes
        .iter()
        .map(|&bytes| {
            let plan = protocol.plan(bytes);
            // Receive side: the DMA rate an idle fabric grants.
            let streams = [StreamSpec::DmaRecv { numa }];
            let rate = fabric.solve(&streams).rates[0];
            let half_rtt = plan.duration_at_rate(rate);
            PingPongPoint {
                bytes,
                half_rtt,
                bandwidth: bytes as f64 / half_rtt / 1e9,
            }
        })
        .collect()
}

/// Standard size ladder: powers of two from 1 B to `max` inclusive.
pub fn size_ladder(max: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut s = 1u64;
    while s <= max {
        v.push(s);
        s <<= 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_topology::platforms;

    #[test]
    fn ladder_is_powers_of_two() {
        let l = size_ladder(16);
        assert_eq!(l, vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn bandwidth_grows_with_size_and_saturates() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let proto = ProtocolConfig::for_tech(p.topology.nic.tech);
        let curve = pingpong_curve(&f, &proto, NumaId::new(0), &size_ladder(64 << 20));
        // Monotone non-decreasing bandwidth along the ladder.
        for w in curve.windows(2) {
            assert!(w[1].bandwidth >= w[0].bandwidth * 0.999);
        }
        // Large messages approach the nominal DMA rate.
        let last = curve.last().unwrap();
        let demand = f.dma_demand(NumaId::new(0));
        assert!(last.bandwidth > demand * 0.98, "{}", last.bandwidth);
        // Tiny messages are latency-bound.
        assert!(curve[0].bandwidth < 0.01);
    }

    #[test]
    fn half_rtt_has_latency_floor() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let proto = ProtocolConfig::for_tech(p.topology.nic.tech);
        let curve = pingpong_curve(&f, &proto, NumaId::new(0), &[1]);
        assert!(curve[0].half_rtt >= proto.wire_latency);
    }
}
