//! The NIC model: turns message streams into engine activities and
//! answers bandwidth questions.

use mc_memsim::engine::Activity;
use mc_memsim::fabric::{Fabric, StreamSpec};
use mc_topology::NumaId;

use crate::protocol::ProtocolConfig;

/// Model of the platform's NIC.
///
/// Wraps the fabric's DMA paths with the message protocol: a stream of
/// back-to-back messages becomes an [`Activity`] whose lead is the
/// rendezvous handshake and whose tail is the inter-message gap, both
/// from the protocol plan.
#[derive(Debug, Clone)]
pub struct NicModel {
    protocol: ProtocolConfig,
}

/// Summary of the NIC's nominal behaviour towards one NUMA node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NominalReceive {
    /// DMA payload rate granted by an otherwise idle fabric, GB/s.
    pub payload_rate: f64,
    /// Observed bandwidth for one message (protocol overheads included),
    /// GB/s.
    pub observed_bandwidth: f64,
}

impl NicModel {
    /// Model the NIC of `fabric`'s platform with its default protocol
    /// configuration.
    pub fn new(fabric: &Fabric) -> Self {
        NicModel {
            protocol: ProtocolConfig::for_tech(fabric.platform().topology.nic.tech),
        }
    }

    /// The protocol configuration in use.
    pub fn protocol(&self) -> &ProtocolConfig {
        &self.protocol
    }

    /// Build the engine activity that moves `msg_bytes`-sized messages
    /// back to back as the DMA stream `spec` (a receive or a send: the
    /// handshake and gap are symmetric), starting at `start`.
    pub fn activity(&self, spec: StreamSpec, msg_bytes: u64, start: f64) -> Activity {
        let plan = self.protocol.plan(msg_bytes);
        Activity {
            spec,
            unit_bytes: plan.payload as f64,
            lead: plan.pre_transfer,
            tail: plan.post_transfer,
            start,
        }
    }

    /// Nominal (contention-free) receive behaviour into `numa`.
    pub fn nominal_receive(&self, fabric: &Fabric, numa: NumaId, msg_bytes: u64) -> NominalReceive {
        let payload_rate = fabric.dma_demand(numa);
        let plan = self.protocol.plan(msg_bytes);
        NominalReceive {
            payload_rate,
            observed_bandwidth: plan.observed_bandwidth(payload_rate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_memsim::engine::Engine;
    use mc_topology::platforms;

    fn recv(numa: NumaId) -> StreamSpec {
        StreamSpec::DmaRecv { numa }
    }

    #[test]
    fn activity_carries_protocol_timings() {
        let f = Fabric::new(&platforms::henri());
        let nic = NicModel::new(&f);
        let act = nic.activity(recv(NumaId::new(0)), 64 << 20, 0.0);
        assert_eq!(act.spec, recv(NumaId::new(0)));
        assert_eq!(act.unit_bytes, (64u64 << 20) as f64);
        assert!(act.lead > 0.0);
        assert!(act.tail > 0.0);
    }

    #[test]
    fn send_activity_mirrors_receive_timings() {
        let f = Fabric::new(&platforms::henri());
        let nic = NicModel::new(&f);
        let numa = NumaId::new(0);
        let recv = nic.activity(recv(numa), 64 << 20, 0.0);
        let send = nic.activity(StreamSpec::DmaSend { numa }, 64 << 20, 0.0);
        assert_eq!(send.spec, StreamSpec::DmaSend { numa });
        assert_eq!(
            Activity {
                spec: recv.spec,
                ..send
            },
            recv
        );
    }

    #[test]
    fn nominal_matches_engine_run() {
        let f = Fabric::new(&platforms::henri());
        let nic = NicModel::new(&f);
        let nominal = nic.nominal_receive(&f, NumaId::new(0), 64 << 20);
        let act = nic.activity(recv(NumaId::new(0)), 64 << 20, 0.0);
        let report = Engine::new(&f).run(&[act], 0.05, 0.4);
        let measured = report.activities[0].bandwidth;
        assert!(
            (measured - nominal.observed_bandwidth).abs() / nominal.observed_bandwidth < 0.01,
            "measured {measured}, nominal {}",
            nominal.observed_bandwidth
        );
    }

    #[test]
    fn diablo_nominal_reflects_nic_locality() {
        let f = Fabric::new(&platforms::diablo());
        let nic = NicModel::new(&f);
        let near = nic.nominal_receive(&f, NumaId::new(1), 64 << 20);
        let far = nic.nominal_receive(&f, NumaId::new(0), 64 << 20);
        assert!(near.observed_bandwidth > 1.7 * far.observed_bandwidth);
    }
}
