//! The receive-side NIC model: turns message streams into engine
//! activities and answers bandwidth questions.

use mc_memsim::engine::{Activity, ActivityKind};
use mc_memsim::fabric::Fabric;
use mc_topology::NumaId;

use crate::protocol::ProtocolConfig;

/// Receive-side model of the platform's NIC.
///
/// Wraps the fabric's DMA path with the message protocol: a stream of
/// back-to-back messages becomes a [`mc_memsim::engine::ActivityKind::CommRecv`]
/// whose handshake/gap timings come from the protocol plan.
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

    /// Build the engine activity for receiving `msg_bytes`-sized messages
    /// back to back into `numa`, starting at `start`.
    pub fn receive_activity(&self, numa: NumaId, msg_bytes: u64, start: f64) -> Activity {
        let plan = self.protocol.plan(msg_bytes);
        Activity {
            kind: ActivityKind::CommRecv {
                numa,
                msg_bytes: plan.payload as f64,
                handshake: plan.pre_transfer,
                gap: plan.post_transfer,
            },
            start,
        }
    }

    /// Build the engine activity for sending `msg_bytes`-sized messages
    /// back to back out of `numa` (the NIC reads the payload from memory),
    /// starting at `start`. Timings mirror [`NicModel::receive_activity`]:
    /// the rendezvous handshake and inter-message gap are symmetric.
    pub fn send_activity(&self, numa: NumaId, msg_bytes: u64, start: f64) -> Activity {
        let plan = self.protocol.plan(msg_bytes);
        Activity {
            kind: ActivityKind::CommSend {
                numa,
                msg_bytes: plan.payload as f64,
                handshake: plan.pre_transfer,
                gap: plan.post_transfer,
            },
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

    #[test]
    fn activity_carries_protocol_timings() {
        let f = Fabric::new(&platforms::henri());
        let nic = NicModel::new(&f);
        let act = nic.receive_activity(NumaId::new(0), 64 << 20, 0.0);
        match act.kind {
            ActivityKind::CommRecv {
                msg_bytes,
                handshake,
                gap,
                ..
            } => {
                assert_eq!(msg_bytes, (64u64 << 20) as f64);
                assert!(handshake > 0.0);
                assert!(gap > 0.0);
            }
            _ => panic!("wrong activity kind"),
        }
    }

    #[test]
    fn send_activity_mirrors_receive_timings() {
        let f = Fabric::new(&platforms::henri());
        let nic = NicModel::new(&f);
        let recv = nic.receive_activity(NumaId::new(0), 64 << 20, 0.0);
        let send = nic.send_activity(NumaId::new(0), 64 << 20, 0.0);
        match (recv.kind, send.kind) {
            (
                ActivityKind::CommRecv {
                    msg_bytes: rb,
                    handshake: rh,
                    gap: rg,
                    numa: rn,
                },
                ActivityKind::CommSend {
                    msg_bytes: sb,
                    handshake: sh,
                    gap: sg,
                    numa: sn,
                },
            ) => {
                assert_eq!(rb, sb);
                assert_eq!(rh, sh);
                assert_eq!(rg, sg);
                assert_eq!(rn, sn);
            }
            _ => panic!("wrong activity kinds"),
        }
    }

    #[test]
    fn nominal_matches_engine_run() {
        let f = Fabric::new(&platforms::henri());
        let nic = NicModel::new(&f);
        let nominal = nic.nominal_receive(&f, NumaId::new(0), 64 << 20);
        let act = nic.receive_activity(NumaId::new(0), 64 << 20, 0.0);
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
