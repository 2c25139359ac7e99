//! Collective-operation cost estimation under memory contention.
//!
//! Runtime systems do not only overlap point-to-point halos; they overlap
//! *collectives* (allreduce in particular) with computation. This module
//! combines the classic α–β cost models of collective algorithms with the
//! contended communication bandwidth the paper's model predicts, so a
//! runtime can ask: "how long will my 64 MB ring allreduce take while 17
//! cores are streaming?"
//!
//! Bandwidth terms use the *contended* rate from
//! [`ContentionModel::predict`]; latency terms take a per-message
//! handshake cost.

use mc_topology::NumaId;

use crate::placement::ContentionModel;

/// Which collective to estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// Binomial-tree broadcast: ⌈log₂ P⌉ rounds of the full payload.
    Broadcast,
    /// Flat gather/scatter through the root's NIC: `P − 1` payloads
    /// serialised on one wire.
    Gather,
    /// Ring allgather: `P − 1` rounds of the per-rank payload.
    AllgatherRing,
    /// Ring allreduce (reduce-scatter + allgather): `2·(P − 1)` rounds of
    /// `payload / P` chunks.
    AllreduceRing,
}

/// One estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveEstimate {
    /// Number of sequential communication rounds.
    pub rounds: usize,
    /// Bytes moved through a single rank's NIC per round.
    pub bytes_per_round: f64,
    /// Contended communication bandwidth used, GB/s.
    pub bandwidth: f64,
    /// Estimated completion time, seconds.
    pub time: f64,
}

/// Estimate a collective's completion time on `ranks` nodes, each shaped
/// like the modelled machine, while `n_cores` of each node compute against
/// `m_comp` and communication buffers live on `m_comm`.
///
/// `payload` is the collective's logical payload in bytes (per rank for
/// gather/allgather; total for broadcast/allreduce); `handshake` is the
/// per-message latency cost in seconds.
#[allow(clippy::too_many_arguments)]
pub fn estimate_collective(
    model: &ContentionModel,
    op: Collective,
    ranks: usize,
    payload: f64,
    n_cores: usize,
    m_comp: NumaId,
    m_comm: NumaId,
    handshake: f64,
) -> CollectiveEstimate {
    assert!(ranks >= 2, "a collective needs at least two ranks");
    let contended = model.predict(n_cores, m_comp, m_comm).comm * 1e9;
    // Ring algorithms send and receive simultaneously on every rank; the
    // simulated NIC wire is a single shared resource (half-duplex), so a
    // direction can never exceed half the *nominal* wire rate — but when
    // memory contention already throttles each flow below that, the wire
    // is not the binding constraint. Tree/flat algorithms keep each
    // endpoint unidirectional per round.
    let nominal = model.predict_alone(n_cores, m_comp, m_comm).comm * 1e9;
    let ring_bw = contended.min(nominal / 2.0);
    let (rounds, bytes_per_round, bw) = match op {
        Collective::Broadcast => ((ranks as f64).log2().ceil() as usize, payload, contended),
        Collective::Gather => (ranks - 1, payload, contended),
        Collective::AllgatherRing => (ranks - 1, payload, ring_bw),
        Collective::AllreduceRing => (2 * (ranks - 1), payload / ranks as f64, ring_bw),
    };
    let time = rounds as f64 * (handshake + bytes_per_round / bw);
    CollectiveEstimate {
        rounds,
        bytes_per_round,
        bandwidth: bw / 1e9,
        time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_membench::{calibration_sweeps, BenchConfig};
    use mc_mpisim::{allgather_ring, allreduce_ring, broadcast, World};
    use mc_topology::platforms;

    fn model_for(p: &mc_topology::Platform) -> ContentionModel {
        let (local, remote) = calibration_sweeps(p, BenchConfig::exact());
        ContentionModel::calibrate(&p.topology, &local, &remote).unwrap()
    }

    const HANDSHAKE: f64 = 2.1e-6; // EDR rendezvous round trip

    #[test]
    fn allreduce_estimate_matches_simulation_without_compute() {
        let p = platforms::henri();
        let m = model_for(&p);
        for &ranks in &[2usize, 4, 8] {
            let est = estimate_collective(
                &m,
                Collective::AllreduceRing,
                ranks,
                64e6,
                0,
                NumaId::new(0),
                NumaId::new(0),
                HANDSHAKE,
            );
            let mut w = World::homogeneous(&p, ranks);
            let sim = allreduce_ring(&mut w, NumaId::new(0), 64 << 20).unwrap();
            // The estimate uses 64e6 vs the simulation's 64 MiB and ignores
            // ramp effects; agreement within 15 % is the useful bar.
            let rel = (est.time - sim).abs() / sim;
            assert!(
                rel < 0.15,
                "P={ranks}: est {:.4}s vs sim {sim:.4}s",
                est.time
            );
        }
    }

    #[test]
    fn broadcast_estimate_matches_simulation() {
        let p = platforms::henri();
        let m = model_for(&p);
        for &ranks in &[2usize, 4, 8] {
            let est = estimate_collective(
                &m,
                Collective::Broadcast,
                ranks,
                8e6,
                0,
                NumaId::new(0),
                NumaId::new(0),
                HANDSHAKE,
            );
            let mut w = World::homogeneous(&p, ranks);
            let sim = broadcast(&mut w, 0, NumaId::new(0), 8 << 20).unwrap();
            let rel = (est.time - sim).abs() / sim;
            assert!(
                rel < 0.15,
                "P={ranks}: est {:.5}s vs sim {sim:.5}s",
                est.time
            );
        }
    }

    #[test]
    fn allgather_estimate_matches_simulation() {
        let p = platforms::henri();
        let m = model_for(&p);
        let est = estimate_collective(
            &m,
            Collective::AllgatherRing,
            6,
            8e6,
            0,
            NumaId::new(0),
            NumaId::new(0),
            HANDSHAKE,
        );
        let mut w = World::homogeneous(&p, 6);
        let sim = allgather_ring(&mut w, NumaId::new(0), 8 << 20).unwrap();
        let rel = (est.time - sim).abs() / sim;
        assert!(rel < 0.15, "est {:.4}s vs sim {sim:.4}s", est.time);
    }

    #[test]
    fn contention_slows_the_estimated_collective() {
        let p = platforms::henri();
        let m = model_for(&p);
        let quiet = estimate_collective(
            &m,
            Collective::AllreduceRing,
            4,
            64e6,
            0,
            NumaId::new(0),
            NumaId::new(0),
            HANDSHAKE,
        );
        let contended = estimate_collective(
            &m,
            Collective::AllreduceRing,
            4,
            64e6,
            17,
            NumaId::new(0),
            NumaId::new(0),
            HANDSHAKE,
        );
        assert!(
            contended.time > 1.8 * quiet.time,
            "quiet {:.4}s vs contended {:.4}s",
            quiet.time,
            contended.time
        );
        assert!(contended.bandwidth < quiet.bandwidth);
    }

    #[test]
    fn contended_allreduce_estimate_matches_contended_simulation() {
        // The headline use-case: allreduce under full compute load.
        let p = platforms::henri();
        let m = model_for(&p);
        let est = estimate_collective(
            &m,
            Collective::AllreduceRing,
            2,
            64e6,
            17,
            NumaId::new(0),
            NumaId::new(0),
            HANDSHAKE,
        );
        let mut w = World::homogeneous(&p, 2);
        // Saturate both nodes' controllers like the estimate assumes.
        w.start_compute(0, NumaId::new(0), 17, 16 << 30).unwrap();
        w.start_compute(1, NumaId::new(0), 17, 16 << 30).unwrap();
        let sim = allreduce_ring(&mut w, NumaId::new(0), 64 << 20).unwrap();
        let rel = (est.time - sim).abs() / sim;
        assert!(rel < 0.20, "est {:.4}s vs sim {sim:.4}s", est.time);
    }

    #[test]
    #[should_panic(expected = "at least two ranks")]
    fn single_rank_panics() {
        let p = platforms::henri();
        let m = model_for(&p);
        estimate_collective(
            &m,
            Collective::Broadcast,
            1,
            1e6,
            0,
            NumaId::new(0),
            NumaId::new(0),
            HANDSHAKE,
        );
    }
}
