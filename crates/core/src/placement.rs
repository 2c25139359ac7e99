//! The full contention model: two instantiations (local, remote) combined
//! across NUMA placements — equations (6) and (7) of the paper (§III-C).
//!
//! Calibrated from exactly two benchmark sweeps (both buffers on the first
//! NUMA node of the first socket; both on the first NUMA node of the second
//! socket), the model predicts computation and communication bandwidth for
//! *every* `(m_comp, m_comm)` placement combination — 16 of them on a
//! 4-NUMA machine — exploiting the symmetries of the machine topology.

use mc_membench::record::PlacementSweep;
use mc_topology::{MachineTopology, NumaId};

use crate::calibrate::{calibrate, CalibrationError};
use crate::instantiation::{InstantiatedModel, Prediction};

/// The paper's model, fully instantiated for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionModel {
    local: InstantiatedModel,
    remote: InstantiatedModel,
    /// Local model with the remote nominal network bandwidth substituted —
    /// the `Mlocal ⊓ Bcomm_seq(Mremote)` term of eq. 6, prebuilt.
    local_remote_comm: InstantiatedModel,
    /// NUMA nodes per socket — the paper's `#m`.
    numa_per_socket: usize,
    /// Machine-wide NUMA node count.
    numa_count: usize,
    /// The placement the local sweep was measured on.
    local_placement: (NumaId, NumaId),
    /// The placement the remote sweep was measured on.
    remote_placement: (NumaId, NumaId),
}

impl ContentionModel {
    /// Calibrate the model from the two sample sweeps.
    pub fn calibrate(
        topology: &MachineTopology,
        local_sweep: &PlacementSweep,
        remote_sweep: &PlacementSweep,
    ) -> Result<Self, CalibrationError> {
        let local = InstantiatedModel::new(calibrate(local_sweep)?);
        let remote = InstantiatedModel::new(calibrate(remote_sweep)?);
        let local_remote_comm =
            InstantiatedModel::new(local.params().with_b_comm_seq(remote.params().b_comm_seq));
        Ok(ContentionModel {
            local,
            remote,
            local_remote_comm,
            numa_per_socket: topology.numa_per_socket(),
            numa_count: topology.numa_count(),
            local_placement: (local_sweep.m_comp, local_sweep.m_comm),
            remote_placement: (remote_sweep.m_comp, remote_sweep.m_comm),
        })
    }

    /// Rebuild a model from its constituent parts (used by the persistence
    /// layer; prefer [`ContentionModel::calibrate`] for fresh data).
    pub fn from_parts(
        local: InstantiatedModel,
        remote: InstantiatedModel,
        numa_per_socket: usize,
        numa_count: usize,
        local_placement: (NumaId, NumaId),
        remote_placement: (NumaId, NumaId),
    ) -> Self {
        let local_remote_comm =
            InstantiatedModel::new(local.params().with_b_comm_seq(remote.params().b_comm_seq));
        ContentionModel {
            local,
            remote,
            local_remote_comm,
            numa_per_socket,
            numa_count,
            local_placement,
            remote_placement,
        }
    }

    /// The local-accesses instantiation `M_local`.
    pub fn local(&self) -> &InstantiatedModel {
        &self.local
    }

    /// The remote-accesses instantiation `M_remote`.
    pub fn remote(&self) -> &InstantiatedModel {
        &self.remote
    }

    /// The paper's `#m`.
    pub fn numa_per_socket(&self) -> usize {
        self.numa_per_socket
    }

    /// Is `numa` remote with respect to the computing socket (the `m ≥ #m`
    /// test of eqs. 6–7)?
    fn is_remote(&self, numa: NumaId) -> bool {
        numa.index() >= self.numa_per_socket
    }

    /// Was this placement one of the two used to instantiate the model
    /// (a *sample* in Table II's terminology)?
    pub fn is_sample_placement(&self, m_comp: NumaId, m_comm: NumaId) -> bool {
        (m_comp, m_comm) == self.local_placement || (m_comp, m_comm) == self.remote_placement
    }

    /// Equation (6): predicted communication bandwidth with `n` computing
    /// cores under the given placement.
    pub fn predict_comm(&self, n: usize, m_comp: NumaId, m_comm: NumaId) -> f64 {
        if self.is_remote(m_comp) && m_comp == m_comm {
            self.remote.predict_parallel(n).comm
        } else if self.is_remote(m_comm) {
            // Communications follow the local contention behaviour but
            // their nominal performance is that of remote-located data
            // (important on machines whose network is locality-sensitive).
            self.local_remote_comm.predict_parallel(n).comm
        } else {
            self.local.predict_parallel(n).comm
        }
    }

    /// Equation (7): predicted computation bandwidth with `n` computing
    /// cores under the given placement. Computations only suffer
    /// contention when communications target the same NUMA node.
    pub fn predict_comp(&self, n: usize, m_comp: NumaId, m_comm: NumaId) -> f64 {
        match (self.is_remote(m_comp), m_comp == m_comm) {
            (false, true) => self.local.predict_parallel(n).comp,
            (false, false) => self.local.comp_alone(n),
            (true, true) => self.remote.predict_parallel(n).comp,
            (true, false) => self.remote.comp_alone(n),
        }
    }

    /// Both predictions for the parallel phase.
    pub fn predict(&self, n: usize, m_comp: NumaId, m_comm: NumaId) -> Prediction {
        Prediction {
            comp: self.predict_comp(n, m_comp, m_comm),
            comm: self.predict_comm(n, m_comp, m_comm),
        }
    }

    /// Predicted bandwidths when computations and communications run
    /// *alone* under this placement (the paper's figures also plot these:
    /// eq. 8 for computations, `Bcomm_seq` of the matching locality for
    /// communications).
    pub fn predict_alone(&self, n: usize, m_comp: NumaId, m_comm: NumaId) -> Prediction {
        let comp = if self.is_remote(m_comp) {
            self.remote.comp_alone(n)
        } else {
            self.local.comp_alone(n)
        };
        let comm = if self.is_remote(m_comm) {
            self.remote.comm_alone()
        } else {
            self.local.comm_alone()
        };
        Prediction { comp, comm }
    }

    /// The machine-wide NUMA node count: placements name nodes below it.
    pub fn numa_count(&self) -> usize {
        self.numa_count
    }

    /// All placement combinations of the machine, matching
    /// [`mc_topology::MachineTopology::placement_combinations`] order.
    pub fn placements(&self) -> Vec<(NumaId, NumaId)> {
        let mut v = Vec::with_capacity(self.numa_count * self.numa_count);
        for comm in 0..self.numa_count {
            for comp in 0..self.numa_count {
                v.push((NumaId::new(comp as u16), NumaId::new(comm as u16)));
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_membench::{calibration_sweeps, BenchConfig};
    use mc_topology::platforms;

    fn model_for(p: &mc_topology::Platform) -> ContentionModel {
        let (local, remote) = calibration_sweeps(p, BenchConfig::exact());
        ContentionModel::calibrate(&p.topology, &local, &remote).unwrap()
    }

    #[test]
    fn remote_test_matches_paper_convention() {
        // henri-subnuma has #m = 2: nodes 0, 1 local, nodes 2, 3 remote.
        let m = model_for(&platforms::henri_subnuma());
        assert!(!m.is_remote(NumaId::new(0)));
        assert!(!m.is_remote(NumaId::new(1)));
        assert!(m.is_remote(NumaId::new(2)));
        assert!(m.is_remote(NumaId::new(3)));
    }

    #[test]
    fn sample_placements_are_recognised() {
        let p = platforms::henri_subnuma();
        let m = model_for(&p);
        assert!(m.is_sample_placement(NumaId::new(0), NumaId::new(0)));
        assert!(m.is_sample_placement(NumaId::new(2), NumaId::new(2)));
        assert!(!m.is_sample_placement(NumaId::new(0), NumaId::new(1)));
    }

    #[test]
    fn placements_enumerate_the_full_grid() {
        let p = platforms::henri_subnuma();
        let m = model_for(&p);
        assert_eq!(m.placements().len(), 16);
        assert_eq!(m.placements(), p.topology.placement_combinations());
    }

    #[test]
    fn compute_unaffected_when_streams_are_apart() {
        let p = platforms::henri();
        let m = model_for(&p);
        let n = 10;
        // comp local / comm remote → compute-alone prediction.
        let apart = m.predict_comp(n, NumaId::new(0), NumaId::new(1));
        let alone = m.local().comp_alone(n);
        assert_eq!(apart, alone);
        // comp local / comm same node → contended prediction, never higher.
        let together = m.predict_comp(17, NumaId::new(0), NumaId::new(0));
        assert!(together <= m.local().comp_alone(17) + 1e-9);
    }

    #[test]
    fn both_remote_uses_the_remote_model() {
        let p = platforms::henri();
        let m = model_for(&p);
        let pred = m.predict(17, NumaId::new(1), NumaId::new(1));
        let remote = m.remote().predict_parallel(17);
        assert_eq!(pred.comp, remote.comp);
        assert_eq!(pred.comm, remote.comm);
    }

    #[test]
    fn remote_comm_inherits_remote_nominal_bandwidth() {
        // diablo: the NIC is on socket 1, so "remote" comm (node 0, from
        // the compute socket's viewpoint... node index >= #m means node 1)
        // is the NIC-local fast case — nominal bandwidths differ a lot and
        // eq. 6's substitution must carry the right one.
        let p = platforms::diablo();
        let m = model_for(&p);
        let b_local = m.local().params().b_comm_seq; // into node 0: slow path
        let b_remote = m.remote().params().b_comm_seq; // into node 1: NIC-local
        assert!(b_remote > 1.7 * b_local);
        // comm to node 1 with compute on node 0 (n small → no contention):
        let pred = m.predict_comm(1, NumaId::new(0), NumaId::new(1));
        assert!(
            (pred - b_remote).abs() / b_remote < 0.05,
            "{pred} vs {b_remote}"
        );
    }

    #[test]
    fn predict_alone_uses_matching_locality() {
        let p = platforms::henri();
        let m = model_for(&p);
        let a = m.predict_alone(17, NumaId::new(1), NumaId::new(0));
        assert_eq!(a.comp, m.remote().comp_alone(17));
        assert_eq!(a.comm, m.local().comm_alone());
    }
}
