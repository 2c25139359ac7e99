//! Baseline predictors to compare the paper's model against.
//!
//! The paper has no OSS comparator (no existing tool models comm/compute
//! memory contention), so these baselines are *ablations*: each removes one
//! ingredient of the model, and the evaluation harness scores them on the
//! same measured sweeps. They demonstrate why each ingredient matters:
//!
//! * [`NoContentionBaseline`] — ignores interference entirely (what a
//!   runtime assuming "overlap is free" believes);
//! * [`EqualShareBaseline`] — models the bus threshold but shares capacity
//!   max-min fairly with no CPU priority and no communication floor
//!   (classic queuing-fairness assumption, cf. §II-D);
//! * [`LocalOnlyBaseline`] — the full threshold model but calibrated with a
//!   single (local) instantiation, ablating the NUMA combination of
//!   eqs. 6–7.

use mc_topology::NumaId;

use crate::instantiation::{InstantiatedModel, Prediction};
use crate::placement::ContentionModel;
use crate::predictor::BandwidthPredictor;

/// Perfect-overlap baseline: nominal bandwidths everywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct NoContentionBaseline {
    model: ContentionModel,
}

impl NoContentionBaseline {
    /// Build from a calibrated model (reuses its nominal parameters).
    pub fn new(model: ContentionModel) -> Self {
        NoContentionBaseline { model }
    }
}

impl BandwidthPredictor for NoContentionBaseline {
    fn name(&self) -> &'static str {
        "no-contention"
    }

    fn predict_parallel_bw(&self, n: usize, m_comp: NumaId, m_comm: NumaId) -> Prediction {
        // "Alone" predictions for both streams: interference is assumed
        // away.
        self.model.predict_alone(n, m_comp, m_comm)
    }
}

/// Threshold-aware but priority-blind baseline: when the combined demand
/// exceeds the capacity `T(n)`, every stream (each core, and the NIC as one
/// more customer) gets an equal max-min share. No guaranteed communication
/// floor, no CPU priority.
#[derive(Debug, Clone, PartialEq)]
pub struct EqualShareBaseline {
    model: ContentionModel,
}

impl EqualShareBaseline {
    /// Build from a calibrated model (reuses capacities and nominal
    /// bandwidths).
    pub fn new(model: ContentionModel) -> Self {
        EqualShareBaseline { model }
    }

    /// Max-min split of `capacity` between `n` cores demanding `b_core`
    /// each and one NIC demanding `b_comm`.
    fn equal_share(n: usize, b_core: f64, b_comm: f64, capacity: f64) -> Prediction {
        let total_demand = n as f64 * b_core + b_comm;
        if total_demand <= capacity {
            return Prediction {
                comp: n as f64 * b_core,
                comm: b_comm,
            };
        }
        // Progressive filling with n+1 equal-weight customers.
        let fair = capacity / (n as f64 + 1.0);
        if b_comm <= fair {
            // NIC is satisfied; cores split the rest.
            Prediction {
                comp: (capacity - b_comm).min(n as f64 * b_core),
                comm: b_comm,
            }
        } else if b_core <= fair {
            // Cores are satisfied; NIC takes the leftover.
            let comp = n as f64 * b_core;
            Prediction {
                comp,
                comm: (capacity - comp).min(b_comm),
            }
        } else {
            Prediction {
                comp: fair * n as f64,
                comm: fair,
            }
        }
    }

    fn instantiation_for(&self, numa: NumaId) -> &InstantiatedModel {
        if numa.index() >= self.model.numa_per_socket() {
            self.model.remote()
        } else {
            self.model.local()
        }
    }
}

impl BandwidthPredictor for EqualShareBaseline {
    fn name(&self) -> &'static str {
        "equal-share"
    }

    fn predict_parallel_bw(&self, n: usize, m_comp: NumaId, m_comm: NumaId) -> Prediction {
        let comp_inst = self.instantiation_for(m_comp);
        let comm_inst = self.instantiation_for(m_comm);
        if m_comp == m_comm {
            let p = comp_inst.params();
            Self::equal_share(
                n,
                p.b_comp_seq,
                comm_inst.params().b_comm_seq,
                comp_inst.total_capacity(n),
            )
        } else {
            Prediction {
                comp: comp_inst.comp_alone(n),
                comm: comm_inst.comm_alone(),
            }
        }
    }
}

/// Single-instantiation ablation: the full threshold model, but the local
/// instantiation is used for every placement (no `M_remote`, no eqs. 6–7).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalOnlyBaseline {
    model: ContentionModel,
}

impl LocalOnlyBaseline {
    /// Build from a calibrated model (only its local instantiation is
    /// consulted).
    pub fn new(model: ContentionModel) -> Self {
        LocalOnlyBaseline { model }
    }
}

impl BandwidthPredictor for LocalOnlyBaseline {
    fn name(&self) -> &'static str {
        "local-only"
    }

    fn predict_parallel_bw(&self, n: usize, m_comp: NumaId, m_comm: NumaId) -> Prediction {
        let local = self.model.local();
        if m_comp == m_comm {
            local.predict_parallel(n)
        } else {
            Prediction {
                comp: local.comp_alone(n),
                comm: local.comm_alone(),
            }
        }
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
    fn no_contention_always_predicts_nominal_comm() {
        let p = platforms::henri();
        let m = model_for(&p);
        let nominal = m.local().comm_alone();
        let b = NoContentionBaseline::new(m);
        for n in 1..=17 {
            let pred = b.predict_parallel_bw(n, NumaId::new(0), NumaId::new(0));
            assert_eq!(pred.comm, nominal);
        }
    }

    #[test]
    fn equal_share_caps_at_capacity() {
        let p = platforms::henri();
        let m = model_for(&p);
        let cap17 = m.local().total_capacity(17);
        let b = EqualShareBaseline::new(m);
        let pred = b.predict_parallel_bw(17, NumaId::new(0), NumaId::new(0));
        assert!(pred.total() <= cap17 + 1e-9);
        // Without a floor the NIC keeps a fair (not minimal) share — more
        // than the true model grants it under heavy compute.
        assert!(pred.comm > 3.0, "{}", pred.comm);
    }

    #[test]
    fn equal_share_below_threshold_is_nominal() {
        let p = platforms::henri();
        let m = model_for(&p);
        let b = EqualShareBaseline::new(m.clone());
        let pred = b.predict_parallel_bw(2, NumaId::new(0), NumaId::new(0));
        assert!((pred.comp - 2.0 * m.local().params().b_comp_seq).abs() < 1e-9);
        assert!((pred.comm - m.local().params().b_comm_seq).abs() < 1e-9);
    }

    #[test]
    fn local_only_misses_remote_behaviour() {
        let p = platforms::diablo();
        let m = model_for(&p);
        let remote_nominal = m.remote().params().b_comm_seq;
        let b = LocalOnlyBaseline::new(m);
        // On diablo the remote comm bandwidth is ~2x the local one; the
        // local-only ablation cannot know that.
        let pred = b.predict_parallel_bw(1, NumaId::new(1), NumaId::new(1));
        assert!(pred.comm < remote_nominal * 0.7);
    }

    #[test]
    fn equal_share_handles_small_nic_demand() {
        // NIC demand below the fair share: cores split the remainder.
        let pred = EqualShareBaseline::equal_share(4, 10.0, 2.0, 20.0);
        assert!((pred.comm - 2.0).abs() < 1e-9);
        assert!((pred.comp - 18.0).abs() < 1e-9);
    }

    #[test]
    fn equal_share_handles_small_core_demand() {
        // Core demand below the fair share: NIC takes the leftover.
        let pred = EqualShareBaseline::equal_share(2, 1.0, 50.0, 12.0);
        assert!((pred.comp - 2.0).abs() < 1e-9);
        assert!((pred.comm - 10.0).abs() < 1e-9);
    }
}
