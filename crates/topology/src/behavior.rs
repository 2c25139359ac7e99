//! Hardware *behaviour* description: the ground-truth parameters the
//! simulator (`mc-memsim`) interprets.
//!
//! The paper stresses (§II) that processor vendors do not document how their
//! memory systems arbitrate between CPU and DMA streams, which is why the
//! model is calibrated from experiments. Our substitute for the physical
//! machines is a simulator whose arbitration implements exactly the
//! hypotheses the paper validated:
//!
//! 1. each memory controller / bus has a finite bandwidth capacity;
//! 2. CPU requests are prioritised over PCIe (DMA) requests;
//! 3. a minimal bandwidth is always reserved for DMA to prevent starvation;
//! 4. when the DMA floor is reached, computing cores degrade uniformly;
//! 5. computing cores also contend with *each other*: effective capacity
//!    decreases slightly for every extra accessor beyond a knee.
//!
//! Everything in this module is plain data; the engine
//! lives in `mc-memsim`.

/// Effective-capacity description of one memory controller.
///
/// The effective capacity seen by `k` concurrent accessors is
/// `base_capacity - Σ penalty_i · max(0, k - knee_i)`, clamped to
/// `min_capacity_fraction · base_capacity`. A single knee gives the linear
/// decrease the paper observes on Intel machines (Fig. 2's `δ` slopes); two
/// knees give the stronger curvature of pyxis' ThunderX2.
#[derive(Debug, Clone, PartialEq)]
pub struct MemCtrlSpec {
    /// Non-temporal store capacity of one controller in GB/s, with few
    /// accessors.
    pub base_capacity: f64,
    /// `(knee, penalty)` pairs: beyond `knee` accessors, each extra accessor
    /// costs `penalty` GB/s of effective capacity.
    pub contention_knees: Vec<(u32, f64)>,
    /// Lower clamp as a fraction of `base_capacity` (the controller never
    /// collapses below this).
    pub min_capacity_fraction: f64,
}

impl MemCtrlSpec {
    /// Effective capacity in GB/s for `k` concurrent accessor slots.
    /// DMA engines count as more than one slot (see
    /// [`ArbitrationSpec::dma_accessor_weight`]) because they issue requests
    /// at a higher rate than a single core.
    pub fn effective_capacity(&self, accessor_slots: f64) -> f64 {
        let mut cap = self.base_capacity;
        for &(knee, penalty) in &self.contention_knees {
            let excess = (accessor_slots - f64::from(knee)).max(0.0);
            cap -= penalty * excess;
        }
        cap.max(self.base_capacity * self.min_capacity_fraction)
    }
}

/// Per-core streaming behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreStreamSpec {
    /// Single-core non-temporal store bandwidth to a local NUMA node, GB/s
    /// (the paper quotes ≈ 5 GB/s per core).
    pub local_bandwidth: f64,
    /// Single-core bandwidth to a remote NUMA node, GB/s (lower: each access
    /// pays the inter-socket hop, limiting the request rate one core can
    /// sustain).
    pub remote_bandwidth: f64,
    /// Imperfect-scaling factor: the demand of each core is multiplied by
    /// `1 - scaling_dropoff · (n - 1)` when `n` cores compute together.
    /// Zero on well-behaved platforms; positive on pyxis, whose bandwidth
    /// "does not scale well when it gets closer to the threshold" (§IV-B e).
    pub scaling_dropoff: f64,
}

impl CoreStreamSpec {
    /// Demand of one core in GB/s when `n` cores stream together to a node
    /// that is `local` or not.
    pub fn demand(&self, n: usize, local: bool) -> f64 {
        let base = if local {
            self.local_bandwidth
        } else {
            self.remote_bandwidth
        };
        let factor = (1.0 - self.scaling_dropoff * (n.saturating_sub(1) as f64)).max(0.1);
        base * factor
    }
}

/// How the platform arbitrates between CPU and DMA streams under pressure.
#[derive(Debug, Clone, PartialEq)]
pub struct ArbitrationSpec {
    /// Fraction of the DMA demand that is always guaranteed (the hardware
    /// origin of the paper's `α`). 1.0 means DMA is never throttled (the
    /// occigen behaviour where only computations are impacted); small values
    /// mean communications give way almost entirely.
    pub dma_floor_fraction: f64,
    /// How many accessor slots one DMA engine occupies on a memory
    /// controller. A NIC issues requests at a higher rate than one core
    /// (§II-D notes a single core reaches ≈ 5 GB/s while the network can
    /// reach ≈ 10 GB/s), so its pressure on the controller is larger.
    pub dma_accessor_weight: f64,
    /// If `Some(u0)` with `u0 < 1`, DMA starts being throttled *before* the
    /// capacity threshold is reached, once utilisation exceeds `u0`. This is
    /// the henri behaviour the paper's model misses ("communications start
    /// to be impacted before the total bandwidth threshold T is reached",
    /// §IV-B a). `None` means DMA keeps its full demand until CPU traffic
    /// actually squeezes it.
    pub soft_decay_start: Option<f64>,
    /// Extra pressure multiplier applied to CPU traffic when the DMA stream
    /// crosses the inter-socket link (1.0 = none). Models architectures
    /// whose cross-socket I/O path is disproportionately sensitive to
    /// concurrent CPU traffic — the pyxis behaviour behind the paper's
    /// largest non-sample communication error ("the wrong appreciation of
    /// locality impact on this architecture", §IV-B).
    pub cross_traffic_pressure_factor: f64,
}

/// Deterministic measurement-noise description. Real machines show
/// run-to-run variability ("the run-to-run variability is very low",
/// §IV-B); we reproduce a small multiplicative jitter, seeded so every run
/// of the test-suite sees identical numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseSpec {
    /// Relative standard deviation of compute-bandwidth measurements.
    pub compute_sigma: f64,
    /// Relative standard deviation of network-bandwidth measurements
    /// (larger on pyxis, whose "network performances are not stable even
    /// without contention", §IV-C1).
    pub comm_sigma: f64,
    /// Base RNG seed for this platform.
    pub seed: u64,
}

/// Full behavioural ground truth of one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct HwBehavior {
    /// Memory-controller behaviour (same spec for every NUMA node of the
    /// machine — all paper platforms are homogeneous).
    pub mem_ctrl: MemCtrlSpec,
    /// Socket-level mesh/IIO throughput in GB/s. CPU stores *issued* by a
    /// socket's cores and DMA writes entering or landing on the socket all
    /// occupy its on-die interconnect, whatever NUMA node they target.
    /// This is why communications suffer local-config-like contention in
    /// every placement (the paper's eq. 6 applies the local model to all
    /// non-both-remote placements): even when streams land on different
    /// controllers, they still meet on the mesh.
    pub mesh_capacity: f64,
    /// Per-core streaming behaviour.
    pub core_stream: CoreStreamSpec,
    /// CPU/DMA arbitration policy.
    pub arbitration: ArbitrationSpec,
    /// Measurement noise.
    pub noise: NoiseSpec,
    /// Per-NUMA-node efficiency multiplier applied to the NIC demand when
    /// receiving into that node, indexed by machine-wide NUMA id. Captures
    /// platform oddities where network performance depends on data locality
    /// beyond what link capacities explain (pyxis). Empty ⇒ all 1.0.
    pub nic_numa_efficiency: Vec<f64>,
}

impl HwBehavior {
    /// NIC efficiency multiplier for DMA targeting `numa_index`.
    pub fn nic_efficiency_for(&self, numa_index: usize) -> f64 {
        self.nic_numa_efficiency
            .get(numa_index)
            .copied()
            .unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl() -> MemCtrlSpec {
        MemCtrlSpec {
            base_capacity: 80.0,
            contention_knees: vec![(14, 0.5)],
            min_capacity_fraction: 0.5,
        }
    }

    #[test]
    fn capacity_flat_before_knee() {
        let c = ctrl();
        assert_eq!(c.effective_capacity(1.0), 80.0);
        assert_eq!(c.effective_capacity(14.0), 80.0);
    }

    #[test]
    fn capacity_declines_after_knee() {
        let c = ctrl();
        assert!((c.effective_capacity(16.0) - 79.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_clamped_at_floor() {
        let c = MemCtrlSpec {
            base_capacity: 10.0,
            contention_knees: vec![(0, 5.0)],
            min_capacity_fraction: 0.6,
        };
        assert_eq!(c.effective_capacity(100.0), 6.0);
    }

    #[test]
    fn two_knees_compound() {
        let c = MemCtrlSpec {
            base_capacity: 100.0,
            contention_knees: vec![(10, 1.0), (20, 2.0)],
            min_capacity_fraction: 0.0,
        };
        // at k=25: -1*(15) - 2*(5) = -25
        assert!((c.effective_capacity(25.0) - 75.0).abs() < 1e-12);
    }

    #[test]
    fn core_demand_local_vs_remote() {
        let s = CoreStreamSpec {
            local_bandwidth: 5.6,
            remote_bandwidth: 4.2,
            scaling_dropoff: 0.0,
        };
        assert_eq!(s.demand(4, true), 5.6);
        assert_eq!(s.demand(4, false), 4.2);
    }

    #[test]
    fn scaling_dropoff_reduces_demand_with_more_cores() {
        let s = CoreStreamSpec {
            local_bandwidth: 4.0,
            remote_bandwidth: 3.0,
            scaling_dropoff: 0.01,
        };
        assert_eq!(s.demand(1, true), 4.0);
        assert!(s.demand(10, true) < 4.0);
        // Never collapses below 10% of nominal.
        assert!(s.demand(10_000, true) >= 0.4 - 1e-12);
    }

    #[test]
    fn nic_efficiency_defaults_to_one() {
        let b = HwBehavior {
            mem_ctrl: ctrl(),
            mesh_capacity: 80.0,
            core_stream: CoreStreamSpec {
                local_bandwidth: 5.0,
                remote_bandwidth: 4.0,
                scaling_dropoff: 0.0,
            },
            arbitration: ArbitrationSpec {
                dma_floor_fraction: 0.25,
                dma_accessor_weight: 2.5,
                soft_decay_start: None,
                cross_traffic_pressure_factor: 1.0,
            },
            noise: NoiseSpec {
                compute_sigma: 0.01,
                comm_sigma: 0.01,
                seed: 42,
            },
            nic_numa_efficiency: vec![1.0, 0.8],
        };
        assert_eq!(b.nic_efficiency_for(1), 0.8);
        assert_eq!(b.nic_efficiency_for(7), 1.0);
    }
}
