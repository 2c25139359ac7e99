//! The six testbed platforms of the paper's Table I, with behavioural
//! ground truth.
//!
//! Capacities are *shaped after* the paper's observations (who saturates
//! what, at how many cores, and which quirks appear on which machine), not
//! copied from the authors' testbed — the point of the reproduction is that
//! the model, calibrated from two benchmark sweeps, predicts all other
//! placements; the absolute GB/s values only set the scale.
//!
//! | Name           | Processor                  | Cores | NUMA | Network        |
//! |----------------|----------------------------|-------|------|----------------|
//! | henri          | 2× Intel Xeon Gold 6140    | 18    | 2    | InfiniBand EDR |
//! | henri-subnuma  | same, sub-NUMA clustering  | 18    | 4    | InfiniBand EDR |
//! | dahu           | 2× Intel Xeon Gold 6130    | 16    | 2    | Omni-Path      |
//! | diablo         | 2× AMD EPYC 7452           | 32    | 2    | InfiniBand HDR |
//! | pyxis          | 2× Cavium ThunderX2 99xx   | 32    | 2    | InfiniBand EDR |
//! | occigen        | 2× Intel Xeon E5-2690v4    | 14    | 2    | InfiniBand FDR |

use crate::behavior::{ArbitrationSpec, CoreStreamSpec, HwBehavior, MemCtrlSpec, NoiseSpec};
use crate::cxl::CxlPool;
use crate::ids::{NumaId, PoolId, SocketId};
use crate::link::{InterSocketTech, PcieGen};
use crate::machine::MachineTopology;
use crate::nic::{NetworkTech, Nic};

/// A complete simulated platform: structural topology plus behavioural
/// ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Structural description (Table I facts).
    pub topology: MachineTopology,
    /// Behavioural ground truth interpreted by `mc-memsim`.
    pub behavior: HwBehavior,
}

impl Platform {
    /// Platform name (mirrors `topology.name`).
    pub fn name(&self) -> &str {
        &self.topology.name
    }

    /// Maximum number of computing cores the benchmark sweeps: all cores of
    /// the first socket except the one dedicated to the communication
    /// progress thread (the paper binds communications to "a single thread
    /// bound to a dedicated core").
    pub fn max_compute_cores(&self) -> usize {
        self.topology.cores_per_socket() - 1
    }
}

fn intel_nic(tech: NetworkTech) -> Nic {
    Nic {
        tech,
        socket: SocketId::new(0),
        pcie: PcieGen::GEN3_X16,
        closest_numa: NumaId::new(0),
    }
}

/// `henri`: 2× Intel Xeon Gold 6140 (18 cores), 96 GB, 2 NUMA nodes,
/// InfiniBand EDR (§IV-B a, Fig. 3).
///
/// Quirk reproduced: communications start to degrade *before* the total
/// bandwidth threshold is reached (`soft_decay_start = 0.95`), which is the
/// flaw the paper reports its model showing on this machine ("the model
/// predicts a decrease starting with 14 computing cores, while it is 10 in
/// reality").
pub fn henri() -> Platform {
    Platform {
        topology: MachineTopology::homogeneous(
            "henri",
            "Intel Xeon Gold 6140",
            2,
            18,
            1,
            96,
            InterSocketTech::Upi,
            36.0,
            26.0,
            intel_nic(NetworkTech::InfinibandEdr),
        )
        .expect("henri topology is valid"),
        behavior: HwBehavior {
            mem_ctrl: MemCtrlSpec {
                base_capacity: 80.0,
                contention_knees: vec![(12, 0.55)],
                min_capacity_fraction: 0.55,
            },
            mesh_capacity: 80.0,
            core_stream: CoreStreamSpec {
                local_bandwidth: 5.6,
                remote_bandwidth: 4.4,
                scaling_dropoff: 0.0,
            },
            arbitration: ArbitrationSpec {
                dma_floor_fraction: 0.25,
                dma_accessor_weight: 2.5,
                soft_decay_start: Some(0.95),
                cross_traffic_pressure_factor: 1.0,
            },
            noise: NoiseSpec {
                compute_sigma: 0.010,
                comm_sigma: 0.012,
                seed: 0xE1,
            },
            nic_numa_efficiency: vec![],
        },
    }
}

/// `henri-subnuma`: the same machine with sub-NUMA clustering enabled,
/// exposing 4 NUMA nodes (§IV-B b, Fig. 4). Each sub-NUMA controller has
/// roughly half the socket bandwidth, so 18 cores hammering one node makes
/// contention much more severe — the 16-subplot grid of the paper.
pub fn henri_subnuma() -> Platform {
    let mut p = henri();
    p.topology = MachineTopology::homogeneous(
        "henri-subnuma",
        "Intel Xeon Gold 6140",
        2,
        18,
        2,
        96,
        InterSocketTech::Upi,
        36.0,
        26.0,
        intel_nic(NetworkTech::InfinibandEdr),
    )
    .expect("henri-subnuma topology is valid");
    p.behavior.mem_ctrl = MemCtrlSpec {
        base_capacity: 42.0,
        contention_knees: vec![(7, 0.50)],
        min_capacity_fraction: 0.55,
    };
    // Sub-NUMA clustering also partitions the CHA/mesh slices, lowering the
    // socket-level throughput a single stream population can draw.
    p.behavior.mesh_capacity = 46.0;
    p.behavior.noise.seed = 0xE2;
    p
}

/// `dahu`: 2× Intel Xeon Gold 6130 (16 cores), 192 GB, 2 NUMA nodes,
/// Omni-Path (§IV-B f, Fig. 8). Behaves like henri with a slightly slower
/// onloaded network and no early-decay quirk.
pub fn dahu() -> Platform {
    Platform {
        topology: MachineTopology::homogeneous(
            "dahu",
            "Intel Xeon Gold 6130",
            2,
            16,
            1,
            192,
            InterSocketTech::Upi,
            36.0,
            26.0,
            intel_nic(NetworkTech::OmniPath100),
        )
        .expect("dahu topology is valid"),
        behavior: HwBehavior {
            mem_ctrl: MemCtrlSpec {
                base_capacity: 76.0,
                contention_knees: vec![(13, 0.50)],
                min_capacity_fraction: 0.55,
            },
            mesh_capacity: 76.0,
            core_stream: CoreStreamSpec {
                local_bandwidth: 5.4,
                remote_bandwidth: 4.2,
                scaling_dropoff: 0.0,
            },
            arbitration: ArbitrationSpec {
                dma_floor_fraction: 0.30,
                dma_accessor_weight: 2.2,
                soft_decay_start: None,
                cross_traffic_pressure_factor: 1.0,
            },
            noise: NoiseSpec {
                compute_sigma: 0.012,
                comm_sigma: 0.015,
                seed: 0xDA,
            },
            nic_numa_efficiency: vec![],
        },
    }
}

/// `diablo`: 2× AMD EPYC 7452 (32 cores), 256 GB, 2 NUMA nodes, InfiniBand
/// HDR (§IV-B c, Fig. 5).
///
/// Quirks reproduced: the NIC is plugged to the *second* socket and network
/// performance is highly locality-sensitive — ≈ 22.4 GB/s into the NIC-local
/// node versus ≈ 12.1 GB/s into the other node, because DMA traffic crossing
/// Infinity Fabric takes a narrower path (`dma_bandwidth = 12.6`). Memory
/// bandwidth is so plentiful (8-channel DDR4) that there is "almost no
/// contention on this platform".
pub fn diablo() -> Platform {
    Platform {
        topology: MachineTopology::homogeneous(
            "diablo",
            "AMD EPYC 7452",
            2,
            32,
            1,
            256,
            InterSocketTech::InfinityFabric,
            38.0,
            12.6,
            Nic {
                tech: NetworkTech::InfinibandHdr,
                socket: SocketId::new(1),
                pcie: PcieGen::GEN4_X16,
                closest_numa: NumaId::new(1),
            },
        )
        .expect("diablo topology is valid"),
        behavior: HwBehavior {
            mem_ctrl: MemCtrlSpec {
                base_capacity: 140.0,
                contention_knees: vec![(30, 0.60)],
                min_capacity_fraction: 0.55,
            },
            mesh_capacity: 140.0,
            core_stream: CoreStreamSpec {
                local_bandwidth: 4.3,
                remote_bandwidth: 3.5,
                scaling_dropoff: 0.0,
            },
            arbitration: ArbitrationSpec {
                dma_floor_fraction: 0.80,
                dma_accessor_weight: 2.0,
                soft_decay_start: None,
                cross_traffic_pressure_factor: 1.0,
            },
            noise: NoiseSpec {
                compute_sigma: 0.010,
                comm_sigma: 0.012,
                seed: 0xD1,
            },
            nic_numa_efficiency: vec![],
        },
    }
}

/// `pyxis`: 2× Cavium ThunderX2 99xx (32 cores), 256 GB, 2 NUMA nodes,
/// InfiniBand EDR (§IV-B e, Fig. 7).
///
/// Quirks reproduced: compute bandwidth "does not scale well when it gets
/// closer to the threshold" (`scaling_dropoff` + a second contention knee),
/// and network performance depends on data locality in a way plain link
/// capacities do not explain (`nic_numa_efficiency`), with noticeably noisier
/// network measurements — the combination behind the paper's worst
/// non-sample communication error (13.32 %).
pub fn pyxis() -> Platform {
    Platform {
        topology: MachineTopology::homogeneous(
            "pyxis",
            "Cavium-ARM ThunderX2 99xx",
            2,
            32,
            1,
            256,
            InterSocketTech::Ccpi2,
            42.0,
            24.0,
            intel_nic(NetworkTech::InfinibandEdr),
        )
        .expect("pyxis topology is valid"),
        behavior: HwBehavior {
            mem_ctrl: MemCtrlSpec {
                base_capacity: 105.0,
                contention_knees: vec![(20, 0.35), (27, 0.90)],
                min_capacity_fraction: 0.50,
            },
            mesh_capacity: 105.0,
            core_stream: CoreStreamSpec {
                local_bandwidth: 3.9,
                remote_bandwidth: 3.1,
                scaling_dropoff: 0.0015,
            },
            arbitration: ArbitrationSpec {
                dma_floor_fraction: 0.35,
                dma_accessor_weight: 2.5,
                soft_decay_start: None,
                cross_traffic_pressure_factor: 1.2,
            },
            noise: NoiseSpec {
                compute_sigma: 0.015,
                comm_sigma: 0.012,
                seed: 0x97,
            },
            nic_numa_efficiency: vec![1.0, 0.82],
        },
    }
}

/// `occigen`: 2× Intel Xeon E5-2690v4 (14 cores), 64 GB, 2 NUMA nodes,
/// InfiniBand FDR — the only production platform (2014–2022) (§IV-B d,
/// Fig. 6).
///
/// Quirk reproduced: DMA is *never* throttled (`dma_floor_fraction = 1.0`),
/// so "only computations are impacted when computations and communications
/// do both remote memory accesses"; measurements are extremely stable, which
/// is why the paper's lowest prediction error (0.01 % on communications) is
/// on this machine.
pub fn occigen() -> Platform {
    Platform {
        topology: MachineTopology::homogeneous(
            "occigen",
            "Intel Xeon E5 2690v4",
            2,
            14,
            1,
            64,
            InterSocketTech::Qpi,
            28.0,
            22.0,
            intel_nic(NetworkTech::InfinibandFdr),
        )
        .expect("occigen topology is valid"),
        behavior: HwBehavior {
            mem_ctrl: MemCtrlSpec {
                base_capacity: 58.0,
                contention_knees: vec![(12, 0.45)],
                min_capacity_fraction: 0.55,
            },
            mesh_capacity: 58.0,
            core_stream: CoreStreamSpec {
                local_bandwidth: 4.7,
                remote_bandwidth: 3.6,
                scaling_dropoff: 0.0,
            },
            arbitration: ArbitrationSpec {
                dma_floor_fraction: 1.0,
                dma_accessor_weight: 2.0,
                soft_decay_start: None,
                cross_traffic_pressure_factor: 1.0,
            },
            noise: NoiseSpec {
                compute_sigma: 0.0010,
                comm_sigma: 0.0003,
                seed: 0x0C,
            },
            nic_numa_efficiency: vec![],
        },
    }
}

/// `grillon`: a *synthetic* 8-NUMA machine (2× AMD EPYC in NPS4 mode) used
/// to demonstrate the model limitation the paper documents in §IV-C1: "On
/// machines with many NUMA nodes (more than 4), network performances under
/// memory contention depend on data locality and the heuristic given by
/// formula 6 is not sufficiently accurate anymore."
///
/// Each sub-NUMA node sits at a different distance from the NIC, so the
/// NIC efficiency declines gradually across the eight nodes — a gradient
/// the model's binary local/remote split cannot represent. Not part of the
/// paper's Table I; exposed through [`extended`] only.
pub fn grillon_nps4() -> Platform {
    Platform {
        topology: MachineTopology::homogeneous(
            "grillon",
            "AMD EPYC 7452 (NPS4)",
            2,
            32,
            4,
            256,
            InterSocketTech::InfinityFabric,
            38.0,
            12.6,
            Nic {
                tech: NetworkTech::InfinibandHdr,
                socket: SocketId::new(0),
                pcie: PcieGen::GEN4_X16,
                closest_numa: NumaId::new(0),
            },
        )
        .expect("grillon topology is valid"),
        behavior: HwBehavior {
            mem_ctrl: MemCtrlSpec {
                base_capacity: 36.0,
                contention_knees: vec![(8, 0.50)],
                min_capacity_fraction: 0.55,
            },
            mesh_capacity: 120.0,
            core_stream: CoreStreamSpec {
                local_bandwidth: 4.3,
                remote_bandwidth: 3.5,
                scaling_dropoff: 0.0,
            },
            arbitration: ArbitrationSpec {
                dma_floor_fraction: 0.45,
                dma_accessor_weight: 2.0,
                soft_decay_start: None,
                cross_traffic_pressure_factor: 1.0,
            },
            noise: NoiseSpec {
                compute_sigma: 0.010,
                comm_sigma: 0.012,
                seed: 0x6B,
            },
            // Distance-to-NIC gradient across the eight nodes: within the
            // NIC socket the dies sit 1-3 IF hops away, on the remote
            // socket further still — a smooth decline that formula 6's
            // local/remote dichotomy flattens into two values.
            nic_numa_efficiency: vec![1.0, 0.93, 0.86, 0.79, 0.72, 0.67, 0.62, 0.57],
        },
    }
}

/// Default CXL.mem pool used by the `*-cxl` platform variants: four
/// CXL ports on the given socket, shaped after the single-device
/// numbers of Vanecek et al. — one load/store stream sustains well
/// below a NIC wire (≈ 6 GB/s), but the pool is reached without the
/// NIC's DMA arbitration, so heavy compute cannot squeeze it to a
/// floor.
fn default_pool(socket: u16) -> CxlPool {
    CxlPool {
        id: PoolId::new(0),
        socket: SocketId::new(socket),
        ports: 4,
        port_bandwidth: 8.0,
        pool_bandwidth: 24.0,
        stream_bandwidth: 6.0,
        latency: 0.4e-6,
    }
}

/// `henri-cxl`: the henri machine with one CXL.mem pool on socket 0 —
/// the message-free communication scenario of Vanecek et al. run on
/// the paper's primary testbed. Not part of Table I; exposed through
/// [`extended`] only.
pub fn henri_cxl() -> Platform {
    let mut p = henri();
    p.topology.name = "henri-cxl".into();
    p.topology.cxl_pools.push(default_pool(0));
    p.behavior.noise.seed = 0xEC;
    p
}

/// `dahu-cxl`: the dahu machine with one CXL.mem pool on socket 0.
/// With Omni-Path's onloaded NIC the messaging path is slower than on
/// henri, shifting the messaging-vs-message-free crossover. Not part
/// of Table I; exposed through [`extended`] only.
pub fn dahu_cxl() -> Platform {
    let mut p = dahu();
    p.topology.name = "dahu-cxl".into();
    p.topology.cxl_pools.push(default_pool(0));
    p.behavior.noise.seed = 0xDC;
    p
}

/// All six platforms, in the order of the paper's Table I.
pub fn all() -> Vec<Platform> {
    vec![
        henri(),
        henri_subnuma(),
        dahu(),
        diablo(),
        pyxis(),
        occigen(),
    ]
}

/// Table I platforms plus the synthetic many-NUMA `grillon` machine that
/// demonstrates the §IV-C1 limitation and the CXL.mem pool variants
/// `henri-cxl` / `dahu-cxl`.
pub fn extended() -> Vec<Platform> {
    let mut v = all();
    v.push(grillon_nps4());
    v.push(henri_cxl());
    v.push(dahu_cxl());
    v
}

/// Look a platform up by its name (searches the extended set).
pub fn by_name(name: &str) -> Option<Platform> {
    extended().into_iter().find(|p| p.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_platforms_validate() {
        for p in all() {
            p.topology.validate().unwrap_or_else(|e| {
                panic!("platform {} invalid: {e}", p.name());
            });
        }
    }

    #[test]
    fn table1_shape() {
        let names: Vec<_> = all().iter().map(|p| p.name().to_string()).collect();
        assert_eq!(
            names,
            [
                "henri",
                "henri-subnuma",
                "dahu",
                "diablo",
                "pyxis",
                "occigen"
            ]
        );
    }

    #[test]
    fn henri_subnuma_has_four_numa_nodes() {
        assert_eq!(henri().topology.numa_count(), 2);
        assert_eq!(henri_subnuma().topology.numa_count(), 4);
        assert_eq!(henri_subnuma().topology.numa_per_socket(), 2);
    }

    #[test]
    fn diablo_nic_is_on_second_socket() {
        let d = diablo();
        assert_eq!(d.topology.nic.socket, SocketId::new(1));
        assert_eq!(d.topology.nic.closest_numa, NumaId::new(1));
        // DMA to node 0 crosses Infinity Fabric; to node 1 it does not.
        assert!(d.topology.dma_crosses_socket_link(NumaId::new(0)));
        assert!(!d.topology.dma_crosses_socket_link(NumaId::new(1)));
    }

    #[test]
    fn max_compute_cores_reserves_comm_core() {
        assert_eq!(henri().max_compute_cores(), 17);
        assert_eq!(dahu().max_compute_cores(), 15);
        assert_eq!(diablo().max_compute_cores(), 31);
        assert_eq!(occigen().max_compute_cores(), 13);
    }

    #[test]
    fn by_name_finds_each() {
        for p in extended() {
            assert!(by_name(p.name()).is_some(), "{} not found", p.name());
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn grillon_is_extended_only() {
        assert!(all().iter().all(|p| p.name() != "grillon"));
        assert!(extended().iter().any(|p| p.name() == "grillon"));
        let g = grillon_nps4();
        g.topology.validate().unwrap();
        assert_eq!(g.topology.numa_count(), 8);
        assert_eq!(g.topology.numa_per_socket(), 4);
        // The NIC efficiency gradient is strictly decreasing with node id.
        let eff = &g.behavior.nic_numa_efficiency;
        assert_eq!(eff.len(), 8);
        assert!(eff.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn cxl_variants_are_extended_only() {
        for name in ["henri-cxl", "dahu-cxl"] {
            assert!(all().iter().all(|p| p.name() != name));
            assert!(extended().iter().any(|p| p.name() == name), "{name}");
        }
        for p in [henri_cxl(), dahu_cxl()] {
            p.topology.validate().unwrap();
            assert_eq!(p.topology.cxl_pools.len(), 1);
            let pool = &p.topology.cxl_pools[0];
            // One CXL stream is slower than the platform's NIC wire,
            // but the ports and pool controller out-carry one stream:
            // the crossover has to come from contention, not raw rates.
            let wire = p.topology.nic.tech.wire_rate() * p.topology.nic.tech.protocol_efficiency();
            assert!(pool.stream_bandwidth < wire);
            assert!(pool.total_port_bandwidth() > pool.stream_bandwidth);
            assert!(pool.pool_bandwidth > pool.stream_bandwidth);
        }
        // Apart from the pool, name, and seed, the variants are their
        // base machines — the head-to-head comparison is apples to
        // apples.
        let (base, cxl) = (henri(), henri_cxl());
        assert_eq!(base.topology.sockets, cxl.topology.sockets);
        assert_eq!(base.topology.links, cxl.topology.links);
        assert_eq!(base.topology.nic, cxl.topology.nic);
        assert_eq!(base.behavior.mem_ctrl, cxl.behavior.mem_ctrl);
    }

    #[test]
    fn seeds_differ_across_platforms() {
        let seeds: Vec<u64> = extended().iter().map(|p| p.behavior.noise.seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(seeds.len(), dedup.len());
    }

    #[test]
    fn occigen_never_throttles_dma() {
        assert_eq!(occigen().behavior.arbitration.dma_floor_fraction, 1.0);
    }

    #[test]
    fn pyxis_has_locality_sensitive_nic() {
        let p = pyxis();
        assert!(p.behavior.nic_efficiency_for(1) < p.behavior.nic_efficiency_for(0));
    }
}
