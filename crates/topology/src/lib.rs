//! # mc-topology — machine topology model
//!
//! Structural and behavioural description of the NUMA machines used in
//! *Modeling Memory Contention between Communications and Computations in
//! Distributed HPC Systems* (Denis, Jeannot, Swartvagher, IPDPS-W 2022).
//!
//! This crate plays the role `hwloc` plays in the paper's benchmark: it
//! describes sockets, NUMA nodes, cores, inter-socket links and the NIC, and
//! answers the locality questions the contention model depends on (is a NUMA
//! node local to the computing socket? does a DMA cross the inter-socket
//! bus?). It also carries the behavioural ground truth (capacities,
//! arbitration policy, quirks) that `mc-memsim` interprets, and ships the
//! six testbed platforms of the paper's Table I.
//!
//! ```
//! use mc_topology::platforms;
//!
//! let henri = platforms::henri();
//! assert_eq!(henri.topology.cores_per_socket(), 18);
//! assert_eq!(henri.topology.numa_per_socket(), 1); // the paper's #m
//! println!("{}", henri.topology.summary());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod behavior;
pub mod builder;
pub mod cxl;
pub mod error;
pub mod graph;
pub mod ids;
pub mod link;
pub mod machine;
pub mod nic;
pub mod platforms;

pub use behavior::{ArbitrationSpec, CoreStreamSpec, HwBehavior, MemCtrlSpec, NoiseSpec};
pub use builder::PlatformBuilder;
pub use cxl::CxlPool;
pub use error::TopologyError;
pub use graph::{CapacityRule, ResourceGraph, ResourceKind, ResourceNode};
pub use ids::{CoreId, LinkId, NumaId, PoolId, SocketId};
pub use link::{InterSocketLink, InterSocketTech, PcieGen};
pub use machine::{MachineTopology, NumaNode, Socket};
pub use nic::{NetworkTech, Nic};
pub use platforms::Platform;
