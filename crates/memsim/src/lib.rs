//! # mc-memsim — flow-level simulator of NUMA memory systems
//!
//! The hardware substitute for the paper's six physical testbed machines.
//! It models the memory/IO fabric of a dual-socket NUMA node — memory
//! controllers, inter-socket bus directions, the NIC's PCIe link and wire —
//! as capacity-limited resources, and computes the bandwidth each stream
//! (computing core or NIC DMA engine) obtains with a **tiered max-min
//! solver** implementing the arbitration hypotheses the paper validates
//! (§II-A):
//!
//! * CPU memory requests have priority over PCIe (DMA) requests;
//! * a minimal DMA bandwidth is always guaranteed ("to prevent
//!   starvations");
//! * computing cores degrade uniformly when the bus saturates;
//! * cores also contend with each other — controller capacity shrinks per
//!   extra accessor beyond a knee.
//!
//! A small discrete-event engine ([`engine`]) runs benchmark scenarios
//! against the solver and reports steady-state bandwidths. Each activity
//! is one stream of back-to-back units (kernel passes, 64 MB messages)
//! with a timed lead and tail around each unit (a rendezvous handshake,
//! a pass overhead or message gap); [`noise`]
//! supplies deterministic run-to-run jitter.
//!
//! ```
//! use mc_memsim::fabric::{Fabric, StreamSpec};
//! use mc_topology::{platforms, NumaId};
//!
//! let fabric = Fabric::new(&platforms::henri());
//! // 17 cores + the NIC all hammering NUMA node 0:
//! let streams = Fabric::benchmark_streams(17, Some(NumaId::new(0)), Some(NumaId::new(0)));
//! let solved = fabric.solve(&streams);
//! let comm = solved.dma_total(&streams);
//! let comp = solved.cpu_total(&streams);
//! assert!(comm < fabric.dma_demand(NumaId::new(0))); // contention!
//! assert!(comp + comm <= 80.0 + 1e-9);               // bus capacity
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod delta;
pub mod engine;
pub mod fabric;
pub mod faults;
pub mod fxhash;
pub mod node;
pub mod noise;
pub mod solver;

pub use cache::LlcSpec;
pub use delta::{ActiveSet, DeltaSolver, DeltaStats, SolvedState};
pub use engine::{Activity, ActivityReport, Engine, RunReport, SolverStats, TraceSample};
pub use fabric::{Fabric, FabricScratch, ResourceKind, SolveResult, StreamSpec};
pub use faults::{inject, inject_all, EngineFault};
pub use node::{JobFinish, JobLoad, NodeRun, NodeWorld};
pub use noise::Noise;
pub use solver::{allocate, allocate_into, Allocation, FlowClass, FlowReq, FlowSet, SolverScratch};
