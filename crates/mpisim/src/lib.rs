//! # mc-mpisim — an MPI-like message layer over the simulated fabric
//!
//! The substitute for MadMPI (the MPI interface of NewMadeleine) in the
//! paper's setup: non-blocking point-to-point messaging between simulated
//! nodes with MPI tag-matching semantics, rendezvous for large messages,
//! and a request-level event loop that co-simulates transfers with compute
//! jobs over each node's `mc-memsim` fabric — so memory contention on
//! either endpoint slows the wire transfer, which is precisely the
//! phenomenon the paper models.
//!
//! ```
//! use mc_mpisim::{Tag, World};
//! use mc_topology::{platforms, NumaId};
//!
//! let mut world = World::pair(&platforms::henri());
//! let numa = NumaId::new(0);
//! // Rank 0 receives a 64 MiB message from rank 1 while 17 of its cores
//! // stream to the same NUMA node:
//! world.start_compute(0, numa, 17, 1 << 30).unwrap();
//! let r = world.irecv(0, 1, numa, 64 << 20, Tag(0)).unwrap();
//! world.isend(1, 0, numa, 64 << 20, Tag(0)).unwrap();
//! let done = world.wait(r).unwrap();
//! assert!(done > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod collectives;
pub mod error;
pub mod request;
mod slab;
pub mod world;

pub use collectives::{
    allgather_ring, allreduce_ring, barrier, broadcast, exchange, gather, recv, scatter, send,
};
pub use error::MpiError;
pub use request::{JobId, Rank, RequestId, RequestStatus, Tag};
pub use world::{CommMode, JobRecord, TransferRecord, World, WorldSolverStats};
