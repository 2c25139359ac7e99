//! # mc-replay — trace-driven application replay
//!
//! The paper's model predicts the bandwidth each stream gets when
//! communications and computations share a memory system. This crate
//! lifts that prediction from single phases to *whole programs*: it
//! replays a per-rank event trace (compute phases, point-to-point
//! messages, collectives, waits) through the multi-node simulator and
//! reports
//!
//! * the predicted **makespan** with memory contention simulated,
//! * the **uncontended baseline** — the same schedule where every
//!   stream enjoys the bandwidth it would have alone, and
//! * their ratio, the whole-program **contention slowdown**.
//!
//! ## Pieces
//!
//! * [`trace`] — the JSON-lines trace grammar, strict typed parsing and
//!   byte-stable writing;
//! * [`generate`] — synthetic traces (2D halo exchange, ring-allreduce
//!   training step, pipeline stages);
//! * [`stream`] — streaming ingestion: the [`EventSource`] cursor
//!   abstraction and [`TraceReader`], which replays JSON-lines traces
//!   straight off a [`std::io::BufRead`] in memory bounded by ranks,
//!   not events;
//! * [`engine`] — the replay loop on [`mc_mpisim::World`];
//! * [`search`](mod@search) — brute-force placement search over `(n, m_comp,
//!   m_comm)` plus a cross-check against the model's advisor;
//! * [`report`] — deterministic text reports and per-rank Gantt charts.
//!
//! ```
//! use mc_replay::generate::{self, GenParams};
//! use mc_replay::{replay, ReplayConfig};
//! use mc_topology::platforms;
//!
//! let trace = generate::halo2d(&GenParams::default());
//! let out = replay(&platforms::henri(), &trace, &ReplayConfig::default()).unwrap();
//! assert!(out.slowdown >= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod generate;
pub mod report;
pub mod search;
pub mod stream;
pub mod trace;

pub use engine::{
    replay, replay_with, run_once, run_source, EventSpan, ReplayConfig, ReplayError, ReplayOutcome,
    ReplayRun, SourceRun, KINDS,
};
pub use mc_mpisim::CommMode;
pub use search::{
    advisor_crosscheck, phase_profile, search, Crosscheck, SearchOutcome, SearchPoint,
};
pub use stream::{EventSource, TraceReader, TraceSource};
pub use trace::{CollectiveOp, EventKind, Trace, TraceError};
