//! # mc-bench — reproduction harness
//!
//! Regenerates every table and figure of the paper's evaluation against the
//! simulated platforms, runs the repository's own studies (the `bench`
//! binary's [`scenario`]s).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod dualsocket;
pub mod figures;
pub mod loadgen;
pub mod msgsize;
pub mod scenario;
pub mod sensitivity;
pub mod tables;
