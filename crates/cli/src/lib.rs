//! # mc-cli — the `memcontend` command-line tool
//!
//! A thin, fully-testable command layer over the workspace: every
//! subcommand is a function from parsed arguments to a rendered string, so
//! the binary only parses `argv` and prints.
//!
//! The subcommands and their options are listed once, in
//! [`commands::USAGE`]: its synopsis lines are also what
//! [`Args::only_as_in`] checks a command line against. The model ops
//! (predict, calibrate, evaluate, advise/recommend, replay) read and
//! check their inputs in one place, the private `ops` module, for both
//! the subcommands and `serve`.
//!
//! `serve` is the exception to "function to rendered string": it runs a
//! long-lived JSON-lines request/response loop — over stdin/stdout, or
//! with `--listen` over TCP for many credit-gated tenant connections
//! (see [`net`]) — backed by a sharded LRU registry of calibrated
//! models (see [`serve`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod commands;
pub mod exports;
pub mod net;
mod ops;
pub mod serve;

pub use args::{Args, CliError, EXIT_INVALID_DATA, EXIT_IO, EXIT_USAGE};
pub use commands::run;
