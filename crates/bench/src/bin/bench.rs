//! `bench` — the repository's own studies, one scenario per run:
//!
//! ```text
//! bench replay   --pattern P --ranks N [...]   one BENCH_3 scaling point
//! bench schedule [--jobs N] [--nodes N] [...]  one BENCH_4 row
//! bench cxl      [--platform NAME] [...]       the BENCH_5 crossover
//! bench loadgen  --addr HOST:PORT [...]        BENCH_2 serving load
//! ```
//!
//! Prints one JSON object. Exit codes: 0 success, 2 usage error, 3
//! invalid or degenerate data, 4 I/O failure; `loadgen` also exits 1
//! when no request completed.

use std::process::ExitCode;

use mc_bench::scenario::{self, USAGE};
use mc_cli::Args;
use mc_json::Json;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        argv.first().map(String::as_str),
        Some("-h" | "--help" | "help")
    ) {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match Args::parse(argv).and_then(|args| scenario::run(&args)) {
        Ok(summary) => {
            println!("{}", summary.render());
            // A load run that completed nothing failed; CI keys off it.
            if summary.get("completed") == Some(&Json::Num(0.0)) {
                eprintln!("bench: no request completed");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench: {e}");
            if e.is_usage() {
                eprintln!("\n{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}
