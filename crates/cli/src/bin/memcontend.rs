//! `memcontend` binary: parse argv, dispatch, print.
//!
//! Exit codes: 0 success, 2 usage error (bad or unknown flags, unknown
//! command or platform, out-of-range NUMA node), 3 invalid or degenerate
//! input data (a sweep that cannot calibrate, a malformed model file), 4
//! file I/O failure.
//!
//! The global `--metrics`, `--trace` and `--trace-format` options are
//! handled by [`mc_cli::exports`]. The `replay` and `schedule`
//! subcommands additionally accept `--report FILE.html`; the registry is
//! installed for them too so the report can embed the run's metrics.

use std::process::ExitCode;

use mc_cli::exports::Exports;
use mc_cli::{run, Args, CliError};

fn fail(e: &CliError) -> ExitCode {
    if e.is_usage() {
        eprintln!("error: {e}\n\n{}", mc_cli::commands::USAGE);
    } else {
        eprintln!("error: {e}");
    }
    ExitCode::from(e.exit_code())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "-h" || argv[0] == "--help" {
        println!("{}", mc_cli::commands::USAGE);
        return ExitCode::SUCCESS;
    }
    let result = Args::parse(argv).and_then(|mut args| {
        let exports = Exports::take(&mut args)?;
        // `--report` is per-subcommand (the command builds the HTML
        // itself) but still wants a recorder installed.
        let report = args.options.contains_key("report");
        exports.around(report, || {
            let _span = mc_obs::span(
                "memcontend",
                &[("command", mc_obs::TagValue::Str(&args.command))],
            );
            // Printed before the exports are written, so a failed export
            // still leaves the command's output behind.
            run(&args).map(|output| print!("{output}"))
        })
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}
