//! `repro` — regenerate every table and figure of the paper, e.g.
//! `repro table1,fig3 --exact yes`. [`USAGE`] lists the targets and
//! declares the options. Exit codes follow the `memcontend` contract: 0
//! success, 2 usage mistakes, 3 invalid or degenerate input data, 4 file
//! I/O failures.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use mc_bench::figures::{figure1, figure2, placement_grid, predictions_csv, FIGURE_PLATFORMS};
use mc_bench::tables::{table1, table2};
use mc_cli::exports::Exports;
use mc_cli::{Args, CliError};
use mc_membench::{Backend, BenchConfig, PlatformSweep};
use mc_model::McError;
use mc_topology::platforms;

/// Usage text. Its synopsis (`  repro TARGET...` and the lines it
/// continues with `\`) declares the options.
const USAGE: &str = "\
usage: repro [TARGET[,TARGET]...] [--option value]...

  repro TARGET[,TARGET]... [--out DIR] [--event-driven yes] [--exact yes] \\
                           [--sweep-csv FILE] [--metrics FILE] [--trace FILE] \\
                           [--trace-format jsonl|chrome]

targets, comma-joined (all when none is given): all table1 table2 fig1
  fig2 fig3 fig4 fig5 fig6 fig7 fig8 ablation sensitivity calibrate
  timeline msgsize heatmap gantt dualsocket evaluate-csv (scores the
  measured sweep CSV that --sweep-csv names)

--out defaults to ./out; --event-driven yes measures with the
discrete-event engine; --exact yes disables measurement noise; the
metrics and trace exports work as on memcontend.

exit codes: 0 success, 2 usage error, 3 invalid or degenerate input data,
            4 file I/O failure
";

/// Reject a comma-joined target that [`USAGE`]'s target list (the words
/// after `given):`, up to the parenthesised note) does not name.
fn check_targets(targets: &str) -> Result<(), CliError> {
    let (_, list) = USAGE
        .split_once("given):")
        .expect("USAGE lists the targets");
    let known: Vec<&str> = list
        .split_whitespace()
        .take_while(|w| !w.starts_with('('))
        .collect();
    match targets.split(',').find(|t| !known.contains(t)) {
        Some(t) => Err(CliError::Usage(format!("unknown target '{t}'"))),
        None => Ok(()),
    }
}

fn write(out_dir: &Path, name: &str, content: &str) -> Result<(), CliError> {
    let path = out_dir.join(name);
    fs::write(&path, content).map_err(|e| McError::io(path.display().to_string(), e))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run_figure(fig: u8, config: BenchConfig, out_dir: &Path) -> Result<(), CliError> {
    let name = FIGURE_PLATFORMS
        .iter()
        .find(|(f, _)| *f == fig)
        .map(|(_, n)| *n)
        .ok_or_else(|| CliError::UnknownCommand(format!("fig{fig}")))?;
    let platform =
        platforms::by_name(name).ok_or_else(|| CliError::UnknownPlatform(name.to_string()))?;
    let (grid, sweep) = placement_grid(&platform, config)?;
    let cell = if platform.topology.numa_count() > 2 {
        (280.0, 200.0)
    } else {
        (360.0, 260.0)
    };
    write(
        out_dir,
        &format!("fig{fig}_{name}.svg"),
        &grid.render(cell.0, cell.1).render(),
    )?;
    write(
        out_dir,
        &format!("fig{fig}_{name}_measured.csv"),
        &sweep.to_csv(),
    )?;
    write(
        out_dir,
        &format!("fig{fig}_{name}_predicted.csv"),
        &predictions_csv(&platform, &sweep)?,
    )
}

/// Score a measured-sweep CSV against the calibrated model of its own
/// platform — the path that exercises the 3/4 exit codes on degenerate or
/// unreadable data.
fn evaluate_csv(path: &str, out_dir: &Path) -> Result<(), CliError> {
    let text = fs::read_to_string(path).map_err(|e| McError::io(path, e))?;
    let sweep = PlatformSweep::from_csv(&text).map_err(McError::from)?;
    let platform = platforms::by_name(&sweep.platform)
        .ok_or_else(|| CliError::UnknownPlatform(sweep.platform.clone()))?;
    let e = mc_bench::tables::evaluate_from_sweep(&platform, &sweep)?;
    let out = format!(
        "SWEEP EVALUATION — {} ({path})\n\
         comm all: {:.2} %  comp all: {:.2} %  average: {:.2} %\n",
        platform.name(),
        e.comm_all,
        e.comp_all,
        e.average
    );
    print!("{out}");
    write(out_dir, "evaluate_csv.txt", &out)
}

fn run(args: &Args) -> Result<(), CliError> {
    let out_dir = Path::new(args.get("out").unwrap_or("out"));
    let mut config = BenchConfig::default();
    if args.flag("event-driven")? {
        config.backend = Backend::EventDriven;
    }
    config.noisy = !args.flag("exact")?;
    fs::create_dir_all(out_dir).map_err(|e| McError::io(out_dir.display().to_string(), e))?;

    let targets: Vec<&str> = args.command.split(',').collect();
    let all = targets.contains(&"all");
    let wants = |t: &str| all || targets.contains(&t);

    if wants("table1") {
        let t = table1();
        println!("{t}");
        write(out_dir, "table1.txt", &t)?;
    }
    if wants("fig1") {
        let f = figure1();
        write(out_dir, "fig1_topologies.txt", &f)?;
    }
    if wants("fig2") {
        let _span = mc_obs::span("repro.fig2", &[]);
        let data = figure2(config)?;
        write(
            out_dir,
            "fig2_stacked.svg",
            &data.render(720.0, 460.0).render(),
        )?;
        let mut csv = String::from("n_cores,comp_par,comm_par,comp_alone\n");
        for i in 0..data.n_cores.len() {
            csv.push_str(&format!(
                "{},{:.6},{:.6},{:.6}\n",
                data.n_cores[i], data.comp_par[i], data.comm_par[i], data.comp_alone[i]
            ));
        }
        write(out_dir, "fig2_stacked.csv", &csv)?;
    }
    for fig in 3u8..=8 {
        if wants(&format!("fig{fig}")) {
            let _span = mc_obs::span(
                "repro.figure",
                &[("figure", mc_obs::TagValue::U64(fig as u64))],
            );
            run_figure(fig, config, out_dir)?;
        }
    }
    if wants("table2") {
        let _span = mc_obs::span("repro.table2", &[]);
        let t = table2(config)?;
        println!("{t}");
        write(out_dir, "table2.txt", &t)?;
    }
    if wants("ablation") {
        let t = mc_bench::ablation::ablation_table(config)?;
        println!("{t}");
        write(out_dir, "ablation.txt", &t)?;
    }
    if wants("heatmap") {
        for name in ["henri", "pyxis", "henri-subnuma"] {
            let p = platforms::by_name(name)
                .ok_or_else(|| CliError::UnknownPlatform(name.to_string()))?;
            let hm = mc_bench::figures::error_heatmap(&p, config)?;
            write(
                out_dir,
                &format!("extra_heatmap_{name}.svg"),
                &hm.render(86.0).render(),
            )?;
        }
    }
    if wants("timeline") {
        let chart = mc_bench::figures::timeline_figure();
        write(
            out_dir,
            "extra_timeline.svg",
            &chart.render(820.0, 420.0).render(),
        )?;
    }
    if wants("gantt") {
        let gantt = mc_bench::figures::overlap_gantt();
        write(out_dir, "extra_gantt.svg", &gantt.render(860.0).render())?;
    }
    if wants("msgsize") {
        let mut cfg = config;
        cfg.backend = Backend::EventDriven;
        let p = platforms::by_name("henri").expect("built-in platform");
        let t = mc_bench::msgsize::msgsize_table(&p, cfg)?;
        println!("{t}");
        write(out_dir, "msgsize.txt", &t)?;
    }
    if wants("dualsocket") {
        let p = platforms::by_name("henri").expect("built-in platform");
        let t = mc_bench::dualsocket::dual_socket_table(&p);
        println!("{t}");
        write(out_dir, "dualsocket.txt", &t)?;
    }
    if wants("sensitivity") {
        let p = platforms::by_name("henri").expect("built-in platform");
        let t = mc_bench::sensitivity::sensitivity_table(&p, config)?;
        println!("{t}");
        write(out_dir, "sensitivity.txt", &t)?;
    }
    if wants("calibrate") {
        let mut out = String::from("CALIBRATED MODEL PARAMETERS PER PLATFORM\n");
        for p in platforms::all() {
            let sweep = mc_membench::sweep_platform_parallel(&p, config);
            let model = mc_bench::tables::calibrated_model(&p, &sweep)?;
            out.push_str(&format!(
                "{}\n  M_local : {}\n  M_remote: {}\n",
                p.name(),
                model.local().params(),
                model.remote().params()
            ));
        }
        println!("{out}");
        write(out_dir, "calibration.txt", &out)?;
    }
    if wants("evaluate-csv") {
        evaluate_csv(args.require("sweep-csv")?, out_dir)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if matches!(argv.first().map(String::as_str), Some("-h" | "--help")) {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if argv.is_empty() {
        argv.push("all".into());
    }
    let result = Args::parse(argv).and_then(|mut args| {
        let exports = Exports::take(&mut args)?;
        args.only_as_in(USAGE, "repro")?;
        check_targets(&args.command)?;
        exports.around(false, || run(&args))
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            if e.is_usage() {
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}
