//! `perf` — the repository's benchmark: four workloads through the
//! simulator's host-time-heavy paths, end-to-end metrics in
//! reference-host seconds, and a traced run that times each layer from
//! outside the program. See `BENCHMARK.md` next to this package.
//!
//! ```text
//! perf run     [--workload NAME] [--seed N] [--ops N | --seconds S] [--setups N]
//!              [--out FILE] [--trace 0|1] [--trace-dir DIR]
//! perf compare BASE.jsonl CHANGE.jsonl
//! ```
//!
//! `run` without `--workload` runs each workload in a child process of
//! its own, one after another, so each `peak_rss_kb` is that workload's
//! alone. `--trace 1` is the traced run: every workload in this process,
//! per-layer metrics, and with `--trace-dir` the files `layers.json` and
//! `trace.json`. Each workload prints its full record, then a one-line
//! summary (`correct`, `attempted`, `failed`, `metrics`). `--out` appends
//! every record to a file, the input of `compare`. Exit status: 0 when
//! every check passed, 1 when an op or a check failed, 2 on a usage
//! error.

mod compare;
mod harness;
mod layers;
mod probe;
mod stats;
mod workloads;

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use mc_cli::Args;
use mc_json::Json;

use harness::{measure, Plan, Reference, Sink, Stop};
use probe::Probe;
use workloads::{Spec, SPECS};

const USAGE: &str = "usage:
  perf run     [--workload NAME] [--seed N] [--ops N | --seconds S] [--setups N]
               [--out FILE] [--trace 0|1] [--trace-dir DIR]
  perf compare BASE.jsonl CHANGE.jsonl";

/// Flags `run` accepts.
const FLAGS: [&str; 8] = [
    "workload",
    "seed",
    "ops",
    "seconds",
    "setups",
    "out",
    "trace",
    "trace-dir",
];

/// Ops a traced run times per workload unless told otherwise.
const TRACED_OPS: usize = 20;

enum Failure {
    Usage(String),
    Run(String),
}

fn usage(msg: impl Into<String>) -> Failure {
    Failure::Usage(msg.into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(Failure::Usage(msg)) => {
            eprintln!("perf: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Run(msg)) => {
            eprintln!("perf: {msg}");
            ExitCode::from(1)
        }
    }
}

/// Parsed `run` options.
struct Options {
    workloads: Vec<&'static Spec>,
    seed: u64,
    ops: Option<usize>,
    seconds: Option<f64>,
    setups: usize,
    out: Option<String>,
    traced: bool,
    trace_dir: Option<PathBuf>,
    reference: Reference,
}

impl Options {
    fn parse(args: &Args) -> Result<Options, Failure> {
        if args.command != "run" {
            return Err(usage(format!("unknown subcommand '{}'", args.command)));
        }
        if let Some(flag) = args.options.keys().find(|k| !FLAGS.contains(&k.as_str())) {
            return Err(usage(format!("unknown flag --{flag}")));
        }
        let traced = match args.get("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(usage(format!("--trace must be 0 or 1, not '{v}'"))),
        };
        let trace_dir = args.get("trace-dir").map(PathBuf::from);
        if trace_dir.is_some() && !traced {
            return Err(usage("--trace-dir needs --trace 1"));
        }
        let workloads = match args.get("workload") {
            None => SPECS.iter().collect(),
            Some(name) => vec![workloads::spec(name).ok_or_else(|| {
                let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                usage(format!(
                    "unknown workload '{name}' (expected one of: {})",
                    names.join(", ")
                ))
            })?],
        };
        let num = |e: mc_cli::CliError| usage(e.to_string());
        let ops: Option<usize> = args
            .get("ops")
            .map(|_| args.require_num("ops"))
            .transpose()
            .map_err(num)?;
        let seconds: Option<f64> = args
            .get("seconds")
            .map(|_| args.require_num("seconds"))
            .transpose()
            .map_err(num)?;
        if ops.is_some() && seconds.is_some() {
            return Err(usage("--ops and --seconds exclude each other"));
        }
        if ops == Some(0) || seconds.is_some_and(|s| !(s.is_finite() && s > 0.0)) {
            return Err(usage("--ops and --seconds must be positive"));
        }
        let setups = args
            .num_or("setups", harness::DEFAULT_SETUPS)
            .map_err(num)?;
        if setups == 0 {
            return Err(usage("--setups must be at least 1"));
        }
        Ok(Options {
            workloads,
            seed: args.num_or("seed", 42u64).map_err(num)?,
            ops,
            seconds,
            setups,
            out: args.get("out").map(str::to_string),
            traced,
            trace_dir,
            reference: Reference::builtin().map_err(Failure::Run)?,
        })
    }

    fn plan<'a>(&'a self, spec: &'static Spec, work_dir: &'a Path) -> Plan<'a> {
        let stop = match (self.seconds, self.ops) {
            (Some(s), _) => Stop::Seconds(s),
            (None, Some(n)) => Stop::Ops(n),
            (None, None) if self.traced => Stop::Ops(TRACED_OPS),
            (None, None) => Stop::Ops(spec.ops),
        };
        Plan {
            spec,
            seed: self.seed,
            stop,
            setups: self.setups,
            traced: self.traced,
            work_dir,
            reference: &self.reference,
        }
    }
}

fn dispatch(argv: &[String]) -> Result<bool, Failure> {
    if argv.first().map(String::as_str) == Some("compare") {
        let [base, change] = &argv[1..] else {
            return Err(usage("compare needs BASE.jsonl CHANGE.jsonl"));
        };
        return compare::run(base, change).map_err(Failure::Run);
    }
    if argv.is_empty() || matches!(argv[0].as_str(), "help" | "--help" | "-h") {
        emit(USAGE);
        return Ok(true);
    }
    let args = Args::parse(argv.iter().cloned()).map_err(|e| usage(e.to_string()))?;
    let opts = Options::parse(&args)?;
    // Files the workloads write live inside this package's directory,
    // so a run reads and writes nothing outside its checkout.
    let work_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let result = match (opts.traced, opts.workloads.as_slice()) {
        (true, _) => trace(&opts, &work_dir),
        (false, [spec]) => run_one(&opts, spec, &work_dir),
        (false, _) => run_children(&opts),
    };
    // Only succeeds once empty; a concurrent run keeps it.
    let _ = fs::remove_dir(&work_dir);
    result
}

/// Print one line. A closed stdout is not worth a panic: the exit status
/// still reports the outcome.
fn emit(text: &str) {
    let _ = writeln!(std::io::stdout().lock(), "{text}");
}

fn append(path: &str, line: &str) -> Result<(), Failure> {
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| Failure::Run(format!("{path}: {e}")))?;
    writeln!(f, "{line}").map_err(|e| Failure::Run(format!("{path}: {e}")))
}

/// Measure one workload in this process.
fn run_one(opts: &Options, spec: &'static Spec, work_dir: &Path) -> Result<bool, Failure> {
    // Allocated before set-up: part of the workload's peak RSS.
    let mut probe = Probe::new();
    let plan = opts.plan(spec, work_dir);
    let m = measure(&plan, &mut probe, None).map_err(Failure::Run)?;
    let record = harness::record(&plan, &m).render();
    emit(&record);
    if let Some(out) = &opts.out {
        append(out, &record)?;
    }
    emit(&harness::summary(false, &m).render());
    Ok(m.correct())
}

/// Measure every workload, each in a child process of its own.
fn run_children(opts: &Options) -> Result<bool, Failure> {
    let exe = std::env::current_exe().map_err(|e| Failure::Run(e.to_string()))?;
    let mut all_ok = true;
    for spec in &opts.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", spec.name]);
        cmd.args(["--seed", &opts.seed.to_string()]);
        cmd.args(["--setups", &opts.setups.to_string()]);
        if let Some(n) = opts.ops {
            cmd.args(["--ops", &n.to_string()]);
        }
        if let Some(s) = opts.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        let child = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| Failure::Run(format!("{}: {e}", exe.display())))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        if !stdout.trim().is_empty() {
            emit(stdout.trim_end());
        }
        // `compare` pairs records by position: a run without one would
        // put every later pair out of step.
        let record = stdout.lines().next().filter(|line| {
            Json::parse(line)
                .ok()
                .is_some_and(|r| r.get("workload").and_then(Json::as_str) == Some(spec.name))
        });
        let Some(record) = record else {
            return Err(Failure::Run(format!(
                "{}: the run printed no record ({})",
                spec.name, child.status
            )));
        };
        if let Some(out) = &opts.out {
            append(out, record)?;
        }
        all_ok &= child.status.success();
    }
    Ok(all_ok)
}

/// The traced run: every workload in this process, spans into one
/// Chrome trace, per-layer metrics into `layers.json`.
fn trace(opts: &Options, work_dir: &Path) -> Result<bool, Failure> {
    let sink = Sink::new();
    let mut probe = Probe::new();
    let mut all_ok = true;
    let mut layers = Vec::new();
    for spec in &opts.workloads {
        let plan = opts.plan(spec, work_dir);
        let m = measure(&plan, &mut probe, Some(&sink)).map_err(Failure::Run)?;
        let record = harness::record(&plan, &m);
        let line = record.render();
        emit(&line);
        if let Some(out) = &opts.out {
            append(out, &line)?;
        }
        emit(&harness::summary(true, &m).render());
        all_ok &= m.correct();
        let workload_layers = record.get("layers").cloned().unwrap_or(Json::Null);
        layers.push((spec.name.to_string(), workload_layers));
    }
    if let Some(dir) = &opts.trace_dir {
        let write = |name: &str, text: String| {
            let path = dir.join(name);
            fs::write(&path, text).map_err(|e| Failure::Run(format!("{}: {e}", path.display())))
        };
        fs::create_dir_all(dir).map_err(|e| Failure::Run(format!("{}: {e}", dir.display())))?;
        let doc = mc_json::obj(vec![("workloads", Json::Obj(layers))]);
        write("layers.json", doc.render() + "\n")?;
        write("trace.json", sink.registry.chrome_trace())?;
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(doc: &Json, section: &str) -> Vec<(String, String, String)> {
        let field = |r: &Json, k: &str| r.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        doc.get(section)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
            .iter()
            .map(|r| (field(r, "name"), field(r, "unit"), field(r, "better")))
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let workloads: Vec<String> = rows(&doc, "workloads").into_iter().map(|r| r.0).collect();
        let specs: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(workloads, specs);
        let better = |higher: bool| if higher { "higher" } else { "lower" }.to_string();
        let end_to_end: Vec<_> = harness::END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better(m.higher_is_better),
                )
            })
            .collect();
        assert_eq!(rows(&doc, "end_to_end"), end_to_end);
        let per_layer: Vec<_> = rows(&doc, "per_layer")
            .into_iter()
            .map(|r| (r.0, r.1))
            .collect();
        let layers: Vec<_> = layers::LAYERS
            .iter()
            .filter(|l| l.summarised())
            .map(|l| (l.name.to_string(), l.unit.to_string()))
            .collect();
        assert_eq!(per_layer, layers);
    }
}
