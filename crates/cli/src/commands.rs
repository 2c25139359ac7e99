//! Subcommand implementations. Each returns the rendered output as a
//! string; file I/O (saving/loading model files, exports) is the only
//! side effect. The model ops read and check their inputs in
//! `crate::ops`; this module renders their results as text.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;

use mc_membench::{BenchConfig, BenchRunner};
use mc_model::{format_percent, model_to_text, McError, ModelRegistry};
use mc_obs::{tags, TagValue};
use mc_replay::report;
use mc_topology::{platforms, NumaId, Platform};
use mc_viz::TopologySketch;

use crate::args::{at_most, Args, CliError, MAX_SCHED_COUNT};
use crate::ops;

/// Usage text. Its synopsis lines (`  memcontend COMMAND ...` and the
/// lines they continue with `\`) declare each subcommand's options:
/// [`run`] rejects any other option.
pub const USAGE: &str = "\
memcontend — model memory contention between communications and computations

usage:
  memcontend topo      [--platform NAME]
  memcontend bench     --platform NAME [--comp-numa N] [--comm-numa N]
  memcontend calibrate --platform NAME [--save FILE] [--sparse yes]
  memcontend predict   (--platform NAME | --model FILE) --cores N \\
                       --comp-numa A --comm-numa B
  memcontend advise    --platform NAME --compute-gb X --comm-gb Y \\
                       [--max-cores N]
  memcontend evaluate  --platform NAME
  memcontend replay    (--input TRACE.jsonl | --generate PATTERN) \\
                       --platform NAME [--ranks N] [--iters N] [--cores N] \\
                       [--compute-mb X] [--comm-mb Y] [--comp-numa A] \\
                       [--comm-numa B] [--search yes] [--gantt FILE] \\
                       [--save-trace FILE] [--stream yes] [--report FILE.html] \\
                       [--comm-mode messages|cxl]
  memcontend schedule  --jobs QUEUE.jsonl \\
                       (--platform NAME [--nodes N] | --fleet NAME*N,...) \\
                       [--policy first_fit|round_robin|contention_aware|all] \\
                       [--max-slowdown X] [--seed N] [--report FILE.html]
  memcontend serve     [--workers N] [--capacity N] \\
                       [--warm PLATFORM=FILE]... \\
                       [--listen HOST:PORT] [--credits N] [--queue N] \\
                       [--wait-ms MS] [--max-conns N]
  memcontend help

replay predicts the whole-program slowdown a JSON-lines event trace
suffers from memory contention (patterns: halo2d, allreduce, pipeline;
--search yes sweeps every NUMA placement and cross-checks the model's
advisor; --gantt renders the contended timeline as SVG). With --input,
--cores/--comp-numa/--comm-numa re-home the trace instead of feeding
the generator. --stream yes replays without materializing the trace:
--input files are parsed line by line (first line must be a
{\"ranks\":N} header — what --stream --save-trace writes), generators
run lazily, memory stays bounded by ranks not events, and per-rank
timelines are kept for the first 64 ranks only (--search needs the
full trace and is incompatible). --comm-mode cxl lowers every message
to load/store stream pairs against the platform's CXL.mem pool
(message-free communication; the platform must declare a pool, e.g.
henri-cxl) and prints a head-to-head against the ordinary messaging
replay; the gantt/report exports then show the message-free timeline.

schedule places a JSON-lines job queue (one job object per line: inline
{\"name\",\"compute_gb\",\"comm_gb\",\"max_cores\"}, a synthetic
{\"pattern\",\"ranks\",...}, or a recorded {\"trace\":FILE}) onto a fleet
of simulated nodes and prints per-job placements, predicted finish
times, makespan and throughput. --fleet mixes platforms
(henri*2,dahu*1); --policy all compares every policy. The
contention-aware policy co-locates jobs only while the predicted
slowdown of every affected job stays under --max-slowdown (default
1.25), using the calibrated model plus a per-node fluid simulation.

serve reads one JSON request per stdin line and writes one JSON response
per stdout line: {\"op\":\"predict\"|\"calibrate\"|\"evaluate\"|\"recommend\"|
\"replay\"|\"stats\", ...} or {\"batch\":[...]} to fan requests over a
worker pool. Calibrated models are cached in a sharded LRU registry
(--capacity models; --warm seeds it from saved model files and may be
repeated; the comma form still works when paths are comma-free). EOF
ends the service with exit code 0.

With --listen HOST:PORT serve becomes a TCP service instead: it prints
{\"listening\":\"ADDR\"} (resolving port 0) and accepts many concurrent
connections, each speaking the same JSON-lines protocol after a first
{\"hello\":{\"tenant\":ID}} line. Every tenant holds --credits request
credits (a batch costs one per item, returned as responses are written);
floods past the budget wait boundedly (--queue deep, --wait-ms long) and
then receive {\"ok\":false,\"error\":{\"class\":\"overload\",...}}.
{\"op\":\"shutdown\"} stops the service cleanly; a failed connection
tears down only itself.

replay and schedule accept --report FILE.html: a self-contained HTML
report (inline SVG Gantt timelines, metrics tables, run metadata — no
external resources) written next to the normal text output.

global options (any subcommand):
  --metrics FILE   export pipeline counters/histograms as JSON lines
  --trace FILE     export pipeline spans as JSON lines
  --trace-format F span format for --trace: jsonl (default) or chrome,
                   a Chrome trace_event JSON array that opens directly
                   in chrome://tracing and ui.perfetto.dev

platforms: henri, henri-subnuma, dahu, diablo, pyxis, occigen, grillon,
           henri-cxl, dahu-cxl

exit codes: 0 success, 2 usage error, 3 invalid or degenerate input data,
            4 file I/O failure
";

/// `topo`: draw one or all machines.
pub fn topo(args: &Args) -> Result<String, CliError> {
    let targets = match args.get("platform") {
        Some(_) => vec![ops::platform(args)?],
        None => platforms::all(),
    };
    let mut out = String::new();
    for p in targets {
        let topo = &p.topology;
        let sketch = TopologySketch {
            name: topo.summary(),
            sockets: topo.sockets.len(),
            cores_per_socket: topo.cores_per_socket(),
            numa_per_socket: topo.numa_per_socket(),
            nic_socket: topo.nic.socket.index(),
            network: topo.nic.tech.to_string(),
            bus: topo.links[0].tech.to_string(),
        };
        out.push_str(&mc_viz::topology_diagram(&sketch));
        out.push('\n');
    }
    Ok(out)
}

/// `bench`: run one placement sweep and print the bandwidth table.
pub fn bench(args: &Args) -> Result<String, CliError> {
    let p = ops::platform(args)?;
    let numa = |key| ops::numa(args, key, p.topology.numa_count());
    let m_comp = numa(ops::COMP_NUMA)?.unwrap_or(NumaId::new(0));
    let m_comm = numa(ops::COMM_NUMA)?.unwrap_or(NumaId::new(0));
    let runner = BenchRunner::new(&p, BenchConfig::default());
    let sweep = runner.run_placement(m_comp, m_comm);
    let mut out = format!(
        "{} — computation data on {m_comp}, communication data on {m_comm}\n",
        p.name()
    );
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "cores", "comp alone", "comm alone", "comp ||", "comm ||"
    );
    for pt in &sweep.points {
        let _ = writeln!(
            out,
            "{:>6} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            pt.n_cores, pt.comp_alone, pt.comm_alone, pt.comp_par, pt.comm_par
        );
    }
    Ok(out)
}

/// `calibrate`: print the parameters of both instantiations and save
/// the model to `--save FILE`.
pub fn calibrate_cmd(args: &Args) -> Result<String, CliError> {
    let c = ops::calibrate(args, None)?;
    let how = match c.sparse_savings {
        Some((local, remote)) => format!(
            "with sparse sweeps ({:.0} % / {:.0} % of runs saved)",
            100.0 * local,
            100.0 * remote
        ),
        None => "from two placement sweeps".into(),
    };
    let mut out = format!("{} calibrated {how}\n", c.platform.name());
    let _ = writeln!(out, "M_local : {}", c.model.local().params());
    let _ = writeln!(out, "M_remote: {}", c.model.remote().params());
    if let Some(path) = args.get("save") {
        fs::write(path, model_to_text(&c.model)).map_err(|e| McError::io(path, e))?;
        let _ = writeln!(out, "model saved to {path}");
    }
    Ok(out)
}

/// `predict`: bandwidths for one configuration, and the share of each
/// that overlap keeps.
pub fn predict(args: &Args) -> Result<String, CliError> {
    let r = ops::predict(args, None)?;
    let (par, alone) = (&r.par, &r.alone);
    Ok(format!(
        "{} cores, computation data on {}, communication data on {}\n\
         computations : {:>8.2} GB/s in parallel ({:>8.2} GB/s alone)\n\
         communications: {:>8.2} GB/s in parallel ({:>8.2} GB/s alone)\n\
         overlap keeps {:.0} % of compute and {:.0} % of network bandwidth\n",
        r.cores,
        r.m_comp,
        r.m_comm,
        par.comp,
        alone.comp,
        par.comm,
        alone.comm,
        100.0 * par.comp / alone.comp,
        100.0 * par.comm / alone.comm
    ))
}

/// `advise`: the five best placements for an application phase.
pub fn advise(args: &Args) -> Result<String, CliError> {
    let a = ops::advise(args, None)?;
    let mut out = format!(
        "{}: {} GB compute overlapped with {} GB received\n",
        a.platform.name(),
        a.compute_gb,
        a.comm_gb
    );
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "cores", "comp on", "comm on", "comp GB/s", "comm GB/s", "makespan"
    );
    for r in a.ranked.iter().take(5) {
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>10} {:>12.1} {:>12.1} {:>10.3} s",
            r.n_cores,
            r.m_comp.to_string(),
            r.m_comm.to_string(),
            r.comp_bw,
            r.comm_bw,
            r.makespan
        );
    }
    Ok(out)
}

/// `evaluate`: the platform's Table II row.
pub fn evaluate_cmd(args: &Args) -> Result<String, CliError> {
    let r = ops::evaluate(args, None)?;
    let e = &r.errors;
    let pc = |v: f64| format_percent(v, 0);
    let mut out = format!(
        "{} — prediction error (MAPE)\n\
         communications: {} % samples, {} % non-samples, {} % all\n\
         computations  : {} % samples, {} % non-samples, {} % all\n\
         average       : {} %\n",
        r.platform.name(),
        pc(e.comm_samples),
        pc(e.comm_non_samples),
        pc(e.comm_all),
        pc(e.comp_samples),
        pc(e.comp_non_samples),
        pc(e.comp_all),
        pc(e.average)
    );
    if e.skipped > 0 {
        let _ = writeln!(
            out,
            "warning       : {} zero-bandwidth pairs excluded from the MAPE",
            e.skipped
        );
    }
    Ok(out)
}

/// `replay`: the report of a trace replay, its placement search and
/// advisor cross-check, and the `--gantt`/`--report` exports.
pub fn replay_cmd(args: &Args) -> Result<String, CliError> {
    let r = ops::replay(args, None)?;
    let (p, outcome) = (&r.platform, &r.outcome);
    // Feed the per-rank timelines to the recorder (when one is
    // installed): `--trace-format chrome` then shows each rank on its
    // own track, and `--report` can table the same spans.
    if let Some(rec) = mc_obs::recorder() {
        report::record_timeline_spans(rec.as_ref(), outcome);
    }
    let mut out = report::render(outcome, p.name());
    if let Some(messages) = &r.messaging {
        out.push_str(&report::render_head_to_head(messages, outcome, p.name()));
    }
    if let Some((found, check)) = &r.search {
        out.push_str(&report::render_search(found));
        let verdict = match &check.advisor {
            None => "no recommendation".to_string(),
            Some(a) => format!(
                "model recommends comp on {}, comm on {} — {} the search winner",
                a.m_comp,
                a.m_comm,
                if check.agree_placement {
                    "agrees with"
                } else {
                    "differs from"
                }
            ),
        };
        let _ = writeln!(out, "advisor cross-check: {verdict}");
    }
    let title = format!("trace replay on {}", p.name());
    if let Some(path) = args.get("gantt") {
        let svg = report::gantt(outcome, &title).render(900.0).render();
        fs::write(path, svg).map_err(|e| McError::io(path, e))?;
        let _ = writeln!(out, "gantt chart written to {path}");
    }
    if let Some(path) = args.get("report") {
        let mut rep = mc_viz::HtmlReport::new(&title);
        rep.meta("platform", p.name());
        if r.messaging.is_some() {
            rep.meta("comm mode", "message-free (cxl)");
        }
        for (name, value) in [
            ("ranks", outcome.ranks.to_string()),
            ("events", outcome.events.to_string()),
            (
                "contended makespan",
                format!("{:.6} s", outcome.contended.makespan),
            ),
            (
                "baseline makespan",
                format!("{:.6} s", outcome.baseline.makespan),
            ),
            ("contention slowdown", format!("{:.3}x", outcome.slowdown)),
        ] {
            rep.meta(name, &value);
        }
        let gantt = report::gantt(outcome, &title).render(900.0);
        rep.figure("Contended timeline", &gantt);
        write_report(rep, path, &mut out)?;
    }
    Ok(out)
}

/// Finish a `--report` page: embed the run's metrics, write it to
/// `path` and say so in `out`.
fn write_report(mut rep: mc_viz::HtmlReport, path: &str, out: &mut String) -> Result<(), CliError> {
    if let Some(snap) = mc_obs::recorder().and_then(|r| r.snapshot()) {
        rep.metrics(&snap);
    }
    fs::write(path, rep.render()).map_err(|e| McError::io(path, e))?;
    let _ = writeln!(out, "report written to {path}");
    Ok(())
}

/// The fleet a `schedule` run places onto: `--fleet henri*2,dahu*1`
/// (mixed) or `--platform NAME --nodes N` (uniform).
fn fleet_platforms(args: &Args) -> Result<Vec<Platform>, CliError> {
    match (args.get("fleet"), args.get("platform")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--fleet and --platform are mutually exclusive".into(),
        )),
        (Some(spec), None) => {
            let mut parts = Vec::new();
            for part in spec.split(',') {
                let part = part.trim();
                let (name, count) = match part.split_once('*') {
                    None => (part, 1usize),
                    Some((n, c)) => {
                        let count: usize = c
                            .trim()
                            .parse()
                            .map_err(|_| CliError::BadValue("fleet", part.to_string()))?;
                        (n.trim(), count)
                    }
                };
                if count == 0 {
                    return Err(CliError::NonPositive("fleet"));
                }
                let p = platforms::by_name(name)
                    .ok_or_else(|| CliError::UnknownPlatform(name.to_string()))?;
                parts.push((p, count));
            }
            let total = parts.iter().fold(0usize, |n, (_, c)| n.saturating_add(*c));
            at_most("fleet", total, MAX_SCHED_COUNT, "nodes")?;
            Ok(parts
                .into_iter()
                .flat_map(|(p, count)| std::iter::repeat_n(p, count))
                .collect())
        }
        (None, _) => {
            let p = ops::platform(args)?;
            let nodes = args.count_or("nodes", 2)?;
            Ok(vec![p; at_most("nodes", nodes, MAX_SCHED_COUNT, "nodes")?])
        }
    }
}

/// The `--max-slowdown` threshold (default 1.25); below 1.0 it is a
/// usage error, since co-location cannot speed a job up.
pub fn max_slowdown(args: &Args) -> Result<f64, CliError> {
    let max_slowdown: f64 = args.num_or("max-slowdown", 1.25)?;
    if !max_slowdown.is_finite() || max_slowdown < 1.0 {
        return Err(CliError::Usage(format!(
            "--max-slowdown must be at least 1.0 (co-location cannot speed a job up), \
             got {max_slowdown}"
        )));
    }
    Ok(max_slowdown)
}

/// `schedule`: place a JSON-lines job queue onto a simulated fleet under
/// one or all policies and report placements, finish times, makespan and
/// throughput.
pub fn schedule_cmd(args: &Args) -> Result<String, CliError> {
    let jobs_path = args.require("jobs")?;
    let policy_sel = args.get("policy").unwrap_or("contention_aware");
    let names: Vec<&str> = if policy_sel == "all" {
        mc_sched::policy_names().to_vec()
    } else if mc_sched::policy_names().contains(&policy_sel) {
        vec![policy_sel]
    } else {
        return Err(CliError::Usage(format!(
            "unknown --policy '{policy_sel}' (expected one of: {}, all)",
            mc_sched::policy_names().join(", ")
        )));
    };
    let max_slowdown = max_slowdown(args)?;
    let seed: u64 = args.num_or("seed", 42)?;
    let fleet_spec = fleet_platforms(args)?;
    let text = fs::read_to_string(jobs_path).map_err(|e| McError::io(jobs_path, e))?;
    let jobs = mc_sched::parse_jobs(&text)?;
    let registry = ModelRegistry::new(8);
    let fleet = mc_sched::Fleet::build(fleet_spec, &registry)?;
    fleet.validate_jobs(&jobs)?;
    let fleet_desc = fleet.describe();
    let _span = mc_obs::span(
        "schedule",
        &[
            (tags::FLEET, TagValue::Str(&fleet_desc)),
            (tags::WORKERS, TagValue::U64(jobs.len() as u64)),
        ],
    );
    if let Some(rec) = mc_obs::recorder() {
        rec.add("sched.jobs", &[], jobs.len() as u64);
        rec.add("sched.nodes", &[], fleet.nodes.len() as u64);
    }
    let mut ev = mc_sched::Evaluator::new(&jobs, &fleet);
    let mut plans = Vec::with_capacity(names.len());
    for name in &names {
        let policy_tag = [(tags::POLICY, TagValue::Str(name))];
        let _policy_span = mc_obs::span("schedule.policy", &policy_tag);
        let policy = mc_sched::policy_by_name(name, max_slowdown, seed)
            .expect("policy names were validated above");
        let assignment = policy.assign(&mut ev);
        let plan = ev.plan(name, &assignment, max_slowdown);
        if let Some(rec) = mc_obs::recorder() {
            rec.observe("sched.makespan_seconds", &policy_tag, plan.makespan);
            for p in &plan.placements {
                rec.observe("sched.slowdown", &policy_tag, p.slowdown);
            }
        }
        plans.push(plan);
    }
    if let Some(rec) = mc_obs::recorder() {
        rec.add("sched.simulations", &[], ev.sims() as u64);
        // Each placement becomes a node-tagged `sched.job` span:
        // `--trace-format chrome` shows per-node occupancy tracks, and
        // `--report` tables the same spans.
        for plan in &plans {
            mc_sched::report::record_plan_spans(rec.as_ref(), &jobs, plan);
        }
    }
    let mut out = mc_sched::report::render(&fleet, &jobs, &plans, max_slowdown);
    let _ = writeln!(out, "\nnode simulations: {}", ev.sims());
    if let Some(path) = args.get("report") {
        let mut rep =
            mc_viz::HtmlReport::new(&format!("schedule — {} jobs on {}", jobs.len(), fleet_desc));
        rep.meta("fleet", &fleet_desc);
        rep.meta("jobs", &jobs.len().to_string());
        rep.meta("policies", &names.join(", "));
        rep.meta("max slowdown", &format!("{max_slowdown:.2}"));
        rep.meta("node simulations", &ev.sims().to_string());
        for plan in &plans {
            rep.figure(
                &format!("policy {}", plan.policy),
                &schedule_gantt(&jobs, fleet.nodes.len(), plan).render(900.0),
            );
        }
        let rows = plans
            .iter()
            .map(|p| {
                vec![
                    p.policy.clone(),
                    format!("{:.6}", p.makespan),
                    format!("{:.4}", p.throughput),
                    p.colocated.to_string(),
                    p.violations.to_string(),
                ]
            })
            .collect();
        let columns = "policy makespan_s throughput_jobs_per_s colocated violations";
        let columns: Vec<&str> = columns.split(' ').collect();
        rep.table("Policy comparison", &columns, rows);
        write_report(rep, path, &mut out)?;
    }
    Ok(out)
}

/// Build a per-node occupancy Gantt for one schedule plan: one row per
/// fleet node, one bar per placed job running from the common start to
/// its predicted finish, alternating colours so overlapping co-located
/// bars stay distinguishable.
fn schedule_gantt(
    jobs: &[mc_sched::JobSpec],
    nodes: usize,
    plan: &mc_sched::SchedulePlan,
) -> mc_viz::Gantt {
    use mc_viz::{GanttBar, GanttRow, COMM_COLOR, COMP_COLOR};
    let mut rows: Vec<GanttRow> = (0..nodes)
        .map(|n| GanttRow {
            label: format!("node {n}"),
            bars: Vec::new(),
        })
        .collect();
    for (i, p) in plan.placements.iter().enumerate() {
        rows[p.node].bars.push(GanttBar {
            t0: 0.0,
            t1: p.finish,
            color: if i % 2 == 0 { COMP_COLOR } else { COMM_COLOR }.to_string(),
            label: jobs[p.job].name.clone(),
        });
    }
    mc_viz::Gantt {
        title: format!("policy {}", plan.policy),
        rows,
    }
}

/// Dispatch a parsed command line, after checking its options against
/// the command's synopsis in [`USAGE`].
pub fn run(args: &Args) -> Result<String, CliError> {
    args.only_as_in(USAGE, "memcontend")?;
    match args.command.as_str() {
        "topo" => topo(args),
        "bench" => bench(args),
        "calibrate" => calibrate_cmd(args),
        "predict" => predict(args),
        "advise" => advise(args),
        "evaluate" => evaluate_cmd(args),
        "replay" => replay_cmd(args),
        "schedule" => schedule_cmd(args),
        "serve" => {
            // The one long-lived subcommand: streams responses directly
            // rather than rendering a string.
            if args.get("listen").is_some() {
                let server = crate::net::NetServer::bind(args)?;
                // The announce line is the only place a client learns an
                // ephemeral port, so it must be flushed before serving.
                {
                    let mut out = std::io::stdout().lock();
                    writeln!(out, "{}", server.announce_line())
                        .and_then(|()| out.flush())
                        .map_err(|e| mc_model::McError::io("stdout", e))?;
                }
                server.run()?;
            } else {
                crate::serve::serve_loop(args, std::io::stdin().lock(), std::io::stdout().lock())?;
            }
            Ok(String::new())
        }
        "help" => Ok(USAGE.to_string()),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &[&str]) -> Result<String, CliError> {
        run(&Args::parse(line.iter().copied()).unwrap())
    }

    #[test]
    fn topo_all_and_single() {
        let all = run_line(&["topo"]).unwrap();
        assert!(all.contains("henri"));
        assert!(all.contains("occigen"));
        let one = run_line(&["topo", "--platform", "diablo"]).unwrap();
        assert!(one.contains("diablo"));
        assert!(!one.contains("occigen"));
    }

    #[test]
    fn bench_prints_a_sweep_table() {
        let out = run_line(&["bench", "--platform", "occigen"]).unwrap();
        assert!(out.contains("comp alone"));
        assert_eq!(out.lines().count(), 2 + 13); // header x2 + 13 core counts
    }

    #[test]
    fn calibrate_prints_both_instantiations() {
        let out = run_line(&["calibrate", "--platform", "henri"]).unwrap();
        assert!(out.contains("M_local"));
        assert!(out.contains("M_remote"));
        assert!(out.contains("Bcomm_seq"));
    }

    #[test]
    fn sparse_calibration_flag_works() {
        let out = run_line(&[
            "calibrate",
            "--platform",
            "henri-subnuma",
            "--sparse",
            "yes",
        ])
        .unwrap();
        assert!(out.contains("sparse sweeps"));
        assert!(out.contains("% of runs saved"));
        assert!(out.contains("M_remote"));
    }

    #[test]
    fn predict_reports_overlap_shares() {
        let out = run_line(&[
            "predict",
            "--platform",
            "henri",
            "--cores",
            "17",
            "--comp-numa",
            "0",
            "--comm-numa",
            "0",
        ])
        .unwrap();
        assert!(out.contains("in parallel"));
        assert!(out.contains("overlap keeps"));
    }

    #[test]
    fn predict_round_trips_through_a_model_file() {
        let dir = std::env::temp_dir().join("memcontend-test-model.txt");
        let path = dir.to_str().unwrap();
        run_line(&["calibrate", "--platform", "henri", "--save", path]).unwrap();
        let out = run_line(&[
            "predict",
            "--model",
            path,
            "--cores",
            "17",
            "--comp-numa",
            "0",
            "--comm-numa",
            "1",
        ])
        .unwrap();
        assert!(out.contains("GB/s"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn advise_lists_a_podium() {
        let out = run_line(&[
            "advise",
            "--platform",
            "henri-subnuma",
            "--compute-gb",
            "48",
            "--comm-gb",
            "8",
        ])
        .unwrap();
        assert!(out.contains("makespan"));
        assert!(out.lines().count() >= 6);
    }

    #[test]
    fn evaluate_prints_a_table2_row() {
        let out = run_line(&["evaluate", "--platform", "occigen"]).unwrap();
        assert!(out.contains("average"));
        assert!(out.contains('%'));
    }

    #[test]
    fn unknown_platform_and_command_error() {
        assert_eq!(
            run_line(&["topo", "--platform", "zzz"]),
            Err(CliError::UnknownPlatform("zzz".into()))
        );
        assert_eq!(
            run_line(&["frobnicate"]),
            Err(CliError::UnknownCommand("frobnicate".into()))
        );
    }

    #[test]
    fn unknown_platform_lists_the_candidates_everywhere() {
        // Every subcommand that takes --platform routes through the same
        // error, whose message enumerates platforms::extended().
        for cmd in ["topo", "bench", "calibrate", "evaluate", "advise", "replay"] {
            let generate: &[&str] = if cmd == "replay" {
                &["--generate", "halo2d"]
            } else {
                &[]
            };
            let e = run_line(&[&[cmd, "--platform", "zzz"][..], generate].concat()).unwrap_err();
            let msg = e.to_string();
            assert!(e.is_usage(), "{cmd}: {msg}");
            for name in ["henri", "henri-subnuma", "grillon"] {
                assert!(msg.contains(name), "{cmd}: {msg}");
            }
        }
    }

    #[test]
    fn replay_generates_and_reports_slowdown() {
        let out = run_line(&[
            "replay",
            "--platform",
            "henri",
            "--generate",
            "allreduce",
            "--ranks",
            "2",
            "--iters",
            "1",
            "--compute-mb",
            "32",
            "--comm-mb",
            "4",
        ])
        .unwrap();
        assert!(out.contains("trace replay — 2 ranks"), "{out}");
        assert!(out.contains("contention slowdown:"), "{out}");
        assert!(out.contains("rank timelines"), "{out}");
    }

    #[test]
    fn replay_flag_mistakes_are_usage_errors() {
        let base = ["replay", "--platform", "henri"];
        let e = run_line(&[&base[..], &["--generate", "zzz"]].concat()).unwrap_err();
        assert!(matches!(e, CliError::UnknownPattern(_)));
        assert!(e.is_usage());
        assert!(e.to_string().contains("halo2d"), "{e}");
        let e = run_line(&base).unwrap_err();
        assert!(e.is_usage(), "{e}");
        let e = run_line(&[&base[..], &["--generate", "halo2d", "--input", "x.jsonl"]].concat())
            .unwrap_err();
        assert!(e.is_usage(), "{e}");
        let e =
            run_line(&[&base[..], &["--generate", "halo2d", "--ranks", "1"]].concat()).unwrap_err();
        assert!(e.is_usage(), "{e}");
        let e = run_line(&[&base[..], &["--generate", "halo2d", "--comp-numa", "9"]].concat())
            .unwrap_err();
        assert!(matches!(e, CliError::NumaOutOfRange { .. }), "{e}");
    }

    #[test]
    fn replay_round_trips_a_saved_trace_and_rejects_garbage() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("memcontend-replay-{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap();
        let svg_path = dir.join(format!("memcontend-replay-{}.svg", std::process::id()));
        let svg_path = svg_path.to_str().unwrap();
        let first = run_line(&[
            "replay",
            "--platform",
            "henri",
            "--generate",
            "halo2d",
            "--ranks",
            "4",
            "--iters",
            "1",
            "--compute-mb",
            "64",
            "--comm-mb",
            "8",
            "--save-trace",
            path,
        ])
        .unwrap();
        // Replaying the saved trace reproduces the report byte for byte
        // (modulo the gantt footer line).
        let second = run_line(&[
            "replay",
            "--platform",
            "henri",
            "--input",
            path,
            "--gantt",
            svg_path,
        ])
        .unwrap();
        assert!(
            second.starts_with(&first),
            "diverged:\n{first}\nvs\n{second}"
        );
        assert!(second.contains("gantt chart written to"), "{second}");
        let svg = std::fs::read_to_string(svg_path).unwrap();
        assert!(svg.contains("<svg"), "{}", &svg[..60.min(svg.len())]);
        // A malformed trace file is invalid data (exit 3), not usage.
        std::fs::write(path, "{\"rank\":0,\"event\":\"warp\"}\n").unwrap();
        let e = run_line(&["replay", "--platform", "henri", "--input", path]).unwrap_err();
        assert_eq!(e.exit_code(), crate::args::EXIT_INVALID_DATA, "{e}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(svg_path).ok();
    }

    #[test]
    fn streamed_replay_matches_the_eager_summary() {
        let base = [
            "replay",
            "--platform",
            "henri",
            "--generate",
            "halo2d",
            "--ranks",
            "4",
            "--iters",
            "2",
            "--compute-mb",
            "64",
            "--comm-mb",
            "8",
        ];
        let eager = run_line(&base).unwrap();
        let streamed = run_line(&[&base[..], &["--stream", "yes"]].concat()).unwrap();
        // Identical makespans and slowdown, byte for byte.
        let head = |s: &str| {
            s.lines()
                .take(4)
                .map(String::from)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(head(&eager), head(&streamed));
    }

    #[test]
    fn streamed_file_replay_needs_the_header_and_excludes_search() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("memcontend-stream-{}.jsonl", std::process::id()));
        let path = path.to_str().unwrap();
        run_line(&[
            "replay",
            "--platform",
            "henri",
            "--generate",
            "pipeline",
            "--ranks",
            "3",
            "--iters",
            "2",
            "--stream",
            "yes",
            "--save-trace",
            path,
        ])
        .unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.starts_with("{\"ranks\":3}\n"), "{}", &text[..40]);
        let out = run_line(&[
            "replay",
            "--platform",
            "henri",
            "--input",
            path,
            "--stream",
            "yes",
        ])
        .unwrap();
        assert!(out.contains("trace replay — 3 ranks"), "{out}");

        // A header-less file cannot be streamed (invalid data, exit 3) …
        std::fs::write(path, "{\"rank\":0,\"event\":\"wait\"}\n").unwrap();
        let e = run_line(&[
            "replay",
            "--platform",
            "henri",
            "--input",
            path,
            "--stream",
            "yes",
        ])
        .unwrap_err();
        assert_eq!(e.exit_code(), crate::args::EXIT_INVALID_DATA, "{e}");
        assert!(e.to_string().contains("header"), "{e}");
        // … and --stream --search is a usage error.
        let e = run_line(&[
            "replay",
            "--platform",
            "henri",
            "--generate",
            "halo2d",
            "--stream",
            "yes",
            "--search",
            "yes",
        ])
        .unwrap_err();
        assert!(e.is_usage(), "{e}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replay_search_ranks_placements_and_crosschecks_the_advisor() {
        let out = run_line(&[
            "replay",
            "--platform",
            "henri",
            "--generate",
            "allreduce",
            "--ranks",
            "2",
            "--iters",
            "1",
            "--cores",
            "12",
            "--compute-mb",
            "256",
            "--comm-mb",
            "16",
            "--search",
            "yes",
        ])
        .unwrap();
        assert!(out.contains("placement search (best first):"), "{out}");
        // henri has 2 NUMA nodes: 4 placements evaluated.
        assert_eq!(
            out.lines().filter(|l| l.contains("m_comp=")).count(),
            4,
            "{out}"
        );
        assert!(out.contains("advisor cross-check:"), "{out}");
    }

    #[test]
    fn help_prints_usage() {
        let out = run_line(&["help"]).unwrap();
        assert!(out.contains("memcontend"));
        assert!(out.contains("henri-cxl"), "{out}");
        assert!(out.contains("--comm-mode"), "{out}");
    }

    #[test]
    fn replay_cxl_mode_prints_the_head_to_head() {
        let base = [
            "replay",
            "--platform",
            "henri-cxl",
            "--generate",
            "halo2d",
            "--ranks",
            "4",
            "--iters",
            "2",
            "--cores",
            "17",
            "--compute-mb",
            "1024",
            "--comm-mb",
            "64",
        ];
        let out = run_line(&[&base[..], &["--comm-mode", "cxl"]].concat()).unwrap();
        assert!(out.contains("comm-mode head-to-head"), "{out}");
        assert!(out.contains("verdict:"), "{out}");
        // The streamed form agrees byte for byte.
        let streamed =
            run_line(&[&base[..], &["--comm-mode", "cxl", "--stream", "yes"]].concat()).unwrap();
        let head = |s: &str| s.lines().take(8).collect::<Vec<_>>().join("\n");
        assert_eq!(head(&out), head(&streamed));
        // Plain messaging mode never prints the comparison.
        let plain = run_line(&[&base[..], &["--comm-mode", "messages"]].concat()).unwrap();
        assert!(!plain.contains("comm-mode head-to-head"), "{plain}");
        assert_eq!(plain, run_line(&base).unwrap());
    }

    #[test]
    fn replay_cxl_mode_flag_mistakes_are_typed_errors() {
        let base = ["replay", "--platform", "henri", "--generate", "halo2d"];
        // A platform without a pool is invalid data (exit 3), not a panic.
        let e = run_line(&[&base[..], &["--comm-mode", "cxl"]].concat()).unwrap_err();
        assert_eq!(e.exit_code(), crate::args::EXIT_INVALID_DATA, "{e}");
        assert!(e.to_string().contains("CXL"), "{e}");
        // An unknown mode and --search with cxl are usage errors.
        let e = run_line(&[&base[..], &["--comm-mode", "zzz"]].concat()).unwrap_err();
        assert!(e.is_usage(), "{e}");
        assert!(e.to_string().contains("comm-mode"), "{e}");
        let e = run_line(
            &[
                &["replay", "--platform", "henri-cxl", "--generate", "halo2d"][..],
                &["--comm-mode", "cxl", "--search", "yes"],
            ]
            .concat(),
        )
        .unwrap_err();
        assert!(e.is_usage(), "{e}");
    }

    #[test]
    fn replay_report_writes_self_contained_html() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("memcontend-report-{}.html", std::process::id()));
        let path = path.to_str().unwrap();
        let out = run_line(&[
            "replay",
            "--platform",
            "henri",
            "--generate",
            "allreduce",
            "--ranks",
            "2",
            "--iters",
            "1",
            "--compute-mb",
            "32",
            "--comm-mb",
            "4",
            "--report",
            path,
        ])
        .unwrap();
        assert!(out.contains("report written to"), "{out}");
        let html = std::fs::read_to_string(path).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"), "{}", &html[..60]);
        assert!(html.contains("<dt>platform</dt><dd>henri</dd>"), "{html}");
        assert!(html.contains("<dt>contention slowdown</dt>"), "{html}");
        assert!(html.contains("<svg"), "{html}");
        // Self-contained: nothing references external resources.
        assert!(!html.contains("src="), "{html}");
        assert!(!html.contains("href="), "{html}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn schedule_report_charts_every_policy() {
        let queue = write_queue("report", SMALL_QUEUE);
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "memcontend-sched-report-{}.html",
            std::process::id()
        ));
        let path = path.to_str().unwrap();
        let out = run_line(&[
            "schedule",
            "--jobs",
            &queue,
            "--platform",
            "henri",
            "--nodes",
            "2",
            "--policy",
            "all",
            "--report",
            path,
        ])
        .unwrap();
        assert!(out.contains("report written to"), "{out}");
        let html = std::fs::read_to_string(path).unwrap();
        for policy in ["first_fit", "round_robin", "contention_aware"] {
            assert!(html.contains(&format!("policy {policy}")), "{html}");
        }
        assert!(html.contains("<h2>Policy comparison</h2>"), "{html}");
        assert!(html.contains("solver"), "{html}");
        assert!(html.contains("node 0"), "{html}");
        assert!(!html.contains("src="), "{html}");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(queue).ok();
    }

    fn write_queue(tag: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!(
            "memcontend-queue-{tag}-{}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, contents).unwrap();
        path.to_str().unwrap().to_string()
    }

    const SMALL_QUEUE: &str = "\
        {\"name\":\"solver\",\"compute_gb\":25,\"comm_gb\":2,\"max_cores\":8}\n\
        {\"name\":\"shuffle\",\"compute_gb\":2,\"comm_gb\":10,\"max_cores\":8}\n\
        {\"name\":\"mix\",\"compute_gb\":12,\"comm_gb\":4,\"max_cores\":8}\n";

    #[test]
    fn schedule_compares_policies_and_reports_placements() {
        let path = write_queue("compare", SMALL_QUEUE);
        let out = run_line(&[
            "schedule",
            "--jobs",
            &path,
            "--platform",
            "henri",
            "--nodes",
            "2",
            "--policy",
            "all",
        ])
        .unwrap();
        for policy in ["first_fit", "round_robin", "contention_aware"] {
            assert!(out.contains(&format!("policy {policy}")), "{out}");
        }
        assert!(out.contains("policy comparison"), "{out}");
        assert!(out.contains("solver"), "{out}");
        assert!(out.contains("makespan_s "), "{out}");
        assert!(out.contains("node simulations:"), "{out}");
        // Same invocation, same bytes: the report is deterministic.
        let again = run_line(&[
            "schedule",
            "--jobs",
            &path,
            "--platform",
            "henri",
            "--nodes",
            "2",
            "--policy",
            "all",
        ])
        .unwrap();
        assert_eq!(out, again);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn schedule_accepts_mixed_fleets_and_pattern_jobs() {
        let path = write_queue(
            "mixed",
            "{\"name\":\"halo\",\"pattern\":\"halo2d\",\"ranks\":4,\"iters\":1,\
             \"cores\":2,\"compute_mb\":64,\"comm_mb\":16,\"max_cores\":6}\n\
             {\"name\":\"inline\",\"compute_gb\":8}\n",
        );
        let out = run_line(&["schedule", "--jobs", &path, "--fleet", "henri*1,dahu*1"]).unwrap();
        assert!(out.contains("henri x1 + dahu x1"), "{out}");
        assert!(out.contains("halo"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn schedule_degenerate_inputs_are_typed_errors_not_panics() {
        let path = write_queue("degenerate", SMALL_QUEUE);
        let base = ["schedule", "--jobs", &path, "--platform", "henri"];

        // Zero-node fleet: usage error (exit 2).
        let e = run_line(&[&base[..], &["--nodes", "0"]].concat()).unwrap_err();
        assert_eq!(e, CliError::NonPositive("nodes"));
        // Sub-1.0 slowdown threshold: usage error.
        let e = run_line(&[&base[..], &["--max-slowdown", "0.5"]].concat()).unwrap_err();
        assert!(e.is_usage(), "{e}");
        assert!(e.to_string().contains("max-slowdown"), "{e}");
        // Unknown policy: usage error naming the candidates.
        let e = run_line(&[&base[..], &["--policy", "zzz"]].concat()).unwrap_err();
        assert!(e.is_usage(), "{e}");
        assert!(e.to_string().contains("contention_aware"), "{e}");
        // Bad fleet specs: usage errors.
        let e = run_line(&["schedule", "--jobs", &path, "--fleet", "henri*x"]).unwrap_err();
        assert!(matches!(e, CliError::BadValue("fleet", _)), "{e}");
        let e = run_line(&["schedule", "--jobs", &path, "--fleet", "zzz*2"]).unwrap_err();
        assert!(matches!(e, CliError::UnknownPlatform(_)), "{e}");
        let e = run_line(&["schedule", "--jobs", &path, "--fleet", "henri*0"]).unwrap_err();
        assert_eq!(e, CliError::NonPositive("fleet"));

        // Empty queue: invalid data (exit 3), not a panic.
        let empty = write_queue("empty", "\n");
        let e = run_line(&["schedule", "--jobs", &empty, "--platform", "henri"]).unwrap_err();
        assert_eq!(e.exit_code(), crate::args::EXIT_INVALID_DATA, "{e}");
        assert!(e.to_string().contains("empty"), "{e}");
        std::fs::remove_file(empty).ok();

        // A job wider than every node: invalid data naming the job.
        let wide = write_queue(
            "wide",
            "{\"name\":\"huge\",\"compute_gb\":4,\"max_cores\":4096}\n",
        );
        let e = run_line(&["schedule", "--jobs", &wide, "--platform", "henri"]).unwrap_err();
        assert_eq!(e.exit_code(), crate::args::EXIT_INVALID_DATA, "{e}");
        assert!(e.to_string().contains("huge"), "{e}");
        std::fs::remove_file(wide).ok();

        // Missing queue file: I/O (exit 4).
        let e = run_line(&[
            "schedule",
            "--jobs",
            "/nonexistent/queue.jsonl",
            "--platform",
            "henri",
        ])
        .unwrap_err();
        assert_eq!(e.exit_code(), crate::args::EXIT_IO, "{e}");
        std::fs::remove_file(path).ok();
    }
}
