//! The `bench` binary's scenarios: the repository's own studies, one
//! JSON object per run.
//!
//! Every scenario is a function from parsed arguments to a JSON value,
//! the same shape as `memcontend`'s commands, so the binary only parses
//! `argv`, dispatches, prints and exits — and every failure exits with
//! [`CliError::exit_code`]. Shell loops over sizes assemble the
//! committed `BENCH_*.json` snapshots (see EXPERIMENTS.md).

use std::time::Instant;

use mc_cli::args::{at_most, MAX_SCHED_COUNT};
use mc_cli::{Args, CliError};
use mc_json::{obj, Json};
use mc_model::{size_bytes, ModelRegistry, PhaseProfile};
use mc_replay::generate::{self, GenParams, LazyGen};
use mc_replay::report::GANTT_MAX_ROWS;
use mc_replay::trace::EventKind;
use mc_replay::{replay, run_source, CommMode, ReplayConfig, ReplayOutcome, Trace, TraceSource};
use mc_sched::{policy_by_name, policy_names, Evaluator, Fleet, JobSpec, SchedulePlan};
use mc_topology::{platforms, NumaId, Platform};

/// Usage text of the `bench` binary. Its synopsis lines (`  bench
/// SCENARIO ...` and the lines they continue with `\`) declare each
/// scenario's options: [`run`] rejects any other option.
pub const USAGE: &str = "\
usage: bench SCENARIO [--option value]...

scenarios:
  bench replay   --pattern P --ranks N [--iters N] [--compute-mb N] \\
                 [--comm-mb N] [--eager yes] [--platform NAME]
                 one BENCH_3 point: a synthetic pattern replayed contended and
                 alone; run one point per process so peak RSS is its own
  bench schedule [--jobs N] [--nodes N] [--platform NAME] \\
                 [--max-slowdown X] [--seed N]
                 one BENCH_4 row: a mixed queue under all three policies
  bench cxl      [--platform NAME] [--cores N] [--comm-mb N] [--compute-mb N]
                 the BENCH_5 crossover: messaging vs message-free CXL.mem
  bench loadgen  --addr HOST:PORT [--conns N] [--tenants N] [--zipf S] \\
                 [--rate RPS] [--duration-s S] [--batch N] [--seed N] \\
                 [--shutdown yes]
                 BENCH_2: open-loop Zipf-skewed load on memcontend serve --listen

exit codes: 0 success, 1 loadgen completed no request, 2 usage error,
            3 invalid or degenerate input data, 4 I/O failure
";

/// Dispatch a parsed command line to its scenario, after checking its
/// options against the scenario's synopsis in [`USAGE`].
pub fn run(args: &Args) -> Result<Json, CliError> {
    args.only_as_in(USAGE, "bench")?;
    match args.command.as_str() {
        "replay" => replay_point(args),
        "schedule" => schedule(args),
        "cxl" => cxl(args),
        "loadgen" => crate::loadgen::run(args),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// The platform `--platform` names, `default` when absent.
fn platform_or(args: &Args, default: &str) -> Result<Platform, CliError> {
    let name = args.get("platform").unwrap_or(default);
    platforms::by_name(name).ok_or_else(|| CliError::UnknownPlatform(name.to_string()))
}

/// `mb` MiB as bytes, under the one size rule ([`size_bytes`]).
fn mib(key: &'static str, mb: u64) -> Result<u64, CliError> {
    size_bytes(mb as f64, (1 << 20) as f64)
        .map(|bytes| bytes as u64)
        .map_err(|e| CliError::Usage(format!("--{key} {e}")))
}

/// `replay`: one BENCH_3 scaling point. Replays a synthetic pattern at
/// one world size, contended and alone, and reports wall time, peak RSS
/// and the delta solver's counters. Peak RSS is `VmHWM`, the *process*
/// high-water mark, so only a fresh process per point makes it that
/// point's own.
///
/// `--eager yes` materialises the whole trace in memory and keeps every
/// rank timeline (the pre-streaming path); the default streams events
/// straight out of the lazy generator with timelines capped, the way
/// `memcontend replay --stream yes` does.
pub fn replay_point(args: &Args) -> Result<Json, CliError> {
    let pattern = args.require("pattern")?;
    let ranks: usize = args.require_num("ranks")?;
    let iters = args.count_or("iters", 4)?;
    let compute_bytes = mib("compute-mb", args.num_or("compute-mb", 256)?)?;
    let comm_bytes = mib("comm-mb", args.num_or("comm-mb", 8)?)?;
    let eager = args.flag("eager")?;
    let platform = platform_or(args, "henri")?;
    let params = GenParams {
        ranks,
        iters,
        compute_bytes,
        comm_bytes,
        ..GenParams::default()
    };
    let gen = LazyGen::new(pattern, &params)?;

    let config = ReplayConfig {
        timeline_ranks: if eager { None } else { Some(GANTT_MAX_ROWS) },
        ..ReplayConfig::default()
    };
    let run = |contended: bool| -> Result<_, CliError> {
        Ok(if eager {
            // The pre-streaming path: the whole trace in memory first.
            let trace = gen.try_collect()?;
            run_source(&platform, &mut TraceSource::new(&trace), &config, contended)?
        } else {
            run_source(&platform, &mut gen.source(), &config, contended)?
        })
    };
    let t0 = Instant::now();
    let contended = run(true)?;
    let baseline = run(false)?;
    let wall = t0.elapsed().as_secs_f64();

    let slowdown = if baseline.run.makespan > 0.0 {
        contended.run.makespan / baseline.run.makespan
    } else {
        1.0
    };
    let s = contended.solver;
    Ok(obj(vec![
        (
            "mode",
            Json::Str(if eager { "eager" } else { "stream" }.into()),
        ),
        ("pattern", Json::Str(pattern.into())),
        ("platform", Json::Str(platform.name().into())),
        ("ranks", Json::Num(ranks as f64)),
        ("iters", Json::Num(iters as f64)),
        ("events", Json::Num(contended.events() as f64)),
        ("wall_s", Json::Num(wall)),
        (
            "peak_rss_kb",
            mc_obs::peak_rss_kb().map_or(Json::Null, |kb| Json::Num(kb as f64)),
        ),
        ("makespan_s", Json::Num(contended.run.makespan)),
        ("slowdown", Json::Num(slowdown)),
        (
            "solver",
            obj(vec![
                ("node_steps", Json::Num(s.node_steps as f64)),
                ("requests", Json::Num(s.delta.requests as f64)),
                ("reuse_hits", Json::Num(s.delta.reuse_hits as f64)),
                ("state_hits", Json::Num(s.delta.state_hits as f64)),
                ("full_solves", Json::Num(s.delta.full_solves as f64)),
                ("transitions", Json::Num(s.transitions as f64)),
                ("reduction", Json::Num(s.reduction())),
            ]),
        ),
    ]))
}

/// The adversarial queue: alternate comm-heavy shuffles with
/// compute-heavy solvers so arrival order anti-correlates with the
/// pairing a contention-aware packer would choose. Packing two
/// bandwidth hogs together saturates the memory bus, while a compute
/// job would have shared it for free. Sizes cycle through three tiers
/// to keep the queue heterogeneous at any length.
fn mixed_queue(jobs: usize) -> Vec<JobSpec> {
    (0..jobs)
        .map(|i| {
            let tier = 1.0 + (i / 2 % 3) as f64 * 0.5;
            let (name, compute_gb, comm_gb) = if i % 2 == 0 {
                ("shuffle", 2.0 * tier, 12.0 * tier)
            } else {
                ("solver", 25.0 * tier, 1.0 * tier)
            };
            JobSpec {
                name: format!("{name}{i}"),
                profile: PhaseProfile {
                    compute_bytes: compute_gb * 1e9,
                    comm_bytes: comm_gb * 1e9,
                    max_cores: 8,
                },
            }
        })
        .collect()
}

/// `schedule`: one BENCH_4 row. Schedules an adversarial mixed queue
/// (comm-heavy shuffles alternating with compute-heavy solvers) with all
/// three policies on an identical fleet and reports each policy's
/// makespan, throughput and threshold violations, plus the
/// contention-aware speedup over the naive baselines and the node
/// simulations' delta-solver counters.
pub fn schedule(args: &Args) -> Result<Json, CliError> {
    let (jobs, nodes) = (args.count_or("jobs", 8)?, args.count_or("nodes", 4)?);
    let jobs = at_most("jobs", jobs, MAX_SCHED_COUNT, "jobs")?;
    let nodes = at_most("nodes", nodes, MAX_SCHED_COUNT, "nodes")?;
    let max_slowdown = mc_cli::commands::max_slowdown(args)?;
    let seed: u64 = args.num_or("seed", 42)?;
    let platform = platform_or(args, "henri")?;

    let queue = mixed_queue(jobs);
    let registry = ModelRegistry::new(8);
    let fleet = Fleet::build(vec![platform; nodes], &registry)?;
    fleet.validate_jobs(&queue)?;

    let mut ev = Evaluator::new(&queue, &fleet);
    let t0 = Instant::now();
    let plans: Vec<SchedulePlan> = policy_names()
        .iter()
        .map(|name| {
            let policy = policy_by_name(name, max_slowdown, seed).expect("known policy");
            let assignment = policy.assign(&mut ev);
            ev.plan(name, &assignment, max_slowdown)
        })
        .collect();
    let wall = t0.elapsed().as_secs_f64();

    let makespan = |policy: &str| {
        plans
            .iter()
            .find(|p| p.policy == policy)
            .expect("every policy ran")
            .makespan
    };
    let aware = makespan("contention_aware");
    let solver = ev.solver_stats();
    let speedup = |policy: &str| {
        if aware > 0.0 {
            makespan(policy) / aware
        } else {
            1.0
        }
    };
    let mut fields = vec![
        ("jobs", Json::Num(jobs as f64)),
        ("fleet", Json::Str(fleet.describe())),
        ("max_slowdown", Json::Num(max_slowdown)),
        ("seed", Json::Num(seed as f64)),
        ("wall_s", Json::Num(wall)),
        ("node_simulations", Json::Num(ev.sims() as f64)),
        (
            "solver",
            obj(vec![
                ("requests", Json::Num(solver.requests as f64)),
                ("reuse_hits", Json::Num(solver.reuse_hits as f64)),
                ("state_hits", Json::Num(solver.state_hits as f64)),
                ("full_solves", Json::Num(solver.full_solves as f64)),
            ]),
        ),
    ];
    for p in &plans {
        let row = obj(vec![
            ("makespan_s", Json::Num(p.makespan)),
            ("throughput_jobs_per_s", Json::Num(p.throughput)),
            ("colocated", Json::Num(p.colocated as f64)),
            ("violations", Json::Num(p.violations as f64)),
        ]);
        fields.push((p.policy.as_str(), row));
    }
    fields.push(("speedup_vs_first_fit", Json::Num(speedup("first_fit"))));
    fields.push(("speedup_vs_round_robin", Json::Num(speedup("round_robin"))));
    Ok(obj(fields))
}

/// One rank sends `bytes` to its peer, optionally while the receiver's
/// `cores` cores stream `compute_bytes` through the same NUMA node —
/// the minimal workload whose winner flips with the compute load.
fn pingpong(bytes: u64, cores: usize, compute_bytes: u64) -> Trace {
    let numa = NumaId::new(0);
    let mut rank0 = Vec::new();
    if cores > 0 {
        rank0.push(EventKind::Compute {
            numa,
            cores,
            bytes: compute_bytes,
        });
    }
    rank0.push(EventKind::Recv {
        peer: 1,
        numa,
        bytes,
        tag: 0,
    });
    rank0.push(EventKind::Wait);
    let rank1 = vec![
        EventKind::Send {
            peer: 0,
            numa,
            bytes,
            tag: 0,
        },
        EventKind::Wait,
    ];
    Trace {
        events: vec![rank0, rank1],
    }
}

/// Contended makespan and slowdown of one replay.
fn outcome_json(o: &ReplayOutcome) -> Json {
    obj(vec![
        ("makespan_s", Json::Num(o.contended.makespan)),
        ("slowdown", Json::Num(o.slowdown)),
    ])
}

/// `cxl`: the BENCH_5 comm-mode crossover. Replays a fixed workload
/// suite on a CXL-equipped platform twice — over ordinary messaging and
/// message-free through the CXL.mem pool — and reports both contended
/// makespans, slowdowns and the winner per workload. The suite brackets
/// the crossover from both sides: a lone ping-pong keeps the NIC to
/// itself (messaging wins), the same transfer under a saturating
/// compute phase runs into the DMA bandwidth floor (message-free wins),
/// and the 2D halo exchange shows what a real stencil's concurrent
/// flows do. A platform without a pool fails the message-free replay
/// (invalid data, exit 3).
pub fn cxl(args: &Args) -> Result<Json, CliError> {
    let platform = platform_or(args, "henri-cxl")?;
    let cores = args.cores_or("cores", 17)?;
    let comm_mb = args.count_or("comm-mb", 64)? as u64;
    let compute_mb = args.count_or("compute-mb", 1024)? as u64;

    let comm_bytes = mib("comm-mb", comm_mb)?;
    let compute_bytes = mib("compute-mb", compute_mb)?;
    let halo_params = GenParams {
        ranks: 4,
        iters: 2,
        cores,
        compute_bytes,
        comm_bytes,
        comp_numa: NumaId::new(0),
        comm_numa: NumaId::new(0),
    };
    let workloads = [
        ("pingpong-idle", pingpong(comm_bytes, 0, 0)),
        ("pingpong-hot", pingpong(comm_bytes, cores, compute_bytes)),
        ("halo2d-hot", generate::halo2d(&halo_params)),
    ];

    let t0 = Instant::now();
    let mut rows = Vec::new();
    for (workload, trace) in &workloads {
        let run = |comm_mode| {
            let config = ReplayConfig {
                comm_mode,
                ..ReplayConfig::default()
            };
            replay(&platform, trace, &config)
        };
        let messages = run(CommMode::Messages)?;
        let cxl = run(CommMode::Cxl)?;
        let ratio = cxl.contended.makespan / messages.contended.makespan;
        let winner = if ratio < 1.0 { "cxl" } else { "messages" };
        rows.push(obj(vec![
            ("name", Json::Str(workload.to_string())),
            ("ranks", Json::Num(messages.ranks as f64)),
            ("events", Json::Num(messages.events as f64)),
            ("messages", outcome_json(&messages)),
            ("cxl", outcome_json(&cxl)),
            ("cxl_over_messages", Json::Num(ratio)),
            ("winner", Json::Str(winner.into())),
        ]));
    }
    let wall = t0.elapsed().as_secs_f64();

    Ok(obj(vec![
        ("platform", Json::Str(platform.name().into())),
        ("cores", Json::Num(cores as f64)),
        ("comm_mb", Json::Num(comm_mb as f64)),
        ("compute_mb", Json::Num(compute_mb as f64)),
        ("wall_s", Json::Num(wall)),
        ("workloads", Json::Arr(rows)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_synopsis_option_is_accepted() {
        let mut checked = 0;
        let mut scenario = None;
        for line in USAGE.lines() {
            let mut words = line.split_whitespace();
            if words.next() == Some("bench") {
                scenario = words.next();
            }
            let Some(name) = scenario else { continue };
            for rest in line.split("--").skip(1) {
                let option: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                let args = Args::parse([name.to_string(), format!("--{option}"), "x".into()]);
                assert_eq!(
                    args.unwrap().only_as_in(USAGE, "bench"),
                    Ok(()),
                    "bench {name} --{option}"
                );
                checked += 1;
            }
            if !line.trim_end().ends_with('\\') {
                scenario = None;
            }
        }
        assert_eq!(checked, 25);
    }

    #[test]
    fn an_unknown_option_is_named() {
        let args = Args::parse(["cxl", "--core", "4"]).unwrap();
        let e = run(&args).unwrap_err();
        assert_eq!(e, CliError::Usage("unknown option --core".into()));
    }
}
