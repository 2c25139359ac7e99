//! The four workloads. Each is a set-up (inputs generated from the
//! seed, untimed by the op loop) and an op (the unit the closed loop
//! times). The seed changes only the generated inputs.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mc_membench::{calibration_placements, BenchConfig, BenchRunner, PlatformSweep};
use mc_memsim::{JobLoad, NodeWorld};
use mc_model::{evaluate, ContentionModel, ModelRegistry, PhaseProfile};
use mc_replay::generate::{GenParams, LazyGen};
use mc_replay::{run_source, EventSource, ReplayConfig, TraceReader, TraceSource};
use mc_sched::{policy_by_name, policy_names, Evaluator, Fleet, JobSpec, SchedulePlan};
use mc_topology::{platforms, Platform};

use crate::layers::{Layers, Timed};

/// Named outputs of one op, checked bit-for-bit across ops and against
/// the values `reference.json` pins for its seed.
pub type Outputs = Vec<(String, f64)>;

/// A prepared workload.
pub trait Workload {
    /// One op. `layers` is [`Layers::off`] on untimed and untraced ops.
    fn op(&mut self, layers: &mut Layers) -> Result<Outputs, String>;

    /// An untimed pass that must reproduce `first` by an independent
    /// path (a no-op where no second path exists).
    fn reference(&mut self, first: &Outputs) -> Result<(), String> {
        let _ = first;
        Ok(())
    }

    /// Extra per-layer measurements taken after a traced op, outside the
    /// op's timing.
    fn after_traced_op(&mut self, layers: &mut Layers) {
        let _ = layers;
    }
}

/// A workload's name and default op count.
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Ops `run` times when given no `--ops` or `--seconds`.
    pub ops: usize,
}

/// Every workload, in run order. Why each exists is recorded in
/// `BENCHMARK.json` and `BENCHMARK.md`.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "sweep-calibrate",
        ops: 100,
    },
    Spec {
        name: "replay-halo2d-file",
        ops: 100,
    },
    Spec {
        name: "replay-allreduce",
        ops: 150,
    },
    Spec {
        name: "schedule-mixed",
        ops: 100,
    },
];

/// The workload spec named `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Set up workload `name` from `seed`. `work_dir` receives the files a
/// workload writes (removed again when the workload is dropped).
pub fn setup(name: &str, seed: u64, work_dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sweep-calibrate" => Box::new(SweepCalibrate::new(seed)),
        "replay-halo2d-file" => Box::new(HaloFile::new(seed, work_dir)?),
        "replay-allreduce" => Box::new(Allreduce::new(seed)),
        "schedule-mixed" => Box::new(Schedule::new(seed)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// The SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent deterministic draws from one seed, one per `salt`.
fn draw(seed: u64, salt: u64) -> u64 {
    mix(mix(seed) ^ salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The seed's effect on a workload's sizes: every size is multiplied by
/// the same `k / 256`, `k` in 256..=271. A common factor changes every
/// output but leaves the simulators' event order — and so the work of
/// an op — the same, so runs on different seeds measure the same work.
/// (Sizes drawn independently move the work by up to 10 % from seed to
/// seed, more than a bound allows.)
fn size_k(seed: u64) -> u64 {
    256 + draw(seed, 1) % 16
}

/// Trace sizes for the replay workloads: 256 MiB compute phases and
/// 64 MiB messages, scaled by [`size_k`].
fn replay_params(ranks: usize, iters: usize, seed: u64) -> GenParams {
    let k = size_k(seed);
    GenParams {
        ranks,
        iters,
        compute_bytes: (256 << 20) / 256 * k,
        comm_bytes: (64 << 20) / 256 * k,
        ..GenParams::default()
    }
}

/// Event-driven placement sweeps of every Table I platform, then
/// calibrate and evaluate — the paper's pipeline (Table II, Figs 3–8).
struct SweepCalibrate {
    platforms: Vec<Platform>,
}

impl SweepCalibrate {
    fn new(seed: u64) -> SweepCalibrate {
        let platforms = platforms::all()
            .into_iter()
            .enumerate()
            .map(|(i, mut p)| {
                p.behavior.noise.seed = draw(seed, i as u64);
                p
            })
            .collect();
        SweepCalibrate { platforms }
    }
}

impl Workload for SweepCalibrate {
    fn op(&mut self, layers: &mut Layers) -> Result<Outputs, String> {
        let mut out = Outputs::new();
        for platform in &self.platforms {
            let name = platform.name();
            let (runner, sweep) = layers.time("membench.sweep_s", || {
                let runner = BenchRunner::new(platform, BenchConfig::event_driven());
                let sweeps = platform
                    .topology
                    .placement_combinations()
                    .into_iter()
                    .map(|(m_comp, m_comm)| runner.run_placement(m_comp, m_comm))
                    .collect();
                let sweep = PlatformSweep {
                    platform: name.to_string(),
                    sweeps,
                };
                (runner, sweep)
            });
            let (local, remote) = calibration_placements(platform);
            let find = |(m_comp, m_comm)| {
                sweep
                    .sweeps
                    .iter()
                    .find(|s| s.m_comp == m_comp && s.m_comm == m_comm)
                    .ok_or_else(|| format!("{name}: no sweep for calibration placement"))
            };
            let (local_sweep, remote_sweep) = (find(local)?, find(remote)?);
            let model = layers
                .time("model.calibrate_s", || {
                    ContentionModel::calibrate(&platform.topology, local_sweep, remote_sweep)
                })
                .map_err(|e| format!("{name}: {e}"))?;
            let errors = layers.time("model.evaluate_s", || {
                evaluate(&model, &sweep, &[local, remote])
            });
            let stats = runner.solver_stats();
            layers.add(
                "membench.points",
                sweep.sweeps.iter().map(|s| s.points.len()).sum::<usize>() as f64,
            );
            layers.add("memsim.engine.solves", stats.invocations as f64);
            layers.add("memsim.engine.cache_hits", stats.cache_hits as f64);
            out.push((format!("{name}.comm_mape_pct"), errors.comm_all));
            out.push((format!("{name}.comp_mape_pct"), errors.comp_all));
        }
        Ok(out)
    }
}

/// Contended plus baseline replay of one source, as `memcontend replay`
/// runs it. `open` makes a fresh source per pass; `buffered` reads its
/// read-ahead high-water mark after the pass.
fn replay_op<S: EventSource>(
    platform: &Platform,
    layers: &mut Layers,
    mut open: impl FnMut() -> Result<S, String>,
    buffered: impl Fn(&S) -> usize,
) -> Result<Outputs, String> {
    let config = ReplayConfig {
        timeline_ranks: Some(64),
        ..ReplayConfig::default()
    };
    let mut passes = Vec::with_capacity(2);
    for contended in [true, false] {
        let run = if layers.is_on() {
            let start = Instant::now();
            let mut src = Timed::new(open()?);
            let opened = start.elapsed();
            let run = run_source(platform, &mut src, &config, contended);
            let total = start.elapsed();
            let source = opened + src.spent();
            layers.charge("replay.source_s", start, source);
            layers.charge("replay.engine_s", start + source, total - source);
            layers.max("replay.peak_buffered", buffered(src.inner()) as f64);
            run
        } else {
            run_source(platform, &mut open()?, &config, contended)
        }
        .map_err(|e| e.to_string())?;
        let s = run.solver;
        layers.add("mpisim.world.node_steps", s.node_steps as f64);
        layers.add("mpisim.world.transitions", s.transitions as f64);
        layers.add("memsim.delta.requests", s.delta.requests as f64);
        layers.add("memsim.delta.reuse_hits", s.delta.reuse_hits as f64);
        layers.add("memsim.delta.state_hits", s.delta.state_hits as f64);
        layers.add("memsim.delta.full_solves", s.delta.full_solves as f64);
        passes.push(run);
    }
    let (contended, baseline) = (&passes[0], &passes[1]);
    if contended.events() != baseline.events() {
        return Err("passes replayed different event counts".into());
    }
    layers.add("replay.events", contended.events() as f64);
    let slowdown = if baseline.run.makespan > 0.0 {
        contended.run.makespan / baseline.run.makespan
    } else {
        1.0
    };
    Ok(vec![
        ("slowdown".into(), slowdown),
        ("makespan_s".into(), contended.run.makespan),
        ("events".into(), contended.events() as f64),
    ])
}

/// Replay every pass of `gen` straight from the generator.
fn generator_op(
    platform: &Platform,
    gen: &LazyGen,
    layers: &mut Layers,
) -> Result<Outputs, String> {
    replay_op(platform, layers, || Ok(gen.source()), |_| 0)
}

/// Whether two outputs agree name for name and bit for bit.
pub fn same_bits(a: &Outputs, b: &Outputs) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

/// Check a reference pass against the first timed op's outputs.
fn agree(what: &str, got: Result<Outputs, String>, first: &Outputs) -> Result<(), String> {
    let got = got?;
    if same_bits(&got, first) {
        Ok(())
    } else {
        Err(format!("{what} disagrees: {got:?} vs {first:?}"))
    }
}

/// Distinct file names per set-up: no set-up overwrites a file that
/// another workload value may still read.
static FILES: AtomicUsize = AtomicUsize::new(0);

/// A 1024-rank halo2d trace replayed off a JSON-lines file written at
/// set-up.
struct HaloFile {
    platform: Platform,
    gen: LazyGen,
    path: PathBuf,
    bytes: u64,
}

impl HaloFile {
    fn new(seed: u64, work_dir: &Path) -> Result<HaloFile, String> {
        let params = replay_params(1024, 4, seed);
        let gen = LazyGen::new("halo2d", &params).expect("halo2d is a known pattern");
        fs::create_dir_all(work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
        let path = work_dir.join(format!(
            "halo2d-{}-{}.jsonl",
            std::process::id(),
            FILES.fetch_add(1, Ordering::Relaxed)
        ));
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut out = BufWriter::new(File::create(&path).map_err(io)?);
        gen.write_interleaved(&mut out).map_err(io)?;
        out.flush().map_err(io)?;
        drop(out);
        let bytes = fs::metadata(&path).map_err(io)?.len();
        Ok(HaloFile {
            platform: platforms::henri(),
            gen,
            path,
            bytes,
        })
    }
}

impl Drop for HaloFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

impl Workload for HaloFile {
    fn op(&mut self, layers: &mut Layers) -> Result<Outputs, String> {
        let path = &self.path;
        let open = || {
            let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
            TraceReader::new(BufReader::new(file)).map_err(|e| e.to_string())
        };
        let out = replay_op(&self.platform, layers, open, TraceReader::peak_buffered)?;
        layers.add("replay.trace_bytes", self.bytes as f64);
        Ok(out)
    }

    fn reference(&mut self, first: &Outputs) -> Result<(), String> {
        let from_gen = generator_op(&self.platform, &self.gen, &mut Layers::off());
        agree("the same replay from the generator", from_gen, first)
    }
}

/// A 128-rank ring allreduce replayed from the lazy generator.
struct Allreduce {
    platform: Platform,
    gen: LazyGen,
}

impl Allreduce {
    fn new(seed: u64) -> Allreduce {
        let params = replay_params(128, 2, seed);
        Allreduce {
            platform: platforms::henri(),
            gen: LazyGen::new("allreduce", &params).expect("allreduce is a known pattern"),
        }
    }
}

impl Workload for Allreduce {
    fn op(&mut self, layers: &mut Layers) -> Result<Outputs, String> {
        generator_op(&self.platform, &self.gen, layers)
    }

    fn reference(&mut self, first: &Outputs) -> Result<(), String> {
        let trace = self.gen.collect();
        let eager = replay_op(
            &self.platform,
            &mut Layers::off(),
            || Ok(TraceSource::new(&trace)),
            |_| 0,
        );
        agree("an eager replay of the collected trace", eager, first)
    }
}

const SCHED_JOBS: usize = 32;
const SCHED_NODES: usize = 12;
const MAX_SLOWDOWN: f64 = 1.25;
/// The annealing walk's seed. Fixed: another walk visits a different
/// number of node sets, which moves an op's work by about 10 %.
const ANNEAL_SEED: u64 = 42;

/// The adversarial queue of `bench4`: comm-heavy shuffles alternating
/// with compute-heavy solvers in three size tiers, every size scaled by
/// a seed-chosen power of two from 1/4 to 4. Unlike [`size_k`], a power
/// of two scales every simulated time exactly, so the annealing walk —
/// whose path a rounding difference can redirect — visits the same node
/// sets on every seed.
fn mixed_queue(seed: u64) -> Vec<JobSpec> {
    let scale = 2f64.powi((draw(seed, 1) % 5) as i32 - 2);
    (0..SCHED_JOBS)
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
                    compute_bytes: compute_gb * scale * 1e9,
                    comm_bytes: comm_gb * scale * 1e9,
                    max_cores: 8,
                },
            }
        })
        .collect()
}

/// Every policy over the mixed queue on a homogeneous fleet, with a
/// fresh memoizing evaluator per op.
struct Schedule {
    queue: Vec<JobSpec>,
    fleet: Fleet,
    calibrations: u64,
    /// The last traced op's contention-aware plan.
    plan: Option<SchedulePlan>,
    node: NodeWorld,
}

impl Schedule {
    fn new(seed: u64) -> Result<Schedule, String> {
        let queue = mixed_queue(seed);
        let registry = ModelRegistry::new(8);
        let fleet = Fleet::build(vec![platforms::henri(); SCHED_NODES], &registry)
            .map_err(|e| e.to_string())?;
        fleet.validate_jobs(&queue).map_err(|e| e.to_string())?;
        Ok(Schedule {
            queue,
            fleet,
            calibrations: registry.stats().misses,
            plan: None,
            node: NodeWorld::new(&platforms::henri()),
        })
    }
}

impl Workload for Schedule {
    fn op(&mut self, layers: &mut Layers) -> Result<Outputs, String> {
        let mut ev = Evaluator::new(&self.queue, &self.fleet);
        let mut out = Outputs::new();
        for &name in policy_names() {
            let policy = policy_by_name(name, MAX_SLOWDOWN, ANNEAL_SEED)
                .ok_or_else(|| format!("unknown policy {name}"))?;
            let assign_layer = match name {
                "first_fit" => "sched.assign_s.first_fit",
                "round_robin" => "sched.assign_s.round_robin",
                _ => "sched.assign_s.contention_aware",
            };
            let assignment = layers.time(assign_layer, || policy.assign(&mut ev));
            let plan = layers.time("sched.plan_s", || ev.plan(name, &assignment, MAX_SLOWDOWN));
            out.push((format!("{name}.makespan_s"), plan.makespan));
            out.push((format!("{name}.violations"), plan.violations as f64));
            if layers.is_on() && name == "contention_aware" {
                self.plan = Some(plan);
            }
        }
        layers.add("sched.node_sims", ev.sims() as f64);
        layers.add("model.registry.calibrations", self.calibrations as f64);
        Ok(out)
    }

    /// Time `NodeWorld::run` on each node's job set of the last
    /// contention-aware plan, rebuilt from its placements.
    fn after_traced_op(&mut self, layers: &mut Layers) {
        let Some(plan) = self.plan.take() else {
            return;
        };
        let (mut runs, mut solves) = (0usize, 0usize);
        for node in 0..self.fleet.nodes.len() {
            let jobs: Vec<JobLoad> = plan
                .placements
                .iter()
                .filter(|p| p.node == node)
                .map(|p| JobLoad {
                    cores: p.cores,
                    comp_numa: p.m_comp,
                    comm_numa: p.m_comm,
                    compute_bytes: self.queue[p.job].profile.compute_bytes,
                    comm_bytes: self.queue[p.job].profile.comm_bytes,
                    comm_pool: None,
                })
                .collect();
            if jobs.is_empty() {
                continue;
            }
            let run = layers.time("memsim.node.run_us", || self.node.run(&jobs));
            runs += 1;
            solves += run.solves;
        }
        if runs > 0 {
            // `time` charged seconds; the metric is the mean µs per run.
            layers.scale("memsim.node.run_us", 1e6 / runs as f64);
            layers.add("memsim.node.solves_per_run", solves as f64 / runs as f64);
        }
    }
}
