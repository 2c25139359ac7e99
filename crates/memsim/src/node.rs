//! Multi-job node world: finite workloads sharing one fabric.
//!
//! The engine ([`crate::engine`]) measures *steady-state* bandwidths of
//! activities that restart forever; the scheduler needs the opposite —
//! **finite** jobs (so many compute bytes, so many communication bytes)
//! co-located on one node, each finishing at some instant. `NodeWorld`
//! closes that gap with a fluid simulation on the progressive-filling
//! fixed point: between stream starts/stops every active stream moves at
//! the rate the solver assigns it, the earliest phase completion is the
//! next event, and the multiset of streams shrinks as phases drain.
//!
//! Rates come from a [`DeltaSolver`] the node owns: a run adds every
//! stream to one [`ActiveSet`] and each phase completion removes its own,
//! so a phase boundary is a state-cache lookup whenever an earlier run on
//! this node reached the same multiset (cached rates are bit-identical to
//! fresh ones). A node hosting `k` jobs asks for rates at most `2k` times
//! per run ([`NodeRun::solves`]); [`NodeWorld::solver_stats`] counts how
//! many of those requests ran a full progressive-filling solve.
//!
//! A run's bookkeeping lives in buffers the node owns and resets at the
//! start of every run: the phase list, the active phases (finished ones
//! drop out in order) and the stream multiset, edited a whole phase at a
//! time. Phases that share a `(stream, streams)` pair share one rate per
//! segment, looked up by the stream's id and summed once.
//!
//! Each job is the scheduler-level view of the paper's workload: a
//! memory-bound compute phase (`cores` non-temporal writers on
//! `comp_numa`) overlapped with a communication phase (one NIC DMA
//! stream into `comm_numa`). With one job this reduces to the advisor's
//! two-phase makespan, computed on the simulated fabric instead of the
//! calibrated closed form.

use mc_topology::{NumaId, Platform, PoolId};

use crate::delta::{ActiveSet, DeltaSolver, DeltaStats};
use crate::fabric::{Fabric, StreamId, StreamSpec};

/// One finite job placed on the node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobLoad {
    /// Computing cores granted to the job (0 is allowed iff the job has
    /// no compute bytes).
    pub cores: usize,
    /// NUMA node holding the job's computation data.
    pub comp_numa: NumaId,
    /// NUMA node holding the job's communication buffers.
    pub comm_numa: NumaId,
    /// Bytes the compute phase must move through memory.
    pub compute_bytes: f64,
    /// Bytes the communication phase must move over the NIC.
    pub comm_bytes: f64,
    /// Memory tier the communication phase runs on: `None` keeps the
    /// classic NIC DMA stream into `comm_numa`; `Some(pool)` reads the
    /// bytes message-free from that CXL.mem pool instead (the pool must
    /// exist on the node's platform).
    pub comm_pool: Option<PoolId>,
}

/// Per-job outcome of a node run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobFinish {
    /// Seconds until the job's compute phase drained (`inf` if the run
    /// stalled with it still draining).
    pub compute_done: f64,
    /// Seconds until the job's communication phase drained (`inf` if
    /// the run stalled with it still draining).
    pub comm_done: f64,
}

impl JobFinish {
    /// Seconds until both phases drained — the job's completion time.
    pub fn finish(&self) -> f64 {
        self.compute_done.max(self.comm_done)
    }
}

/// Outcome of running a set of co-located jobs to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRun {
    /// Per-job phase completion times, input order.
    pub jobs: Vec<JobFinish>,
    /// Time the last phase drained (0 for an empty or all-empty set,
    /// `inf` if a phase never drains).
    pub makespan: f64,
    /// Phase-boundary rate evaluations (≤ 2 × jobs): one per event-loop
    /// segment, whether the solver answered it from its memo or ran
    /// progressive filling.
    pub solves: usize,
}

/// One simulated cluster node: a platform's fabric plus a memoizing
/// delta solver. Cheap to keep per fleet entry; `run` is `&mut self` for
/// the solver's state cache and the run's scratch buffers. Not `Send`:
/// cached states are `Rc`-shared.
#[derive(Debug)]
pub struct NodeWorld {
    fabric: Fabric,
    solver: DeltaSolver,
    /// Two phases per job of the current run, compute then
    /// communication.
    phases: Vec<Phase>,
    /// The current run's distinct `(stream, streams)` pairs.
    pairs: Vec<Pair>,
    /// Indices into `phases` of the phases still draining, ascending.
    active: Vec<usize>,
    /// The active phases' streams.
    set: ActiveSet,
}

/// One phase of a job inside the event loop: `pairs[pair].streams`
/// copies of stream `pairs[pair].id` draining `left` bytes.
#[derive(Debug, Clone, Copy)]
struct Phase {
    pair: usize,
    left: f64,
    done: f64,
}

/// `streams` copies of stream `id`, the shape of one or more phases.
#[derive(Debug, Clone, Copy)]
struct Pair {
    id: StreamId,
    streams: usize,
    /// Phases of this shape still draining.
    live: usize,
    /// Bytes/s over all `streams` streams in the current segment.
    rate: f64,
}

impl NodeWorld {
    /// Build the node for one platform.
    pub fn new(platform: &Platform) -> Self {
        NodeWorld {
            fabric: Fabric::new(platform),
            solver: DeltaSolver::new(),
            phases: Vec::new(),
            pairs: Vec::new(),
            active: Vec::new(),
            set: ActiveSet::new(),
        }
    }

    /// The platform this node simulates.
    pub fn platform(&self) -> &Platform {
        self.fabric.platform()
    }

    /// Cumulative delta-solver counters over every run on this node:
    /// `requests` equals the sum of [`NodeRun::solves`], `full_solves`
    /// counts the progressive-filling runs the memo could not avoid.
    pub fn solver_stats(&self) -> DeltaStats {
        self.solver.stats()
    }

    /// Run `jobs` from a common start to completion and report when each
    /// phase drains. Deterministic: same jobs, same answer, bit for bit,
    /// whatever ran on the node before.
    pub fn run(&mut self, jobs: &[JobLoad]) -> NodeRun {
        let NodeWorld {
            fabric,
            solver,
            phases,
            pairs,
            active,
            set,
        } = self;
        // A stalled run breaks out with streams still active: start clean.
        phases.clear();
        pairs.clear();
        active.clear();
        set.clear();
        for j in jobs {
            let compute = if j.cores > 0 { j.compute_bytes } else { 0.0 };
            let comm = match j.comm_pool {
                None => StreamSpec::DmaRecv { numa: j.comm_numa },
                Some(pool) => StreamSpec::CxlRead {
                    numa: j.comm_numa,
                    pool,
                },
            };
            let cpu = StreamSpec::CpuWrite { numa: j.comp_numa };
            for (spec, streams, left) in [(cpu, j.cores, compute), (comm, 1, j.comm_bytes)] {
                let id = fabric.stream_id(spec);
                let pair = match pairs
                    .iter()
                    .position(|q| q.id == id && q.streams == streams)
                {
                    Some(i) => i,
                    None => {
                        pairs.push(Pair {
                            id,
                            streams,
                            live: 0,
                            rate: 0.0,
                        });
                        pairs.len() - 1
                    }
                };
                if left > 0.0 {
                    pairs[pair].live += 1;
                    active.push(phases.len());
                    set.add_n(id, streams);
                }
                phases.push(Phase {
                    pair,
                    left,
                    done: 0.0,
                });
            }
        }
        let mut now = 0.0f64;
        let mut solves = 0usize;
        while !set.is_empty() {
            let state = solver.solve(fabric, set, 1.0);
            solves += 1;
            // The solver reports GB/s per stream; a phase's rate is the
            // sum over its streams, accumulated stream by stream.
            for q in pairs.iter_mut().filter(|q| q.live > 0) {
                let rate = state.rate_of(q.id).expect("active phase has streams");
                q.rate = 0.0;
                for _ in 0..q.streams {
                    q.rate += rate * 1e9;
                }
            }
            // The earliest phase completion is the next event.
            let mut dt = f64::INFINITY;
            for &i in active.iter() {
                let p = &phases[i];
                let rate = pairs[p.pair].rate;
                if rate > 0.0 {
                    dt = dt.min(p.left / rate);
                }
            }
            if !dt.is_finite() {
                // Every remaining stream got rate 0: a resource with no
                // capacity. Those phases never drain.
                for &i in active.iter() {
                    phases[i].done = f64::INFINITY;
                }
                break;
            }
            now += dt;
            active.retain(|&i| {
                let p = &mut phases[i];
                let q = &mut pairs[p.pair];
                p.left -= q.rate * dt;
                let drained = p.left <= p.left.abs().max(1.0) * 1e-12;
                if drained {
                    p.left = 0.0;
                    p.done = now;
                    q.live -= 1;
                    set.remove_n(q.id, q.streams);
                }
                !drained
            });
        }
        let jobs_out: Vec<JobFinish> = phases
            .chunks_exact(2)
            .map(|p| JobFinish {
                compute_done: p[0].done,
                comm_done: p[1].done,
            })
            .collect();
        let makespan = jobs_out.iter().map(JobFinish::finish).fold(0.0, f64::max);
        NodeRun {
            jobs: jobs_out,
            makespan,
            solves,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_topology::platforms;

    fn job(cores: usize, comp: u16, comm: u16, compute_gb: f64, comm_gb: f64) -> JobLoad {
        JobLoad {
            cores,
            comp_numa: NumaId::new(comp),
            comm_numa: NumaId::new(comm),
            compute_bytes: compute_gb * 1e9,
            comm_bytes: comm_gb * 1e9,
            comm_pool: None,
        }
    }

    #[test]
    fn empty_node_finishes_instantly() {
        let mut node = NodeWorld::new(&platforms::henri());
        let run = node.run(&[]);
        assert_eq!(run.makespan, 0.0);
        assert_eq!(run.solves, 0);
        let run = node.run(&[job(4, 0, 0, 0.0, 0.0)]);
        assert_eq!(run.makespan, 0.0);
        assert_eq!(run.jobs[0].finish(), 0.0);
    }

    #[test]
    fn single_job_matches_hand_computed_two_phase_run() {
        let p = platforms::henri();
        let mut node = NodeWorld::new(&p);
        let j = job(8, 0, 1, 40.0, 10.0);
        let run = node.run(&[j]);
        assert_eq!(run.jobs.len(), 1);
        // Both phases drain, in at most two solver segments.
        assert!(run.solves <= 2, "solves {}", run.solves);
        assert!(run.makespan > 0.0);
        // The makespan can't beat either phase running alone at full rate.
        let fabric = Fabric::new(&p);
        let comp_alone = fabric
            .solve(&Fabric::benchmark_streams(8, Some(NumaId::new(0)), None))
            .rates
            .iter()
            .sum::<f64>()
            * 1e9;
        let comm_alone = fabric
            .solve(&[StreamSpec::DmaRecv {
                numa: NumaId::new(1),
            }])
            .rates[0]
            * 1e9;
        let lower = (j.compute_bytes / comp_alone).max(j.comm_bytes / comm_alone);
        assert!(run.makespan >= lower - 1e-9);
    }

    #[test]
    fn colocation_never_speeds_either_job_up() {
        let p = platforms::henri();
        let mut node = NodeWorld::new(&p);
        let a = job(8, 0, 0, 30.0, 6.0);
        let b = job(8, 0, 0, 20.0, 12.0);
        let alone_a = node.run(&[a]).jobs[0].finish();
        let alone_b = node.run(&[b]).jobs[0].finish();
        let both = node.run(&[a, b]);
        assert!(both.jobs[0].finish() >= alone_a - 1e-9);
        assert!(both.jobs[1].finish() >= alone_b - 1e-9);
        assert!(both.makespan >= alone_a.max(alone_b) - 1e-9);
    }

    #[test]
    fn separated_numa_placement_beats_piling_on_one_node() {
        let p = platforms::henri();
        let mut node = NodeWorld::new(&p);
        let piled = node.run(&[job(8, 0, 0, 30.0, 8.0), job(8, 0, 0, 30.0, 8.0)]);
        let spread = node.run(&[job(8, 0, 1, 30.0, 8.0), job(8, 1, 0, 30.0, 8.0)]);
        assert!(
            spread.makespan < piled.makespan,
            "spread {} vs piled {}",
            spread.makespan,
            piled.makespan
        );
    }

    #[test]
    fn mixed_tier_node_offloads_the_cxl_job_from_the_nic() {
        // One job reads its bytes message-free from the CXL.mem pool,
        // the other keeps the NIC DMA path: the DMA job must finish as
        // if it never shared the wire, because the tiers only meet at
        // the destination memory controllers.
        let p = platforms::henri_cxl();
        let pool = p.topology.cxl_pools[0].id;
        let dram = job(0, 0, 0, 0.0, 8.0);
        let cxl = JobLoad {
            comm_pool: Some(pool),
            comm_numa: NumaId::new(1),
            ..job(0, 0, 1, 0.0, 8.0)
        };
        let mut node = NodeWorld::new(&p);
        let dram_alone = node.run(&[dram]).jobs[0].comm_done;
        let both = node.run(&[dram, cxl]);
        assert_eq!(
            both.jobs[0].comm_done.to_bits(),
            dram_alone.to_bits(),
            "a CXL reader on the other NUMA node must not slow the NIC job"
        );
        // The CXL job drains at the pool's per-stream bandwidth.
        let expect = 8e9 / (p.topology.cxl_pools[0].stream_bandwidth * 1e9);
        assert!(
            (both.jobs[1].comm_done - expect).abs() < 1e-9,
            "cxl job took {} s, expected {expect} s",
            both.jobs[1].comm_done
        );
    }

    #[test]
    fn mixed_tier_runs_are_deterministic_and_byte_stable() {
        let p = platforms::henri_cxl();
        let pool = p.topology.cxl_pools[0].id;
        let dram = job(8, 0, 1, 30.0, 8.0);
        let cxl = JobLoad {
            comm_pool: Some(pool),
            ..job(8, 1, 0, 20.0, 12.0)
        };
        let mut node = NodeWorld::new(&p);
        let a = node.run(&[dram, cxl]);
        let b = node.run(&[dram, cxl]);
        assert_eq!(a, b);
        for (x, y) in a.jobs.iter().zip(b.jobs.iter()) {
            assert_eq!(x.finish().to_bits(), y.finish().to_bits());
        }
        assert!(a.makespan > 0.0 && a.solves > 0);
    }

    /// A NIC that cannot reach NUMA node 1 stalls every comm phase there:
    /// the stalled phase reports `inf`, not 0, and so does the makespan.
    /// The run that follows on the same node starts clean and matches a
    /// fresh node's field for field.
    #[test]
    fn a_stalled_phase_never_finishes_and_the_next_run_starts_clean() {
        let p = mc_topology::PlatformBuilder::new("half-nic")
            .nic_numa_efficiency(vec![1.0, 0.0])
            .build()
            .unwrap();
        let mut node = NodeWorld::new(&p);
        let stalled = node.run(&[job(4, 0, 1, 8.0, 2.0)]);
        let compute = stalled.jobs[0].compute_done;
        assert!(compute.is_finite() && compute > 0.0, "compute {compute}");
        assert_eq!(stalled.jobs[0].comm_done, f64::INFINITY);
        assert_eq!(stalled.makespan, f64::INFINITY);

        let compute_only = [job(4, 0, 0, 8.0, 0.0)];
        let after = node.run(&compute_only);
        assert_eq!(after, NodeWorld::new(&p).run(&compute_only));
        assert_eq!(after.makespan.to_bits(), compute.to_bits());
    }

    #[test]
    fn runs_are_bit_identical() {
        let p = platforms::dahu();
        let mut node = NodeWorld::new(&p);
        let jobs = [job(4, 0, 1, 25.0, 5.0), job(2, 1, 0, 5.0, 20.0)];
        let a = node.run(&jobs);
        let b = node.run(&jobs);
        assert_eq!(a, b);
        for (x, y) in a.jobs.iter().zip(b.jobs.iter()) {
            assert_eq!(x.finish().to_bits(), y.finish().to_bits());
        }
    }
}
