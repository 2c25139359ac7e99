//! `NodeWorld::run` on the memoizing delta solver must reproduce the
//! original full-solve event loop bit for bit: same phase completion
//! times, same makespan, same number of phase-boundary evaluations —
//! on a cold node and on one whose state cache earlier runs warmed.

use mc_memsim::{
    Fabric, FabricScratch, JobFinish, JobLoad, NodeRun, NodeWorld, SolveResult, StreamSpec,
};
use mc_topology::{platforms, NumaId, Platform, PoolId};
use proptest::prelude::*;

/// The event loop `NodeWorld::run` used before it owned a delta
/// solver: every segment expands each job's streams in job order and
/// runs a full `Fabric::solve_into`.
fn run_full_solve(fabric: &Fabric, jobs: &[JobLoad]) -> NodeRun {
    let mut scratch = FabricScratch::default();
    let mut result = SolveResult::default();
    let mut residual: Vec<(f64, f64, f64, f64)> = jobs
        .iter()
        .map(|j| {
            let compute = if j.cores > 0 { j.compute_bytes } else { 0.0 };
            (compute, j.comm_bytes, 0.0, 0.0)
        })
        .collect();
    let mut now = 0.0f64;
    let mut solves = 0usize;
    let mut streams: Vec<StreamSpec> = Vec::new();
    let mut owner: Vec<(usize, bool)> = Vec::new();
    loop {
        streams.clear();
        owner.clear();
        for (i, (job, res)) in jobs.iter().zip(residual.iter()).enumerate() {
            if res.0 > 0.0 {
                for _ in 0..job.cores {
                    streams.push(StreamSpec::CpuWrite {
                        numa: job.comp_numa,
                    });
                    owner.push((i, false));
                }
            }
            if res.1 > 0.0 {
                streams.push(match job.comm_pool {
                    None => StreamSpec::DmaRecv {
                        numa: job.comm_numa,
                    },
                    Some(pool) => StreamSpec::CxlRead {
                        numa: job.comm_numa,
                        pool,
                    },
                });
                owner.push((i, true));
            }
        }
        if streams.is_empty() {
            break;
        }
        fabric.solve_into(&streams, 1.0, &mut scratch, &mut result);
        solves += 1;
        let mut comp_rate = vec![0.0f64; jobs.len()];
        let mut comm_rate = vec![0.0f64; jobs.len()];
        for (&(job, is_comm), &rate) in owner.iter().zip(result.rates.iter()) {
            if is_comm {
                comm_rate[job] += rate * 1e9;
            } else {
                comp_rate[job] += rate * 1e9;
            }
        }
        let mut dt = f64::INFINITY;
        for (i, res) in residual.iter().enumerate() {
            if res.0 > 0.0 && comp_rate[i] > 0.0 {
                dt = dt.min(res.0 / comp_rate[i]);
            }
            if res.1 > 0.0 && comm_rate[i] > 0.0 {
                dt = dt.min(res.1 / comm_rate[i]);
            }
        }
        if !dt.is_finite() {
            break;
        }
        now += dt;
        for (i, res) in residual.iter_mut().enumerate() {
            if res.0 > 0.0 {
                res.0 -= comp_rate[i] * dt;
                if res.0 <= res.0.abs().max(1.0) * 1e-12 {
                    res.0 = 0.0;
                    res.2 = now;
                }
            }
            if res.1 > 0.0 {
                res.1 -= comm_rate[i] * dt;
                if res.1 <= res.1.abs().max(1.0) * 1e-12 {
                    res.1 = 0.0;
                    res.3 = now;
                }
            }
        }
    }
    let jobs_out: Vec<JobFinish> = residual
        .iter()
        .map(|r| JobFinish {
            compute_done: r.2,
            comm_done: r.3,
        })
        .collect();
    let makespan = jobs_out.iter().map(JobFinish::finish).fold(0.0, f64::max);
    NodeRun {
        jobs: jobs_out,
        makespan,
        solves,
    }
}

/// Compare two runs through the bits of every float.
fn assert_bit_identical(memo: &NodeRun, full: &NodeRun) -> Result<(), TestCaseError> {
    prop_assert_eq!(memo.solves, full.solves);
    prop_assert_eq!(memo.makespan.to_bits(), full.makespan.to_bits());
    prop_assert_eq!(memo.jobs.len(), full.jobs.len());
    for (m, f) in memo.jobs.iter().zip(&full.jobs) {
        prop_assert_eq!(m.compute_done.to_bits(), f.compute_done.to_bits());
        prop_assert_eq!(m.comm_done.to_bits(), f.comm_done.to_bits());
    }
    Ok(())
}

fn equivalence_platforms() -> [Platform; 4] {
    [
        platforms::henri(),
        platforms::henri_subnuma(),
        platforms::dahu(),
        platforms::henri_cxl(),
    ]
}

/// One random job: (cores, comp NUMA pick, comm NUMA pick, compute GB,
/// comm GB, zero-byte selector, CXL-pool selector).
type RawJob = (usize, u16, u16, f64, f64, usize, usize);

fn job_strategy() -> impl Strategy<Value = RawJob> {
    (
        0usize..10,
        0u16..8,
        0u16..8,
        0.1f64..40.0,
        0.1f64..20.0,
        0usize..6,
        0usize..3,
    )
}

fn to_load(platform: &Platform, raw: RawJob) -> JobLoad {
    let (cores, comp, comm, comp_gb, comm_gb, zero, pool) = raw;
    let numa = platform.topology.numa_count() as u16;
    let pools = &platform.topology.cxl_pools;
    JobLoad {
        cores,
        comp_numa: NumaId::new(comp % numa),
        comm_numa: NumaId::new(comm % numa),
        // Selector 0 empties the compute phase, 1 the comm phase.
        compute_bytes: if zero == 0 { 0.0 } else { comp_gb * 1e9 },
        comm_bytes: if zero == 1 { 0.0 } else { comm_gb * 1e9 },
        comm_pool: if pool == 0 && !pools.is_empty() {
            Some(PoolId::new(0))
        } else {
            None
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A sequence of random job sets on one node per platform: each run
    /// (cold for the first, warm afterwards) equals the full-solve loop.
    #[test]
    fn memoized_run_equals_full_solve_loop_bit_for_bit(
        sets in proptest::collection::vec(
            proptest::collection::vec(job_strategy(), 0..6),
            1..6,
        ),
    ) {
        for platform in equivalence_platforms() {
            let fabric = Fabric::new(&platform);
            let mut node = NodeWorld::new(&platform);
            for raw in &sets {
                let jobs: Vec<JobLoad> = raw.iter().map(|&r| to_load(&platform, r)).collect();
                let full = run_full_solve(&fabric, &jobs);
                let memo = node.run(&jobs);
                assert_bit_identical(&memo, &full)?;
                // A second pass is answered from the state cache alone.
                let before = node.solver_stats().full_solves;
                let again = node.run(&jobs);
                assert_bit_identical(&again, &full)?;
                prop_assert_eq!(node.solver_stats().full_solves, before);
            }
        }
    }
}

#[test]
fn solver_stats_count_every_phase_boundary_request() {
    let platform = platforms::henri();
    let mut node = NodeWorld::new(&platform);
    let job = |cores, comp, comm, compute_gb: f64, comm_gb: f64| JobLoad {
        cores,
        comp_numa: NumaId::new(comp),
        comm_numa: NumaId::new(comm),
        compute_bytes: compute_gb * 1e9,
        comm_bytes: comm_gb * 1e9,
        comm_pool: None,
    };
    let jobs = [job(8, 0, 1, 30.0, 8.0), job(4, 1, 0, 10.0, 12.0)];
    let first = node.run(&jobs);
    let cold = node.solver_stats();
    assert_eq!(cold.requests, first.solves as u64);
    assert_eq!(cold.full_solves, first.solves as u64, "every state is new");
    let second = node.run(&jobs);
    assert_eq!(first, second);
    let warm = node.solver_stats();
    assert_eq!(warm.requests, (first.solves + second.solves) as u64);
    assert_eq!(warm.full_solves, cold.full_solves, "a rerun solves nothing");
}
