//! Assignment evaluation: two-layer allocation + node simulation.
//!
//! An *assignment* maps every job to a node. Turning that into
//! predicted finish times happens in two layers, after the wright build
//! scheduler's "how many jobs × how many cores each" split:
//!
//! 1. **cores-per-job** — a node hosting `k` jobs grants each
//!    `min(request, cores/k)` cores (never below one), the
//!    `total_cpus / active_dockyards` share rule;
//! 2. **placement** — co-located jobs spread across NUMA nodes
//!    round-robin (slot `s` computes on node `s mod numa`) with
//!    communication buffers homed one NUMA node over, the separated
//!    placement the paper's advisor prefers.
//!
//! The resulting finite stream multiset runs on the node's simulated
//! fabric ([`NodeWorld`]); per-job *slowdown* is the finish time under
//! co-location divided by the job's finish time with the node to
//! itself. Node evaluations are memoized by (platform, shape sequence) —
//! the search layers revisit the same sets constantly, so an exhaustive
//! small-case sweep or a long anneal costs few distinct simulations —
//! and each platform's [`NodeWorld`] memoizes the solver states its
//! simulations reach, so a distinct set rarely runs a full solve.
//!
//! A job's *shape* is the first job in the queue whose profile has the
//! same bits in every field the allocation reads (`compute_bytes`,
//! `comm_bytes`, `max_cores`); names never reach a simulation. The key is
//! the sorted set's shapes in slot order, not sorted again: slots decide
//! NUMA homes, so one shape sequence is one allocation and one run, bit
//! for bit, and `finish` stays per slot. A queue whose profiles are all
//! distinct gets one shape per job and memoizes exactly as by job set.
//!
//! A memo entry keeps only what the searches read: finish times and the
//! makespan. The allocation a simulation ran is rebuilt on demand
//! ([`Evaluator::plan`]); it is a pure function of the node and the set.
//! Solo finish times, asked for once per co-located job per score, come
//! from a dense (platform, job) table instead of the memo.

use std::collections::HashMap;
use std::rc::Rc;

use mc_memsim::{DeltaStats, JobLoad, NodeWorld};
use mc_topology::NumaId;

use crate::fleet::{Fleet, FleetNode};
use crate::job::JobSpec;

/// Objective value of one assignment: lexicographically fewer
/// `--max-slowdown` violations first, then smaller cluster makespan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Co-located jobs whose slowdown exceeds the threshold.
    pub violations: usize,
    /// Cluster makespan, seconds (max over node makespans).
    pub makespan: f64,
}

impl Score {
    /// The cluster score of per-node `(makespan, violations)` pairs:
    /// the largest makespan and the total violation count. Both are
    /// exact whatever order the nodes were scored in.
    pub fn combine(nodes: &[(f64, usize)]) -> Score {
        let (makespan, violations) = nodes
            .iter()
            .fold((0.0f64, 0usize), |(m, v), &(nm, nv)| (m.max(nm), v + nv));
        Score {
            violations,
            makespan,
        }
    }

    /// Total order: fewer violations, then smaller makespan.
    pub fn order(&self, other: &Score) -> std::cmp::Ordering {
        self.violations
            .cmp(&other.violations)
            .then(self.makespan.total_cmp(&other.makespan))
    }
}

/// One job's placement in a finished plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Job index into the queue.
    pub job: usize,
    /// Fleet node the job runs on.
    pub node: usize,
    /// Cores granted (≤ the job's request).
    pub cores: usize,
    /// NUMA node holding the job's computation data.
    pub m_comp: NumaId,
    /// NUMA node holding the job's communication buffers.
    pub m_comm: NumaId,
    /// Predicted finish time, seconds from the common start.
    pub finish: f64,
    /// Finish time relative to having the node alone (≥ 1).
    pub slowdown: f64,
}

/// A fully evaluated schedule for one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulePlan {
    /// Policy that produced the assignment.
    pub policy: String,
    /// Per-job placements, queue order.
    pub placements: Vec<Placement>,
    /// Cluster makespan, seconds.
    pub makespan: f64,
    /// Jobs per second at that makespan.
    pub throughput: f64,
    /// Jobs sharing their node with at least one other job.
    pub colocated: usize,
    /// Co-located jobs whose slowdown exceeds the threshold.
    pub violations: usize,
}

/// Memoized evaluation of one node's co-located job set.
#[derive(Debug)]
pub struct NodeEval {
    /// Finish time per set slot (same order as the sorted set).
    pub finish: Box<[f64]>,
    /// Node makespan.
    pub makespan: f64,
}

/// Two-layer allocation for a sorted job set on one node, written over
/// `out`, one entry per set slot.
fn alloc_for(node: &FleetNode, jobs: &[JobSpec], set: &[u32], out: &mut Vec<JobLoad>) {
    let k = set.len().max(1);
    let share = (node.cores / k).max(1);
    let numa = node.platform.topology.numa_count() as u16;
    out.clear();
    out.extend(set.iter().enumerate().map(|(slot, &j)| {
        let prof = &jobs[j as usize].profile;
        let cap = if prof.max_cores == 0 {
            node.cores
        } else {
            prof.max_cores
        };
        let comp = NumaId::new(slot as u16 % numa);
        let comm = if numa > 1 {
            NumaId::new((slot as u16 + 1) % numa)
        } else {
            NumaId::new(0)
        };
        JobLoad {
            cores: cap.min(share).max(1),
            comp_numa: comp,
            comm_numa: comm,
            compute_bytes: prof.compute_bytes,
            comm_bytes: prof.comm_bytes,
            comm_pool: None,
        }
    }));
}

/// What [`alloc_for`] reads of a job: two sizes' bits and the core cap.
/// Jobs equal in it run identically in any slot.
fn shape_of(job: &JobSpec) -> (u64, u64, usize) {
    let prof = &job.profile;
    (
        prof.compute_bytes.to_bits(),
        prof.comm_bytes.to_bits(),
        prof.max_cores,
    )
}

/// Memoizing evaluator shared by every policy and search over one
/// (queue, fleet) pair.
pub struct Evaluator<'a> {
    /// The job queue.
    pub jobs: &'a [JobSpec],
    /// The fleet.
    pub fleet: &'a Fleet,
    /// One simulated node per *distinct* platform.
    worlds: Vec<NodeWorld>,
    /// Fleet node index → world index.
    node_world: Vec<usize>,
    /// Job → shape: the first job with the same [`shape_of`].
    shapes: Vec<u32>,
    /// Node evaluations per world, keyed by the sorted set's shapes.
    cache: Vec<HashMap<Box<[u32]>, Rc<NodeEval>>>,
    /// The shape sequence being looked up.
    key: Vec<u32>,
    /// Solo finish time per (world, job), `world * jobs.len() + job`;
    /// `None` until first asked for.
    solo: Vec<Option<f64>>,
    /// The allocation of the set being simulated.
    allocs: Vec<JobLoad>,
    sims: usize,
}

impl<'a> Evaluator<'a> {
    /// Build an evaluator; nodes of the same platform share a world and
    /// a memo table.
    pub fn new(jobs: &'a [JobSpec], fleet: &'a Fleet) -> Self {
        let mut worlds: Vec<NodeWorld> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        let node_world = fleet
            .nodes
            .iter()
            .map(|n| {
                let name = n.platform.name().to_string();
                match names.iter().position(|x| *x == name) {
                    Some(i) => i,
                    None => {
                        names.push(name);
                        worlds.push(NodeWorld::new(&n.platform));
                        worlds.len() - 1
                    }
                }
            })
            .collect();
        let mut first = HashMap::new();
        let shapes = jobs
            .iter()
            .enumerate()
            .map(|(j, job)| *first.entry(shape_of(job)).or_insert(j as u32))
            .collect();
        Evaluator {
            jobs,
            fleet,
            shapes,
            cache: worlds.iter().map(|_| HashMap::new()).collect(),
            key: Vec::new(),
            solo: vec![None; worlds.len() * jobs.len()],
            worlds,
            node_world,
            allocs: Vec::new(),
            sims: 0,
        }
    }

    /// Distinct node simulations run so far (cache misses).
    pub fn sims(&self) -> usize {
        self.sims
    }

    /// Delta-solver counters summed over every platform's world: the
    /// phase-boundary rate requests of all simulations so far and the
    /// full progressive-filling solves they needed.
    pub fn solver_stats(&self) -> DeltaStats {
        self.worlds
            .iter()
            .map(NodeWorld::solver_stats)
            .fold(DeltaStats::default(), |a, b| DeltaStats {
                requests: a.requests + b.requests,
                reuse_hits: a.reuse_hits + b.reuse_hits,
                state_hits: a.state_hits + b.state_hits,
                full_solves: a.full_solves + b.full_solves,
            })
    }

    /// Evaluate one node's job set (`set` must be sorted ascending).
    /// Memoized per (platform, shape sequence).
    pub fn node_eval(&mut self, node: usize, set: &[u32]) -> Rc<NodeEval> {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set must be sorted");
        let world = self.node_world[node];
        self.key.clear();
        self.key
            .extend(set.iter().map(|&j| self.shapes[j as usize]));
        if let Some(hit) = self.cache[world].get(self.key.as_slice()) {
            return Rc::clone(hit);
        }
        alloc_for(&self.fleet.nodes[node], self.jobs, set, &mut self.allocs);
        let run = self.worlds[world].run(&self.allocs);
        self.sims += 1;
        let eval = Rc::new(NodeEval {
            finish: run.jobs.iter().map(|j| j.finish()).collect(),
            makespan: run.makespan,
        });
        self.cache[world].insert(self.key.as_slice().into(), Rc::clone(&eval));
        eval
    }

    /// Finish time of `job` with `node` all to itself.
    pub fn solo_finish(&mut self, node: usize, job: u32) -> f64 {
        let slot = self.node_world[node] * self.jobs.len() + job as usize;
        match self.solo[slot] {
            Some(finish) => finish,
            None => {
                let finish = self.node_eval(node, &[job]).makespan;
                self.solo[slot] = Some(finish);
                finish
            }
        }
    }

    /// Slowdown of `job` finishing at `finish` on `node`.
    fn slowdown(&mut self, node: usize, job: u32, finish: f64) -> f64 {
        let solo = self.solo_finish(node, job);
        if solo > 0.0 {
            // Co-location can only add streams, so a ratio below 1 is
            // event-ordering rounding noise, not a speedup.
            (finish / solo).max(1.0)
        } else {
            1.0
        }
    }

    /// Slowdown each member of `set` suffers on `node` (parallel to the
    /// set), plus the node makespan.
    pub fn slowdowns(&mut self, node: usize, set: &[u32]) -> (Vec<f64>, f64) {
        let eval = self.node_eval(node, set);
        let out = set
            .iter()
            .zip(&eval.finish)
            .map(|(&j, &f)| self.slowdown(node, j, f))
            .collect();
        (out, eval.makespan)
    }

    /// Per-node sorted job sets of an assignment.
    pub fn sets_of(&self, assignment: &[usize]) -> Vec<Vec<u32>> {
        let mut sets: Vec<Vec<u32>> = vec![Vec::new(); self.fleet.nodes.len()];
        for (j, &d) in assignment.iter().enumerate() {
            sets[d].push(j as u32);
        }
        sets
    }

    /// One node's share of the objective: its makespan and how many of
    /// its co-located jobs exceed `max_slowdown` (an empty set or a job
    /// alone never violates).
    pub fn node_score(&mut self, node: usize, set: &[u32], max_slowdown: f64) -> (f64, usize) {
        if set.is_empty() {
            return (0.0, 0);
        }
        let eval = self.node_eval(node, set);
        let mut violations = 0;
        if set.len() > 1 {
            for (&j, &f) in set.iter().zip(&eval.finish) {
                if self.slowdown(node, j, f) > max_slowdown * (1.0 + 1e-9) {
                    violations += 1;
                }
            }
        }
        (eval.makespan, violations)
    }

    /// Objective value of an assignment under `max_slowdown`.
    pub fn score(&mut self, assignment: &[usize], max_slowdown: f64) -> Score {
        let sets = self.sets_of(assignment);
        let nodes: Vec<(f64, usize)> = sets
            .iter()
            .enumerate()
            .map(|(d, set)| self.node_score(d, set, max_slowdown))
            .collect();
        Score::combine(&nodes)
    }

    /// Expand an assignment into the full per-job plan.
    pub fn plan(&mut self, policy: &str, assignment: &[usize], max_slowdown: f64) -> SchedulePlan {
        let sets = self.sets_of(assignment);
        let mut placements = vec![
            Placement {
                job: 0,
                node: 0,
                cores: 0,
                m_comp: NumaId::new(0),
                m_comm: NumaId::new(0),
                finish: 0.0,
                slowdown: 1.0,
            };
            assignment.len()
        ];
        let mut makespan = 0.0f64;
        let mut colocated = 0usize;
        let mut violations = 0usize;
        for (d, set) in sets.iter().enumerate() {
            if set.is_empty() {
                continue;
            }
            let (slow, node_ms) = self.slowdowns(d, set);
            let eval = self.node_eval(d, set);
            alloc_for(&self.fleet.nodes[d], self.jobs, set, &mut self.allocs);
            makespan = makespan.max(node_ms);
            for (slot, &j) in set.iter().enumerate() {
                let a = self.allocs[slot];
                placements[j as usize] = Placement {
                    job: j as usize,
                    node: d,
                    cores: a.cores,
                    m_comp: a.comp_numa,
                    m_comm: a.comm_numa,
                    finish: eval.finish[slot],
                    slowdown: slow[slot],
                };
                if set.len() > 1 {
                    colocated += 1;
                    if slow[slot] > max_slowdown * (1.0 + 1e-9) {
                        violations += 1;
                    }
                }
            }
        }
        let throughput = if makespan > 0.0 {
            assignment.len() as f64 / makespan
        } else {
            0.0
        };
        SchedulePlan {
            policy: policy.to_string(),
            placements,
            makespan,
            throughput,
            colocated,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::{ModelRegistry, PhaseProfile};
    use mc_topology::platforms;
    use proptest::prelude::*;

    fn fixture() -> (Vec<JobSpec>, Fleet) {
        let reg = ModelRegistry::new(4);
        let p = platforms::henri();
        let fleet = Fleet::build(vec![p.clone(), p], &reg).unwrap();
        let job = |name: &str, comp: f64, comm: f64| JobSpec {
            name: name.into(),
            profile: PhaseProfile {
                compute_bytes: comp * 1e9,
                comm_bytes: comm * 1e9,
                max_cores: 8,
            },
        };
        (
            vec![
                job("a", 30.0, 2.0),
                job("b", 2.0, 12.0),
                job("c", 20.0, 8.0),
            ],
            fleet,
        )
    }

    #[test]
    fn solo_slowdown_is_exactly_one() {
        let (jobs, fleet) = fixture();
        let mut ev = Evaluator::new(&jobs, &fleet);
        // Jobs 0 and 2 share node 0; job 1 has node 1 to itself.
        let plan = ev.plan("round_robin", &[0, 1, 0], 1.5);
        assert_eq!(plan.placements[1].slowdown, 1.0);
        assert_eq!(plan.colocated, 2);
        assert!(plan.placements[0].slowdown >= 1.0);
        assert!(plan.placements[2].slowdown >= 1.0);
        assert!(plan.makespan > 0.0);
        assert!(plan.throughput > 0.0);
    }

    #[test]
    fn memoization_dedupes_identical_sets_across_identical_nodes() {
        let (jobs, fleet) = fixture();
        let mut ev = Evaluator::new(&jobs, &fleet);
        ev.node_eval(0, &[0, 1]);
        let sims = ev.sims();
        ev.node_eval(1, &[0, 1]); // same platform, same set → cache hit
        assert_eq!(ev.sims(), sims);
    }

    /// A job named `name` with the given sizes (bytes) and core cap.
    fn shaped(name: &str, compute_bytes: f64, comm_bytes: f64, max_cores: usize) -> JobSpec {
        JobSpec {
            name: name.into(),
            profile: PhaseProfile {
                compute_bytes,
                comm_bytes,
                max_cores,
            },
        }
    }

    #[test]
    fn jobs_with_bit_identical_profiles_share_one_simulation() {
        let (_, fleet) = fixture();
        let jobs = vec![
            shaped("left", 20e9, 8e9, 8),
            shaped("right", 20e9, 8e9, 8),
            shaped("other", 2e9, 12e9, 8),
            shaped("late", 20e9, 8e9, 8),
        ];
        let mut ev = Evaluator::new(&jobs, &fleet);
        let alone = ev.node_eval(0, &[0]);
        assert_eq!(ev.sims(), 1);
        assert!(Rc::ptr_eq(&alone, &ev.node_eval(1, &[3])));
        // {0, 2} and {1, 2} both run (shape 0, shape 2) in slot order.
        let pair = ev.node_eval(0, &[0, 2]);
        assert_eq!(ev.sims(), 2);
        assert!(Rc::ptr_eq(&pair, &ev.node_eval(0, &[1, 2])));
        // {2, 3} runs (shape 2, shape 0): the same shapes in the other slots.
        ev.node_eval(0, &[2, 3]);
        assert_eq!(ev.sims(), 3);
        // The plan reads the shared run per slot, under each job's name.
        let plan = ev.plan("p", &[0, 1, 1, 0], 1.5);
        // New: {0, 3} as (shape 0, shape 0) and shape 2 alone, for its
        // slowdown.
        assert_eq!(ev.sims(), 5);
        assert_eq!(
            plan.placements[1].finish.to_bits(),
            pair.finish[0].to_bits()
        );
        assert_eq!(
            plan.placements[2].finish.to_bits(),
            pair.finish[1].to_bits()
        );
    }

    #[test]
    fn a_one_ulp_or_core_cap_difference_does_not_share() {
        let (_, fleet) = fixture();
        let ulp = |x: f64| f64::from_bits(x.to_bits() + 1);
        let jobs = vec![
            shaped("base", 20e9, 8e9, 8),
            shaped("compute", ulp(20e9), 8e9, 8),
            shaped("comm", 20e9, ulp(8e9), 8),
            shaped("cores", 20e9, 8e9, 4),
        ];
        let mut ev = Evaluator::new(&jobs, &fleet);
        for job in 0..jobs.len() as u32 {
            ev.node_eval(0, &[job]);
            assert_eq!(ev.sims(), job as usize + 1, "job {job} shared a run");
        }
        // The core cap reaches the run: alone on henri, 4 cores are slower.
        assert!(ev.node_eval(0, &[3]).makespan > ev.node_eval(0, &[0]).makespan);
    }

    #[test]
    fn the_same_shapes_on_two_platforms_do_not_share() {
        let reg = ModelRegistry::new(4);
        let fleet = Fleet::build(vec![platforms::henri(), platforms::dahu()], &reg).unwrap();
        let jobs = vec![shaped("a", 20e9, 8e9, 8), shaped("b", 20e9, 8e9, 8)];
        let mut ev = Evaluator::new(&jobs, &fleet);
        let henri = ev.node_eval(0, &[0, 1]);
        let dahu = ev.node_eval(1, &[0, 1]);
        assert_eq!(ev.sims(), 2);
        assert_ne!(henri.makespan.to_bits(), dahu.makespan.to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every memoized evaluation is the run a fresh node world gives
        /// the set's allocation, and the memo simulates each (platform,
        /// shape sequence) once.
        #[test]
        fn shape_memo_matches_fresh_runs(
            profiles in proptest::collection::vec((1.0f64..30.0, 0.5f64..12.0, 0usize..9), 3..5),
            picks in proptest::collection::vec(0usize..4, 12),
            queries in proptest::collection::vec((0usize..3, 1u32..4096), 1..24),
        ) {
            let reg = ModelRegistry::new(4);
            let fleet = Fleet::build(
                vec![platforms::henri(), platforms::dahu(), platforms::henri()],
                &reg,
            )
            .unwrap();
            let jobs: Vec<JobSpec> = picks
                .iter()
                .enumerate()
                .map(|(j, &pick)| {
                    let (comp, comm, cores) = profiles[pick % profiles.len()];
                    shaped(&format!("j{j}"), comp * 1e9, comm * 1e9, cores)
                })
                .collect();
            let mut ev = Evaluator::new(&jobs, &fleet);
            let mut seen = std::collections::HashSet::new();
            let mut allocs = Vec::new();
            for (node, mask) in queries {
                // At most four jobs, ascending.
                let set: Vec<u32> = (0..12u32).filter(|j| mask >> j & 1 == 1).take(4).collect();
                let eval = ev.node_eval(node, &set);
                alloc_for(&fleet.nodes[node], &jobs, &set, &mut allocs);
                let run = NodeWorld::new(&fleet.nodes[node].platform).run(&allocs);
                let want: Vec<u64> = run.jobs.iter().map(|j| j.finish().to_bits()).collect();
                let got: Vec<u64> = eval.finish.iter().map(|f| f.to_bits()).collect();
                prop_assert_eq!(got, want, "node {} set {:?}", node, set);
                prop_assert_eq!(eval.makespan.to_bits(), run.makespan.to_bits());
                let shapes: Vec<_> = set.iter().map(|&j| shape_of(&jobs[j as usize])).collect();
                seen.insert((fleet.nodes[node].platform.name().to_string(), shapes));
                prop_assert_eq!(ev.sims(), seen.len());
            }
        }
    }

    #[test]
    fn solo_finishes_are_per_platform_one_job_runs() {
        let (jobs, _) = fixture();
        let reg = ModelRegistry::new(4);
        let fleet = Fleet::build(
            vec![platforms::henri(), platforms::dahu(), platforms::henri()],
            &reg,
        )
        .unwrap();
        let mut ev = Evaluator::new(&jobs, &fleet);
        for node in 0..3 {
            for job in 0..jobs.len() as u32 {
                let solo = ev.solo_finish(node, job);
                let sims = ev.sims();
                let run = ev.node_eval(node, &[job]).makespan;
                assert_eq!(solo.to_bits(), run.to_bits(), "node {node} job {job}");
                assert_eq!(ev.sims(), sims, "the solo run went through the memo");
            }
        }
        // One simulation per (platform, job): nodes 0 and 2 share henri.
        assert_eq!(ev.sims(), 2 * jobs.len());
        assert_ne!(
            ev.solo_finish(0, 0).to_bits(),
            ev.solo_finish(1, 0).to_bits()
        );
    }

    #[test]
    fn two_layer_allocation_splits_cores_and_spreads_numa() {
        let (jobs, fleet) = fixture();
        let mut allocs = Vec::new();
        alloc_for(&fleet.nodes[0], &jobs, &[0, 1, 2], &mut allocs);
        assert_eq!(allocs.len(), 3);
        let node_cores = fleet.nodes[0].cores;
        for a in &allocs {
            assert!(a.cores >= 1);
            assert!(a.cores <= (node_cores / 3).clamp(1, 8));
        }
        // henri has two NUMA nodes: slots alternate compute homes.
        assert_ne!(allocs[0].comp_numa, allocs[1].comp_numa);
        assert_ne!(allocs[0].comp_numa, allocs[0].comm_numa);
        // A plan places each job exactly as its simulation ran it.
        let plan = Evaluator::new(&jobs, &fleet).plan("all_on_0", &[0, 0, 0], 1.5);
        for (p, a) in plan.placements.iter().zip(&allocs) {
            assert_eq!(
                (p.cores, p.m_comp, p.m_comm),
                (a.cores, a.comp_numa, a.comm_numa)
            );
        }
    }

    #[test]
    fn score_orders_by_violations_then_makespan() {
        let a = Score {
            violations: 0,
            makespan: 10.0,
        };
        let b = Score {
            violations: 1,
            makespan: 1.0,
        };
        assert_eq!(a.order(&b), std::cmp::Ordering::Less);
        let c = Score {
            violations: 0,
            makespan: 9.0,
        };
        assert_eq!(c.order(&a), std::cmp::Ordering::Less);
    }
}
