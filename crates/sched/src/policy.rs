//! Placement policies: one trait, three implementations.
//!
//! * [`FirstFit`] packs by free-core counting — the classic scheduler
//!   that believes cores are the only resource and lands comm-heavy
//!   jobs on top of each other;
//! * [`RoundRobin`] spreads by index — balanced counts, blind to what
//!   each job actually does to the memory bus;
//! * [`ContentionAware`] consults the calibrated model and the node
//!   simulation: jobs are ordered by model-predicted solo makespan
//!   (longest first), greedily placed where the predicted cluster
//!   makespan grows least while co-location keeps every affected job
//!   under the `max_slowdown` threshold, then the assignment is refined
//!   by the seeded annealing search.

use mc_model::{recommend, PhaseProfile};

use crate::plan::Evaluator;
use crate::search::{anneal, default_iters};

/// A placement policy: maps the queue onto fleet node indices.
pub trait Policy {
    /// Stable identifier (`first_fit`, `round_robin`,
    /// `contention_aware`).
    fn name(&self) -> &'static str;
    /// Assign every job to a node. `ev` carries the queue, fleet,
    /// calibrated models and the memoized node simulator.
    fn assign(&self, ev: &mut Evaluator<'_>) -> Vec<usize>;
}

/// The policy names [`policy_by_name`] accepts, in comparison order.
pub fn policy_names() -> &'static [&'static str] {
    &["first_fit", "round_robin", "contention_aware"]
}

/// Look a policy up by name; `max_slowdown` and `seed` parameterise the
/// contention-aware policy and are ignored by the naive ones.
pub fn policy_by_name(name: &str, max_slowdown: f64, seed: u64) -> Option<Box<dyn Policy>> {
    match name {
        "first_fit" => Some(Box::new(FirstFit)),
        "round_robin" => Some(Box::new(RoundRobin)),
        "contention_aware" => Some(Box::new(ContentionAware { max_slowdown, seed })),
        _ => None,
    }
}

/// Core-counting first fit, blind to memory contention.
pub struct FirstFit;

impl Policy for FirstFit {
    fn name(&self) -> &'static str {
        "first_fit"
    }

    fn assign(&self, ev: &mut Evaluator<'_>) -> Vec<usize> {
        let nodes = &ev.fleet.nodes;
        let mut free: Vec<usize> = nodes.iter().map(|n| n.cores).collect();
        ev.jobs
            .iter()
            .map(|job| {
                let req = |d: usize| {
                    let cap = job.profile.max_cores;
                    if cap == 0 {
                        nodes[d].cores
                    } else {
                        cap.min(nodes[d].cores)
                    }
                };
                match (0..nodes.len()).find(|&d| free[d] >= req(d)) {
                    Some(d) => {
                        free[d] -= req(d);
                        d
                    }
                    None => {
                        // Everything is full: overflow onto the node with
                        // the most remaining cores (ties to the lowest
                        // index), exactly what a core-counting scheduler
                        // does when forced.
                        let d = (0..nodes.len()).max_by_key(|&d| (free[d], nodes.len() - d));
                        let d = d.unwrap_or(0);
                        free[d] = 0;
                        d
                    }
                }
            })
            .collect()
    }
}

/// Index-striping round robin.
pub struct RoundRobin;

impl Policy for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn assign(&self, ev: &mut Evaluator<'_>) -> Vec<usize> {
        let n = ev.fleet.nodes.len();
        (0..ev.jobs.len()).map(|j| j % n).collect()
    }
}

/// Lexicographic order on the greedy candidate key: (threshold
/// violated, resulting cluster makespan, worst slowdown, prior node
/// load, node index).
fn key_lt(a: &(bool, f64, f64, usize, usize), b: &(bool, f64, f64, usize, usize)) -> bool {
    a.0.cmp(&b.0)
        .then(a.1.total_cmp(&b.1))
        .then(a.2.total_cmp(&b.2))
        .then(a.3.cmp(&b.3))
        .then(a.4.cmp(&b.4))
        == std::cmp::Ordering::Less
}

/// Model-guided greedy packing under a slowdown threshold, refined by
/// seeded annealing.
pub struct ContentionAware {
    /// Largest slowdown a co-located job may be predicted to suffer.
    pub max_slowdown: f64,
    /// Seed for the annealing refinement.
    pub seed: u64,
}

impl ContentionAware {
    /// Model-predicted solo makespan of `job` on its best fleet node —
    /// the queue is ordered longest-first by this weight, the calibrated
    /// model's contribution to the packing order.
    fn model_weight(ev: &Evaluator<'_>, job: &PhaseProfile) -> f64 {
        let mut best = f64::INFINITY;
        for node in &ev.fleet.nodes {
            let capped = PhaseProfile {
                max_cores: if job.max_cores == 0 {
                    node.cores
                } else {
                    job.max_cores.min(node.cores)
                },
                ..*job
            };
            if let Some(r) = recommend(&node.model, &capped) {
                best = best.min(r.makespan);
            }
        }
        if best.is_finite() {
            best
        } else {
            (job.compute_bytes + job.comm_bytes) / 1e9
        }
    }

    fn greedy(&self, ev: &mut Evaluator<'_>) -> Vec<usize> {
        let jobs = ev.jobs.len();
        let nodes = ev.fleet.nodes.len();
        let weights: Vec<f64> = ev
            .jobs
            .iter()
            .map(|j| Self::model_weight(ev, &j.profile))
            .collect();
        let mut order: Vec<usize> = (0..jobs).collect();
        order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
        let mut sets: Vec<Vec<u32>> = vec![Vec::new(); nodes];
        let mut node_ms = vec![0.0f64; nodes];
        let mut assignment = vec![0usize; jobs];
        let mut set: Vec<u32> = Vec::with_capacity(jobs);
        for &j in &order {
            // (threshold violated, resulting cluster makespan, worst
            // slowdown on the node, prior load, index) — smallest wins.
            let mut best: Option<(bool, f64, f64, usize, usize)> = None;
            for (d, existing) in sets.iter().enumerate() {
                set.clone_from(existing);
                let pos = set.partition_point(|&x| x < j as u32);
                set.insert(pos, j as u32);
                let (slow, ms) = ev.slowdowns(d, &set);
                let worst = slow.iter().fold(1.0f64, |a, &b| a.max(b));
                let violated = set.len() > 1 && worst > self.max_slowdown * (1.0 + 1e-9);
                let cluster = node_ms
                    .iter()
                    .enumerate()
                    .map(|(e, &m)| if e == d { ms } else { m })
                    .fold(0.0f64, f64::max);
                let key = (violated, cluster, worst, existing.len(), d);
                if best.as_ref().is_none_or(|cur| key_lt(&key, cur)) {
                    best = Some(key);
                }
            }
            let d = best.map(|k| k.4).unwrap_or(0);
            let pos = sets[d].partition_point(|&x| x < j as u32);
            sets[d].insert(pos, j as u32);
            let (_, ms) = ev.slowdowns(d, &sets[d]);
            node_ms[d] = ms;
            assignment[j] = d;
        }
        assignment
    }
}

impl Policy for ContentionAware {
    fn name(&self) -> &'static str {
        "contention_aware"
    }

    fn assign(&self, ev: &mut Evaluator<'_>) -> Vec<usize> {
        let start = self.greedy(ev);
        let iters = default_iters(ev.jobs.len(), ev.fleet.nodes.len());
        let (best, _) = anneal(ev, self.max_slowdown, &start, self.seed, iters);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use crate::job::JobSpec;
    use mc_model::ModelRegistry;
    use mc_topology::platforms;

    fn mixed_queue() -> Vec<JobSpec> {
        // Interleaved comm-heavy / compute-heavy jobs: the adversarial
        // order for round robin on an even fleet.
        (0..4)
            .map(|i| JobSpec {
                name: format!("j{i}"),
                profile: PhaseProfile {
                    compute_bytes: if i % 2 == 0 { 2e9 } else { 25e9 },
                    comm_bytes: if i % 2 == 0 { 12e9 } else { 1e9 },
                    max_cores: 8,
                },
            })
            .collect()
    }

    fn fleet(n: usize) -> Fleet {
        let reg = ModelRegistry::new(4);
        Fleet::build(vec![platforms::henri(); n], &reg).unwrap()
    }

    #[test]
    fn every_policy_assigns_every_job_to_a_real_node() {
        let jobs = mixed_queue();
        let fleet = fleet(2);
        let mut ev = Evaluator::new(&jobs, &fleet);
        for name in policy_names() {
            let p = policy_by_name(name, 1.5, 42).unwrap();
            assert_eq!(p.name(), *name);
            let a = p.assign(&mut ev);
            assert_eq!(a.len(), jobs.len());
            assert!(a.iter().all(|&d| d < 2), "{name}: {a:?}");
        }
        assert!(policy_by_name("nope", 1.5, 42).is_none());
    }

    #[test]
    fn contention_aware_beats_or_matches_the_naive_policies() {
        let jobs = mixed_queue();
        let fleet = fleet(2);
        let mut ev = Evaluator::new(&jobs, &fleet);
        let score_of = |ev: &mut Evaluator<'_>, name: &str| {
            let a = policy_by_name(name, 1.5, 42).unwrap().assign(ev);
            ev.score(&a, 1.5)
        };
        let aware = score_of(&mut ev, "contention_aware");
        let ff = score_of(&mut ev, "first_fit");
        let rr = score_of(&mut ev, "round_robin");
        assert!(
            aware.makespan <= ff.makespan + 1e-12,
            "aware {} vs first_fit {}",
            aware.makespan,
            ff.makespan
        );
        assert!(
            aware.makespan <= rr.makespan + 1e-12,
            "aware {} vs round_robin {}",
            aware.makespan,
            rr.makespan
        );
    }

    #[test]
    fn round_robin_stripes_and_first_fit_packs() {
        let jobs = mixed_queue();
        let fleet = fleet(2);
        let mut ev = Evaluator::new(&jobs, &fleet);
        assert_eq!(RoundRobin.assign(&mut ev), vec![0, 1, 0, 1]);
        // 8-core requests: two fit per 17-core henri node.
        assert_eq!(FirstFit.assign(&mut ev), vec![0, 0, 1, 1]);
    }
}
