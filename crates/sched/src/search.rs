//! Placement search: the exhaustive small-case oracle and the seeded
//! annealing heuristic that replaces it at fleet scale.
//!
//! PR 5's brute-force placement search enumerates a NUMA grid — a
//! handful of points. Cluster assignment is `nodes^jobs` points, so the
//! oracle ([`exhaustive`]) only defines ground truth on small cases;
//! realistic fleets run [`anneal`]: a move/swap random walk with
//! simulated-annealing acceptance over the memoized evaluator, seeded
//! and therefore byte-reproducible. The walk tracks the best
//! *evaluated* assignment (not merely the best accepted one), so on
//! small instances it effectively enumerates the space and the
//! oracle-equivalence property holds with margin.

use crate::plan::{Evaluator, Score};

/// xorshift64* — the same tiny deterministic PRNG the loadgen bench
/// uses; good enough to drive proposals, trivially seedable.
#[derive(Debug, Clone)]
pub struct Xorshift(u64);

impl Xorshift {
    /// Seed the generator (0 is mapped away).
    pub fn new(seed: u64) -> Self {
        Xorshift(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Lexicographic comparison used for tie-breaking assignments whose
/// scores are equal, so every search layer agrees on one canonical
/// winner.
fn assignment_lt(a: &[usize], b: &[usize]) -> bool {
    a.iter().lt(b.iter())
}

/// Exhaustively enumerate all `nodes^jobs` assignments and return the
/// optimum (fewest violations, then smallest makespan; ties break to
/// the lexicographically smallest assignment). Cost is exponential —
/// the caller bounds the case size; the node-set memoization keeps
/// distinct simulations far below the assignment count.
pub fn exhaustive(ev: &mut Evaluator<'_>, max_slowdown: f64) -> (Vec<usize>, Score) {
    let jobs = ev.jobs.len();
    let nodes = ev.fleet.nodes.len();
    let mut current = vec![0usize; jobs];
    let mut best = current.clone();
    let mut best_score = ev.score(&current, max_slowdown);
    loop {
        // Odometer increment enumerates assignments in lexicographic
        // order, so the first optimum found is the canonical one.
        let mut i = jobs;
        loop {
            if i == 0 {
                return (best, best_score);
            }
            i -= 1;
            current[i] += 1;
            if current[i] < nodes {
                break;
            }
            current[i] = 0;
        }
        let score = ev.score(&current, max_slowdown);
        if score.order(&best_score) == std::cmp::Ordering::Less {
            best = current.clone();
            best_score = score;
        }
    }
}

/// Proposal count the anneal defaults to for a queue/fleet size.
pub fn default_iters(jobs: usize, nodes: usize) -> usize {
    (400 + 120 * jobs * nodes).min(12_000)
}

/// Refine `start` by a seeded annealing walk: single-job moves and
/// cross-node swaps, accepted when they don't worsen the score or with
/// Boltzmann probability on a linearly cooling temperature. Returns the
/// best assignment *evaluated* anywhere along the walk. Deterministic
/// in (start, seed, iters).
///
/// A proposal moves jobs between two nodes only, so the walk keeps the
/// current assignment's per-node scores and re-scores just those two
/// nodes; [`Score::combine`] makes the result identical to a full
/// [`Evaluator::score`] of the proposal.
pub fn anneal(
    ev: &mut Evaluator<'_>,
    max_slowdown: f64,
    start: &[usize],
    seed: u64,
    iters: usize,
) -> (Vec<usize>, Score) {
    let jobs = ev.jobs.len();
    let nodes = ev.fleet.nodes.len();
    let mut rng = Xorshift::new(seed);
    let mut cur = start.to_vec();
    let mut cur_nodes: Vec<(f64, usize)> = ev
        .sets_of(&cur)
        .iter()
        .enumerate()
        .map(|(d, set)| ev.node_score(d, set, max_slowdown))
        .collect();
    let mut cur_score = Score::combine(&cur_nodes);
    let mut best = cur.clone();
    let mut best_score = cur_score;
    if nodes < 2 || jobs == 0 {
        return (best, best_score);
    }
    // Violations dominate the scalarised energy by a margin no makespan
    // difference can offset.
    let base = best_score.makespan.max(1e-9);
    let energy = |s: &Score| s.makespan + s.violations as f64 * 100.0 * base;
    let t0 = 0.5 * base;
    let mut next = cur.clone();
    let mut next_nodes = cur_nodes.clone();
    let mut set: Vec<u32> = Vec::with_capacity(jobs);
    for i in 0..iters {
        let temp = t0 * (1.0 - i as f64 / iters as f64) + 1e-12;
        next.copy_from_slice(&cur);
        next_nodes.copy_from_slice(&cur_nodes);
        // The job whose old and new nodes are the two that change.
        let moved;
        if rng.below(3) == 0 && jobs >= 2 {
            // Swap two jobs on different nodes (fall back to a move when
            // the draw lands on the same node).
            let a = rng.below(jobs);
            let b = rng.below(jobs);
            if next[a] != next[b] {
                next.swap(a, b);
            } else {
                next[a] = (next[a] + 1 + rng.below(nodes - 1)) % nodes;
            }
            moved = a;
        } else {
            let j = rng.below(jobs);
            next[j] = (next[j] + 1 + rng.below(nodes - 1)) % nodes;
            moved = j;
        }
        for node in [cur[moved], next[moved]] {
            set.clear();
            set.extend((0..jobs as u32).filter(|&j| next[j as usize] == node));
            next_nodes[node] = ev.node_score(node, &set, max_slowdown);
        }
        let next_score = Score::combine(&next_nodes);
        match next_score.order(&best_score) {
            std::cmp::Ordering::Less => {
                best.copy_from_slice(&next);
                best_score = next_score;
            }
            std::cmp::Ordering::Equal if assignment_lt(&next, &best) => {
                best.copy_from_slice(&next);
            }
            _ => {}
        }
        let delta = energy(&next_score) - energy(&cur_score);
        if delta <= 0.0 || rng.unit() < (-delta / temp).exp() {
            std::mem::swap(&mut cur, &mut next);
            std::mem::swap(&mut cur_nodes, &mut next_nodes);
            cur_score = next_score;
        }
    }
    (best, best_score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use crate::job::JobSpec;
    use mc_model::{ModelRegistry, PhaseProfile};
    use mc_topology::platforms;

    fn fixture(n_jobs: usize) -> (Vec<JobSpec>, Fleet) {
        let reg = ModelRegistry::new(4);
        let p = platforms::henri();
        let fleet = Fleet::build(vec![p.clone(), p], &reg).unwrap();
        let jobs = (0..n_jobs)
            .map(|i| JobSpec {
                name: format!("j{i}"),
                profile: PhaseProfile {
                    compute_bytes: if i % 2 == 0 { 20e9 } else { 2e9 },
                    comm_bytes: if i % 2 == 0 { 1e9 } else { 10e9 },
                    max_cores: 8,
                },
            })
            .collect();
        (jobs, fleet)
    }

    #[test]
    fn exhaustive_beats_or_matches_any_fixed_assignment() {
        let (jobs, fleet) = fixture(4);
        let mut ev = Evaluator::new(&jobs, &fleet);
        let (best, score) = exhaustive(&mut ev, 1.5);
        assert_eq!(best.len(), 4);
        for fixed in [[0, 0, 0, 0], [0, 1, 0, 1], [1, 1, 0, 0]] {
            let s = ev.score(&fixed, 1.5);
            assert!(score.order(&s) != std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn anneal_is_deterministic_in_the_seed() {
        let (jobs, fleet) = fixture(5);
        let mut ev = Evaluator::new(&jobs, &fleet);
        let start = vec![0usize; 5];
        let a = anneal(&mut ev, 1.5, &start, 7, 500);
        let b = anneal(&mut ev, 1.5, &start, 7, 500);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.makespan.to_bits(), b.1.makespan.to_bits());
    }

    /// The walk before incremental scoring: every proposal is scored in
    /// full by `Evaluator::score`. The oracle for `anneal`.
    fn anneal_full_score(
        ev: &mut Evaluator<'_>,
        max_slowdown: f64,
        start: &[usize],
        seed: u64,
        iters: usize,
    ) -> (Vec<usize>, Score) {
        let jobs = ev.jobs.len();
        let nodes = ev.fleet.nodes.len();
        let mut rng = Xorshift::new(seed);
        let mut cur = start.to_vec();
        let mut cur_score = ev.score(&cur, max_slowdown);
        let mut best = cur.clone();
        let mut best_score = cur_score;
        if nodes < 2 || jobs == 0 {
            return (best, best_score);
        }
        let base = best_score.makespan.max(1e-9);
        let energy = |s: &Score| s.makespan + s.violations as f64 * 100.0 * base;
        let t0 = 0.5 * base;
        for i in 0..iters {
            let temp = t0 * (1.0 - i as f64 / iters as f64) + 1e-12;
            let mut next = cur.clone();
            if rng.below(3) == 0 && jobs >= 2 {
                let a = rng.below(jobs);
                let b = rng.below(jobs);
                if next[a] != next[b] {
                    next.swap(a, b);
                } else {
                    next[a] = (next[a] + 1 + rng.below(nodes - 1)) % nodes;
                }
            } else {
                let j = rng.below(jobs);
                next[j] = (next[j] + 1 + rng.below(nodes - 1)) % nodes;
            }
            let next_score = ev.score(&next, max_slowdown);
            match next_score.order(&best_score) {
                std::cmp::Ordering::Less => {
                    best = next.clone();
                    best_score = next_score;
                }
                std::cmp::Ordering::Equal if assignment_lt(&next, &best) => {
                    best = next.clone();
                }
                _ => {}
            }
            let delta = energy(&next_score) - energy(&cur_score);
            if delta <= 0.0 || rng.unit() < (-delta / temp).exp() {
                cur = next;
                cur_score = next_score;
            }
        }
        (best, best_score)
    }

    #[test]
    fn incremental_anneal_matches_the_full_score_oracle() {
        let reg = ModelRegistry::new(4);
        let henri = platforms::henri();
        let mixed =
            Fleet::build(vec![henri.clone(), platforms::dahu(), henri.clone()], &reg).unwrap();
        let even = Fleet::build(vec![henri; 4], &reg).unwrap();
        let cases: [(&Fleet, usize, f64, u64, usize); 4] = [
            (&mixed, 5, 1.5, 7, 600),
            (&mixed, 9, 1.25, 11, 1500),
            (&even, 12, 1.25, 3, 2500),
            (&even, 7, 3.0, 42, 1000),
        ];
        for (fleet, n_jobs, max_slowdown, seed, iters) in cases {
            let (jobs, _) = fixture(n_jobs);
            let nodes = fleet.nodes.len();
            for start in [
                vec![0usize; n_jobs],
                (0..n_jobs).map(|j| j % nodes).collect(),
            ] {
                let mut fast = Evaluator::new(&jobs, fleet);
                let mut full = Evaluator::new(&jobs, fleet);
                let (a, sa) = anneal(&mut fast, max_slowdown, &start, seed, iters);
                let (b, sb) = anneal_full_score(&mut full, max_slowdown, &start, seed, iters);
                let case = format!("{n_jobs} jobs on {nodes} nodes, seed {seed}");
                assert_eq!(a, b, "{case}");
                assert_eq!(sa.violations, sb.violations, "{case}");
                assert_eq!(sa.makespan.to_bits(), sb.makespan.to_bits(), "{case}");
                assert_eq!(fast.sims(), full.sims(), "{case}");
            }
        }
    }

    #[test]
    fn anneal_never_returns_worse_than_its_start() {
        let (jobs, fleet) = fixture(5);
        let mut ev = Evaluator::new(&jobs, &fleet);
        let start = vec![0usize; 5]; // everything piled on node 0
        let start_score = ev.score(&start, 1.5);
        let (_, refined) = anneal(&mut ev, 1.5, &start, 3, 800);
        assert!(refined.order(&start_score) != std::cmp::Ordering::Greater);
    }
}
