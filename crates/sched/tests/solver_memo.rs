//! Work counters of the scheduler's evaluation path on `bench schedule`'s
//! adversarial mixed queue (32 jobs on 12 henri nodes, all three
//! policies): node simulations and phase-boundary rate evaluations are
//! fixed by the search, while the node worlds' solver memo keeps full
//! progressive-filling solves to the few distinct machine states.

use mc_model::{ModelRegistry, PhaseProfile};
use mc_sched::{policy_by_name, policy_names, Evaluator, Fleet, JobSpec};
use mc_topology::platforms;

/// `bench schedule`'s queue: comm-heavy shuffles alternating with
/// compute-heavy solvers in three size tiers.
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

#[test]
fn mixed_queue_runs_few_full_solves() {
    let queue = mixed_queue(32);
    let registry = ModelRegistry::new(8);
    let fleet = Fleet::build(vec![platforms::henri(); 12], &registry).unwrap();
    let mut ev = Evaluator::new(&queue, &fleet);
    for name in policy_names() {
        let assignment = policy_by_name(name, 1.25, 42).unwrap().assign(&mut ev);
        ev.plan(name, &assignment, 1.25);
    }
    let stats = ev.solver_stats();
    assert_eq!(ev.sims(), 6_404);
    assert_eq!(stats.requests, 58_858, "{stats:?}");
    assert!(stats.full_solves < 1_000, "{stats:?}");
    assert_eq!(
        stats.requests,
        stats.reuse_hits + stats.state_hits + stats.full_solves,
        "{stats:?}"
    );
}
