//! Work counters of the scheduler's evaluation path on `bench schedule`'s
//! adversarial mixed queue (32 jobs on 12 henri nodes, all three
//! policies): node simulations and phase-boundary rate evaluations are
//! fixed by the search, while the node worlds' solver memo keeps full
//! progressive-filling solves to the few distinct machine states.
//!
//! Every counter and every plan's makespan bits are pinned exactly: a
//! change to how a node simulation or a memo lookup is carried out must
//! leave all of them as they are.

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
    // (policy, makespan bits, violations) of each plan, in policy order.
    let expect: [(&str, u64, usize); 3] = [
        ("first_fit", 0x400f_5218_5449_45ac, 28),
        ("round_robin", 0x4019_97f2_a8b3_a363, 30),
        ("contention_aware", 0x4020_f795_950a_0b66, 10),
    ];
    let names = policy_names();
    assert_eq!(names.len(), expect.len());
    for (name, (want_name, bits, violations)) in names.iter().zip(expect) {
        assert_eq!(*name, want_name);
        let assignment = policy_by_name(name, 1.25, 42).unwrap().assign(&mut ev);
        let plan = ev.plan(name, &assignment, 1.25);
        assert_eq!(
            plan.makespan.to_bits(),
            bits,
            "{name}: makespan {} s",
            plan.makespan
        );
        assert_eq!(plan.violations, violations, "{name}");
    }
    let stats = ev.solver_stats();
    assert_eq!(ev.sims(), 3_322);
    assert_eq!(stats.requests, 39_831, "{stats:?}");
    assert_eq!(stats.full_solves, 756, "{stats:?}");
    assert_eq!(stats.reuse_hits, 2_623, "{stats:?}");
    assert_eq!(stats.state_hits, 36_452, "{stats:?}");
    assert_eq!(
        stats.requests,
        stats.reuse_hits + stats.state_hits + stats.full_solves,
        "{stats:?}"
    );
}
