//! What a scheduler miss allocates.
//!
//! A counting global allocator tallies the allocations of all three
//! policies and their plans on `bench schedule`'s mixed queue (32 jobs on
//! 12 henri nodes), twice on one `Evaluator`. The first pass misses the
//! memo 3,322 times (once per distinct shape sequence; the queue's 32
//! jobs have 6 profiles); the second repeats the same searches and hits every
//! time, so the difference between the two passes is what the misses
//! allocated: node simulations, memo entries and the solver's new states.
//!
//! A miss allocates four blocks: its memo key, the `Rc<NodeEval>`, the
//! finish-time slice in it and the `NodeRun`'s per-job `Vec`. The node
//! world's phase list, active list and stream multiset and the
//! evaluator's allocation and key buffers are reused from miss to miss. The rest
//! of the count is the solver's 756 new states (four blocks each: the
//! `Rc`, its per-id counts and rates, and a bucket) and the growth of the
//! tables that hold them.
//!
//! This file holds a single test, so no other test thread allocates
//! while a pass is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mc_model::{ModelRegistry, PhaseProfile};
use mc_sched::{policy_by_name, policy_names, Evaluator, Fleet, JobSpec};
use mc_topology::platforms;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only an atomic and allocates
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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

/// Allocations made by every policy and its plan on `ev`.
fn allocations_of_a_pass(ev: &mut Evaluator<'_>) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for name in policy_names() {
        let policy = policy_by_name(name, 1.25, 42).unwrap();
        let assignment = policy.assign(ev);
        ev.plan(name, &assignment, 1.25);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn a_miss_allocates_a_fixed_handful() {
    let queue = mixed_queue(32);
    let registry = ModelRegistry::new(8);
    let fleet = Fleet::build(vec![platforms::henri(); 12], &registry).unwrap();
    let mut ev = Evaluator::new(&queue, &fleet);
    let cold = allocations_of_a_pass(&mut ev);
    let misses = ev.sims();
    let warm = allocations_of_a_pass(&mut ev);
    assert_eq!(misses, 3_322);
    assert_eq!(ev.sims(), misses, "the second pass must hit every time");
    let of_misses = cold - warm;
    assert_eq!(
        of_misses, 16_394,
        "{misses} misses cost {of_misses} allocations ({cold} cold, {warm} warm)"
    );
}
