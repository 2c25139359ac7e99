//! Pins the solver-work counters that `examples/solver_counters.rs`
//! prints: how many progressive-filling solves a steady-state engine run
//! and an event-driven placement sweep perform, and how many are
//! answered from the solve memo. The counters are deterministic, so any
//! change to them is a change in solver work and must be deliberate.

use memory_contention::membench::{BenchConfig, BenchRunner};
use memory_contention::memsim::{Activity, ActivityKind, Engine, Fabric, SolverStats};
use memory_contention::topology::{platforms, NumaId};

/// The example's scenario: 17 staggered compute cores and one message
/// stream, all on NUMA node 0 of henri.
fn henri_parallel_activities() -> Vec<Activity> {
    let mut acts: Vec<Activity> = (0..17)
        .map(|i| Activity {
            kind: ActivityKind::Compute {
                numa: NumaId::new(0),
                bytes_per_pass: 64e6,
                pass_overhead: 2e-6,
            },
            start: i as f64 * 1.3e-5,
        })
        .collect();
    acts.push(Activity {
        kind: ActivityKind::CommRecv {
            numa: NumaId::new(0),
            msg_bytes: 64e6 * 1.048_576,
            handshake: 4e-6,
            gap: 1e-6,
        },
        start: 0.0,
    });
    acts
}

fn stats(invocations: u64, cache_hits: u64) -> SolverStats {
    SolverStats {
        invocations,
        cache_hits,
    }
}

#[test]
fn steady_state_run_counters_are_pinned() {
    let p = platforms::henri();
    let f = Fabric::new(&p);
    let acts = henri_parallel_activities();

    let uncached = Engine::new(&f).uncached().run(&acts, 0.05, 0.3);
    assert_eq!(uncached.events, 734);
    assert_eq!(uncached.stats, stats(734, 0));

    let engine = Engine::new(&f);
    let cold = engine.run(&acts, 0.05, 0.3);
    assert_eq!(cold.events, 734);
    assert_eq!(cold.stats, stats(19, 715));
    let warm = engine.run(&acts, 0.05, 0.3);
    assert_eq!(warm.events, 734);
    assert_eq!(warm.stats, stats(0, 734));
}

#[test]
fn placement_sweep_counters_are_pinned() {
    let p = platforms::henri();
    let mut cfg = BenchConfig::event_driven();
    cfg.window = 0.05;
    cfg.warmup = 0.02;
    let runner = BenchRunner::new(&p, cfg);
    runner.run_placement(NumaId::new(0), NumaId::new(0));
    assert_eq!(runner.solver_stats(), stats(35, 1529));
}
