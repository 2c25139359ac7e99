//! Prints the solver-invocation and cache-hit counters of a steady-state
//! engine run and of a full event-driven placement sweep — the numbers
//! `tests/solver_counters.rs` pins (`BENCH_1.json` records the sweep's
//! counts from before the runner reused alone phases). Run with
//! `--release` for realistic timing.
use memory_contention::membench::{BenchConfig, BenchRunner};
use memory_contention::memsim::{Activity, ActivityKind, Engine, Fabric};
use memory_contention::topology::{platforms, NumaId};

fn main() {
    let p = platforms::henri();
    let f = Fabric::new(&p);
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
    let uncached = Engine::new(&f).uncached().run(&acts, 0.05, 0.3);
    let engine = Engine::new(&f);
    let cold = engine.run(&acts, 0.05, 0.3);
    let warm = engine.run(&acts, 0.05, 0.3);
    println!("steady-state parallel run (henri, 17 cores + 1 msg stream):");
    println!("  events            {}", uncached.events);
    println!("  uncached solves   {}", uncached.stats.invocations);
    println!(
        "  cold-cache solves {} (hits {})",
        cold.stats.invocations, cold.stats.cache_hits
    );
    println!(
        "  warm-cache solves {} (hits {})",
        warm.stats.invocations, warm.stats.cache_hits
    );

    let mut cfg = BenchConfig::event_driven();
    cfg.window = 0.05;
    cfg.warmup = 0.02;
    let runner = BenchRunner::new(&p, cfg);
    runner.run_placement(NumaId::new(0), NumaId::new(0));
    let s = runner.solver_stats();
    println!("event-driven placement sweep (henri, 17 core counts, comm alone run once):");
    println!(
        "  solver invocations {}  cache hits {}",
        s.invocations, s.cache_hits
    );
}
