//! Pins the solver-work counters that `examples/solver_counters.rs`
//! prints: how many progressive-filling solves a steady-state engine run
//! and an event-driven placement sweep perform, and how many are
//! answered from the solve memo. The counters are deterministic, so any
//! change to them is a change in solver work and must be deliberate.

use std::hash::Hasher;

use memory_contention::membench::{BenchConfig, BenchRunner};
use memory_contention::memsim::fxhash::FxHasher;
use memory_contention::memsim::{Activity, Engine, Fabric, SolverStats, StreamSpec};
use memory_contention::topology::{platforms, NumaId};

/// The example's scenario: 17 staggered compute cores and one message
/// stream, all on NUMA node 0 of henri.
fn henri_parallel_activities() -> Vec<Activity> {
    let mut acts: Vec<Activity> = (0..17)
        .map(|i| Activity {
            spec: StreamSpec::CpuWrite {
                numa: NumaId::new(0),
            },
            unit_bytes: 64e6,
            lead: 0.0,
            tail: 2e-6,
            start: i as f64 * 1.3e-5,
        })
        .collect();
    acts.push(Activity {
        spec: StreamSpec::DmaRecv {
            numa: NumaId::new(0),
        },
        unit_bytes: 64e6 * 1.048_576,
        lead: 4e-6,
        tail: 1e-6,
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

/// The example's placement sweep runner: event-driven, noisy, with a
/// short measurement window.
fn short_window_runner() -> BenchRunner {
    let mut cfg = BenchConfig::event_driven();
    cfg.window = 0.05;
    cfg.warmup = 0.02;
    BenchRunner::new(&platforms::henri(), cfg)
}

#[test]
fn placement_sweep_counters_are_pinned() {
    let runner = short_window_runner();
    runner.run_placement(NumaId::new(0), NumaId::new(0));
    assert_eq!(runner.solver_stats(), stats(35, 1337));
}

/// The engine's output bits for the steady-state run: the memoized ==
/// uncached property tests run both sides through the same event loop,
/// so only a pin catches a change to the loop's arithmetic.
#[test]
fn steady_state_run_output_bits_are_pinned() {
    let p = platforms::henri();
    let f = Fabric::new(&p);
    let acts = henri_parallel_activities();
    let (report, trace) = Engine::new(&f).run_traced(&acts, 0.05, 0.3);
    assert_eq!(report.events, 734);
    let bits: Vec<(u64, u64, u64)> = report
        .activities
        .iter()
        .map(|a| {
            (
                a.measured_bytes.to_bits(),
                a.total_bytes.to_bits(),
                a.units_done,
            )
        })
        .collect();
    let compute = |total: u64| (0x41d001e384c3c3ce, total, 20);
    let expected = vec![
        compute(0x41d336674d97551a),
        compute(0x41d336203597551a),
        compute(0x41d335d91d97551a),
        compute(0x41d335920597551a),
        compute(0x41d3354aed97551a),
        compute(0x41d33503d597551a),
        compute(0x41d334bcbd97551a),
        compute(0x41d33475a597551a),
        compute(0x41d3342e8d97551a),
        compute(0x41d333e77597551a),
        compute(0x41d333a05d97551a),
        compute(0x41d333594597551a),
        compute(0x41d333122d97551a),
        compute(0x41d332cb1597551a),
        compute(0x41d332875972c2d1),
        compute(0x41d33248987b4b5a),
        compute(0x41d3320e334b4b5a),
        (0x41c512cf62ffffe9, 0x41c9536f5a69135e, 12),
    ];
    assert_eq!(bits, expected);

    let mut fold = FxHasher::default();
    for s in &trace {
        fold.write_u64(s.t.to_bits());
        fold.write_u64(s.compute.to_bits());
        fold.write_u64(s.comm.to_bits());
        fold.write_usize(s.active);
    }
    assert_eq!(trace.len(), 734);
    assert_eq!(fold.finish(), 0xe06b2a45766a6841);
}

/// Every value of the example's placement sweep, noise on, bit for bit:
/// `[comp_alone, comm_alone, comp_par, comm_par]` for `n` = 1..=17.
#[test]
fn placement_sweep_bits_are_pinned() {
    let runner = short_window_runner();
    assert!(runner.config().noisy);
    let sweep = runner.run_placement(NumaId::new(0), NumaId::new(0));
    let n_cores: Vec<usize> = sweep.points.iter().map(|p| p.n_cores).collect();
    assert_eq!(n_cores, (1..=17).collect::<Vec<_>>());
    let bits: Vec<[u64; 4]> = sweep
        .points
        .iter()
        .map(|p| {
            [
                p.comp_alone.to_bits(),
                p.comm_alone.to_bits(),
                p.comp_par.to_bits(),
                p.comm_par.to_bits(),
            ]
        })
        .collect();
    #[rustfmt::skip]
    let expected: Vec<[u64; 4]> = vec![
        [0x401698549a36366d, 0x40270a758b532d11, 0x40165db9217a1f8d, 0x4026c3b82c825f99],
        [0x40267cfb757ff08f, 0x4026e3d0038c4294, 0x40266b200a71d6cd, 0x40268dde1da3544c],
        [0x4030e8e49a08f069, 0x40265708be412cf2, 0x4030d9d24935f548, 0x402673a64038ba6b],
        [0x40366770cfb924ce, 0x40261c336f19e369, 0x40364fce0dd88369, 0x402697ab66bff0d2],
        [0x403c1bde647fc86e, 0x402651cf18dba6ee, 0x403c1ad019750f4e, 0x4026b2ed627f74ae],
        [0x4040da826fdf3b8e, 0x402695abd0a122a0, 0x4040b2c031c9e6b0, 0x402669312ee13ba3],
        [0x4043bc8fa8d7945a, 0x402616dc1bd48c0b, 0x4043dea6f8d2d65b, 0x4026c46530dbb07d],
        [0x40462664f17d849c, 0x40269f6f6318979d, 0x40465071c3d95973, 0x40272bc9e7d279c4],
        [0x4049318375d7186b, 0x4026d543506e590d, 0x40496c2a350514fa, 0x40266ed17fcb16ee],
        [0x404bd6a9916179b3, 0x40262706aa79aeee, 0x404c64c82e44b4ed, 0x4026eb6334a2243f],
        [0x404e9efda722aee3, 0x4026e49249463b09, 0x404ee1ff2929bea1, 0x4026b2c36fb104b4],
        [0x4050dc78cdbaf8e5, 0x4026d79df09e2e78, 0x40509a711786709a, 0x40213fecadb2152b],
        [0x40522be3d3e4db05, 0x4026aac7642086fe, 0x4052261969e044ff, 0x401218e4dab90427],
        [0x4053834d6e0ca1cc, 0x40263f94bb435819, 0x4052ae76915bf759, 0x40064d8ebeb03913],
        [0x40535bf5ab11e20a, 0x4027070451f8a0db, 0x40528e1cde858cf6, 0x4006e9fe82a606dd],
        [0x40534f38a103ff84, 0x4026d730f8a44323, 0x405299669ee4d579, 0x4006e8b9c028debc],
        [0x40536ce74303666a, 0x4026c1bb4cf486a0, 0x40522a0918fc9a42, 0x40069468d0a66b2f],
    ];
    assert_eq!(bits, expected);
}
