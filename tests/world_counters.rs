//! Pins the work counters of `World` on the two replay shapes the
//! benchmark's replay workloads run, at their sizes: a dependency-chained
//! ring allreduce (128 ranks, 2 iterations), where stepping cost grows
//! with the square of the rank count, and a bulk-synchronous halo2d
//! stencil (1024 ranks, 4 iterations). Each source is replayed through
//! `run_source` as `memcontend replay` runs it, contended and against
//! the uncontended baseline.
//!
//! Every `WorldSolverStats` field and the makespan bits are deterministic,
//! so a change to any of them is a change in simulator work or results
//! and must be deliberate: update the pin in the same commit and explain
//! the change.
//!
//! The baseline pins moved once, when `World` began to read a rate only
//! when a stamp of its node changed. A baseline node keeps no stream
//! set, so its stamp never moves: a job reads its alone rate once and a
//! transfer reads its two endpoints' once. The baseline's `requests` are
//! now the jobs started plus twice the transfers (allreduce 256 +
//! 2·65,024 = 130,304, halo2d 4,096 + 2·16,384 = 36,864), where they
//! were one lookup per running entity per step (318,464 and 49,152).
//! `reuse_hits` are the requests less the two `full_solves`, and no
//! other counter moved. They no longer depend on the message and phase
//! sizes either, which only stretch time.

use memory_contention::memsim::DeltaStats;
use memory_contention::mpisim::WorldSolverStats;
use memory_contention::replay::generate::{GenParams, LazyGen};
use memory_contention::replay::{run_source, ReplayConfig};
use memory_contention::topology::platforms;

/// The benchmark's replay sizes at size factor `k / 256`: `k` MiB
/// compute phases and `k / 4` MiB messages. The benchmark draws `k` in
/// 256..=271 from its seed; seed 42 draws 256.
fn params(ranks: usize, iters: usize, k: u64) -> GenParams {
    GenParams {
        ranks,
        iters,
        compute_bytes: (256 << 20) / 256 * k,
        comm_bytes: (64 << 20) / 256 * k,
        ..GenParams::default()
    }
}

/// Replay `pattern` from the lazy generator at size factor 256,
/// contended or baseline; returns the solver counters and the makespan's
/// bits.
fn replay(pattern: &str, ranks: usize, iters: usize, contended: bool) -> (WorldSolverStats, u64) {
    replay_at(pattern, ranks, iters, 256, contended)
}

/// [`replay`] at size factor `k / 256`.
fn replay_at(
    pattern: &str,
    ranks: usize,
    iters: usize,
    k: u64,
    contended: bool,
) -> (WorldSolverStats, u64) {
    let gen = LazyGen::new(pattern, &params(ranks, iters, k)).expect("a known pattern");
    let config = ReplayConfig {
        timeline_ranks: Some(64),
        ..ReplayConfig::default()
    };
    let run = run_source(&platforms::henri(), &mut gen.source(), &config, contended)
        .expect("the generated trace replays");
    (run.solver, run.run.makespan.to_bits())
}

fn stats(
    node_steps: u64,
    transitions: u64,
    [requests, reuse_hits, state_hits, full_solves]: [u64; 4],
) -> WorldSolverStats {
    WorldSolverStats {
        node_steps,
        transitions,
        delta: DeltaStats {
            requests,
            reuse_hits,
            state_hits,
            full_solves,
        },
    }
}

/// 128 ranks, 2 iterations. Each transfer adds and removes a DMA stream
/// on both endpoints (4 transitions), and the ring sends 2·127 messages
/// per rank and iteration: 4·128·254·2 = 260,096 transitions, plus 2 per
/// core of each 4-core compute phase.
#[test]
fn allreduce_at_128_ranks_pins_every_counter() {
    assert_eq!(
        replay("allreduce", 128, 2, true),
        (
            stats(129_536, 262_144, [97_536, 0, 97_533, 3]),
            0x3fa8_cdb6_b50e_0df5
        )
    );
    assert_eq!(
        replay("allreduce", 128, 2, false),
        (
            stats(0, 262_144, [130_304, 130_302, 0, 2]),
            0x3f99_817d_f757_5e96
        )
    );
}

/// 1024 ranks, 4 iterations: 4 faces per rank and iteration (65,536
/// transitions) plus the compute phases (32,768). Every step moves all
/// faces at once, so few node steps cover 40,960 events.
#[test]
fn halo2d_at_1024_ranks_pins_every_counter() {
    assert_eq!(
        replay("halo2d", 1024, 4, true),
        (
            stats(12_288, 98_304, [12_288, 0, 12_285, 3]),
            0x3fc8_4adf_148e_ff86
        )
    );
    assert_eq!(
        replay("halo2d", 1024, 4, false),
        (
            stats(0, 98_304, [36_864, 36_862, 0, 2]),
            0x3fa8_8aec_7037_7bb0
        )
    );
}

/// The baseline's counters count entities, not steps, so the size factor
/// leaves them alone at both ends of the benchmark's range, while the
/// makespan stretches.
#[test]
fn baseline_counters_do_not_depend_on_the_size_factor() {
    for (pattern, ranks, iters) in [("allreduce", 128, 2), ("halo2d", 1024, 4)] {
        let (small, small_makespan) = replay_at(pattern, ranks, iters, 256, false);
        let (large, large_makespan) = replay_at(pattern, ranks, iters, 271, false);
        assert_eq!(small, large, "{pattern}");
        assert!(
            f64::from_bits(large_makespan) > f64::from_bits(small_makespan),
            "{pattern}"
        );
    }
}
