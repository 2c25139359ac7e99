//! Posting order across ranks never reaches a result. Every rank starts
//! a compute job and posts a ring receive and send at one instant; the
//! ranks take their turn in a seeded permutation. Against the canonical
//! order (rank 0 first), every completion time is bit-identical, the
//! solver counters are equal, and the histories hold the same records
//! (their order follows posting order, so they compare as multisets).
//! Within one `(rank, peer)` pair order does matter — MPI matching is
//! non-overtaking — and the unit tests in `world.rs` pin that.

use mc_mpisim::{JobRecord, Tag, TransferRecord, World, WorldSolverStats};
use mc_topology::{platforms, NumaId};
use proptest::TestRng;

const RANKS: usize = 8;

/// Bit patterns of a run: per-rank (receive, send, job) completion
/// times, the solver counters, and both histories sorted.
#[derive(Debug, PartialEq)]
struct Outcome {
    times: Vec<[u64; 3]>,
    stats: WorldSolverStats,
    transfers: Vec<(usize, usize, u64, u64, Option<u64>)>,
    jobs: Vec<(usize, usize, u64, Option<u64>)>,
}

fn transfer_bits(t: &TransferRecord) -> (usize, usize, u64, u64, Option<u64>) {
    (
        t.src,
        t.dst,
        t.bytes.to_bits(),
        t.matched_at.to_bits(),
        t.finished_at.map(f64::to_bits),
    )
}

fn job_bits(j: &JobRecord) -> (usize, usize, u64, Option<u64>) {
    (
        j.rank,
        j.cores,
        j.started_at.to_bits(),
        j.finished_at.map(f64::to_bits),
    )
}

/// Rank `r`'s message: ranks 0 and 1 send eagerly (16 KiB), the rest by
/// rendezvous (`r` · 4 MiB).
fn message(r: usize) -> u64 {
    if r < 2 {
        16 << 10
    } else {
        (r as u64) << 22
    }
}

fn run(order: &[usize]) -> Outcome {
    let numa = NumaId::new(0);
    let mut w = World::homogeneous(&platforms::henri(), RANKS);
    let mut posted = vec![None; RANKS];
    for &r in order {
        let (left, right) = ((r + RANKS - 1) % RANKS, (r + 1) % RANKS);
        let job = w
            .start_compute(r, numa, 1 + r % 4, (32 << 20) * (1 + r as u64 % 3))
            .unwrap();
        let recv = w
            .irecv(r, left, numa, message(left), Tag(left as u32))
            .unwrap();
        let send = w.isend(r, right, numa, message(r), Tag(r as u32)).unwrap();
        posted[r] = Some((recv, send, job));
    }
    let times = posted
        .into_iter()
        .map(|p| {
            let (recv, send, job) = p.expect("every rank posts");
            [
                w.wait(recv).unwrap().to_bits(),
                w.wait(send).unwrap().to_bits(),
                w.wait_job(job).unwrap().to_bits(),
            ]
        })
        .collect();
    let mut transfers: Vec<_> = w.transfer_history().iter().map(transfer_bits).collect();
    let mut jobs: Vec<_> = w.job_history().iter().map(job_bits).collect();
    transfers.sort_unstable();
    jobs.sort_unstable();
    Outcome {
        times,
        stats: w.solver_stats(),
        transfers,
        jobs,
    }
}

#[test]
fn rank_posting_order_never_reaches_a_result() {
    let canonical: Vec<usize> = (0..RANKS).collect();
    let expected = run(&canonical);
    assert_eq!(expected.transfers.len(), RANKS);
    assert!(expected.stats.node_steps > 0);

    let mut orders = vec![canonical.iter().rev().copied().collect::<Vec<_>>()];
    for seed in 1..=8u64 {
        let mut rng = TestRng::new(seed);
        let mut order = canonical.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        orders.push(order);
    }
    for order in orders {
        assert_eq!(run(&order), expected, "order {order:?}");
    }
}
