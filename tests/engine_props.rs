//! Property tests of the discrete-event engine and the MPI world:
//! conservation laws (bytes never exceed rate × time), window accounting,
//! and scheduling invariants under randomised activity mixes.

use proptest::prelude::*;

use memory_contention::memsim::{
    allocate, allocate_into, Activity, ActivityKind, Allocation, DeltaSolver, Engine, Fabric,
    FlowReq, FlowSet, RunReport, SolverScratch,
};
use memory_contention::prelude::*;

fn compute_activity(numa: u16, bytes_per_pass: f64, start: f64) -> Activity {
    Activity {
        kind: ActivityKind::Compute {
            numa: NumaId::new(numa),
            bytes_per_pass,
            pass_overhead: 2e-6,
        },
        start,
    }
}

fn comm_activity(numa: u16, msg_bytes: f64) -> Activity {
    Activity {
        kind: ActivityKind::CommRecv {
            numa: NumaId::new(numa),
            msg_bytes,
            handshake: 3e-6,
            gap: 1e-6,
        },
        start: 0.0,
    }
}

fn send_activity(numa: u16, msg_bytes: f64) -> Activity {
    Activity {
        kind: ActivityKind::CommSend {
            numa: NumaId::new(numa),
            msg_bytes,
            handshake: 2e-6,
            gap: 1.5e-6,
        },
        start: 0.0,
    }
}

/// Every measured quantity of a run, as bits, plus the event count.
fn measured_bits(report: &RunReport) -> (Vec<[u64; 4]>, u64) {
    let per_activity = report
        .activities
        .iter()
        .map(|a| {
            [
                a.measured_bytes.to_bits(),
                a.total_bytes.to_bits(),
                a.bandwidth.to_bits(),
                a.units_done,
            ]
        })
        .collect();
    (per_activity, report.events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_conserves_bytes_and_respects_capacity(
        n_compute in 0usize..12,
        comp_numa in 0u16..2,
        comm_numa in 0u16..2,
        bytes_per_pass in 1e6f64..5e8,
        msg_mb in 1u64..64,
    ) {
        let platform = platforms::henri();
        let fabric = Fabric::new(&platform);
        let mut acts: Vec<Activity> = (0..n_compute)
            .map(|i| compute_activity(comp_numa, bytes_per_pass, i as f64 * 1e-5))
            .collect();
        acts.push(comm_activity(comm_numa, (msg_mb << 20) as f64));
        let horizon = 0.08;
        let report = Engine::new(&fabric).run(&acts, 0.02, horizon);

        for (r, a) in report.activities.iter().zip(&acts) {
            // Bytes in window never exceed total bytes; both non-negative.
            prop_assert!(r.measured_bytes >= 0.0);
            prop_assert!(r.total_bytes + 1.0 >= r.measured_bytes);
            // No stream can exceed its physical ceiling.
            let ceiling = match a.kind {
                ActivityKind::Compute { .. } => 5.6,
                _ => fabric.dma_demand(NumaId::new(comm_numa)),
            };
            prop_assert!(
                r.bandwidth <= ceiling + 1e-6,
                "bandwidth {} over ceiling {ceiling}",
                r.bandwidth
            );
        }
        // Aggregate totals bounded by the controller capacity (plus both
        // controllers when streams are split).
        let total = report.compute_bandwidth(&acts) + report.comm_bandwidth(&acts);
        prop_assert!(total <= 2.0 * 80.0 + 1e-6);
    }

    #[test]
    fn engine_report_is_deterministic(
        n_compute in 1usize..8,
        msg_mb in 1u64..32,
    ) {
        let platform = platforms::dahu();
        let fabric = Fabric::new(&platform);
        let mut acts: Vec<Activity> = (0..n_compute)
            .map(|i| compute_activity(0, 1e8, i as f64 * 1e-5))
            .collect();
        acts.push(comm_activity(0, (msg_mb << 20) as f64));
        let engine = Engine::new(&fabric);
        let a = engine.run(&acts, 0.01, 0.05);
        let b = engine.run(&acts, 0.01, 0.05);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn arena_solver_matches_reference_allocate(
        caps in proptest::collection::vec(0.5f64..120.0, 6),
        flow_data in proptest::collection::vec(
            (0u8..2, 0.1f64..60.0, 0.0f64..1.0, proptest::collection::vec(0usize..6, 0..4)),
            0..10,
        ),
    ) {
        // The arena/scratch solver must return the reference allocation
        // bit-for-bit — the engine's solve memoization depends on it.
        let flows: Vec<FlowReq> = flow_data
            .iter()
            .map(|(class, demand, floor_frac, path)| {
                if *class == 0 {
                    FlowReq::cpu(path.clone(), *demand)
                } else {
                    FlowReq::dma(path.clone(), *demand, demand * floor_frac)
                }
            })
            .collect();
        let reference = allocate(&caps, &flows);
        let arena = FlowSet::from_reqs(&flows);
        let mut scratch = SolverScratch::default();
        let mut out = Allocation::default();
        // Twice through the same scratch: cold and warm must both agree.
        for pass in 0..2 {
            allocate_into(&caps, &arena, &mut scratch, &mut out);
            prop_assert_eq!(reference.rates.len(), out.rates.len());
            for (a, b) in reference.rates.iter().zip(&out.rates) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "rate differs on pass {}", pass);
            }
            for (a, b) in reference.resource_load.iter().zip(&out.resource_load) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "load differs on pass {}", pass);
            }
        }
    }

    #[test]
    fn memoized_engine_run_equals_uncached(
        platform_idx in 0usize..6,
        n_compute0 in 0usize..10,
        n_compute1 in 0usize..10,
        comms in proptest::collection::vec((0u8..2, 0u16..2, 1u64..32), 1..11),
        order in proptest::collection::vec(0u32..1000, 30),
        scale_pct in 50u32..150,
        other_scale_pct in 50u32..150,
    ) {
        let platform = platforms::all().swap_remove(platform_idx);
        let fabric = Fabric::new(&platform);
        // Compute on both NUMA nodes, a mix of receives and sends, listed
        // in shuffled order.
        let mut acts: Vec<Activity> = (0..n_compute0)
            .map(|i| compute_activity(0, 1e8, i as f64 * 1e-5))
            .chain((0..n_compute1).map(|i| compute_activity(1, 1e8, i as f64 * 1.7e-5)))
            .collect();
        for &(send, numa, msg_mb) in &comms {
            let msg_bytes = (msg_mb << 20) as f64;
            acts.push(if send == 1 {
                send_activity(numa, msg_bytes)
            } else {
                comm_activity(numa, msg_bytes)
            });
        }
        let mut keyed: Vec<(u32, Activity)> = order.iter().copied().zip(acts).collect();
        keyed.sort_by_key(|e| e.0);
        let acts: Vec<Activity> = keyed.into_iter().map(|e| e.1).collect();
        let reversed: Vec<Activity> = acts.iter().rev().cloned().collect();
        let scales = [scale_pct as f64 / 100.0, other_scale_pct as f64 / 100.0];

        // One solver shared across both scales, warmed on the reversed
        // list.
        let mut shared = DeltaSolver::new();
        for &scale in &scales {
            let engine = Engine::with_cpu_scale(&fabric, scale).with_solver(shared);
            engine.run(&reversed, 0.01, 0.06);
            shared = engine.into_solver();
        }
        for &scale in &scales {
            let uncached = Engine::with_cpu_scale(&fabric, scale).uncached().run(&acts, 0.01, 0.06);
            let memoized = Engine::with_cpu_scale(&fabric, scale);
            let cold = memoized.run(&acts, 0.01, 0.06);
            let warmed = Engine::with_cpu_scale(&fabric, scale).with_solver(shared);
            let warm = warmed.run(&acts, 0.01, 0.06);
            shared = warmed.into_solver();
            // Identical measurements, bit-for-bit, whatever ran before.
            prop_assert_eq!(measured_bits(&cold), measured_bits(&uncached));
            prop_assert_eq!(measured_bits(&warm), measured_bits(&uncached));
            // The uncached engine never consults the memo; the memoized
            // one never does more solver work than it.
            prop_assert_eq!(uncached.stats.cache_hits, 0);
            prop_assert!(cold.stats.invocations <= uncached.stats.invocations);
            // Repeating the run on the memoized engine is answered from
            // the memo alone and still matches.
            let again = memoized.run(&acts, 0.01, 0.06);
            prop_assert_eq!(again.stats.invocations, 0);
            prop_assert_eq!(&cold, &again);
        }
    }

    #[test]
    fn world_transfer_times_scale_with_message_size(
        mb in 1u64..64,
        cores in 0usize..10,
    ) {
        let platform = platforms::henri();
        let mut w = World::pair(&platform);
        if cores > 0 {
            w.start_compute(0, NumaId::new(0), cores, 32 << 30).unwrap();
        }
        let small = w.irecv(0, 1, NumaId::new(0), 1 << 20, Tag(1)).unwrap();
        w.isend(1, 0, NumaId::new(0), 1 << 20, Tag(1)).unwrap();
        let t_small = w.wait(small).unwrap();
        let big = w.irecv(0, 1, NumaId::new(0), mb << 20, Tag(2)).unwrap();
        w.isend(1, 0, NumaId::new(0), mb << 20, Tag(2)).unwrap();
        let t_big = w.wait(big).unwrap() - t_small;
        // A bigger message never transfers faster than a 1 MiB one.
        prop_assert!(t_big + 1e-9 >= (t_small) * 0.9 || mb == 1);
        prop_assert!(t_big > 0.0);
    }

    #[test]
    fn world_clock_is_monotone_under_random_program(
        ops in proptest::collection::vec(0u8..3, 1..12),
    ) {
        let platform = platforms::occigen();
        let mut w = World::pair(&platform);
        let mut last = 0.0f64;
        let mut tag = 0u32;
        for op in ops {
            match op {
                0 => {
                    let r = w.irecv(0, 1, NumaId::new(0), 4 << 20, Tag(tag)).unwrap();
                    w.isend(1, 0, NumaId::new(0), 4 << 20, Tag(tag)).unwrap();
                    let t = w.wait(r).unwrap();
                    prop_assert!(t + 1e-12 >= last);
                    last = t;
                    tag += 1;
                }
                1 => {
                    let j = w.start_compute(0, NumaId::new(0), 2, 64 << 20).unwrap();
                    let t = w.wait_job(j).unwrap();
                    prop_assert!(t + 1e-12 >= last);
                    last = t;
                }
                _ => {
                    w.advance_by(1e-4);
                    prop_assert!(w.now() + 1e-12 >= last);
                    last = w.now();
                }
            }
        }
    }
}
