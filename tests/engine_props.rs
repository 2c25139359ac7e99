//! Property tests of the discrete-event engine and the MPI world:
//! conservation laws (bytes never exceed rate × time), window accounting,
//! and scheduling invariants under randomised activity mixes.

use proptest::prelude::*;

use memory_contention::memsim::{
    allocate, allocate_into, ActiveSet, Activity, Allocation, DeltaSolver, Engine, Fabric, FlowReq,
    FlowSet, RunReport, SolverScratch, SolverStats, StreamSpec, TraceSample,
};
use memory_contention::prelude::*;

fn compute_activity(numa: u16, bytes_per_pass: f64, start: f64) -> Activity {
    Activity {
        spec: StreamSpec::CpuWrite {
            numa: NumaId::new(numa),
        },
        unit_bytes: bytes_per_pass,
        lead: 0.0,
        tail: 2e-6,
        start,
    }
}

fn comm_activity(numa: u16, msg_bytes: f64) -> Activity {
    Activity {
        spec: StreamSpec::DmaRecv {
            numa: NumaId::new(numa),
        },
        unit_bytes: msg_bytes,
        lead: 3e-6,
        tail: 1e-6,
        start: 0.0,
    }
}

fn send_activity(numa: u16, msg_bytes: f64) -> Activity {
    Activity {
        spec: StreamSpec::DmaSend {
            numa: NumaId::new(numa),
        },
        unit_bytes: msg_bytes,
        lead: 2e-6,
        tail: 1.5e-6,
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

/// The engine's former event loop, two walks per event, kept here as the
/// reference for the one-walk loop: walk 1 takes every streaming
/// activity's rate (a consecutive activity of the same spec reuses the
/// last one), the trace sums and the earliest phase end; walk 2
/// integrates every activity over the step and advances the ones whose
/// phase ended. Its phase rules are the former per-kind ones: a compute
/// activity goes from any timed phase straight to its stream, and a
/// message stream runs handshake, stream, gap.
mod reference {
    use super::*;

    const GB: f64 = 1e9;
    const EPS: f64 = 1e-12;

    #[derive(Clone, Copy)]
    enum Phase {
        TimedUntil(f64),
        Streaming(f64),
    }

    #[derive(Clone, Copy)]
    enum Tag {
        StartDelay,
        Overhead,
        Handshake,
        Gap,
    }

    struct Act {
        act: Activity,
        phase: Phase,
        tag: Tag,
        measured: f64,
        total: f64,
        units: u64,
        rate: f64,
    }

    impl Act {
        fn spec(&self) -> StreamSpec {
            self.act.spec
        }

        fn streaming(&self) -> bool {
            matches!(self.phase, Phase::Streaming(_))
        }

        fn advance(&mut self, now: f64) {
            let a = &self.act;
            match (a.spec.is_dma(), self.phase, self.tag) {
                (false, Phase::TimedUntil(_), _) | (true, Phase::TimedUntil(_), Tag::Handshake) => {
                    self.phase = Phase::Streaming(a.unit_bytes);
                }
                (false, Phase::Streaming(_), _) => {
                    self.units += 1;
                    self.phase = Phase::TimedUntil(now + a.tail);
                    self.tag = Tag::Overhead;
                }
                (true, Phase::Streaming(_), _) => {
                    self.units += 1;
                    self.phase = Phase::TimedUntil(now + a.tail);
                    self.tag = Tag::Gap;
                }
                (true, Phase::TimedUntil(_), _) => {
                    self.phase = Phase::TimedUntil(now + a.lead);
                    self.tag = Tag::Handshake;
                }
            }
        }

        fn settle(&mut self, now: f64) {
            loop {
                match self.phase {
                    Phase::Streaming(left) if left <= 1.0 => self.advance(now),
                    Phase::TimedUntil(t) if t <= now + EPS => self.advance(now),
                    _ => return,
                }
            }
        }
    }

    /// A run's `[measured, total, bandwidth, units]` bits per activity,
    /// its event count, its bandwidth timeline and the solver work it
    /// made `solver` do.
    pub type Run = ((Vec<[u64; 4]>, u64), Vec<TraceSample>, SolverStats);

    pub fn run(
        fabric: &Fabric,
        cpu_scale: f64,
        memoize: bool,
        solver: &mut DeltaSolver,
        activities: &[Activity],
        measure_start: f64,
        horizon: f64,
    ) -> Run {
        let mut acts: Vec<Act> = activities
            .iter()
            .map(|a| {
                let mut act = Act {
                    act: a.clone(),
                    phase: Phase::TimedUntil(a.start),
                    tag: Tag::StartDelay,
                    measured: 0.0,
                    total: 0.0,
                    units: 0,
                    rate: 0.0,
                };
                act.settle(0.0);
                act
            })
            .collect();
        let mut set = ActiveSet::new();
        for a in acts.iter().filter(|a| a.streaming()) {
            set.add(fabric.stream_id(a.spec()));
        }
        let before = solver.stats();
        let (mut now, mut events, mut trace) = (0.0_f64, 0_u64, Vec::new());
        while now < horizon - EPS {
            let solution = (!set.is_empty()).then(|| {
                if memoize {
                    solver.solve(fabric, &mut set, cpu_scale)
                } else {
                    solver.solve_uncached(fabric, &mut set, cpu_scale)
                }
            });
            events += 1;
            let mut next = horizon;
            let (mut compute, mut comm, mut active) = (0.0, 0.0, 0);
            let mut last: Option<(StreamSpec, f64)> = None;
            for a in acts.iter_mut() {
                match a.phase {
                    Phase::Streaming(left) => {
                        let spec = a.spec();
                        a.rate = match last {
                            Some((prev, rate)) if prev == spec => rate,
                            _ => {
                                let id = fabric.stream_id(spec);
                                let rate = solution.as_ref().unwrap().rate_of(id).unwrap();
                                last = Some((spec, rate));
                                rate
                            }
                        };
                        if spec.is_dma() {
                            comm += a.rate;
                        } else {
                            compute += a.rate;
                        }
                        active += 1;
                        let rate = a.rate * GB;
                        if rate > 0.0 {
                            next = next.min(now + left / rate);
                        }
                    }
                    Phase::TimedUntil(t) => {
                        if t > now + EPS {
                            next = next.min(t);
                        }
                    }
                }
            }
            trace.push(TraceSample {
                t: now,
                compute,
                comm,
                active,
            });
            if next <= now + EPS {
                next = horizon;
            }
            let dt = next - now;
            let overlap = (next.min(horizon) - now.max(measure_start)).max(0.0);
            now = next;
            for a in acts.iter_mut() {
                let was_streaming = a.streaming();
                if let Phase::Streaming(ref mut left) = a.phase {
                    let rate = a.rate * GB;
                    let moved = rate * dt;
                    *left = (*left - moved).max(0.0);
                    a.total += moved;
                    a.measured += rate * overlap;
                }
                match a.phase {
                    Phase::Streaming(left) if left <= 1.0 => a.advance(now),
                    Phase::TimedUntil(t) if t <= now + EPS => a.advance(now),
                    _ => continue,
                }
                a.settle(now);
                match (was_streaming, a.streaming()) {
                    (false, true) => set.add(fabric.stream_id(a.spec())),
                    (true, false) => set.remove(fabric.stream_id(a.spec())),
                    _ => {}
                }
            }
        }
        let after = solver.stats();
        let window = horizon - measure_start;
        let bits = acts
            .iter()
            .map(|a| {
                [
                    a.measured.to_bits(),
                    a.total.to_bits(),
                    (a.measured / window / GB).to_bits(),
                    a.units,
                ]
            })
            .collect();
        let stats = SolverStats {
            invocations: after.full_solves - before.full_solves,
            cache_hits: after.reuse_hits + after.state_hits - before.reuse_hits - before.state_hits,
        };
        ((bits, events), trace, stats)
    }
}

/// A timeline's samples as bits.
fn trace_bits(trace: &[TraceSample]) -> Vec<[u64; 4]> {
    trace
        .iter()
        .map(|s| {
            [
                s.t.to_bits(),
                s.compute.to_bits(),
                s.comm.to_bits(),
                s.active as u64,
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one-walk event loop against the two-walk reference, bit for
    /// bit: every measured value, the event count, the solver work and
    /// the whole timeline, memoized and uncached. The mixes put compute
    /// on every NUMA node of the machine, mix receives with sends, start
    /// together or staggered, give some activities zero-length timed
    /// phases, and let some stream without end (infinite bytes, which
    /// the engine accepts).
    #[test]
    fn one_walk_engine_matches_the_two_walk_reference(
        platform_idx in 0usize..6,
        mix in proptest::collection::vec(
            (0u8..3, 0usize..8, 1u64..64, 0u8..3, 0u8..2, 0u8..6),
            1..14,
        ),
        half_scale in 0u8..2,
    ) {
        let platform = platforms::all().swap_remove(platform_idx);
        let fabric = Fabric::new(&platform);
        let numas = platform.topology.numa_count();
        let acts: Vec<Activity> = mix
            .iter()
            .enumerate()
            .map(|(i, &(kind, numa, mb, start, zero, endless))| {
                let numa = NumaId::new((numa % numas) as u16);
                let bytes = if endless == 0 { f64::INFINITY } else { (mb << 18) as f64 };
                let timed = |d: f64| if zero == 1 { 0.0 } else { d };
                let start = match start {
                    0 => 0.0,
                    1 => i as f64 * 1.3e-5,
                    _ => (mb as f64) * 7e-6,
                };
                // A compute kernel (no lead), a receive, a send.
                let (spec, lead, tail) = match kind {
                    0 => (StreamSpec::CpuWrite { numa }, 0.0, timed(2e-6)),
                    1 => (StreamSpec::DmaRecv { numa }, timed(3e-6), timed(1e-6)),
                    _ => (StreamSpec::DmaSend { numa }, timed(2e-6), 0.0),
                };
                Activity { spec, unit_bytes: bytes, lead, tail, start }
            })
            .collect();
        let scale = if half_scale == 1 { 0.5 } else { 1.0 };
        let (measure_start, horizon) = (0.004, 0.02);

        for memoize in [true, false] {
            let mut solver = DeltaSolver::new();
            let (bits, trace, stats) = reference::run(
                &fabric, scale, memoize, &mut solver, &acts, measure_start, horizon,
            );
            let engine = if memoize {
                Engine::with_cpu_scale(&fabric, scale)
            } else {
                Engine::with_cpu_scale(&fabric, scale).uncached()
            };
            let plain = engine.run(&acts, measure_start, horizon);
            prop_assert_eq!(&measured_bits(&plain), &bits);
            prop_assert_eq!(plain.stats, stats);
            // The same engine again, now warm: same bits.
            let (traced, timeline) = engine.run_traced(&acts, measure_start, horizon);
            prop_assert_eq!(&measured_bits(&traced), &bits);
            prop_assert_eq!(trace_bits(&timeline), trace_bits(&trace));
        }
    }

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
            let ceiling = if a.spec.is_dma() {
                fabric.dma_demand(NumaId::new(comm_numa))
            } else {
                5.6
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
