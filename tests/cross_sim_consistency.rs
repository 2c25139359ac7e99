//! Cross-simulator consistency: the three execution paths that move bytes
//! through the same fabric — the analytic solver, the discrete-event
//! engine, and the request-level MPI world — must agree on steady-state
//! bandwidths.

use memory_contention::membench::CommPattern;
use memory_contention::memsim::{Activity, Engine, Fabric, StreamSpec};
use memory_contention::netsim::NicModel;
use memory_contention::prelude::*;

const MB64: u64 = 64 << 20;

/// Receive time of one 64 MiB message in the MPI world while `cores` cores
/// stream to `comp_numa` on the receiver.
fn mpi_receive_time(
    platform: &Platform,
    cores: usize,
    comp_numa: NumaId,
    comm_numa: NumaId,
) -> f64 {
    let mut world = World::pair(platform);
    if cores > 0 {
        world
            .start_compute(0, comp_numa, cores, 64 << 30)
            .expect("background compute");
    }
    let recv = world
        .irecv(0, 1, comm_numa, MB64, Tag(0))
        .expect("post recv");
    world
        .isend(1, 0, comm_numa, MB64, Tag(0))
        .expect("post send");
    let start = world.now();
    world.wait(recv).expect("message arrives") - start
}

#[test]
fn mpi_world_matches_solver_rates_under_contention() {
    let platform = platforms::henri();
    let fabric = Fabric::new(&platform);
    for &cores in &[0usize, 8, 17] {
        let streams = Fabric::benchmark_streams(cores, Some(NumaId::new(0)), Some(NumaId::new(0)));
        let solved = fabric.solve(&streams);
        let dma_rate = solved.dma_total(&streams); // GB/s

        let t = mpi_receive_time(&platform, cores, NumaId::new(0), NumaId::new(0));
        let observed = MB64 as f64 / t / 1e9;
        let rel = (observed - dma_rate).abs() / dma_rate;
        assert!(
            rel < 0.05,
            "cores={cores}: mpi {observed:.2} GB/s vs solver {dma_rate:.2} GB/s"
        );
    }
}

#[test]
fn engine_matches_solver_in_steady_state() {
    let platform = platforms::dahu();
    let fabric = Fabric::new(&platform);
    let nic = NicModel::new(&fabric);
    for &cores in &[1usize, 10, 15] {
        let streams = Fabric::benchmark_streams(cores, Some(NumaId::new(0)), Some(NumaId::new(0)));
        let solved = fabric.solve(&streams);

        let mut acts: Vec<_> = (0..cores)
            .map(|i| Activity {
                spec: StreamSpec::CpuWrite {
                    numa: NumaId::new(0),
                },
                unit_bytes: 256e6,
                lead: 0.0,
                tail: 2e-6,
                start: i as f64 * 1.1e-5,
            })
            .collect();
        let recv = StreamSpec::DmaRecv {
            numa: NumaId::new(0),
        };
        acts.push(nic.activity(recv, MB64, 0.0));
        let report = Engine::new(&fabric).run(&acts, 0.05, 0.35);

        let comp_engine = report.compute_bandwidth(&acts);
        let comp_solver = solved.cpu_total(&streams);
        assert!(
            (comp_engine - comp_solver).abs() / comp_solver < 0.03,
            "cores={cores}: engine {comp_engine:.2} vs solver {comp_solver:.2}"
        );
        let comm_engine = report.comm_bandwidth(&acts);
        let comm_solver = solved.dma_total(&streams);
        assert!(
            (comm_engine - comm_solver).abs() / comm_solver < 0.06,
            "cores={cores}: engine {comm_engine:.2} vs solver {comm_solver:.2}"
        );
    }
}

/// Every communication pattern, so both backends read a pattern's DMA
/// streams alike: one receive, one send, or both at once.
#[test]
fn membench_backends_agree_across_a_whole_placement() {
    let platform = platforms::occigen();
    for pattern in [
        CommPattern::RecvOnly,
        CommPattern::SendOnly,
        CommPattern::PingPong,
    ] {
        let exact_analytic =
            BenchRunner::new(&platform, BenchConfig::exact().with_pattern(pattern));
        let mut ed = BenchConfig::event_driven().with_pattern(pattern);
        ed.noisy = false;
        let exact_event = BenchRunner::new(&platform, ed);
        let a = exact_analytic.run_placement(NumaId::new(0), NumaId::new(0));
        let e = exact_event.run_placement(NumaId::new(0), NumaId::new(0));
        for (pa, pe) in a.points.iter().zip(&e.points) {
            assert!(
                (pa.comp_par - pe.comp_par).abs() / pa.comp_par < 0.04,
                "{pattern:?} n={}: {} vs {}",
                pa.n_cores,
                pa.comp_par,
                pe.comp_par
            );
            assert!(
                (pa.comm_par - pe.comm_par).abs() / pa.comm_par < 0.06,
                "{pattern:?} n={}: {} vs {}",
                pa.n_cores,
                pa.comm_par,
                pe.comm_par
            );
        }
    }
}

#[test]
fn overlap_beats_sequential_in_the_mpi_world() {
    // Overlap must save time on every platform (that is why applications
    // do it), even where contention bites.
    for platform in platforms::all() {
        let numa = NumaId::new(0);
        let cores = platform.max_compute_cores();
        let per_core: u64 = 256 << 20;

        // Sequential: compute, then receive.
        let mut w = World::pair(&platform);
        let job = w.start_compute(0, numa, cores, per_core).expect("compute");
        w.wait_job(job).expect("compute done");
        let r = w.irecv(0, 1, numa, MB64, Tag(0)).expect("recv");
        w.isend(1, 0, numa, MB64, Tag(0)).expect("send");
        w.wait(r).expect("received");
        let sequential = w.now();

        // Overlapped.
        let mut w = World::pair(&platform);
        let r = w.irecv(0, 1, numa, MB64, Tag(0)).expect("recv");
        w.isend(1, 0, numa, MB64, Tag(0)).expect("send");
        let job = w.start_compute(0, numa, cores, per_core).expect("compute");
        w.wait_job(job).expect("compute done");
        w.wait(r).expect("received");
        let overlapped = w.now();

        assert!(
            overlapped < sequential,
            "{}: overlap {overlapped:.4} s not faster than sequential {sequential:.4} s",
            platform.name()
        );
    }
}
