//! Platform-wide sweeps: every placement combination, optionally measured
//! by a bounded pool of worker threads.
//!
//! The parallel driver schedules individual `(placement, n_cores)` points,
//! not whole placements: placements differ wildly in cost (a 17-core
//! placement sweep solves an order of magnitude more events than a 1-core
//! one), so point-level work stealing load-balances where
//! one-thread-per-placement cannot. Determinism is preserved because the
//! measurement noise is *stateless* (a pure function of `(seed, tags)`,
//! see `mc_memsim::noise`) and every point writes to its own
//! pre-assigned slot — results are bit-identical to the sequential path
//! regardless of which worker measures which point in which order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use mc_obs::tags;
use mc_topology::{NumaId, Platform, SocketId};

use crate::config::BenchConfig;
use crate::record::{PlacementSweep, PlatformSweep, SweepPoint};
use crate::runner::BenchRunner;

/// The two placement configurations used to *instantiate* the model
/// (§IV-A2): both buffers on the first NUMA node of the first socket
/// (local model), and both on the first NUMA node of the second socket
/// (remote model). Returns `((comp, comm) local, (comp, comm) remote)`.
pub fn calibration_placements(platform: &Platform) -> ((NumaId, NumaId), (NumaId, NumaId)) {
    let topo = &platform.topology;
    let local = topo.first_numa_of(SocketId::new(0));
    let remote = topo.first_numa_of(SocketId::new(1));
    ((local, local), (remote, remote))
}

/// Measure the two calibration sweeps of a platform.
pub fn calibration_sweeps(
    platform: &Platform,
    config: BenchConfig,
) -> (PlacementSweep, PlacementSweep) {
    let runner = BenchRunner::new(platform, config);
    let ((lc, lm), (rc, rm)) = calibration_placements(platform);
    (runner.run_placement(lc, lm), runner.run_placement(rc, rm))
}

/// Measure every placement combination of a platform sequentially.
pub fn sweep_platform(platform: &Platform, config: BenchConfig) -> PlatformSweep {
    let _span = mc_obs::span(
        "sweep",
        &[
            (tags::PLATFORM, mc_obs::TagValue::Str(platform.name())),
            (tags::MODE, mc_obs::TagValue::Str("sequential")),
            (
                tags::N_CORES,
                mc_obs::TagValue::U64(platform.max_compute_cores() as u64),
            ),
        ],
    );
    let runner = BenchRunner::new(platform, config);
    let sweeps = platform
        .topology
        .placement_combinations()
        .into_iter()
        .map(|(m_comp, m_comm)| runner.run_placement(m_comp, m_comm))
        .collect();
    PlatformSweep {
        platform: platform.name().to_string(),
        sweeps,
    }
}

/// Measure every placement combination with a bounded pool of workers
/// stealing individual `(placement, n_cores)` points.
///
/// Uses up to [`std::thread::available_parallelism`] workers (capped by
/// the number of points). Results are bit-identical to
/// [`sweep_platform`]: the noise source is stateless and each point lands
/// in its pre-assigned slot, so scheduling order is unobservable.
pub fn sweep_platform_parallel(platform: &Platform, config: BenchConfig) -> PlatformSweep {
    let combos = platform.topology.placement_combinations();
    let max_n = platform.max_compute_cores();
    let total = combos.len() * max_n;
    if total == 0 {
        return PlatformSweep {
            platform: platform.name().to_string(),
            sweeps: Vec::new(),
        };
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(total);
    let _span = mc_obs::span(
        "sweep",
        &[
            (tags::PLATFORM, mc_obs::TagValue::Str(platform.name())),
            (tags::MODE, mc_obs::TagValue::Str("parallel")),
            (tags::N_CORES, mc_obs::TagValue::U64(max_n as u64)),
            (tags::WORKERS, mc_obs::TagValue::U64(workers as u64)),
        ],
    );

    let shared_platform = Arc::new(platform.clone());
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, SweepPoint)>> = Mutex::new(Vec::with_capacity(total));

    std::thread::scope(|s| {
        for _ in 0..workers {
            let next = &next;
            let results = &results;
            let combos = &combos;
            let config = &config;
            let shared_platform = &shared_platform;
            s.spawn(move || {
                // Catch panics inside the worker: an escaped panic would
                // re-raise from the scope join and take the caller down
                // with it. A dead worker instead leaves its points
                // unmeasured, which the caller detects and repairs.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // One runner per worker: its solver memo persists over
                    // all the points this worker measures.
                    let runner = BenchRunner::from_arc(Arc::clone(shared_platform), *config);
                    let mut points_measured = 0_u64;
                    loop {
                        let item = next.fetch_add(1, Ordering::Relaxed);
                        if item >= total {
                            break;
                        }
                        let (combo, n) = (item / max_n, item % max_n + 1);
                        let (m_comp, m_comm) = combos[combo];
                        let point = runner.measure_point(n, m_comp, m_comm);
                        points_measured += 1;
                        // Measurement data is plain-old-data: a mutex
                        // poisoned by some other worker's panic cannot hold
                        // a broken invariant, so recover the Vec and go on.
                        results
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .push((item, point));
                    }
                    // One sample per worker: the spread of this histogram
                    // is the pool's load-balance quality.
                    if let Some(rec) = mc_obs::recorder() {
                        rec.observe(
                            "sweep.worker_points",
                            &[(
                                tags::PLATFORM,
                                mc_obs::TagValue::Str(shared_platform.name()),
                            )],
                            points_measured as f64,
                        );
                    }
                }));
            });
        }
    });

    let mut measured = results
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if measured.len() < total {
        // A worker died before covering its share (it panicked inside a
        // measurement). Degrade gracefully: measure the whole platform
        // sequentially rather than return a truncated sweep.
        if let Some(rec) = mc_obs::recorder() {
            rec.add(
                "sweep.fallback_sequential",
                &[(tags::PLATFORM, mc_obs::TagValue::Str(platform.name()))],
                1,
            );
        }
        return sweep_platform(platform, config);
    }
    measured.sort_unstable_by_key(|&(item, _)| item);
    let mut points = measured.into_iter().map(|(_, point)| point);
    let sweeps = combos
        .iter()
        .map(|&(m_comp, m_comm)| PlacementSweep {
            m_comp,
            m_comm,
            points: points.by_ref().take(max_n).collect(),
        })
        .collect();
    PlatformSweep {
        platform: platform.name().to_string(),
        sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_topology::platforms;

    #[test]
    fn calibration_placements_follow_the_paper() {
        let p = platforms::henri_subnuma();
        let ((lc, lm), (rc, rm)) = calibration_placements(&p);
        // First NUMA node of socket 0 and first of socket 1 (#m = 2 → node 2).
        assert_eq!(lc, NumaId::new(0));
        assert_eq!(lm, NumaId::new(0));
        assert_eq!(rc, NumaId::new(2));
        assert_eq!(rm, NumaId::new(2));
    }

    #[test]
    fn full_sweep_covers_all_placements() {
        let p = platforms::henri();
        let sweep = sweep_platform(&p, BenchConfig::exact());
        assert_eq!(sweep.sweeps.len(), 4);
        let p4 = platforms::henri_subnuma();
        let sweep4 = sweep_platform(&p4, BenchConfig::exact());
        assert_eq!(sweep4.sweeps.len(), 16);
    }

    #[test]
    fn parallel_sweep_equals_sequential() {
        let p = platforms::henri();
        let cfg = BenchConfig::default(); // noisy: exercises determinism too
        let seq = sweep_platform(&p, cfg);
        let par = sweep_platform_parallel(&p, cfg);
        assert_eq!(seq, par);
    }

    #[test]
    fn pooled_sweep_is_deterministic_on_four_numa_platform() {
        // 16 placements × 17 core counts on henri-subnuma: enough points
        // that the pooled scheduler interleaves placements arbitrarily.
        // The stateless noise keeps every point bit-identical to the
        // sequential sweep, and repeated pooled runs agree exactly.
        let p = platforms::henri_subnuma();
        let cfg = BenchConfig::default();
        let seq = sweep_platform(&p, cfg);
        let par1 = sweep_platform_parallel(&p, cfg);
        let par2 = sweep_platform_parallel(&p, cfg);
        assert_eq!(seq, par1);
        assert_eq!(par1, par2);
    }

    #[test]
    fn pooled_sweep_matches_sequential_event_driven() {
        // The event-driven backend exercises the memoized engine inside
        // pooled workers; results must still be bit-identical.
        let p = platforms::henri();
        let mut cfg = BenchConfig::event_driven();
        cfg.window = 0.05;
        cfg.warmup = 0.02;
        let seq = sweep_platform(&p, cfg);
        let par = sweep_platform_parallel(&p, cfg);
        assert_eq!(seq, par);
    }

    #[test]
    fn calibration_sweeps_are_the_diagonal_configs() {
        let p = platforms::henri();
        let (local, remote) = calibration_sweeps(&p, BenchConfig::exact());
        assert_eq!(local.m_comp, local.m_comm);
        assert_eq!(remote.m_comp, remote.m_comm);
        assert_ne!(local.m_comp, remote.m_comp);
    }
}
