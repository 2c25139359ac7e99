//! The benchmark runner: measures one placement configuration.
//!
//! For every core count `n` the paper's program executes three phases —
//! computations alone, communications alone, both in parallel — with the
//! computation buffers bound to `m_comp` and the communication buffers to
//! `m_comm`. The runner reproduces the three phases against the simulated
//! platform, through either the analytic solver or full event-driven runs,
//! and applies the platform's deterministic measurement noise.

use std::cell::RefCell;
use std::hash::Hash;
use std::sync::Arc;

use mc_memsim::delta::DeltaSolver;
use mc_memsim::engine::{Activity, ActivityKind, Engine, SolverStats};
use mc_memsim::fabric::{Fabric, StreamSpec};
use mc_memsim::fxhash::FxMap;
use mc_memsim::noise::Noise;
use mc_netsim::nic_model::NicModel;
use mc_topology::{NumaId, Platform};

use crate::config::{Backend, BenchConfig};
use crate::record::{PlacementSweep, SweepPoint};

/// Phase tags for the stateless noise source.
mod phase {
    pub const COMP_ALONE: u64 = 1;
    pub const COMM_ALONE: u64 = 2;
    pub const PAR_COMP: u64 = 3;
    pub const PAR_COMM: u64 = 4;
}

/// Measures bandwidths on one simulated platform.
///
/// The runner keeps one [`DeltaSolver`] for its lifetime: every engine
/// run it performs (any phase, any core count and CPU demand scale) runs
/// on it, so a placement sweep re-solves each distinct machine state only
/// once. It likewise keeps the raw (pre-noise) result of every alone
/// phase it has simulated, so each distinct alone phase runs once; noise
/// is stateless and applied afterwards, so reuse changes no value.
#[derive(Debug, Clone)]
pub struct BenchRunner {
    platform: Arc<Platform>,
    fabric: Fabric,
    nic: NicModel,
    config: BenchConfig,
    noise: Noise,
    solver: RefCell<DeltaSolver>,
    /// Raw computations-alone bandwidths by `(n, m_comp)`.
    comp_alone_raw: RefCell<FxMap<(usize, NumaId), f64>>,
    /// Raw communications-alone bandwidths by `m_comm`.
    comm_alone_raw: RefCell<FxMap<NumaId, f64>>,
}

impl BenchRunner {
    /// Create a runner for a platform with the given configuration
    /// (clones the platform once; use [`BenchRunner::from_arc`] to share
    /// an existing handle).
    pub fn new(platform: &Platform, config: BenchConfig) -> Self {
        Self::from_arc(Arc::new(platform.clone()), config)
    }

    /// Create a runner around a shared platform without cloning it — the
    /// runner and its fabric both hold the same [`Arc`].
    pub fn from_arc(platform: Arc<Platform>, config: BenchConfig) -> Self {
        let fabric = Fabric::from_arc(Arc::clone(&platform));
        let nic = NicModel::new(&fabric);
        let noise = Noise::new(platform.behavior.noise.seed);
        BenchRunner {
            platform,
            fabric,
            nic,
            config,
            noise,
            solver: RefCell::new(DeltaSolver::new()),
            comp_alone_raw: RefCell::default(),
            comm_alone_raw: RefCell::default(),
        }
    }

    /// The platform under measurement.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Cumulative solver counters over every engine run this runner has
    /// performed (how many solves actually ran vs were answered from the
    /// memoization cache).
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.borrow().stats().into()
    }

    /// The benchmark configuration.
    pub fn config(&self) -> &BenchConfig {
        &self.config
    }

    /// Effective CPU demand scale for `n` computing cores: the kernel's
    /// traffic factor, reduced by the LLC hit ratio when the kernel is
    /// cacheable and a cache model is configured.
    fn cpu_scale(&self, n: usize) -> f64 {
        let kernel = &self.config.kernel;
        let mut scale = kernel.traffic_scale;
        if !kernel.bypasses_llc {
            if let Some(llc) = self.config.llc {
                scale *= llc.miss_ratio(n, self.config.bytes_per_pass as f64);
            }
        }
        scale.max(1e-3)
    }

    /// The DMA streams of the configured communication pattern.
    fn comm_streams(&self, m_comm: NumaId) -> Vec<StreamSpec> {
        self.config.comm_pattern.streams(m_comm)
    }

    fn jitter(&self, value: f64, sigma: f64, tags: [u64; 4]) -> f64 {
        if !self.config.noisy {
            return value;
        }
        value * self.noise.multiplier(sigma, &tags)
    }

    /// The raw result memoized under `key`, or `simulate()`'s, which is
    /// then memoized. A reuse is counted as `sweep.alone_reused`.
    fn alone_raw<K: Hash + Eq>(
        &self,
        memo: &RefCell<FxMap<K, f64>>,
        key: K,
        simulate: impl FnOnce() -> f64,
    ) -> f64 {
        if let Some(&raw) = memo.borrow().get(&key) {
            if let Some(rec) = mc_obs::recorder() {
                let tags = [("platform", mc_obs::TagValue::Str(self.platform.name()))];
                rec.add("sweep.alone_reused", &tags, 1);
            }
            return raw;
        }
        let raw = simulate();
        memo.borrow_mut().insert(key, raw);
        raw
    }

    /// Computations-alone bandwidth for `n` cores writing to `m_comp`.
    /// The phase does not depend on where communications go, so it is
    /// simulated once per `(n, m_comp)`.
    pub fn comp_alone(&self, n: usize, m_comp: NumaId) -> f64 {
        let raw = self.alone_raw(&self.comp_alone_raw, (n, m_comp), || {
            match self.config.backend {
                Backend::Analytic => {
                    let streams = Fabric::benchmark_streams(n, Some(m_comp), None);
                    self.fabric
                        .solve_with(&streams, self.cpu_scale(n))
                        .cpu_total(&streams)
                }
                Backend::EventDriven => {
                    let acts = self.compute_activities(n, m_comp);
                    let report = self.engine_run(&acts, n);
                    report.compute_bandwidth(&acts)
                }
            }
        });
        self.jitter(
            raw,
            self.platform.behavior.noise.compute_sigma,
            [phase::COMP_ALONE, m_comp.0 as u64, 0, n as u64],
        )
    }

    /// Communications-alone bandwidth into `m_comm`. No core computes in
    /// this phase, so it is simulated once per `m_comm`. `n` only tags
    /// the noise sample: the paper measures the phase once per core
    /// count, and each measurement draws its own noise.
    pub fn comm_alone(&self, n: usize, m_comm: NumaId) -> f64 {
        let raw = self.alone_raw(&self.comm_alone_raw, m_comm, || match self.config.backend {
            Backend::Analytic => {
                let streams = self.comm_streams(m_comm);
                let solved = self.fabric.solve(&streams);
                let per_flow = solved.dma_total(&streams) / streams.len() as f64;
                self.observed_comm(per_flow)
            }
            Backend::EventDriven => {
                let acts = self.comm_activities(m_comm);
                let report = self.engine_run(&acts, 0);
                report.comm_bandwidth(&acts) / acts.len() as f64
            }
        });
        self.jitter(
            raw,
            self.platform.behavior.noise.comm_sigma,
            [phase::COMM_ALONE, 0, m_comm.0 as u64, n as u64],
        )
    }

    /// Parallel phase: `(compute bandwidth, communication bandwidth)` for
    /// `n` cores on `m_comp` with the NIC receiving into `m_comm`.
    pub fn parallel(&self, n: usize, m_comp: NumaId, m_comm: NumaId) -> (f64, f64) {
        let (comp_raw, comm_raw) = match self.config.backend {
            Backend::Analytic => {
                let mut streams = Fabric::benchmark_streams(n, Some(m_comp), None);
                let comm_streams = self.comm_streams(m_comm);
                let n_comm = comm_streams.len();
                streams.extend(comm_streams);
                let solved = self.fabric.solve_with(&streams, self.cpu_scale(n));
                let comp = solved.cpu_total(&streams);
                let per_flow = solved.dma_total(&streams) / n_comm as f64;
                (comp, self.observed_comm(per_flow))
            }
            Backend::EventDriven => {
                let mut acts = self.compute_activities(n, m_comp);
                let comm_acts = self.comm_activities(m_comm);
                let n_comm = comm_acts.len();
                acts.extend(comm_acts);
                let report = self.engine_run(&acts, n);
                (
                    report.compute_bandwidth(&acts),
                    report.comm_bandwidth(&acts) / n_comm as f64,
                )
            }
        };
        let comp = self.jitter(
            comp_raw,
            self.platform.behavior.noise.compute_sigma,
            [phase::PAR_COMP, m_comp.0 as u64, m_comm.0 as u64, n as u64],
        );
        let comm = self.jitter(
            comm_raw,
            self.platform.behavior.noise.comm_sigma,
            [phase::PAR_COMM, m_comp.0 as u64, m_comm.0 as u64, n as u64],
        );
        (comp, comm)
    }

    /// Full sweep over `1..=max_compute_cores` for one placement.
    pub fn run_placement(&self, m_comp: NumaId, m_comm: NumaId) -> PlacementSweep {
        let points = (1..=self.platform.max_compute_cores())
            .map(|n| self.measure_point(n, m_comp, m_comm))
            .collect();
        PlacementSweep {
            m_comp,
            m_comm,
            points,
        }
    }

    /// One core count, all three phases.
    pub fn measure_point(&self, n: usize, m_comp: NumaId, m_comm: NumaId) -> SweepPoint {
        // Skip the Instant entirely when observability is off so the hot
        // sweep loop pays only one atomic load per point.
        let t0 = mc_obs::enabled().then(std::time::Instant::now);
        let comp_alone = self.comp_alone(n, m_comp);
        let comm_alone = self.comm_alone(n, m_comm);
        let (comp_par, comm_par) = self.parallel(n, m_comp, m_comm);
        if let (Some(t0), Some(rec)) = (t0, mc_obs::recorder()) {
            let tags = [
                ("platform", mc_obs::TagValue::Str(self.platform.name())),
                ("m_comp", mc_obs::TagValue::U64(m_comp.0 as u64)),
                ("m_comm", mc_obs::TagValue::U64(m_comm.0 as u64)),
            ];
            rec.add("sweep.points", &tags, 1);
            rec.observe("sweep.point_seconds", &tags, t0.elapsed().as_secs_f64());
        }
        SweepPoint {
            n_cores: n,
            comp_alone,
            comm_alone,
            comp_par,
            comm_par,
        }
    }

    /// Fold protocol overheads into a DMA payload rate: the benchmark
    /// reports "message size over the necessary time to receive data",
    /// which includes the rendezvous handshake.
    fn observed_comm(&self, payload_rate: f64) -> f64 {
        if payload_rate <= 0.0 {
            return 0.0;
        }
        self.nic
            .protocol()
            .plan(self.config.msg_bytes)
            .observed_bandwidth(payload_rate)
    }

    fn compute_activities(&self, n: usize, m_comp: NumaId) -> Vec<Activity> {
        (0..n)
            .map(|i| Activity {
                kind: ActivityKind::Compute {
                    numa: m_comp,
                    bytes_per_pass: self.config.bytes_per_pass as f64,
                    pass_overhead: self.config.pass_overhead,
                },
                // Stagger starts so kernel passes do not stay in lockstep.
                start: i as f64 * 1.3e-5,
            })
            .collect()
    }

    fn comm_activities(&self, m_comm: NumaId) -> Vec<Activity> {
        use crate::kernel::CommPattern;
        let recv = self
            .nic
            .receive_activity(m_comm, self.config.msg_bytes, 0.0);
        let send = self.nic.send_activity(m_comm, self.config.msg_bytes, 0.0);
        match self.config.comm_pattern {
            CommPattern::RecvOnly => vec![recv],
            CommPattern::SendOnly => vec![send],
            CommPattern::PingPong => vec![recv, send],
        }
    }

    fn engine_run(&self, acts: &[Activity], n: usize) -> mc_memsim::engine::RunReport {
        let engine =
            Engine::with_cpu_scale(&self.fabric, self.cpu_scale(n)).with_solver(self.solver.take());
        let report = engine.run(
            acts,
            self.config.warmup,
            self.config.warmup + self.config.window,
        );
        self.solver.replace(engine.into_solver());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_topology::platforms;

    fn n(i: u16) -> NumaId {
        NumaId::new(i)
    }

    #[test]
    fn exact_comp_alone_matches_solver() {
        let p = platforms::henri();
        let r = BenchRunner::new(&p, BenchConfig::exact());
        assert!((r.comp_alone(4, n(0)) - 4.0 * 5.6).abs() < 1e-9);
    }

    #[test]
    fn noisy_measurements_jitter_but_stay_close() {
        let p = platforms::henri();
        let exact = BenchRunner::new(&p, BenchConfig::exact());
        let noisy = BenchRunner::new(&p, BenchConfig::default());
        let e = exact.comp_alone(4, n(0));
        let m = noisy.comp_alone(4, n(0));
        assert_ne!(e, m);
        assert!((m - e).abs() / e < 0.05, "e={e}, m={m}");
    }

    #[test]
    fn noise_is_deterministic() {
        let p = platforms::henri();
        let a = BenchRunner::new(&p, BenchConfig::default()).comp_alone(4, n(0));
        let b = BenchRunner::new(&p, BenchConfig::default()).comp_alone(4, n(0));
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_shows_contention_on_henri_local() {
        let p = platforms::henri();
        let r = BenchRunner::new(&p, BenchConfig::exact());
        let comm_alone = r.comm_alone(17, n(0));
        let (_, comm_par) = r.parallel(17, n(0), n(0));
        assert!(
            comm_par < 0.4 * comm_alone,
            "comm_par={comm_par}, alone={comm_alone}"
        );
    }

    #[test]
    fn placement_sweep_has_all_core_counts() {
        let p = platforms::occigen();
        let r = BenchRunner::new(&p, BenchConfig::exact());
        let sweep = r.run_placement(n(0), n(0));
        assert_eq!(sweep.points.len(), 13);
        assert_eq!(sweep.points[0].n_cores, 1);
        assert_eq!(sweep.max_cores(), 13);
    }

    #[test]
    fn event_driven_close_to_analytic() {
        let p = platforms::henri();
        let exact = BenchRunner::new(&p, BenchConfig::exact());
        let mut ed_cfg = BenchConfig::event_driven();
        ed_cfg.noisy = false;
        let ed = BenchRunner::new(&p, ed_cfg);
        for &nn in &[1usize, 8, 14, 17] {
            let (ca, ma) = exact.parallel(nn, n(0), n(0));
            let (ce, me) = ed.parallel(nn, n(0), n(0));
            assert!(
                (ca - ce).abs() / ca < 0.03,
                "n={nn}: comp analytic {ca} vs event {ce}"
            );
            assert!(
                (ma - me).abs() / ma < 0.05,
                "n={nn}: comm analytic {ma} vs event {me}"
            );
        }
    }

    /// Event-driven, noisy, short measurement window.
    fn short_event_driven(p: &Platform) -> BenchRunner {
        let mut cfg = BenchConfig::event_driven();
        cfg.window = 0.02;
        cfg.warmup = 0.01;
        BenchRunner::new(p, cfg)
    }

    #[test]
    fn comm_alone_runs_once_per_runner() {
        let p = platforms::henri();
        let r = short_event_driven(&p);
        let first = r.comm_alone(1, n(1));
        let stats = r.solver_stats();
        for nn in 2..=17 {
            let reused = r.comm_alone(nn, n(1));
            let fresh = short_event_driven(&p).comm_alone(nn, n(1));
            assert_eq!(reused.to_bits(), fresh.to_bits(), "n={nn}");
            // Noise is still drawn per core count.
            assert_ne!(reused, first, "n={nn}");
            assert_eq!(r.solver_stats(), stats, "n={nn}");
        }
    }

    #[test]
    fn comp_alone_is_the_same_under_every_comm_placement() {
        let p = platforms::henri();
        let r = short_event_driven(&p);
        let a = r.run_placement(n(0), n(0));
        let b = r.run_placement(n(0), n(1));
        // The second placement reused every comp-alone result; a fresh
        // runner simulates them.
        let fresh = short_event_driven(&p).run_placement(n(0), n(1));
        assert_eq!(b.points.len(), 17);
        for ((a, b), f) in a.points.iter().zip(&b.points).zip(&fresh.points) {
            assert_eq!(a.comp_alone.to_bits(), b.comp_alone.to_bits());
            assert_eq!(b, f);
        }
    }

    #[test]
    fn comm_alone_includes_protocol_overhead() {
        let p = platforms::henri();
        let r = BenchRunner::new(&p, BenchConfig::exact());
        let fabric = Fabric::new(&p);
        let demand = fabric.dma_demand(n(0));
        let observed = r.comm_alone(1, n(0));
        assert!(observed < demand);
        assert!(observed > demand * 0.99);
    }
}
