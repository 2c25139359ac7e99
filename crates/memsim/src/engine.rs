//! Flow-level discrete-event engine.
//!
//! Activities (compute kernels, message streams) alternate between timed
//! phases (rendezvous handshake, kernel pass overhead, inter-message gap)
//! and *streaming* phases where they move bytes through the fabric. While
//! streaming, their instantaneous rate comes from the tiered max-min solver
//! ([`crate::fabric::Fabric::solve`]), memoized by a
//! [`DeltaSolver`] over the multiset of streaming activities; rates are
//! re-evaluated at every phase change (an event). Between events all rates
//! are constant, so byte counters integrate exactly.
//!
//! The engine runs all activities repeatedly until a time horizon and
//! reports, per activity, the bytes moved inside a measurement window —
//! exactly how the paper's benchmark derives bandwidths from `memset`
//! durations and message-reception times, but without the noise of partial
//! first/last operations (steady state, §V: "we rather focus on the steady
//! state").

use std::cell::RefCell;

use mc_obs::tags;

use crate::delta::{ActiveSet, DeltaSolver, DeltaStats};
use crate::fabric::{Fabric, StreamId, StreamSpec};

/// One stream of back-to-back units through the fabric: a computing
/// core `memset`ting a buffer pass after pass, or the NIC receiving or
/// sending messages one after another.
///
/// After its start delay the activity cycles through a timed *lead*, a
/// streaming phase that moves `unit_bytes` as `spec`, and a timed
/// *tail*: start delay, lead, stream, tail, lead, stream, … A compute
/// kernel is a CPU write with no lead and its pass overhead as tail; a
/// message stream is a DMA stream with the rendezvous handshake as lead
/// and the inter-message gap as tail (`mc_netsim`'s
/// `NicModel::activity` builds one).
#[derive(Debug, Clone, PartialEq)]
pub struct Activity {
    /// The stream the activity moves while streaming.
    pub spec: StreamSpec,
    /// Bytes moved per unit (kernel pass, message).
    pub unit_bytes: f64,
    /// Timed phase before each unit, seconds (0 for a compute kernel).
    pub lead: f64,
    /// Timed phase after each unit, seconds.
    pub tail: f64,
    /// Simulation time at which the activity starts, seconds.
    pub start: f64,
}

/// Phase of a running activity.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Waiting to start (before `Activity::start`) or in a timed phase
    /// ending at the stored absolute time.
    TimedUntil(f64),
    /// Streaming; bytes left in the current unit.
    Streaming(f64),
}

struct ActState<'a> {
    act: &'a Activity,
    phase: Phase,
    /// Whether the current timed phase is a lead (the start delay and a
    /// tail are not).
    leading: bool,
    /// Bytes streamed inside the measurement window.
    measured_bytes: f64,
    /// Total bytes streamed since t = 0.
    total_bytes: f64,
    /// Completed streaming units (passes / messages).
    units_done: u64,
    /// Index of the activity's [`Group`].
    group: usize,
}

/// The activities of one stream spec. Every stream of a spec gets the
/// same rate, so a group's rate is read once per event, and its next
/// streaming end is that of its member with the fewest bytes left.
struct Group {
    spec: StreamSpec,
    /// The spec's id on the engine's fabric.
    id: StreamId,
    /// Rate of each streaming member this event, GB/s.
    gbps: f64,
    /// The same rate in bytes/s (`gbps * GB`).
    bps: f64,
    /// Whether any member is streaming.
    live: bool,
    /// Fewest bytes left among the streaming members (infinite when none
    /// streams, or when every one streams without end).
    min_left: f64,
}

impl ActState<'_> {
    fn is_streaming(&self) -> bool {
        matches!(self.phase, Phase::Streaming(_))
    }

    /// Enter the next phase after the current one completes: a stream
    /// ends in the tail, a lead in the stream, and the start delay or a
    /// tail in the next lead.
    fn advance(&mut self, now: f64) {
        match self.phase {
            Phase::Streaming(_) => {
                self.units_done += 1;
                self.phase = Phase::TimedUntil(now + self.act.tail);
                self.leading = false;
            }
            Phase::TimedUntil(_) if self.leading => {
                self.phase = Phase::Streaming(self.act.unit_bytes);
            }
            Phase::TimedUntil(_) => {
                self.phase = Phase::TimedUntil(now + self.act.lead);
                self.leading = true;
            }
        }
    }

    /// Advance through every phase that has already ended at `now`: a
    /// spent streaming unit, then any zero-length timed phases after it.
    /// [`Engine::run`] rejects the zero-length cycles that would spin here.
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

/// Panic on a negative (or NaN) duration, or on a cycle that moves at
/// most one byte with no timed phase: the engine would never leave it.
fn check_activity(a: &Activity) {
    assert!(a.lead >= 0.0 && a.tail >= 0.0, "negative duration in {a:?}");
    assert!(
        a.unit_bytes > 1.0 || a.lead + a.tail > EPS,
        "zero-length cycle in {a:?}"
    );
}

/// Result for one activity after a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityReport {
    /// Bytes streamed inside the measurement window.
    pub measured_bytes: f64,
    /// Average bandwidth over the measurement window, GB/s.
    pub bandwidth: f64,
    /// Bytes streamed since simulation start.
    pub total_bytes: f64,
    /// Streaming units (kernel passes / messages) completed.
    pub units_done: u64,
}

/// Counters of solver work: actual progressive-filling runs vs solves
/// answered from the memoization cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Times the tiered max-min solver actually ran.
    pub invocations: u64,
    /// Times a solve was answered from the cache without running the
    /// solver.
    pub cache_hits: u64,
}

impl From<DeltaStats> for SolverStats {
    fn from(d: DeltaStats) -> Self {
        SolverStats {
            invocations: d.full_solves,
            cache_hits: d.reuse_hits + d.state_hits,
        }
    }
}

/// Result of an engine run.
///
/// `PartialEq` deliberately ignores [`RunReport::stats`]: two physically
/// identical runs may split solver work between fresh solves and cache
/// hits differently depending on what ran before them, while everything
/// the run *measured* must still match bit-for-bit.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-activity reports, same order as the input.
    pub activities: Vec<ActivityReport>,
    /// Number of events (rate re-evaluations) during the run.
    pub events: u64,
    /// The measurement window used, seconds.
    pub window: (f64, f64),
    /// Solver work performed during this run.
    pub stats: SolverStats,
}

impl PartialEq for RunReport {
    fn eq(&self, other: &Self) -> bool {
        self.activities == other.activities
            && self.events == other.events
            && self.window == other.window
    }
}

impl RunReport {
    /// Sum of measured bandwidths of all compute activities (by
    /// [`StreamSpec::is_compute`]: CXL pool moves are not compute).
    pub fn compute_bandwidth(&self, activities: &[Activity]) -> f64 {
        self.activities
            .iter()
            .zip(activities)
            .filter(|(_, a)| a.spec.is_compute())
            .map(|(r, _)| r.bandwidth)
            .sum()
    }

    /// Sum of measured bandwidths of all communication activities.
    pub fn comm_bandwidth(&self, activities: &[Activity]) -> f64 {
        self.activities
            .iter()
            .zip(activities)
            .filter(|(_, a)| a.spec.is_dma())
            .map(|(r, _)| r.bandwidth)
            .sum()
    }
}

/// One sample of the bandwidth timeline: the instantaneous rates that
/// held from `t` until the next sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Simulation time of the re-solve, seconds.
    pub t: f64,
    /// Aggregate bandwidth of compute streams, GB/s (by
    /// [`StreamSpec::is_compute`]: CXL pool moves are not compute).
    pub compute: f64,
    /// Aggregate DMA bandwidth, GB/s.
    pub comm: f64,
    /// Number of streaming activities.
    pub active: usize,
}

/// Giga multiplier: rates are GB/s, byte counters are bytes.
const GB: f64 = 1e9;
/// Numerical slack when comparing times/bytes.
const EPS: f64 = 1e-12;

/// The discrete-event engine.
///
/// ```
/// use mc_memsim::engine::{Activity, Engine};
/// use mc_memsim::fabric::{Fabric, StreamSpec};
/// use mc_topology::{platforms, NumaId};
///
/// let platform = platforms::henri();
/// let fabric = Fabric::new(&platform);
/// // A compute kernel: 64 MB passes, 1 µs overhead after each.
/// let acts = vec![Activity {
///     spec: StreamSpec::CpuWrite { numa: NumaId::new(0) },
///     unit_bytes: 64e6,
///     lead: 0.0,
///     tail: 1e-6,
///     start: 0.0,
/// }];
/// let report = Engine::new(&fabric).run(&acts, 0.01, 0.05);
/// // One core writes ~5.6 GB/s on henri.
/// assert!((report.activities[0].bandwidth - 5.6).abs() < 0.1);
/// ```
pub struct Engine<'f> {
    fabric: &'f Fabric,
    cpu_scale: f64,
    memoize: bool,
    solver: RefCell<DeltaSolver>,
}

impl<'f> Engine<'f> {
    /// Create an engine over a fabric (non-temporal `memset` kernels:
    /// unit CPU demand scale).
    pub fn new(fabric: &'f Fabric) -> Self {
        Self::with_cpu_scale(fabric, 1.0)
    }

    /// Create an engine whose compute activities issue `cpu_scale` times
    /// the memory traffic of a non-temporal `memset` kernel.
    pub fn with_cpu_scale(fabric: &'f Fabric, cpu_scale: f64) -> Self {
        assert!(cpu_scale > 0.0, "cpu_scale must be positive");
        Engine {
            fabric,
            cpu_scale,
            memoize: true,
            solver: RefCell::new(DeltaSolver::new()),
        }
    }

    /// Run on `solver` instead of a fresh one, so memoized solves persist
    /// across engines (e.g. one per core count); take it back with
    /// [`Engine::into_solver`]. The solver must only ever be used with
    /// this engine's fabric.
    pub fn with_solver(mut self, solver: DeltaSolver) -> Self {
        self.solver = RefCell::new(solver);
        self
    }

    /// The engine's solver, with every state it memoized.
    pub fn into_solver(self) -> DeltaSolver {
        self.solver.into_inner()
    }

    /// Disable solve memoization: every event runs the solver on the
    /// canonical (sorted) expansion of the streaming multiset. The
    /// reference behaviour memoized runs are property-tested against.
    pub fn uncached(mut self) -> Self {
        self.memoize = false;
        self
    }

    /// Run `activities` repeatedly from t = 0 to `horizon`, measuring
    /// streamed bytes within `[measure_start, horizon]`.
    ///
    /// Panics if `measure_start >= horizon`, any duration is negative, or
    /// an activity's cycle has zero length (at most one byte per unit and
    /// no timed phase).
    pub fn run(&self, activities: &[Activity], measure_start: f64, horizon: f64) -> RunReport {
        self.run_impl(activities, measure_start, horizon, None)
    }

    /// Like [`Engine::run`], additionally recording the bandwidth timeline
    /// (one sample per event) — the raw material of time-series figures.
    pub fn run_traced(
        &self,
        activities: &[Activity],
        measure_start: f64,
        horizon: f64,
    ) -> (RunReport, Vec<TraceSample>) {
        let mut trace = Vec::new();
        let report = self.run_impl(activities, measure_start, horizon, Some(&mut trace));
        (report, trace)
    }

    fn run_impl(
        &self,
        activities: &[Activity],
        measure_start: f64,
        horizon: f64,
        mut trace: Option<&mut Vec<TraceSample>>,
    ) -> RunReport {
        assert!(
            measure_start < horizon,
            "measurement window is empty ({measure_start} >= {horizon})"
        );
        // One group per distinct spec, in id order; each reads its rate
        // from the solution by id.
        let mut groups: Vec<Group> = activities
            .iter()
            .map(|a| Group {
                spec: a.spec,
                id: self.fabric.stream_id(a.spec),
                gbps: 0.0,
                bps: 0.0,
                live: false,
                min_left: f64::INFINITY,
            })
            .collect();
        groups.sort_unstable_by_key(|g| g.id);
        groups.dedup_by_key(|g| g.id);
        let mut states: Vec<ActState<'_>> = activities
            .iter()
            .map(|a| {
                check_activity(a);
                let mut st = ActState {
                    act: a,
                    phase: Phase::TimedUntil(a.start),
                    leading: false,
                    measured_bytes: 0.0,
                    total_bytes: 0.0,
                    units_done: 0,
                    group: groups
                        .binary_search_by_key(&self.fabric.stream_id(a.spec), |g| g.id)
                        .expect("every spec has a group"),
                };
                // An activity starting now moves into its first real phase.
                st.settle(0.0);
                st
            })
            .collect();

        // Multiset of the streaming activities' specs, kept in step with
        // the phase changes at the end of each event; each group's fewest
        // bytes left and the earliest timed end, kept in step with the
        // phases.
        let mut set = ActiveSet::new();
        let mut next_timed = f64::INFINITY;
        for s in &states {
            let g = &mut groups[s.group];
            match s.phase {
                Phase::Streaming(left) => {
                    set.add(g.id);
                    g.live = true;
                    g.min_left = g.min_left.min(left);
                }
                Phase::TimedUntil(t) => next_timed = next_timed.min(t),
            }
        }

        let mut now = 0.0_f64;
        let mut events = 0_u64;
        let solver = &mut *self.solver.borrow_mut();
        let stats_before = SolverStats::from(solver.stats());

        // One walk over the activities per event. The output bits are
        // pinned (`tests/solver_counters.rs`): keep the per-activity
        // arithmetic and the index order of the trace sums.
        while now < horizon - EPS {
            let solution = (!set.is_empty()).then(|| {
                if self.memoize {
                    solver.solve(self.fabric, &mut set, self.cpu_scale)
                } else {
                    solver.solve_uncached(self.fabric, &mut set, self.cpu_scale)
                }
            });
            events += 1;

            // The next event: the horizon, the earliest timed end, or a
            // group's earliest streaming end. Members of a group share
            // the rate R and rounding is monotone, so `now + b / R` is
            // smallest at the smallest `b`. Every timed end is already
            // past `now + EPS` (`settle`).
            let mut next = horizon.min(next_timed);
            if let Some(sol) = &solution {
                for g in groups.iter_mut().filter(|g| g.live) {
                    g.gbps = sol
                        .rate_of(g.id)
                        .expect("a streaming activity's stream is in the active set");
                    g.bps = g.gbps * GB;
                    if g.bps > 0.0 {
                        next = next.min(now + g.min_left / g.bps);
                    }
                }
            }
            if let Some(trace) = trace.as_deref_mut() {
                let (mut compute, mut comm, mut active) = (0.0, 0.0, 0);
                for s in states.iter().filter(|s| s.is_streaming()) {
                    let g = &groups[s.group];
                    if g.spec.is_dma() {
                        comm += g.gbps;
                    } else if g.spec.is_compute() {
                        compute += g.gbps;
                    }
                    active += 1;
                }
                trace.push(TraceSample {
                    t: now,
                    compute,
                    comm,
                    active,
                });
            }
            // Guard against zero-length steps (e.g. all rates zero and no
            // timed phase pending): jump to horizon.
            if next <= now + EPS {
                next = horizon;
            }
            let dt = next - now;

            // The walk: integrate bytes over [now, next], clipped to the
            // measure window, then advance activities whose phase
            // completed, moving their streams in or out of the active
            // set (the set is a multiset, so the order of updates does
            // not matter), and record the next event's candidates.
            let overlap = (next.min(horizon) - now.max(measure_start)).max(0.0);
            now = next;
            next_timed = f64::INFINITY;
            for g in &mut groups {
                g.live = false;
                g.min_left = f64::INFINITY;
            }
            for s in states.iter_mut() {
                let g = &mut groups[s.group];
                let was_streaming = s.is_streaming();
                if let Phase::Streaming(ref mut bytes_left) = s.phase {
                    let moved = g.bps * dt;
                    *bytes_left = (*bytes_left - moved).max(0.0);
                    s.total_bytes += moved;
                    s.measured_bytes += g.bps * overlap;
                }
                // Most activities are mid-phase: test inline, and leave
                // the phase loop to the ones that ended.
                let ended = match s.phase {
                    Phase::Streaming(left) => left <= 1.0,
                    Phase::TimedUntil(t) => t <= now + EPS,
                };
                if ended {
                    s.advance(now);
                    // Zero-length timed phases end where they start.
                    s.settle(now);
                    match (was_streaming, s.is_streaming()) {
                        (false, true) => set.add(g.id),
                        (true, false) => set.remove(g.id),
                        _ => {}
                    }
                }
                match s.phase {
                    Phase::Streaming(left) => {
                        g.live = true;
                        g.min_left = g.min_left.min(left);
                    }
                    Phase::TimedUntil(t) => next_timed = next_timed.min(t),
                }
            }
        }

        let stats_after = SolverStats::from(solver.stats());
        let run_stats = SolverStats {
            invocations: stats_after.invocations - stats_before.invocations,
            cache_hits: stats_after.cache_hits - stats_before.cache_hits,
        };
        // Run-granular observability: one batch of counters per run, so
        // the per-event loop above never touches the recorder and stays
        // allocation-free when observability is off.
        if let Some(rec) = mc_obs::recorder() {
            let tags = [(
                tags::PLATFORM,
                mc_obs::TagValue::Str(self.fabric.platform().name()),
            )];
            rec.add("engine.runs", &tags, 1);
            rec.add("engine.events", &tags, events);
            rec.add("engine.solver_invocations", &tags, run_stats.invocations);
            rec.add("engine.solver_cache_hits", &tags, run_stats.cache_hits);
            rec.observe("engine.horizon_s", &tags, horizon);
        }
        let window = horizon - measure_start;
        RunReport {
            activities: states
                .iter()
                .map(|s| ActivityReport {
                    measured_bytes: s.measured_bytes,
                    bandwidth: s.measured_bytes / window / GB,
                    total_bytes: s.total_bytes,
                    units_done: s.units_done,
                })
                .collect(),
            events,
            window: (measure_start, horizon),
            stats: run_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_topology::{platforms, NumaId};

    fn compute_act(numa: u16, start: f64) -> Activity {
        Activity {
            spec: StreamSpec::CpuWrite {
                numa: NumaId::new(numa),
            },
            unit_bytes: 64e6,
            lead: 0.0,
            tail: 2e-6,
            start,
        }
    }

    fn comm_act(numa: u16) -> Activity {
        Activity {
            spec: StreamSpec::DmaRecv {
                numa: NumaId::new(numa),
            },
            unit_bytes: 64e6 * 1.048_576, // 64 MiB
            lead: 4e-6,
            tail: 1e-6,
            start: 0.0,
        }
    }

    #[test]
    fn single_compute_core_hits_nominal_rate() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let report = Engine::new(&f).run(&[compute_act(0, 0.0)], 0.02, 0.1);
        assert!(
            (report.activities[0].bandwidth - 5.6).abs() < 0.05,
            "{}",
            report.activities[0].bandwidth
        );
        assert!(report.activities[0].units_done > 0);
    }

    #[test]
    fn a_cxl_activity_is_neither_compute_nor_comm_bandwidth() {
        let p = platforms::henri_cxl();
        let f = Fabric::new(&p);
        let cxl = Activity {
            spec: StreamSpec::CxlWrite {
                numa: NumaId::new(0),
                pool: mc_topology::PoolId::new(0),
            },
            unit_bytes: 64e6,
            lead: 0.0,
            tail: 1e-6,
            start: 0.0,
        };
        let acts = [compute_act(0, 0.0), cxl];
        let (report, trace) = Engine::new(&f).run_traced(&acts, 0.02, 0.1);
        assert!(report.activities[1].bandwidth > 0.0);
        assert_eq!(
            report.compute_bandwidth(&acts),
            report.activities[0].bandwidth
        );
        assert_eq!(report.comm_bandwidth(&acts), 0.0);
        // While both stream, a sample's compute is the CPU stream's
        // rate alone, as `SolveResult::cpu_total` sums it.
        let specs = acts.map(|a| a.spec);
        let cpu = f.solve(&specs).cpu_total(&specs);
        let both: Vec<_> = trace.iter().filter(|s| s.active == 2).collect();
        assert!(!both.is_empty());
        for s in both {
            assert!((s.compute - cpu).abs() <= 1e-9 * cpu, "{s:?} vs {cpu}");
            assert_eq!(s.comm, 0.0);
        }
    }

    #[test]
    fn comm_alone_is_slightly_below_wire_demand() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let report = Engine::new(&f).run(&[comm_act(0)], 0.02, 0.2);
        let demand = f.dma_demand(NumaId::new(0));
        let bw = report.activities[0].bandwidth;
        assert!(
            bw < demand,
            "handshake gaps must cost a little: {bw} vs {demand}"
        );
        assert!(bw > demand * 0.98, "but not much: {bw} vs {demand}");
    }

    #[test]
    fn parallel_run_shows_contention() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let mut acts: Vec<Activity> = (0..17).map(|i| compute_act(0, i as f64 * 1e-5)).collect();
        acts.push(comm_act(0));
        let report = Engine::new(&f).run(&acts, 0.05, 0.3);
        let comm_bw = report.comm_bandwidth(&acts);
        let demand = f.dma_demand(NumaId::new(0));
        // With 17 cores the NIC is squeezed to its floor (25 % of demand).
        assert!(
            comm_bw < demand * 0.35,
            "comm {comm_bw} should be near floor {}",
            demand * 0.25
        );
        let comp_bw = report.compute_bandwidth(&acts);
        assert!(
            comp_bw > 60.0,
            "compute should keep most of the bus: {comp_bw}"
        );
    }

    #[test]
    fn compute_scales_with_core_count_until_threshold() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let engine = Engine::new(&f);
        let bw_at = |n: usize| {
            let acts: Vec<Activity> = (0..n).map(|i| compute_act(0, i as f64 * 1e-5)).collect();
            engine.run(&acts, 0.02, 0.2).compute_bandwidth(&acts)
        };
        let b4 = bw_at(4);
        let b8 = bw_at(8);
        assert!((b8 / b4 - 2.0).abs() < 0.05, "b4={b4}, b8={b8}");
    }

    #[test]
    fn staggered_starts_do_not_change_steady_state() {
        let p = platforms::occigen();
        let f = Fabric::new(&p);
        let engine = Engine::new(&f);
        let aligned: Vec<Activity> = (0..8).map(|_| compute_act(0, 0.0)).collect();
        let staggered: Vec<Activity> = (0..8).map(|i| compute_act(0, i as f64 * 3e-5)).collect();
        let a = engine.run(&aligned, 0.05, 0.3).compute_bandwidth(&aligned);
        let b = engine
            .run(&staggered, 0.05, 0.3)
            .compute_bandwidth(&staggered);
        assert!((a - b).abs() / a < 0.01, "a={a}, b={b}");
    }

    #[test]
    #[should_panic(expected = "measurement window is empty")]
    fn empty_window_panics() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        Engine::new(&f).run(&[], 0.2, 0.1);
    }

    #[test]
    fn no_activities_runs_to_horizon() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let r = Engine::new(&f).run(&[], 0.0, 0.1);
        assert!(r.activities.is_empty());
    }

    #[test]
    fn traced_run_matches_untraced_and_records_events() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let mut acts: Vec<Activity> = (0..4).map(|i| compute_act(0, i as f64 * 1e-5)).collect();
        acts.push(comm_act(0));
        let engine = Engine::new(&f);
        let plain = engine.run(&acts, 0.02, 0.1);
        let (traced, trace) = engine.run_traced(&acts, 0.02, 0.1);
        assert_eq!(plain, traced);
        assert_eq!(trace.len() as u64, traced.events);
        // Timeline is time-ordered and rates are physical.
        for w in trace.windows(2) {
            assert!(w[1].t >= w[0].t);
        }
        assert!(trace.iter().any(|s| s.comm > 0.0));
        assert!(trace.iter().any(|s| s.compute > 0.0));
    }

    #[test]
    fn trace_captures_the_rampup() {
        // Staggered starts: the active count must grow over early samples.
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let acts: Vec<Activity> = (0..6).map(|i| compute_act(0, i as f64 * 1e-3)).collect();
        let (_, trace) = Engine::new(&f).run_traced(&acts, 0.01, 0.05);
        let first_active = trace.first().map(|s| s.active).unwrap_or(0);
        let max_active = trace.iter().map(|s| s.active).max().unwrap_or(0);
        assert!(max_active > first_active);
        assert_eq!(max_active, 6);
    }

    #[test]
    fn steady_state_memoization_slashes_solver_invocations() {
        // The steady state revisits a tiny set of machine states, so the
        // solver memo answers almost every event; physical results do not
        // change. (The ≥10× drop is a headline acceptance criterion.)
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let mut acts: Vec<Activity> = (0..17).map(|i| compute_act(0, i as f64 * 1.3e-5)).collect();
        acts.push(comm_act(0));
        let engine = Engine::new(&f);
        let uncached = Engine::new(&f).uncached().run(&acts, 0.05, 0.3);
        let memoized = engine.run(&acts, 0.05, 0.3);
        assert_eq!(memoized, uncached, "memoization must not change results");
        assert_eq!(uncached.stats.cache_hits, 0);
        assert!(
            uncached.stats.invocations >= 10 * memoized.stats.invocations,
            "expected a >= 10x drop: uncached {} vs memoized {}",
            uncached.stats.invocations,
            memoized.stats.invocations
        );
        // A repeat run on the warm engine never invokes the solver.
        let again = engine.run(&acts, 0.05, 0.3);
        assert_eq!(again.stats.invocations, 0);
        assert_eq!(again, uncached);
    }

    #[test]
    fn late_start_activity_streams_less() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let engine = Engine::new(&f);
        let early = engine.run(&[compute_act(0, 0.0)], 0.0, 0.1).activities[0].total_bytes;
        let late = engine.run(&[compute_act(0, 0.05)], 0.0, 0.1).activities[0].total_bytes;
        assert!(late < early * 0.6, "early={early}, late={late}");
    }

    /// Bandwidth and completed units of one activity alone on henri.
    fn lone(act: Activity, measure_start: f64, horizon: f64) -> (f64, u64) {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let report = Engine::new(&f).run(&[act], measure_start, horizon);
        (
            report.activities[0].bandwidth,
            report.activities[0].units_done,
        )
    }

    fn recv(handshake: f64, gap: f64) -> Activity {
        Activity {
            spec: StreamSpec::DmaRecv {
                numa: NumaId::new(0),
            },
            unit_bytes: 64e6,
            lead: handshake,
            tail: gap,
            start: 0.0,
        }
    }

    #[test]
    fn zero_length_timed_phases_do_not_stall() {
        let compute = |pass_overhead| Activity {
            tail: pass_overhead,
            ..compute_act(0, 0.0)
        };
        let cases = [
            (compute(0.0), compute(1e-9), 0.05),
            (recv(0.0, 1e-6), recv(1e-9, 1e-6), 0.2),
            (recv(4e-6, 0.0), recv(4e-6, 1e-9), 0.2),
            (recv(0.0, 0.0), recv(1e-9, 1e-9), 0.2),
        ];
        for (zero, tiny, horizon) in cases {
            let (bw_zero, units) = lone(zero.clone(), 0.01, horizon);
            let (bw_tiny, _) = lone(tiny, 0.01, horizon);
            assert!(units > 1, "{zero:?} completed {units} units");
            assert!(
                (bw_zero - bw_tiny).abs() <= 1e-3 * bw_tiny,
                "{zero:?}: {bw_zero} GB/s vs {bw_tiny} GB/s with 1 ns phases"
            );
        }
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn negative_duration_panics() {
        lone(recv(-1e-6, 1e-6), 0.01, 0.05);
    }

    #[test]
    #[should_panic(expected = "zero-length cycle")]
    fn zero_length_cycle_panics() {
        let act = Activity {
            spec: StreamSpec::DmaSend {
                numa: NumaId::new(0),
            },
            unit_bytes: 1.0,
            ..recv(0.0, 0.0)
        };
        lone(act, 0.01, 0.05);
    }
}
