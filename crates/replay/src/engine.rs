//! The replay engine: executes a [`Trace`] on
//! [`mc_mpisim::World::homogeneous`], co-simulating compute jobs and
//! message transfers through the shared memory fabric, and reports the
//! predicted makespan twice — once with contention, once against the
//! *uncontended baseline* where every stream gets the bandwidth it
//! would have alone. The ratio is the whole-program **contention
//! slowdown**.
//!
//! ## Execution model
//!
//! Each rank runs a cursor over its event program. `compute`, `send`
//! and `recv` post asynchronously; `wait` blocks the rank until
//! everything it posted has completed; `collective` blocks until every
//! rank reaches an identical collective, which then runs through the
//! simulator's point-to-point machinery (so concurrently running
//! compute jobs contend with it — the overlap the paper models). When
//! no rank can post, the world advances one simulated event at a time
//! ([`mc_mpisim::World::poll`]); if neither posting nor simulation can
//! progress the trace is declared stuck (a trace bug, reported as
//! invalid data).
//!
//! ## Memory
//!
//! The engine pulls events through the [`EventSource`] cursor
//! abstraction ([`run_source`]), so it never needs the whole trace in
//! memory: [`run_once`]/[`replay`] wrap an in-memory [`Trace`], while
//! [`replay_with`] replays any re-creatable source — a
//! [`crate::stream::TraceReader`] over a file, or a lazy generator —
//! twice (contended, then baseline). Completed requests and jobs are
//! forgotten as they are reaped and world histories are disabled, so
//! simulator state stays proportional to what is *in flight*, not to
//! the events already replayed. [`ReplayConfig::timeline_ranks`] caps
//! how many ranks keep full span timelines; capped ranks still
//! contribute to busy totals and the makespan.

use std::fmt;

use mc_model::ErrorCategory;
use mc_mpisim::collectives;
use mc_mpisim::{
    CommMode, JobId, MpiError, RequestId, RequestStatus, Tag, World, WorldSolverStats,
};
use mc_obs::{tags, TagValue};
use mc_topology::{NumaId, Platform};

use crate::stream::{EventSource, TraceSource};
use crate::trace::{CollectiveOp, EventKind, Trace, TraceError};

/// The event-kind labels, in the fixed order used by reports and
/// metrics.
pub const KINDS: [&str; 5] = ["compute", "send", "recv", "collective", "wait"];

/// Placement and sizing overrides applied while replaying.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Re-home every compute phase's data to this NUMA node.
    pub comp_numa: Option<NumaId>,
    /// Re-home every communication buffer to this NUMA node.
    pub comm_numa: Option<NumaId>,
    /// Replace every compute phase's core count (total bytes are
    /// preserved, split across the new count).
    pub cores: Option<usize>,
    /// Keep full per-rank span timelines only for ranks below this
    /// index (`None` keeps every rank, the default). Capped ranks fold
    /// their spans into the busy totals and makespan as they complete —
    /// essential at thousands of ranks, where storing every span would
    /// defeat the streaming path's bounded memory.
    pub timeline_ranks: Option<usize>,
    /// How matched sends/receives move their payload: classic NIC
    /// messaging (the default) or message-free through the platform's
    /// CXL.mem pool (see [`mc_mpisim::World::set_comm_mode`]).
    pub comm_mode: CommMode,
}

/// One completed interval of one rank's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSpan {
    /// Event kind (`compute`, `send`, `recv`, `collective`, `wait`).
    pub kind: &'static str,
    /// Start time, seconds.
    pub t0: f64,
    /// End time, seconds.
    pub t1: f64,
}

/// The result of replaying a trace once (contended or baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayRun {
    /// Time the last event completed, seconds.
    pub makespan: f64,
    /// Per-rank timelines, each sorted by start time.
    pub timelines: Vec<Vec<EventSpan>>,
    /// Total busy seconds per event kind, in [`KINDS`] order.
    pub busy: [f64; 5],
}

/// A contended run, its uncontended baseline, and the slowdown between
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Number of ranks the trace defines.
    pub ranks: usize,
    /// Total number of trace events replayed.
    pub events: usize,
    /// The run with memory contention simulated.
    pub contended: ReplayRun,
    /// The run with every stream at its alone bandwidth.
    pub baseline: ReplayRun,
    /// `contended.makespan / baseline.makespan` (≥ 1 whenever streams
    /// ever share a fabric).
    pub slowdown: f64,
}

/// Why a replay failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The trace itself is invalid.
    Trace(TraceError),
    /// The simulator rejected an operation (deadlock, truncation, …).
    Mpi(MpiError),
    /// An event names a NUMA node the platform does not have.
    NumaOutOfRange {
        /// The offending node.
        numa: NumaId,
        /// Nodes the platform has.
        count: usize,
    },
    /// Ranks reached collectives that do not agree (or one rank's trace
    /// ended while others are inside a collective).
    CollectiveMismatch {
        /// Simulation time of the mismatch.
        time: f64,
        /// Human-readable detail.
        detail: String,
    },
    /// No rank can post and the simulator has no pending event — the
    /// trace deadlocks (e.g. a `recv` whose `send` never comes).
    Stuck {
        /// Simulation time at which progress stopped.
        time: f64,
    },
}

impl ReplayError {
    /// Coarse failure class: every replay failure is invalid input data
    /// (the CLI maps this to exit code 3).
    pub fn category(&self) -> ErrorCategory {
        ErrorCategory::InvalidData
    }
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "{e}"),
            ReplayError::Mpi(e) => write!(f, "simulation error: {e}"),
            ReplayError::NumaOutOfRange { numa, count } => {
                write!(f, "trace uses {numa}, but the platform has {count} node(s)")
            }
            ReplayError::CollectiveMismatch { time, detail } => {
                write!(f, "collective mismatch at t={time:.6}s: {detail}")
            }
            ReplayError::Stuck { time } => {
                write!(
                    f,
                    "trace makes no progress at t={time:.6}s (deadlocked trace?)"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> Self {
        ReplayError::Trace(e)
    }
}

impl From<MpiError> for ReplayError {
    fn from(e: MpiError) -> Self {
        ReplayError::Mpi(e)
    }
}

fn kind_index(kind: &str) -> usize {
    KINDS.iter().position(|k| *k == kind).expect("known kind")
}

/// What a rank is blocked on.
enum Blocked {
    Wait {
        since: f64,
    },
    Collective {
        since: f64,
        op: CollectiveOp,
        numa: NumaId,
        bytes: u64,
    },
}

/// One rank's replay state.
struct RankState {
    /// The rank's event source is exhausted.
    done: bool,
    blocked: Option<Blocked>,
    /// Posted, not yet reaped: (request, kind, post time).
    reqs: Vec<(RequestId, &'static str, f64)>,
    /// Started, not yet reaped: (job, start time).
    jobs: Vec<(JobId, f64)>,
    spans: Vec<EventSpan>,
    /// `false` when capped out of [`ReplayConfig::timeline_ranks`]:
    /// spans are folded into the accumulators below instead of stored.
    keep_spans: bool,
    busy_acc: [f64; 5],
    end_acc: f64,
}

impl RankState {
    fn new(keep_spans: bool) -> RankState {
        RankState {
            done: false,
            blocked: None,
            reqs: Vec::new(),
            jobs: Vec::new(),
            spans: Vec::new(),
            keep_spans,
            busy_acc: [0.0; 5],
            end_acc: 0.0,
        }
    }

    fn push_span(&mut self, kind: &'static str, t0: f64, t1: f64) {
        if self.keep_spans {
            self.spans.push(EventSpan { kind, t0, t1 });
        } else {
            self.busy_acc[kind_index(kind)] += t1 - t0;
            self.end_acc = self.end_acc.max(t1);
        }
    }
}

fn check_numa(numa: NumaId, count: usize) -> Result<NumaId, ReplayError> {
    if numa.index() < count {
        Ok(numa)
    } else {
        Err(ReplayError::NumaOutOfRange { numa, count })
    }
}

/// Are all of the rank's outstanding point-to-point requests complete?
/// (Compute jobs are allowed to keep running across a collective.)
fn reqs_done(world: &World, st: &RankState) -> Result<bool, ReplayError> {
    for (req, _, _) in &st.reqs {
        match world.status(*req)? {
            RequestStatus::Complete(_) => {}
            RequestStatus::Truncated => return Err(MpiError::Truncated(*req).into()),
            _ => return Ok(false),
        }
    }
    Ok(true)
}

/// Have all of the rank's compute jobs completed?
fn jobs_done(world: &World, st: &RankState) -> Result<bool, ReplayError> {
    for (job, _) in &st.jobs {
        if world.job_status(*job)?.is_none() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Reap every outstanding request and job of `st` into spans; returns
/// the latest completion time (or `floor` if nothing was outstanding).
/// Reaped entities are forgotten so the world's bookkeeping stays
/// bounded by in-flight work.
fn reap(world: &mut World, st: &mut RankState, floor: f64) -> Result<f64, ReplayError> {
    let mut end = floor;
    // Drained in place and put back, so each rank keeps its capacity.
    let mut reqs = std::mem::take(&mut st.reqs);
    for (req, kind, posted) in reqs.drain(..) {
        let t = match world.status(req)? {
            RequestStatus::Complete(t) => t,
            RequestStatus::Truncated => return Err(MpiError::Truncated(req).into()),
            _ => unreachable!("reap called before completion"),
        };
        world.forget_request(req);
        st.push_span(kind, posted, t);
        end = end.max(t);
    }
    st.reqs = reqs;
    let mut jobs = std::mem::take(&mut st.jobs);
    for (job, started) in jobs.drain(..) {
        let t = world
            .job_status(job)?
            .expect("reap called before job completion");
        world.forget_job(job);
        st.push_span("compute", started, t);
        end = end.max(t);
    }
    st.jobs = jobs;
    Ok(end)
}

/// Post events for every unblocked rank and clear satisfied waits.
/// Returns whether anything changed. Consumed events are tallied per
/// kind into `counts` (in [`KINDS`] order).
fn pump<S: EventSource>(
    world: &mut World,
    src: &mut S,
    config: &ReplayConfig,
    states: &mut [RankState],
    numa_count: usize,
    counts: &mut [u64; 5],
) -> Result<bool, ReplayError> {
    let mut progressed = false;
    for (rank, st) in states.iter_mut().enumerate() {
        loop {
            match &st.blocked {
                Some(Blocked::Wait { since }) => {
                    let since = *since;
                    if !(reqs_done(world, st)? && jobs_done(world, st)?) {
                        break;
                    }
                    let end = reap(world, st, since)?;
                    st.push_span("wait", since, end);
                    st.blocked = None;
                    progressed = true;
                }
                Some(Blocked::Collective { .. }) => break,
                None => {}
            }
            if st.done {
                break;
            }
            let Some(ev) = src.peek(rank)? else {
                st.done = true;
                break;
            };
            let now = world.now();
            match ev {
                EventKind::Compute { numa, cores, bytes } => {
                    let numa = check_numa(config.comp_numa.unwrap_or(numa), numa_count)?;
                    let cores = config.cores.unwrap_or(cores).max(1);
                    let per_core = bytes.div_ceil(cores as u64);
                    let job = world.start_compute(rank, numa, cores, per_core)?;
                    st.jobs.push((job, now));
                }
                EventKind::Send {
                    peer,
                    numa,
                    bytes,
                    tag,
                } => {
                    let numa = check_numa(config.comm_numa.unwrap_or(numa), numa_count)?;
                    let req = world.isend(rank, peer, numa, bytes, Tag(tag))?;
                    st.reqs.push((req, "send", now));
                }
                EventKind::Recv {
                    peer,
                    numa,
                    bytes,
                    tag,
                } => {
                    let numa = check_numa(config.comm_numa.unwrap_or(numa), numa_count)?;
                    let req = world.irecv(rank, peer, numa, bytes, Tag(tag))?;
                    st.reqs.push((req, "recv", now));
                }
                EventKind::Collective { op, numa, bytes } => {
                    let numa = check_numa(config.comm_numa.unwrap_or(numa), numa_count)?;
                    st.blocked = Some(Blocked::Collective {
                        since: now,
                        op,
                        numa,
                        bytes,
                    });
                }
                EventKind::Wait => {
                    st.blocked = Some(Blocked::Wait { since: now });
                }
            }
            src.advance(rank);
            counts[kind_index(ev.kind_name())] += 1;
            progressed = true;
        }
    }
    Ok(progressed)
}

/// If every rank still executing its trace has arrived at an identical
/// collective (outstanding point-to-point requests drained), run it.
/// Returns whether a collective ran.
fn try_collective(world: &mut World, states: &mut [RankState]) -> Result<bool, ReplayError> {
    let mut spec: Option<(CollectiveOp, NumaId, u64)> = None;
    let mut arrivals = 0usize;
    let mut finished = 0usize;
    for (rank, st) in states.iter().enumerate() {
        match &st.blocked {
            Some(Blocked::Collective {
                op, numa, bytes, ..
            }) => {
                if !reqs_done(world, st)? {
                    return Ok(false);
                }
                let this = (*op, *numa, *bytes);
                match spec {
                    None => spec = Some(this),
                    Some(prev) if prev == this => {}
                    Some(prev) => {
                        return Err(ReplayError::CollectiveMismatch {
                            time: world.now(),
                            detail: format!(
                                "rank {rank} calls {} on {} ({} bytes) while another rank \
                                 calls {} on {} ({} bytes)",
                                this.0.name(),
                                this.1,
                                this.2,
                                prev.0.name(),
                                prev.1,
                                prev.2
                            ),
                        })
                    }
                }
                arrivals += 1;
            }
            Some(Blocked::Wait { .. }) => return Ok(false),
            None => {
                if st.done {
                    finished += 1;
                } else {
                    return Ok(false);
                }
            }
        }
    }
    let Some((op, numa, bytes)) = spec else {
        return Ok(false);
    };
    if finished > 0 {
        return Err(ReplayError::CollectiveMismatch {
            time: world.now(),
            detail: format!(
                "{arrivals} of {} ranks call {}, the rest already finished their trace",
                states.len(),
                op.name()
            ),
        });
    }
    let t_end = match op {
        CollectiveOp::Barrier => collectives::barrier(world, numa)?,
        CollectiveOp::Allreduce => collectives::allreduce_ring(world, numa, bytes)?,
        CollectiveOp::Allgather => collectives::allgather_ring(world, numa, bytes)?,
        CollectiveOp::Broadcast => collectives::broadcast(world, 0, numa, bytes)?,
    };
    for st in states.iter_mut() {
        if let Some(Blocked::Collective { since, .. }) = st.blocked.take() {
            st.push_span("collective", since, t_end);
        }
    }
    Ok(true)
}

/// One [`run_source`] result: the run plus the events consumed per
/// kind.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceRun {
    /// The completed run.
    pub run: ReplayRun,
    /// Events consumed per kind, in [`KINDS`] order.
    pub counts: [u64; 5],
    /// Solver work the world performed: what a from-scratch
    /// implementation would have solved ([`WorldSolverStats::node_steps`])
    /// versus the full solves the delta path actually ran.
    pub solver: WorldSolverStats,
}

impl SourceRun {
    /// Total events consumed.
    pub fn events(&self) -> usize {
        self.counts.iter().sum::<u64>() as usize
    }
}

/// Replay any [`EventSource`] once on a fresh world — the engine's
/// core. `contended` selects the real simulation or the uncontended
/// baseline (see [`mc_mpisim::World::set_contended`]). Memory stays
/// bounded by in-flight work: histories are off, reaped entities are
/// forgotten, and ranks past [`ReplayConfig::timeline_ranks`] fold
/// their spans into totals instead of storing them.
pub fn run_source<S: EventSource>(
    platform: &Platform,
    src: &mut S,
    config: &ReplayConfig,
    contended: bool,
) -> Result<SourceRun, ReplayError> {
    let ranks = src.ranks();
    if ranks < 2 {
        return Err(TraceError::TooFewRanks(ranks).into());
    }
    let numa_count = platform.topology.numa_count();
    let mut world = World::homogeneous(platform, ranks);
    world.set_comm_mode(config.comm_mode)?;
    world.set_contended(contended);
    world.set_record_history(false);
    let keep = config.timeline_ranks.unwrap_or(usize::MAX);
    let mut states: Vec<RankState> = (0..ranks).map(|r| RankState::new(r < keep)).collect();
    let mut counts = [0u64; 5];

    loop {
        let progressed = pump(
            &mut world,
            src,
            config,
            &mut states,
            numa_count,
            &mut counts,
        )?;
        let all_done = states.iter().all(|st| st.done && st.blocked.is_none());
        if all_done {
            break;
        }
        if try_collective(&mut world, &mut states)? {
            continue;
        }
        if progressed {
            continue;
        }
        if !world.poll() {
            return Err(ReplayError::Stuck { time: world.now() });
        }
    }

    // Final drain: a trace may end with operations still in flight.
    for st in &mut states {
        for (req, kind, posted) in std::mem::take(&mut st.reqs) {
            let t = world.wait(req)?;
            world.forget_request(req);
            st.push_span(kind, posted, t);
        }
        for (job, started) in std::mem::take(&mut st.jobs) {
            let t = world.wait_job(job)?;
            world.forget_job(job);
            st.push_span("compute", started, t);
        }
    }

    let mut makespan = 0.0f64;
    let mut busy = [0.0f64; 5];
    let mut timelines = Vec::new();
    for st in states {
        if st.keep_spans {
            let mut spans = st.spans;
            spans.sort_by(|a, b| {
                a.t0.total_cmp(&b.t0)
                    .then(a.t1.total_cmp(&b.t1))
                    .then(kind_index(a.kind).cmp(&kind_index(b.kind)))
            });
            for s in &spans {
                makespan = makespan.max(s.t1);
                busy[kind_index(s.kind)] += s.t1 - s.t0;
            }
            timelines.push(spans);
        } else {
            makespan = makespan.max(st.end_acc);
            for (total, acc) in busy.iter_mut().zip(st.busy_acc) {
                *total += acc;
            }
        }
    }
    Ok(SourceRun {
        run: ReplayRun {
            makespan,
            timelines,
            busy,
        },
        counts,
        solver: world.solver_stats(),
    })
}

/// Replay `trace` once on a fresh world. `contended` selects the real
/// simulation or the uncontended baseline (see
/// [`mc_mpisim::World::set_contended`]).
pub fn run_once(
    platform: &Platform,
    trace: &Trace,
    config: &ReplayConfig,
    contended: bool,
) -> Result<ReplayRun, ReplayError> {
    trace.validate()?;
    let mut src = TraceSource::new(trace);
    Ok(run_source(platform, &mut src, config, contended)?.run)
}

/// Replay a re-creatable [`EventSource`] twice — contended, then
/// uncontended baseline — and report the whole-program slowdown.
/// `make_source` is called once per pass (a streamed file is re-opened,
/// a lazy generator re-wound), so no pass ever needs the whole trace in
/// memory. Emits the same `replay.*` telemetry as [`replay`], plus
/// `replay.peak_rss_kb` where the platform exposes it.
pub fn replay_with<S, F>(
    platform: &Platform,
    mut make_source: F,
    config: &ReplayConfig,
) -> Result<ReplayOutcome, ReplayError>
where
    S: EventSource,
    F: FnMut() -> Result<S, ReplayError>,
{
    let mut src = make_source()?;
    let ranks = src.ranks();
    let _span = mc_obs::span(
        "replay",
        &[
            (tags::PLATFORM, TagValue::Str(platform.name())),
            (tags::RANKS, TagValue::U64(ranks as u64)),
        ],
    );
    let contended = run_source(platform, &mut src, config, true)?;
    drop(src);
    let mut src = make_source()?;
    if src.ranks() != ranks {
        return Err(ReplayError::Trace(TraceError::Schema {
            line: 1,
            message: format!(
                "source changed between passes: {ranks} ranks, then {}",
                src.ranks()
            ),
        }));
    }
    let baseline = run_source(platform, &mut src, config, false)?;
    let slowdown = if baseline.run.makespan > 0.0 {
        contended.run.makespan / baseline.run.makespan
    } else {
        1.0
    };
    if let Some(rec) = mc_obs::recorder() {
        rec.add("replay.ranks", &[], ranks as u64);
        for (kind, count) in KINDS.iter().zip(contended.counts) {
            if count > 0 {
                rec.add(
                    "replay.events",
                    &[(tags::EVENT, TagValue::Str(kind))],
                    count,
                );
            }
        }
        rec.observe(
            "replay.makespan_seconds",
            &[(tags::PLATFORM, TagValue::Str(platform.name()))],
            contended.run.makespan,
        );
        for (kind, total) in KINDS.iter().zip(contended.run.busy) {
            if total > 0.0 {
                rec.observe(
                    "replay.event_seconds",
                    &[(tags::EVENT, TagValue::Str(kind))],
                    total,
                );
            }
        }
        if let Some(kb) = mc_obs::peak_rss_kb() {
            rec.add("replay.peak_rss_kb", &[], kb);
        }
    }
    Ok(ReplayOutcome {
        ranks,
        events: contended.events(),
        contended: contended.run,
        baseline: baseline.run,
        slowdown,
    })
}

/// Replay `trace` twice — contended, then uncontended baseline — and
/// report the whole-program slowdown. Emits a `replay` span plus
/// `replay.*` counters and histograms when a metrics recorder is
/// installed.
pub fn replay(
    platform: &Platform,
    trace: &Trace,
    config: &ReplayConfig,
) -> Result<ReplayOutcome, ReplayError> {
    trace.validate()?;
    replay_with(platform, || Ok(TraceSource::new(trace)), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{self, GenParams};
    use mc_topology::platforms;

    fn n(i: u16) -> NumaId {
        NumaId::new(i)
    }

    fn cfg() -> ReplayConfig {
        ReplayConfig::default()
    }

    #[test]
    fn replays_every_generated_pattern() {
        let p = platforms::henri();
        for name in generate::names() {
            let trace = generate::by_name(
                name,
                &GenParams {
                    ranks: 4,
                    iters: 2,
                    compute_bytes: 64 << 20,
                    comm_bytes: 4 << 20,
                    ..GenParams::default()
                },
            )
            .unwrap();
            let out = replay(&p, &trace, &cfg()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.contended.makespan > 0.0, "{name}");
            // Allow a 1-ULP-scale accumulation difference between the
            // two runs: contention can never genuinely speed a program
            // up, but the two solve paths sum in different orders.
            assert!(
                out.contended.makespan >= out.baseline.makespan * (1.0 - 1e-9),
                "{name}: contention cannot speed a program up"
            );
            assert!(out.slowdown >= 1.0 - 1e-9, "{name}");
            assert_eq!(out.ranks, 4);
            assert_eq!(out.contended.timelines.len(), 4);
        }
    }

    #[test]
    fn overlap_makes_contended_strictly_slower() {
        // Same-node compute and communication: the halo exchange must
        // contend with the 8-core stream on numa 0.
        let p = platforms::henri();
        let trace = generate::halo2d(&GenParams {
            ranks: 4,
            iters: 2,
            cores: 8,
            compute_bytes: 512 << 20,
            comm_bytes: 32 << 20,
            comp_numa: n(0),
            comm_numa: n(0),
        });
        let out = replay(&p, &trace, &cfg()).unwrap();
        assert!(
            out.slowdown > 1.01,
            "expected visible contention, slowdown={}",
            out.slowdown
        );
    }

    #[test]
    fn replay_is_deterministic_bit_for_bit() {
        let p = platforms::henri();
        let trace = generate::allreduce_step(&GenParams {
            ranks: 4,
            ..GenParams::default()
        });
        let a = replay(&p, &trace, &cfg()).unwrap();
        let b = replay(&p, &trace, &cfg()).unwrap();
        assert_eq!(
            a.contended.makespan.to_bits(),
            b.contended.makespan.to_bits()
        );
        assert_eq!(a.contended.timelines, b.contended.timelines);
        assert_eq!(a.baseline.timelines, b.baseline.timelines);
    }

    #[test]
    fn timelines_are_monotone_and_within_makespan() {
        let p = platforms::henri();
        let trace = generate::pipeline(&GenParams {
            ranks: 3,
            iters: 3,
            ..GenParams::default()
        });
        let out = replay(&p, &trace, &cfg()).unwrap();
        for spans in &out.contended.timelines {
            for s in spans {
                assert!(s.t1 >= s.t0, "{s:?}");
                assert!(s.t1 <= out.contended.makespan + 1e-12);
            }
            for w in spans.windows(2) {
                assert!(w[1].t0 >= w[0].t0);
            }
        }
    }

    #[test]
    fn numa_override_moves_the_traffic() {
        let p = platforms::henri();
        // 12 cores is past henri's contention threshold: DMA into the
        // compute node's memory is throttled, DMA into the other node
        // less so — so re-homing the buffers must change the timeline.
        let base = GenParams {
            ranks: 4,
            cores: 12,
            compute_bytes: 512 << 20,
            comm_bytes: 32 << 20,
            comp_numa: n(0),
            comm_numa: n(0),
            ..GenParams::default()
        };
        let trace = generate::halo2d(&base);
        let same = replay(&p, &trace, &cfg()).unwrap();
        let split = replay(
            &p,
            &trace,
            &ReplayConfig {
                comm_numa: Some(n(1)),
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        // Same trace, different placement, different prediction.
        assert_ne!(
            same.contended.makespan.to_bits(),
            split.contended.makespan.to_bits()
        );
    }

    #[test]
    fn numa_out_of_range_is_reported() {
        let p = platforms::henri(); // 2 NUMA nodes
        let trace = generate::halo2d(&GenParams {
            comp_numa: n(7),
            ..GenParams::default()
        });
        match replay(&p, &trace, &cfg()) {
            Err(ReplayError::NumaOutOfRange { numa, count: 2 }) => {
                assert_eq!(numa, n(7));
            }
            other => panic!("expected NumaOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_collectives_are_detected() {
        use crate::trace::{CollectiveOp, EventKind};
        let trace = Trace {
            events: vec![
                vec![EventKind::Collective {
                    op: CollectiveOp::Barrier,
                    numa: n(0),
                    bytes: 0,
                }],
                vec![EventKind::Collective {
                    op: CollectiveOp::Allreduce,
                    numa: n(0),
                    bytes: 1024,
                }],
            ],
        };
        match replay(&platforms::henri(), &trace, &cfg()) {
            Err(ReplayError::CollectiveMismatch { .. }) => {}
            other => panic!("expected CollectiveMismatch, got {other:?}"),
        }
    }

    #[test]
    fn a_rank_that_quits_early_fails_the_collective() {
        use crate::trace::{CollectiveOp, EventKind};
        let trace = Trace {
            events: vec![
                vec![EventKind::Collective {
                    op: CollectiveOp::Barrier,
                    numa: n(0),
                    bytes: 0,
                }],
                vec![],
            ],
        };
        match replay(&platforms::henri(), &trace, &cfg()) {
            Err(ReplayError::CollectiveMismatch { detail, .. }) => {
                assert!(detail.contains("finished"), "{detail}");
            }
            other => panic!("expected CollectiveMismatch, got {other:?}"),
        }
    }

    #[test]
    fn an_unanswered_recv_is_stuck_not_hung() {
        use crate::trace::EventKind;
        let trace = Trace {
            events: vec![
                vec![
                    EventKind::Recv {
                        peer: 1,
                        numa: n(0),
                        bytes: 1024,
                        tag: 5,
                    },
                    EventKind::Wait,
                ],
                vec![],
            ],
        };
        match replay(&platforms::henri(), &trace, &cfg()) {
            Err(ReplayError::Stuck { .. }) => {}
            other => panic!("expected Stuck, got {other:?}"),
        }
    }

    #[test]
    fn cxl_mode_needs_a_platform_with_a_pool() {
        let trace = generate::halo2d(&GenParams::default());
        let config = ReplayConfig {
            comm_mode: CommMode::Cxl,
            ..ReplayConfig::default()
        };
        match replay(&platforms::henri(), &trace, &config) {
            Err(ReplayError::Mpi(MpiError::NoCxlPool(name))) => assert_eq!(name, "henri"),
            other => panic!("expected NoCxlPool, got {other:?}"),
        }
    }

    #[test]
    fn cxl_mode_wins_the_contended_halo_exchange() {
        // Heavy compute overlapping the halo exchange on the same node:
        // the NIC is floored, the CXL pool streams are not.
        let p = platforms::henri_cxl();
        let params = GenParams {
            ranks: 4,
            iters: 2,
            cores: 17,
            compute_bytes: 1 << 30,
            comm_bytes: 64 << 20,
            comp_numa: n(0),
            comm_numa: n(0),
        };
        let trace = generate::halo2d(&params);
        let messages = replay(&p, &trace, &cfg()).unwrap();
        let cxl = replay(
            &p,
            &trace,
            &ReplayConfig {
                comm_mode: CommMode::Cxl,
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        assert!(
            cxl.contended.makespan < messages.contended.makespan,
            "cxl {} vs messages {}",
            cxl.contended.makespan,
            messages.contended.makespan
        );
        // Both modes still report a genuine contention slowdown.
        assert!(messages.slowdown >= 1.0 - 1e-9);
        assert!(cxl.slowdown >= 1.0 - 1e-9);
    }

    #[test]
    fn messaging_wins_the_uncontended_exchange() {
        // A lone pairwise message with no overlapping compute: the NIC
        // wire (≈ 11.3 GB/s) beats the 6 GB/s pool stream — the other
        // side of the crossover.
        use crate::trace::EventKind;
        let p = platforms::henri_cxl();
        let trace = Trace {
            events: vec![
                vec![
                    EventKind::Recv {
                        peer: 1,
                        numa: n(0),
                        bytes: 64 << 20,
                        tag: 0,
                    },
                    EventKind::Wait,
                ],
                vec![
                    EventKind::Send {
                        peer: 0,
                        numa: n(0),
                        bytes: 64 << 20,
                        tag: 0,
                    },
                    EventKind::Wait,
                ],
            ],
        };
        let messages = replay(&p, &trace, &cfg()).unwrap();
        let cxl = replay(
            &p,
            &trace,
            &ReplayConfig {
                comm_mode: CommMode::Cxl,
                ..ReplayConfig::default()
            },
        )
        .unwrap();
        assert!(
            messages.contended.makespan * 1.5 < cxl.contended.makespan,
            "messages {} vs cxl {}",
            messages.contended.makespan,
            cxl.contended.makespan
        );
    }

    #[test]
    fn busy_seconds_account_for_each_kind() {
        let p = platforms::henri();
        let trace = generate::allreduce_step(&GenParams {
            ranks: 4,
            iters: 1,
            ..GenParams::default()
        });
        let out = replay(&p, &trace, &cfg()).unwrap();
        let busy = out.contended.busy;
        assert!(busy[kind_index("compute")] > 0.0);
        assert!(busy[kind_index("collective")] > 0.0);
        assert!(busy[kind_index("wait")] >= 0.0);
        // No point-to-point events in this pattern.
        assert_eq!(busy[kind_index("send")], 0.0);
        assert_eq!(busy[kind_index("recv")], 0.0);
    }
}
