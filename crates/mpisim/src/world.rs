//! The simulated MPI world: ranks, request matching, and a request-level
//! event loop co-simulating transfers and compute jobs over the memory
//! fabrics of the participating nodes.
//!
//! This is the substitute for MadMPI/NewMadeleine in the paper's setup:
//! non-blocking sends/receives progressed by a dedicated communication
//! core, with large messages moved by rendezvous + RDMA. Each node owns an
//! `mc-memsim` fabric; the instantaneous rate of a transfer is the minimum
//! of what the sender-side and receiver-side fabrics grant its DMA flows,
//! so memory contention on either end slows the wire transfer — exactly the
//! phenomenon the paper models.

use mc_memsim::delta::{ActiveSet, DeltaSolver, DeltaStats};
use mc_memsim::fabric::{Fabric, StreamSpec};
use mc_netsim::protocol::ProtocolConfig;
use mc_topology::{NumaId, Platform, PoolId};

use crate::error::MpiError;
use crate::request::{JobId, Rank, RequestId, RequestStatus, Tag};
use crate::slab::Slab;

/// An unmatched posted operation (send or receive).
#[derive(Debug, Clone)]
struct PendingOp {
    req: RequestId,
    /// Rank that posted the operation.
    rank: Rank,
    /// The other end: destination of a send, source of a receive.
    peer: Rank,
    tag: Tag,
    numa: NumaId,
    bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TransferPhase {
    /// Handshake until the stored absolute time.
    Pre(f64),
    /// Payload streaming; bytes left.
    Streaming(f64),
    /// Wrap-up until the stored absolute time.
    Post(f64),
}

#[derive(Debug, Clone)]
struct Transfer {
    send_req: RequestId,
    recv_req: RequestId,
    history_idx: usize,
    src: Rank,
    dst: Rank,
    src_numa: NumaId,
    dst_numa: NumaId,
    phase: TransferPhase,
    /// While `Streaming`: bytes/s granted in the current step, the
    /// smaller of the two endpoints' rates.
    rate: f64,
    payload: f64,
    post_len: f64,
}

/// A running compute job: `cores` identical streams with `left` bytes
/// to go each.
#[derive(Debug, Clone)]
struct ActiveJob {
    id: JobId,
    rank: Rank,
    numa: NumaId,
    cores: usize,
    left: f64,
    /// Bytes/s per core granted in the current step.
    rate: f64,
    history_idx: usize,
}

/// Sentinel `history_idx` when history recording is off.
const NO_HISTORY: usize = usize::MAX;

/// How matched sends and receives move their payload between ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CommMode {
    /// Classic messaging: rendezvous + RDMA through the NIC, payload
    /// moved by the DMA engines of both endpoints.
    #[default]
    Messages,
    /// Message-free: the sender's cores push the payload into a shared
    /// CXL.mem pool and the receiver's cores pull it out. No NIC, no
    /// rendezvous round trip — but also no DMA arbitration floor, so
    /// the streams take whatever max-min share the memory fabric grants
    /// the CPU class.
    Cxl,
}

/// The per-endpoint streams a transfer occupies: `(sender side,
/// receiver side)` as seen by each endpoint's own fabric.
fn transfer_specs(
    mode: CommMode,
    pool: Option<PoolId>,
    src_numa: NumaId,
    dst_numa: NumaId,
) -> (StreamSpec, StreamSpec) {
    match mode {
        CommMode::Messages => (
            // Sender-side NIC read of the source buffer.
            StreamSpec::DmaRecv { numa: src_numa },
            StreamSpec::DmaRecv { numa: dst_numa },
        ),
        CommMode::Cxl => {
            let pool = pool.expect("CXL comm mode requires a pool (checked in set_comm_mode)");
            (
                StreamSpec::CxlWrite {
                    numa: src_numa,
                    pool,
                },
                StreamSpec::CxlRead {
                    numa: dst_numa,
                    pool,
                },
            )
        }
    }
}

/// A completed (or in-flight) transfer, for post-mortem analysis and
/// Gantt rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRecord {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Payload bytes.
    pub bytes: f64,
    /// Time the send and receive were matched.
    pub matched_at: f64,
    /// Completion time (`None` while in flight).
    pub finished_at: Option<f64>,
}

/// A compute job's execution interval.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Rank the job ran on.
    pub rank: Rank,
    /// Cores used.
    pub cores: usize,
    /// Start time.
    pub started_at: f64,
    /// Completion time (`None` while running).
    pub finished_at: Option<f64>,
}

/// Counters of the world's incremental rate solving — the evidence that
/// the delta solver removes progressive-filling work. A from-scratch
/// solver (the pre-delta implementation) would run the solver once per
/// [`WorldSolverStats::node_steps`]; the delta path ran it only
/// [`DeltaStats::full_solves`] times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldSolverStats {
    /// `(node, step)` rate evaluations of nodes with active streams —
    /// exactly the full solves a non-incremental implementation performs.
    pub node_steps: u64,
    /// What the delta solver actually did (full solves, cache hits).
    pub delta: DeltaStats,
    /// Stream add/remove transitions across all nodes (phase boundaries).
    pub transitions: u64,
}

impl WorldSolverStats {
    /// How many times fewer progressive-filling runs the delta path
    /// performed than a from-scratch solver would have
    /// (`node_steps / full_solves`; `inf` when nothing was solved).
    pub fn reduction(&self) -> f64 {
        if self.delta.full_solves == 0 {
            f64::INFINITY
        } else {
            self.node_steps as f64 / self.delta.full_solves as f64
        }
    }
}

/// The simulated multi-node world.
///
/// All nodes are identical ([`World::homogeneous`]), so one [`Fabric`]
/// and one [`ProtocolConfig`] are shared by every rank, and one
/// [`DeltaSolver`] state cache answers rate queries for all of them —
/// a machine state solved on one node is a cache hit on all others.
pub struct World {
    fabric: Fabric,
    protocol: ProtocolConfig,
    /// How payloads move between ranks (NIC messaging or CXL pool).
    comm_mode: CommMode,
    /// The shared pool used in [`CommMode::Cxl`] (the topology's first),
    /// `None` when the platform declares none.
    cxl_pool: Option<PoolId>,
    n: usize,
    time: f64,
    /// Request and job tables; a `RequestId`/`JobId` is a handle into
    /// its slab. Only point-queried, never iterated, so handle values
    /// cannot reach a result.
    statuses: Slab<RequestStatus>,
    /// Each job's completion time, `None` while it runs.
    jobs: Slab<Option<f64>>,
    /// Jobs still streaming, compacted on completion.
    active_jobs: Vec<ActiveJob>,
    transfers: Vec<Transfer>,
    /// Unmatched operations, one queue per posting rank in post order.
    /// A match scans for the first op naming the right peer, and the
    /// ops of one `(rank, peer)` pair keep their relative order, so
    /// MPI's non-overtaking guarantee holds. Memory is O(ranks + ops
    /// waiting), whatever pairs were ever used.
    pending_sends: Vec<Vec<PendingOp>>,
    pending_recvs: Vec<Vec<PendingOp>>,
    transfer_history: Vec<TransferRecord>,
    job_history: Vec<JobRecord>,
    record_history: bool,
    /// Per-node active stream multisets, updated at phase boundaries.
    node_sets: Vec<ActiveSet>,
    solver: DeltaSolver,
    /// Epoch stamps backing [`WorldSolverStats::node_steps`].
    node_stamp: Vec<u64>,
    epoch: u64,
    node_steps: u64,
    /// When false, every stream is granted the bandwidth it would get
    /// *alone* on its fabric (each stream solved in isolation). This is
    /// the uncontended baseline the replay engine divides by to obtain a
    /// contention-slowdown factor.
    contended: bool,
}

const EPS: f64 = 1e-12;
const GB: f64 = 1e9;

impl World {
    /// Build a world of `n` identical nodes of the given platform
    /// (`n >= 2`).
    pub fn homogeneous(platform: &Platform, n: usize) -> Self {
        assert!(n >= 2, "a world needs at least two nodes");
        let fabric = Fabric::new(platform);
        let protocol = ProtocolConfig::for_tech(platform.topology.nic.tech);
        let cxl_pool = platform.topology.cxl_pools.first().map(|p| p.id);
        World {
            fabric,
            protocol,
            comm_mode: CommMode::default(),
            cxl_pool,
            n,
            time: 0.0,
            statuses: Slab::default(),
            jobs: Slab::default(),
            active_jobs: Vec::new(),
            transfers: Vec::new(),
            pending_sends: vec![Vec::new(); n],
            pending_recvs: vec![Vec::new(); n],
            transfer_history: Vec::new(),
            job_history: Vec::new(),
            record_history: true,
            node_sets: (0..n).map(|_| ActiveSet::new()).collect(),
            solver: DeltaSolver::new(),
            node_stamp: vec![0; n],
            epoch: 0,
            node_steps: 0,
            contended: true,
        }
    }

    /// The classic two-node setup of the paper's benchmark.
    pub fn pair(platform: &Platform) -> Self {
        World::homogeneous(platform, 2)
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Solver work performed so far: what a from-scratch implementation
    /// would have solved versus what the delta solver actually ran.
    pub fn solver_stats(&self) -> WorldSolverStats {
        WorldSolverStats {
            node_steps: self.node_steps,
            delta: self.solver.stats(),
            transitions: self.node_sets.iter().map(ActiveSet::transitions).sum(),
        }
    }

    /// Enable or disable history recording
    /// ([`transfer_history`](World::transfer_history) /
    /// [`job_history`](World::job_history)). On by default; long replays
    /// turn it off so memory stays bounded by the number of *active*
    /// entities instead of growing with every event ever simulated.
    pub fn set_record_history(&mut self, record: bool) {
        self.record_history = record;
    }

    /// Drop a completed (or truncated) request's status so the request
    /// table does not grow with the total number of messages ever sent.
    /// Returns whether the status was dropped (`false` while the request
    /// is still pending or in flight — those must stay tracked). The
    /// handle then answers [`MpiError::UnknownRequest`], even once a
    /// later request reuses its table slot.
    pub fn forget_request(&mut self, req: RequestId) -> bool {
        match self.statuses.get(req.0) {
            Some(status) if status.is_done() => {
                self.statuses.remove(req.0);
                true
            }
            _ => false,
        }
    }

    /// Drop a completed job's state, the compute counterpart of
    /// [`forget_request`](World::forget_request). Returns whether the job
    /// was dropped (`false` while it is still running).
    pub fn forget_job(&mut self, job: JobId) -> bool {
        match self.jobs.get(job.0) {
            Some(Some(_)) => {
                self.jobs.remove(job.0);
                true
            }
            _ => false,
        }
    }

    /// Enable or disable memory/wire contention. With contention off the
    /// world becomes the *uncontended baseline*: each stream progresses
    /// at the bandwidth its fabric would grant it alone, as if every
    /// transfer and every compute job had the machine to itself. Event
    /// ordering and matching semantics are unchanged.
    pub fn set_contended(&mut self, contended: bool) {
        self.contended = contended;
    }

    /// Is contention being simulated (true unless
    /// [`set_contended`](World::set_contended)`(false)` was called)?
    pub fn contended(&self) -> bool {
        self.contended
    }

    /// Select how payloads move between ranks. [`CommMode::Cxl`] lowers
    /// every matched send/receive to a core-issued write/read pair
    /// against the platform's first CXL.mem pool instead of NIC DMA
    /// streams, and replaces the rendezvous protocol with an always-
    /// eager one (the receiver pulls straight from the pool, so there
    /// is no RTS/CTS round trip); the pre/post latency becomes the
    /// pool's access latency. Fails with [`MpiError::NoCxlPool`] when
    /// the platform declares no pool.
    ///
    /// Must be called before any traffic is posted: transfers in flight
    /// keep the stream specs they started with.
    pub fn set_comm_mode(&mut self, mode: CommMode) -> Result<(), MpiError> {
        assert!(
            self.transfers.is_empty(),
            "comm mode must be set before any transfer is matched"
        );
        if mode == CommMode::Cxl && self.cxl_pool.is_none() {
            return Err(MpiError::NoCxlPool(
                self.fabric.platform().topology.name.clone(),
            ));
        }
        self.comm_mode = mode;
        self.protocol = match mode {
            CommMode::Messages => {
                ProtocolConfig::for_tech(self.fabric.platform().topology.nic.tech)
            }
            CommMode::Cxl => {
                let pool = &self.fabric.platform().topology.cxl_pools[0];
                ProtocolConfig {
                    eager_threshold: u64::MAX,
                    sw_overhead: self.protocol.sw_overhead,
                    wire_latency: pool.latency,
                }
            }
        };
        Ok(())
    }

    /// The active communication mode.
    pub fn comm_mode(&self) -> CommMode {
        self.comm_mode
    }

    /// Current simulation time in seconds.
    pub fn now(&self) -> f64 {
        self.time
    }

    /// Every transfer matched so far (completed ones carry their finish
    /// time), in match order.
    pub fn transfer_history(&self) -> &[TransferRecord] {
        &self.transfer_history
    }

    /// Every compute job started so far, in start order.
    pub fn job_history(&self) -> &[JobRecord] {
        &self.job_history
    }

    fn fresh_request(&mut self) -> RequestId {
        RequestId(self.statuses.insert(RequestStatus::Pending))
    }

    fn check_rank(&self, r: Rank) -> Result<(), MpiError> {
        if r < self.size() {
            Ok(())
        } else {
            Err(MpiError::InvalidRank(r))
        }
    }

    /// Post a non-blocking send of `bytes` from `from`'s buffer on
    /// `numa` to rank `to`.
    pub fn isend(
        &mut self,
        from: Rank,
        to: Rank,
        numa: NumaId,
        bytes: u64,
        tag: Tag,
    ) -> Result<RequestId, MpiError> {
        self.check_rank(from)?;
        self.check_rank(to)?;
        if from == to {
            return Err(MpiError::SelfMessage(from));
        }
        let req = self.fresh_request();
        let op = PendingOp {
            req,
            rank: from,
            peer: to,
            tag,
            numa,
            bytes,
        };
        // MPI matching is non-overtaking: match against the earliest
        // compatible receive `to` posted for peer `from`.
        let queue = &mut self.pending_recvs[to];
        if let Some(pos) = queue
            .iter()
            .position(|r| r.peer == from && r.tag.matches(tag))
        {
            let recv = queue.remove(pos);
            self.start_transfer(op, recv);
        } else {
            self.pending_sends[from].push(op);
        }
        Ok(req)
    }

    /// Post a non-blocking receive on rank `on` for a message from `from`
    /// into a buffer of `max_bytes` on `numa`.
    pub fn irecv(
        &mut self,
        on: Rank,
        from: Rank,
        numa: NumaId,
        max_bytes: u64,
        tag: Tag,
    ) -> Result<RequestId, MpiError> {
        self.check_rank(on)?;
        self.check_rank(from)?;
        if on == from {
            return Err(MpiError::SelfMessage(on));
        }
        let req = self.fresh_request();
        let op = PendingOp {
            req,
            rank: on,
            peer: from,
            tag,
            numa,
            bytes: max_bytes,
        };
        let queue = &mut self.pending_sends[from];
        if let Some(pos) = queue
            .iter()
            .position(|s| s.peer == on && tag.matches(s.tag))
        {
            let send = queue.remove(pos);
            self.start_transfer(send, op);
        } else {
            self.pending_recvs[on].push(op);
        }
        Ok(req)
    }

    fn start_transfer(&mut self, send: PendingOp, recv: PendingOp) {
        let reqs = [send.req, recv.req];
        if send.bytes > recv.bytes {
            set_status(&mut self.statuses, reqs, RequestStatus::Truncated);
            return;
        }
        let plan = self.protocol.plan(send.bytes);
        set_status(&mut self.statuses, reqs, RequestStatus::InFlight);
        let history_idx = if self.record_history {
            self.transfer_history.push(TransferRecord {
                src: send.rank,
                dst: recv.rank,
                bytes: send.bytes as f64,
                matched_at: self.time,
                finished_at: None,
            });
            self.transfer_history.len() - 1
        } else {
            NO_HISTORY
        };
        self.transfers.push(Transfer {
            send_req: send.req,
            recv_req: recv.req,
            history_idx,
            src: send.rank,
            dst: recv.rank,
            src_numa: send.numa,
            dst_numa: recv.numa,
            phase: TransferPhase::Pre(self.time + plan.pre_transfer),
            rate: 0.0,
            payload: send.bytes as f64,
            post_len: plan.post_transfer,
        });
    }

    /// Start a compute job: `cores` cores of rank `rank` each streaming
    /// `bytes_per_core` bytes of non-temporal stores to `numa`.
    pub fn start_compute(
        &mut self,
        rank: Rank,
        numa: NumaId,
        cores: usize,
        bytes_per_core: u64,
    ) -> Result<JobId, MpiError> {
        self.check_rank(rank)?;
        assert!(cores > 0, "a compute job needs at least one core");
        let done_at = (bytes_per_core == 0).then_some(self.time);
        let history_idx = if self.record_history {
            self.job_history.push(JobRecord {
                rank,
                cores,
                started_at: self.time,
                finished_at: done_at,
            });
            self.job_history.len() - 1
        } else {
            NO_HISTORY
        };
        let id = JobId(self.jobs.insert(done_at));
        if done_at.is_none() {
            self.active_jobs.push(ActiveJob {
                id,
                rank,
                numa,
                cores,
                left: bytes_per_core as f64,
                rate: 0.0,
                history_idx,
            });
            self.node_sets[rank].add_n(StreamSpec::CpuWrite { numa }, cores);
        }
        Ok(id)
    }

    /// Status of a request.
    pub fn status(&self, req: RequestId) -> Result<RequestStatus, MpiError> {
        self.statuses
            .get(req.0)
            .copied()
            .ok_or(MpiError::UnknownRequest(req))
    }

    /// Non-blocking completion test (makes no progress, like a pure
    /// `MPI_Test` against an already-progressed engine).
    pub fn test(&self, req: RequestId) -> Result<bool, MpiError> {
        Ok(self.status(req)?.is_done())
    }

    /// Advance simulated time until `req` completes; returns the completion
    /// time. Errors on truncation or deadlock.
    pub fn wait(&mut self, req: RequestId) -> Result<f64, MpiError> {
        loop {
            match self.status(req)? {
                RequestStatus::Complete(t) => return Ok(t),
                RequestStatus::Truncated => return Err(MpiError::Truncated(req)),
                _ => {
                    if !self.poll() {
                        return Err(MpiError::Deadlock(req));
                    }
                }
            }
        }
    }

    /// Wait for all the given requests.
    pub fn wait_all(&mut self, reqs: &[RequestId]) -> Result<f64, MpiError> {
        let mut last = self.time;
        for &r in reqs {
            last = last.max(self.wait(r)?);
        }
        Ok(last)
    }

    /// Advance simulated time until job completion; returns that time.
    pub fn wait_job(&mut self, job: JobId) -> Result<f64, MpiError> {
        loop {
            if let Some(t) = self.job_status(job)? {
                return Ok(t);
            }
            if !self.poll() {
                // A compute job can always progress unless its rate is
                // zero, which the fabric never produces for CPU streams
                // with positive demand.
                return Err(MpiError::UnknownJob(job));
            }
        }
    }

    /// Status of a compute job: `Some(t)` once it completed at time `t`,
    /// `None` while it is still running. The non-blocking counterpart of
    /// [`wait_job`](World::wait_job), used by replay engines that must
    /// poll many ranks without committing to a wait order.
    pub fn job_status(&self, job: JobId) -> Result<Option<f64>, MpiError> {
        self.jobs
            .get(job.0)
            .copied()
            .ok_or(MpiError::UnknownJob(job))
    }

    /// Advance simulated time to the next event (a transfer phase change,
    /// a payload draining, a job finishing). Returns false when nothing
    /// can progress — no in-flight transfer and no running job. This is
    /// the finest-grained public progress primitive: callers that
    /// interleave posting with time (the trace replayer) call it in a
    /// loop, re-examining completions after every step.
    pub fn poll(&mut self) -> bool {
        self.step_until(f64::INFINITY)
    }

    /// Advance by `dt` seconds of simulated time, processing events.
    pub fn advance_by(&mut self, dt: f64) {
        let deadline = self.time + dt;
        while self.time < deadline - EPS {
            if !self.step_until(deadline) {
                self.time = deadline;
                break;
            }
        }
    }

    /// The rate one stream of `spec` gets on `node` right now. Contended:
    /// the node's max-min solution, reused until the node's stream set
    /// changes and answered from the shared state cache across nodes.
    /// Baseline: the stream's memoized alone bandwidth.
    fn stream_rate(&mut self, node: Rank, spec: StreamSpec) -> f64 {
        if !self.contended {
            // Baseline mode: each stream solved in isolation gets its
            // alone bandwidth — no sharing anywhere.
            return self.solver.alone_rate(&self.fabric, spec, 1.0);
        }
        if self.node_stamp[node] != self.epoch {
            self.node_stamp[node] = self.epoch;
            self.node_steps += 1;
        }
        let set = &mut self.node_sets[node];
        let rate = match set.solution() {
            Some(solution) => solution.rate_of(spec),
            None => self.solver.solve(&self.fabric, set, 1.0).rate_of(spec),
        };
        rate.expect("an active entity's spec is in its node's stream set")
    }

    /// Advance to the next event (bounded by `deadline`). Returns false if
    /// nothing can progress.
    ///
    /// Two walks over the running jobs and transfers. The first stores
    /// each entity's rate on it and takes the earliest next event; it
    /// reads jobs before transfers and a transfer's receiver before its
    /// sender, the order that decides which solves the state cache
    /// answers. The second integrates each entity up to that event and
    /// applies its transition.
    fn step_until(&mut self, deadline: f64) -> bool {
        if self.transfers.is_empty() && self.active_jobs.is_empty() {
            return false;
        }
        self.epoch += 1;
        let mut next = deadline;
        for i in 0..self.active_jobs.len() {
            let ActiveJob { rank, numa, .. } = self.active_jobs[i];
            // All cores of a job are identical; the rate of one core
            // stands for all of them (equal by max-min symmetry).
            let rate = self.stream_rate(rank, StreamSpec::CpuWrite { numa }) * GB;
            let job = &mut self.active_jobs[i];
            job.rate = rate;
            if rate > 0.0 {
                next = next.min(self.time + job.left / rate);
            }
        }
        for i in 0..self.transfers.len() {
            let tr = &self.transfers[i];
            let bytes = match tr.phase {
                TransferPhase::Pre(t) | TransferPhase::Post(t) => {
                    next = next.min(t);
                    continue;
                }
                TransferPhase::Streaming(bytes) => bytes,
            };
            let (src, dst) = (tr.src, tr.dst);
            let (src_spec, dst_spec) =
                transfer_specs(self.comm_mode, self.cxl_pool, tr.src_numa, tr.dst_numa);
            let rate_in = self.stream_rate(dst, dst_spec);
            let rate_out = self.stream_rate(src, src_spec);
            let rate = rate_in.min(rate_out) * GB;
            self.transfers[i].rate = rate;
            if rate > 0.0 {
                next = next.min(self.time + bytes / rate);
            }
        }
        if !next.is_finite() || next <= self.time + EPS {
            // Either nothing bounded progress, or we are already at the
            // event instant; nudge by processing transitions directly.
            next = (self.time + EPS).max(next.min(deadline));
            if !next.is_finite() {
                return false;
            }
        }
        let dt = next - self.time;
        self.time = next;

        // Each transition edits the affected nodes' stream sets, which
        // invalidates only those nodes' cached solutions — the delta
        // solver re-solves (or cache-hits) exactly where the active
        // multiset changed.
        let now = next;
        let (comm_mode, cxl_pool) = (self.comm_mode, self.cxl_pool);
        let Self {
            statuses,
            jobs,
            active_jobs,
            transfers,
            job_history,
            transfer_history,
            node_sets,
            ..
        } = self;
        active_jobs.retain_mut(|job| {
            job.left = (job.left - job.rate * dt).max(0.0);
            if job.left > 1.0 {
                return true;
            }
            *jobs.get_mut(job.id.0).expect("a running job is live") = Some(now);
            if job.history_idx != NO_HISTORY {
                job_history[job.history_idx].finished_at = Some(now);
            }
            node_sets[job.rank].remove_n(StreamSpec::CpuWrite { numa: job.numa }, job.cores);
            false
        });
        let specs = |tr: &Transfer| transfer_specs(comm_mode, cxl_pool, tr.src_numa, tr.dst_numa);
        transfers.retain_mut(|tr| {
            match tr.phase {
                TransferPhase::Pre(t) if t <= now + EPS => {
                    tr.phase = TransferPhase::Streaming(tr.payload);
                    let (src_spec, dst_spec) = specs(tr);
                    node_sets[tr.dst].add(dst_spec);
                    node_sets[tr.src].add(src_spec);
                }
                TransferPhase::Streaming(bytes) => {
                    let bytes = (bytes - tr.rate * dt).max(0.0);
                    tr.phase = if bytes > 1.0 {
                        TransferPhase::Streaming(bytes)
                    } else {
                        let (src_spec, dst_spec) = specs(tr);
                        node_sets[tr.dst].remove(dst_spec);
                        node_sets[tr.src].remove(src_spec);
                        TransferPhase::Post(now + tr.post_len)
                    };
                }
                TransferPhase::Post(t) if t <= now + EPS => {
                    set_status(
                        statuses,
                        [tr.send_req, tr.recv_req],
                        RequestStatus::Complete(now),
                    );
                    if tr.history_idx != NO_HISTORY {
                        transfer_history[tr.history_idx].finished_at = Some(now);
                    }
                    return false;
                }
                _ => {}
            }
            true
        });
        true
    }
}

/// Move posted requests on. Only done requests can be forgotten, so one
/// still moving is always in the table.
fn set_status(statuses: &mut Slab<RequestStatus>, reqs: [RequestId; 2], status: RequestStatus) {
    for req in reqs {
        *statuses
            .get_mut(req.0)
            .expect("a request stays tracked until it is done") = status;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_topology::platforms;
    use proptest::prelude::*;

    const MB64: u64 = 64 << 20;

    fn n0() -> NumaId {
        NumaId::new(0)
    }

    #[test]
    fn simple_send_recv_completes() {
        let mut w = World::pair(&platforms::henri());
        let r = w.irecv(0, 1, n0(), MB64, Tag(1)).unwrap();
        let s = w.isend(1, 0, n0(), MB64, Tag(1)).unwrap();
        let t = w.wait_all(&[r, s]).unwrap();
        // 64 MiB at ~11.3 GB/s ≈ 5.9 ms.
        assert!((0.004..0.010).contains(&t), "t = {t}");
        assert!(w.test(r).unwrap());
    }

    #[test]
    fn matching_respects_tags() {
        let mut w = World::pair(&platforms::henri());
        let r_tag2 = w.irecv(0, 1, n0(), MB64, Tag(2)).unwrap();
        let s_tag1 = w.isend(1, 0, n0(), MB64, Tag(1)).unwrap();
        // Tag 1 send must not match the tag-2 receive.
        assert!(!w.test(r_tag2).unwrap());
        assert!(!w.test(s_tag1).unwrap());
        let r_tag1 = w.irecv(0, 1, n0(), MB64, Tag(1)).unwrap();
        w.wait(r_tag1).unwrap();
        assert!(w.test(s_tag1).unwrap());
    }

    #[test]
    fn any_tag_receives_anything() {
        let mut w = World::pair(&platforms::henri());
        let r = w.irecv(0, 1, n0(), MB64, Tag::ANY).unwrap();
        let s = w.isend(1, 0, n0(), MB64, Tag(77)).unwrap();
        w.wait_all(&[r, s]).unwrap();
    }

    #[test]
    fn truncation_is_reported() {
        let mut w = World::pair(&platforms::henri());
        let r = w.irecv(0, 1, n0(), 1024, Tag(0)).unwrap();
        let _s = w.isend(1, 0, n0(), 2048, Tag(0)).unwrap();
        assert_eq!(w.wait(r), Err(MpiError::Truncated(r)));
    }

    #[test]
    fn deadlock_detected_on_unmatched_wait() {
        let mut w = World::pair(&platforms::henri());
        let r = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        assert_eq!(w.wait(r), Err(MpiError::Deadlock(r)));
    }

    #[test]
    fn self_message_rejected() {
        let mut w = World::pair(&platforms::henri());
        assert_eq!(
            w.isend(0, 0, n0(), 1, Tag(0)).unwrap_err(),
            MpiError::SelfMessage(0)
        );
    }

    #[test]
    fn invalid_rank_rejected() {
        let mut w = World::pair(&platforms::henri());
        assert_eq!(
            w.irecv(0, 5, n0(), 1, Tag(0)).unwrap_err(),
            MpiError::InvalidRank(5)
        );
    }

    #[test]
    fn compute_job_duration_matches_nominal_bandwidth() {
        let p = platforms::henri();
        let mut w = World::pair(&p);
        let per_core = 512u64 << 20; // 512 MiB/core
        let job = w.start_compute(0, n0(), 4, per_core).unwrap();
        let t = w.wait_job(job).unwrap();
        let expected = per_core as f64 / (5.6e9);
        assert!(
            (t - expected).abs() / expected < 0.01,
            "t={t}, exp={expected}"
        );
    }

    #[test]
    fn overlap_on_same_numa_slows_the_transfer() {
        let p = platforms::henri();
        // Alone:
        let mut w = World::pair(&p);
        let r = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
        let alone = w.wait(r).unwrap();
        // With 17 cores hammering the same node on the receiver:
        let mut w = World::pair(&p);
        w.start_compute(0, n0(), 17, 8 << 30).unwrap();
        let r = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
        let contended = w.wait(r).unwrap();
        assert!(
            contended > 2.0 * alone,
            "alone={alone}, contended={contended}"
        );
    }

    #[test]
    fn overlap_on_other_numa_leaves_transfer_untouched() {
        let p = platforms::henri_subnuma();
        let mut w = World::pair(&p);
        let r = w.irecv(0, 1, NumaId::new(1), MB64, Tag(0)).unwrap();
        w.isend(1, 0, NumaId::new(1), MB64, Tag(0)).unwrap();
        let alone = w.wait(r).unwrap();

        // Few enough cores that the shared socket mesh stays unsaturated.
        let mut w = World::pair(&p);
        w.start_compute(0, NumaId::new(0), 3, 8 << 30).unwrap();
        let r = w.irecv(0, 1, NumaId::new(1), MB64, Tag(0)).unwrap();
        w.isend(1, 0, NumaId::new(1), MB64, Tag(0)).unwrap();
        let with_compute = w.wait(r).unwrap();
        assert!(
            (with_compute - alone).abs() / alone < 0.02,
            "alone={alone}, with={with_compute}"
        );
    }

    #[test]
    fn bidirectional_traffic_shares_the_wire() {
        let p = platforms::henri();
        let mut w = World::pair(&p);
        let r0 = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
        let one_way = w.wait(r0).unwrap();

        let mut w = World::pair(&p);
        let r0 = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        let r1 = w.irecv(1, 0, n0(), MB64, Tag(1)).unwrap();
        w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
        w.isend(0, 1, n0(), MB64, Tag(1)).unwrap();
        let both = w.wait_all(&[r0, r1]).unwrap();
        // Each node now both sends and receives: its NIC wire carries two
        // flows, so the pair takes measurably longer than a single pong.
        assert!(both > 1.5 * one_way, "one_way={one_way}, both={both}");
    }

    #[test]
    fn advance_by_moves_the_clock_even_when_idle() {
        let mut w = World::pair(&platforms::henri());
        w.advance_by(0.5);
        assert!((w.now() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn posting_order_send_first_also_matches() {
        let mut w = World::pair(&platforms::henri());
        let s = w.isend(1, 0, n0(), MB64, Tag(9)).unwrap();
        let r = w.irecv(0, 1, n0(), MB64, Tag(9)).unwrap();
        w.wait_all(&[s, r]).unwrap();
    }

    /// Rank 0's queue interleaves ops for two peers, one with
    /// `Tag::ANY`: each message completes the earliest compatible op
    /// *for its own peer*, never an earlier one for the other peer.
    #[test]
    fn matching_is_non_overtaking_per_peer_in_a_shared_queue() {
        let pending = |w: &World, reqs: &[RequestId]| -> Vec<bool> {
            reqs.iter()
                .map(|&r| w.status(r) == Ok(RequestStatus::Pending))
                .collect()
        };
        // Receives first: all four wait in rank 0's receive queue.
        let mut w = World::homogeneous(&platforms::henri(), 3);
        let recvs = [
            w.irecv(0, 1, n0(), MB64, Tag(5)).unwrap(),
            w.irecv(0, 2, n0(), MB64, Tag::ANY).unwrap(),
            w.irecv(0, 1, n0(), MB64, Tag::ANY).unwrap(),
            w.irecv(0, 2, n0(), MB64, Tag(5)).unwrap(),
        ];
        // Tag 5 from rank 2 skips rank 1's earlier tag-5 receive.
        w.isend(2, 0, n0(), MB64, Tag(5)).unwrap();
        assert_eq!(pending(&w, &recvs), [true, false, true, true]);
        // Tag 6 from rank 1 passes the tag-5 receive for the wildcard.
        w.isend(1, 0, n0(), MB64, Tag(6)).unwrap();
        assert_eq!(pending(&w, &recvs), [true, false, false, true]);
        w.isend(1, 0, n0(), MB64, Tag(5)).unwrap();
        assert_eq!(pending(&w, &recvs), [false, false, false, true]);
        // Tag 7 from rank 2 fits no receive left; it waits as a send.
        let late = w.isend(2, 0, n0(), MB64, Tag(7)).unwrap();
        assert_eq!(pending(&w, &recvs), [false, false, false, true]);
        w.isend(2, 0, n0(), MB64, Tag(5)).unwrap();
        assert_eq!(pending(&w, &recvs), [false; 4]);
        let catch_all = w.irecv(0, 2, n0(), MB64, Tag::ANY).unwrap();
        assert_eq!(pending(&w, &[late, catch_all]), [false, false]);
        w.wait_all(&recvs).unwrap();

        // Sends first: all four wait in rank 0's send queue, and the
        // receives are posted after them.
        let mut w = World::homogeneous(&platforms::henri(), 3);
        let sends = [
            w.isend(0, 1, n0(), MB64, Tag(5)).unwrap(),
            w.isend(0, 2, n0(), MB64, Tag(6)).unwrap(),
            w.isend(0, 1, n0(), MB64, Tag(6)).unwrap(),
            w.isend(0, 2, n0(), MB64, Tag(5)).unwrap(),
        ];
        // A wildcard on rank 2 takes rank 0's first send to rank 2.
        w.irecv(2, 0, n0(), MB64, Tag::ANY).unwrap();
        assert_eq!(pending(&w, &sends), [true, false, true, true]);
        // Tag 6 on rank 1 passes the earlier tag-5 send to rank 1.
        w.irecv(1, 0, n0(), MB64, Tag(6)).unwrap();
        assert_eq!(pending(&w, &sends), [true, false, false, true]);
        w.irecv(1, 0, n0(), MB64, Tag::ANY).unwrap();
        assert_eq!(pending(&w, &sends), [false, false, false, true]);
        w.irecv(2, 0, n0(), MB64, Tag(5)).unwrap();
        assert_eq!(pending(&w, &sends), [false; 4]);
        w.wait_all(&sends).unwrap();
    }

    #[test]
    fn history_records_transfers_and_jobs() {
        let p = platforms::henri();
        let mut w = World::pair(&p);
        let j = w.start_compute(0, n0(), 4, 256 << 20).unwrap();
        let r = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
        w.wait(r).unwrap();
        w.wait_job(j).unwrap();

        let transfers = w.transfer_history();
        assert_eq!(transfers.len(), 1);
        let tr = &transfers[0];
        assert_eq!((tr.src, tr.dst), (1, 0));
        assert_eq!(tr.bytes, MB64 as f64);
        let finished = tr.finished_at.expect("transfer completed");
        assert!(finished > tr.matched_at);

        let jobs = w.job_history();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].cores, 4);
        assert!(jobs[0].finished_at.unwrap() > jobs[0].started_at);
    }

    #[test]
    fn unmatched_transfer_stays_unfinished_in_history() {
        let p = platforms::henri();
        let mut w = World::pair(&p);
        let _r = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        // Never matched: nothing in the transfer history yet.
        assert!(w.transfer_history().is_empty());
        w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
        // Matched but not progressed: recorded, not finished.
        assert_eq!(w.transfer_history().len(), 1);
        assert!(w.transfer_history()[0].finished_at.is_none());
    }

    #[test]
    fn zero_byte_compute_job_completes_immediately() {
        let mut w = World::pair(&platforms::henri());
        let j = w.start_compute(0, n0(), 2, 0).unwrap();
        assert_eq!(w.wait_job(j).unwrap(), 0.0);
    }

    #[test]
    fn job_status_is_a_nonblocking_wait_job() {
        let mut w = World::pair(&platforms::henri());
        let j = w.start_compute(0, n0(), 2, 64 << 20).unwrap();
        assert_eq!(w.job_status(j).unwrap(), None);
        let t = w.wait_job(j).unwrap();
        assert_eq!(w.job_status(j).unwrap(), Some(t));
        assert_eq!(
            w.job_status(JobId(9999)).unwrap_err(),
            MpiError::UnknownJob(JobId(9999))
        );
    }

    #[test]
    fn poll_advances_to_the_next_event_only() {
        let mut w = World::pair(&platforms::henri());
        assert!(!w.poll(), "idle world cannot progress");
        let r = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
        let mut steps = 0;
        while !w.test(r).unwrap() {
            assert!(w.poll(), "matched transfer must progress");
            steps += 1;
            assert!(steps < 100, "transfer completes in a few phase changes");
        }
        // Pre → streaming → post → done: at least three events.
        assert!(steps >= 3, "steps = {steps}");
    }

    #[test]
    fn uncontended_baseline_ignores_memory_contention() {
        let p = platforms::henri();
        // Contended: 17 cores hammering the receiver slow the transfer.
        let mut w = World::pair(&p);
        w.start_compute(0, n0(), 17, 8 << 30).unwrap();
        let r = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
        let contended = w.wait(r).unwrap();

        // Baseline: same schedule, contention off — the transfer runs at
        // its alone bandwidth as if the cores were not there.
        let mut w = World::pair(&p);
        w.set_contended(false);
        assert!(!w.contended());
        w.start_compute(0, n0(), 17, 8 << 30).unwrap();
        let r = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
        let baseline = w.wait(r).unwrap();

        // And the actual alone time, with no compute at all.
        let mut w = World::pair(&p);
        let r = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
        let alone = w.wait(r).unwrap();

        assert!(contended > 2.0 * baseline, "{contended} vs {baseline}");
        assert!(
            (baseline - alone).abs() / alone < 1e-9,
            "baseline {baseline} == alone {alone}"
        );
    }

    #[test]
    fn cxl_mode_requires_a_pool() {
        let mut w = World::pair(&platforms::henri());
        assert_eq!(
            w.set_comm_mode(CommMode::Cxl).unwrap_err(),
            MpiError::NoCxlPool("henri".into())
        );
        // The failed switch leaves the world in messaging mode.
        assert_eq!(w.comm_mode(), CommMode::Messages);
        let mut w = World::pair(&platforms::henri_cxl());
        w.set_comm_mode(CommMode::Cxl).unwrap();
        assert_eq!(w.comm_mode(), CommMode::Cxl);
    }

    #[test]
    fn uncontended_cxl_transfer_is_slower_than_messaging() {
        let p = platforms::henri_cxl();
        let mut w = World::pair(&p);
        let r = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
        let messages = w.wait(r).unwrap();

        let mut w = World::pair(&p);
        w.set_comm_mode(CommMode::Cxl).unwrap();
        let r = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
        let cxl = w.wait(r).unwrap();
        // 64 MiB at ~11.3 GB/s (wire) vs 6 GB/s (pool stream).
        assert!(cxl > 1.5 * messages, "cxl={cxl}, messages={messages}");
    }

    #[test]
    fn contended_cxl_transfer_beats_the_floored_nic() {
        // 17 cores hammer the receiver's buffer node: the NIC drops to
        // its arbitration floor, but CXL pool streams keep the CPU-class
        // max-min share — the message-free crossover.
        let p = platforms::henri_cxl();
        let mut w = World::pair(&p);
        w.start_compute(0, n0(), 17, 8 << 30).unwrap();
        let r = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
        let messages = w.wait(r).unwrap();

        let mut w = World::pair(&p);
        w.set_comm_mode(CommMode::Cxl).unwrap();
        w.start_compute(0, n0(), 17, 8 << 30).unwrap();
        let r = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
        w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
        let cxl = w.wait(r).unwrap();
        assert!(cxl < messages, "cxl={cxl}, messages={messages}");
    }

    #[test]
    fn cxl_runs_are_bit_identical() {
        let run = || {
            let mut w = World::pair(&platforms::dahu_cxl());
            w.set_comm_mode(CommMode::Cxl).unwrap();
            w.start_compute(0, n0(), 8, 2 << 30).unwrap();
            let r = w.irecv(0, 1, n0(), MB64, Tag(0)).unwrap();
            w.isend(1, 0, n0(), MB64, Tag(0)).unwrap();
            w.wait(r).unwrap()
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }

    #[test]
    fn uncontended_compute_runs_at_single_core_scaling() {
        let p = platforms::henri();
        let per_core = 256u64 << 20;
        // 17 cores contended: well below 17x one core's alone bandwidth.
        let mut w = World::pair(&p);
        let j = w.start_compute(0, n0(), 17, per_core).unwrap();
        let contended = w.wait_job(j).unwrap();
        // Uncontended: every core streams at its alone bandwidth.
        let mut w = World::pair(&p);
        w.set_contended(false);
        let j = w.start_compute(0, n0(), 17, per_core).unwrap();
        let baseline = w.wait_job(j).unwrap();
        // A single core alone streams at 5.6 GB/s on henri; uncontended
        // mode grants every core exactly that.
        let expected = per_core as f64 / 5.6e9;
        assert!(
            (baseline - expected).abs() / expected < 0.01,
            "baseline {baseline} vs single-core alone {expected}"
        );
        assert!(contended > 1.15 * baseline, "{contended} vs {baseline}");
    }

    /// The replay engine's bounded-memory promise rests on `forget_*`
    /// emptying the request and job tables once everything is reaped.
    #[test]
    fn forgetting_reaped_work_drains_the_tables() {
        let mut w = World::homogeneous(&platforms::henri(), 8);
        let job = w.start_compute(3, n0(), 4, 64 << 20).unwrap();
        assert!(!w.forget_job(job), "a running job stays tracked");
        crate::collectives::allreduce_ring(&mut w, n0(), MB64).unwrap();
        w.wait_job(job).unwrap();
        assert!(w.forget_job(job));
        assert!(!w.forget_job(job), "a job is forgotten once");
        assert_eq!(w.job_status(job), Err(MpiError::UnknownJob(job)));
        assert_eq!(w.statuses.len(), 0, "statuses left");
        assert_eq!(w.jobs.len(), 0, "jobs left");
        assert!(w.pending_sends.iter().all(Vec::is_empty));
        assert!(w.pending_recvs.iter().all(Vec::is_empty));
    }

    /// Unmatched-queue memory follows the ranks and the work in flight,
    /// not the rank pairs ever used: gathers to every root of 64 ranks
    /// touch all 4,032 ordered pairs.
    #[test]
    fn unmatched_queues_stay_bounded_by_the_ranks() {
        let ranks = 64;
        let mut w = World::homogeneous(&platforms::henri(), ranks);
        for root in 0..ranks {
            crate::collectives::gather(&mut w, root, n0(), 4096).unwrap();
        }
        for table in [&w.pending_sends, &w.pending_recvs] {
            assert_eq!(table.len(), ranks);
            assert!(table.iter().all(Vec::is_empty));
            let capacity: usize = table.iter().map(Vec::capacity).sum();
            assert!(capacity <= 8 * ranks, "capacity {capacity}");
        }
    }

    /// Post `pairs` receive/send pairs that truncate at once (a 1-byte
    /// send into a 0-byte buffer) and start `jobs` empty jobs off the
    /// record, then forget all of them. Time, stream sets and histories
    /// stay as they were; only the slabs' slots and generations move.
    fn churn(w: &mut World, pairs: usize, jobs: usize) {
        let mut reqs = Vec::new();
        for i in 0..pairs {
            let (a, b) = (i % w.size(), (i + 1) % w.size());
            reqs.push(w.irecv(a, b, n0(), 0, Tag(7)).unwrap());
            reqs.push(w.isend(b, a, n0(), 1, Tag(7)).unwrap());
        }
        w.set_record_history(false);
        let jobs: Vec<JobId> = (0..jobs)
            .map(|i| w.start_compute(i % w.size(), n0(), 1, 0).unwrap())
            .collect();
        w.set_record_history(true);
        for r in reqs {
            assert!(w.forget_request(r), "a truncated request is done");
        }
        for j in jobs {
            assert!(w.forget_job(j), "an empty job is done");
        }
    }

    #[test]
    fn handles_never_reach_a_result() {
        let p = platforms::henri();
        let run = |churn_first: bool| {
            let mut w = World::homogeneous(&p, 8);
            if churn_first {
                churn(&mut w, 21, 5);
            }
            let jobs = [
                w.start_compute(2, n0(), 6, 48 << 20).unwrap(),
                w.start_compute(5, n0(), 9, 96 << 20).unwrap(),
            ];
            let times = [
                crate::collectives::allreduce_ring(&mut w, n0(), 8 << 20).unwrap(),
                crate::collectives::barrier(&mut w, n0()).unwrap(),
                w.wait_job(jobs[0]).unwrap(),
                w.wait_job(jobs[1]).unwrap(),
            ];
            let out = format!(
                "{:?}\n{:?}\n{:?}\n{:?}",
                times.map(f64::to_bits),
                w.transfer_history(),
                w.job_history(),
                w.solver_stats()
            );
            (out, jobs, w.statuses.slots())
        };
        let (fresh, fresh_jobs, fresh_slots) = run(false);
        let (churned, churned_jobs, churned_slots) = run(true);
        assert_ne!(fresh_jobs, churned_jobs, "churn moved the job handles");
        assert!(churned_slots > fresh_slots, "churn moved the request slots");
        assert_eq!(fresh, churned);
    }

    #[test]
    fn a_stale_handle_stays_unknown_after_its_slot_is_reused() {
        let mut w = World::pair(&platforms::henri());
        let old = w.irecv(0, 1, n0(), 0, Tag(0)).unwrap();
        let send = w.isend(1, 0, n0(), 1, Tag(0)).unwrap();
        assert!(w.forget_request(send));
        assert!(w.forget_request(old));
        let new = w.irecv(0, 1, n0(), MB64, Tag(1)).unwrap();
        assert_eq!(new.0 as u32, old.0 as u32, "the freed slot is reused");
        assert_eq!(w.status(old), Err(MpiError::UnknownRequest(old)));
        assert_eq!(w.wait(old), Err(MpiError::UnknownRequest(old)));
        assert!(!w.forget_request(old));
        assert_eq!(w.status(new), Ok(RequestStatus::Pending));
        w.isend(1, 0, n0(), MB64, Tag(1)).unwrap();
        assert!(w.wait(new).unwrap() > 0.0);

        let old = w.start_compute(0, n0(), 2, 0).unwrap();
        assert!(w.forget_job(old));
        let new = w.start_compute(0, n0(), 2, 64 << 20).unwrap();
        assert_eq!(new.0 as u32, old.0 as u32, "the freed slot is reused");
        assert_eq!(w.job_status(old), Err(MpiError::UnknownJob(old)));
        assert_eq!(w.wait_job(old), Err(MpiError::UnknownJob(old)));
        assert!(!w.forget_job(old));
        assert_eq!(w.job_status(new), Ok(None));
        assert!(w.wait_job(new).unwrap() > 0.0);
    }

    /// The request table is bounded by the requests in flight, not by
    /// the requests ever posted: a ring round posts 2·P and reaps them.
    #[test]
    fn the_request_table_is_bounded_by_work_in_flight() {
        let ranks = 8;
        let mut w = World::homogeneous(&platforms::henri(), ranks);
        for _ in 0..64 {
            crate::collectives::allreduce_ring(&mut w, n0(), 1 << 20).unwrap();
        }
        assert_eq!(w.statuses.len(), 0);
        assert!(
            w.statuses.slots() <= 2 * ranks,
            "{} slots after 64 allreduces",
            w.statuses.slots()
        );
    }

    /// The four-walk step that [`World::step_until`] replaced, kept as
    /// its oracle over the same fields: every rate into local buffers
    /// (GB/s), then the earliest event, then the integration, then the
    /// transitions. It ignores the `rate` fields the two-walk step keeps.
    fn four_walk_step_until(w: &mut World, deadline: f64) -> bool {
        if w.transfers.is_empty() && w.active_jobs.is_empty() {
            return false;
        }
        w.epoch += 1;
        let mut job_rates = Vec::new();
        for i in 0..w.active_jobs.len() {
            let ActiveJob { rank, numa, .. } = w.active_jobs[i];
            job_rates.push(w.stream_rate(rank, StreamSpec::CpuWrite { numa }));
        }
        let mut transfer_rates = Vec::new();
        for i in 0..w.transfers.len() {
            let tr = &w.transfers[i];
            if !matches!(tr.phase, TransferPhase::Streaming(_)) {
                transfer_rates.push(0.0);
                continue;
            }
            let (src, dst) = (tr.src, tr.dst);
            let (src_spec, dst_spec) =
                transfer_specs(w.comm_mode, w.cxl_pool, tr.src_numa, tr.dst_numa);
            let rate_in = w.stream_rate(dst, dst_spec);
            let rate_out = w.stream_rate(src, src_spec);
            transfer_rates.push(rate_in.min(rate_out));
        }

        let mut next = deadline;
        for (job, &rate) in w.active_jobs.iter().zip(&job_rates) {
            let rate = rate * GB;
            if rate > 0.0 {
                next = next.min(w.time + job.left / rate);
            }
        }
        for (tr, &rate) in w.transfers.iter().zip(&transfer_rates) {
            match tr.phase {
                TransferPhase::Pre(t) | TransferPhase::Post(t) => next = next.min(t),
                TransferPhase::Streaming(bytes) => {
                    let rate = rate * GB;
                    if rate > 0.0 {
                        next = next.min(w.time + bytes / rate);
                    }
                }
            }
        }
        if !next.is_finite() || next <= w.time + EPS {
            next = (w.time + EPS).max(next.min(deadline));
            if !next.is_finite() {
                return false;
            }
        }
        let dt = next - w.time;

        for (job, &rate) in w.active_jobs.iter_mut().zip(&job_rates) {
            let rate = rate * GB;
            job.left = (job.left - rate * dt).max(0.0);
        }
        for (tr, &rate) in w.transfers.iter_mut().zip(&transfer_rates) {
            if let TransferPhase::Streaming(ref mut bytes) = tr.phase {
                let rate = rate * GB;
                *bytes = (*bytes - rate * dt).max(0.0);
            }
        }
        w.time = next;

        let now = w.time;
        let (comm_mode, cxl_pool) = (w.comm_mode, w.cxl_pool);
        let World {
            statuses,
            jobs,
            active_jobs,
            transfers,
            job_history,
            transfer_history,
            node_sets,
            ..
        } = w;
        active_jobs.retain(|job| {
            if job.left > 1.0 {
                return true;
            }
            *jobs.get_mut(job.id.0).unwrap() = Some(now);
            if job.history_idx != NO_HISTORY {
                job_history[job.history_idx].finished_at = Some(now);
            }
            node_sets[job.rank].remove_n(StreamSpec::CpuWrite { numa: job.numa }, job.cores);
            false
        });
        let mut finished = Vec::new();
        for tr in transfers.iter_mut() {
            let (src_spec, dst_spec) =
                transfer_specs(comm_mode, cxl_pool, tr.src_numa, tr.dst_numa);
            match tr.phase {
                TransferPhase::Pre(t) if t <= now + EPS => {
                    tr.phase = TransferPhase::Streaming(tr.payload);
                    node_sets[tr.dst].add(dst_spec);
                    node_sets[tr.src].add(src_spec);
                }
                TransferPhase::Streaming(bytes) if bytes <= 1.0 => {
                    tr.phase = TransferPhase::Post(now + tr.post_len);
                    node_sets[tr.dst].remove(dst_spec);
                    node_sets[tr.src].remove(src_spec);
                }
                TransferPhase::Post(t) if t <= now + EPS => {
                    finished.push((tr.send_req, tr.recv_req));
                    if tr.history_idx != NO_HISTORY {
                        transfer_history[tr.history_idx].finished_at = Some(now);
                    }
                }
                _ => {}
            }
        }
        transfers.retain(|tr| !finished.iter().any(|&(s, _)| s == tr.send_req));
        for (s, r) in finished {
            set_status(statuses, [s, r], RequestStatus::Complete(now));
        }
        true
    }

    /// Which step function moves a scripted world.
    #[derive(Debug, Clone, Copy)]
    enum Stepper {
        TwoWalk,
        FourWalk,
    }

    impl Stepper {
        fn poll(self, w: &mut World) -> bool {
            match self {
                Stepper::TwoWalk => w.poll(),
                Stepper::FourWalk => four_walk_step_until(w, f64::INFINITY),
            }
        }

        /// [`World::advance_by`], with the reference step in its loop.
        fn advance_by(self, w: &mut World, dt: f64) {
            let Stepper::FourWalk = self else {
                return w.advance_by(dt);
            };
            let deadline = w.time + dt;
            while w.time < deadline - EPS {
                if !four_walk_step_until(w, deadline) {
                    w.time = deadline;
                    break;
                }
            }
        }
    }

    /// Everything a scripted world shows, with times as bits.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        /// `now()` after every scripted op and after the drain.
        clock: Vec<u64>,
        requests: Vec<(RequestStatus, u64)>,
        jobs: Vec<Option<u64>>,
        stats: WorldSolverStats,
        history: String,
    }

    /// Play `ops` on a fresh world of `ranks` ranks, then drain it.
    /// Each op is `(kind, a, b, size, flag)`: a compute job (zero bytes
    /// when `flag` is 0), a rendezvous or an eager message (sent before
    /// its receive is posted when `flag` is odd, truncated when `flag` is
    /// 3), an `advance_by`, or a few polls.
    fn play(
        ranks: usize,
        cxl: bool,
        contended: bool,
        ops: &[(u8, usize, usize, u64, u8)],
        stepper: Stepper,
    ) -> Outcome {
        let platform = if cxl {
            platforms::henri_cxl()
        } else {
            platforms::henri()
        };
        let numas = platform.topology.numa_count();
        let mut w = World::homogeneous(&platform, ranks);
        if cxl {
            w.set_comm_mode(CommMode::Cxl).unwrap();
        }
        w.set_contended(contended);
        let (mut reqs, mut jobs, mut clock) = (Vec::new(), Vec::new(), Vec::new());
        for &(kind, a, b, size, flag) in ops {
            let (src, numa) = (a % ranks, NumaId::new((b % numas) as u16));
            match kind {
                0 => {
                    let bytes = if flag == 0 { 0 } else { size << 20 };
                    let cores = 1 + size as usize % 8;
                    jobs.push(w.start_compute(src, numa, cores, bytes).unwrap());
                }
                1 | 2 => {
                    // Rendezvous payloads up to 16 MiB; eager ones stay
                    // under the 32 KiB threshold, zero bytes included.
                    let bytes = if kind == 1 {
                        (size + 1) << 18
                    } else {
                        size << 9
                    };
                    let room = if flag == 3 { bytes / 2 } else { bytes };
                    let dst = (src + 1 + b % (ranks - 1)) % ranks;
                    let dst_numa = NumaId::new((size as usize % numas) as u16);
                    let tag = Tag(u32::from(flag));
                    if flag % 2 == 1 {
                        reqs.push(w.isend(src, dst, numa, bytes, tag).unwrap());
                        reqs.push(w.irecv(dst, src, dst_numa, room, tag).unwrap());
                    } else {
                        reqs.push(w.irecv(dst, src, dst_numa, room, tag).unwrap());
                        reqs.push(w.isend(src, dst, numa, bytes, tag).unwrap());
                    }
                }
                3 => stepper.advance_by(&mut w, size as f64 * 1e-4),
                _ => {
                    for _ in 0..=size % 4 {
                        stepper.poll(&mut w);
                    }
                }
            }
            clock.push(w.now().to_bits());
        }
        let mut steps = 0;
        while stepper.poll(&mut w) {
            steps += 1;
            assert!(steps < 100_000, "the world drains");
        }
        clock.push(w.now().to_bits());
        let time_bits = |status: RequestStatus| match status {
            RequestStatus::Complete(t) => t.to_bits(),
            _ => 0,
        };
        Outcome {
            clock,
            requests: reqs
                .iter()
                .map(|&r| {
                    let status = w.status(r).unwrap();
                    (status, time_bits(status))
                })
                .collect(),
            jobs: jobs
                .iter()
                .map(|&j| w.job_status(j).unwrap().map(f64::to_bits))
                .collect(),
            stats: w.solver_stats(),
            history: format!("{:?}\n{:?}", w.transfer_history(), w.job_history()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The two-walk step against the four-walk reference, bit for
        /// bit: every completion time, the clock after every op, the
        /// solver counters and both histories. Worlds of 2–8 ranks mix
        /// compute jobs (some empty) with eager, rendezvous and truncated
        /// messages, posted between `advance_by`s and polls, in both comm
        /// modes, contended and against the uncontended baseline.
        #[test]
        fn two_walk_step_matches_the_four_walk_reference(
            ranks in 2usize..9,
            cxl in 0u8..2,
            contended in 0u8..2,
            ops in proptest::collection::vec(
                (0u8..5, 0usize..8, 0usize..8, 0u64..64, 0u8..4),
                1..24,
            ),
        ) {
            let run = |stepper| play(ranks, cxl == 1, contended == 1, &ops, stepper);
            prop_assert_eq!(run(Stepper::TwoWalk), run(Stepper::FourWalk));
        }
    }
}
