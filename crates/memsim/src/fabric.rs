//! The fabric: streams, their routes and flow construction for a
//! concrete platform.
//!
//! A [`Fabric`] is built once per [`Platform`]. The resource graph of
//! `mc-topology` names the capacity-bearing nodes; the fabric is the one
//! place that knows streams. It numbers every [`StreamSpec`] the topology
//! admits, in the specs' derived order (a [`StreamId`] each), and routes
//! each to the ordered node indices the stream occupies, once, into a
//! path table indexed by that number. Given the set of currently active
//! streams (CPU cores writing to a NUMA node, NIC DMA into or out of a
//! NUMA node, cores moving data through a CXL pool), it builds the
//! resource capacities and flow requests, applies the platform quirks,
//! and runs the tiered max-min solver to obtain every stream's
//! instantaneous rate.
//!
//! ## Hop orders
//!
//! Routes keep the hop orders of the hardwired builder that predates the
//! graph, so solves stay bit-identical to it:
//!
//! * CPU write: the target's controller, then the inter-socket link when
//!   the core's socket is not the target's (`CpuWrite` writes from
//!   socket 0);
//! * NIC DMA: wire, PCIe, controller, then the link between the NIC's
//!   socket and the buffer's when they differ — towards the buffer for a
//!   receive, towards the NIC for a send;
//! * CXL write: the buffer's controller, the link to the pool's socket
//!   when they differ, port, pool controller; a CXL read takes the same
//!   hops in reverse, the link towards the buffer.

use std::cell::RefCell;
use std::sync::Arc;

use mc_topology::graph::{CapacityRule, ResourceGraph};
use mc_topology::{MachineTopology, NumaId, Platform, PoolId, SocketId};

use crate::solver::{allocate_into, Allocation, FlowClass, FlowSet, SolverScratch};

/// What kind of hardware component a resource index denotes.
///
/// Re-exported from the declarative resource graph in `mc-topology`
/// ([`mc_topology::graph`]), where the node set of a platform is
/// defined; the fabric routes streams over it and keeps the solver on
/// plain indices.
pub use mc_topology::graph::ResourceKind;

/// One active stream, as seen by the fabric.
///
/// The derived ordering is the order [`Fabric::specs`] numbers the specs
/// in, and so the order of a multiset's canonical expansion in
/// [`crate::delta`] — any total order works, it only has to be
/// consistent, but it fixes the expansion a multiset is solved on and
/// therefore the last bits of its rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StreamSpec {
    /// One computing core on socket 0 issuing non-temporal stores to
    /// `numa`. The benchmark always computes on the first socket (§II-B:
    /// "we will model performances ... when cores of only one socket are
    /// computing").
    CpuWrite {
        /// Target NUMA node of the stores.
        numa: NumaId,
    },
    /// One computing core on an explicit socket — the configuration the
    /// paper leaves for future work (§II-B: "considering computing cores
    /// of all sockets accessing the same NUMA node ... is another
    /// problematic that is left for future work").
    CpuWriteFrom {
        /// Socket hosting the core.
        socket: SocketId,
        /// Target NUMA node of the stores.
        numa: NumaId,
    },
    /// The NIC DMA engine writing a received message into `numa`.
    DmaRecv {
        /// NUMA node holding the communication buffer.
        numa: NumaId,
    },
    /// The NIC DMA engine reading an outgoing message from `numa` (the
    /// send side of the paper's future-work "ping-pongs instead of only
    /// pongs" scenario).
    DmaSend {
        /// NUMA node holding the send buffer.
        numa: NumaId,
    },
    /// A core pushing message payload from its buffer on `numa` into a
    /// shared CXL.mem pool — the write half of message-free
    /// communication. Appended after the legacy variants so the derived
    /// ordering (and thus every cached stream-multiset key) is a strict
    /// extension of the historical one.
    CxlWrite {
        /// NUMA node holding the source buffer.
        numa: NumaId,
        /// Destination pool.
        pool: PoolId,
    },
    /// A core pulling message payload from a shared CXL.mem pool into
    /// its buffer on `numa` — the read half of message-free
    /// communication.
    CxlRead {
        /// NUMA node holding the destination buffer.
        numa: NumaId,
        /// Source pool.
        pool: PoolId,
    },
}

impl StreamSpec {
    /// DRAM-side NUMA node of the stream (for CXL streams, the node
    /// holding the local buffer — its controller is occupied on the
    /// DRAM leg of the route).
    pub fn numa(&self) -> NumaId {
        match *self {
            StreamSpec::CpuWrite { numa }
            | StreamSpec::CpuWriteFrom { numa, .. }
            | StreamSpec::DmaRecv { numa }
            | StreamSpec::DmaSend { numa }
            | StreamSpec::CxlWrite { numa, .. }
            | StreamSpec::CxlRead { numa, .. } => numa,
        }
    }

    /// Whether this is a DMA stream. CXL streams are core-issued
    /// loads/stores, so they are *not* DMA: they neither receive the
    /// arbitration floor nor suffer the issue-pressure cap — the
    /// physical asymmetry the message-free scenario exploits.
    pub fn is_dma(&self) -> bool {
        matches!(
            self,
            StreamSpec::DmaRecv { .. } | StreamSpec::DmaSend { .. }
        )
    }

    /// Whether this is a compute stream: a core storing to DRAM, neither
    /// DMA nor a move to or from a CXL pool. The one rule behind every
    /// compute-bandwidth sum.
    pub fn is_compute(&self) -> bool {
        !self.is_dma() && self.pool().is_none()
    }

    /// Source socket of a core-issued stream (`None` for DMA streams).
    /// CXL moves are issued by cores of the computing socket (socket 0,
    /// like [`StreamSpec::CpuWrite`]).
    pub fn cpu_socket(&self) -> Option<SocketId> {
        match *self {
            StreamSpec::CpuWrite { .. }
            | StreamSpec::CxlWrite { .. }
            | StreamSpec::CxlRead { .. } => Some(SocketId::new(0)),
            StreamSpec::CpuWriteFrom { socket, .. } => Some(socket),
            _ => None,
        }
    }

    /// The CXL pool a stream targets (`None` for DRAM-only streams).
    pub fn pool(&self) -> Option<PoolId> {
        match *self {
            StreamSpec::CxlWrite { pool, .. } | StreamSpec::CxlRead { pool, .. } => Some(pool),
            _ => None,
        }
    }
}

/// The number of a stream spec a [`Fabric`] admits: its position in
/// [`Fabric::specs`], which lists the specs in their derived order, so
/// ids ascend exactly as their specs do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(u32);

impl StreamId {
    /// The id as an index into per-id tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Result of solving the rates of a set of streams.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveResult {
    /// Rate of each stream in GB/s, same order as the input.
    pub rates: Vec<f64>,
    /// Load per fabric resource in GB/s (indexable via
    /// [`Fabric::resource_index`]).
    pub resource_load: Vec<f64>,
    /// Effective capacity per resource used for this solve.
    pub capacities: Vec<f64>,
}

impl SolveResult {
    /// Sum of the rates of all compute (CPU write) streams.
    pub fn cpu_total(&self, streams: &[StreamSpec]) -> f64 {
        self.rates
            .iter()
            .zip(streams)
            .filter(|(_, s)| s.is_compute())
            .map(|(r, _)| r)
            .sum()
    }

    /// Sum of the rates of all DMA streams.
    pub fn dma_total(&self, streams: &[StreamSpec]) -> f64 {
        self.rates
            .iter()
            .zip(streams)
            .filter(|(_, s)| s.is_dma())
            .map(|(r, _)| r)
            .sum()
    }

    /// Sum of the rates of all CXL pool streams.
    pub fn cxl_total(&self, streams: &[StreamSpec]) -> f64 {
        self.rates
            .iter()
            .zip(streams)
            .filter(|(_, s)| s.pool().is_some())
            .map(|(r, _)| r)
            .sum()
    }
}

/// A flow path as stored in the path table: at most four resource
/// indices (NIC wire, PCIe, memory controller, inter-socket link — or
/// controller, link, CXL port, pool controller), inline so lookups touch
/// no heap.
#[derive(Debug, Clone, Copy, Default)]
struct SmallPath {
    len: u8,
    idx: [u32; 4],
}

impl SmallPath {
    fn push(&mut self, i: usize) {
        self.idx[usize::from(self.len)] = i as u32;
        self.len += 1;
    }

    fn as_slice(&self) -> &[u32] {
        &self.idx[..usize::from(self.len)]
    }
}

/// Index of a node the topology guarantees; panics naming the kind if
/// the graph lacks it.
fn node(graph: &ResourceGraph, kind: ResourceKind) -> usize {
    graph
        .index_of(kind)
        .unwrap_or_else(|| panic!("resource graph is missing {kind:?}"))
}

/// The ordered resource indices `spec` occupies, in the hop orders the
/// module documents.
fn route(graph: &ResourceGraph, topo: &MachineTopology, spec: StreamSpec) -> SmallPath {
    let link = |from: SocketId, to: SocketId| {
        (from != to).then(|| node(graph, ResourceKind::LinkDir { from, to }))
    };
    let home = topo.socket_of_numa(spec.numa());
    let ctrl = Some(node(graph, ResourceKind::MemCtrl(spec.numa())));
    let nic = topo.nic.socket;
    let wire = Some(node(graph, ResourceKind::NicWire));
    let pcie = Some(node(graph, ResourceKind::Pcie(nic)));
    let pool_hops = |pool: PoolId| {
        (
            topo.cxl_pools[pool.index()].socket,
            Some(node(graph, ResourceKind::CxlPort(pool))),
            Some(node(graph, ResourceKind::CxlCtrl(pool))),
        )
    };
    let hops = match spec {
        StreamSpec::CpuWrite { .. } => [ctrl, link(SocketId::new(0), home), None, None],
        StreamSpec::CpuWriteFrom { socket, .. } => [ctrl, link(socket, home), None, None],
        StreamSpec::DmaRecv { .. } => [wire, pcie, ctrl, link(nic, home)],
        StreamSpec::DmaSend { .. } => [wire, pcie, ctrl, link(home, nic)],
        StreamSpec::CxlWrite { pool, .. } => {
            let (attach, port, pool_ctrl) = pool_hops(pool);
            [ctrl, link(home, attach), port, pool_ctrl]
        }
        StreamSpec::CxlRead { pool, .. } => {
            let (attach, port, pool_ctrl) = pool_hops(pool);
            [pool_ctrl, port, link(attach, home), ctrl]
        }
    };
    let mut path = SmallPath::default();
    hops.into_iter().flatten().for_each(|i| path.push(i));
    path
}

/// Reusable buffers for [`Fabric::solve_into`]. Holding one per thread (or
/// per engine) makes repeated solves allocation-free after warmup.
#[derive(Debug, Clone, Default)]
pub struct FabricScratch {
    caps: Vec<f64>,
    cpu_on: Vec<u32>,
    dma_on: Vec<u32>,
    flows: FlowSet,
    solver: SolverScratch,
    alloc: Allocation,
}

/// The simulated memory/IO fabric of one platform.
#[derive(Debug, Clone)]
pub struct Fabric {
    platform: Arc<Platform>,
    graph: ResourceGraph,
    /// Memory-controller resource index per NUMA node.
    ctrl: Vec<u32>,
    /// Every stream spec the topology admits, strictly increasing: a
    /// spec's index here is its [`StreamId`].
    specs: Box<[StreamSpec]>,
    /// NUMA nodes, sockets and CXL pools: the sizes of the blocks
    /// `specs` falls into (see [`Fabric::stream_id`]).
    dims: [usize; 3],
    /// The flow path of each spec, by id.
    paths: Box<[SmallPath]>,
}

impl Fabric {
    /// Build the fabric for a platform (clones it once into an
    /// [`Arc`]; use [`Fabric::from_arc`] to share an existing one).
    pub fn new(platform: &Platform) -> Self {
        Self::from_arc(Arc::new(platform.clone()))
    }

    /// Build the fabric around a shared platform without cloning it.
    ///
    /// The node set comes from [`ResourceGraph::for_topology`], and every
    /// path the solver can ever see is routed here, once: for each NUMA
    /// node, a CPU write from socket 0 and from every socket, a DMA
    /// receive and send, and a CXL write and read per pool. The graph
    /// keeps the historical node order and the routes the historical hop
    /// orders, so solves on platforms without CXL pools stay
    /// bit-identical to the old hardwired builder. The routed specs are
    /// then numbered in their derived order ([`Fabric::specs`]).
    pub fn from_arc(platform: Arc<Platform>) -> Self {
        let topo = &platform.topology;
        let graph = ResourceGraph::for_topology(topo);
        let ctrl = topo
            .numa_ids()
            .map(|numa| node(&graph, ResourceKind::MemCtrl(numa)) as u32)
            .collect();
        let mut routed = Vec::new();
        for numa in topo.numa_ids() {
            let fixed = [
                StreamSpec::CpuWrite { numa },
                StreamSpec::DmaRecv { numa },
                StreamSpec::DmaSend { numa },
            ];
            let cpu = topo
                .sockets
                .iter()
                .map(|s| StreamSpec::CpuWriteFrom { socket: s.id, numa });
            let cxl = topo.cxl_pools.iter().flat_map(|p| {
                [
                    StreamSpec::CxlWrite { numa, pool: p.id },
                    StreamSpec::CxlRead { numa, pool: p.id },
                ]
            });
            for spec in fixed.into_iter().chain(cpu).chain(cxl) {
                routed.push((spec, route(&graph, topo, spec)));
            }
        }
        Self::numbered(platform, graph, ctrl, routed)
    }

    /// The fabric over `routed`, its specs numbered in their derived
    /// order.
    fn numbered(
        platform: Arc<Platform>,
        graph: ResourceGraph,
        ctrl: Vec<u32>,
        mut routed: Vec<(StreamSpec, SmallPath)>,
    ) -> Self {
        routed.sort_unstable_by_key(|e| e.0);
        let topo = &platform.topology;
        let dims = [ctrl.len(), topo.sockets.len(), topo.cxl_pools.len()];
        Fabric {
            platform,
            graph,
            ctrl,
            dims,
            specs: routed.iter().map(|e| e.0).collect(),
            paths: routed.iter().map(|e| e.1).collect(),
        }
    }

    /// Every stream spec the topology admits, strictly increasing; the
    /// spec at index `i` has [`StreamId`] `i`.
    pub fn specs(&self) -> &[StreamSpec] {
        &self.specs
    }

    /// The id of an admitted spec, in constant time.
    ///
    /// A topology's NUMA nodes, sockets and pools are numbered densely,
    /// so with `n` nodes, `s` sockets and `p` pools the derived order
    /// lays the specs out in blocks: `n` CPU writes, `s × n` CPU writes
    /// by socket then node, `n` DMA receives, `n` DMA sends, then
    /// `n × p` CXL writes and as many reads, by node then pool. The
    /// spec's slot is read off its block and confirmed against
    /// [`Fabric::specs`].
    ///
    /// # Panics
    ///
    /// Panics if the topology does not admit `spec` (a NUMA node, socket
    /// or pool the platform lacks).
    pub fn stream_id(&self, spec: StreamSpec) -> StreamId {
        let [n, s, p] = self.dims;
        let m = spec.numa().index();
        let slot = match spec {
            StreamSpec::CpuWrite { .. } => m,
            StreamSpec::CpuWriteFrom { socket, .. } => n + socket.index() * n + m,
            StreamSpec::DmaRecv { .. } => (s + 1) * n + m,
            StreamSpec::DmaSend { .. } => (s + 2) * n + m,
            StreamSpec::CxlWrite { pool, .. } => (s + 3) * n + m * p + pool.index(),
            StreamSpec::CxlRead { pool, .. } => (s + 3 + p) * n + m * p + pool.index(),
        };
        match self.specs.get(slot) {
            Some(&at) if at == spec => StreamId(slot as u32),
            _ => panic!(
                "{spec:?} is not a stream of {}",
                self.platform.topology.name
            ),
        }
    }

    /// The platform this fabric simulates.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Number of resources in the fabric.
    pub fn resource_count(&self) -> usize {
        self.graph.len()
    }

    /// Index of a resource kind, if present.
    pub fn resource_index(&self, kind: ResourceKind) -> Option<usize> {
        self.graph.index_of(kind)
    }

    /// Base (quirk-free) DMA demand when receiving into `numa`: wire rate ×
    /// protocol efficiency × per-node NIC efficiency, capped by the narrower
    /// DMA path across the inter-socket link when the buffer is on the
    /// other socket.
    pub fn dma_demand(&self, numa: NumaId) -> f64 {
        let topo = &self.platform.topology;
        let nic = &topo.nic;
        let mut demand = nic.tech.wire_rate()
            * nic.tech.protocol_efficiency()
            * self.platform.behavior.nic_efficiency_for(numa.index());
        demand = demand.min(nic.pcie.usable_bandwidth());
        if topo.dma_crosses_socket_link(numa) {
            if let Some(link) = topo.link_between(nic.socket, topo.socket_of_numa(numa)) {
                demand = demand.min(link.dma_bandwidth);
            }
        }
        demand
    }

    /// Effective capacities given the current accessor population, written
    /// into `scratch.caps` (with per-NUMA accessor counts staged in
    /// `scratch.cpu_on` / `scratch.dma_on`).
    fn capacities_into(&self, streams: &[StreamSpec], scratch: &mut FabricScratch) {
        let behavior = &self.platform.behavior;
        let n_numa = self.ctrl.len();
        scratch.cpu_on.clear();
        scratch.cpu_on.resize(n_numa, 0);
        scratch.dma_on.clear();
        scratch.dma_on.resize(n_numa, 0);
        for s in streams {
            let n = s.numa().index();
            if s.is_dma() {
                scratch.dma_on[n] += 1;
            } else {
                scratch.cpu_on[n] += 1;
            }
        }
        scratch.caps.clear();
        for node in self.graph.nodes() {
            let cap = match node.capacity {
                CapacityRule::Fixed(c) => c,
                CapacityRule::Controller(n) => {
                    let cpu_accessors = f64::from(scratch.cpu_on[n.index()]);
                    let dma_accessors = f64::from(scratch.dma_on[n.index()]);
                    let slots =
                        cpu_accessors + dma_accessors * behavior.arbitration.dma_accessor_weight;
                    behavior.mem_ctrl.effective_capacity(slots)
                }
            };
            scratch.caps.push(cap);
        }
    }

    /// Build the solver flows for a set of streams into `scratch.flows`
    /// (reading the capacities staged in `scratch.caps`). `cpu_scale`
    /// scales the per-core demand uniformly — the knob compute kernels
    /// other than non-temporal `memset` use (a copy kernel moves more
    /// bytes per element, a compute-bound kernel far fewer).
    fn flows_into(&self, streams: &[StreamSpec], cpu_scale: f64, scratch: &mut FabricScratch) {
        let behavior = &self.platform.behavior;
        let topo = &self.platform.topology;
        // Per-core demand depends on how many cores stream together
        // (imperfect-scaling quirk) and on locality.
        let n_cpu = streams.iter().filter(|s| !s.is_dma()).count();
        let caps = &scratch.caps;
        let flows = &mut scratch.flows;
        flows.clear();

        for s in streams {
            let path = self.paths[self.stream_id(*s).index()].as_slice();
            match *s {
                StreamSpec::CpuWrite { numa } | StreamSpec::CpuWriteFrom { numa, .. } => {
                    let local = s.cpu_socket().is_some_and(|c| topo.is_local(c, numa));
                    let demand = behavior.core_stream.demand(n_cpu, local) * cpu_scale;
                    flows.push(FlowClass::Cpu, demand, 0.0, path);
                }
                StreamSpec::DmaRecv { numa } | StreamSpec::DmaSend { numa } => {
                    let demand = self.dma_demand(numa);
                    let floor = behavior.arbitration.dma_floor_fraction * demand;
                    let capped =
                        self.dma_pressure_cap(streams, caps, numa, demand, floor, cpu_scale);
                    flows.push(FlowClass::Dma, capped, floor.min(capped), path);
                }
                // CXL pool streams are core-issued, so they compete in the
                // CPU class: no arbitration floor, no issue-pressure cap.
                // Their demand is the pool's per-stream sustainable rate.
                StreamSpec::CxlWrite { pool, .. } | StreamSpec::CxlRead { pool, .. } => {
                    let demand = topo.cxl_pools[pool.index()].stream_bandwidth;
                    flows.push(FlowClass::Cpu, demand, 0.0, path);
                }
            }
        }
    }

    /// Throttle the DMA demand according to CPU *issue pressure* on the
    /// hardware domains both kinds of streams occupy.
    ///
    /// Cores issue non-temporal stores at their nominal rate whatever their
    /// target; stalled requests occupy the socket mesh and the target
    /// memory controller's queues. The hardware therefore squeezes DMA
    /// according to the issue pressure, not the eventually-granted CPU
    /// bandwidth — which is why communications experience local-config-like
    /// contention in every placement (paper eq. 6 applies the local model
    /// to all non-both-remote placements).
    ///
    /// Domains considered: the target memory controller, the NIC socket's
    /// mesh, and the target socket's mesh. Per domain, the cap decays
    /// linearly from the full demand (utilisation `u0`, 1.0 unless the
    /// platform has the early-decay quirk) to the floor (utilisation `u1`,
    /// where a leftover-based allocation would hit the floor too).
    fn dma_pressure_cap(
        &self,
        streams: &[StreamSpec],
        capacities: &[f64],
        numa: NumaId,
        demand: f64,
        floor: f64,
        cpu_scale: f64,
    ) -> f64 {
        let behavior = &self.platform.behavior;
        let topo = &self.platform.topology;
        if demand <= floor {
            return demand;
        }
        let u0 = behavior.arbitration.soft_decay_start.unwrap_or(1.0);
        let n_cpu = streams.iter().filter(|s| !s.is_dma()).count();
        // Issue rate of one core: its nominal local streaming rate (the
        // core pushes requests at this rate regardless of target locality),
        // scaled by the kernel's traffic factor.
        let issue = behavior.core_stream.demand(n_cpu, true) * cpu_scale;
        let target_socket = topo.socket_of_numa(numa);
        let nic_socket = topo.nic.socket;
        // Architectures with a narrow cross-socket I/O path feel CPU
        // pressure more strongly when the DMA has to cross the link.
        let cross_factor = if target_socket != nic_socket {
            behavior.arbitration.cross_traffic_pressure_factor
        } else {
            1.0
        };
        let link_cap = |from: SocketId, to: SocketId| -> f64 {
            if from == to {
                f64::INFINITY
            } else {
                topo.link_between(from, to)
                    .map(|l| l.cpu_bandwidth)
                    .unwrap_or(f64::INFINITY)
            }
        };
        // CPU pressure a domain on socket `dom` feels: streams are grouped
        // by their source socket; a group issuing from another socket only
        // delivers what the inter-socket link lets through. `filter`
        // selects which streams pressure the domain at all.
        let sockets = topo.sockets.len();
        let grouped_pressure = |dom: SocketId, filter: &dyn Fn(&StreamSpec) -> bool| -> f64 {
            let mut total = 0.0;
            for src_idx in 0..sockets {
                let src = SocketId::new(src_idx as u16);
                let count = streams
                    .iter()
                    .filter(|s| s.cpu_socket() == Some(src) && filter(s))
                    .count();
                total += (count as f64 * issue).min(link_cap(src, dom));
            }
            total
        };

        // (capacity, cpu pressure) per domain — at most three, held inline
        // so a solve allocates nothing.
        let mut domains = [(0.0_f64, 0.0_f64); 3];
        let mut n_domains = 0;
        // Target memory controller: pressure from CPU streams writing to
        // the same node, delivery-capped when they cross the link.
        let ctrl = self.ctrl[numa.index()] as usize;
        let mc_pressure = grouped_pressure(target_socket, &|s| s.numa() == numa);
        domains[n_domains] = (capacities[ctrl], mc_pressure * cross_factor);
        n_domains += 1;
        // Socket meshes the DMA occupies: entry (NIC socket) and landing
        // (target socket). A CPU stream occupies its source socket's mesh
        // (at issue rate — stalled requests queue there) and its target
        // socket's mesh (delivery-capped by the link).
        let mesh_sockets = if target_socket != nic_socket {
            [Some(nic_socket), Some(target_socket)]
        } else {
            [Some(nic_socket), None]
        };
        for mesh in mesh_sockets.into_iter().flatten() {
            let pressure = grouped_pressure(mesh, &|s| {
                s.cpu_socket() == Some(mesh) || topo.socket_of_numa(s.numa()) == mesh
            });
            domains[n_domains] = (behavior.mesh_capacity, pressure * cross_factor);
            n_domains += 1;
        }

        let mut cap = demand;
        for &(c, pressure) in &domains[..n_domains] {
            if c <= 0.0 {
                return floor;
            }
            let u = (pressure + demand) / c;
            let u1 = (c - floor + demand) / c;
            if u <= u0 || u1 <= u0 {
                continue;
            }
            let t = ((u - u0) / (u1 - u0)).clamp(0.0, 1.0);
            cap = cap.min(demand - (demand - floor) * t);
        }
        cap.max(floor)
    }

    /// Solve the steady-state rates of a set of streams (non-temporal
    /// `memset` kernels: unit CPU demand scale).
    pub fn solve(&self, streams: &[StreamSpec]) -> SolveResult {
        self.solve_with(streams, 1.0)
    }

    /// Solve with an explicit CPU demand scale — the per-core traffic of
    /// the compute kernel relative to a non-temporal `memset` (e.g. ≈ 1.15
    /// for a copy kernel, well below 1 for compute-bound kernels).
    ///
    /// Convenience wrapper around [`Fabric::solve_into`] using a
    /// thread-local scratch, so repeated calls only allocate the returned
    /// `SolveResult`.
    pub fn solve_with(&self, streams: &[StreamSpec], cpu_scale: f64) -> SolveResult {
        thread_local! {
            static SCRATCH: RefCell<FabricScratch> = RefCell::new(FabricScratch::default());
        }
        let mut out = SolveResult {
            rates: Vec::new(),
            resource_load: Vec::new(),
            capacities: Vec::new(),
        };
        SCRATCH.with(|s| self.solve_into(streams, cpu_scale, &mut s.borrow_mut(), &mut out));
        out
    }

    /// Solve the steady-state rates of a set of streams into `out`,
    /// reusing `scratch` — the allocation-free core behind
    /// [`Fabric::solve`] / [`Fabric::solve_with`]. After the scratch and
    /// output buffers have warmed up to the platform's sizes, a call
    /// performs no heap allocation.
    pub fn solve_into(
        &self,
        streams: &[StreamSpec],
        cpu_scale: f64,
        scratch: &mut FabricScratch,
        out: &mut SolveResult,
    ) {
        assert!(cpu_scale > 0.0, "cpu_scale must be positive");
        self.capacities_into(streams, scratch);
        self.flows_into(streams, cpu_scale, scratch);
        allocate_into(
            &scratch.caps,
            &scratch.flows,
            &mut scratch.solver,
            &mut scratch.alloc,
        );
        out.rates.clear();
        out.rates.extend_from_slice(&scratch.alloc.rates);
        out.resource_load.clear();
        out.resource_load
            .extend_from_slice(&scratch.alloc.resource_load);
        out.capacities.clear();
        out.capacities.extend_from_slice(&scratch.caps);
    }

    /// Convenience: streams for `n` computing cores writing to `m_comp`,
    /// optionally plus one DMA receive into `m_comm`.
    pub fn benchmark_streams(
        n_cores: usize,
        m_comp: Option<NumaId>,
        m_comm: Option<NumaId>,
    ) -> Vec<StreamSpec> {
        let mut v = Vec::with_capacity(n_cores + 1);
        if let Some(mc) = m_comp {
            v.extend((0..n_cores).map(|_| StreamSpec::CpuWrite { numa: mc }));
        }
        if let Some(mm) = m_comm {
            v.push(StreamSpec::DmaRecv { numa: mm });
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_topology::{platforms, NetworkTech, PcieGen};

    #[test]
    fn resources_cover_all_components() {
        let p = platforms::henri_subnuma();
        let f = Fabric::new(&p);
        // 4 controllers + 2 link directions + pcie + wire = 8.
        assert_eq!(f.resource_count(), 8);
        assert!(f
            .resource_index(ResourceKind::MemCtrl(NumaId::new(3)))
            .is_some());
        assert!(f.resource_index(ResourceKind::NicWire).is_some());
    }

    #[test]
    fn comm_alone_reaches_nominal_bandwidth() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let streams = Fabric::benchmark_streams(0, None, Some(NumaId::new(0)));
        let r = f.solve(&streams);
        let expected = f.dma_demand(NumaId::new(0));
        assert!((r.rates[0] - expected).abs() < 1e-9);
        // EDR ≈ 11.3 GB/s
        assert!((10.5..12.0).contains(&r.rates[0]), "{}", r.rates[0]);
    }

    #[test]
    fn dma_demand_is_capped_by_the_pcie_slot() {
        for p in platforms::extended() {
            let f = Fabric::new(&p);
            let slot = p.topology.nic.pcie.usable_bandwidth();
            for numa in 0..p.topology.numa_count() {
                assert!(
                    f.dma_demand(NumaId::new(numa as u16)) <= slot,
                    "{}",
                    p.name()
                );
            }
        }
        // An HDR NIC mistakenly plugged in a gen3 slot cannot exceed the
        // slot bandwidth — the min() must kick in.
        let mut p = platforms::henri();
        p.topology.nic.tech = NetworkTech::InfinibandHdr;
        p.topology.nic.pcie = PcieGen::GEN3_X16;
        let closest = p.topology.nic.closest_numa;
        assert_eq!(
            Fabric::new(&p).dma_demand(closest),
            PcieGen::GEN3_X16.usable_bandwidth()
        );
    }

    #[test]
    fn compute_alone_scales_then_saturates() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let one = f.solve(&Fabric::benchmark_streams(1, Some(NumaId::new(0)), None));
        assert!(
            (one.cpu_total(&Fabric::benchmark_streams(1, Some(NumaId::new(0)), None)) - 5.6).abs()
                < 1e-9
        );
        let s10 = Fabric::benchmark_streams(10, Some(NumaId::new(0)), None);
        let r10 = f.solve(&s10);
        assert!((r10.cpu_total(&s10) - 56.0).abs() < 1e-9);
        let s17 = Fabric::benchmark_streams(17, Some(NumaId::new(0)), None);
        let r17 = f.solve(&s17);
        let total = r17.cpu_total(&s17);
        // Saturated below the 17*5.6 = 95.2 demand, near controller capacity.
        assert!(total < 95.0);
        assert!(total > 70.0, "{total}");
    }

    #[test]
    fn parallel_total_never_exceeds_controller_capacity() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        for n in 1..=17 {
            let s = Fabric::benchmark_streams(n, Some(NumaId::new(0)), Some(NumaId::new(0)));
            let r = f.solve(&s);
            let ctrl = f
                .resource_index(ResourceKind::MemCtrl(NumaId::new(0)))
                .unwrap();
            assert!(
                r.resource_load[ctrl] <= r.capacities[ctrl] + 1e-6,
                "n={n}: {} > {}",
                r.resource_load[ctrl],
                r.capacities[ctrl]
            );
        }
    }

    #[test]
    fn comm_degrades_to_floor_under_heavy_compute() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let s = Fabric::benchmark_streams(17, Some(NumaId::new(0)), Some(NumaId::new(0)));
        let r = f.solve(&s);
        let comm = r.dma_total(&s);
        let demand = f.dma_demand(NumaId::new(0));
        let floor = p.behavior.arbitration.dma_floor_fraction * demand;
        assert!((comm - floor).abs() < 1e-6, "comm {comm} vs floor {floor}");
    }

    #[test]
    fn no_contention_when_streams_use_different_nodes_and_mesh_is_idle() {
        // henri-subnuma: compute on node 0, comm on node 1 — different
        // controllers. With few cores the shared socket mesh is far from
        // saturation, so both streams keep their nominal rates.
        let p = platforms::henri_subnuma();
        let f = Fabric::new(&p);
        let n = 3; // well below mesh saturation
        let s = Fabric::benchmark_streams(n, Some(NumaId::new(0)), Some(NumaId::new(1)));
        let r = f.solve(&s);
        assert!((r.cpu_total(&s) - 3.0 * 5.6).abs() < 1e-6);
        assert!((r.dma_total(&s) - f.dma_demand(NumaId::new(1))).abs() < 1e-6);
    }

    #[test]
    fn mesh_pressure_throttles_comm_even_across_controllers() {
        // Same placement with many cores: the streams land on different
        // controllers but share the socket mesh, so the NIC is squeezed —
        // the behaviour the paper's eq. 6 encodes by applying the local
        // model to every non-both-remote placement.
        let p = platforms::henri_subnuma();
        let f = Fabric::new(&p);
        let s = Fabric::benchmark_streams(17, Some(NumaId::new(0)), Some(NumaId::new(1)));
        let r = f.solve(&s);
        assert!(r.dma_total(&s) < f.dma_demand(NumaId::new(1)) * 0.5);
    }

    #[test]
    fn diablo_nic_locality_sensitivity() {
        let p = platforms::diablo();
        let f = Fabric::new(&p);
        let to_nic_local = f.dma_demand(NumaId::new(1));
        let to_remote = f.dma_demand(NumaId::new(0));
        assert!(to_nic_local > 20.0, "{to_nic_local}");
        assert!((11.5..13.5).contains(&to_remote), "{to_remote}");
    }

    #[test]
    fn occigen_comm_never_throttled() {
        let p = platforms::occigen();
        let f = Fabric::new(&p);
        let nominal = f.dma_demand(NumaId::new(0));
        for n in 1..=13 {
            let s = Fabric::benchmark_streams(n, Some(NumaId::new(0)), Some(NumaId::new(0)));
            let r = f.solve(&s);
            assert!(
                (r.dma_total(&s) - nominal).abs() < 1e-6,
                "n={n}: {} vs {nominal}",
                r.dma_total(&s)
            );
        }
    }

    #[test]
    fn remote_compute_limited_by_socket_link() {
        let p = platforms::occigen();
        let f = Fabric::new(&p);
        let s = Fabric::benchmark_streams(13, Some(NumaId::new(1)), None);
        let r = f.solve(&s);
        let link_cap = p
            .topology
            .link_between(SocketId::new(0), SocketId::new(1))
            .unwrap()
            .cpu_bandwidth;
        assert!(r.cpu_total(&s) <= link_cap + 1e-6);
        // And the link really is the binding constraint (not the controller).
        assert!((r.cpu_total(&s) - link_cap).abs() < 1e-6);
    }

    #[test]
    fn henri_soft_decay_starts_before_threshold() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let demand = f.dma_demand(NumaId::new(0));
        // At a core count where the hard leftover rule would still give the
        // NIC full demand, the soft-decay quirk already shaves bandwidth.
        // Capacity 80, demand ≈ 11.3: hard squeeze starts at n ≈ 12.3;
        // soft decay (u0 = 0.95) starts at n ≈ 11.9.
        let s12 = Fabric::benchmark_streams(12, Some(NumaId::new(0)), Some(NumaId::new(0)));
        let r12 = f.solve(&s12);
        assert!(
            r12.dma_total(&s12) < demand - 0.2,
            "expected early decay, got {} vs demand {demand}",
            r12.dma_total(&s12)
        );
        // The hard rule alone would leave the NIC untouched here:
        // 12 × 5.6 + 11.3 = 78.5 < 80.
        assert!(12.0 * 5.6 + demand < 80.0);
    }

    #[test]
    fn cpu_write_from_socket_zero_equals_plain_cpu_write() {
        let p = platforms::henri();
        let f = Fabric::new(&p);
        for n in [1usize, 8, 17] {
            let plain = Fabric::benchmark_streams(n, Some(NumaId::new(0)), Some(NumaId::new(0)));
            let explicit: Vec<StreamSpec> = plain
                .iter()
                .map(|s| match *s {
                    StreamSpec::CpuWrite { numa } => StreamSpec::CpuWriteFrom {
                        socket: SocketId::new(0),
                        numa,
                    },
                    other => other,
                })
                .collect();
            assert_eq!(f.solve(&plain).rates, f.solve(&explicit).rates, "n={n}");
        }
    }

    #[test]
    fn both_sockets_hammering_one_node_share_its_controller() {
        // §II-B future work: 9 cores on each socket, all writing to NUMA
        // node 0. Socket-1 cores are link-limited; the controller is the
        // shared bottleneck; total stays within its capacity.
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let mut streams: Vec<StreamSpec> = (0..9)
            .map(|_| StreamSpec::CpuWriteFrom {
                socket: SocketId::new(0),
                numa: NumaId::new(0),
            })
            .collect();
        streams.extend((0..9).map(|_| StreamSpec::CpuWriteFrom {
            socket: SocketId::new(1),
            numa: NumaId::new(0),
        }));
        let solved = f.solve(&streams);
        let total = solved.cpu_total(&streams);
        let ctrl = f
            .resource_index(ResourceKind::MemCtrl(NumaId::new(0)))
            .unwrap();
        assert!(total <= solved.capacities[ctrl] + 1e-9);
        // The remote half cannot exceed the inter-socket link.
        let remote_total: f64 = solved.rates[9..].iter().sum();
        assert!(remote_total <= 36.0 + 1e-9);
        // Mixed access must beat what socket 0 alone could deliver only if
        // the controller has headroom; on henri 18 streams saturate it, so
        // the total sits at the (accessor-degraded) capacity.
        assert!(total > 70.0, "{total}");
    }

    #[test]
    fn mixed_socket_compute_still_squeezes_the_nic() {
        // Cores from both sockets plus the NIC on node 0: the DMA floor
        // still holds (no starvation) and the NIC is squeezed.
        let p = platforms::henri();
        let f = Fabric::new(&p);
        let mut streams: Vec<StreamSpec> = (0..9)
            .map(|_| StreamSpec::CpuWriteFrom {
                socket: SocketId::new(0),
                numa: NumaId::new(0),
            })
            .collect();
        streams.extend((0..9).map(|_| StreamSpec::CpuWriteFrom {
            socket: SocketId::new(1),
            numa: NumaId::new(0),
        }));
        streams.push(StreamSpec::DmaRecv {
            numa: NumaId::new(0),
        });
        let solved = f.solve(&streams);
        let comm = solved.dma_total(&streams);
        let demand = f.dma_demand(NumaId::new(0));
        let floor = p.behavior.arbitration.dma_floor_fraction * demand;
        assert!(comm < demand, "squeezed: {comm} < {demand}");
        assert!(comm >= floor - 1e-9, "floor holds: {comm} >= {floor}");
    }

    #[test]
    fn cxl_platforms_grow_port_and_pool_resources() {
        let p = platforms::henri_cxl();
        let f = Fabric::new(&p);
        // henri's 6 legacy resources plus one port and one pool controller.
        assert_eq!(f.resource_count(), 8);
        assert_eq!(
            f.resource_index(ResourceKind::CxlPort(PoolId::new(0))),
            Some(6)
        );
        assert_eq!(
            f.resource_index(ResourceKind::CxlCtrl(PoolId::new(0))),
            Some(7)
        );
    }

    #[test]
    fn lone_cxl_stream_runs_at_the_pool_stream_bandwidth() {
        let p = platforms::henri_cxl();
        let f = Fabric::new(&p);
        let expected = p.topology.cxl_pools[0].stream_bandwidth;
        for s in [
            StreamSpec::CxlWrite {
                numa: NumaId::new(0),
                pool: PoolId::new(0),
            },
            StreamSpec::CxlRead {
                numa: NumaId::new(1),
                pool: PoolId::new(0),
            },
        ] {
            let r = f.solve(&[s]);
            assert_eq!(r.rates[0].to_bits(), expected.to_bits(), "{s:?}");
        }
    }

    #[test]
    fn many_cxl_streams_saturate_the_pool_controller() {
        let p = platforms::henri_cxl();
        let f = Fabric::new(&p);
        let pool = &p.topology.cxl_pools[0];
        let streams: Vec<StreamSpec> = (0..8)
            .map(|_| StreamSpec::CxlWrite {
                numa: NumaId::new(0),
                pool: pool.id,
            })
            .collect();
        let r = f.solve(&streams);
        // 8 × 6 = 48 GB/s demanded; the 24 GB/s pool controller is the
        // bottleneck (ports carry 32) and max-min splits it evenly.
        assert!((r.cxl_total(&streams) - pool.pool_bandwidth).abs() < 1e-9);
        for rate in &r.rates {
            assert!((rate - pool.pool_bandwidth / 8.0).abs() < 1e-9);
        }
    }

    #[test]
    fn uncontended_messaging_beats_the_cxl_pool() {
        // The NIC wire moves ≈ 11.3 GB/s; a single CXL stream sustains
        // only 6 — with idle cores, classic messaging wins.
        let p = platforms::henri_cxl();
        let f = Fabric::new(&p);
        let dma = f.solve(&[StreamSpec::DmaRecv {
            numa: NumaId::new(0),
        }]);
        let cxl = f.solve(&[StreamSpec::CxlRead {
            numa: NumaId::new(0),
            pool: PoolId::new(0),
        }]);
        assert!(dma.rates[0] > cxl.rates[0] * 1.5, "{:?}", (dma, cxl));
    }

    #[test]
    fn contended_cxl_stream_beats_the_dma_floor() {
        // Under heavy compute the NIC is squeezed to its arbitration
        // floor, but a CXL stream competes in the CPU class and keeps
        // the max-min fair share — the message-free crossover.
        let p = platforms::henri_cxl();
        let f = Fabric::new(&p);
        let compute: Vec<StreamSpec> = (0..17)
            .map(|_| StreamSpec::CpuWrite {
                numa: NumaId::new(0),
            })
            .collect();
        let mut msg = compute.clone();
        msg.push(StreamSpec::DmaRecv {
            numa: NumaId::new(0),
        });
        let mut cxl = compute.clone();
        cxl.push(StreamSpec::CxlRead {
            numa: NumaId::new(0),
            pool: PoolId::new(0),
        });
        let r_msg = f.solve(&msg);
        let r_cxl = f.solve(&cxl);
        let dma = r_msg.dma_total(&msg);
        let via_pool = r_cxl.cxl_total(&cxl);
        assert!(
            via_pool > dma * 1.2,
            "cxl {via_pool} should clearly beat floored dma {dma}"
        );
    }

    /// The hops the fabric hands the solver for one stream.
    fn path_of(f: &Fabric, s: StreamSpec) -> Vec<u32> {
        f.paths[f.stream_id(s).index()].as_slice().to_vec()
    }

    #[test]
    fn cxl_routes_pin_their_hops_on_every_pool_and_numa_node() {
        // Both platforms share one layout: controllers 0 and 1, link
        // 0->1 at 2 and 1->0 at 3, PCIe 4, wire 5, then the pool's port
        // 6 and controller 7. The pool hangs off socket 0.
        for p in [platforms::henri_cxl(), platforms::dahu_cxl()] {
            let f = Fabric::new(&p);
            assert_eq!(p.topology.cxl_pools.len(), 1, "{}", p.name());
            assert_eq!(p.topology.numa_count(), 2, "{}", p.name());
            let pool = PoolId::new(0);
            for (m, write, read) in [
                (0, [0, 6, 7].as_slice(), [7, 6, 0].as_slice()),
                (1, &[1, 3, 6, 7], &[7, 6, 2, 1]),
            ] {
                let numa = NumaId::new(m);
                assert_eq!(
                    path_of(&f, StreamSpec::CxlWrite { numa, pool }),
                    write,
                    "{}: write {m}",
                    p.name()
                );
                assert_eq!(
                    path_of(&f, StreamSpec::CxlRead { numa, pool }),
                    read,
                    "{}: read {m}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn cxl_routes_cross_the_link_only_when_needed() {
        let p = platforms::henri_cxl();
        let f = Fabric::new(&p);
        let pool = p.topology.cxl_pools[0].id;
        // Pool attached to socket 0; a buffer on numa 0 stays on-socket.
        let local = path_of(
            &f,
            StreamSpec::CxlWrite {
                numa: NumaId::new(0),
                pool,
            },
        );
        assert_eq!(local.len(), 3);
        // A buffer on numa 1 (socket 1) crosses the inter-socket link.
        let remote = path_of(
            &f,
            StreamSpec::CxlRead {
                numa: NumaId::new(1),
                pool,
            },
        );
        assert_eq!(remote.len(), 4);
        let link = f
            .resource_index(ResourceKind::LinkDir {
                from: SocketId::new(0),
                to: SocketId::new(1),
            })
            .unwrap() as u32;
        assert!(remote.contains(&link));
    }

    /// Rebuild a fabric whose path table comes from the pre-graph
    /// hardwired builder (the construction `Fabric::from_arc` used
    /// before the resource graph existed), so the tests below can pin
    /// the graph-resolved routes and solves against it bitwise.
    fn legacy_fabric(platform: &Platform) -> Fabric {
        use std::collections::HashMap;
        let platform = Arc::new(platform.clone());
        let topo = &platform.topology;
        let mut kinds = Vec::new();
        for n in topo.numa_ids() {
            kinds.push(ResourceKind::MemCtrl(n));
        }
        for link in &topo.links {
            kinds.push(ResourceKind::LinkDir {
                from: link.a,
                to: link.b,
            });
            kinds.push(ResourceKind::LinkDir {
                from: link.b,
                to: link.a,
            });
        }
        kinds.push(ResourceKind::Pcie(topo.nic.socket));
        kinds.push(ResourceKind::NicWire);
        let index: HashMap<ResourceKind, usize> =
            kinds.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        // The graph must enumerate the legacy kinds in the legacy order
        // (its own bit-identity invariant) — assert it so the shared
        // capacity vector below is laid out identically.
        let graph = ResourceGraph::for_topology(topo);
        for (i, &kind) in kinds.iter().enumerate() {
            assert_eq!(graph.nodes()[i].kind, kind);
        }

        let n_numa = topo.numa_ids().count();
        let n_sockets = topo.sockets.len();
        let nic_socket = topo.nic.socket;
        let link_dir = |from: SocketId, to: SocketId| -> usize {
            *index
                .get(&ResourceKind::LinkDir { from, to })
                .expect("missing inter-socket link resource")
        };
        let mut ctrl = Vec::with_capacity(n_numa);
        let mut dma_recv = Vec::with_capacity(n_numa);
        let mut dma_send = Vec::with_capacity(n_numa);
        let mut cpu = vec![SmallPath::default(); n_sockets * n_numa];
        for numa in topo.numa_ids() {
            let ctrl_idx = index[&ResourceKind::MemCtrl(numa)];
            ctrl.push(ctrl_idx as u32);
            let target_socket = topo.socket_of_numa(numa);
            for s in 0..n_sockets {
                let src = SocketId::new(s as u16);
                let slot = &mut cpu[src.index() * n_numa + numa.index()];
                slot.push(ctrl_idx);
                if target_socket != src {
                    slot.push(link_dir(src, target_socket));
                }
            }
            let mut recv = SmallPath::default();
            recv.push(index[&ResourceKind::NicWire]);
            recv.push(index[&ResourceKind::Pcie(nic_socket)]);
            recv.push(ctrl_idx);
            if target_socket != nic_socket {
                recv.push(link_dir(nic_socket, target_socket));
            }
            dma_recv.push(recv);
            let mut send = SmallPath::default();
            send.push(index[&ResourceKind::NicWire]);
            send.push(index[&ResourceKind::Pcie(nic_socket)]);
            send.push(ctrl_idx);
            if target_socket != nic_socket {
                send.push(link_dir(target_socket, nic_socket));
            }
            dma_send.push(send);
        }
        let mut paths = Vec::new();
        for numa in topo.numa_ids() {
            let m = numa.index();
            // `CpuWrite` writes from socket 0: the first row.
            paths.push((StreamSpec::CpuWrite { numa }, cpu[m]));
            for socket in topo.sockets.iter().map(|s| s.id) {
                let path = cpu[socket.index() * n_numa + m];
                paths.push((StreamSpec::CpuWriteFrom { socket, numa }, path));
            }
            paths.push((StreamSpec::DmaRecv { numa }, dma_recv[m]));
            paths.push((StreamSpec::DmaSend { numa }, dma_send[m]));
        }
        Fabric::numbered(platform, graph, ctrl, paths)
    }

    /// The ids number exactly the specs the topology admits — a CPU
    /// write from socket 0 and from every socket, a DMA receive and send
    /// per NUMA node, and a CXL write and read per node and pool — in
    /// strictly increasing order, and `stream_id` inverts `specs`.
    #[test]
    fn ids_number_the_routed_specs_in_their_order_everywhere() {
        for p in platforms::extended() {
            let f = Fabric::new(&p);
            let topo = &p.topology;
            let mut expected = Vec::new();
            for numa in topo.numa_ids() {
                expected.extend([
                    StreamSpec::CpuWrite { numa },
                    StreamSpec::DmaRecv { numa },
                    StreamSpec::DmaSend { numa },
                ]);
                for s in &topo.sockets {
                    expected.push(StreamSpec::CpuWriteFrom { socket: s.id, numa });
                }
                for pool in &topo.cxl_pools {
                    expected.push(StreamSpec::CxlWrite {
                        numa,
                        pool: pool.id,
                    });
                    expected.push(StreamSpec::CxlRead {
                        numa,
                        pool: pool.id,
                    });
                }
            }
            expected.sort_unstable();
            let specs = f.specs();
            assert!(specs.windows(2).all(|w| w[0] < w[1]), "{}", p.name());
            assert_eq!(specs, expected.as_slice(), "{}", p.name());
            for (i, &spec) in specs.iter().enumerate() {
                assert_eq!(f.stream_id(spec).index(), i, "{}: {spec:?}", p.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "is not a stream of henri")]
    fn a_spec_the_topology_lacks_has_no_id() {
        let f = Fabric::new(&platforms::henri());
        f.stream_id(StreamSpec::CxlRead {
            numa: NumaId::new(0),
            pool: PoolId::new(0),
        });
    }

    #[test]
    fn graph_routes_reproduce_the_legacy_path_tables_everywhere() {
        for p in platforms::extended() {
            let name = p.topology.name.clone();
            let f = Fabric::new(&p);
            let l = legacy_fabric(&p);
            assert_eq!(f.ctrl, l.ctrl, "{name}: ctrl");
            // Every DRAM and NIC spec the legacy builder knew; the fabric
            // adds only the CXL specs on top.
            let cxl = f.specs.iter().filter(|s| s.pool().is_some()).count();
            assert_eq!(f.specs.len(), l.specs.len() + cxl, "{name}: specs");
            for (&spec, legacy) in l.specs.iter().zip(l.paths.iter()) {
                assert_eq!(path_of(&f, spec), legacy.as_slice(), "{name}: {spec:?}");
            }
        }
    }

    mod graph_bit_identity {
        use super::*;
        use proptest::prelude::*;

        /// A pseudo-random legacy stream multiset (no CXL — those did
        /// not exist before the graph) over the platform's NUMA nodes.
        fn streams_for(
            p: &Platform,
            cores: usize,
            remote_cores: usize,
            comp_pick: usize,
            comm_pick: usize,
            with_recv: bool,
            with_send: bool,
        ) -> Vec<StreamSpec> {
            let n_numa = p.topology.numa_ids().count();
            let n_sockets = p.topology.sockets.len();
            let comp = NumaId::new((comp_pick % n_numa) as u16);
            let comm = NumaId::new((comm_pick % n_numa) as u16);
            let mut v: Vec<StreamSpec> = (0..cores)
                .map(|_| StreamSpec::CpuWrite { numa: comp })
                .collect();
            v.extend((0..remote_cores).map(|_| StreamSpec::CpuWriteFrom {
                socket: SocketId::new((n_sockets - 1) as u16),
                numa: comp,
            }));
            if with_recv {
                v.push(StreamSpec::DmaRecv { numa: comm });
            }
            if with_send {
                v.push(StreamSpec::DmaSend { numa: comm });
            }
            v
        }

        proptest! {
            /// The graph-built fabric solves every legacy stream
            /// multiset bit-identically to the hardwired builder, on
            /// every built-in platform (CXL variants included — their
            /// extra nodes must not perturb DRAM/NIC solves).
            #[test]
            fn solves_are_bitwise_equal_to_the_legacy_builder(
                pick in 0usize..64,
                cores in 0usize..18,
                remote_cores in 0usize..6,
                comp_pick in 0usize..8,
                comm_pick in 0usize..8,
                recv_pick in 0usize..2,
                send_pick in 0usize..2,
                cpu_scale in 0.25f64..2.0,
            ) {
                let all = platforms::extended();
                let p = &all[pick % all.len()];
                let streams = streams_for(p, cores, remote_cores, comp_pick, comm_pick, recv_pick == 1, send_pick == 1);
                let f = Fabric::new(p);
                let l = legacy_fabric(p);
                let a = f.solve_with(&streams, cpu_scale);
                let b = l.solve_with(&streams, cpu_scale);
                prop_assert_eq!(a.rates.len(), b.rates.len());
                for (x, y) in a.rates.iter().zip(&b.rates) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "rate {} != {}", x, y);
                }
                for (x, y) in a.resource_load.iter().zip(&b.resource_load) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "load {} != {}", x, y);
                }
                for (x, y) in a.capacities.iter().zip(&b.capacities) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "cap {} != {}", x, y);
                }
            }
        }
    }
}
