//! The fabric: resources and flow construction for a concrete platform.
//!
//! A [`Fabric`] is built once per [`Platform`]. Given the set of currently
//! active streams (CPU cores writing to a NUMA node, NIC DMA writing
//! received data to a NUMA node), it builds the corresponding resource
//! capacities and flow requests, applies the platform quirks, and runs the
//! tiered max-min solver to obtain every stream's instantaneous rate.

use std::cell::RefCell;
use std::sync::Arc;

use mc_topology::graph::{CapacityRule, ResourceGraph, RouteSpec};
use mc_topology::{NumaId, Platform, PoolId, SocketId};

use crate::solver::{allocate_into, Allocation, FlowClass, FlowSet, SolverScratch};

/// What kind of hardware component a resource index denotes.
///
/// Re-exported from the declarative resource graph in `mc-topology`
/// ([`mc_topology::graph`]), where the node set and routes of a platform
/// are now defined; the fabric consumes the graph and keeps the solver
/// on plain indices.
pub use mc_topology::graph::ResourceKind;

/// One active stream, as seen by the fabric.
///
/// The derived ordering is what [`crate::delta::ActiveSet`] sorts by to
/// canonicalise a stream multiset — any total order works, it only has to
/// be consistent, but it fixes the canonical expansion a multiset is
/// solved on and therefore the last bits of its rates.
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
            .filter(|(_, s)| !s.is_dma() && s.pool().is_none())
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

/// A flow path as stored in the precomputed path table: at most four
/// resource indices (NIC wire, PCIe, memory controller, inter-socket
/// link — or controller, link, CXL port, pool controller), inline so
/// lookups touch no heap.
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

/// Every flow path the fabric can ever hand to the solver, precomputed at
/// [`Fabric::new`] per `(StreamSpec kind, source socket, target NUMA)`
/// by resolving [`RouteSpec`]s against the platform's [`ResourceGraph`].
/// Replaces the per-solve `HashMap<ResourceKind, usize>` lookups of the
/// old path builders.
#[derive(Debug, Clone)]
struct PathTable {
    n_numa: usize,
    /// Memory-controller resource index per NUMA node.
    ctrl: Vec<u32>,
    /// CPU write path per `(source socket, target NUMA)`, indexed by
    /// `socket.index() * n_numa + numa.index()`.
    cpu: Vec<SmallPath>,
    /// NIC DMA receive path per target NUMA node.
    dma_recv: Vec<SmallPath>,
    /// NIC DMA send (NIC read) path per source NUMA node.
    dma_send: Vec<SmallPath>,
    /// CXL pool write path per `(pool, source NUMA)`, indexed by
    /// `pool.index() * n_numa + numa.index()`. Empty without pools.
    cxl_write: Vec<SmallPath>,
    /// CXL pool read path per `(pool, destination NUMA)`, same layout.
    cxl_read: Vec<SmallPath>,
}

impl PathTable {
    fn cpu(&self, socket: SocketId, numa: NumaId) -> &[u32] {
        self.cpu[socket.index() * self.n_numa + numa.index()].as_slice()
    }

    fn dma_recv(&self, numa: NumaId) -> &[u32] {
        self.dma_recv[numa.index()].as_slice()
    }

    fn dma_send(&self, numa: NumaId) -> &[u32] {
        self.dma_send[numa.index()].as_slice()
    }

    fn cxl_write(&self, pool: PoolId, numa: NumaId) -> &[u32] {
        self.cxl_write[pool.index() * self.n_numa + numa.index()].as_slice()
    }

    fn cxl_read(&self, pool: PoolId, numa: NumaId) -> &[u32] {
        self.cxl_read[pool.index() * self.n_numa + numa.index()].as_slice()
    }
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
    paths: PathTable,
}

impl Fabric {
    /// Build the fabric for a platform (clones it once into an
    /// [`Arc`]; use [`Fabric::from_arc`] to share an existing one).
    pub fn new(platform: &Platform) -> Self {
        Self::from_arc(Arc::new(platform.clone()))
    }

    /// Build the fabric around a shared platform without cloning it.
    ///
    /// The node set comes from [`ResourceGraph::for_topology`] and every
    /// path the solver can ever see is resolved here, once, via
    /// [`ResourceGraph::route`]. The graph preserves the historical node
    /// emission and hop orders (see its module docs), so solves on
    /// platforms without CXL pools stay bit-identical to the old
    /// hardwired builder.
    pub fn from_arc(platform: Arc<Platform>) -> Self {
        let topo = &platform.topology;
        let graph = ResourceGraph::for_topology(topo);

        let n_numa = topo.numa_ids().count();
        let n_sockets = topo.sockets.len();
        let n_pools = topo.cxl_pools.len();
        let mut hops: Vec<u32> = Vec::with_capacity(4);
        let mut resolve = |spec: RouteSpec| -> SmallPath {
            hops.clear();
            graph.route(topo, spec, &mut hops);
            let mut path = SmallPath::default();
            for &i in &hops {
                path.push(i as usize);
            }
            path
        };

        let mut ctrl = Vec::with_capacity(n_numa);
        let mut dma_recv = Vec::with_capacity(n_numa);
        let mut dma_send = Vec::with_capacity(n_numa);
        let mut cpu = Vec::with_capacity(n_sockets * n_numa);
        for s in 0..n_sockets {
            let socket = SocketId::new(s as u16);
            for numa in topo.numa_ids() {
                cpu.push(resolve(RouteSpec::CpuWrite { socket, numa }));
            }
        }
        for numa in topo.numa_ids() {
            dma_recv.push(resolve(RouteSpec::DmaRecv { numa }));
            dma_send.push(resolve(RouteSpec::DmaSend { numa }));
        }
        let mut cxl_write = Vec::with_capacity(n_pools * n_numa);
        let mut cxl_read = Vec::with_capacity(n_pools * n_numa);
        for pool in topo.cxl_pools.iter().map(|p| p.id) {
            for numa in topo.numa_ids() {
                cxl_write.push(resolve(RouteSpec::CxlWrite { numa, pool }));
                cxl_read.push(resolve(RouteSpec::CxlRead { numa, pool }));
            }
        }
        for numa in topo.numa_ids() {
            let ctrl_idx = graph
                .index_of(ResourceKind::MemCtrl(numa))
                .expect("every NUMA node has a controller");
            ctrl.push(ctrl_idx as u32);
        }

        Fabric {
            platform,
            graph,
            paths: PathTable {
                n_numa,
                ctrl,
                cpu,
                dma_recv,
                dma_send,
                cxl_write,
                cxl_read,
            },
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
        let n_numa = self.paths.n_numa;
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
            match *s {
                StreamSpec::CpuWrite { numa } => {
                    let local = topo.is_local(SocketId::new(0), numa);
                    let demand = behavior.core_stream.demand(n_cpu, local) * cpu_scale;
                    flows.push(
                        FlowClass::Cpu,
                        demand,
                        0.0,
                        self.paths.cpu(SocketId::new(0), numa),
                    );
                }
                StreamSpec::CpuWriteFrom { socket, numa } => {
                    let local = topo.is_local(socket, numa);
                    let demand = behavior.core_stream.demand(n_cpu, local) * cpu_scale;
                    flows.push(FlowClass::Cpu, demand, 0.0, self.paths.cpu(socket, numa));
                }
                StreamSpec::DmaRecv { numa } => {
                    let demand = self.dma_demand(numa);
                    let floor = behavior.arbitration.dma_floor_fraction * demand;
                    let capped =
                        self.dma_pressure_cap(streams, caps, numa, demand, floor, cpu_scale);
                    flows.push(
                        FlowClass::Dma,
                        capped,
                        floor.min(capped),
                        self.paths.dma_recv(numa),
                    );
                }
                StreamSpec::DmaSend { numa } => {
                    let demand = self.dma_demand(numa);
                    let floor = behavior.arbitration.dma_floor_fraction * demand;
                    let capped =
                        self.dma_pressure_cap(streams, caps, numa, demand, floor, cpu_scale);
                    flows.push(
                        FlowClass::Dma,
                        capped,
                        floor.min(capped),
                        self.paths.dma_send(numa),
                    );
                }
                // CXL pool streams are core-issued, so they compete in the
                // CPU class: no arbitration floor, no issue-pressure cap.
                // Their demand is the pool's per-stream sustainable rate.
                StreamSpec::CxlWrite { numa, pool } => {
                    let demand = topo.cxl_pools[pool.index()].stream_bandwidth;
                    flows.push(
                        FlowClass::Cpu,
                        demand,
                        0.0,
                        self.paths.cxl_write(pool, numa),
                    );
                }
                StreamSpec::CxlRead { numa, pool } => {
                    let demand = topo.cxl_pools[pool.index()].stream_bandwidth;
                    flows.push(FlowClass::Cpu, demand, 0.0, self.paths.cxl_read(pool, numa));
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
        let ctrl = self.paths.ctrl[numa.index()] as usize;
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

/// Check that `FlowClass` mapping matches `StreamSpec` (compile-time
/// assurance for maintainers; used in tests).
pub fn class_of(stream: &StreamSpec) -> FlowClass {
    if stream.is_dma() {
        FlowClass::Dma
    } else {
        FlowClass::Cpu
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
    fn class_of_matches_stream_kind() {
        assert_eq!(
            class_of(&StreamSpec::CpuWrite {
                numa: NumaId::new(0)
            }),
            FlowClass::Cpu
        );
        assert_eq!(
            class_of(&StreamSpec::DmaRecv {
                numa: NumaId::new(0)
            }),
            FlowClass::Dma
        );
        // CXL pool streams are core-issued: CPU class.
        assert_eq!(
            class_of(&StreamSpec::CxlRead {
                numa: NumaId::new(0),
                pool: PoolId::new(0)
            }),
            FlowClass::Cpu
        );
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
        Fabric {
            platform,
            graph,
            paths: PathTable {
                n_numa,
                ctrl,
                cpu,
                dma_recv,
                dma_send,
                cxl_write: Vec::new(),
                cxl_read: Vec::new(),
            },
        }
    }

    #[test]
    fn graph_routes_reproduce_the_legacy_path_tables_everywhere() {
        for p in platforms::extended() {
            let name = p.topology.name.clone();
            let f = Fabric::new(&p);
            let l = legacy_fabric(&p);
            assert_eq!(f.paths.ctrl, l.paths.ctrl, "{name}: ctrl");
            let n_numa = f.paths.n_numa;
            for s in 0..p.topology.sockets.len() {
                for m in 0..n_numa {
                    let (socket, numa) = (SocketId::new(s as u16), NumaId::new(m as u16));
                    assert_eq!(
                        f.paths.cpu(socket, numa),
                        l.paths.cpu(socket, numa),
                        "{name}: cpu {s}->{m}"
                    );
                }
            }
            for m in 0..n_numa {
                let numa = NumaId::new(m as u16);
                assert_eq!(
                    f.paths.dma_recv(numa),
                    l.paths.dma_recv(numa),
                    "{name}: recv {m}"
                );
                assert_eq!(
                    f.paths.dma_send(numa),
                    l.paths.dma_send(numa),
                    "{name}: send {m}"
                );
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
