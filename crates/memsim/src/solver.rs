//! Tiered max-min fair bandwidth allocation.
//!
//! This is the arbitration core of the simulator. Given a set of resources
//! (memory controllers, inter-socket bus directions, PCIe links, the NIC
//! wire) with finite capacities, and a set of flows each following a path
//! through some of those resources, it computes the steady-state rate of
//! every flow under the arbitration rules the paper hypothesises (§II-A):
//!
//! 1. **DMA floors first** — a minimal bandwidth is reserved for DMA flows
//!    on every resource they cross, "to prevent starvations";
//! 2. **CPU tier** — CPU flows are filled max-min fairly within the
//!    remaining capacity ("the performance of computations decreases
//!    uniformly between computing cores"), each capped at its own demand;
//! 3. **DMA tier** — DMA flows then share whatever capacity is left, again
//!    max-min fairly, between their floor and their demand.
//!
//! Max-min fairness is computed by classic progressive filling: all
//! unfrozen flows grow at the same rate; a flow freezes when it reaches its
//! cap or when a resource on its path saturates.

/// Index of a resource in the solver input.
pub type ResourceIdx = usize;

/// Class of a flow, deciding its arbitration tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowClass {
    /// CPU-initiated traffic (loads/stores from computing cores). Higher
    /// priority: memory requests from cores win over PCIe requests.
    Cpu,
    /// PCIe-initiated traffic (NIC DMA). Lower priority but with a
    /// guaranteed floor.
    Dma,
}

/// One flow to allocate.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReq {
    /// Resources this flow crosses (deduplicated; order irrelevant).
    pub path: Vec<ResourceIdx>,
    /// Maximum rate the flow can use (its demand), in GB/s.
    pub demand: f64,
    /// Guaranteed minimum rate, in GB/s. Must be `<= demand`. Only
    /// meaningful for [`FlowClass::Dma`]; CPU flows use 0.
    pub floor: f64,
    /// Arbitration class.
    pub class: FlowClass,
}

impl FlowReq {
    /// A CPU flow with the given path and demand.
    pub fn cpu(path: Vec<ResourceIdx>, demand: f64) -> Self {
        FlowReq {
            path,
            demand,
            floor: 0.0,
            class: FlowClass::Cpu,
        }
    }

    /// A DMA flow with the given path, demand and guaranteed floor.
    pub fn dma(path: Vec<ResourceIdx>, demand: f64, floor: f64) -> Self {
        FlowReq {
            path,
            demand,
            floor,
            class: FlowClass::Dma,
        }
    }
}

/// Outcome of an allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Allocation {
    /// Rate granted to each flow, same order as the input, in GB/s.
    pub rates: Vec<f64>,
    /// Capacity used on each resource, same order as the input, in GB/s.
    pub resource_load: Vec<f64>,
}

const EPS: f64 = 1e-9;

/// Progressive-filling max-min within `remaining` capacities.
///
/// `extras[i]` is the maximum additional rate flow `i` may receive;
/// the returned vector holds the granted additional rate. `remaining` is
/// updated in place.
fn max_min_fill(
    flows: &[FlowReq],
    mask: &[bool],
    extras: &[f64],
    remaining: &mut [f64],
) -> Vec<f64> {
    let n = flows.len();
    let mut granted = vec![0.0; n];
    let mut active: Vec<usize> = (0..n)
        .filter(|&i| mask[i] && extras[i] > EPS && !flows[i].path.is_empty())
        .collect();
    // Flows with an empty path are only limited by their own demand.
    for i in 0..n {
        if mask[i] && flows[i].path.is_empty() {
            granted[i] = extras[i];
        }
    }

    while !active.is_empty() {
        // Count active flows per resource.
        let mut counts = vec![0usize; remaining.len()];
        for &i in &active {
            for &r in &flows[i].path {
                counts[r] += 1;
            }
        }
        // Largest uniform increment before a flow caps or a resource
        // saturates.
        let mut delta = f64::INFINITY;
        for &i in &active {
            delta = delta.min(extras[i] - granted[i]);
        }
        for (r, &c) in counts.iter().enumerate() {
            if c > 0 {
                delta = delta.min(remaining[r] / c as f64);
            }
        }
        if !delta.is_finite() || delta < 0.0 {
            break;
        }
        // Apply the increment.
        for &i in &active {
            granted[i] += delta;
            for &r in &flows[i].path {
                remaining[r] -= delta;
            }
        }
        // Freeze flows that reached their cap or hit a saturated resource.
        let before = active.len();
        active.retain(|&i| {
            if extras[i] - granted[i] <= EPS {
                return false;
            }
            flows[i].path.iter().all(|&r| remaining[r] > EPS)
        });
        if active.len() == before && delta <= EPS {
            // No progress possible (numerical corner); stop.
            break;
        }
    }
    granted
}

/// Allocate rates to `flows` over resources of the given `capacities`.
///
/// See the module documentation for the tier semantics. Floors that are
/// collectively infeasible on a resource are scaled down proportionally so
/// the allocation never exceeds capacity.
pub fn allocate(capacities: &[f64], flows: &[FlowReq]) -> Allocation {
    let n = flows.len();
    let mut remaining: Vec<f64> = capacities.to_vec();
    let mut rates = vec![0.0; n];

    // --- Tier 0: reserve DMA floors (scaled down if infeasible). ---------
    let mut floor_scale = 1.0_f64;
    for (r, &cap) in capacities.iter().enumerate() {
        let floor_sum: f64 = flows
            .iter()
            .filter(|f| f.class == FlowClass::Dma && f.path.contains(&r))
            .map(|f| f.floor)
            .sum();
        if floor_sum > cap {
            floor_scale = floor_scale.min(cap / floor_sum);
        }
    }
    for (i, f) in flows.iter().enumerate() {
        if f.class == FlowClass::Dma {
            let fl = (f.floor * floor_scale).min(f.demand);
            rates[i] = fl;
            for &r in &f.path {
                remaining[r] = (remaining[r] - fl).max(0.0);
            }
        }
    }

    // --- Tier 1: CPU flows, max-min within what floors left. -------------
    let cpu_mask: Vec<bool> = flows.iter().map(|f| f.class == FlowClass::Cpu).collect();
    let cpu_extras: Vec<f64> = flows
        .iter()
        .map(|f| {
            if f.class == FlowClass::Cpu {
                f.demand
            } else {
                0.0
            }
        })
        .collect();
    let granted = max_min_fill(flows, &cpu_mask, &cpu_extras, &mut remaining);
    for i in 0..n {
        rates[i] += granted[i];
    }

    // --- Tier 2: DMA flows, floor..demand, max-min in the leftovers. -----
    let dma_mask: Vec<bool> = flows.iter().map(|f| f.class == FlowClass::Dma).collect();
    let dma_extras: Vec<f64> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            if f.class == FlowClass::Dma {
                (f.demand - rates[i]).max(0.0)
            } else {
                0.0
            }
        })
        .collect();
    let granted = max_min_fill(flows, &dma_mask, &dma_extras, &mut remaining);
    for i in 0..n {
        rates[i] += granted[i];
    }

    let mut resource_load = vec![0.0; capacities.len()];
    for (i, f) in flows.iter().enumerate() {
        for &r in &f.path {
            resource_load[r] += rates[i];
        }
    }
    Allocation {
        rates,
        resource_load,
    }
}

// ------------------------------------------------------------------------
// Zero-allocation solve path
//
// The discrete-event engine calls the solver at every event — thousands of
// times per run, once per (placement × core count × phase) point of every
// sweep. The `allocate` entry point above allocates roughly a dozen vectors
// per call; the arena/scratch path below performs the *identical*
// arithmetic (same operations in the same order, hence bit-identical
// results — property-tested in `tests/engine_props.rs`) with zero heap
// allocation after warm-up.

/// A set of flows in structure-of-arrays form with all paths flattened
/// into one offsets + indices arena.
///
/// Building a `FlowSet` reuses its buffers across [`FlowSet::clear`]
/// cycles, so a warm set never allocates. Flow order is the push order and
/// is significant: the solver's progressive filling visits flows in index
/// order, exactly like [`allocate`] visits its `&[FlowReq]` slice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowSet {
    /// `path_off[i]..path_off[i+1]` indexes `path_idx` for flow `i`.
    path_off: Vec<u32>,
    /// Flattened resource indices of all paths.
    path_idx: Vec<u32>,
    demand: Vec<f64>,
    floor: Vec<f64>,
    class: Vec<FlowClass>,
}

impl FlowSet {
    /// An empty flow set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.class.len()
    }

    /// Whether the set holds no flows.
    pub fn is_empty(&self) -> bool {
        self.class.is_empty()
    }

    /// Remove all flows, keeping the buffers.
    pub fn clear(&mut self) {
        self.path_off.clear();
        self.path_idx.clear();
        self.demand.clear();
        self.floor.clear();
        self.class.clear();
    }

    /// Append one flow crossing the resources in `path` (same semantics as
    /// [`FlowReq::path`]: deduplicated, order preserved).
    pub fn push(&mut self, class: FlowClass, demand: f64, floor: f64, path: &[u32]) {
        if self.path_off.is_empty() {
            self.path_off.push(0);
        }
        self.path_idx.extend_from_slice(path);
        self.path_off.push(self.path_idx.len() as u32);
        self.demand.push(demand);
        self.floor.push(floor);
        self.class.push(class);
    }

    /// Append a [`FlowReq`] (reference-form flow).
    pub fn push_req(&mut self, req: &FlowReq) {
        if self.path_off.is_empty() {
            self.path_off.push(0);
        }
        self.path_idx.extend(req.path.iter().map(|&r| r as u32));
        self.path_off.push(self.path_idx.len() as u32);
        self.demand.push(req.demand);
        self.floor.push(req.floor);
        self.class.push(req.class);
    }

    /// Build a set from reference-form flows.
    pub fn from_reqs(reqs: &[FlowReq]) -> Self {
        let mut set = FlowSet::new();
        for req in reqs {
            set.push_req(req);
        }
        set
    }

    /// Path of flow `i` as resource indices.
    #[inline]
    fn path(&self, i: usize) -> &[u32] {
        &self.path_idx[self.path_off[i] as usize..self.path_off[i + 1] as usize]
    }

    /// Arbitration class of flow `i`.
    pub fn class_of(&self, i: usize) -> FlowClass {
        self.class[i]
    }

    /// Demand of flow `i`.
    pub fn demand_of(&self, i: usize) -> f64 {
        self.demand[i]
    }
}

/// Reusable buffers for [`allocate_into`]. One scratch per thread (or per
/// engine) amortises every solver allocation away.
#[derive(Debug, Clone, Default)]
pub struct SolverScratch {
    remaining: Vec<f64>,
    extras: Vec<f64>,
    granted: Vec<f64>,
    active: Vec<u32>,
    counts: Vec<u32>,
}

/// Progressive filling over the arena representation. Identical arithmetic
/// to [`max_min_fill`], writing granted rates into `scratch.granted`.
fn max_min_fill_pooled(flows: &FlowSet, tier: FlowClass, scratch: &mut SolverScratch) {
    let n = flows.len();
    scratch.granted.clear();
    scratch.granted.resize(n, 0.0);
    scratch.active.clear();
    for i in 0..n {
        if flows.class[i] == tier {
            if flows.path_off[i + 1] == flows.path_off[i] {
                // Flows with an empty path are only limited by their own
                // demand.
                scratch.granted[i] = scratch.extras[i];
            } else if scratch.extras[i] > EPS {
                scratch.active.push(i as u32);
            }
        }
    }

    while !scratch.active.is_empty() {
        // Count active flows per resource.
        scratch.counts.clear();
        scratch.counts.resize(scratch.remaining.len(), 0);
        for &i in &scratch.active {
            for &r in flows.path(i as usize) {
                scratch.counts[r as usize] += 1;
            }
        }
        // Largest uniform increment before a flow caps or a resource
        // saturates.
        let mut delta = f64::INFINITY;
        for &i in &scratch.active {
            delta = delta.min(scratch.extras[i as usize] - scratch.granted[i as usize]);
        }
        for (r, &c) in scratch.counts.iter().enumerate() {
            if c > 0 {
                delta = delta.min(scratch.remaining[r] / c as f64);
            }
        }
        if !delta.is_finite() || delta < 0.0 {
            break;
        }
        // Apply the increment.
        for &i in &scratch.active {
            scratch.granted[i as usize] += delta;
            for &r in flows.path(i as usize) {
                scratch.remaining[r as usize] -= delta;
            }
        }
        // Freeze flows that reached their cap or hit a saturated resource.
        let before = scratch.active.len();
        let (active, granted, extras, remaining) = (
            &mut scratch.active,
            &scratch.granted,
            &scratch.extras,
            &scratch.remaining,
        );
        active.retain(|&i| {
            if extras[i as usize] - granted[i as usize] <= EPS {
                return false;
            }
            flows
                .path(i as usize)
                .iter()
                .all(|&r| remaining[r as usize] > EPS)
        });
        if active.len() == before && delta <= EPS {
            // No progress possible (numerical corner); stop.
            break;
        }
    }
}

/// Allocate rates to the flows of `flows`, writing into `out` — the
/// zero-allocation twin of [`allocate`].
///
/// `out.rates` and `out.resource_load` are cleared and refilled in place;
/// `scratch` buffers are reused across calls. The arithmetic (operation
/// order included) matches [`allocate`] exactly, so the results are
/// bit-identical — relied upon by the engine's solve memoization and
/// asserted by property tests.
pub fn allocate_into(
    capacities: &[f64],
    flows: &FlowSet,
    scratch: &mut SolverScratch,
    out: &mut Allocation,
) {
    let n = flows.len();
    scratch.remaining.clear();
    scratch.remaining.extend_from_slice(capacities);
    out.rates.clear();
    out.rates.resize(n, 0.0);

    // --- Tier 0: reserve DMA floors (scaled down if infeasible). ---------
    let mut floor_scale = 1.0_f64;
    for (r, &cap) in capacities.iter().enumerate() {
        let mut floor_sum = 0.0;
        for i in 0..n {
            if flows.class[i] == FlowClass::Dma && flows.path(i).contains(&(r as u32)) {
                floor_sum += flows.floor[i];
            }
        }
        if floor_sum > cap {
            floor_scale = floor_scale.min(cap / floor_sum);
        }
    }
    for i in 0..n {
        if flows.class[i] == FlowClass::Dma {
            let fl = (flows.floor[i] * floor_scale).min(flows.demand[i]);
            out.rates[i] = fl;
            for &r in flows.path(i) {
                scratch.remaining[r as usize] = (scratch.remaining[r as usize] - fl).max(0.0);
            }
        }
    }

    // --- Tier 1: CPU flows, max-min within what floors left. -------------
    scratch.extras.clear();
    for i in 0..n {
        scratch.extras.push(if flows.class[i] == FlowClass::Cpu {
            flows.demand[i]
        } else {
            0.0
        });
    }
    max_min_fill_pooled(flows, FlowClass::Cpu, scratch);
    for i in 0..n {
        out.rates[i] += scratch.granted[i];
    }

    // --- Tier 2: DMA flows, floor..demand, max-min in the leftovers. -----
    scratch.extras.clear();
    for i in 0..n {
        scratch.extras.push(if flows.class[i] == FlowClass::Dma {
            (flows.demand[i] - out.rates[i]).max(0.0)
        } else {
            0.0
        });
    }
    max_min_fill_pooled(flows, FlowClass::Dma, scratch);
    for i in 0..n {
        out.rates[i] += scratch.granted[i];
    }

    out.resource_load.clear();
    out.resource_load.resize(capacities.len(), 0.0);
    for i in 0..n {
        for &r in flows.path(i) {
            out.resource_load[r as usize] += out.rates[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn single_cpu_flow_gets_its_demand() {
        let alloc = allocate(&[100.0], &[FlowReq::cpu(vec![0], 5.0)]);
        assert_close(alloc.rates[0], 5.0);
        assert_close(alloc.resource_load[0], 5.0);
    }

    #[test]
    fn cpu_flows_share_saturated_resource_equally() {
        let flows: Vec<FlowReq> = (0..4).map(|_| FlowReq::cpu(vec![0], 5.0)).collect();
        let alloc = allocate(&[10.0], &flows);
        for r in &alloc.rates {
            assert_close(*r, 2.5);
        }
    }

    #[test]
    fn dma_floor_is_honoured_under_cpu_pressure() {
        // 10 CPU flows of 5 want 50 on a 20-capacity controller; the DMA
        // flow keeps its floor of 3.
        let mut flows: Vec<FlowReq> = (0..10).map(|_| FlowReq::cpu(vec![0], 5.0)).collect();
        flows.push(FlowReq::dma(vec![0], 11.0, 3.0));
        let alloc = allocate(&[20.0], &flows);
        assert_close(alloc.rates[10], 3.0);
        let cpu_total: f64 = alloc.rates[..10].iter().sum();
        assert_close(cpu_total, 17.0);
    }

    #[test]
    fn dma_gets_leftover_up_to_demand_when_cpu_is_light() {
        let flows = vec![FlowReq::cpu(vec![0], 5.0), FlowReq::dma(vec![0], 11.0, 3.0)];
        let alloc = allocate(&[100.0], &flows);
        assert_close(alloc.rates[0], 5.0);
        assert_close(alloc.rates[1], 11.0);
    }

    #[test]
    fn dma_squeezed_gradually_as_cpu_grows() {
        // Capacity 20; CPU requests grow; DMA demand 11, floor 3.
        // leftover(n) = 20 - 5n; dma = clamp(leftover, 3, 11).
        for (n, expected) in [(1, 11.0), (2, 10.0), (3, 5.0), (4, 3.0)] {
            let mut flows: Vec<FlowReq> = (0..n).map(|_| FlowReq::cpu(vec![0], 5.0)).collect();
            flows.push(FlowReq::dma(vec![0], 11.0, 3.0));
            let alloc = allocate(&[20.0], &flows);
            assert_close(alloc.rates[n], expected);
        }
    }

    #[test]
    fn no_resource_is_over_capacity() {
        let flows = vec![
            FlowReq::cpu(vec![0, 1], 30.0),
            FlowReq::cpu(vec![0], 30.0),
            FlowReq::dma(vec![1, 2], 30.0, 4.0),
        ];
        let caps = [25.0, 18.0, 12.0];
        let alloc = allocate(&caps, &flows);
        for (load, cap) in alloc.resource_load.iter().zip(&caps) {
            assert!(*load <= cap + 1e-6, "{load} > {cap}");
        }
    }

    #[test]
    fn multi_resource_path_limited_by_tightest() {
        // A flow crossing both a wide and a narrow resource is limited by
        // the narrow one.
        let alloc = allocate(&[100.0, 8.0], &[FlowReq::cpu(vec![0, 1], 50.0)]);
        assert_close(alloc.rates[0], 8.0);
    }

    #[test]
    fn infeasible_floors_are_scaled() {
        let flows = vec![
            FlowReq::dma(vec![0], 10.0, 8.0),
            FlowReq::dma(vec![0], 10.0, 8.0),
        ];
        let alloc = allocate(&[8.0], &flows);
        assert_close(alloc.rates[0], 4.0);
        assert_close(alloc.rates[1], 4.0);
        assert!(alloc.resource_load[0] <= 8.0 + 1e-6);
    }

    #[test]
    fn cpu_priority_over_dma_beyond_floor() {
        // Capacity 10, CPU demands 8, DMA demand 8 floor 1: CPU gets its
        // full 8, DMA gets 2 (floor 1 + leftover 1).
        let flows = vec![FlowReq::cpu(vec![0], 8.0), FlowReq::dma(vec![0], 8.0, 1.0)];
        let alloc = allocate(&[10.0], &flows);
        assert_close(alloc.rates[0], 8.0);
        assert_close(alloc.rates[1], 2.0);
    }

    #[test]
    fn empty_path_flow_gets_demand() {
        let alloc = allocate(&[], &[FlowReq::cpu(vec![], 7.0)]);
        assert_close(alloc.rates[0], 7.0);
    }

    #[test]
    fn zero_demand_flow_gets_zero() {
        let alloc = allocate(&[10.0], &[FlowReq::cpu(vec![0], 0.0)]);
        assert_close(alloc.rates[0], 0.0);
    }

    #[test]
    fn two_dma_flows_share_leftover_fairly() {
        let flows = vec![
            FlowReq::cpu(vec![0], 4.0),
            FlowReq::dma(vec![0], 10.0, 1.0),
            FlowReq::dma(vec![0], 10.0, 1.0),
        ];
        // Capacity 10: CPU 4, floors 2, leftover 4 split 2/2 → DMA 3 each.
        let alloc = allocate(&[10.0], &flows);
        assert_close(alloc.rates[1], 3.0);
        assert_close(alloc.rates[2], 3.0);
    }

    #[test]
    fn dma_floor_capped_by_demand() {
        // floor > demand must not over-allocate.
        let alloc = allocate(&[10.0], &[FlowReq::dma(vec![0], 2.0, 5.0)]);
        assert_close(alloc.rates[0], 2.0);
    }

    /// Run both solver paths and require bit-identical outputs.
    fn assert_paths_agree(caps: &[f64], reqs: &[FlowReq]) {
        let reference = allocate(caps, reqs);
        let set = FlowSet::from_reqs(reqs);
        let mut scratch = SolverScratch::default();
        let mut pooled = Allocation::default();
        allocate_into(caps, &set, &mut scratch, &mut pooled);
        assert_eq!(reference.rates.len(), pooled.rates.len());
        for (a, b) in reference.rates.iter().zip(&pooled.rates) {
            assert_eq!(a.to_bits(), b.to_bits(), "rates diverge: {a} vs {b}");
        }
        for (a, b) in reference.resource_load.iter().zip(&pooled.resource_load) {
            assert_eq!(a.to_bits(), b.to_bits(), "loads diverge: {a} vs {b}");
        }
        // A second solve on the warm scratch must agree too (buffer reuse).
        allocate_into(caps, &set, &mut scratch, &mut pooled);
        for (a, b) in reference.rates.iter().zip(&pooled.rates) {
            assert_eq!(a.to_bits(), b.to_bits(), "warm rates diverge");
        }
    }

    #[test]
    fn pooled_path_matches_reference_on_basic_mixes() {
        assert_paths_agree(&[100.0], &[FlowReq::cpu(vec![0], 5.0)]);
        let mut flows: Vec<FlowReq> = (0..10).map(|_| FlowReq::cpu(vec![0], 5.0)).collect();
        flows.push(FlowReq::dma(vec![0], 11.0, 3.0));
        assert_paths_agree(&[20.0], &flows);
        assert_paths_agree(
            &[25.0, 18.0, 12.0],
            &[
                FlowReq::cpu(vec![0, 1], 30.0),
                FlowReq::cpu(vec![0], 30.0),
                FlowReq::dma(vec![1, 2], 30.0, 4.0),
            ],
        );
        assert_paths_agree(
            &[8.0],
            &[
                FlowReq::dma(vec![0], 10.0, 8.0),
                FlowReq::dma(vec![0], 10.0, 8.0),
            ],
        );
        assert_paths_agree(&[], &[FlowReq::cpu(vec![], 7.0)]);
        assert_paths_agree(&[10.0], &[FlowReq::cpu(vec![0], 0.0)]);
    }

    #[test]
    fn flow_set_push_matches_from_reqs() {
        let reqs = vec![
            FlowReq::cpu(vec![0, 2], 5.0),
            FlowReq::dma(vec![1], 11.0, 3.0),
        ];
        let mut pushed = FlowSet::new();
        pushed.push(FlowClass::Cpu, 5.0, 0.0, &[0, 2]);
        pushed.push(FlowClass::Dma, 11.0, 3.0, &[1]);
        assert_eq!(pushed, FlowSet::from_reqs(&reqs));
        assert_eq!(pushed.len(), 2);
        assert_eq!(pushed.class_of(1), FlowClass::Dma);
        assert_eq!(pushed.demand_of(0), 5.0);
    }

    #[test]
    fn flow_set_clear_keeps_working() {
        let mut set = FlowSet::new();
        set.push(FlowClass::Cpu, 5.0, 0.0, &[0]);
        set.clear();
        assert!(set.is_empty());
        set.push(FlowClass::Cpu, 3.0, 0.0, &[0]);
        let mut scratch = SolverScratch::default();
        let mut out = Allocation::default();
        allocate_into(&[10.0], &set, &mut scratch, &mut out);
        assert_close(out.rates[0], 3.0);
    }
}
