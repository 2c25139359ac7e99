//! Incremental delta-solving of the tiered max-min fixed point.
//!
//! The replay engine's worlds change their active stream multiset only at
//! *phase boundaries* — a compute job starting or draining, a transfer
//! entering or leaving its streaming phase. Between boundaries the
//! progressive-filling fixed point is **constant**, and application
//! schedules revisit the same machine states over and over (every
//! iteration of a halo exchange or allreduce cycles through the same few
//! multisets). [`DeltaSolver`] exploits both facts:
//!
//! 1. **Unchanged multiset → previous solution.** An [`ActiveSet`] keeps
//!    its last solution until a stream is added or removed; re-asking for
//!    rates between transitions costs one pointer clone.
//! 2. **Previously solved multiset → cached fixed point.** On a
//!    transition, the new multiset is looked up in a state cache shared
//!    across all sets using the solver (all nodes of a homogeneous
//!    world). Progressive filling is a pure function of the (multiset,
//!    cpu_scale, fabric) triple, so the cached rates are *exact* —
//!    bit-identical to a fresh solve, as the property tests assert.
//! 3. **Otherwise → full solve.** When a transition produces a multiset
//!    never seen before, the bottleneck (saturated-resource) set may have
//!    changed, and no numerically-safe shortcut from the previous
//!    solution exists: the tiered progressive filling re-runs from
//!    scratch. This is the *fallback rule* — correctness never depends on
//!    an incremental update being exact.
//!
//! Sets, states and rates are indexed by [`StreamId`], the number the
//! [`Fabric`] gives each spec it admits. Solves run over the multiset's
//! **canonical expansion**: its streams in ascending id order, which is
//! ascending spec order, since [`Fabric::specs`] numbers the specs in
//! their derived order. Progressive filling is symmetric — equal specs
//! always receive equal rates — so one rate per id fully describes the
//! solution, and any caller can recover its stream's rate by id
//! ([`SolvedState::rate_of`]). The canonical order is what *defines* a
//! multiset's rates: the solver sums floors and loads in flow order, so
//! another expansion of the same multiset can differ in the last bit.
//!
//! An [`ActiveSet`] holds a count per id and a running hash of its
//! `(id, count)` entries that each edit updates, so a memo hit hashes no
//! multiset: the state cache is keyed by that hash and the scale bits,
//! and a candidate state is confirmed by comparing its counts exactly.

use std::rc::Rc;

use crate::fabric::{Fabric, FabricScratch, SolveResult, StreamId, StreamSpec};
use crate::fxhash::FxMap;

/// The share of one `(id, count)` entry in a set's running hash: 0 for
/// an absent id, otherwise a splitmix64 finalizer of the pair. The set's
/// hash is the wrapping sum of its entries' shares, so it does not depend
/// on the order of the edits that built the set.
fn entry_hash(id: usize, count: u32) -> u64 {
    if count == 0 {
        return 0;
    }
    let mut z = ((id as u64) << 32 | u64::from(count)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `counts` without its trailing zeros: the one form of a multiset,
/// whatever length the table that holds it has grown to.
fn trimmed(counts: &[u32]) -> &[u32] {
    let len = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
    &counts[..len]
}

/// One solved machine state: the stream multiset and the rate granted
/// to each of its streams, per id.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedState {
    /// Multiplicity per id, without trailing zeros.
    counts: Box<[u32]>,
    /// Rate per id in GB/s (every stream of that id receives exactly
    /// this rate, by max-min symmetry); 0 where the count is 0.
    rates: Box<[f64]>,
    /// CPU demand scale the state was solved at — part of its key.
    cpu_scale: f64,
}

impl SolvedState {
    /// Rate granted to every stream of the given id, or `None` when the
    /// id has no stream in this state.
    pub fn rate_of(&self, id: StreamId) -> Option<f64> {
        let i = id.index();
        self.counts
            .get(i)
            .is_some_and(|&c| c > 0)
            .then(|| self.rates[i])
    }

    /// Number of streams in the state (with multiplicity).
    pub fn stream_count(&self) -> usize {
        self.counts.iter().map(|&c| c as usize).sum()
    }
}

/// A mutable multiset of active streams — a count per [`StreamId`] —
/// with O(1) add/remove and a cached solution that survives until the
/// next transition.
#[derive(Debug, Clone, Default)]
pub struct ActiveSet {
    /// Multiplicity per id; grows to the largest id added.
    counts: Vec<u32>,
    /// Wrapping sum of [`entry_hash`] over the entries, kept in step
    /// with every edit.
    hash: u64,
    /// Total streams (sum of multiplicities).
    total: u32,
    /// The solution for the current multiset; `None` after any
    /// add/remove until the next [`DeltaSolver::solve`].
    solution: Option<Rc<SolvedState>>,
    /// Number of add/remove transitions since creation.
    transitions: u64,
}

impl ActiveSet {
    /// An empty stream multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one stream; invalidates the cached solution.
    pub fn add(&mut self, id: StreamId) {
        self.add_n(id, 1);
    }

    /// Add `n` streams of one id: the same multiset and transition count
    /// as `n` calls to [`ActiveSet::add`].
    pub fn add_n(&mut self, id: StreamId, n: usize) {
        if n == 0 {
            return;
        }
        let n32 = u32::try_from(n).expect("stream count fits in u32");
        let i = id.index();
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        let old = self.counts[i];
        let new = old + n32;
        self.counts[i] = new;
        self.hash = self
            .hash
            .wrapping_sub(entry_hash(i, old))
            .wrapping_add(entry_hash(i, new));
        self.total += n32;
        self.transitions += n as u64;
        self.solution = None;
    }

    /// Remove one stream previously added; invalidates the cached
    /// solution.
    ///
    /// # Panics
    ///
    /// Panics if no stream of this id is active — removals must pair
    /// with adds.
    pub fn remove(&mut self, id: StreamId) {
        self.remove_n(id, 1);
    }

    /// Remove `n` streams of one id: the same multiset and transition
    /// count as `n` calls to [`ActiveSet::remove`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` streams of this id are active.
    pub fn remove_n(&mut self, id: StreamId, n: usize) {
        if n == 0 {
            return;
        }
        let i = id.index();
        let old = self
            .counts
            .get(i)
            .copied()
            .filter(|&c| c as usize >= n)
            .unwrap_or_else(|| panic!("removing inactive stream {id:?}"));
        let n32 = n as u32;
        let new = old - n32;
        self.counts[i] = new;
        self.hash = self
            .hash
            .wrapping_sub(entry_hash(i, old))
            .wrapping_add(entry_hash(i, new));
        self.total -= n32;
        self.transitions += n as u64;
        self.solution = None;
    }

    /// Empty the multiset and drop its solution, keeping the buffer and
    /// the transition count.
    pub(crate) fn clear(&mut self) {
        self.counts.fill(0);
        self.hash = 0;
        self.total = 0;
        self.solution = None;
    }

    /// Number of active streams (with multiplicity).
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// Whether no stream is active.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Add/remove transitions since creation.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The current solution, if the set has not changed since the last
    /// [`DeltaSolver::solve`].
    pub fn solution(&self) -> Option<&Rc<SolvedState>> {
        self.solution.as_ref()
    }
}

/// Counters of delta-solver work, the evidence behind BENCH_3: how many
/// rate requests were answered without running progressive filling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Rate requests served ([`DeltaSolver::solve`] and
    /// [`DeltaSolver::alone_rate`] calls).
    pub requests: u64,
    /// Requests answered by the set's still-valid previous solution
    /// (no transition since the last solve).
    pub reuse_hits: u64,
    /// Requests after a transition answered by the shared state cache
    /// (the multiset was solved before, possibly for another node).
    pub state_hits: u64,
    /// Full progressive-filling runs — the fallback when a transition
    /// reaches a multiset never solved before.
    pub full_solves: u64,
}

/// The incremental solver: shared state cache, scratch buffers, and
/// counters. One instance serves any number of [`ActiveSet`]s over the
/// *same* fabric, at any CPU demand scales (the scale is part of every
/// cached state's key).
#[derive(Debug, Clone, Default)]
pub struct DeltaSolver {
    /// Solved states keyed by a set's running hash mixed with the scale
    /// bits; buckets resolve hash collisions exactly.
    states: FxMap<u64, Vec<Rc<SolvedState>>>,
    /// Memoized single-stream solves (the uncontended baseline's
    /// "alone" rates): per scale bits, a rate per id, `None` until
    /// first solved.
    alone: Vec<(u64, Vec<Option<f64>>)>,
    stats: DeltaStats,
    scratch: FabricScratch,
    result: SolveResult,
    /// Canonical expansion buffer for full solves.
    expanded: Vec<StreamSpec>,
}

impl DeltaSolver {
    /// An empty solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative counters since creation.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Number of distinct machine states solved so far.
    pub fn states_cached(&self) -> usize {
        self.states.values().map(Vec::len).sum()
    }

    /// Drop all cached states (counters are kept). Required when the
    /// solver is re-pointed at a different fabric.
    pub fn clear(&mut self) {
        self.states.clear();
        self.alone.clear();
    }

    /// The solution for the set's current multiset with CPU streams
    /// issuing `cpu_scale` times the traffic of a non-temporal `memset`:
    /// the previous solution when nothing changed, a cached state after a
    /// transition to a known multiset, or a full progressive-filling run
    /// otherwise (the fallback rule). The returned rates are
    /// bit-identical to `fabric.solve_with(..)` on the canonical (sorted)
    /// expansion of the multiset.
    pub fn solve(
        &mut self,
        fabric: &Fabric,
        set: &mut ActiveSet,
        cpu_scale: f64,
    ) -> Rc<SolvedState> {
        self.stats.requests += 1;
        let scale_bits = cpu_scale.to_bits();
        if let Some(sol) = &set.solution {
            if sol.cpu_scale.to_bits() == scale_bits {
                self.stats.reuse_hits += 1;
                return Rc::clone(sol);
            }
        }

        let key = set.hash ^ scale_bits.rotate_left(32);
        let counts = trimmed(&set.counts);
        if let Some(bucket) = self.states.get(&key) {
            for state in bucket {
                if state.cpu_scale.to_bits() == scale_bits && *state.counts == *counts {
                    self.stats.state_hits += 1;
                    set.solution = Some(Rc::clone(state));
                    return Rc::clone(state);
                }
            }
        }

        let state = self.full_solve(fabric, set, cpu_scale);
        self.states.entry(key).or_default().push(Rc::clone(&state));
        state
    }

    /// Like [`DeltaSolver::solve`] but always runs progressive filling and
    /// caches nothing: the reference the memoized path is tested against.
    pub fn solve_uncached(
        &mut self,
        fabric: &Fabric,
        set: &mut ActiveSet,
        cpu_scale: f64,
    ) -> Rc<SolvedState> {
        self.stats.requests += 1;
        self.full_solve(fabric, set, cpu_scale)
    }

    /// The fallback: the bottleneck set may have changed, so run the
    /// tiered progressive filling from scratch over the canonical
    /// expansion — the streams in ascending id order.
    fn full_solve(
        &mut self,
        fabric: &Fabric,
        set: &mut ActiveSet,
        cpu_scale: f64,
    ) -> Rc<SolvedState> {
        self.stats.full_solves += 1;
        let counts = trimmed(&set.counts);
        let specs = fabric.specs();
        self.expanded.clear();
        for (i, &count) in counts.iter().enumerate() {
            self.expanded
                .extend(std::iter::repeat_n(specs[i], count as usize));
        }
        fabric.solve_into(
            &self.expanded,
            cpu_scale,
            &mut self.scratch,
            &mut self.result,
        );
        let mut rates = Vec::with_capacity(counts.len());
        let mut pos = 0usize;
        for &count in counts {
            rates.push(if count > 0 {
                self.result.rates[pos]
            } else {
                0.0
            });
            pos += count as usize;
        }
        let state = Rc::new(SolvedState {
            counts: counts.into(),
            rates: rates.into_boxed_slice(),
            cpu_scale,
        });
        set.solution = Some(Rc::clone(&state));
        state
    }

    /// The rate a single stream of `id` gets with the fabric to itself
    /// at CPU demand scale `cpu_scale` — the uncontended baseline.
    /// Memoized in a table per scale; bit-identical to
    /// `fabric.solve_with(&[spec], cpu_scale).rates[0]`.
    pub fn alone_rate(&mut self, fabric: &Fabric, id: StreamId, cpu_scale: f64) -> f64 {
        self.stats.requests += 1;
        let scale_bits = cpu_scale.to_bits();
        let table = match self.alone.iter().position(|e| e.0 == scale_bits) {
            Some(t) => t,
            None => {
                self.alone
                    .push((scale_bits, vec![None; fabric.specs().len()]));
                self.alone.len() - 1
            }
        };
        if let Some(rate) = self.alone[table].1[id.index()] {
            self.stats.reuse_hits += 1;
            return rate;
        }
        self.stats.full_solves += 1;
        fabric.solve_into(
            &fabric.specs()[id.index()..=id.index()],
            cpu_scale,
            &mut self.scratch,
            &mut self.result,
        );
        let rate = self.result.rates[0];
        self.alone[table].1[id.index()] = Some(rate);
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_topology::{platforms, NumaId, Platform};
    use proptest::prelude::*;

    fn n(i: u16) -> NumaId {
        NumaId::new(i)
    }

    fn cpu(i: u16) -> StreamSpec {
        StreamSpec::CpuWrite { numa: n(i) }
    }

    fn dma(i: u16) -> StreamSpec {
        StreamSpec::DmaRecv { numa: n(i) }
    }

    /// A set's streams as specs, in ascending id order: its canonical
    /// expansion.
    fn expansion(fabric: &Fabric, set: &ActiveSet) -> Vec<StreamSpec> {
        set.counts
            .iter()
            .enumerate()
            .flat_map(|(i, &c)| std::iter::repeat_n(fabric.specs()[i], c as usize))
            .collect()
    }

    /// Every stream's rate in `state` equals the rate `reference` gives
    /// the same stream of `sorted`, bit for bit.
    fn assert_rates(fabric: &Fabric, state: &SolvedState, sorted: &[StreamSpec], scale: f64) {
        let reference = fabric.solve_with(sorted, scale);
        for (spec, rate) in sorted.iter().zip(&reference.rates) {
            assert_eq!(
                state.rate_of(fabric.stream_id(*spec)).unwrap().to_bits(),
                rate.to_bits(),
                "{spec:?} at scale {scale}"
            );
        }
    }

    #[test]
    fn reuse_between_transitions_costs_no_solve() {
        let fabric = Fabric::new(&platforms::henri());
        let id = |s| fabric.stream_id(s);
        let mut solver = DeltaSolver::new();
        let mut set = ActiveSet::new();
        set.add(id(cpu(0)));
        set.add(id(dma(0)));
        let a = solver.solve(&fabric, &mut set, 1.0);
        let b = solver.solve(&fabric, &mut set, 1.0);
        assert!(Rc::ptr_eq(&a, &b));
        let stats = solver.stats();
        assert_eq!(stats.full_solves, 1);
        assert_eq!(stats.reuse_hits, 1);
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn revisited_states_hit_the_shared_cache() {
        let fabric = Fabric::new(&platforms::henri());
        let id = |s| fabric.stream_id(s);
        let mut solver = DeltaSolver::new();
        let mut set = ActiveSet::new();
        // Cycle: {cpu} -> {cpu, dma} -> {cpu} -> {cpu, dma}.
        set.add(id(cpu(0)));
        solver.solve(&fabric, &mut set, 1.0);
        set.add(id(dma(0)));
        solver.solve(&fabric, &mut set, 1.0);
        set.remove(id(dma(0)));
        solver.solve(&fabric, &mut set, 1.0);
        set.add(id(dma(0)));
        solver.solve(&fabric, &mut set, 1.0);
        let stats = solver.stats();
        assert_eq!(stats.full_solves, 2, "{stats:?}");
        assert_eq!(stats.state_hits, 2, "{stats:?}");
        assert_eq!(solver.states_cached(), 2);
    }

    #[test]
    fn a_second_set_shares_the_state_cache() {
        // Two nodes of a homogeneous world reaching the same machine
        // state, in different orders and with different table lengths:
        // the second solve is answered from the first's cache.
        let fabric = Fabric::new(&platforms::henri());
        let id = |s| fabric.stream_id(s);
        let mut solver = DeltaSolver::new();
        let mut a = ActiveSet::new();
        let mut b = ActiveSet::new();
        a.add_n(id(cpu(0)), 4);
        a.add(id(dma(1)));
        b.add(id(dma(1)));
        b.add_n(id(cpu(0)), 3);
        b.add(id(StreamSpec::DmaSend { numa: n(1) }));
        b.remove(id(StreamSpec::DmaSend { numa: n(1) }));
        b.add(id(cpu(0)));
        let sa = solver.solve(&fabric, &mut a, 1.0);
        let sb = solver.solve(&fabric, &mut b, 1.0);
        assert!(Rc::ptr_eq(&sa, &sb));
        assert_eq!(solver.stats().full_solves, 1);
        assert_eq!(solver.stats().state_hits, 1);
    }

    #[test]
    fn rates_are_bit_identical_to_a_fresh_solve() {
        let fabric = Fabric::new(&platforms::henri_subnuma());
        let mut solver = DeltaSolver::new();
        let mut set = ActiveSet::new();
        let streams = [cpu(0), cpu(0), cpu(1), dma(2), dma(0), cpu(0)];
        for s in streams {
            set.add(fabric.stream_id(s));
        }
        let state = solver.solve(&fabric, &mut set, 1.0);
        // Reference: full solve over the canonical (sorted) expansion.
        let mut sorted = streams.to_vec();
        sorted.sort_unstable();
        assert_rates(&fabric, &state, &sorted, 1.0);
        assert_eq!(state.stream_count(), streams.len());
        assert_eq!(state.rate_of(fabric.stream_id(dma(1))), None);
    }

    #[test]
    fn the_cpu_scale_is_part_of_the_state_key() {
        let fabric = Fabric::new(&platforms::henri());
        let mut solver = DeltaSolver::new();
        let mut set = ActiveSet::new();
        let streams = [cpu(0), cpu(0), cpu(1), dma(0), cpu(0)];
        for s in streams {
            set.add(fabric.stream_id(s));
        }
        let mut sorted = streams.to_vec();
        sorted.sort_unstable();
        // Same multiset, same set, two scales: no reuse across scales.
        let scales = [1.0, 0.6];
        let states = scales.map(|scale| solver.solve(&fabric, &mut set, scale));
        assert_eq!(solver.stats().full_solves, 2);
        assert_eq!(solver.states_cached(), 2);
        assert_ne!(states[0], states[1]);
        for (state, scale) in states.iter().zip(scales) {
            assert_rates(&fabric, state, &sorted, scale);
        }
        // Back to the first scale: answered from the state cache.
        let again = solver.solve(&fabric, &mut set, 1.0);
        assert!(Rc::ptr_eq(&again, &states[0]));
        assert_eq!(solver.stats().full_solves, 2);
        assert_eq!(solver.stats().state_hits, 1);
    }

    #[test]
    fn alone_rates_match_single_stream_solves() {
        let fabric = Fabric::new(&platforms::henri());
        let mut solver = DeltaSolver::new();
        for spec in [cpu(0), cpu(1), dma(0), dma(1)] {
            let id = fabric.stream_id(spec);
            let a = solver.alone_rate(&fabric, id, 1.0);
            let b = solver.alone_rate(&fabric, id, 1.0);
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(
                a.to_bits(),
                fabric.solve(&[spec]).rates[0].to_bits(),
                "{spec:?}"
            );
            let half = solver.alone_rate(&fabric, id, 0.5);
            assert_eq!(
                half.to_bits(),
                fabric.solve_with(&[spec], 0.5).rates[0].to_bits(),
                "{spec:?} at half scale"
            );
        }
        // 8 solves (two scales) + 4 memoized repeats.
        assert_eq!(solver.stats().full_solves, 8);
        assert_eq!(solver.stats().reuse_hits, 4);
    }

    #[test]
    #[should_panic(expected = "removing inactive stream")]
    fn removing_an_absent_stream_panics() {
        let fabric = Fabric::new(&platforms::henri());
        let mut set = ActiveSet::new();
        set.add(fabric.stream_id(cpu(0)));
        set.remove(fabric.stream_id(dma(0)));
    }

    #[test]
    #[should_panic(expected = "removing inactive stream")]
    fn removing_more_streams_than_are_present_panics() {
        let fabric = Fabric::new(&platforms::henri());
        let mut set = ActiveSet::new();
        set.add_n(fabric.stream_id(cpu(0)), 3);
        set.remove_n(fabric.stream_id(cpu(0)), 4);
    }

    /// Up to 24 mixed streams over a platform's NUMA nodes: CPU writes
    /// from socket 0 and the last socket, DMA receives and sends.
    fn mixed_streams(p: &Platform, picks: &[(u8, u8)]) -> Vec<StreamSpec> {
        let numas = p.topology.numa_count();
        let last = mc_topology::SocketId::new((p.topology.sockets.len() - 1) as u16);
        picks
            .iter()
            .map(|&(kind, m)| {
                let numa = NumaId::new((m as usize % numas) as u16);
                match kind % 4 {
                    0 => StreamSpec::CpuWrite { numa },
                    1 => StreamSpec::CpuWriteFrom { socket: last, numa },
                    2 => StreamSpec::DmaRecv { numa },
                    _ => StreamSpec::DmaSend { numa },
                }
            })
            .collect()
    }

    proptest! {
        /// The solve memo against a model keyed by (multiset, scale). Two
        /// sets take turns on two solvers at two CPU scales; between
        /// solves they get one-spec, multi-spec and cancelling edits or
        /// are cleared, and a solver is sometimes cleared or replaced by
        /// a clone of the other one. Each solver's counters are the
        /// model's: one full solve per new key, one state hit per
        /// revisit, one reuse per unedited set. Rates are bit-identical
        /// to a fresh solve, so no set is answered from a stale or
        /// foreign state.
        #[test]
        fn solve_memo_matches_a_model(
            steps in proptest::collection::vec(
                (
                    0usize..2,
                    proptest::collection::vec((0usize..4, 0usize..4, 0usize..4), 0..4),
                    0usize..2,
                    0usize..2,
                    0usize..12,
                ),
                1..60,
            ),
        ) {
            type Key = (Vec<u32>, u64);
            let fabric = Fabric::new(&platforms::henri_subnuma());
            let universe = [cpu(0), cpu(3), dma(0), dma(2)].map(|s| fabric.stream_id(s));
            let scales = [1.0_f64, 0.6];
            let mut solvers = [DeltaSolver::new(), DeltaSolver::new()];
            let mut seen: [std::collections::HashSet<Key>; 2] = Default::default();
            let mut expected = [DeltaStats::default(); 2];
            let mut sets = [ActiveSet::new(), ActiveSet::new()];
            // Scale bits of each set's still-valid solution.
            let mut valid: [Option<u64>; 2] = [None, None];
            for (which, edits, on, scale, memo) in steps {
                let set = &mut sets[which];
                for (pick, n, kind) in edits {
                    let id = universe[pick];
                    let present = set.counts.get(id.index()).copied().unwrap_or(0);
                    let n = if kind == 1 { n.min(present as usize) } else { n };
                    match kind {
                        0 => set.add_n(id, n),
                        1 => set.remove_n(id, n),
                        2 => {
                            set.add_n(id, n);
                            set.remove_n(id, n);
                        }
                        _ => set.clear(),
                    }
                    if n > 0 || kind == 3 {
                        valid[which] = None;
                    }
                }
                prop_assert_eq!(set.solution().is_some(), valid[which].is_some());
                match memo {
                    0 => {
                        solvers[on].clear();
                        seen[on].clear();
                    }
                    1 => {
                        solvers[on] = solvers[1 - on].clone();
                        seen[on] = seen[1 - on].clone();
                        expected[on] = expected[1 - on];
                    }
                    _ => {}
                }
                if set.is_empty() {
                    continue;
                }
                let scale = scales[scale];
                let key: Key = (trimmed(&set.counts).to_vec(), scale.to_bits());
                let model = &mut expected[on];
                model.requests += 1;
                if valid[which] == Some(key.1) {
                    model.reuse_hits += 1;
                } else if seen[on].insert(key) {
                    model.full_solves += 1;
                } else {
                    model.state_hits += 1;
                }
                valid[which] = Some(scale.to_bits());
                let state = solvers[on].solve(&fabric, set, scale);
                prop_assert_eq!(solvers[on].stats(), expected[on]);
                prop_assert_eq!(solvers[on].states_cached(), seen[on].len());
                let mut sorted = expansion(&fabric, set);
                sorted.sort_unstable();
                let reference = fabric.solve_with(&sorted, scale);
                for (spec, rate) in sorted.iter().zip(&reference.rates) {
                    let id = fabric.stream_id(*spec);
                    prop_assert_eq!(state.rate_of(id).unwrap().to_bits(), rate.to_bits());
                }
            }
        }

        /// The tentpole's correctness bar: across random add/remove
        /// sequences, every rate the delta solver reports is
        /// bit-identical to a from-scratch `Fabric::solve` of the same
        /// multiset.
        #[test]
        fn delta_solve_equals_full_solve_bit_for_bit(
            ops in proptest::collection::vec((0usize..6, 0usize..2), 1..40),
        ) {
            let fabric = Fabric::new(&platforms::henri_subnuma());
            let mut solver = DeltaSolver::new();
            let mut set = ActiveSet::new();
            let mut live: Vec<StreamSpec> = Vec::new();
            let universe = [cpu(0), cpu(1), cpu(3), dma(0), dma(2), dma(3)];
            for (pick, op) in ops {
                if op == 1 || live.is_empty() {
                    let spec = universe[pick];
                    set.add(fabric.stream_id(spec));
                    live.push(spec);
                } else {
                    let spec = live.remove(pick % live.len());
                    set.remove(fabric.stream_id(spec));
                }
                if live.is_empty() {
                    continue;
                }
                let state = solver.solve(&fabric, &mut set, 1.0);
                let mut sorted = live.clone();
                sorted.sort_unstable();
                let reference = fabric.solve(&sorted);
                for (spec, rate) in sorted.iter().zip(&reference.rates) {
                    prop_assert_eq!(
                        state.rate_of(fabric.stream_id(*spec)).unwrap().to_bits(),
                        rate.to_bits()
                    );
                }
            }
        }

        /// On diablo and pyxis, where another expansion of a multiset
        /// can change the last bit of its rates, a set built in random
        /// order expands in id order to exactly its sorted expansion,
        /// and the memo's rates — cold, then from the state cache of a
        /// set built in the reverse order — equal `Fabric::solve_with`
        /// on that expansion bit for bit.
        #[test]
        fn id_order_expansion_is_the_sorted_expansion(
            diablo in 0u8..2,
            picks in proptest::collection::vec((0u8..4, 0u8..8), 1..24),
            half_scale in 0u8..2,
        ) {
            let p = if diablo == 1 { platforms::diablo() } else { platforms::pyxis() };
            let fabric = Fabric::new(&p);
            let streams = mixed_streams(&p, &picks);
            let scale = if half_scale == 1 { 0.5 } else { 1.0 };
            let (mut forward, mut backward) = (ActiveSet::new(), ActiveSet::new());
            for &s in &streams {
                forward.add(fabric.stream_id(s));
            }
            for &s in streams.iter().rev() {
                backward.add(fabric.stream_id(s));
            }
            let mut sorted = streams.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&expansion(&fabric, &forward), &sorted);
            let mut solver = DeltaSolver::new();
            let cold = solver.solve(&fabric, &mut forward, scale);
            let warm = solver.solve(&fabric, &mut backward, scale);
            prop_assert!(Rc::ptr_eq(&cold, &warm));
            prop_assert_eq!(solver.stats().full_solves, 1);
            let reference = fabric.solve_with(&sorted, scale);
            for (spec, rate) in sorted.iter().zip(&reference.rates) {
                prop_assert_eq!(
                    cold.rate_of(fabric.stream_id(*spec)).unwrap().to_bits(),
                    rate.to_bits(),
                    "{:?}", spec
                );
            }
        }

        /// `add_n`/`remove_n` are `n` single `add`/`remove` calls: the
        /// same multiset, running hash, length, transition count and
        /// solved rates; an edit of at least one stream drops the cached
        /// solution, an edit of none keeps it.
        #[test]
        fn bulk_edits_equal_single_edits(
            ops in proptest::collection::vec((0usize..4, 0usize..6, 0usize..2), 1..30),
        ) {
            let fabric = Fabric::new(&platforms::henri_subnuma());
            let mut solver = DeltaSolver::new();
            let (mut bulk, mut single) = (ActiveSet::new(), ActiveSet::new());
            let universe = [cpu(0), cpu(3), dma(0), dma(2)].map(|s| fabric.stream_id(s));
            for (pick, n, op) in ops {
                let (id, add) = (universe[pick], op == 1);
                let solved = !bulk.is_empty();
                if solved {
                    solver.solve(&fabric, &mut bulk, 1.0);
                }
                let present = bulk.counts.get(id.index()).copied().unwrap_or(0);
                let n = if add { n } else { n.min(present as usize) };
                if add {
                    bulk.add_n(id, n);
                    (0..n).for_each(|_| single.add(id));
                } else {
                    bulk.remove_n(id, n);
                    (0..n).for_each(|_| single.remove(id));
                }
                prop_assert_eq!(bulk.len(), single.len());
                prop_assert_eq!(bulk.transitions(), single.transitions());
                prop_assert_eq!(trimmed(&bulk.counts), trimmed(&single.counts));
                prop_assert_eq!(bulk.hash, single.hash);
                prop_assert_eq!(bulk.solution().is_some(), solved && n == 0);
                if bulk.is_empty() {
                    continue;
                }
                let a = solver.solve(&fabric, &mut bulk, 1.0);
                let b = solver.solve_uncached(&fabric, &mut single, 1.0);
                for &id in &universe {
                    prop_assert_eq!(
                        a.rate_of(id).map(f64::to_bits),
                        b.rate_of(id).map(f64::to_bits)
                    );
                }
            }
        }
    }
}
