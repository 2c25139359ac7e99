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
//! Solves run over the **canonical (sorted) expansion** of the multiset.
//! Progressive filling is symmetric — equal specs always receive equal
//! rates — so one rate per *unique* spec fully describes the solution,
//! and any caller can recover its stream's rate by spec
//! ([`SolvedState::rate_of`]). The canonical order is what *defines* a
//! multiset's rates: the solver sums floors and loads in flow order, so
//! another expansion of the same multiset can differ in the last bit.

use std::hash::{Hash, Hasher};
use std::rc::Rc;

use crate::fabric::{Fabric, FabricScratch, SolveResult, StreamSpec};
use crate::fxhash::{FxHasher, FxMap};

/// One solved machine state: the canonical stream multiset and the rate
/// granted to each unique spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedState {
    /// Unique stream specs, sorted (the canonical multiset support).
    specs: Box<[StreamSpec]>,
    /// Multiplicity of each unique spec.
    counts: Box<[u32]>,
    /// Rate of each unique spec in GB/s (every stream with that spec
    /// receives exactly this rate, by max-min symmetry).
    rates: Box<[f64]>,
    /// CPU demand scale the state was solved at — part of its key.
    cpu_scale: f64,
}

impl SolvedState {
    /// Rate granted to every stream of the given spec, or `None` when the
    /// spec is not part of this state.
    pub fn rate_of(&self, spec: StreamSpec) -> Option<f64> {
        self.specs.binary_search(&spec).ok().map(|i| self.rates[i])
    }

    /// Number of streams in the state (with multiplicity).
    pub fn stream_count(&self) -> usize {
        self.counts.iter().map(|&c| c as usize).sum()
    }

    /// `(spec, rate)` of every unique spec, in canonical order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (StreamSpec, f64)> + '_ {
        self.specs.iter().copied().zip(self.rates.iter().copied())
    }
}

/// A mutable multiset of active streams with O(log u) add/remove (u =
/// unique specs) and a cached solution that survives until the next
/// transition.
#[derive(Debug, Clone, Default)]
pub struct ActiveSet {
    /// `(spec, multiplicity)`, sorted by spec; multiplicities are ≥ 1.
    counts: Vec<(StreamSpec, u32)>,
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
    pub fn add(&mut self, spec: StreamSpec) {
        self.add_n(spec, 1);
    }

    /// Add `n` streams of one spec: the same multiset and transition
    /// count as `n` calls to [`ActiveSet::add`], in one search.
    pub fn add_n(&mut self, spec: StreamSpec, n: usize) {
        if n == 0 {
            return;
        }
        let n32 = u32::try_from(n).expect("stream count fits in u32");
        match self.counts.binary_search_by_key(&spec, |e| e.0) {
            Ok(i) => self.counts[i].1 += n32,
            Err(i) => self.counts.insert(i, (spec, n32)),
        }
        self.total += n32;
        self.transitions += n as u64;
        self.solution = None;
    }

    /// Remove one stream previously added; invalidates the cached
    /// solution.
    ///
    /// # Panics
    ///
    /// Panics if no stream of this spec is active — removals must pair
    /// with adds.
    pub fn remove(&mut self, spec: StreamSpec) {
        self.remove_n(spec, 1);
    }

    /// Remove `n` streams of one spec: the same multiset and transition
    /// count as `n` calls to [`ActiveSet::remove`], in one search.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` streams of this spec are active.
    pub fn remove_n(&mut self, spec: StreamSpec, n: usize) {
        if n == 0 {
            return;
        }
        let i = self
            .counts
            .binary_search_by_key(&spec, |e| e.0)
            .ok()
            .filter(|&i| self.counts[i].1 as usize >= n)
            .unwrap_or_else(|| panic!("removing inactive stream {spec:?}"));
        let n32 = n as u32;
        if self.counts[i].1 == n32 {
            self.counts.remove(i);
        } else {
            self.counts[i].1 -= n32;
        }
        self.total -= n32;
        self.transitions += n as u64;
        self.solution = None;
    }

    /// Empty the multiset and drop its solution, keeping the buffer and
    /// the transition count.
    pub(crate) fn clear(&mut self) {
        self.counts.clear();
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
    /// Solved states keyed by the hash of (canonical multiset,
    /// scale bits); buckets resolve hash collisions exactly.
    states: FxMap<u64, Vec<Rc<SolvedState>>>,
    /// Memoized single-stream solves (the uncontended baseline's
    /// "alone" rates), keyed by spec and scale bits.
    alone: FxMap<(StreamSpec, u64), f64>,
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

        let mut hasher = FxHasher::default();
        set.counts.hash(&mut hasher);
        scale_bits.hash(&mut hasher);
        let key = hasher.finish();

        if let Some(bucket) = self.states.get(&key) {
            for state in bucket {
                if state.cpu_scale.to_bits() == scale_bits
                    && state.specs.len() == set.counts.len()
                    && state
                        .specs
                        .iter()
                        .zip(state.counts.iter())
                        .zip(set.counts.iter())
                        .all(|((s, c), (es, ec))| s == es && c == ec)
                {
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
    /// expansion.
    fn full_solve(
        &mut self,
        fabric: &Fabric,
        set: &mut ActiveSet,
        cpu_scale: f64,
    ) -> Rc<SolvedState> {
        self.stats.full_solves += 1;
        self.expanded.clear();
        for &(spec, count) in &set.counts {
            self.expanded
                .extend(std::iter::repeat_n(spec, count as usize));
        }
        fabric.solve_into(
            &self.expanded,
            cpu_scale,
            &mut self.scratch,
            &mut self.result,
        );
        let mut rates = Vec::with_capacity(set.counts.len());
        let mut pos = 0usize;
        for &(_, count) in &set.counts {
            rates.push(self.result.rates[pos]);
            pos += count as usize;
        }
        let state = Rc::new(SolvedState {
            specs: set.counts.iter().map(|e| e.0).collect(),
            counts: set.counts.iter().map(|e| e.1).collect(),
            rates: rates.into_boxed_slice(),
            cpu_scale,
        });
        set.solution = Some(Rc::clone(&state));
        state
    }

    /// The rate a single stream of `spec` gets with the fabric to itself
    /// at CPU demand scale `cpu_scale` — the uncontended baseline.
    /// Memoized; bit-identical to
    /// `fabric.solve_with(&[spec], cpu_scale).rates[0]`.
    pub fn alone_rate(&mut self, fabric: &Fabric, spec: StreamSpec, cpu_scale: f64) -> f64 {
        self.stats.requests += 1;
        let key = (spec, cpu_scale.to_bits());
        if let Some(&rate) = self.alone.get(&key) {
            self.stats.reuse_hits += 1;
            return rate;
        }
        self.stats.full_solves += 1;
        fabric.solve_into(
            std::slice::from_ref(&spec),
            cpu_scale,
            &mut self.scratch,
            &mut self.result,
        );
        let rate = self.result.rates[0];
        self.alone.insert(key, rate);
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_topology::{platforms, NumaId};
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

    #[test]
    fn reuse_between_transitions_costs_no_solve() {
        let fabric = Fabric::new(&platforms::henri());
        let mut solver = DeltaSolver::new();
        let mut set = ActiveSet::new();
        set.add(cpu(0));
        set.add(dma(0));
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
        let mut solver = DeltaSolver::new();
        let mut set = ActiveSet::new();
        // Cycle: {cpu} -> {cpu, dma} -> {cpu} -> {cpu, dma}.
        set.add(cpu(0));
        solver.solve(&fabric, &mut set, 1.0);
        set.add(dma(0));
        solver.solve(&fabric, &mut set, 1.0);
        set.remove(dma(0));
        solver.solve(&fabric, &mut set, 1.0);
        set.add(dma(0));
        solver.solve(&fabric, &mut set, 1.0);
        let stats = solver.stats();
        assert_eq!(stats.full_solves, 2, "{stats:?}");
        assert_eq!(stats.state_hits, 2, "{stats:?}");
        assert_eq!(solver.states_cached(), 2);
    }

    #[test]
    fn a_second_set_shares_the_state_cache() {
        // Two nodes of a homogeneous world reaching the same machine
        // state: the second solve is answered from the first's cache.
        let fabric = Fabric::new(&platforms::henri());
        let mut solver = DeltaSolver::new();
        let mut a = ActiveSet::new();
        let mut b = ActiveSet::new();
        for set in [&mut a, &mut b] {
            for _ in 0..4 {
                set.add(cpu(0));
            }
            set.add(dma(1));
        }
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
            set.add(s);
        }
        let state = solver.solve(&fabric, &mut set, 1.0);
        // Reference: full solve over the canonical (sorted) expansion.
        let mut sorted = streams.to_vec();
        sorted.sort_unstable();
        let reference = fabric.solve(&sorted);
        for (spec, rate) in sorted.iter().zip(&reference.rates) {
            assert_eq!(
                state.rate_of(*spec).unwrap().to_bits(),
                rate.to_bits(),
                "{spec:?}"
            );
        }
        assert_eq!(state.stream_count(), streams.len());
    }

    #[test]
    fn the_cpu_scale_is_part_of_the_state_key() {
        let fabric = Fabric::new(&platforms::henri());
        let mut solver = DeltaSolver::new();
        let mut set = ActiveSet::new();
        let streams = [cpu(0), cpu(0), cpu(1), dma(0), cpu(0)];
        for s in streams {
            set.add(s);
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
            let reference = fabric.solve_with(&sorted, scale);
            for (spec, rate) in sorted.iter().zip(&reference.rates) {
                assert_eq!(
                    state.rate_of(*spec).unwrap().to_bits(),
                    rate.to_bits(),
                    "{spec:?} at scale {scale}"
                );
            }
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
            let a = solver.alone_rate(&fabric, spec, 1.0);
            let b = solver.alone_rate(&fabric, spec, 1.0);
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(
                a.to_bits(),
                fabric.solve(&[spec]).rates[0].to_bits(),
                "{spec:?}"
            );
        }
        // 4 solves + 4 memoized repeats.
        assert_eq!(solver.stats().full_solves, 4);
        assert_eq!(solver.stats().reuse_hits, 4);
    }

    #[test]
    #[should_panic(expected = "removing inactive stream")]
    fn removing_an_absent_stream_panics() {
        let mut set = ActiveSet::new();
        set.add(cpu(0));
        set.remove(dma(0));
    }

    #[test]
    #[should_panic(expected = "removing inactive stream")]
    fn removing_more_streams_than_are_present_panics() {
        let mut set = ActiveSet::new();
        set.add_n(cpu(0), 3);
        set.remove_n(cpu(0), 4);
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
            type Key = (Vec<(StreamSpec, u32)>, u64);
            let fabric = Fabric::new(&platforms::henri_subnuma());
            let universe = [cpu(0), cpu(3), dma(0), dma(2)];
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
                    let spec = universe[pick];
                    let present = set.counts.iter().find(|e| e.0 == spec).map_or(0, |e| e.1);
                    let n = if kind == 1 { n.min(present as usize) } else { n };
                    match kind {
                        0 => set.add_n(spec, n),
                        1 => set.remove_n(spec, n),
                        2 => {
                            set.add_n(spec, n);
                            set.remove_n(spec, n);
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
                let key: Key = (set.counts.clone(), scale.to_bits());
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
                let mut sorted: Vec<StreamSpec> = set
                    .counts
                    .iter()
                    .flat_map(|&(spec, c)| std::iter::repeat_n(spec, c as usize))
                    .collect();
                sorted.sort_unstable();
                let reference = fabric.solve_with(&sorted, scale);
                for (spec, rate) in sorted.iter().zip(&reference.rates) {
                    prop_assert_eq!(state.rate_of(*spec).unwrap().to_bits(), rate.to_bits());
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
                    set.add(spec);
                    live.push(spec);
                } else {
                    let spec = live.remove(pick % live.len());
                    set.remove(spec);
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
                        state.rate_of(*spec).unwrap().to_bits(),
                        rate.to_bits()
                    );
                }
            }
        }

        /// `add_n`/`remove_n` are `n` single `add`/`remove` calls: the
        /// same multiset, length, transition count and solved rates; an
        /// edit of at least one stream drops the cached solution, an edit
        /// of none keeps it.
        #[test]
        fn bulk_edits_equal_single_edits(
            ops in proptest::collection::vec((0usize..4, 0usize..6, 0usize..2), 1..30),
        ) {
            let fabric = Fabric::new(&platforms::henri_subnuma());
            let mut solver = DeltaSolver::new();
            let (mut bulk, mut single) = (ActiveSet::new(), ActiveSet::new());
            let universe = [cpu(0), cpu(3), dma(0), dma(2)];
            for (pick, n, op) in ops {
                let (spec, add) = (universe[pick], op == 1);
                let solved = !bulk.is_empty();
                if solved {
                    solver.solve(&fabric, &mut bulk, 1.0);
                }
                let present = bulk.counts.iter().find(|e| e.0 == spec).map_or(0, |e| e.1);
                let n = if add { n } else { n.min(present as usize) };
                if add {
                    bulk.add_n(spec, n);
                    (0..n).for_each(|_| single.add(spec));
                } else {
                    bulk.remove_n(spec, n);
                    (0..n).for_each(|_| single.remove(spec));
                }
                prop_assert_eq!(bulk.len(), single.len());
                prop_assert_eq!(bulk.transitions(), single.transitions());
                prop_assert_eq!(&bulk.counts, &single.counts);
                prop_assert_eq!(bulk.solution().is_some(), solved && n == 0);
                if bulk.is_empty() {
                    continue;
                }
                let a = solver.solve(&fabric, &mut bulk, 1.0);
                let b = solver.solve_uncached(&fabric, &mut single, 1.0);
                for &(spec, _) in &single.counts {
                    prop_assert_eq!(
                        a.rate_of(spec).unwrap().to_bits(),
                        b.rate_of(spec).unwrap().to_bits()
                    );
                }
            }
        }
    }
}
