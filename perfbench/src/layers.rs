//! Per-layer accounting for the traced run, measured from outside the
//! program: the benchmark wraps each call into a layer's public
//! functions ([`Layers::time`]) and the replay engine's event source
//! ([`Timed`]), and reads the layers' own counters after the op.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mc_replay::{EventKind, EventSource, TraceError};

/// How a layer metric is measured and corrected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Seconds spent inside the op in this layer. Probe-corrected, and
    /// the parts of one op add up to its time minus `unattributed_s`.
    Part,
    /// A time measured outside the op (probe-corrected, not summed).
    Time,
    /// A count the layer reports, or a ratio derived from counts and
    /// corrected times.
    Value,
}

/// One per-layer metric.
pub struct Layer {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How it is measured.
    pub kind: Kind,
}

const fn layer(name: &'static str, unit: &'static str, kind: Kind) -> Layer {
    Layer { name, unit, kind }
}

impl Layer {
    /// Whether the traced run's summary line, and so `BENCHMARK.json`,
    /// carries this metric. A time that only some workloads spend reads
    /// exactly 0 on every run of the others, so such times stay in the
    /// record and `layers.json` only; every workload has an
    /// `unattributed_s`.
    pub fn summarised(&self) -> bool {
        self.name == "unattributed_s" || !matches!(self.unit, "s" | "us" | "ns")
    }
}

/// Every per-layer metric, in report order. The comment above each
/// group names the end-to-end metric it should move.
pub const LAYERS: &[Layer] = &[
    // op_s_p50 on sweep-calibrate.
    layer("membench.sweep_s", "s", Kind::Part),
    layer("model.calibrate_s", "s", Kind::Part),
    layer("model.evaluate_s", "s", Kind::Part),
    layer("membench.points", "count", Kind::Value),
    layer("memsim.engine.solves", "count", Kind::Value),
    layer("memsim.engine.cache_hits", "count", Kind::Value),
    layer("memsim.engine.hit_ratio", "ratio", Kind::Value),
    // op_s_p50 on both replays: ingest on the file, stepping on both.
    layer("replay.source_s", "s", Kind::Part),
    layer("replay.engine_s", "s", Kind::Part),
    layer("replay.engine_ns_per_node_step", "ns", Kind::Value),
    // peak_rss_kb on replay-halo2d-file.
    layer("replay.events", "count", Kind::Value),
    layer("replay.trace_bytes", "B", Kind::Value),
    layer("replay.peak_buffered", "events", Kind::Value),
    // op_s_p50 on replay-allreduce.
    layer("mpisim.world.node_steps", "count", Kind::Value),
    layer("mpisim.world.transitions", "count", Kind::Value),
    layer("mpisim.world.node_steps_per_event", "count", Kind::Value),
    layer("memsim.delta.requests", "count", Kind::Value),
    layer("memsim.delta.reuse_hits", "count", Kind::Value),
    layer("memsim.delta.state_hits", "count", Kind::Value),
    layer("memsim.delta.full_solves", "count", Kind::Value),
    layer("memsim.delta.hit_ratio", "ratio", Kind::Value),
    // op_s_p50 on schedule-mixed.
    layer("sched.assign_s.first_fit", "s", Kind::Part),
    layer("sched.assign_s.round_robin", "s", Kind::Part),
    layer("sched.assign_s.contention_aware", "s", Kind::Part),
    layer("sched.plan_s", "s", Kind::Part),
    layer("sched.node_sims", "count", Kind::Value),
    layer("memsim.node.run_us", "us", Kind::Time),
    layer("memsim.node.solves_per_run", "count", Kind::Value),
    layer("sched.node_sim_share", "ratio", Kind::Value),
    // setup_s on schedule-mixed.
    layer("model.registry.calibrations", "count", Kind::Value),
    // The trace's own quality: op time no layer row covers, and the
    // traced op's slowdown over the untraced one.
    layer("unattributed_s", "s", Kind::Value),
    layer("trace_overhead", "ratio", Kind::Value),
];

/// Index of a layer metric in [`LAYERS`] (its Chrome trace track).
pub fn index(name: &str) -> Option<usize> {
    LAYERS.iter().position(|l| l.name == name)
}

/// One timed interval inside a traced op.
pub struct SpanRec {
    /// The layer metric the interval was charged to.
    pub layer: &'static str,
    /// Wall-clock start.
    pub start: Instant,
    /// Wall-clock duration, seconds.
    pub dur_s: f64,
}

/// Layer times and counters of one op. An untraced op gets
/// [`Layers::off`], which records nothing and takes no timestamps.
#[derive(Default)]
pub struct Layers {
    on: bool,
    values: BTreeMap<&'static str, f64>,
    spans: Vec<SpanRec>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    /// A recorder that records nothing.
    pub fn off() -> Layers {
        Layers::default()
    }

    /// A recorder for one traced op.
    pub fn on() -> Layers {
        Layers {
            on: true,
            ..Layers::default()
        }
    }

    /// Whether this op is traced.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.charge(layer, start, start.elapsed());
        out
    }

    /// Charge `dur` starting at `start` to `layer`.
    pub fn charge(&mut self, layer: &'static str, start: Instant, dur: Duration) {
        let dur_s = dur.as_secs_f64();
        self.add(layer, dur_s);
        self.spans.push(SpanRec {
            layer,
            start,
            dur_s,
        });
    }

    /// Add `v` to a counter or time.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            debug_assert!(index(name).is_some(), "unknown layer metric {name}");
            *self.values.entry(name).or_insert(0.0) += v;
        }
    }

    /// Raise a high-water mark to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.on {
            let slot = self.values.entry(name).or_insert(0.0);
            *slot = slot.max(v);
        }
    }

    /// Multiply an accumulated value by `k` (sum to mean, unit change).
    pub fn scale(&mut self, name: &'static str, k: f64) {
        if let Some(v) = self.values.get_mut(name) {
            *v *= k;
        }
    }

    /// The op's spans, for the Chrome trace.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Every layer metric of this op: times scaled to reference-host
    /// seconds by `factor` (the op's `ref_host_factor`), derived ratios
    /// computed from the corrected times, and `unattributed_s` as the
    /// corrected op time `op_s` minus every [`Kind::Part`].
    /// `trace_overhead` is a property of the run, not of one op, and is
    /// left at 0 here.
    pub fn finish(&self, op_s: f64, factor: f64) -> BTreeMap<&'static str, f64> {
        let mut v: BTreeMap<&'static str, f64> = LAYERS
            .iter()
            .map(|l| {
                let raw = self.values.get(l.name).copied().unwrap_or(0.0);
                let scaled = match l.kind {
                    Kind::Part | Kind::Time => raw * factor,
                    Kind::Value => raw,
                };
                (l.name, scaled)
            })
            .collect();
        let get = |v: &BTreeMap<&str, f64>, k: &str| v[k];
        let parts: f64 = LAYERS
            .iter()
            .filter(|l| l.kind == Kind::Part)
            .map(|l| get(&v, l.name))
            .sum();
        let hit_ratio = ratio(
            get(&v, "memsim.engine.cache_hits"),
            get(&v, "memsim.engine.solves") + get(&v, "memsim.engine.cache_hits"),
        );
        let ns_per_step = ratio(
            get(&v, "replay.engine_s") * 1e9,
            get(&v, "mpisim.world.node_steps"),
        );
        let steps_per_event = ratio(get(&v, "mpisim.world.node_steps"), get(&v, "replay.events"));
        let delta_hits = ratio(
            get(&v, "memsim.delta.reuse_hits") + get(&v, "memsim.delta.state_hits"),
            get(&v, "memsim.delta.requests"),
        );
        let sim_share = ratio(
            get(&v, "sched.node_sims") * get(&v, "memsim.node.run_us") * 1e-6,
            op_s,
        );
        v.insert("memsim.engine.hit_ratio", hit_ratio);
        v.insert("replay.engine_ns_per_node_step", ns_per_step);
        v.insert("mpisim.world.node_steps_per_event", steps_per_event);
        v.insert("memsim.delta.hit_ratio", delta_hits);
        v.insert("sched.node_sim_share", sim_share);
        v.insert("unattributed_s", op_s - parts);
        v
    }
}

/// An [`EventSource`] that adds up the wall time spent in the wrapped
/// source's `peek` and `advance` — trace ingest for a file, event
/// generation for a generator.
pub struct Timed<S> {
    inner: S,
    spent: Duration,
}

impl<S> Timed<S> {
    /// Wrap a source.
    pub fn new(inner: S) -> Timed<S> {
        Timed {
            inner,
            spent: Duration::ZERO,
        }
    }

    /// Time spent inside the wrapped source so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: EventSource> EventSource for Timed<S> {
    fn ranks(&self) -> usize {
        self.inner.ranks()
    }

    fn peek(&mut self, rank: usize) -> Result<Option<EventKind>, TraceError> {
        let t0 = Instant::now();
        let out = self.inner.peek(rank);
        self.spent += t0.elapsed();
        out
    }

    fn advance(&mut self, rank: usize) {
        let t0 = Instant::now();
        self.inner.advance(rank);
        self.spent += t0.elapsed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names_are_unique() {
        for (i, l) in LAYERS.iter().enumerate() {
            assert_eq!(index(l.name), Some(i), "{} listed twice", l.name);
        }
    }

    #[test]
    fn off_records_nothing() {
        let mut l = Layers::off();
        assert_eq!(l.time("model.evaluate_s", || 7), 7);
        l.add("replay.events", 3.0);
        assert!(l.spans().is_empty());
        assert_eq!(l.finish(1.0, 1.0)["replay.events"], 0.0);
    }

    #[test]
    fn finish_corrects_times_and_derives_ratios() {
        let mut l = Layers::on();
        l.add("replay.source_s", 0.25);
        l.add("replay.engine_s", 0.5);
        l.add("replay.events", 100.0);
        l.add("mpisim.world.node_steps", 1000.0);
        l.add("memsim.delta.requests", 10.0);
        l.add("memsim.delta.reuse_hits", 6.0);
        l.add("memsim.delta.state_hits", 2.0);
        // A host twice as slow as the reference: times halve.
        let v = l.finish(0.5, 0.5);
        assert_eq!(v["replay.source_s"], 0.125);
        assert_eq!(v["replay.engine_s"], 0.25);
        assert_eq!(v["replay.events"], 100.0);
        assert_eq!(v["mpisim.world.node_steps_per_event"], 10.0);
        assert_eq!(v["replay.engine_ns_per_node_step"], 0.25e9 / 1000.0);
        assert_eq!(v["memsim.delta.hit_ratio"], 0.8);
        assert_eq!(v["unattributed_s"], 0.5 - 0.375);
        // Ratios over nothing are 0, not NaN.
        assert_eq!(v["memsim.engine.hit_ratio"], 0.0);
        assert_eq!(v.len(), LAYERS.len());
    }
}
