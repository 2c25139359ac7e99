//! [`Registry`]: the concrete std-only [`Recorder`] that accumulates
//! spans, counters and histograms for later export.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::recorder::{Recorder, SpanId, Tag};

/// Owned form of a tag set: sorted `(key, rendered value)` pairs. Sorting
/// makes metric identity independent of call-site tag order and keeps
/// every exporter deterministic.
pub(crate) type OwnedTags = Vec<(String, String)>;

fn own_tags(tags: &[Tag<'_>]) -> OwnedTags {
    let mut owned: OwnedTags = tags
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    owned.sort();
    owned
}

/// Running summary of an f64 distribution. A five-number summary rather
/// than buckets: enough to spot regressions (count, mean, extremes)
/// without choosing bucket boundaries per metric.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl HistogramSummary {
    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn new(value: f64) -> Self {
        HistogramSummary {
            count: 1,
            sum: value,
            min: value,
            max: value,
        }
    }

    /// Mean of the observations (`sum / count`).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

/// One span: a named stage with tags and wall-clock extent, in seconds
/// relative to the registry's creation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Stage name (`"engine.run"`, `"sweep"`, `"calibrate"`, …).
    pub stage: String,
    /// Sorted owned tags.
    pub tags: Vec<(String, String)>,
    /// Start offset from registry creation, in seconds.
    pub start_s: f64,
    /// Wall-clock duration in seconds. For an incomplete span this is
    /// the time from enter to the snapshot, not to an exit.
    pub duration_s: f64,
    /// True for a span that was still open when the snapshot was taken
    /// (the stage panicked, or the export ran mid-stage). Exporters
    /// flag these rather than dropping them — a killed session must
    /// still show where it died.
    pub incomplete: bool,
}

/// Point-in-time copy of everything a [`Registry`] has accumulated.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter totals keyed by `(name, sorted tags)`.
    pub counters: BTreeMap<(String, OwnedTags), u64>,
    /// Histogram summaries keyed by `(name, sorted tags)`.
    pub histograms: BTreeMap<(String, OwnedTags), HistogramSummary>,
    /// Completed spans in completion order.
    pub spans: Vec<SpanRecord>,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<(String, OwnedTags), u64>,
    histograms: BTreeMap<(String, OwnedTags), HistogramSummary>,
    /// Spans entered but not yet exited, keyed by span id.
    open: BTreeMap<u64, (String, OwnedTags, Instant)>,
    spans: Vec<SpanRecord>,
}

/// The workspace's concrete recorder: accumulates everything in memory
/// behind one `Mutex`, exports on demand.
///
/// A plain mutex is deliberate — instrumentation is run-granular (a few
/// hundred calls per pipeline run, never per simulated event), so lock
/// contention is irrelevant and the std-only policy is kept.
pub struct Registry {
    inner: Mutex<Inner>,
    next_id: AtomicU64,
    epoch: Instant,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    /// An empty registry; its span clock starts now.
    pub fn new() -> Self {
        Registry {
            inner: Mutex::new(Inner::default()),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record a completed span with explicit timing, bypassing the wall
    /// clock. This is how deterministic tests (and replay tools) inject
    /// spans with reproducible timestamps.
    pub fn record_span(&self, stage: &str, tags: &[Tag<'_>], start_s: f64, duration_s: f64) {
        self.lock().spans.push(SpanRecord {
            stage: stage.to_string(),
            tags: own_tags(tags),
            start_s,
            duration_s,
            incomplete: false,
        });
    }

    /// Total of a counter summed across all tag sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.lock()
            .counters
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Copy out everything accumulated so far. Open (unexited) spans —
    /// a stage that panicked, or an export taken mid-stage — are closed
    /// at the snapshot instant and appended after the completed spans,
    /// flagged [`SpanRecord::incomplete`], in enter order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let now = Instant::now();
        let inner = self.lock();
        let mut spans = inner.spans.clone();
        for (stage, tags, started) in inner.open.values() {
            spans.push(SpanRecord {
                stage: stage.clone(),
                tags: tags.clone(),
                start_s: started.duration_since(self.epoch).as_secs_f64(),
                duration_s: now.duration_since(*started).as_secs_f64(),
                incomplete: true,
            });
        }
        MetricsSnapshot {
            counters: inner.counters.clone(),
            histograms: inner.histograms.clone(),
            spans,
        }
    }
}

impl Recorder for Registry {
    fn span_enter(&self, stage: &str, tags: &[Tag<'_>]) -> SpanId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        self.lock()
            .open
            .insert(id, (stage.to_string(), own_tags(tags), now));
        SpanId(id)
    }

    fn span_exit(&self, id: SpanId) {
        let now = Instant::now();
        let mut inner = self.lock();
        if let Some((stage, tags, started)) = inner.open.remove(&id.0) {
            inner.spans.push(SpanRecord {
                stage,
                tags,
                start_s: started.duration_since(self.epoch).as_secs_f64(),
                duration_s: now.duration_since(started).as_secs_f64(),
                incomplete: false,
            });
        }
    }

    fn add(&self, name: &str, tags: &[Tag<'_>], delta: u64) {
        *self
            .lock()
            .counters
            .entry((name.to_string(), own_tags(tags)))
            .or_insert(0) += delta;
    }

    fn observe(&self, name: &str, tags: &[Tag<'_>], value: f64) {
        self.lock()
            .histograms
            .entry((name.to_string(), own_tags(tags)))
            .and_modify(|h| h.observe(value))
            .or_insert_with(|| HistogramSummary::new(value));
    }

    fn record_span(&self, stage: &str, tags: &[Tag<'_>], start_s: f64, duration_s: f64) {
        Registry::record_span(self, stage, tags, start_s, duration_s);
    }

    fn snapshot(&self) -> Option<MetricsSnapshot> {
        Some(Registry::snapshot(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TagValue;

    #[test]
    fn counters_accumulate_per_tag_set_and_total() {
        let r = Registry::new();
        r.add("events", &[("platform", TagValue::Str("henri"))], 2);
        r.add("events", &[("platform", TagValue::Str("henri"))], 3);
        r.add("events", &[("platform", TagValue::Str("grouille"))], 1);
        assert_eq!(r.counter_total("events"), 6);
        assert_eq!(r.counter_total("other"), 0);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 2);
    }

    #[test]
    fn histogram_summary_tracks_extremes() {
        let r = Registry::new();
        for v in [2.0, 8.0, 5.0] {
            r.observe("lat", &[], v);
        }
        let snap = r.snapshot();
        let h = &snap.histograms[&("lat".to_string(), vec![])];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 15.0);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 8.0);
        assert_eq!(h.mean(), 5.0);
    }

    #[test]
    fn spans_pair_enter_with_exit() {
        let r = Registry::new();
        let id = r.span_enter("stage-a", &[("n_cores", TagValue::U64(16))]);
        r.span_exit(id);
        // Exiting an unknown id is ignored.
        r.span_exit(SpanId(999));
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].stage, "stage-a");
        assert_eq!(
            snap.spans[0].tags,
            vec![("n_cores".to_string(), "16".to_string())]
        );
        assert!(snap.spans[0].duration_s >= 0.0);
    }

    #[test]
    fn open_spans_surface_in_snapshots_as_incomplete() {
        let r = Registry::new();
        let _open = r.span_enter("stage-dying", &[("platform", TagValue::Str("henri"))]);
        let done = r.span_enter("stage-done", &[]);
        r.span_exit(done);
        let snap = r.snapshot();
        // Completed spans first, then the still-open one, flagged.
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].stage, "stage-done");
        assert!(!snap.spans[0].incomplete);
        let open = &snap.spans[1];
        assert_eq!(open.stage, "stage-dying");
        assert!(open.incomplete);
        assert!(open.duration_s >= 0.0);
        assert_eq!(
            open.tags,
            vec![("platform".to_string(), "henri".to_string())]
        );
        // The span is still open in the registry: a later snapshot sees
        // it again (snapshots never mutate).
        assert_eq!(r.snapshot().spans.len(), 2);
    }

    #[test]
    fn record_span_is_deterministic() {
        let r = Registry::new();
        r.record_span("fixed", &[("mode", TagValue::Str("test"))], 1.0, 0.25);
        let snap = r.snapshot();
        assert_eq!(snap.spans[0].start_s, 1.0);
        assert_eq!(snap.spans[0].duration_s, 0.25);
    }

    #[test]
    fn tag_order_does_not_split_series() {
        let r = Registry::new();
        r.add("c", &[("a", TagValue::U64(1)), ("b", TagValue::U64(2))], 1);
        r.add("c", &[("b", TagValue::U64(2)), ("a", TagValue::U64(1))], 1);
        assert_eq!(r.snapshot().counters.len(), 1);
        assert_eq!(r.counter_total("c"), 2);
    }
}
