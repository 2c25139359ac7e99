//! # mc-obs — pipeline observability
//!
//! A zero-dependency span/metrics subsystem for the whole workspace:
//! every sweep, calibration, and prediction can be traced (wall-clock
//! spans), counted (monotonic counters), and timed (f64 histograms),
//! then exported as JSON lines or a human-readable table.
//!
//! ## Design
//!
//! * A [`Recorder`] trait receives span enter/exit events, counter
//!   increments and histogram observations, all tagged with a small
//!   `(key, value)` vocabulary (`platform`, `m_comp`, `m_comm`,
//!   `n_cores`, …).
//! * [`NoopRecorder`] is the default: when no recorder is installed the
//!   instrumented hot paths perform **one relaxed atomic load** and
//!   allocate nothing, so the zero-allocation solve path stays
//!   allocation-free and bit-identical (asserted by test).
//! * [`Registry`] is the std-only concrete recorder (a `Mutex` around
//!   `BTreeMap`s — matching the workspace's no-external-crates policy)
//!   with deterministic [JSON-lines](Registry::metrics_json_lines),
//!   [table](Registry::table) and
//!   [Chrome trace_event](Registry::chrome_trace) exporters.
//! * Instrumentation is **run-granular**, never event-granular: the
//!   engine reports one batch of counters per run, the sweep one
//!   histogram sample per measured point — the per-event hot loop is
//!   untouched.
//!
//! ```
//! use std::sync::Arc;
//! use mc_obs::{Registry, TagValue};
//!
//! let registry = Arc::new(Registry::new());
//! mc_obs::set_recorder(registry.clone());
//! {
//!     let _span = mc_obs::span("demo", &[("platform", TagValue::Str("henri"))]);
//!     if let Some(rec) = mc_obs::recorder() {
//!         rec.add("demo.widgets", &[], 3);
//!     }
//! }
//! mc_obs::clear_recorder();
//! assert_eq!(registry.counter_total("demo.widgets"), 3);
//! assert!(registry.snapshot().spans.iter().any(|s| s.stage == "demo"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chrome;
pub mod export;
pub mod recorder;
pub mod registry;
pub mod rss;
pub mod tags;

pub use recorder::{
    clear_recorder, enabled, recorder, set_recorder, span, NoopRecorder, Recorder, Span, SpanId,
    Tag, TagValue,
};
pub use registry::{HistogramSummary, MetricsSnapshot, Registry, SpanRecord};
pub use rss::{current_rss_kb, peak_rss_kb};
