//! Sim-time telemetry for the GDMP reproduction: spans, metrics, and a
//! flight recorder, all stamped with **simulated** time.
//!
//! Everything here is deterministic by construction: no wall clocks, no
//! hash-ordered iteration, no thread identity. Two identical simulation
//! runs produce byte-identical exports, which lets integration tests diff
//! telemetry dumps directly and makes regressions in the instrumented
//! pipelines show up as one-line diffs.
//!
//! The crate deliberately has **zero dependencies** — not even on
//! `gdmp-simnet` — so every layer of the workspace (including simnet
//! itself) can depend on it without cycles. Timestamps are raw `u64`
//! nanoseconds; callers pass `SimTime::nanos()`.
//!
//! # Shape
//!
//! [`Registry`] is the single entry point. It is a cheap `Clone` handle:
//! clones share storage, so a registry threaded through a `Grid`, its
//! sites, and the network simulator aggregates into one place. The
//! `Default` registry is *disabled* — every call is a no-op costing one
//! branch — so existing call sites keep working untouched.
//!
//! ```
//! use gdmp_telemetry::Registry;
//!
//! let reg = Registry::new();
//! let span = reg.span_start("replicate", 0);
//! reg.span_note(span, "lfn", "higgs.0001.root");
//! reg.counter_add("transfer_bytes", &[("src", "cern"), ("dst", "anl")], 1 << 20);
//! reg.observe("stage_latency_ns", &[], 250_000_000);
//! reg.span_end(span, 42_000_000);
//! assert!(reg.export_json_lines().contains("replicate"));
//! ```

pub mod analysis;
mod export;
mod index;
pub mod json;
mod metrics;
mod recorder;
mod span;
mod timeseries;

pub use metrics::{Histogram, MetricValue, DEFAULT_BUCKETS};
pub use recorder::Event;
pub use span::{SpanId, SpanRecord, TraceId};
pub use timeseries::{SeriesKind, TimeSeries};

use std::sync::{Arc, Mutex};

use metrics::Metrics;
use recorder::Recorder;
use span::Spans;
use timeseries::TimeSeriesStore;

/// Field value attached to spans and flight-recorder events.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident $(as $cast:ty)?),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue {
                FieldValue::$variant(v $(as $cast)?)
            }
        }
    )*};
}

impl_field_from! {
    bool => Bool,
    u8 => U64 as u64,
    u16 => U64 as u64,
    u32 => U64 as u64,
    u64 => U64,
    usize => U64 as u64,
    i32 => I64 as i64,
    i64 => I64,
    f64 => F64,
    String => Str,
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

pub(crate) struct Inner {
    pub(crate) spans: Spans,
    pub(crate) metrics: Metrics,
    pub(crate) recorder: Recorder,
    pub(crate) series: TimeSeriesStore,
}

/// Shared handle to one telemetry store.
///
/// Cloning shares storage. The [`Default`] registry is disabled: all calls
/// are no-ops and exports are empty, so library types can hold a registry
/// unconditionally without imposing any cost on callers that never opt in.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("enabled", &self.is_enabled()).finish()
    }
}

impl Registry {
    /// An active registry with the default flight-recorder capacity (256).
    pub fn new() -> Registry {
        Registry::with_recorder_capacity(256)
    }

    /// An active registry whose flight recorder keeps the last `cap` events.
    pub fn with_recorder_capacity(cap: usize) -> Registry {
        Registry {
            inner: Some(Arc::new(Mutex::new(Inner {
                spans: Spans::default(),
                metrics: Metrics::default(),
                recorder: Recorder::new(cap),
                series: TimeSeriesStore::default(),
            }))),
        }
    }

    /// The no-op registry; same as `Registry::default()`.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> Option<R> {
        self.inner.as_ref().map(|m| f(&mut m.lock().unwrap_or_else(|e| e.into_inner())))
    }

    // ---- spans ----------------------------------------------------------

    /// Open a span at sim-time `now_ns`. The parent is the innermost span
    /// still open on this registry (the sim is single-threaded per run).
    /// Returns [`SpanId::NONE`] on a disabled registry; all span operations
    /// accept it and do nothing.
    pub fn span_start(&self, name: &str, now_ns: u64) -> SpanId {
        self.with_inner(|i| i.spans.start(name, now_ns)).unwrap_or(SpanId::NONE)
    }

    /// Attach a `key = value` field to an open (or closed) span.
    pub fn span_note(&self, id: SpanId, key: &str, value: impl Into<FieldValue>) {
        // Check both gates before `into()`: converting a `&str` allocates,
        // and the disabled fast path must stay allocation-free.
        if id == SpanId::NONE || self.inner.is_none() {
            return;
        }
        let value = value.into();
        self.with_inner(|i| i.spans.note(id, key, value));
    }

    /// Close a span at sim-time `now_ns`. Closing out of order is allowed
    /// (the open-stack entry is removed wherever it sits).
    pub fn span_end(&self, id: SpanId, now_ns: u64) {
        if id == SpanId::NONE {
            return;
        }
        self.with_inner(|i| i.spans.end(id, now_ns));
    }

    /// Snapshot of all spans recorded so far, in creation order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.with_inner(|i| i.spans.records()).unwrap_or_default()
    }

    // ---- metrics --------------------------------------------------------

    /// Add `delta` to a counter. Labels may be passed in any order; they are
    /// canonicalized (sorted by key) so the same series is hit every time.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.with_inner(|i| i.metrics.counter_add(name, labels, delta));
    }

    /// Set a gauge to an absolute value. Panics if the series already
    /// holds a counter or a histogram, as `counter_add` and `observe` do
    /// for the other kinds.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: i64) {
        self.with_inner(|i| i.metrics.gauge_set(name, labels, value));
    }

    /// Record `value` into a fixed-bucket histogram. Buckets default to
    /// [`DEFAULT_BUCKETS`] unless [`Registry::histogram_buckets`] was called
    /// for this metric name first.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.with_inner(|i| i.metrics.observe(name, labels, value));
    }

    /// Declare the bucket upper bounds for histograms named `name`.
    /// Affects series created after this call.
    pub fn histogram_buckets(&self, name: &str, bounds: &[u64]) {
        self.with_inner(|i| i.metrics.set_buckets(name, bounds));
    }

    /// Read one metric series back, if it exists.
    pub fn metric(&self, name: &str, labels: &[(&str, &str)]) -> Option<MetricValue> {
        self.with_inner(|i| i.metrics.get(name, labels).cloned()).flatten()
    }

    /// Convenience: current value of a counter series (0 when absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let value = |i: &mut Inner| match i.metrics.get(name, labels) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        };
        self.with_inner(value).unwrap_or(0)
    }

    /// All metric series, sorted by (name, labels).
    pub fn metrics_snapshot(&self) -> Vec<(String, String, MetricValue)> {
        self.with_inner(|i| i.metrics.snapshot()).unwrap_or_default()
    }

    /// Fold `other`'s metrics into `self`: counters and histogram buckets
    /// add, gauges take `other`'s value. Spans and recorder events are not
    /// merged (they belong to one run's trace).
    pub fn merge_metrics_from(&self, other: &Registry) {
        let Some(theirs) = other.with_inner(|i| i.metrics.clone()) else {
            return;
        };
        self.with_inner(|i| i.metrics.merge_from(&theirs));
    }

    // ---- time-series ----------------------------------------------------

    /// Switch on windowed time-series collection with sim-time buckets of
    /// `bucket_ns`. Until this is called every `series_*` call is a no-op,
    /// so exports stay byte-identical for callers that never opt in.
    pub fn enable_timeseries(&self, bucket_ns: u64) {
        self.with_inner(|i| i.series.enable(bucket_ns));
    }

    /// The configured time-series bucket width, if collection is on.
    pub fn timeseries_bucket_ns(&self) -> Option<u64> {
        self.with_inner(|i| i.series.bucket_ns()).flatten()
    }

    /// Add `delta` to the delta series `name{labels}` in the bucket
    /// containing sim-time `now_ns` (bytes moved, requests served, ...).
    pub fn series_add(&self, name: &str, labels: &[(&str, &str)], now_ns: u64, delta: u64) {
        self.with_inner(|i| i.series.add(name, labels, now_ns, delta));
    }

    /// Set the level series `name{labels}` for the bucket containing
    /// sim-time `now_ns` (queue depth, breaker state, ...); the last write
    /// in a bucket wins and levels carry forward across empty buckets.
    pub fn series_set(&self, name: &str, labels: &[(&str, &str)], now_ns: u64, value: i64) {
        self.with_inner(|i| i.series.set(name, labels, now_ns, value));
    }

    /// Snapshot of every collected time-series, sorted by (name, labels).
    pub fn timeseries_snapshot(&self) -> Vec<TimeSeries> {
        self.with_inner(|i| i.series.snapshot()).unwrap_or_default()
    }

    // ---- flight recorder ------------------------------------------------

    /// Append an event to the ring-buffer flight recorder.
    pub fn record(&self, now_ns: u64, kind: &str, detail: impl Into<FieldValue>) {
        // Gate before `into()`: the disabled fast path must not allocate.
        if self.inner.is_none() {
            return;
        }
        let detail = detail.into();
        self.with_inner(|i| i.recorder.push(now_ns, kind, detail));
    }

    /// The retained (most recent) flight-recorder events, oldest first.
    pub fn recent_events(&self) -> Vec<Event> {
        self.with_inner(|i| i.recorder.drain_ordered()).unwrap_or_default()
    }

    // ---- exports --------------------------------------------------------

    /// JSON-lines dump: one `{"record":"meta",...}` header, then every
    /// metric series, span, and retained flight-recorder event, one JSON
    /// object per line. Byte-identical across identical runs.
    pub fn export_json_lines(&self) -> String {
        self.with_inner(export::json_lines).unwrap_or_default()
    }

    /// Human-readable summary: metric table plus span-tree rendering.
    pub fn summary(&self) -> String {
        self.with_inner(export::summary).unwrap_or_default()
    }

    /// Just the span tree, rendered with indentation and sim-time stamps.
    pub fn span_tree(&self) -> String {
        self.with_inner(|i| export::render_span_tree(&i.spans.records())).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::default();
        assert!(!reg.is_enabled());
        let sp = reg.span_start("x", 0);
        assert_eq!(sp, SpanId::NONE);
        reg.span_note(sp, "k", 1u64);
        reg.span_end(sp, 5);
        reg.counter_add("c", &[], 3);
        reg.observe("h", &[], 9);
        reg.record(0, "e", "detail");
        reg.enable_timeseries(1_000);
        reg.series_add("s", &[], 0, 1);
        reg.series_set("g", &[], 0, 1);
        assert!(reg.export_json_lines().is_empty());
        assert!(reg.summary().is_empty());
        assert!(reg.spans().is_empty());
        assert!(reg.timeseries_snapshot().is_empty());
        assert_eq!(reg.timeseries_bucket_ns(), None);
    }

    #[test]
    fn timeseries_export_and_opt_in() {
        let reg = Registry::new();
        reg.series_add("early", &[], 5, 1);
        assert!(reg.timeseries_snapshot().is_empty(), "no collection before opt-in");
        reg.enable_timeseries(1_000);
        reg.series_add("link_bytes", &[("link", "cern-lyon")], 100, 64);
        reg.series_add("link_bytes", &[("link", "cern-lyon")], 1_500, 32);
        reg.series_set("queue_depth", &[("site", "lyon")], 2_100, 4);
        let snap = reg.timeseries_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].points, vec![(0, 64), (1, 32)]);
        let dump = reg.export_json_lines();
        assert!(dump.contains(r#""record":"timeseries""#));
        assert!(dump.contains(r#""kind":"delta""#));
        assert!(dump.contains(r#""kind":"level""#));
        assert!(dump.contains(r#""buckets":[0,1]"#));
    }

    #[test]
    fn clones_share_storage() {
        let reg = Registry::new();
        let clone = reg.clone();
        clone.counter_add("rpcs", &[("kind", "Echo")], 2);
        reg.counter_add("rpcs", &[("kind", "Echo")], 1);
        assert_eq!(reg.counter_value("rpcs", &[("kind", "Echo")]), 3);
    }

    #[test]
    fn label_order_is_canonicalized() {
        let reg = Registry::new();
        reg.counter_add("bytes", &[("src", "a"), ("dst", "b")], 10);
        reg.counter_add("bytes", &[("dst", "b"), ("src", "a")], 5);
        assert_eq!(reg.counter_value("bytes", &[("dst", "b"), ("src", "a")]), 15);
    }

    #[test]
    fn span_nesting_tracks_open_stack() {
        let reg = Registry::new();
        let outer = reg.span_start("outer", 0);
        let inner = reg.span_start("inner", 10);
        reg.span_end(inner, 20);
        let sibling = reg.span_start("sibling", 25);
        reg.span_end(sibling, 30);
        reg.span_end(outer, 40);
        let spans = reg.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[2].parent, Some(outer));
        assert_eq!(spans[0].end_ns, Some(40));
    }

    #[test]
    fn identical_runs_export_identically() {
        let run = || {
            let reg = Registry::new();
            let sp = reg.span_start("replicate", 0);
            reg.span_note(sp, "lfn", "f1");
            reg.counter_add("transfer_bytes", &[("src", "cern"), ("dst", "anl")], 1024);
            reg.observe("stage_latency_ns", &[], 77);
            reg.record(5, "crc", "ok");
            reg.span_end(sp, 99);
            reg.export_json_lines()
        };
        assert_eq!(run(), run());
    }
}
