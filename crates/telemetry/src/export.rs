//! Exporters: deterministic JSON-lines dump and human-readable summary.

use crate::json::JsonObject;
use crate::metrics::MetricValue;
use crate::span::SpanRecord;
use crate::{FieldValue, Inner, TimeSeries};

/// One JSON object per line: a `meta` header, then metric series sorted by
/// (name, labels), spans in creation order, and retained flight-recorder
/// events oldest first. Identical runs produce byte-identical output.
pub(crate) fn json_lines(inner: &mut Inner) -> String {
    // Reserve the whole dump up front: a string that doubles its way to a
    // multi-megabyte export holds the old and the new buffer at each step.
    // The per-record sizes err high; reserved pages that are never written
    // are never resident.
    let mut out = String::with_capacity(
        1024 + 512 * (inner.metrics.len() + inner.series.len())
            + 128 * inner.spans.len()
            + 40 * inner.spans.note_count()
            + 256 * inner.recorder.retained(),
    );
    let meta = JsonObject::new()
        .str("record", "meta")
        .u64("spans", inner.spans.len() as u64)
        .u64("metrics", inner.metrics.len() as u64)
        .u64("timeseries", inner.series.len() as u64)
        .u64("events_recorded", inner.recorder.recorded())
        .finish();
    out.push_str(&meta);
    out.push('\n');

    for (name, labels, value) in inner.metrics.sorted() {
        out.push_str(&metric_line(name, labels, value));
        out.push('\n');
    }

    for series in inner.series.snapshot() {
        out.push_str(&series_line(&series));
        out.push('\n');
    }

    for span in inner.spans.iter() {
        let mut obj = JsonObject::new()
            .str("record", "span")
            .u64("id", span.id.0)
            .u64("trace", span.trace.0)
            .opt_u64("parent", span.parent.map(|p| p.0))
            .str("name", span.name)
            .u64("start_ns", span.start_ns)
            .opt_u64("end_ns", span.end_ns);
        for (key, value) in span.fields() {
            obj = obj.field(key, value);
        }
        out.push_str(&obj.finish());
        out.push('\n');
    }

    for event in inner.recorder.drain_ordered() {
        let obj = JsonObject::new()
            .str("record", "event")
            .u64("seq", event.seq)
            .u64("t_ns", event.t_ns)
            .str("kind", &event.kind)
            .field("detail", &event.detail);
        out.push_str(&obj.finish());
        out.push('\n');
    }
    out
}

/// One metric series' record.
pub(crate) fn metric_line(name: &str, labels: &str, value: &MetricValue) -> String {
    let obj = JsonObject::new().str("record", "metric").str("name", name).str("labels", labels);
    let obj = match value {
        MetricValue::Counter(n) => obj.str("type", "counter").u64("value", *n),
        MetricValue::Gauge(v) => obj.str("type", "gauge").i64("value", *v),
        MetricValue::Histogram(h) => obj
            .str("type", "histogram")
            .u64("total", h.total)
            .u64("sum", h.sum)
            .u64("min", if h.total == 0 { 0 } else { h.min })
            .u64("max", h.max)
            .u64_array("bounds", &h.bounds)
            .u64_array("counts", &h.counts)
            .u64("overflow", h.overflow),
    };
    obj.finish()
}

/// One time-series' record.
pub(crate) fn series_line(series: &TimeSeries) -> String {
    let buckets: Vec<u64> = series.points.iter().map(|(b, _)| *b).collect();
    let values: Vec<i64> = series.points.iter().map(|(_, v)| *v).collect();
    JsonObject::new()
        .str("record", "timeseries")
        .str("name", &series.name)
        .str("labels", &series.labels)
        .str("kind", series.kind.as_str())
        .u64("bucket_ns", series.bucket_ns)
        .u64_array("buckets", &buckets)
        .i64_array("values", &values)
        .finish()
}

/// Human-readable dump: metric table, then the span tree.
pub(crate) fn summary(inner: &mut Inner) -> String {
    let mut out = String::new();
    let series = inner.metrics.sorted();
    if !series.is_empty() {
        out.push_str(&format!("{:<36} {:<28} {:>14}\n", "metric", "labels", "value"));
        out.push_str(&"-".repeat(80));
        out.push('\n');
        for (name, labels, value) in series {
            let rendered = match value {
                MetricValue::Counter(n) => n.to_string(),
                MetricValue::Gauge(v) => v.to_string(),
                MetricValue::Histogram(h) => {
                    format!("n={} mean={:.1} max={}", h.total, h.mean(), h.max)
                }
            };
            out.push_str(&format!("{name:<36} {labels:<28} {rendered:>14}\n"));
        }
    }
    let tree = render_span_tree(&inner.spans.records());
    if !tree.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str("span tree (sim-time):\n");
        out.push_str(&tree);
    }
    let events = inner.recorder.drain_ordered();
    if !events.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!(
            "flight recorder ({} retained of {} recorded):\n",
            events.len(),
            inner.recorder.recorded()
        ));
        for e in events {
            let detail = match &e.detail {
                FieldValue::Str(s) => s.clone(),
                FieldValue::Bool(b) => b.to_string(),
                FieldValue::U64(n) => n.to_string(),
                FieldValue::I64(n) => n.to_string(),
                FieldValue::F64(x) => format!("{x}"),
            };
            out.push_str(&format!(
                "  [{:>12.6}s] {:<24} {}\n",
                e.t_ns as f64 / 1e9,
                e.kind,
                detail
            ));
        }
    }
    out
}

/// Indented rendering of the span forest, children under parents, each line
/// showing start time and duration in sim-seconds plus attached fields.
pub(crate) fn render_span_tree(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    let roots: Vec<&SpanRecord> = records.iter().filter(|s| s.parent.is_none()).collect();
    for root in roots {
        render_subtree(records, root, 0, &mut out);
    }
    out
}

fn render_subtree(records: &[SpanRecord], node: &SpanRecord, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let duration = match node.duration_ns() {
        Some(d) => format!("{:.6}s", d as f64 / 1e9),
        None => "open".to_string(),
    };
    let mut fields = String::new();
    for (k, v) in &node.fields {
        let rendered = match v {
            FieldValue::Str(s) => s.clone(),
            FieldValue::Bool(b) => b.to_string(),
            FieldValue::U64(n) => n.to_string(),
            FieldValue::I64(n) => n.to_string(),
            FieldValue::F64(x) => format!("{x}"),
        };
        fields.push_str(&format!(" {k}={rendered}"));
    }
    out.push_str(&format!(
        "{indent}{} @{:.6}s +{duration}{fields}\n",
        node.name,
        node.start_ns as f64 / 1e9,
    ));
    let children: Vec<&SpanRecord> = records.iter().filter(|s| s.parent == Some(node.id)).collect();
    for child in children {
        render_subtree(records, child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn json_lines_orders_records() {
        let reg = Registry::new();
        reg.counter_add("z_metric", &[], 1);
        reg.counter_add("a_metric", &[], 2);
        let sp = reg.span_start("op", 0);
        reg.span_end(sp, 10);
        reg.record(3, "evt", "x");
        let dump = reg.export_json_lines();
        let lines: Vec<&str> = dump.lines().collect();
        assert!(lines[0].contains("\"record\":\"meta\""));
        assert!(lines[1].contains("a_metric"));
        assert!(lines[2].contains("z_metric"));
        assert!(lines[3].contains("\"record\":\"span\""));
        assert!(lines[4].contains("\"record\":\"event\""));
    }

    #[test]
    fn span_tree_indents_children() {
        let reg = Registry::new();
        let a = reg.span_start("outer", 0);
        let b = reg.span_start("inner", 1_000_000_000);
        reg.span_end(b, 2_000_000_000);
        reg.span_end(a, 3_000_000_000);
        let tree = reg.span_tree();
        assert!(tree.starts_with("outer @0.000000s"));
        assert!(tree.contains("\n  inner @1.000000s"));
    }
}
