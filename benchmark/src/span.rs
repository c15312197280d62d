//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer of the
//! reproduction; nothing inside the crates is instrumented. Spans nest by
//! call order on the single driver thread, are kept in memory, and are
//! written once at the end as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are host nanoseconds since the recorder was
/// created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<function>`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The driver op this span belongs to (0 outside the measured phase).
    pub op: u64,
}

pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl SpanRecorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        Ok(())
    }
}

/// Self time per span name: each span's duration minus the part of it its
/// direct children cover.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *by_name.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rep [0,100] > op [10,60] > inner [20,50]; rep > op [70,90].
        let spans = vec![
            span("driver.rep", 0, 100, None),
            span("gdmp.replicate", 10, 60, Some(0)),
            span("probe.inner", 20, 50, Some(1)),
            span("gdmp.replicate", 70, 90, Some(0)),
        ];
        let t = self_time_by_name(&spans);
        assert_eq!(t["driver.rep"], 100 - 50 - 20);
        assert_eq!(t["gdmp.replicate"], (50 - 30) + 20);
        assert_eq!(t["probe.inner"], 30);
        // Self times tile the root exactly.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut r = SpanRecorder::default();
        let a = r.enter("a", 0);
        let b = r.enter("b", 7);
        r.exit(b);
        r.exit(a);
        let c = r.enter("c", 0);
        r.exit(c);
        let s = r.spans();
        assert_eq!(s[b].parent, Some(a));
        assert_eq!(s[c].parent, None);
        assert_eq!(s[b].op, 7);
        assert!(s[a].start_ns <= s[b].start_ns && s[b].end_ns <= s[a].end_ns);
        let mut out = Vec::new();
        r.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
