//! Span storage: nestable scoped records stamped with sim-time.

use std::collections::HashMap;
use std::sync::Arc;

use crate::FieldValue;

/// Identifier of one span within a registry. Ids are assigned sequentially
/// from 1; [`SpanId::NONE`] (0) is the inert id handed out by disabled
/// registries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

/// Identifier of the causal tree a span belongs to. A trace is rooted at a
/// parentless span; the trace id is that root's [`SpanId`] value, so every
/// span reachable from one `Grid::replicate` (selection, per-chunk
/// transfers, backoff waits, gridftp segments) carries the same trace id
/// and a whole tree can be selected with one equality filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    pub const NONE: TraceId = TraceId(0);
}

/// One completed (or still-open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: SpanId,
    pub trace: TraceId,
    pub parent: Option<SpanId>,
    pub name: String,
    pub start_ns: u64,
    /// `None` while the span is still open (or was never closed).
    pub end_ns: Option<u64>,
    /// Fields in attachment order.
    pub fields: Vec<(String, FieldValue)>,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e.saturating_sub(self.start_ns))
    }
}

/// "No note" in a [`Core`]'s or a [`Note`]'s chain link.
const NIL: u32 = u32::MAX;

/// One span in the flat store; its id is its position plus one. Ids of
/// other spans are held as `u32` (a registry never holds 2^32 spans).
struct Core {
    start_ns: u64,
    end_ns: Option<u64>,
    /// The root span's id.
    trace: u32,
    /// The parent's id; 0 for a root.
    parent: u32,
    /// Index into [`Spans::names`].
    name: u32,
    /// This span's notes, a chain through [`Spans::notes`] in attachment
    /// order ([`NIL`] when it has none).
    first_note: u32,
    last_note: u32,
}

/// One `key = value` field of some span.
struct Note {
    /// The same span's next note, or [`NIL`].
    next: u32,
    /// Index into [`Spans::names`].
    key: u32,
    value: FieldValue,
}

/// All spans of a registry in three flat vectors: no allocation per span,
/// and per note only what its value owns. Span names and note keys repeat
/// endlessly, so each distinct one is stored once.
#[derive(Default)]
pub(crate) struct Spans {
    cores: Vec<Core>,
    notes: Vec<Note>,
    names: Vec<Arc<str>>,
    name_ids: HashMap<Arc<str>, u32>,
    /// Innermost-last stack of open spans (positions in `cores`); parent
    /// of a new span is the top.
    open: Vec<u32>,
}

/// A span read in place: [`SpanRecord`]'s fields, borrowed.
pub(crate) struct SpanRef<'a> {
    pub(crate) id: SpanId,
    pub(crate) trace: TraceId,
    pub(crate) parent: Option<SpanId>,
    pub(crate) name: &'a str,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: Option<u64>,
    spans: &'a Spans,
    first_note: u32,
}

impl<'a> SpanRef<'a> {
    /// Fields in attachment order.
    pub(crate) fn fields(&self) -> impl Iterator<Item = (&'a str, &'a FieldValue)> {
        let spans = self.spans;
        let note = move |at: u32| spans.notes.get(at as usize);
        std::iter::successors(note(self.first_note), move |n| note(n.next))
            .map(move |n| (&*spans.names[n.key as usize], &n.value))
    }
}

impl Spans {
    pub(crate) fn start(&mut self, name: &str, now_ns: u64) -> SpanId {
        let at = u32::try_from(self.cores.len()).expect("fewer than 2^32 spans");
        let id = at.checked_add(1).expect("fewer than 2^32 spans");
        // A root span opens a fresh trace named after itself; children
        // inherit the parent's trace, so membership is decided once at
        // creation and never needs a later walk.
        let (parent, trace) = match self.open.last() {
            Some(&p) => (p + 1, self.cores[p as usize].trace),
            None => (0, id),
        };
        let name = self.intern(name);
        self.cores.push(Core {
            start_ns: now_ns,
            end_ns: None,
            trace,
            parent,
            name,
            first_note: NIL,
            last_note: NIL,
        });
        self.open.push(at);
        SpanId(u64::from(id))
    }

    pub(crate) fn note(&mut self, id: SpanId, key: &str, value: FieldValue) {
        let Some(at) = self.position(id) else { return };
        let key = self.intern(key);
        let note = u32::try_from(self.notes.len()).ok().filter(|&n| n != NIL);
        let note = note.expect("fewer than 2^32 - 1 span notes");
        self.notes.push(Note { next: NIL, key, value });
        let core = &mut self.cores[at];
        match core.last_note {
            NIL => core.first_note = note,
            last => self.notes[last as usize].next = note,
        }
        core.last_note = note;
    }

    pub(crate) fn end(&mut self, id: SpanId, now_ns: u64) {
        let Some(at) = self.position(id) else { return };
        self.cores[at].end_ns.get_or_insert(now_ns);
        // Ending a span closes its scope: any spans opened inside it that
        // are still open (leaked by an early return) are force-closed at
        // the same instant, so they cannot re-parent unrelated later spans.
        if let Some(pos) = self.open.iter().rposition(|&o| o as usize == at) {
            for leaked in self.open.drain(pos + 1..) {
                self.cores[leaked as usize].end_ns.get_or_insert(now_ns);
            }
            self.open.pop();
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.cores.len()
    }

    pub(crate) fn note_count(&self) -> usize {
        self.notes.len()
    }

    /// Spans in creation order, read in place.
    pub(crate) fn iter(&self) -> impl Iterator<Item = SpanRef<'_>> {
        self.cores.iter().zip(1u64..).map(move |(core, id)| SpanRef {
            id: SpanId(id),
            trace: TraceId(u64::from(core.trace)),
            parent: (core.parent != 0).then(|| SpanId(u64::from(core.parent))),
            name: &self.names[core.name as usize],
            start_ns: core.start_ns,
            end_ns: core.end_ns,
            spans: self,
            first_note: core.first_note,
        })
    }

    /// Owned copies of every span, for callers that keep or search them.
    pub(crate) fn records(&self) -> Vec<SpanRecord> {
        self.iter()
            .map(|s| SpanRecord {
                id: s.id,
                trace: s.trace,
                parent: s.parent,
                name: s.name.to_string(),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                fields: s.fields().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            })
            .collect()
    }

    /// Position in `cores` of a span this store handed out.
    fn position(&self, id: SpanId) -> Option<usize> {
        let at = usize::try_from(id.0.checked_sub(1)?).ok()?;
        (at < self.cores.len()).then_some(at)
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 distinct names");
        let name: Arc<str> = name.into();
        self.names.push(name.clone());
        self.name_ids.insert(name, id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The store this one replaced — a `SpanRecord` per span, owning its
    /// name and a vector of owned fields — kept as the reference.
    #[derive(Default)]
    struct RecordStore {
        records: Vec<SpanRecord>,
        open: Vec<SpanId>,
    }

    impl RecordStore {
        fn start(&mut self, name: &str, now_ns: u64) -> SpanId {
            let id = SpanId(self.records.len() as u64 + 1);
            let parent = self.open.last().copied();
            let trace = match parent {
                Some(p) => self.records[p.0 as usize - 1].trace,
                None => TraceId(id.0),
            };
            self.records.push(SpanRecord {
                id,
                trace,
                parent,
                name: name.to_string(),
                start_ns: now_ns,
                end_ns: None,
                fields: Vec::new(),
            });
            self.open.push(id);
            id
        }

        fn get_mut(&mut self, id: SpanId) -> Option<&mut SpanRecord> {
            self.records.get_mut((id.0 as usize).checked_sub(1)?)
        }

        fn note(&mut self, id: SpanId, key: &str, value: FieldValue) {
            if let Some(rec) = self.get_mut(id) {
                rec.fields.push((key.to_string(), value));
            }
        }

        fn end(&mut self, id: SpanId, now_ns: u64) {
            if let Some(rec) = self.get_mut(id) {
                rec.end_ns.get_or_insert(now_ns);
            }
            if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
                for leaked in self.open.split_off(pos).into_iter().skip(1) {
                    self.get_mut(leaked).expect("open spans exist").end_ns.get_or_insert(now_ns);
                }
            }
        }
    }

    #[test]
    fn flat_store_materialises_what_the_record_store_held() {
        let (mut flat, mut reference) = (Spans::default(), RecordStore::default());
        // A seeded op stream: nested starts, notes on open, closed and
        // unknown spans, closes out of order, double closes, leaked scopes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let names = ["replicate", "transfer", "select_source", "staging"];
        let keys = ["source", "attempt", "cern", "outcome", "bytes_requested"];
        for now in 0..4_000u64 {
            let spans = reference.records.len() as u64;
            let some_id = SpanId(draw(spans + 3)); // 0 and ids never handed out included
            match draw(10) {
                0..=2 => {
                    let name = names[draw(4) as usize];
                    assert_eq!(flat.start(name, now), reference.start(name, now));
                }
                3..=6 => {
                    let key = keys[draw(5) as usize];
                    let value = match draw(4) {
                        0 => FieldValue::Str(format!("site{}", draw(7))),
                        1 => FieldValue::U64(now),
                        2 => FieldValue::Bool(now % 2 == 0),
                        _ => FieldValue::F64(now as f64 / 8.0),
                    };
                    flat.note(some_id, key, value.clone());
                    reference.note(some_id, key, value);
                }
                _ => {
                    flat.end(some_id, now);
                    reference.end(some_id, now);
                }
            }
        }
        assert!(reference.records.iter().any(|r| r.fields.len() > 3 && r.end_ns.is_some()));
        assert_eq!(flat.records(), reference.records);
        assert_eq!(flat.open.len(), reference.open.len());
        assert_eq!(flat.names.len(), names.len() + keys.len(), "each name stored once");
    }

    #[test]
    fn interleaved_notes_keep_attachment_order_per_span() {
        let mut spans = Spans::default();
        let outer = spans.start("outer", 0);
        spans.note(outer, "a", FieldValue::U64(1));
        let inner = spans.start("inner", 1);
        spans.note(inner, "x", FieldValue::U64(2));
        spans.note(outer, "b", FieldValue::U64(3));
        spans.end(inner, 2);
        // A closed span still takes notes, between those of the open one.
        spans.note(inner, "y", FieldValue::U64(4));
        spans.note(outer, "a", FieldValue::U64(5));
        spans.note(inner, "z", FieldValue::U64(6));
        spans.end(outer, 3);
        let fields = |id: SpanId| {
            let rec = &spans.records()[id.0 as usize - 1];
            rec.fields.iter().map(|(k, v)| (k.clone(), v.clone())).collect::<Vec<_>>()
        };
        let u = |k: &str, n: u64| (k.to_string(), FieldValue::U64(n));
        assert_eq!(fields(outer), [u("a", 1), u("b", 3), u("a", 5)]);
        assert_eq!(fields(inner), [u("x", 2), u("y", 4), u("z", 6)]);
    }

    #[test]
    fn closing_outer_span_force_closes_leaked_inner() {
        let mut spans = Spans::default();
        let a = spans.start("a", 0);
        let b = spans.start("b", 1);
        spans.end(a, 2); // outer closes first: b was leaked by an early return
        assert_eq!(spans.records()[b.0 as usize - 1].end_ns, Some(2));
        let c = spans.start("c", 3);
        assert_eq!(spans.records()[c.0 as usize - 1].parent, None);
        spans.end(c, 5);
        assert!(spans.open.is_empty());
    }

    #[test]
    fn trace_ids_root_at_parentless_spans() {
        let mut spans = Spans::default();
        let a = spans.start("a", 0);
        let b = spans.start("b", 1);
        spans.end(b, 2);
        spans.end(a, 3);
        let c = spans.start("c", 4);
        spans.end(c, 5);
        let records = spans.records();
        assert_eq!(records[0].trace, TraceId(a.0));
        assert_eq!(records[1].trace, TraceId(a.0), "child inherits the root's trace");
        assert_eq!(records[2].trace, TraceId(c.0), "new root opens a new trace");
    }

    #[test]
    fn double_close_keeps_first_end() {
        let mut spans = Spans::default();
        let a = spans.start("a", 0);
        spans.end(a, 7);
        spans.end(a, 99);
        assert_eq!(spans.records()[0].end_ns, Some(7));
    }

    #[test]
    fn a_span_stays_small() {
        assert!(std::mem::size_of::<Core>() <= 56, "{}", std::mem::size_of::<Core>());
        assert!(std::mem::size_of::<Note>() <= 40, "{}", std::mem::size_of::<Note>());
    }
}
