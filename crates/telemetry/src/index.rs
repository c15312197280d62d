//! The series index behind the metric and time-series stores: one entry
//! per `(name, canonical labels)` key, found by hashing the key's rendered
//! bytes, so a write to a series that already exists allocates nothing.
//!
//! A key's identity is its rendering — the name, then the labels sorted
//! and written `k=v` joined by `,` — exactly as the exports print it. The
//! lookup sorts the caller's labels and renders the key into a buffer on
//! the stack, hashes those bytes and probes an open-addressed table; a
//! candidate with the same hash is confirmed by comparing its stored key
//! byte for byte. The owned key is built only when a series is first
//! written. Entries sit in a `Vec` in first-write order;
//! [`SeriesIndex::sorted`] puts them in key order once, for the exports.

/// Labels sorted on the stack up to this many; more are sorted in a
/// heap copy (no caller in the workspace passes more than two).
const STACK_LABELS: usize = 4;

/// Keys of up to this many bytes, name and labels, are rendered on the
/// stack; a longer one in a heap buffer (no caller's comes near).
const STACK_KEY: usize = 160;

/// A series' labels as a caller gives them.
#[derive(Clone, Copy)]
enum Labels<'a> {
    /// Pairs already in canonical (sorted) order.
    Sorted(&'a [(&'a str, &'a str)]),
    /// Already rendered, as another index stores them.
    Rendered(&'a str),
}

impl Labels<'_> {
    /// Length of the rendering.
    fn len(&self) -> usize {
        match self {
            Labels::Sorted(pairs) => {
                let bytes: usize = pairs.iter().map(|(k, v)| k.len() + v.len() + 2).sum();
                bytes.saturating_sub(1)
            }
            Labels::Rendered(text) => text.len(),
        }
    }

    /// Feeds the rendering to `put`, piece by piece.
    fn render(&self, mut put: impl FnMut(&str)) {
        match self {
            Labels::Sorted(pairs) => {
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        put(",");
                    }
                    put(k);
                    put("=");
                    put(v);
                }
            }
            Labels::Rendered(text) => put(text),
        }
    }
}

/// Canonical label rendering: pairs sorted, `k=v` joined by `,`.
#[cfg(test)]
pub(crate) fn canonical_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    with_sorted(labels, |sorted| Labels::Sorted(sorted).render(|p| out.push_str(p)));
    out
}

/// Runs `f` on `labels` in sorted order, sorting a stack copy when they
/// are not sorted already.
fn with_sorted<R>(labels: &[(&str, &str)], f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
    if labels.windows(2).all(|w| w[0] <= w[1]) {
        return f(labels);
    }
    if labels.len() <= STACK_LABELS {
        let mut buf = [("", ""); STACK_LABELS];
        let sorted = &mut buf[..labels.len()];
        sorted.copy_from_slice(labels);
        sorted.sort_unstable();
        return f(sorted);
    }
    let mut sorted = labels.to_vec();
    sorted.sort_unstable();
    f(&sorted)
}

/// Runs `f` on the key `name{labels}` rendered — the name's bytes, then
/// the labels' — and the name's length.
fn with_key<R>(name: &str, labels: Labels<'_>, f: impl FnOnce(&[u8], usize) -> R) -> R {
    let len = name.len() + labels.len();
    if len > STACK_KEY {
        let mut key = String::with_capacity(len);
        key.push_str(name);
        labels.render(|p| key.push_str(p));
        return f(key.as_bytes(), name.len());
    }
    let mut buf = [0u8; STACK_KEY];
    let mut at = 0;
    let mut put = |piece: &str| {
        buf[at..at + piece.len()].copy_from_slice(piece.as_bytes());
        at += piece.len();
    };
    put(name);
    labels.render(put);
    f(&buf[..len], name.len())
}

/// A fixed 64-bit hash of a rendered key, a word at a time (no
/// per-process seed: the index is private and the keys are the program's
/// own metric names). The lengths go in first, so `("ab", "")` and
/// `("a", "b")`, or keys differing only in trailing zero bytes, hash
/// different words.
fn hash(key: &[u8], name_len: usize) -> u64 {
    const MUL: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(MUL);
    let mut h = mix(0, (name_len as u64) << 32 | key.len() as u64);
    let mut words = key.chunks_exact(8);
    for word in &mut words {
        h = mix(h, u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = mix(h, u64::from_le_bytes(tail));
    // The top bits are the best mixed; the table indexes by the low.
    h.rotate_left(20)
}

/// One series: its key as rendered once, its hash, its value.
#[derive(Clone)]
struct Entry<V> {
    hash: u64,
    /// The name, then the rendered labels.
    key: Box<str>,
    name_len: usize,
    value: V,
}

impl<V> Entry<V> {
    fn name(&self) -> &str {
        &self.key[..self.name_len]
    }

    fn labels(&self) -> &str {
        &self.key[self.name_len..]
    }
}

/// Series keyed by `(name, canonical labels)`; see the module doc.
#[derive(Clone)]
pub(crate) struct SeriesIndex<V> {
    entries: Vec<Entry<V>>,
    /// Open-addressed table of positions in `entries` plus one (0 is an
    /// empty slot). Its length is zero or a power of two, and it is never
    /// more than half full.
    slots: Vec<u32>,
}

impl<V> Default for SeriesIndex<V> {
    fn default() -> Self {
        SeriesIndex { entries: Vec::new(), slots: Vec::new() }
    }
}

impl<V> SeriesIndex<V> {
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The series `name{labels}` (labels in any order), created from
    /// `init` on its first write.
    pub(crate) fn entry(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        init: impl FnOnce() -> V,
    ) -> &mut V {
        with_sorted(labels, |sorted| self.entry_for(name, Labels::Sorted(sorted), init))
    }

    /// The series `name{labels}`, if it was ever written.
    pub(crate) fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&V> {
        with_sorted(labels, |sorted| {
            with_key(name, Labels::Sorted(sorted), |key, name_len| {
                let at = self.find(key, name_len, hash(key, name_len)).ok()?;
                Some(&self.entries[at].value)
            })
        })
    }

    /// The series whose labels are rendered already (as [`Self::iter`]
    /// yields them), created from `init` on its first write.
    pub(crate) fn entry_rendered(
        &mut self,
        name: &str,
        labels: &str,
        init: impl FnOnce() -> V,
    ) -> &mut V {
        self.entry_for(name, Labels::Rendered(labels), init)
    }

    /// Every series in first-write order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &str, &V)> {
        self.entries.iter().map(|e| (e.name(), e.labels(), &e.value))
    }

    /// Every series in key order: by name, then by rendered labels.
    pub(crate) fn sorted(&self) -> Vec<(&str, &str, &V)> {
        let mut all: Vec<_> = self.iter().collect();
        all.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        all
    }

    fn entry_for(&mut self, name: &str, labels: Labels<'_>, init: impl FnOnce() -> V) -> &mut V {
        let at = with_key(name, labels, |key, name_len| {
            let hash = hash(key, name_len);
            match self.find(key, name_len, hash) {
                Ok(at) => at,
                Err(slot) => self.insert(key, name_len, hash, slot, init()),
            }
        });
        &mut self.entries[at].value
    }

    /// The entry holding `key`, or the empty slot where it would go.
    fn find(&self, key: &[u8], name_len: usize, hash: u64) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let Some(at) = self.slots[slot].checked_sub(1) else { return Err(slot) };
            let e = &self.entries[at as usize];
            if e.hash == hash && e.name_len == name_len && e.key.as_bytes() == key {
                return Ok(at as usize);
            }
            slot = (slot + 1) & mask;
        }
    }

    fn insert(
        &mut self,
        key: &[u8],
        name_len: usize,
        hash: u64,
        mut slot: usize,
        value: V,
    ) -> usize {
        let at = self.entries.len();
        let tag = u32::try_from(at + 1).expect("fewer than 2^32 series");
        if 2 * (at + 1) > self.slots.len() {
            self.grow();
            slot = self.find(key, name_len, hash).expect_err("a new key is absent");
        }
        self.slots[slot] = tag;
        let key = std::str::from_utf8(key).expect("a key is rendered from `str` pieces").into();
        self.entries.push(Entry { hash, key, name_len, value });
        at
    }

    /// Doubles the table (16 slots at first) and re-seats every entry.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        let mask = len - 1;
        self.slots = vec![0; len];
        for (tag, e) in (1u32..).zip(&self.entries) {
            let mut slot = e.hash as usize & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = tag;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_hash_takes_in_both_lengths() {
        assert_ne!(hash(b"ab", 2), hash(b"ab", 1), "(\"ab\", \"\") is not (\"a\", \"b\")");
        assert_ne!(hash(b"a", 1), hash(b"a\0", 1), "trailing zeros count");
        assert_ne!(hash(b"", 0), hash(b"\0", 0));
        assert_eq!(hash(b"rpc_totalkind=Echo", 9), hash(b"rpc_totalkind=Echo", 9));
    }

    #[test]
    fn keys_too_long_for_the_stack_render_on_the_heap() {
        let long = "v".repeat(STACK_KEY);
        let mut index = SeriesIndex::<u64>::default();
        *index.entry("n", &[("k", &long)], || 0) += 1;
        *index.entry_rendered("n", &format!("k={long}"), || 0) += 1;
        *index.entry("n", &[("k", &long[1..])], || 0) += 1;
        assert_eq!(index.len(), 2);
        assert_eq!(index.get("n", &[("k", &long)]), Some(&2));
    }

    #[test]
    fn pairs_and_rendered_keys_meet_in_one_entry() {
        let mut index = SeriesIndex::<u64>::default();
        *index.entry("bytes", &[("src", "a"), ("dst", "b")], || 0) += 1;
        *index.entry_rendered("bytes", "dst=b,src=a", || 0) += 10;
        *index.entry("bytes", &[("dst", "b"), ("src", "a")], || 0) += 100;
        assert_eq!(index.len(), 1);
        assert_eq!(index.get("bytes", &[("src", "a"), ("dst", "b")]), Some(&111));
        assert_eq!(index.get("bytes", &[("src", "a")]), None);
        assert_eq!(index.get("byte", &[("dst", "b"), ("src", "a")]), None);
    }

    #[test]
    fn a_key_is_its_rendering() {
        // Different pairs rendering to the same text are one series, as
        // the exports cannot tell them apart.
        let mut index = SeriesIndex::<u64>::default();
        *index.entry("m", &[("a", "b=c")], || 0) += 1;
        *index.entry("m", &[("a=b", "c")], || 0) += 1;
        *index.entry("m", &[("a", "1"), ("b", "2")], || 0) += 1;
        *index.entry("m", &[("a", "1,b=2")], || 0) += 1;
        *index.entry("m", &[], || 0) += 1;
        *index.entry("m", &[("", "")], || 0) += 1;
        let sorted: Vec<_> = index.sorted().into_iter().map(|(_, l, v)| (l, *v)).collect();
        assert_eq!(sorted, [("", 1), ("=", 1), ("a=1,b=2", 2), ("a=b=c", 2)]);
    }

    #[test]
    fn thousands_of_series_survive_growth_and_sort_once() {
        let mut index = SeriesIndex::<usize>::default();
        let ids: Vec<String> = (0..3_000).map(|i| format!("{}", (i * 7919) % 3_000)).collect();
        for (i, id) in ids.iter().enumerate() {
            *index.entry("simnet_link_drops", &[("link", id)], || i) += 0;
        }
        assert_eq!(index.len(), 3_000);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(index.get("simnet_link_drops", &[("link", id)]), Some(&i));
        }
        let sorted = index.sorted();
        assert!(sorted.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        assert!(index.slots.len() >= 2 * index.len());
    }

    #[test]
    fn many_labels_sort_off_the_stack() {
        let labels: Vec<(String, String)> =
            (0..12).rev().map(|i| (format!("k{i:02}"), i.to_string())).collect();
        let pairs: Vec<(&str, &str)> =
            labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let mut index = SeriesIndex::<u64>::default();
        *index.entry("wide", &pairs, || 0) += 3;
        let mut reversed = pairs.clone();
        reversed.reverse();
        assert_eq!(index.get("wide", &reversed), Some(&3));
        assert_eq!(index.iter().next().unwrap().1, canonical_labels(&pairs));
        assert!(index.iter().next().unwrap().1.starts_with("k00=0,k01=1,"));
    }

    /// The stores this index replaced — a `BTreeMap` keyed by the owned
    /// `(name, canonical labels)` per store, rebuilt on every call — kept
    /// as the reference, with the registry operations that reach them.
    mod reference {
        use std::collections::BTreeMap;

        use crate::json::JsonObject;
        use crate::metrics::{Histogram, MetricValue, DEFAULT_BUCKETS};
        use crate::{export, SeriesKind, TimeSeries};

        type Key = (String, String);

        fn key(name: &str, labels: &[(&str, &str)]) -> Key {
            let mut pairs: Vec<&(&str, &str)> = labels.iter().collect();
            pairs.sort();
            let pairs: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            (name.to_string(), pairs.join(","))
        }

        #[derive(Default, Clone)]
        pub(super) struct Registry {
            metrics: BTreeMap<Key, MetricValue>,
            bucket_config: BTreeMap<String, Vec<u64>>,
            bucket_ns: Option<u64>,
            series: BTreeMap<Key, (SeriesKind, BTreeMap<u64, i64>)>,
        }

        impl Registry {
            pub(super) fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], d: u64) {
                match self.metrics.entry(key(name, labels)).or_insert(MetricValue::Counter(0)) {
                    MetricValue::Counter(n) => *n += d,
                    other => panic!("metric {name:?} is not a counter: {other:?}"),
                }
            }

            pub(super) fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: i64) {
                self.metrics.insert(key(name, labels), MetricValue::Gauge(v));
            }

            pub(super) fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
                let entry = self.metrics.entry(key(name, labels)).or_insert_with(|| {
                    let bounds = self.bucket_config.get(name);
                    MetricValue::Histogram(Histogram::new(
                        bounds.map(Vec::as_slice).unwrap_or(&DEFAULT_BUCKETS),
                    ))
                });
                match entry {
                    MetricValue::Histogram(h) => h.observe(v),
                    other => panic!("metric {name:?} is not a histogram: {other:?}"),
                }
            }

            pub(super) fn histogram_buckets(&mut self, name: &str, bounds: &[u64]) {
                self.bucket_config.insert(name.to_string(), bounds.to_vec());
            }

            pub(super) fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
                match self.metrics.get(&key(name, labels)) {
                    Some(MetricValue::Counter(n)) => *n,
                    _ => 0,
                }
            }

            pub(super) fn merge_metrics_from(&mut self, other: &Registry) {
                for (name, bounds) in &other.bucket_config {
                    self.bucket_config.entry(name.clone()).or_insert_with(|| bounds.clone());
                }
                for (key, theirs) in &other.metrics {
                    match (self.metrics.get_mut(key), theirs) {
                        (None, v) => {
                            self.metrics.insert(key.clone(), v.clone());
                        }
                        (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += b,
                        (Some(MetricValue::Gauge(a)), MetricValue::Gauge(b)) => *a = *b,
                        (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => {
                            a.merge_from(b)
                        }
                        (Some(mine), theirs) => panic!("mismatch {key:?}: {mine:?} {theirs:?}"),
                    }
                }
            }

            pub(super) fn enable_timeseries(&mut self, bucket_ns: u64) {
                self.bucket_ns = Some(bucket_ns);
            }

            fn series(
                &mut self,
                name: &str,
                labels: &[(&str, &str)],
                kind: SeriesKind,
            ) -> &mut BTreeMap<u64, i64> {
                let data = self.series.entry(key(name, labels)).or_insert((kind, BTreeMap::new()));
                assert!(data.0 == kind, "series {name:?} changed kind");
                &mut data.1
            }

            pub(super) fn series_add(&mut self, n: &str, l: &[(&str, &str)], t: u64, d: u64) {
                let Some(width) = self.bucket_ns else { return };
                *self.series(n, l, SeriesKind::Delta).entry(t / width).or_insert(0) += d as i64;
            }

            pub(super) fn series_set(&mut self, n: &str, l: &[(&str, &str)], t: u64, v: i64) {
                let Some(width) = self.bucket_ns else { return };
                self.series(n, l, SeriesKind::Level).insert(t / width, v);
            }

            pub(super) fn metrics_snapshot(&self) -> Vec<(String, String, MetricValue)> {
                self.metrics.iter().map(|((n, l), v)| (n.clone(), l.clone(), v.clone())).collect()
            }

            pub(super) fn timeseries_snapshot(&self) -> Vec<TimeSeries> {
                let Some(bucket_ns) = self.bucket_ns else { return Vec::new() };
                self.series
                    .iter()
                    .map(|((name, labels), (kind, points))| TimeSeries {
                        name: name.clone(),
                        labels: labels.clone(),
                        kind: *kind,
                        bucket_ns,
                        points: points.iter().map(|(&b, &v)| (b, v)).collect(),
                    })
                    .collect()
            }

            /// The export of a registry holding these metrics and series
            /// and no spans or events.
            pub(super) fn export_json_lines(&self) -> String {
                let meta = JsonObject::new()
                    .str("record", "meta")
                    .u64("spans", 0)
                    .u64("metrics", self.metrics.len() as u64)
                    .u64("timeseries", self.series.len() as u64)
                    .u64("events_recorded", 0)
                    .finish();
                let metrics = self.metrics.iter().map(|((n, l), v)| export::metric_line(n, l, v));
                let series = self.timeseries_snapshot();
                let series = series.iter().map(export::series_line);
                std::iter::once(meta).chain(metrics).chain(series).map(|l| l + "\n").collect()
            }
        }
    }

    #[test]
    fn the_index_exports_what_the_btreemap_stores_held() {
        let live = [crate::Registry::new(), crate::Registry::new()];
        let mut model = [reference::Registry::default(), reference::Registry::default()];
        live[1].enable_timeseries(1_000);
        model[1].enable_timeseries(1_000);
        let mut merges = 0;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        // Keys and values with the separators in them, the empty string,
        // and the same key twice in one label set.
        let keys = ["src", "dst", "link", "kind", "a", "a=b", "", "x,y"];
        let values = ["cern", "anl", "b=c", "1,2", "", "=", ",", "0"];
        // One name set per kind of series, as kinds never mix in a name.
        let counters = ["transfer_bytes", "rpc_total", "c"];
        let gauges = ["queue_depth", "g"];
        let histograms = ["stage_latency_ns", "h"];
        let deltas = ["link_bytes", "d"];
        let levels = ["breaker_open", "l"];
        for step in 0..6_000u64 {
            if step == 3_000 {
                // The first registry's series so far were dropped unseen.
                live[0].enable_timeseries(700);
                model[0].enable_timeseries(700);
            }
            let labels: Vec<(&str, &str)> =
                (0..draw(4)).map(|_| (keys[draw(8) as usize], values[draw(8) as usize])).collect();
            let (at, n) = (draw(2) as usize, draw(1 << 20));
            let (reg, refr) = (&live[at], &mut model[at]);
            match draw(20) {
                0..=5 => {
                    let name = counters[draw(3) as usize];
                    reg.counter_add(name, &labels, n);
                    refr.counter_add(name, &labels, n);
                }
                6..=8 => {
                    let (name, v) = (gauges[draw(2) as usize], n as i64 - (1 << 19));
                    reg.gauge_set(name, &labels, v);
                    refr.gauge_set(name, &labels, v);
                }
                9..=11 => {
                    let name = histograms[draw(2) as usize];
                    reg.observe(name, &labels, n);
                    refr.observe(name, &labels, n);
                }
                12 => {
                    let name = histograms[draw(2) as usize];
                    let bounds: Vec<u64> = (1..=1 + draw(6)).map(|i| i * (1 << 16)).collect();
                    reg.histogram_buckets(name, &bounds);
                    refr.histogram_buckets(name, &bounds);
                }
                13..=15 => {
                    let name = deltas[draw(2) as usize];
                    reg.series_add(name, &labels, step * 100, n);
                    refr.series_add(name, &labels, step * 100, n);
                }
                16..=17 => {
                    let name = levels[draw(2) as usize];
                    reg.series_set(name, &labels, step * 100, n as i64);
                    refr.series_set(name, &labels, step * 100, n as i64);
                }
                18 if draw(15) == 0 => {
                    // Merging a registry into itself is allowed too. Rare:
                    // every merge can double a counter.
                    let from = draw(2) as usize;
                    merges += 1;
                    live[at].merge_metrics_from(&live[from]);
                    let theirs = model[from].clone();
                    model[at].merge_metrics_from(&theirs);
                }
                _ => {
                    let name = counters[draw(3) as usize];
                    assert_eq!(reg.counter_value(name, &labels), refr.counter_value(name, &labels));
                }
            }
        }
        assert!(merges >= 10, "{merges}");
        for (reg, refr) in live.iter().zip(&model) {
            let snapshot = reg.metrics_snapshot();
            assert!(snapshot.len() > 100, "{}", snapshot.len());
            assert!(snapshot.iter().any(|(_, l, _)| l.contains("a=b=") || l.contains("1,2")));
            assert_eq!(snapshot, refr.metrics_snapshot());
            assert_eq!(reg.timeseries_snapshot(), refr.timeseries_snapshot());
            assert!(!reg.timeseries_snapshot().is_empty());
            assert_eq!(reg.export_json_lines(), refr.export_json_lines());
        }
    }
}
