//! Metric storage: counters, gauges, and fixed-bucket histograms keyed by
//! `(name, canonical labels)` in the crate's series index (`index.rs`).
//! An update to a series that already exists finds it by hash without
//! allocating; only a series' first write builds its owned key. The index
//! keeps series in first-write order and `Metrics::sorted` sorts them by
//! key, so every export is deterministic and in the same order as ever. A
//! series holds one kind of value for its life: writing it as another
//! kind panics.

use std::collections::BTreeMap;

use crate::index::SeriesIndex;

/// Default histogram bucket upper bounds: powers of 4 from 1 to 4^20
/// (~1.1e12). Wide enough for byte counts and nanosecond latencies alike
/// while keeping bucket arrays short.
pub const DEFAULT_BUCKETS: [u64; 21] = {
    let mut b = [0u64; 21];
    let mut i = 0;
    let mut v = 1u64;
    while i < 21 {
        b[i] = v;
        v = v.saturating_mul(4);
        i += 1;
    }
    b
};

/// A fixed-bucket histogram. `counts[i]` counts observations
/// `<= bounds[i]`; observations above the last bound land in `overflow`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
    pub overflow: u64,
    pub total: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Histogram {
    pub(crate) fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len()],
            overflow: 0,
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub(crate) fn observe(&mut self, value: u64) {
        match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Upper bound of the bucket containing the q-quantile (0.0..=1.0),
    /// or `max` for observations past the last bound.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bounds[i];
            }
        }
        self.max
    }

    pub(crate) fn merge_from(&mut self, other: &Histogram) {
        if self.bounds == other.bounds {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.overflow += other.overflow;
        } else {
            // Incompatible layouts: re-bucket the other side's summary as
            // well as we can (rare; merges normally share bucket configs).
            self.overflow += other.total;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One metric series' current state.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(Histogram),
}

#[derive(Default, Clone)]
pub(crate) struct Metrics {
    /// (metric name, canonical labels) → value.
    series: SeriesIndex<MetricValue>,
    /// Histogram bucket bounds registered per metric name.
    bucket_config: BTreeMap<String, Vec<u64>>,
}

impl Metrics {
    pub(crate) fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        match self.series.entry(name, labels, || MetricValue::Counter(0)) {
            MetricValue::Counter(n) => *n += delta,
            other => panic!("metric {name:?} is not a counter: {other:?}"),
        }
    }

    pub(crate) fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], value: i64) {
        match self.series.entry(name, labels, || MetricValue::Gauge(value)) {
            MetricValue::Gauge(v) => *v = value,
            other => panic!("metric {name:?} is not a gauge: {other:?}"),
        }
    }

    pub(crate) fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let bucket_config = &self.bucket_config;
        let entry = self.series.entry(name, labels, || {
            let bounds = bucket_config.get(name).map(Vec::as_slice).unwrap_or(&DEFAULT_BUCKETS);
            MetricValue::Histogram(Histogram::new(bounds))
        });
        match entry {
            MetricValue::Histogram(h) => h.observe(value),
            other => panic!("metric {name:?} is not a histogram: {other:?}"),
        }
    }

    pub(crate) fn set_buckets(&mut self, name: &str, bounds: &[u64]) {
        self.bucket_config.insert(name.to_string(), bounds.to_vec());
    }

    pub(crate) fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.series.get(name, labels)
    }

    pub(crate) fn len(&self) -> usize {
        self.series.len()
    }

    pub(crate) fn snapshot(&self) -> Vec<(String, String, MetricValue)> {
        self.sorted()
            .into_iter()
            .map(|(name, labels, v)| (name.to_string(), labels.to_string(), v.clone()))
            .collect()
    }

    /// Every series sorted by (name, labels), the order of every export.
    pub(crate) fn sorted(&self) -> Vec<(&str, &str, &MetricValue)> {
        self.series.sorted()
    }

    pub(crate) fn merge_from(&mut self, other: &Metrics) {
        for (name, bounds) in &other.bucket_config {
            self.bucket_config.entry(name.clone()).or_insert_with(|| bounds.clone());
        }
        for (name, labels, theirs) in other.series.iter() {
            let mut fresh = false;
            let mine = self.series.entry_rendered(name, labels, || {
                fresh = true;
                theirs.clone()
            });
            match (mine, theirs) {
                _ if fresh => {}
                (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = *b,
                (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge_from(b),
                (mine, theirs) => {
                    panic!("merge type mismatch for {:?}: {mine:?} vs {theirs:?}", (name, labels))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::canonical_labels;

    #[test]
    fn default_buckets_are_increasing_powers_of_four() {
        assert_eq!(DEFAULT_BUCKETS[0], 1);
        assert_eq!(DEFAULT_BUCKETS[1], 4);
        assert_eq!(DEFAULT_BUCKETS[10], 4u64.pow(10));
        assert!(DEFAULT_BUCKETS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bucketing_boundaries_are_inclusive_upper() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for v in [0, 10, 11, 100, 101, 1000, 1001, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![2, 2, 2]); // ≤10, ≤100, ≤1000
        assert_eq!(h.overflow, 2);
        assert_eq!(h.total, 8);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
    }

    #[test]
    fn quantile_bound_walks_buckets() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 2, 3, 50, 500, 600, 700, 800, 900, 999] {
            h.observe(v);
        }
        assert_eq!(h.quantile_bound(0.0), 10);
        assert_eq!(h.quantile_bound(0.3), 10);
        assert_eq!(h.quantile_bound(0.4), 100);
        assert_eq!(h.quantile_bound(1.0), 1000);
    }

    #[test]
    fn empty_histogram_edges() {
        let h = Histogram::new(&[10, 100]);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_bound(0.0), 0);
        assert_eq!(h.quantile_bound(0.5), 0);
        assert_eq!(h.quantile_bound(1.0), 0);
    }

    #[test]
    fn single_bucket_histogram_edges() {
        let mut h = Histogram::new(&[10]);
        h.observe(7);
        assert_eq!(h.mean(), 7.0);
        assert_eq!(h.quantile_bound(0.0), 10);
        assert_eq!(h.quantile_bound(1.0), 10);
        // A second observation past the only bound overflows; the top
        // quantile then reports the observed max, not a bucket bound.
        h.observe(25);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.quantile_bound(0.5), 10);
        assert_eq!(h.quantile_bound(1.0), 25);
        assert_eq!(h.mean(), 16.0);
    }

    #[test]
    fn all_observations_beyond_last_bound() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [200, 300, 400] {
            h.observe(v);
        }
        assert_eq!(h.total, 3);
        assert_eq!(h.overflow, 3);
        assert_eq!(h.counts, vec![0, 0]);
        // Every quantile falls through the (empty) buckets to max.
        assert_eq!(h.quantile_bound(0.0), 400);
        assert_eq!(h.quantile_bound(0.5), 400);
        assert_eq!(h.quantile_bound(1.0), 400);
        assert_eq!(h.min, 200);
        assert_eq!(h.mean(), 300.0);
    }

    #[test]
    fn quantile_extremes_and_out_of_range_q() {
        let mut h = Histogram::new(&[1, 2, 3, 4]);
        for v in [1, 2, 3, 4] {
            h.observe(v);
        }
        // q=0.0 clamps to rank 1 (the smallest observation's bucket) and
        // q=1.0 is rank n (the largest); out-of-range q clamps.
        assert_eq!(h.quantile_bound(0.0), 1);
        assert_eq!(h.quantile_bound(1.0), 4);
        assert_eq!(h.quantile_bound(-3.0), 1);
        assert_eq!(h.quantile_bound(7.5), 4);
        // Rank boundaries: 0.25 is exactly the first observation.
        assert_eq!(h.quantile_bound(0.25), 1);
        assert_eq!(h.quantile_bound(0.26), 2);
        assert_eq!(h.quantile_bound(0.75), 3);
        assert_eq!(h.quantile_bound(0.76), 4);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = Metrics::default();
        let mut b = Metrics::default();
        a.counter_add("c", &[("x", "1")], 5);
        b.counter_add("c", &[("x", "1")], 7);
        b.counter_add("only_b", &[], 1);
        a.observe("h", &[], 3);
        b.observe("h", &[], 300);
        a.gauge_set("g", &[], 10);
        b.gauge_set("g", &[], 20);
        a.merge_from(&b);
        assert_eq!(a.get("c", &[("x", "1")]), Some(&MetricValue::Counter(12)));
        assert_eq!(a.get("only_b", &[]), Some(&MetricValue::Counter(1)));
        assert_eq!(a.get("g", &[]), Some(&MetricValue::Gauge(20)));
        match a.get("h", &[]).unwrap() {
            MetricValue::Histogram(h) => {
                assert_eq!(h.total, 2);
                assert_eq!(h.sum, 303);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merge_mismatched_histogram_layouts_degrades_to_summary() {
        let mut a = Metrics::default();
        a.set_buckets("h", &[10, 20]);
        a.observe("h", &[], 5);
        let mut b = Metrics::default();
        b.observe("h", &[], 7);
        a.merge_from(&b);
        match a.get("h", &[]).unwrap() {
            MetricValue::Histogram(h) => {
                assert_eq!(h.total, 2);
                assert_eq!(h.overflow, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "metric \"c\" is not a gauge: Counter(1)")]
    fn gauge_set_on_a_counter_panics() {
        let mut m = Metrics::default();
        m.counter_add("c", &[("x", "1")], 1);
        m.gauge_set("c", &[("x", "1")], 5);
    }

    #[test]
    #[should_panic(expected = "metric \"h\" is not a gauge: Histogram")]
    fn gauge_set_on_a_histogram_panics() {
        let mut m = Metrics::default();
        m.observe("h", &[], 3);
        m.gauge_set("h", &[], 5);
    }

    #[test]
    fn gauge_set_overwrites_a_gauge_and_leaves_other_labels_alone() {
        let mut m = Metrics::default();
        m.counter_add("depth", &[("site", "a")], 1);
        m.gauge_set("depth", &[("site", "b")], 4);
        m.gauge_set("depth", &[("site", "b")], -2);
        assert_eq!(m.get("depth", &[("site", "a")]), Some(&MetricValue::Counter(1)));
        assert_eq!(m.get("depth", &[("site", "b")]), Some(&MetricValue::Gauge(-2)));
    }

    #[test]
    fn canonical_labels_sorts_keys() {
        assert_eq!(canonical_labels(&[("z", "1"), ("a", "2")]), "a=2,z=1".to_string());
        assert_eq!(canonical_labels(&[]), String::new());
    }
}
