//! Windowed sim-time series: fixed-width buckets over counter deltas and
//! gauge levels, so a run's telemetry gains a time axis (link utilisation
//! per window, queue depth over time, breaker state transitions) without
//! touching the scalar metric store.
//!
//! Collection is off until [`crate::Registry::enable_timeseries`] picks a
//! bucket width; before that every `series_*` call is a no-op, which keeps
//! existing exports byte-identical for callers that never opt in. Storage
//! is the same series index as the metric store's, and the snapshot sorts
//! it by key, so exports are deterministic.

use std::collections::BTreeMap;

use crate::index::SeriesIndex;

/// How samples within one bucket combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Samples add within a bucket (bytes moved, requests served); missing
    /// buckets read as zero.
    Delta,
    /// Last write in a bucket wins (queue depth, breaker state); missing
    /// buckets carry the previous level forward.
    Level,
}

impl SeriesKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            SeriesKind::Delta => "delta",
            SeriesKind::Level => "level",
        }
    }
}

/// One exported series: sparse `(bucket index, value)` points in bucket
/// order. Bucket `i` covers sim-time `[i * bucket_ns, (i + 1) * bucket_ns)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    pub name: String,
    /// Canonical label rendering (sorted `k=v` pairs joined by `,`).
    pub labels: String,
    pub kind: SeriesKind,
    pub bucket_ns: u64,
    pub points: Vec<(u64, i64)>,
}

impl TimeSeries {
    /// Dense values over `[lo, hi]` bucket indexes inclusive, applying the
    /// kind's fill rule (zeros for deltas, carry-forward for levels; a
    /// level is 0 before its first point).
    pub fn dense(&self, lo: u64, hi: u64) -> Vec<i64> {
        let mut out = Vec::with_capacity((hi.saturating_sub(lo) + 1) as usize);
        let mut level = match self.kind {
            SeriesKind::Level => {
                // Seed with the last point at or before `lo`.
                self.points.iter().take_while(|(b, _)| *b <= lo).last().map_or(0, |(_, v)| *v)
            }
            SeriesKind::Delta => 0,
        };
        for bucket in lo..=hi {
            let point = self.points.iter().find(|(b, _)| *b == bucket).map(|(_, v)| *v);
            let value = match self.kind {
                SeriesKind::Delta => point.unwrap_or(0),
                SeriesKind::Level => {
                    if let Some(v) = point {
                        level = v;
                    }
                    level
                }
            };
            out.push(value);
        }
        out
    }

    /// Index of the last bucket with a point (0 for an empty series).
    pub fn last_bucket(&self) -> u64 {
        self.points.last().map_or(0, |(b, _)| *b)
    }
}

#[derive(Clone)]
struct SeriesData {
    kind: SeriesKind,
    points: BTreeMap<u64, i64>,
}

/// Store behind the registry: nothing is retained until `enable` sets the
/// bucket width.
#[derive(Default, Clone)]
pub(crate) struct TimeSeriesStore {
    bucket_ns: Option<u64>,
    series: SeriesIndex<SeriesData>,
}

impl TimeSeriesStore {
    pub(crate) fn enable(&mut self, bucket_ns: u64) {
        assert!(bucket_ns > 0, "time-series bucket width must be positive");
        self.bucket_ns = Some(bucket_ns);
    }

    pub(crate) fn bucket_ns(&self) -> Option<u64> {
        self.bucket_ns
    }

    pub(crate) fn len(&self) -> usize {
        self.series.len()
    }

    pub(crate) fn add(&mut self, name: &str, labels: &[(&str, &str)], now_ns: u64, delta: u64) {
        let Some(width) = self.bucket_ns else { return };
        let data = self.series.entry(name, labels, || SeriesData {
            kind: SeriesKind::Delta,
            points: BTreeMap::new(),
        });
        assert!(data.kind == SeriesKind::Delta, "series {name:?} is not a delta series");
        *data.points.entry(now_ns / width).or_insert(0) += delta as i64;
    }

    pub(crate) fn set(&mut self, name: &str, labels: &[(&str, &str)], now_ns: u64, value: i64) {
        let Some(width) = self.bucket_ns else { return };
        let data = self.series.entry(name, labels, || SeriesData {
            kind: SeriesKind::Level,
            points: BTreeMap::new(),
        });
        assert!(data.kind == SeriesKind::Level, "series {name:?} is not a level series");
        data.points.insert(now_ns / width, value);
    }

    pub(crate) fn snapshot(&self) -> Vec<TimeSeries> {
        let width = match self.bucket_ns {
            Some(w) => w,
            None => return Vec::new(),
        };
        self.series
            .sorted()
            .into_iter()
            .map(|(name, labels, data)| TimeSeries {
                name: name.to_string(),
                labels: labels.to_string(),
                kind: data.kind,
                bucket_ns: width,
                points: data.points.iter().map(|(&b, &v)| (b, v)).collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_store_retains_nothing() {
        let mut store = TimeSeriesStore::default();
        store.add("bytes", &[], 1_000, 64);
        store.set("depth", &[], 1_000, 3);
        assert!(store.snapshot().is_empty());
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn deltas_accumulate_within_a_bucket() {
        let mut store = TimeSeriesStore::default();
        store.enable(1_000);
        store.add("bytes", &[("link", "a-b")], 100, 10);
        store.add("bytes", &[("link", "a-b")], 900, 5);
        store.add("bytes", &[("link", "a-b")], 1_100, 7);
        let snap = store.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].points, vec![(0, 15), (1, 7)]);
        assert_eq!(snap[0].labels, "link=a-b");
    }

    #[test]
    fn levels_take_last_write_and_carry_forward() {
        let mut store = TimeSeriesStore::default();
        store.enable(1_000);
        store.set("depth", &[], 100, 3);
        store.set("depth", &[], 900, 5);
        store.set("depth", &[], 3_500, 1);
        let snap = store.snapshot();
        assert_eq!(snap[0].points, vec![(0, 5), (3, 1)]);
        assert_eq!(snap[0].dense(0, 4), vec![5, 5, 5, 1, 1], "levels carry forward");
    }

    #[test]
    fn dense_deltas_fill_gaps_with_zero() {
        let mut store = TimeSeriesStore::default();
        store.enable(10);
        store.add("n", &[], 5, 2);
        store.add("n", &[], 35, 4);
        let s = &store.snapshot()[0];
        assert_eq!(s.dense(0, 3), vec![2, 0, 0, 4]);
        assert_eq!(s.last_bucket(), 3);
    }
}
