//! Order statistics for the reported timings.

/// Median of `values` (mean of the middle pair for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// The reporting rule for a tail: a percentile is only quoted when at
/// least ten samples lie beyond it, so one slow op cannot be the number.
pub fn tail_is_reportable(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// FNV-1a, the digest behind `sim_digest`: stable across processes and
/// platforms, which `std`'s `DefaultHasher` does not promise.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&[7], 90.0), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; of 999 only 9.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(tail_is_reportable(1000, 99.0));
        assert!(!tail_is_reportable(999, 99.0));
        // p80 needs 50 samples, p90 needs 100.
        assert!(tail_is_reportable(50, 80.0));
        assert!(!tail_is_reportable(49, 80.0));
        assert!(tail_is_reportable(100, 90.0));
        assert!(!tail_is_reportable(99, 90.0));
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(FNV_OFFSET, b"ab"), fnv1a(FNV_OFFSET, b"ba"));
    }
}
