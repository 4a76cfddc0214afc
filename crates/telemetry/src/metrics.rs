//! The one nearest-rank percentile implementation the whole workspace
//! routes through, and the log2-bucket histograms of the metrics
//! document.

use crate::json::Json;

/// Nearest-rank percentile over an already-sorted slice.
///
/// Total: returns `None` on an empty slice instead of panicking, so no
/// caller can crash on a zero-completion run. For non-empty input this
/// is the exact nearest-rank definition (`ceil(q·n)`-th order statistic,
/// clamped to `[1, n]`) that `ServingReport` and `ClusterReport` have
/// always printed — routing through here changes no report byte.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let len = sorted.len();
    let rank = ((q * len as f64).ceil() as usize).clamp(1, len);
    Some(sorted[rank - 1])
}

/// Exact summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSummary {
    /// Median (nearest-rank p50).
    pub p50: u64,
    /// Nearest-rank p95.
    pub p95: u64,
    /// Nearest-rank p99.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
    /// Number of samples.
    pub count: usize,
    /// Sum of all samples.
    pub sum: u64,
}

/// Sort `values` and summarize them; `None` when empty.
pub fn summarize(mut values: Vec<u64>) -> Option<SampleSummary> {
    values.sort_unstable();
    let p50 = nearest_rank(&values, 0.50)?;
    Some(SampleSummary {
        p50,
        p95: nearest_rank(&values, 0.95)?,
        p99: nearest_rank(&values, 0.99)?,
        max: *values.last()?,
        count: values.len(),
        sum: values.iter().sum(),
    })
}

/// Number of log2 buckets: one for zero plus one per bit width of `u64`.
const LOG2_BUCKETS: usize = 65;

/// Bucket index a value lands in: 0 for zero, else the bit width.
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive-exclusive `[lo, hi)` bounds of bucket `index` (bucket 0 is
/// the singleton `[0, 1)`; the last bucket's upper bound saturates at
/// `u64::MAX`).
fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < LOG2_BUCKETS, "bucket index out of range");
    if index == 0 {
        (0, 1)
    } else {
        let lo = 1u64 << (index - 1);
        let hi = if index == LOG2_BUCKETS - 1 { u64::MAX } else { 1u64 << index };
        (lo, hi)
    }
}

/// A histogram of `values` with power-of-two bucket boundaries, as a
/// metrics-document entry: exact `count`, `sum`, `min` and `max`, then
/// the non-empty `buckets` as `{lo, hi, count}` (value `v` lands in
/// bucket `bit_width(v)`, so bucket `i ≥ 1` covers `[2^(i-1), 2^i)`).
/// The buckets are a factor-of-two approximation; exact report
/// percentiles use [`nearest_rank`]. `None` when `values` is empty.
pub fn log2_histogram(values: impl IntoIterator<Item = u64>) -> Option<Json> {
    let mut buckets = [0u64; LOG2_BUCKETS];
    let (mut count, mut sum, mut min, mut max) = (0u64, 0u64, u64::MAX, 0u64);
    for value in values {
        if let Some(bucket) = buckets.get_mut(bucket_index(value)) {
            *bucket += 1;
        }
        count += 1;
        sum += value;
        min = min.min(value);
        max = max.max(value);
    }
    if count == 0 {
        return None;
    }
    let buckets = (0..LOG2_BUCKETS).zip(buckets).filter(|&(_, n)| n > 0).map(|(i, n)| {
        let (lo, hi) = bucket_bounds(i);
        Json::obj([("lo", lo.into()), ("hi", hi.into()), ("count", n.into())])
    });
    Some(Json::obj([
        ("count", count.into()),
        ("sum", sum.into()),
        ("min", min.into()),
        ("max", max.into()),
        ("buckets", Json::Arr(buckets.collect())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_total() {
        let empty: [u64; 0] = [];
        assert_eq!(nearest_rank(&empty, 0.5), None);
        assert_eq!(nearest_rank(&[7u64], 0.5), Some(7));
        assert_eq!(nearest_rank(&[7u64], 0.99), Some(7));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), Some(50));
        assert_eq!(nearest_rank(&v, 0.95), Some(95));
        assert_eq!(nearest_rank(&v, 0.99), Some(99));
        assert_eq!(nearest_rank(&v, 1.0), Some(100));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
    }

    #[test]
    fn summarize_matches_nearest_rank() {
        assert_eq!(summarize(Vec::new()), None);
        let s = summarize(vec![5, 1, 9, 3, 7]).unwrap();
        assert_eq!(s.p50, 5);
        assert_eq!(s.p95, 9);
        assert_eq!(s.max, 9);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 25);
    }

    #[test]
    fn log2_bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bounds(0), (0, 1));
        assert_eq!(bucket_bounds(3), (4, 8));
        let (lo, hi) = bucket_bounds(64);
        assert_eq!(lo, 1u64 << 63);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn histogram_tracks_exact_stats() {
        assert_eq!(log2_histogram([]), None);
        let h = log2_histogram([0u64, 1, 3, 8, 1000, 2]).expect("six samples");
        let bucket = |lo: u64, hi: u64, count: u64| {
            Json::obj([("lo", lo.into()), ("hi", hi.into()), ("count", count.into())])
        };
        let expected = Json::obj([
            ("count", Json::U64(6)),
            ("sum", Json::U64(1014)),
            ("min", Json::U64(0)),
            ("max", Json::U64(1000)),
            (
                "buckets",
                Json::Arr(vec![
                    bucket(0, 1, 1),
                    bucket(1, 2, 1),
                    bucket(2, 4, 2),
                    bucket(8, 16, 1),
                    bucket(512, 1024, 1),
                ]),
            ),
        ]);
        assert_eq!(h, expected);
        let top = log2_histogram([u64::MAX]).expect("one sample");
        assert_eq!(top.get("min"), Some(&Json::U64(u64::MAX)));
    }
}
