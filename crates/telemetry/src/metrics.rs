//! Counters, gauges, log2-bucket histograms, and the one nearest-rank
//! percentile implementation the whole workspace routes through.

use std::collections::BTreeMap;
use std::fmt::Write as _;

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
pub(crate) const LOG2_BUCKETS: usize = 65;

/// A fixed-size histogram with power-of-two bucket boundaries.
///
/// Value `v` lands in bucket `bit_width(v)` (0 for `v == 0`), so bucket
/// `i ≥ 1` covers `[2^(i-1), 2^i)`. Alongside the buckets it tracks
/// exact count / sum / min / max, which makes merging and JSON export
/// deterministic and allocation-free. The buckets are an *approximate*
/// distribution (factor-of-two resolution); exact report percentiles
/// keep using [`nearest_rank`] over raw samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self { buckets: [0; LOG2_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Log2Histogram {
    /// Bucket index a value lands in: 0 for zero, else the bit width.
    pub(crate) fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive-exclusive `[lo, hi)` bounds of bucket `index`
    /// (bucket 0 is the singleton `[0, 1)`; the last bucket's upper
    /// bound saturates at `u64::MAX`).
    pub(crate) fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < LOG2_BUCKETS, "bucket index out of range");
        if index == 0 {
            (0, 1)
        } else {
            let lo = 1u64 << (index - 1);
            let hi = if index == LOG2_BUCKETS - 1 { u64::MAX } else { 1u64 << index };
            (lo, hi)
        }
    }

    /// Record one observation.
    pub(crate) fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Smallest observation, `None` when empty.
    pub(crate) fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, `None` when empty.
    pub(crate) fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another histogram into this one.
    pub(crate) fn merge(&mut self, other: &Log2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Deterministic JSON object: exact stats plus the non-empty buckets.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
            self.count,
            self.sum,
            self.min().unwrap_or(0),
            self.max().unwrap_or(0)
        );
        let mut first = true;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            let (lo, hi) = Self::bucket_bounds(i);
            let _ = write!(out, "{{\"lo\": {lo}, \"hi\": {hi}, \"count\": {n}}}");
        }
        out.push_str("]}");
        out
    }
}

/// A deterministic bag of named counters, gauges, and histograms.
///
/// Names are stored in `BTreeMap`s so iteration — and therefore
/// [`MetricsRegistry::to_json`] — is byte-stable across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Log2Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (creating it at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set the named gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record one observation into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_string()).or_default().record(value);
    }

    /// Fold another registry into this one (counters add, gauges
    /// overwrite, histograms merge).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Render the registry as a deterministic JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{k}\": {v}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{k}\": {v:.6}");
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{k}\": {}", h.to_json());
        }
        out.push_str("\n  }\n}\n");
        out
    }
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
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Log2Histogram::bucket_bounds(0), (0, 1));
        assert_eq!(Log2Histogram::bucket_bounds(3), (4, 8));
        let (lo, hi) = Log2Histogram::bucket_bounds(64);
        assert_eq!(lo, 1u64 << 63);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn histogram_tracks_exact_stats() {
        let mut h = Log2Histogram::default();
        assert_eq!(h.min(), None);
        for v in [0u64, 1, 3, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1012);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        let mut other = Log2Histogram::default();
        other.record(2);
        h.merge(&other);
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1014);
    }

    #[test]
    fn registry_json_is_deterministic_and_valid() {
        let mut m = MetricsRegistry::new();
        m.counter_add("b_second", 2);
        m.counter_add("a_first", 1);
        m.counter_add("a_first", 1);
        m.set_gauge("rate", 0.5);
        m.observe("lat", 3);
        m.observe("lat", 100);
        let json = m.to_json();
        assert_eq!(json, m.clone().to_json());
        crate::json::validate(&json).expect("registry JSON must parse");
        // BTreeMap ordering: a_first before b_second.
        let a = json.find("a_first").unwrap();
        let b = json.find("b_second").unwrap();
        assert!(a < b);
        assert_eq!(m.counters["a_first"], 2);
        assert!(!m.counters.contains_key("missing"));
        assert_eq!(m.histograms["lat"].count, 2);
    }
}
