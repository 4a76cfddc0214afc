//! Order statistics used by every metric: nearest-rank percentiles with
//! the ten-samples-beyond rule, medians, and the quartiles `--compare`
//! and `bench.round_iqr_frac` are built on.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` on an empty slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether `n` samples support reporting percentile `q`: a tail percentile
/// is only as good as the samples beyond it, so the catalogue requires at
/// least ten (2000 requests leave 20 beyond p99; 768 leave 7 and do not
/// qualify).
pub fn tail_supported(n: usize, q: f64) -> bool {
    // The epsilon keeps 1000 × (1 − 0.99) from flooring to 9.
    (n as f64 * (1.0 - q) + 1e-9).floor() >= 10.0
}

/// Sorts a copy ascending (total order; the inputs are finite).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the midpoint convention for even counts. Panics on empty
/// input: every caller has at least one round or sample by construction.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the same rule the driver applies —
/// so a spread printed here is the spread the driver will see. A single
/// sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no samples");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let n = v.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 on the 1-based sample axis, clamped as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_frac(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        ((q3 - q1) / m).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50));
        assert_eq!(nearest_rank(&v, 0.99), Some(99));
        assert_eq!(nearest_rank(&v, 1.0), Some(100));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
        assert_eq!(nearest_rank(&[7u64], 0.99), Some(7));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
        // 2000 requests: p99 is the 1980th, with 20 samples beyond it.
        let v: Vec<u64> = (1..=2000).collect();
        assert_eq!(nearest_rank(&v, 0.99), Some(1980));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(tail_supported(2000, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(768, 0.99));
        assert!(tail_supported(200, 0.95));
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[0.0, 0.0, 0.0]), 0.0);
    }
}
