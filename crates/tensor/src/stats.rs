//! Small statistics helpers over `f32` slices.
//!
//! This module is also the workspace's blessed home for **float
//! reductions**: `veda-lint`'s `float-reduction` rule keeps float
//! `.sum()`/`.fold()` out of the other library crates so the summation
//! order — part of the bit-identity contract (determinism invariant
//! #2) — is centralized here. Call [`sum`] / [`max_or`] instead of
//! reducing inline.

/// Left-to-right sum in slice order — *the* sanctioned f32 summation.
///
/// Keeping every sum in slice order is what lets the engine fan work
/// across threads while staying bit-identical to the serial schedule:
/// no caller ever re-associates a reduction.
pub fn sum(xs: &[f32]) -> f32 {
    xs.iter().sum()
}

/// Left-to-right maximum starting from `init` (`init` for an empty
/// slice). NaN-free inputs assumed, as everywhere in the workspace.
pub fn max_or(init: f32, xs: &[f32]) -> f32 {
    xs.iter().cloned().fold(init, f32::max)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Population variance (0 for an empty slice).
pub fn variance(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / xs.len() as f32
}

/// Population standard deviation.
pub fn std_dev(xs: &[f32]) -> f32 {
    variance(xs).sqrt()
}

/// Index of the maximum element (first on ties). `None` for empty input.
pub fn argmax(xs: &[f32]) -> Option<usize> {
    if xs.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    Some(best)
}

/// Index of the minimum element (first on ties). `None` for empty input.
pub fn argmin(xs: &[f32]) -> Option<usize> {
    if xs.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x < xs[best] {
            best = i;
        }
    }
    Some(best)
}

/// The `q`-th quantile (0 ≤ q ≤ 1) by linear interpolation on the sorted
/// copy. `None` for empty input.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f32], q: f32) -> Option<f32> {
    assert!((0.0..=1.0).contains(&q), "quantile q must be in [0,1], got {q}");
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f32> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f32;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f32;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_is_left_to_right() {
        // A permutation-sensitive triple: (a + b) + c != a + (b + c) in f32.
        let xs = [1.0e8f32, -1.0e8, 1.0];
        assert_eq!(sum(&xs), (1.0e8f32 + -1.0e8) + 1.0);
        assert_eq!(sum(&[]), 0.0);
    }

    #[test]
    fn max_or_uses_init_for_empty() {
        assert_eq!(max_or(0.5, &[]), 0.5);
        assert_eq!(max_or(0.0, &[0.25, 2.0, 1.0]), 2.0);
    }

    #[test]
    fn mean_and_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-6);
        assert!((variance(&xs) - 4.0).abs() < 1e-6);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_slices_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmin(&[]), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmin(&[1.0, 0.0, 0.0, 2.0]), Some(1));
    }

    #[test]
    fn quantile_median_and_extremes() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.0));
        assert_eq!(quantile(&xs, 1.0), Some(3.0));
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25).unwrap() - 2.5).abs() < 1e-6);
    }
}
