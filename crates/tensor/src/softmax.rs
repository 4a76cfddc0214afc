//! Numerically-stable softmax, including the *online* (element-serial)
//! formulation of Milakov & Gimelshein that VEDA's reduction unit implements.
//!
//! The hardware receives attention scores one element per cycle from the
//! inner-product-configured PE array. [`OnlineSoftmax`] mirrors that: it
//! maintains a running maximum `m` and running exponent sum
//! `Σ exp(x_i − m)`, rescaling the sum whenever the maximum improves. After
//! the last element, `max` and `exp_sum` are final — no second pass over the
//! data is required for the reduction stage.

/// Stable two-pass softmax over a slice.
///
/// Returns an empty vector for empty input.
///
/// ```
/// let p = veda_tensor::softmax::softmax(&[1.0, 2.0, 3.0]);
/// assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
/// assert!(p[2] > p[1] && p[1] > p[0]);
/// ```
pub fn softmax(x: &[f32]) -> Vec<f32> {
    if x.is_empty() {
        return Vec::new();
    }
    let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = x.iter().map(|&v| (v - m).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// In-place variant of [`softmax`]: overwrites `x` with its softmax.
/// Bit-identical to the allocating two-pass version (same max fold, same
/// exponentiation and summation order) while performing no heap
/// allocation — the decode hot path applies it to per-head score segments
/// living in a reusable scratch buffer.
pub fn softmax_in_place(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for v in x.iter_mut() {
        *v = (*v - m).exp();
    }
    let sum: f32 = x.iter().sum();
    for v in x.iter_mut() {
        *v /= sum;
    }
}

/// Log-softmax, used for NLL / perplexity evaluation.
pub fn log_softmax(x: &[f32]) -> Vec<f32> {
    if x.is_empty() {
        return Vec::new();
    }
    let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = x.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
    x.iter().map(|&v| v - m - log_sum).collect()
}

/// Streaming softmax reduction: one element per `push`, O(1) state.
///
/// This is the exact algorithm of the element-serial reduction unit
/// (Fig. 6 (c) of the paper): track the running max, and rescale the running
/// exponent sum when the max improves.
///
/// ```
/// use veda_tensor::OnlineSoftmax;
/// let xs = [0.3_f32, -1.0, 2.5, 0.3];
/// let mut os = OnlineSoftmax::new();
/// for &x in &xs { os.push(x); }
/// let direct: f32 = xs.iter().map(|&x| (x - 2.5).exp()).sum();
/// assert!((os.exp_sum() - direct).abs() < 1e-5);
/// assert_eq!(os.max(), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineSoftmax {
    max: f32,
    exp_sum: f32,
    count: usize,
}

impl OnlineSoftmax {
    /// Creates an empty reduction (max = −∞, sum = 0).
    pub fn new() -> Self {
        Self { max: f32::NEG_INFINITY, exp_sum: 0.0, count: 0 }
    }

    /// Feeds one element into the reduction.
    pub fn push(&mut self, x: f32) {
        self.count += 1;
        if x > self.max {
            // Rescale the previously accumulated sum to the new maximum.
            if self.max.is_finite() {
                self.exp_sum *= (self.max - x).exp();
            }
            self.max = x;
            self.exp_sum += 1.0; // exp(x - x)
        } else {
            self.exp_sum += (x - self.max).exp();
        }
    }

    /// Running maximum (−∞ before the first push).
    pub fn max(&self) -> f32 {
        self.max
    }

    /// Running `Σ exp(x_i − max)`.
    pub fn exp_sum(&self) -> f32 {
        self.exp_sum
    }

    /// Normalizes one element with the final statistics:
    /// `exp(x − max) / exp_sum`.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been pushed yet.
    pub fn normalize(&self, x: f32) -> f32 {
        assert!(self.count > 0, "normalize called on empty OnlineSoftmax");
        (x - self.max).exp() / self.exp_sum
    }

    /// Convenience: normalize a whole stored tile at once (what the
    /// normalization unit does to FIFO output, element-serially).
    pub fn normalize_all(&self, xs: &[f32]) -> Vec<f32> {
        xs.iter().map(|&x| self.normalize(x)).collect()
    }
}

impl Default for OnlineSoftmax {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_is_monotone() {
        let p = softmax(&[-2.0, 0.0, 1.0, 5.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn softmax_in_place_is_bit_identical_to_allocating() {
        let xs = [0.1_f32, -3.0, 2.5, 0.1, 7.25, -0.5];
        let reference = softmax(&xs);
        let mut inplace = xs;
        softmax_in_place(&mut inplace);
        assert_eq!(inplace.as_slice(), reference.as_slice(), "must match bit for bit");
        let mut empty: [f32; 0] = [];
        softmax_in_place(&mut empty);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_empty_is_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_handles_large_magnitudes_without_nan() {
        let p = softmax(&[1e4, -1e4, 0.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = [0.5, -1.5, 3.0];
        let ls = log_softmax(&x);
        let s = softmax(&x);
        for (a, b) in ls.iter().zip(&s) {
            assert!((a - b.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn online_matches_two_pass_softmax() {
        let xs = [0.1_f32, 0.9, -0.4, 2.0, 2.0, -5.0, 1.3];
        let mut os = OnlineSoftmax::new();
        for &x in &xs {
            os.push(x);
        }
        let reference = softmax(&xs);
        let online: Vec<f32> = xs.iter().map(|&x| os.normalize(x)).collect();
        for (a, b) in online.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn online_single_element_normalizes_to_one() {
        let mut os = OnlineSoftmax::new();
        os.push(42.0);
        assert!((os.normalize(42.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn online_descending_input_never_rescales_incorrectly() {
        let xs = [5.0_f32, 4.0, 3.0];
        let mut os = OnlineSoftmax::new();
        for &x in &xs {
            os.push(x);
        }
        let manual: f32 = xs.iter().map(|&x| (x - 5.0).exp()).sum();
        assert!((os.exp_sum() - manual).abs() < 1e-6);
    }
}
