//! Layer normalization and RMSNorm, plus the streaming (element-serial)
//! mean/variance reduction the SFU uses.
//!
//! The paper summarizes both softmax and layernorm into a *reduction* stage
//! (condensing the vector into a few scalars) and a *normalization* stage
//! (element-wise fixups). For layernorm the reduction produces the mean and
//! standard deviation; [`StreamingMoments`] computes both in one pass from a
//! serial element stream by accumulating `Σx` and `Σx²` — exactly what the
//! hardware does on the inner-product array's serial output.

/// Default epsilon added to the variance for numerical stability.
pub const DEFAULT_EPS: f32 = 1e-5;

/// Layer normalization: `(x − mean) / sqrt(var + eps) * gamma + beta`.
///
/// `gamma`/`beta` of length 0 are treated as all-ones / all-zeros.
///
/// # Panics
///
/// Panics if non-empty `gamma`/`beta` lengths differ from `x`.
pub fn layernorm(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32) -> Vec<f32> {
    if x.is_empty() {
        return Vec::new();
    }
    assert!(gamma.is_empty() || gamma.len() == x.len(), "layernorm: gamma length mismatch");
    assert!(beta.is_empty() || beta.len() == x.len(), "layernorm: beta length mismatch");
    let n = x.len() as f32;
    let mean = x.iter().sum::<f32>() / n;
    let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let inv = 1.0 / (var + eps).sqrt();
    x.iter()
        .enumerate()
        .map(|(i, &v)| {
            let g = if gamma.is_empty() { 1.0 } else { gamma[i] };
            let b = if beta.is_empty() { 0.0 } else { beta[i] };
            (v - mean) * inv * g + b
        })
        .collect()
}

/// RMS normalization (used by Llama-family models):
/// `x / sqrt(mean(x²) + eps) * gamma`.
///
/// `gamma` of length 0 is treated as all-ones.
///
/// # Panics
///
/// Panics if non-empty `gamma` length differs from `x`.
pub fn rmsnorm(x: &[f32], gamma: &[f32], eps: f32) -> Vec<f32> {
    if x.is_empty() {
        return Vec::new();
    }
    assert!(gamma.is_empty() || gamma.len() == x.len(), "rmsnorm: gamma length mismatch");
    let ms = x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    x.iter()
        .enumerate()
        .map(|(i, &v)| {
            let g = if gamma.is_empty() { 1.0 } else { gamma[i] };
            v * inv * g
        })
        .collect()
}

/// In-place variant of [`rmsnorm`]: writes the normalized vector into
/// `out`, reusing its allocation. Bit-identical to [`rmsnorm`] (same
/// mean-square reduction and per-element scaling order).
///
/// # Panics
///
/// Panics if non-empty `gamma` length differs from `x`.
pub fn rmsnorm_into(x: &[f32], gamma: &[f32], eps: f32, out: &mut Vec<f32>) {
    out.clear();
    rmsnorm_extend(x, gamma, eps, out);
}

/// [`rmsnorm_into`] that **appends** to `out` instead of replacing its
/// contents: one call per row normalizes a row-major batch into one
/// buffer, each row bit-identical to its own [`rmsnorm`].
///
/// # Panics
///
/// Panics if non-empty `gamma` length differs from `x`.
pub fn rmsnorm_extend(x: &[f32], gamma: &[f32], eps: f32, out: &mut Vec<f32>) {
    if x.is_empty() {
        return;
    }
    assert!(gamma.is_empty() || gamma.len() == x.len(), "rmsnorm: gamma length mismatch");
    let ms = x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    out.extend(x.iter().enumerate().map(|(i, &v)| {
        let g = if gamma.is_empty() { 1.0 } else { gamma[i] };
        v * inv * g
    }));
}

/// One-pass streaming mean/variance via `Σx` and `Σx²`, mirroring the
/// element-serial reduction unit of the SFU.
///
/// ```
/// use veda_tensor::norm::StreamingMoments;
/// let mut m = StreamingMoments::new();
/// for &x in &[1.0_f32, 2.0, 3.0, 4.0] { m.push(x); }
/// assert!((m.mean() - 2.5).abs() < 1e-6);
/// assert!((m.variance() - 1.25).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamingMoments {
    sum: f64,
    sum_sq: f64,
    count: usize,
}

impl StreamingMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one element.
    pub fn push(&mut self, x: f32) {
        self.sum += f64::from(x);
        self.sum_sq += f64::from(x) * f64::from(x);
        self.count += 1;
    }

    /// Number of elements pushed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Mean of the pushed elements (0 when empty).
    pub fn mean(&self) -> f32 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum / self.count as f64) as f32
        }
    }

    /// Population variance of the pushed elements (0 when empty).
    ///
    /// Computed as `Σx²/n − mean²`, clamped at zero against rounding.
    pub fn variance(&self) -> f32 {
        if self.count == 0 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean = self.sum / n;
        ((self.sum_sq / n - mean * mean).max(0.0)) as f32
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f32 {
        self.variance().sqrt()
    }

    /// The VEDA voting threshold `T = a·mean − b·σ` computed from the
    /// streamed statistics.
    pub fn voting_threshold(&self, a: f32, b: f32) -> f32 {
        a * self.mean() - b * self.std_dev()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let y = layernorm(&[1.0, 2.0, 3.0, 4.0], &[], &[], 0.0);
        let mean: f32 = y.iter().sum::<f32>() / 4.0;
        let var: f32 = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-4);
    }

    #[test]
    fn layernorm_applies_gamma_beta() {
        let y = layernorm(&[1.0, 3.0], &[2.0, 2.0], &[1.0, 1.0], 0.0);
        // normalized = [-1, 1]; scaled = [-2, 2]; shifted = [-1, 3]
        assert!((y[0] + 1.0).abs() < 1e-5);
        assert!((y[1] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn rmsnorm_unit_rms() {
        let y = rmsnorm(&[3.0, 4.0], &[], 0.0);
        let rms = (y.iter().map(|v| v * v).sum::<f32>() / 2.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-5);
    }

    #[test]
    fn rmsnorm_of_constant_vector() {
        let y = rmsnorm(&[2.0, 2.0, 2.0], &[], 0.0);
        for v in y {
            assert!((v - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn rmsnorm_into_is_bit_identical_to_allocating() {
        let x = [3.0_f32, -4.0, 0.5, 2.25];
        let gamma = [1.5_f32, 0.5, 2.0, 1.0];
        let mut out = vec![7.0; 9];
        rmsnorm_into(&x, &gamma, DEFAULT_EPS, &mut out);
        assert_eq!(out, rmsnorm(&x, &gamma, DEFAULT_EPS));
        rmsnorm_into(&x, &[], DEFAULT_EPS, &mut out);
        assert_eq!(out, rmsnorm(&x, &[], DEFAULT_EPS));
        rmsnorm_into(&[], &[], DEFAULT_EPS, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_inputs_give_empty_outputs() {
        assert!(layernorm(&[], &[], &[], DEFAULT_EPS).is_empty());
        assert!(rmsnorm(&[], &[], DEFAULT_EPS).is_empty());
    }

    #[test]
    fn streaming_moments_match_batch() {
        let xs = [0.5_f32, -1.0, 2.25, 0.0, 3.5];
        let mut m = StreamingMoments::new();
        for &x in &xs {
            m.push(x);
        }
        let n = xs.len() as f32;
        let mean = xs.iter().sum::<f32>() / n;
        let var = xs.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
        assert!((m.mean() - mean).abs() < 1e-6);
        assert!((m.variance() - var).abs() < 1e-5);
        assert_eq!(m.count(), xs.len());
    }

    #[test]
    fn streaming_moments_empty_is_zero() {
        let m = StreamingMoments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.std_dev(), 0.0);
    }

    #[test]
    fn voting_threshold_formula() {
        let mut m = StreamingMoments::new();
        for &x in &[1.0_f32, 1.0, 1.0, 1.0] {
            m.push(x);
        }
        // mean = 1, sigma = 0 => T = a
        assert!((m.voting_threshold(0.9, 0.2) - 0.9).abs() < 1e-6);
    }

    #[test]
    fn variance_never_negative_under_rounding() {
        let mut m = StreamingMoments::new();
        for _ in 0..1000 {
            m.push(1e-3);
        }
        assert!(m.variance() >= 0.0);
    }
}
