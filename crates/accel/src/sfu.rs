//! The Special Function Unit: element-serial reduction and normalization
//! (Fig. 6).
//!
//! Both softmax and layernorm decompose into a *reduction* stage (condense
//! the stream into a few scalars) and a *normalization* stage
//! (element-wise fixups). The reduction unit consumes the inner-product
//! array's serial output — one element per cycle — maintaining the online
//! maximum / exponent-sum (softmax) or `Σx` / `Σx²` (layernorm) while the
//! tile sits in a small FIFO. The normalization unit produces the
//! element-serial *input* stream of the outer-product array. With a PE
//! array consuming/producing one element per cycle, a single SFU removes
//! the nonlinear-operator latency — the O(N) → O(1) claim. The cycle
//! cost of each schedule depends on the SFU resources alone, so it lives
//! on [`SfuConfig`]: [`SfuConfig::blocking_cycles`] and
//! [`SfuConfig::element_serial_drain_cycles`].

use crate::arch::SfuConfig;
use veda_mem::Fifo;
use veda_tensor::norm::StreamingMoments;
use veda_tensor::OnlineSoftmax;

/// Element-serial softmax engine: push scores as they leave the
/// inner-product array, then drain normalized probabilities into the
/// outer-product array.
///
/// ```
/// use veda_accel::sfu::SoftmaxUnit;
/// let mut sm = SoftmaxUnit::new(veda_accel::arch::SfuConfig::default());
/// for &x in &[1.0_f32, 3.0, 2.0] { sm.push(x); }
/// let probs = sm.finish();
/// assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct SoftmaxUnit {
    reduction: OnlineSoftmax,
    /// Staged elements awaiting normalization. Hardware stages one tile in
    /// the 32-word FIFO while the vote engine's big FIFO holds the rest;
    /// the model stages the full vector and keeps the tile FIFO beside
    /// it, bounded at the tile depth.
    staged: Vec<f32>,
    tile_fifo: Fifo<f32>,
}

impl SoftmaxUnit {
    /// Creates a softmax unit with the given SFU resources.
    pub fn new(config: SfuConfig) -> Self {
        let depth = config.fifo_depth.max(1);
        Self { reduction: OnlineSoftmax::new(), staged: Vec::new(), tile_fifo: Fifo::new(depth) }
    }

    /// Feeds one element from the serial array output (reduction stage).
    pub fn push(&mut self, x: f32) {
        self.reduction.push(x);
        if self.tile_fifo.is_full() {
            self.tile_fifo.pop();
        }
        let _ = self.tile_fifo.push(x);
        self.staged.push(x);
    }

    /// Completes the reduction and drains normalized probabilities
    /// (the element-serial normalization stage), resetting the unit.
    pub fn finish(&mut self) -> Vec<f32> {
        let out = self.reduction.normalize_all(&self.staged);
        self.reduction = OnlineSoftmax::new();
        self.staged.clear();
        self.tile_fifo.clear();
        out
    }
}

/// Element-serial layernorm engine: streams `Σx`/`Σx²` during the producing
/// GEMV, then normalizes element-serially into the consuming GEMV.
#[derive(Debug, Clone)]
pub struct LayernormUnit {
    moments: StreamingMoments,
    staged: Vec<f32>,
    eps: f32,
}

impl LayernormUnit {
    /// Creates a layernorm unit.
    pub fn new(eps: f32) -> Self {
        Self { moments: StreamingMoments::new(), staged: Vec::new(), eps }
    }

    /// Feeds one element (reduction stage: sum and sum of squares update
    /// simultaneously, per Section IV-B).
    pub fn push(&mut self, x: f32) {
        self.moments.push(x);
        self.staged.push(x);
    }

    /// Completes the reduction and drains normalized values, resetting.
    pub fn finish(&mut self) -> Vec<f32> {
        let mean = self.moments.mean();
        let inv = 1.0 / (self.moments.variance() + self.eps).sqrt();
        let out = self.staged.iter().map(|&x| (x - mean) * inv).collect();
        self.moments = StreamingMoments::new();
        self.staged.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_unit_matches_reference() {
        let mut sm = SoftmaxUnit::new(SfuConfig::default());
        let xs = [0.4f32, -1.0, 2.5, 2.5, 0.0];
        for &x in &xs {
            sm.push(x);
        }
        let got = sm.finish();
        let want = veda_tensor::softmax::softmax(&xs);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_unit_resets_after_finish() {
        let mut sm = SoftmaxUnit::new(SfuConfig::default());
        sm.push(1.0);
        sm.finish();
        assert!(sm.staged.is_empty());
        sm.push(5.0);
        let p = sm.finish();
        assert_eq!(p, vec![1.0]);
    }

    #[test]
    fn online_reduction_state_is_exposed() {
        let mut sm = SoftmaxUnit::new(SfuConfig::default());
        sm.push(1.0);
        sm.push(3.0);
        assert_eq!(sm.reduction.max(), 3.0);
        assert!(sm.reduction.exp_sum() > 1.0);
    }

    #[test]
    fn blocking_cycles_scale_with_length() {
        // 2 EXP + 2 DIV: 1000 elements => 500 + 500 cycles.
        assert_eq!(SfuConfig::default().blocking_cycles(1000), 1000);
        assert_eq!(SfuConfig::default().blocking_cycles(0), 0);
    }

    #[test]
    fn element_serial_drain_is_constant() {
        // O(1): `fifo_depth` + 8 = 40 on Table I, whatever the length.
        assert_eq!(SfuConfig::default().element_serial_drain_cycles(), 40);
        assert_eq!(SfuConfig { fifo_depth: 16, ..SfuConfig::default() }.element_serial_drain_cycles(), 24);
    }

    #[test]
    fn layernorm_unit_matches_reference() {
        let mut ln = LayernormUnit::new(1e-5);
        let xs = [1.0f32, 2.0, 3.0, 4.0];
        for &x in &xs {
            ln.push(x);
        }
        let got = ln.finish();
        let want = veda_tensor::norm::layernorm(&xs, &[], &[], 1e-5);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4);
        }
    }

    #[test]
    fn tile_fifo_never_overflows() {
        let mut sm = SoftmaxUnit::new(SfuConfig::default());
        for i in 0..10_000 {
            sm.push(i as f32 * 1e-3);
        }
        // Push beyond the FIFO depth must not panic; reduction still exact.
        let probs = sm.finish();
        assert_eq!(probs.len(), 10_000);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-2);
    }
}
