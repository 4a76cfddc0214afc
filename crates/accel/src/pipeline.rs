//! Functional attention pipeline on the hardware models — the
//! "RTL-simulation" path of the reproduction.
//!
//! [`AttentionPipeline`] executes one decode-step attention *entirely on
//! the functional hardware models*: `q × Kᵀ` on the inner-product PE
//! array, the softmax reduction/normalization on the element-serial SFU,
//! `s' × V` on the outer-product PE array, with the voting engine snooping
//! `s'` — exactly the dataflow of Fig. 6 (c) and Fig. 7. Results are
//! FP16-faithful and differentially tested against the `veda-tensor`
//! reference kernels, which is how this workspace "cross-validates the
//! performance model with RTL simulations" (Section VI) without RTL. Its
//! cycles are cross-checked too: on an array of one lane, PE cycles plus
//! the SFU drain equal the analytic +F+E decode cost of
//! [`crate::attention`] for any cache length, head size and tile shape.

use crate::arch::SfuConfig;
use crate::array::{ArrayMode, PeArray};
use crate::sfu::SoftmaxUnit;
use crate::voting::VotingEngine;
use veda_eviction::VotingConfig;
use veda_tensor::Matrix;

/// Result of one attention step executed on the functional hardware.
#[derive(Debug, Clone)]
pub struct PipelineStep {
    /// Post-softmax attention scores (FP16-faithful).
    pub scores: Vec<f32>,
    /// Attention output `s' × V` (FP16-faithful).
    pub output: Vec<f32>,
    /// PE-array cycles charged (inner + outer phases).
    pub pe_cycles: u64,
    /// Voting-engine busy cycles (overlapped with the outer phase).
    pub vote_cycles: u64,
}

/// One head's attention datapath built from the functional hardware
/// models.
///
/// ```
/// use veda_accel::pipeline::AttentionPipeline;
/// use veda_tensor::Matrix;
///
/// let mut pipe = AttentionPipeline::veda();
/// let keys = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// let values = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// pipe.engine_mut().on_append().unwrap();
/// pipe.engine_mut().on_append().unwrap();
/// let step = pipe.attention_step(&[1.0, 0.0], &keys, &values, 0.5);
/// assert_eq!(step.scores.len(), 2);
/// assert_eq!(step.output.len(), 2);
/// ```
#[derive(Debug)]
pub struct AttentionPipeline {
    array: PeArray,
    softmax: SoftmaxUnit,
    engine: VotingEngine,
}

impl AttentionPipeline {
    /// Builds a pipeline from explicit components.
    pub fn new(array: PeArray, sfu: SfuConfig, engine: VotingEngine) -> Self {
        Self { array, softmax: SoftmaxUnit::new(sfu), engine }
    }

    /// The paper's configuration: 8×8 tile, Table I SFU, 4096-entry voting
    /// engine with default algorithm parameters.
    pub fn veda() -> Self {
        Self::new(PeArray::veda_tile(), SfuConfig::default(), VotingEngine::veda())
    }

    /// The voting engine (to register appends / ask for evictions).
    pub fn engine_mut(&mut self) -> &mut VotingEngine {
        &mut self.engine
    }

    /// Borrow of the voting engine.
    pub fn engine(&self) -> &VotingEngine {
        &self.engine
    }

    /// Builds with a custom voting configuration (capacity 4096).
    pub fn with_voting(config: VotingConfig) -> Self {
        Self::new(PeArray::veda_tile(), SfuConfig::default(), VotingEngine::new(4096, config))
    }

    /// Executes one attention step for one head:
    ///
    /// 1. inner-product phase — `s = (q × Kᵀ) · scale`, element-serial
    ///    output feeding the SFU reduction;
    /// 2. softmax normalization — element-serial drain;
    /// 3. voting-engine snoop of `s'`;
    /// 4. outer-product phase — `o = s' × V`.
    ///
    /// # Panics
    ///
    /// Panics if `keys`/`values` disagree in shape with `q`.
    pub fn attention_step(&mut self, q: &[f32], keys: &Matrix, values: &Matrix, scale: f32) -> PipelineStep {
        assert_eq!(keys.rows(), values.rows(), "K/V row mismatch");
        assert_eq!(keys.cols(), q.len(), "query width mismatch");

        // Phase 1: q × Kᵀ on the inner-product configuration; the serial
        // outputs stream into the SFU reduction as they are produced.
        self.array.configure(ArrayMode::InnerProduct);
        let inner = self.array.inner_gemv(q, keys);
        for &s in &inner.values {
            self.softmax.push(s * scale);
        }

        // Phase 2: element-serial normalization.
        let scores = self.softmax.finish();

        // Phase 3: the voting engine snoops s' in parallel with phase 4.
        let vote_cycles = self.engine.process_head(&scores);

        // Phase 4: s' × V on the outer-product configuration.
        self.array.configure(ArrayMode::OuterProduct);
        let outer = self.array.outer_gemv(&scores, values);

        PipelineStep { scores, output: outer.values, pe_cycles: inner.cycles + outer.cycles, vote_cycles }
    }

    /// Reference (software) result of the same step, for differential
    /// testing: full-precision kernels from `veda-tensor`.
    pub fn reference_step(q: &[f32], keys: &Matrix, values: &Matrix, scale: f32) -> (Vec<f32>, Vec<f32>) {
        let mut s = veda_tensor::ops::gemv_inner(q, keys);
        for v in &mut s {
            *v *= scale;
        }
        let scores = veda_tensor::softmax::softmax(&s);
        let output = veda_tensor::ops::gemv_outer(&scores, values);
        (scores, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ArchConfig, DataflowVariant};
    use crate::attention::decode_attention_cycles_per_head;
    use proptest::prelude::*;
    use veda_tensor::ops::max_abs_diff;

    fn random_kv(l: usize, d: usize, seed: u64) -> (Vec<f32>, Matrix, Matrix) {
        let mut rng = veda_tensor::rng::seeded(seed);
        let q = veda_tensor::rng::normal_vec(&mut rng, d, 0.5);
        let k = Matrix::from_vec(l, d, veda_tensor::rng::normal_vec(&mut rng, l * d, 0.5)).unwrap();
        let v = Matrix::from_vec(l, d, veda_tensor::rng::normal_vec(&mut rng, l * d, 0.5)).unwrap();
        (q, k, v)
    }

    #[test]
    fn hardware_matches_reference_within_fp16() {
        for &(l, d) in &[(8usize, 16usize), (33, 64), (100, 32)] {
            let (q, k, v) = random_kv(l, d, l as u64);
            let mut pipe = AttentionPipeline::veda();
            for _ in 0..l {
                pipe.engine_mut().on_append().unwrap();
            }
            let hw = pipe.attention_step(&q, &k, &v, 1.0 / (d as f32).sqrt());
            let (ref_scores, ref_out) =
                AttentionPipeline::reference_step(&q, &k, &v, 1.0 / (d as f32).sqrt());
            assert!(max_abs_diff(&hw.scores, &ref_scores) < 0.01, "scores diverge at l={l} d={d}");
            assert!(max_abs_diff(&hw.output, &ref_out) < 0.05, "outputs diverge at l={l} d={d}");
        }
    }

    #[test]
    fn scores_are_distributions() {
        let (q, k, v) = random_kv(40, 32, 7);
        let mut pipe = AttentionPipeline::veda();
        for _ in 0..40 {
            pipe.engine_mut().on_append().unwrap();
        }
        let step = pipe.attention_step(&q, &k, &v, 0.2);
        let sum: f32 = step.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-2, "sum {sum}");
    }

    #[test]
    fn pe_cycles_follow_flexible_mapping() {
        // l temporal in both phases; d = 64 fits the 8×8 tile.
        let (q, k, v) = random_kv(50, 64, 3);
        let mut pipe = AttentionPipeline::veda();
        for _ in 0..50 {
            pipe.engine_mut().on_append().unwrap();
        }
        let step = pipe.attention_step(&q, &k, &v, 1.0);
        assert_eq!(step.pe_cycles, 50 + 50);
        // Voting engine busy cycles 2l + 8 (hidden behind the 2l compute).
        assert_eq!(step.vote_cycles, 2 * 50 + 8);
    }

    proptest! {
        #[test]
        fn functional_cycles_match_the_analytic_decode_cost(
            l in 1usize..48,
            d in 1usize..160,
            rows in 1usize..9,
            cols in 1usize..9,
        ) {
            // The analytic `P` is the whole array, `pe_rows · pe_cols ·
            // pe_lanes`; one lane makes it the functional tile.
            let arch = ArchConfig { pe_rows: rows, pe_cols: cols, pe_lanes: 1, head_dim: d, ..ArchConfig::veda() };
            let (q, k, v) = random_kv(l, d, (l * d) as u64);
            let mut pipe = AttentionPipeline::new(PeArray::new(rows, cols), arch.sfu, VotingEngine::veda());
            for _ in 0..l {
                pipe.engine_mut().on_append().unwrap();
            }
            let step = pipe.attention_step(&q, &k, &v, 1.0);
            prop_assert_eq!(
                step.pe_cycles + arch.sfu.element_serial_drain_cycles(),
                decode_attention_cycles_per_head(&arch, DataflowVariant::FlexibleElementSerial, l)
            );
        }
    }

    #[test]
    fn voting_engine_accumulates_across_steps_and_evicts() {
        let d = 16;
        let mut pipe = AttentionPipeline::with_voting(VotingConfig::with_reserved_len(2));
        let mut keys = Matrix::default();
        let mut values = Matrix::default();
        let mut rng = veda_tensor::rng::seeded(11);
        for step in 0..20 {
            keys.push_row(&veda_tensor::rng::normal_vec(&mut rng, d, 0.5)).unwrap();
            values.push_row(&veda_tensor::rng::normal_vec(&mut rng, d, 0.5)).unwrap();
            pipe.engine_mut().on_append().unwrap();
            let q = veda_tensor::rng::normal_vec(&mut rng, d, 0.5);
            pipe.attention_step(&q, &keys, &values, 0.25);
            if keys.rows() > 8 {
                let len = keys.rows();
                let victim = pipe.engine_mut().evict(len).expect("evictable");
                assert!(victim >= 2, "reserved prefix evicted at step {step}");
                keys.remove_row(victim);
                values.remove_row(victim);
            }
        }
        assert_eq!(keys.rows(), 8, "cache held at the post-eviction budget");
    }
}
