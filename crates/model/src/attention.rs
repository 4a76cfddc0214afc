//! Multi-head attention with a pluggable KV cache, computed with the two
//! GEMV interpretations VEDA maps to hardware.
//!
//! One row per call: the query attends over all resident cache entries
//! (`q × Kᵀ` via [`veda_tensor::ops::gemv_inner_span_into`] over one head's
//! columns of the `(l, d)` rows) and aggregates values (`s' × V` via
//! [`veda_tensor::ops::gemv_outer_span_into`]). The per-head post-softmax
//! score vectors are left for eviction policies and the voting engine to
//! observe.

use crate::config::ModelConfig;
use crate::kvcache::LayerKvCache;
use crate::rope::{apply_rope_table, rope_table_extend};
use crate::weights::LayerWeights;
use veda_eviction::ScoreView;
use veda_tensor::ops::{self, gemv_inner_span_into, gemv_outer_into, gemv_outer_span_into};
use veda_tensor::softmax::softmax_in_place;

/// Result of one attention step.
#[derive(Debug, Clone)]
pub struct AttentionOutput {
    /// The attention output after the `W_O` projection, length `D`.
    pub output: Vec<f32>,
    /// Post-softmax attention scores per head over all resident cache
    /// slots (including the current token's own new entry).
    pub head_scores: Vec<Vec<f32>>,
}

/// The attention of one row between its `W_Q/W_K/W_V` and `W_O`
/// projections: rotates every head of `q` and `k` by the row's `rope`
/// table, appends `k`/`v` to `cache` — so the row attends to itself and to
/// every row appended before it, and a later row of the same sequence to
/// this one: causality needs no mask — then per head `q × Kᵀ` → softmax →
/// `s' × V` into that head's columns of `concat`. `scores` is left holding
/// the row's head-major `n_heads × cache.len()` score block.
/// Allocation-free once `scores` is warm.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attend_row(
    position: usize,
    rope: &[(f32, f32)],
    q: &mut [f32],
    k: &mut [f32],
    v: &[f32],
    cache: &mut LayerKvCache,
    scores: &mut Vec<f32>,
    concat: &mut [f32],
) {
    apply_rope_table(q, rope);
    apply_rope_table(k, rope);
    cache.append(position, k, v);

    let dh = 2 * rope.len();
    let scale = 1.0 / (dh as f32).sqrt();
    scores.clear();
    scores.resize(q.len() / dh * cache.len(), 0.0);
    let heads = q.chunks_exact(dh).zip(concat.chunks_exact_mut(dh)).zip(scores.chunks_exact_mut(cache.len()));
    for (h, ((qh, out), scores)) in heads.enumerate() {
        // q × Kᵀ: inner product over the (l, d) key rows — l is temporal.
        gemv_inner_span_into(qh, cache.keys(), h * dh, scores);
        ops::scale(scale, scores);
        softmax_in_place(scores);
        // s' × V: outer product over the (l, d) value rows — l is temporal.
        gemv_outer_span_into(scores, cache.values(), h * dh, out);
    }
}

/// Runs one attention step for a single layer: `W_Q/W_K/W_V`, the
/// crate-internal `attend_row` the batched forward pass runs per row, and
/// `W_O` (allocating convenience wrapper).
///
/// `x` is the RMS-normed hidden state of the current token, `position` its
/// absolute index. The token's K/V vectors are appended to `cache` before
/// attending, so causality holds and the score vectors have length
/// `cache.len()`.
pub fn attend(
    x: &[f32],
    position: usize,
    cache: &mut LayerKvCache,
    w: &LayerWeights,
    config: &ModelConfig,
) -> AttentionOutput {
    // QKV generation (Step 1 of Fig. 1): x·W via the outer-product view.
    let (mut q, mut k, mut v) = (Vec::new(), Vec::new(), Vec::new());
    gemv_outer_into(x, &w.wq, &mut q);
    gemv_outer_into(x, &w.wk, &mut k);
    gemv_outer_into(x, &w.wv, &mut v);
    let mut rope = Vec::new();
    rope_table_extend(config.head_dim(), position, config.rope_theta, &mut rope);
    let (mut scores, mut concat) = (Vec::new(), vec![0.0; config.d_model]);
    attend_row(position, &rope, &mut q, &mut k, &v, cache, &mut scores, &mut concat);
    let mut output = Vec::new();
    gemv_outer_into(&concat, &w.wo, &mut output);
    let head_scores = ScoreView::new(&scores, config.n_heads).heads().map(<[f32]>::to_vec).collect();
    AttentionOutput { output, head_scores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::ModelWeights;

    fn setup() -> (ModelConfig, ModelWeights, LayerKvCache) {
        let cfg = ModelConfig::tiny();
        let w = ModelWeights::synthetic(&cfg);
        (cfg, w, LayerKvCache::new())
    }

    #[test]
    fn scores_are_distributions_over_cache() {
        let (cfg, w, mut cache) = setup();
        let x = w.embed(5).to_vec();
        for pos in 0..4 {
            let out = attend(&x, pos, &mut cache, &w.layers[0], &cfg);
            assert_eq!(out.head_scores.len(), cfg.n_heads);
            for s in &out.head_scores {
                assert_eq!(s.len(), pos + 1);
                let sum: f32 = s.iter().sum();
                assert!((sum - 1.0).abs() < 1e-4, "scores sum to {sum}");
            }
        }
    }

    #[test]
    fn first_token_attends_only_to_itself() {
        let (cfg, w, mut cache) = setup();
        let x = w.embed(3).to_vec();
        let out = attend(&x, 0, &mut cache, &w.layers[0], &cfg);
        for s in &out.head_scores {
            assert!((s[0] - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn output_width_is_d_model() {
        let (cfg, w, mut cache) = setup();
        let x = w.embed(1).to_vec();
        let out = attend(&x, 0, &mut cache, &w.layers[0], &cfg);
        assert_eq!(out.output.len(), cfg.d_model);
        assert!(out.output.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cache_grows_by_one_per_step() {
        let (cfg, w, mut cache) = setup();
        let x = w.embed(2).to_vec();
        for pos in 0..5 {
            attend(&x, pos, &mut cache, &w.layers[0], &cfg);
            assert_eq!(cache.len(), pos + 1);
        }
    }

    #[test]
    fn eviction_changes_attention_output() {
        let (cfg, w, _) = setup();
        let tokens = [5usize, 9, 13, 21, 2, 40];
        // Run with full cache.
        let mut full = LayerKvCache::new();
        let mut full_out = Vec::new();
        for (pos, &t) in tokens.iter().enumerate() {
            full_out = attend(w.embed(t), pos, &mut full, &w.layers[0], &cfg).output;
        }
        // Run with one mid-entry evicted before the last step.
        let mut pruned = LayerKvCache::new();
        let mut pruned_out = Vec::new();
        for (pos, &t) in tokens.iter().enumerate() {
            if pos == tokens.len() - 1 {
                pruned.evict(2);
            }
            pruned_out = attend(w.embed(t), pos, &mut pruned, &w.layers[0], &cfg).output;
        }
        let diff = veda_tensor::ops::max_abs_diff(&full_out, &pruned_out);
        assert!(diff > 1e-6, "eviction must perturb the output, diff {diff}");
    }

    #[test]
    fn attention_sink_emerges_on_bos() {
        // With the structured weights, later queries put above-uniform mass
        // on position 0 when the sequence starts with BOS (token 0).
        let (cfg, w, mut cache) = setup();
        let seq = [0usize, 17, 33, 21, 9, 41, 25, 13];
        let mut sink_mass = 0.0;
        let mut steps = 0;
        for (pos, &t) in seq.iter().enumerate() {
            let out = attend(w.embed(t), pos, &mut cache, &w.layers[0], &cfg);
            if pos >= 4 {
                for s in &out.head_scores {
                    sink_mass += s[0];
                    steps += 1;
                }
            }
        }
        let avg = sink_mass / steps as f32;
        let uniform = 1.0 / 6.0; // average cache length in the measured span
        assert!(avg > uniform, "sink mass {avg} should exceed uniform {uniform}");
    }
}
