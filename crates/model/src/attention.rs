//! Multi-head attention with a pluggable KV cache, computed with the two
//! GEMV interpretations VEDA maps to hardware.
//!
//! One decode step per call: the query row attends over all resident cache
//! entries (`q × Kᵀ` via [`veda_tensor::ops::gemv_inner_span_into`] over one
//! head's columns of the `(l, d)` rows) and aggregates values (`s' × V` via
//! [`veda_tensor::ops::gemv_outer_span_into`]).
//! The per-head post-softmax score vectors are returned so eviction policies
//! and the voting engine can observe them.

use crate::config::ModelConfig;
use crate::kvcache::LayerKvCache;
use crate::rope::apply_rope_table;
use crate::scratch::ForwardScratch;
use crate::weights::LayerWeights;
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

/// Runs one attention step for a single layer through reusable scratch
/// buffers: reads the RMS-normed hidden state from `scratch.normed`,
/// leaves the `W_O`-projected output in `scratch.attn_out` and appends the
/// layer's head-major score block to `scratch.scores` (the segment is
/// sealed here). Allocation-free once the scratch capacity is warm, and
/// bit-identical to the historical allocating kernel.
pub(crate) fn attend_into(
    position: usize,
    cache: &mut LayerKvCache,
    w: &LayerWeights,
    config: &ModelConfig,
    scratch: &mut ForwardScratch,
) {
    let d = config.d_model;
    let dh = config.head_dim();
    assert_eq!(scratch.normed.len(), d, "hidden state width mismatch");

    // QKV generation (Step 1 of Fig. 1): x·W via the outer-product view.
    gemv_outer_into(&scratch.normed, &w.wq, &mut scratch.q);
    gemv_outer_into(&scratch.normed, &w.wk, &mut scratch.k);
    gemv_outer_into(&scratch.normed, &w.wv, &mut scratch.v);

    // RoPE on every head of q and k, from the step's one table.
    apply_rope_table(&mut scratch.q, &scratch.rope);
    apply_rope_table(&mut scratch.k, &scratch.rope);

    cache.append(position, &scratch.k, &scratch.v);
    let scale = 1.0 / (dh as f32).sqrt();

    scratch.concat.clear();
    scratch.concat.resize(d, 0.0);
    let heads = scratch.q.chunks_exact(dh).zip(scratch.concat.chunks_exact_mut(dh));
    for (h, (qh, out)) in heads.enumerate() {
        // q × Kᵀ: inner product over the (l, d) key rows — l is temporal.
        let scores = scratch.scores.push_head(cache.len());
        gemv_inner_span_into(qh, cache.keys(), h * dh, scores);
        ops::scale(scale, scores);
        softmax_in_place(scores);
        // s' × V: outer product over the (l, d) value rows — l is temporal.
        gemv_outer_span_into(scores, cache.values(), h * dh, out);
    }
    scratch.scores.seal_layer();

    gemv_outer_into(&scratch.concat, &w.wo, &mut scratch.attn_out);
}

/// Runs one attention step for a single layer (allocating convenience
/// wrapper over the crate-internal `attend_into` scratch kernel).
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
    let mut scratch = ForwardScratch::new();
    scratch.normed.extend_from_slice(x);
    scratch.begin_step(config, position);
    attend_into(position, cache, w, config, &mut scratch);
    let head_scores = scratch.scores.layer(0).heads().map(<[f32]>::to_vec).collect();
    AttentionOutput { output: std::mem::take(&mut scratch.attn_out), head_scores }
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
