//! Multi-head attention with a pluggable KV cache, computed with the two
//! GEMV interpretations VEDA maps to hardware.
//!
//! One run per call: the consecutive rows one sequence contributes to a
//! forward pass — a decode step is a run of one, a prefill chunk a run of
//! several — are rotated and appended first (`append_rotated`), then
//! `attend_run` scores them [`INNER_MAX_LANES`] rows at a time: per head
//! the group's queries take **one** pass over the resident keys (`q × Kᵀ`
//! via [`veda_tensor::ops::gemm_inner_span_into`] over that head's columns
//! of the `(l, d)` rows, each row storing only its own causal prefix), and
//! each row then aggregates its prefix of the values (`s' × V` via
//! [`veda_tensor::ops::gemv_outer_span_into`]). The per-head post-softmax
//! score vectors are streamed, row by row, for eviction policies and the
//! voting engine to observe.

use crate::config::ModelConfig;
use crate::kvcache::LayerKvCache;
use crate::rope::{apply_rope_table, rope_table_extend};
use crate::scratch::fit;
use crate::weights::LayerWeights;
use veda_eviction::ScoreView;
use veda_tensor::ops::{self, gemm_inner_span_into, gemv_outer_into, gemv_outer_span_into, INNER_MAX_LANES};
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

/// What one row does to its sequence before anything attends: rotates
/// every head of `q` and `k` by the row's `rope` table and appends `k`/`v`
/// to `cache` — so the row attends to itself and to every row appended
/// before it, and a later row of the same sequence to this one.
pub(crate) fn append_rotated(
    position: usize,
    rope: &[(f32, f32)],
    q: &mut [f32],
    k: &mut [f32],
    v: &[f32],
    cache: &mut LayerKvCache,
) {
    apply_rope_table(q, rope);
    apply_rope_table(k, rope);
    cache.append(position, k, v);
}

/// The attention of one run between its `W_Q/W_K/W_V` and `W_O`
/// projections: `q` holds the run's rotated query rows, `cache` already
/// ends with their K/V rows ([`append_rotated`]), so row `r` of `R` attends
/// over the leading `cache.len() - R + r + 1` resident rows and causality
/// needs no mask. Per group of up to [`INNER_MAX_LANES`] rows and per head
/// the scores of the whole group come out of one pass over the keys; then
/// per row, in row order, scale → softmax → `s' × V` into that head's
/// columns of `concat`, and `observe(r, scores)` with the row's head-major
/// score block. `scores` (one group's blocks back to back) and `pack` are
/// sized here, exactly; allocation-free once they are warm.
pub(crate) fn attend_run(
    config: &ModelConfig,
    q: &[f32],
    cache: &LayerKvCache,
    scores: &mut Vec<f32>,
    pack: &mut Vec<f32>,
    concat: &mut [f32],
    mut observe: impl FnMut(usize, ScoreView<'_>),
) {
    let (d, dh, n_heads) = (config.d_model, config.head_dim(), config.n_heads);
    let rows = q.len() / d;
    let scale = 1.0 / (dh as f32).sqrt();
    fit(scores, rows.min(INNER_MAX_LANES) * n_heads * cache.len());
    // One row is its own lane-major form and is never packed.
    fit(pack, if rows > 1 { INNER_MAX_LANES * dh } else { 0 });

    // Resident rows the run's first row attends over.
    let first_len = cache.len() + 1 - rows;
    let groups = q.chunks(INNER_MAX_LANES * d).zip(concat.chunks_mut(INNER_MAX_LANES * d));
    for (first, (q, concat)) in (0..).step_by(INNER_MAX_LANES).zip(groups) {
        let (lanes, len) = (q.len() / d, first_len + first);
        scores.clear();
        scores.resize(n_heads * (lanes * len + lanes * (lanes - 1) / 2), 0.0);

        // q × Kᵀ: inner product over the (l, d) key rows — l is temporal,
        // and one pass serves every row of the group. Each lane holds what
        // is left of its query row and of its score block; every head
        // takes its span off the front of both.
        let (mut q_rows, mut blocks) = (q.chunks_exact(d), lane_blocks(scores, n_heads, len));
        let mut rest: [_; INNER_MAX_LANES] = std::array::from_fn(move |_| {
            (q_rows.next().unwrap_or_default(), blocks.next().unwrap_or_default())
        });
        for h in 0..n_heads {
            let mut group: [(&[f32], &mut [f32]); INNER_MAX_LANES] = Default::default();
            for (lane, (q, (prefix, block))) in group.iter_mut().zip(rest.iter_mut().take(lanes)) {
                *lane = (
                    q.split_off(..dh).unwrap_or_default(),
                    block.split_off_mut(..*prefix).unwrap_or_default(),
                );
            }
            gemm_inner_span_into(group.split_at_mut(lanes).0, cache.keys(), h * dh, pack);
        }

        let blocks = lane_blocks(scores, n_heads, len).zip(concat.chunks_exact_mut(d));
        for (row, ((prefix, block), concat)) in (first..).zip(blocks) {
            let heads = block.chunks_exact_mut(prefix).zip(concat.chunks_exact_mut(dh));
            for (h, (scores, out)) in heads.enumerate() {
                ops::scale(scale, scores);
                softmax_in_place(scores);
                // s' × V: outer product over the (l, d) value rows — l is
                // temporal.
                gemv_outer_span_into(scores, cache.values(), h * dh, out);
            }
            observe(row, ScoreView::new(block, n_heads));
        }
    }
}

/// Cuts `scores` into the consecutive head-major score blocks of a group
/// whose first row attends over `len` resident rows — `n_heads × len`,
/// `n_heads × (len + 1)`, … elements, each with its row's prefix length —
/// until it is used up.
fn lane_blocks(
    mut scores: &mut [f32],
    n_heads: usize,
    len: usize,
) -> impl Iterator<Item = (usize, &mut [f32])> {
    (len..).map_while(move |prefix| {
        let (block, rest) = std::mem::take(&mut scores).split_at_mut_checked(n_heads * prefix)?;
        scores = rest;
        Some((prefix, block))
    })
}

/// Runs one attention step for a single layer: `W_Q/W_K/W_V`, the
/// crate-internal `attend_run` of the batched forward pass over this one
/// row, and `W_O` (allocating convenience wrapper).
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
    append_rotated(position, &rope, &mut q, &mut k, &v, cache);
    let (mut concat, mut head_scores) = (vec![0.0; config.d_model], Vec::new());
    attend_run(config, &q, cache, &mut Vec::new(), &mut Vec::new(), &mut concat, |_, scores| {
        head_scores = scores.heads().map(<[f32]>::to_vec).collect();
    });
    let mut output = Vec::new();
    gemv_outer_into(&concat, &w.wo, &mut output);
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
