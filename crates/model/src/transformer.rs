//! The decoder-only transformer: prefill + autoregressive decode with
//! per-layer KV caches and eviction hooks.

use std::sync::Arc;

use crate::attention::{append_rotated, attend_run};
use crate::config::ModelConfig;
use crate::kvcache::LayerKvCache;
use crate::rope::rope_table_extend;
use crate::scratch::{BatchScratch, ForwardScratch, HeadScratch, ScoreBuffer};
use crate::weights::ModelWeights;
use veda_eviction::ScoreView;
use veda_tensor::norm::{rmsnorm_extend, rmsnorm_into};
use veda_tensor::ops::{gemm_inner_into, gemm_outer_into, gemv_inner_into};

/// Rows [`TransformerModel::forward_batch`] carries through the layers at
/// a time. Past a few dozen rows a weight block is already read from L1
/// for all but the first of them, so a larger block only buys larger
/// activations: a longer batch (an instant prefill of a long prompt) goes
/// block by block, with identical results for any blocking.
pub const FORWARD_BLOCK_ROWS: usize = 32;

/// Result of one full forward step (all layers).
#[derive(Debug, Clone)]
pub struct StepOutput {
    /// Next-token logits, length `vocab_size`.
    pub logits: Vec<f32>,
    /// Per-layer, per-head post-softmax attention scores over the resident
    /// cache slots — the observation stream for eviction policies. Stored
    /// flat; `scores.layer(l)` yields the [`veda_eviction::ScoreView`]
    /// policies observe.
    pub scores: ScoreBuffer,
}

/// Per-sequence decoding state: the per-layer KV caches of one sequence.
///
/// Weights live in [`TransformerModel`] and are shared; each concurrent
/// sequence (a serving-engine session) owns exactly one `SequenceState`,
/// which is cheap to create and to free. [`TransformerModel::forward_in`]
/// advances a sequence against the shared weights.
#[derive(Debug, Clone, Default)]
pub struct SequenceState {
    caches: Vec<LayerKvCache>,
}

impl SequenceState {
    /// Creates empty per-layer caches for `n_layers` layers.
    pub(crate) fn new(n_layers: usize) -> Self {
        Self { caches: (0..n_layers).map(|_| LayerKvCache::new()).collect() }
    }

    /// Number of layers this state tracks.
    pub fn n_layers(&self) -> usize {
        self.caches.len()
    }

    /// The per-layer KV caches (read-only).
    pub fn caches(&self) -> &[LayerKvCache] {
        &self.caches
    }

    /// Current cache length (identical across layers by construction).
    pub fn cache_len(&self) -> usize {
        self.caches.first().map_or(0, LayerKvCache::len)
    }

    /// Evicts cache slot `slot` in layer `layer`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of bounds.
    pub fn evict(&mut self, layer: usize, slot: usize) {
        self.caches[layer].evict(slot);
    }

    /// Evicts several cache slots of one layer in a single compaction
    /// pass (see [`LayerKvCache::evict_many`]). `sorted_slots` must be
    /// strictly ascending.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of bounds or unsorted.
    pub fn evict_many(&mut self, layer: usize, sorted_slots: &[usize]) {
        self.caches[layer].evict_many(sorted_slots);
    }

    /// Evicts the same slot in every layer (layer-synchronous eviction).
    pub fn evict_all_layers(&mut self, slot: usize) {
        for cache in &mut self.caches {
            cache.evict(slot);
        }
    }

    /// Reserves KV storage in every layer for `tokens` total resident
    /// rows of `width` features, so prefill and steady-state decode never
    /// reallocate mid-growth.
    pub fn reserve(&mut self, tokens: usize, width: usize) {
        for cache in &mut self.caches {
            cache.reserve(tokens, width);
        }
    }

    /// Seeds every layer of an empty state with the first `rows` resident
    /// rows of `source`, marked as a shared prefix span (see
    /// [`LayerKvCache::seed_from`]): the engine's prefix cache uses this
    /// to start a session from a cached shared-prefix KV without
    /// re-running prefill. The shared rows are excluded from
    /// [`SequenceState::fp16_bytes`] (they are resident once, in the cache
    /// entry) until an eviction inside the span privatizes them.
    ///
    /// # Panics
    ///
    /// Panics if the states' layer counts disagree, any layer is
    /// non-empty, or `rows` exceeds the source's cache length.
    pub fn seed_from(&mut self, source: &SequenceState, rows: usize) {
        assert_eq!(self.n_layers(), source.n_layers(), "seed_from layer count mismatch");
        for (cache, src) in self.caches.iter_mut().zip(&source.caches) {
            cache.seed_from(src, rows);
        }
    }

    /// Leading rows (identical across layers until a per-layer eviction
    /// privatizes a span) referenced from a shared prefix-cache entry in
    /// layer 0 — diagnostic for accounting tests.
    pub fn shared_len(&self) -> usize {
        self.caches.first().map_or(0, LayerKvCache::shared_len)
    }

    /// Converts all shared spans into privately owned rows (see
    /// `LayerKvCache::clear_shared_marker`).
    pub fn clear_shared_marker(&mut self) {
        for cache in &mut self.caches {
            cache.clear_shared_marker();
        }
    }

    /// FP16 bytes the sequence *privately owns* off-chip — excludes
    /// shared prefix spans, which are resident once in their prefix-cache
    /// entry and only referenced here.
    pub fn fp16_bytes(&self) -> usize {
        self.caches.iter().map(LayerKvCache::fp16_bytes).sum()
    }

    /// FP16 bytes of the shared prefix spans this sequence references
    /// across all layers (0 when nothing is shared).
    #[cfg(test)]
    pub(crate) fn shared_fp16_bytes(&self) -> usize {
        self.caches.iter().map(LayerKvCache::shared_fp16_bytes).sum()
    }

    /// Total FP16 bytes of all resident rows, owned and shared — the
    /// attention-streaming footprint.
    pub fn total_fp16_bytes(&self) -> usize {
        self.caches.iter().map(LayerKvCache::total_fp16_bytes).sum()
    }

    /// Clears all caches (start over / free the sequence's KV memory).
    pub fn clear(&mut self) {
        for cache in &mut self.caches {
            cache.clear();
        }
    }
}

/// The consecutive rows one sequence contributes to a
/// [`TransformerModel::forward_batch`]: a decode step is a run of one
/// token, a prefill chunk a run of several.
pub struct RowRun<'a, F> {
    state: &'a mut SequenceState,
    tokens: &'a [usize],
    position: usize,
    head_input: &'a mut Vec<f32>,
    logits: &'a mut Vec<f32>,
    observe: F,
}

impl<'a, F: FnMut(usize, usize, ScoreView<'_>)> RowRun<'a, F> {
    /// `tokens` of the sequence `state` holds, the first at absolute
    /// `position`. The forward pass appends their K/V rows to `state`,
    /// leaves the input of the last one's LM head in `scratch` (emptying
    /// its logits, as [`TransformerModel::forward_body`] does) and calls
    /// `observe(row, layer, scores)` with row `row`'s post-softmax
    /// attention scores over layer `layer`'s resident rows as soon as that
    /// attention finishes — per layer in row order, layers ascending. The
    /// view is only valid during the call.
    pub fn new(
        state: &'a mut SequenceState,
        tokens: &'a [usize],
        position: usize,
        scratch: &'a mut ForwardScratch,
        observe: F,
    ) -> Self {
        let ForwardScratch { normed, logits, .. } = scratch;
        Self { state, tokens, position, head_input: normed, logits, observe }
    }
}

/// A runnable decoder-only transformer with synthetic structured weights.
///
/// The struct holds the config and a handle to its weights, and no
/// sequence: every sequence is a [`SequenceState`] its caller owns
/// ([`TransformerModel::new_state`]) and advances against the shared
/// weights — one token through [`TransformerModel::forward_in`], a prompt
/// through [`TransformerModel::prefill`], a serving engine's mixed batch
/// through [`TransformerModel::forward_batch`].
///
/// The weights are immutable and shared across models: every live model
/// of one [`ModelConfig`] — clones, a cluster's shards, an engine beside
/// its reference model — reads one set, synthesized by the first of them
/// and freed with the last. Sharing is invisible in every output, since
/// nothing can write to the weights.
///
/// ```
/// use veda_model::{ModelConfig, TransformerModel};
/// let m = TransformerModel::new(ModelConfig::tiny());
/// // Two independent sequences against the same weights:
/// let (mut a, mut b) = (m.new_state(), m.new_state());
/// let out = m.forward_in(&mut a, 1, 0);
/// assert_eq!(out.logits.len(), m.config().vocab_size);
/// m.forward_in(&mut b, 2, 0);
/// assert_eq!(a.cache_len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TransformerModel {
    config: ModelConfig,
    weights: Arc<ModelWeights>,
    eps: f32,
}

impl TransformerModel {
    /// Builds a model with synthetic structured weights for `config`,
    /// sharing them with any live model of the same configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ModelConfig) -> Self {
        config.validate().expect("valid model config");
        let weights = ModelWeights::interned(&config);
        Self { config, weights, eps: veda_tensor::norm::DEFAULT_EPS }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Creates a fresh per-sequence state sized for this model.
    pub fn new_state(&self) -> SequenceState {
        SequenceState::new(self.config.n_layers)
    }

    /// Panics on the first of `tokens` outside the vocabulary.
    fn assert_in_vocabulary(&self, tokens: &[usize]) {
        if let Some(token) = tokens.iter().find(|&&t| t >= self.config.vocab_size) {
            panic!("token {token} outside vocabulary");
        }
    }

    /// Creates a [`ForwardScratch`] pre-sized for this model's geometry
    /// (`seq_hint` pre-sizes the score buffer for an expected resident
    /// cache length).
    pub fn new_scratch(&self, seq_hint: usize) -> ForwardScratch {
        ForwardScratch::for_config(&self.config, seq_hint)
    }

    /// Runs one token of an arbitrary sequence through all layers against
    /// the shared weights (allocating convenience wrapper over
    /// [`TransformerModel::forward_with_scratch`]). The model itself is
    /// untouched (`&self`), so any number of sequences can interleave
    /// steps.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary or the state's layer
    /// count disagrees with the model.
    pub fn forward_in(&self, state: &mut SequenceState, token: usize, position: usize) -> StepOutput {
        let mut scratch = ForwardScratch::new();
        self.forward_with_scratch(state, token, position, &mut scratch);
        StepOutput {
            logits: std::mem::take(&mut scratch.logits),
            scores: std::mem::take(&mut scratch.scores),
        }
    }

    /// Runs one token of an arbitrary sequence through all layers against
    /// the shared weights, reusing `scratch` for every intermediate buffer
    /// — the zero-allocation decode hot path. After the call
    /// [`ForwardScratch::logits`] holds the next-token logits and
    /// [`ForwardScratch::scores`] the step's attention observations.
    ///
    /// This is [`TransformerModel::forward_body`] followed by the LM head
    /// of this one sequence. Bit-identical to
    /// [`TransformerModel::forward_in`]: every in-place kernel preserves
    /// the f32 summation order of its allocating twin.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary or the state's layer
    /// count disagrees with the model.
    pub fn forward_with_scratch(
        &self,
        state: &mut SequenceState,
        token: usize,
        position: usize,
        scratch: &mut ForwardScratch,
    ) {
        self.forward_body(state, token, position, scratch);
        self.lm_head(scratch);
    }

    /// The forward pass without the LM head: embedding, every layer
    /// (appending the token's K/V rows to `state`) and the final norm —
    /// the one-row call of [`TransformerModel::forward_batch`].
    /// [`ForwardScratch::scores`] holds the step's attention observations
    /// afterwards and [`ForwardScratch::logits`] is **empty** until a head
    /// runs over this body's output — [`TransformerModel::lm_head_batch`],
    /// which serves any number of sequences from one stream of the
    /// embedding. A prompt token that is not the last of its prompt, or a
    /// sequence's final token, needs no head at all: nothing reads its
    /// logits.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary or the state's layer
    /// count disagrees with the model.
    pub fn forward_body(
        &self,
        state: &mut SequenceState,
        token: usize,
        position: usize,
        scratch: &mut ForwardScratch,
    ) {
        let ForwardScratch { rows, normed, logits, scores } = scratch;
        scores.clear();
        let observe = |_row, _layer, view: ScoreView<'_>| scores.push_layer(view);
        let run = RowRun { state, tokens: &[token], position, head_input: normed, logits, observe };
        self.forward_batch(&mut [run], rows);
    }

    /// The forward pass (no LM head) of every row of `runs` at once,
    /// **layer-major**: per layer, every row is normed, `W_Q/W_K/W_V` are
    /// one [`gemm_outer_into`] each over all rows, then run by run every
    /// row of the run is rotated and appended to its sequence and the run
    /// attends — per head, up to 8 rows' `q × Kᵀ` in one pass over the
    /// sequence's keys, each row over the rows resident when it was
    /// appended (so a chunk's row sees the rows before it and none after),
    /// then per row in token order softmax and `s' × V`, the row's scores
    /// streamed to its run's observer; then one GEMM each for `W_O`, gate,
    /// up and down. A layer's weights are thus
    /// streamed from memory once per [`FORWARD_BLOCK_ROWS`] rows instead
    /// of once per row, and every row is bit-identical to its own
    /// [`TransformerModel::forward_body`]: rows never meet in a reduction.
    ///
    /// Only a run's last row goes through the final norm (no other row can
    /// feed a head). Allocation-free once `rows` and the runs' buffers are
    /// warm.
    ///
    /// # Panics
    ///
    /// Panics if a token is outside the vocabulary or a state's layer
    /// count disagrees with the model.
    pub fn forward_batch<F: FnMut(usize, usize, ScoreView<'_>)>(
        &self,
        runs: &mut [RowRun<'_, F>],
        rows: &mut BatchScratch,
    ) {
        // Validate everything before any state is touched.
        for run in runs.iter_mut() {
            self.assert_in_vocabulary(run.tokens);
            if run.state.caches.is_empty() {
                // Allow `SequenceState::default()` to be used directly.
                *run.state = self.new_state();
            }
            assert_eq!(run.state.n_layers(), self.config.n_layers, "sequence state layer count mismatch");
            // Whatever logits the run held belong to an earlier token.
            run.logits.clear();
        }
        let total: usize = runs.iter().map(|run| run.tokens.len()).sum();
        rows.reserve(&self.config, total.min(FORWARD_BLOCK_ROWS));
        rows.spans.clear();
        rows.spans.resize(runs.len(), (0, 0));
        loop {
            // Deal the next block: each run in order takes what is left of
            // the block, resuming where its previous span ended.
            let mut room = FORWARD_BLOCK_ROWS;
            for (run, (done, len)) in runs.iter().zip(rows.spans.iter_mut()) {
                *done += *len;
                *len = (run.tokens.len() - *done).min(room);
                room -= *len;
            }
            if room == FORWARD_BLOCK_ROWS {
                return;
            }
            self.forward_block(runs, rows);
        }
    }

    /// One block of [`TransformerModel::forward_batch`]: the rows
    /// `rows.spans` deals each run, through every layer.
    fn forward_block<F: FnMut(usize, usize, ScoreView<'_>)>(
        &self,
        runs: &mut [RowRun<'_, F>],
        rows: &mut BatchScratch,
    ) {
        let config = &self.config;
        let (d, dh) = (config.d_model, config.head_dim());
        let BatchScratch { hidden, normed, q, k, v, concat, delta, gate, up, scores, pack, rope, spans } =
            rows;
        let norm_rows = |x: &[f32], gain: &[f32], out: &mut Vec<f32>| {
            out.clear();
            for row in x.chunks_exact(d) {
                rmsnorm_extend(row, gain, self.eps, out);
            }
        };
        let add_rows = |x: &mut [f32], update: &[f32]| {
            for (xi, ui) in x.iter_mut().zip(update) {
                *xi += ui;
            }
        };

        hidden.clear();
        rope.clear();
        for (run, &(done, len)) in runs.iter().zip(spans.iter()) {
            for (row, &token) in run.tokens.iter().enumerate().skip(done).take(len) {
                hidden.extend_from_slice(self.weights.embed(token));
                rope_table_extend(dh, run.position + row, config.rope_theta, rope);
            }
        }
        let n = hidden.len() / d;

        for (li, w) in self.weights.layers.iter().enumerate() {
            // Attention block with pre-norm residual. QKV generation
            // (Step 1 of Fig. 1): X·W via the outer-product view.
            norm_rows(hidden, &w.attn_norm, normed);
            gemm_outer_into(normed, n, &w.wq, q);
            gemm_outer_into(normed, n, &w.wk, k);
            gemm_outer_into(normed, n, &w.wv, v);
            concat.resize(n * d, 0.0);
            let mut kv_rows = k.chunks_exact_mut(d).zip(v.chunks_exact(d)).zip(rope.chunks_exact(dh / 2));
            let (mut q_rows, mut concat_rows) = (q.as_mut_slice(), concat.as_mut_slice());
            for (run, &(done, len)) in runs.iter_mut().zip(spans.iter()) {
                let (q, out);
                (q, q_rows) = std::mem::take(&mut q_rows).split_at_mut(len * d);
                (out, concat_rows) = std::mem::take(&mut concat_rows).split_at_mut(len * d);
                let RowRun { state, position, observe, .. } = run;
                let cache = &mut state.caches[li];
                // Every row of the run joins the sequence before any of
                // them attends, so they can share passes over its keys.
                for ((row, q), ((k, v), rope)) in (done..).zip(q.chunks_exact_mut(d)).zip(&mut kv_rows) {
                    append_rotated(*position + row, rope, q, k, v, cache);
                }
                attend_run(config, q, cache, scores, pack, out, |row, view| observe(done + row, li, view));
            }
            gemm_outer_into(concat, n, &w.wo, delta);
            add_rows(hidden, delta);

            // FFN block with pre-norm residual (Step 4 of Fig. 1).
            norm_rows(hidden, &w.ffn_norm, normed);
            gemm_outer_into(normed, n, &w.w1, gate);
            config.activation.apply_slice(gate);
            gemm_outer_into(normed, n, &w.w3, up);
            // Hadamard gate ∘ up, in place in the gate buffer.
            for (g, &u) in gate.iter_mut().zip(up.iter()) {
                *g *= u;
            }
            gemm_outer_into(gate, n, &w.w2, delta);
            add_rows(hidden, delta);
        }

        // A run whose last row is in this block leaves its head's input.
        let mut hidden_rows = hidden.chunks_exact(d);
        for (run, &(done, len)) in runs.iter_mut().zip(spans.iter()) {
            let last = hidden_rows.by_ref().take(len).last();
            if let (Some(x), true) = (last, done + len == run.tokens.len()) {
                rmsnorm_into(x, &self.weights.final_norm, self.eps, run.head_input);
            }
        }
    }

    /// The tied LM head (`logits = E · x`) of one sequence fresh from
    /// [`TransformerModel::forward_body`], filling
    /// [`ForwardScratch::logits`].
    ///
    /// # Panics
    ///
    /// Panics if the scratch has not been through a forward pass of this
    /// model.
    pub(crate) fn lm_head(&self, scratch: &mut ForwardScratch) {
        gemv_inner_into(&scratch.normed, &self.weights.embedding, &mut scratch.logits);
    }

    /// `TransformerModel::lm_head` of every sequence in `scratches` as
    /// **one** batched inner-product GEMM: the embedding streams once for
    /// all of them, and each scratch's logits are bit-identical to its
    /// own `lm_head` call's. Allocation-free once `head` is warm.
    ///
    /// # Panics
    ///
    /// Panics if a scratch has not been through a forward pass of this
    /// model.
    pub fn lm_head_batch(&self, scratches: &mut [&mut ForwardScratch], head: &mut HeadScratch) {
        head.inputs.clear();
        for scratch in scratches.iter() {
            assert_eq!(scratch.normed.len(), self.config.d_model, "lm_head_batch before a forward pass");
            head.inputs.extend_from_slice(&scratch.normed);
        }
        gemm_inner_into(&head.inputs, &self.weights.embedding, &mut head.pack, &mut head.logits);
        for (scratch, logits) in scratches.iter_mut().zip(head.logits.chunks_exact(self.config.vocab_size)) {
            scratch.logits.clear();
            scratch.logits.extend_from_slice(logits);
        }
    }

    /// Prefills a prompt from position 0 of `state` as one
    /// [`TransformerModel::forward_batch`], returning the output of the
    /// final prompt token (`None` for an empty prompt). The *cycle model*
    /// keeps VEDA's prefill — a GEMM realized as successive GEMVs on the
    /// accelerator; the host simulator batches the rows so its weights
    /// stream once per block, and produces the same bits either way.
    ///
    /// # Panics
    ///
    /// Panics if a token is outside the vocabulary.
    pub fn prefill(&self, state: &mut SequenceState, prompt: &[usize]) -> Option<StepOutput> {
        let last = prompt.len().checked_sub(1)?;
        let (mut scratch, mut scores) = (ForwardScratch::new(), ScoreBuffer::new());
        // Only the last row's observations are returned.
        let observe = |row, _layer, view: ScoreView<'_>| {
            if row == last {
                scores.push_layer(view);
            }
        };
        let run = RowRun::new(state, prompt, 0, &mut scratch, observe);
        self.forward_batch(&mut [run], &mut BatchScratch::new());
        self.lm_head(&mut scratch);
        Some(StepOutput { logits: scratch.logits, scores })
    }

    /// Greedy generation of `n` tokens after `prompt`, on a sequence of
    /// its own. Returns the generated token ids.
    pub fn generate_greedy(&self, prompt: &[usize], n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        let mut state = self.new_state();
        let Some(mut step) = self.prefill(&mut state, prompt) else {
            return out;
        };
        for position in prompt.len()..prompt.len() + n {
            let next =
                veda_tensor::stats::argmax(&step.logits).expect("the LM head yields vocab_size logits");
            out.push(next);
            step = self.forward_in(&mut state, next, position);
        }
        out
    }

    /// Negative log-likelihood of `target` under the logits of the last
    /// step (convenience for evaluation).
    #[cfg(test)]
    pub(crate) fn nll(logits: &[f32], target: usize) -> f32 {
        -veda_tensor::softmax::log_softmax(logits)[target]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_produces_finite_logits() {
        let m = TransformerModel::new(ModelConfig::tiny());
        let out = m.forward_in(&mut m.new_state(), 5, 0);
        assert_eq!(out.logits.len(), 64);
        assert!(out.logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn layer_scores_cover_all_layers_and_heads() {
        let cfg = ModelConfig::tiny();
        let m = TransformerModel::new(cfg.clone());
        let mut st = m.new_state();
        m.forward_in(&mut st, 1, 0);
        let out = m.forward_in(&mut st, 2, 1);
        assert_eq!(out.scores.n_layers(), cfg.n_layers);
        assert_eq!(out.scores.layer(0).n_heads(), cfg.n_heads);
        assert_eq!(out.scores.layer(0).len(), 2);
    }

    #[test]
    fn caches_grow_in_lockstep() {
        let m = TransformerModel::new(ModelConfig::tiny());
        let mut st = m.new_state();
        for pos in 0..4 {
            m.forward_in(&mut st, pos + 1, pos);
        }
        assert_eq!(st.cache_len(), 4);
        assert!(st.caches().iter().all(|c| c.len() == 4));
    }

    #[test]
    fn evict_all_layers_shrinks_every_cache() {
        let m = TransformerModel::new(ModelConfig::tiny());
        let mut st = m.new_state();
        for pos in 0..4 {
            m.forward_in(&mut st, 1, pos);
        }
        st.evict_all_layers(1);
        assert!(st.caches().iter().all(|c| c.len() == 3));
        assert!(st.caches().iter().all(|c| c.positions() == [0, 2, 3]));
    }

    #[test]
    fn generation_is_deterministic() {
        let prompt = [1usize, 5, 9, 2];
        let a = TransformerModel::new(ModelConfig::tiny());
        let b = TransformerModel::new(ModelConfig::tiny());
        assert_eq!(a.generate_greedy(&prompt, 8), b.generate_greedy(&prompt, 8));
        // The model keeps no sequence between calls.
        assert_eq!(a.generate_greedy(&prompt, 8), a.generate_greedy(&prompt, 8));
    }

    #[test]
    fn reset_allows_fresh_sequence() {
        let m = TransformerModel::new(ModelConfig::tiny());
        let mut st = m.new_state();
        m.forward_in(&mut st, 1, 0);
        st.clear();
        assert_eq!(st.cache_len(), 0);
        let out = m.forward_in(&mut st, 1, 0);
        assert_eq!(out.scores.layer(0).len(), 1);
    }

    #[test]
    fn nll_is_lower_for_higher_logit() {
        let logits = [0.0f32, 2.0, -1.0];
        assert!(TransformerModel::nll(&logits, 1) < TransformerModel::nll(&logits, 2));
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn out_of_vocab_token_panics() {
        let m = TransformerModel::new(ModelConfig::tiny());
        m.forward_in(&mut m.new_state(), 10_000, 0);
    }

    #[test]
    fn recovered_out_of_vocab_panic_leaves_cache_intact() {
        let m = TransformerModel::new(ModelConfig::tiny());
        let mut st = m.new_state();
        m.forward_in(&mut st, 1, 0);
        m.forward_in(&mut st, 2, 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.forward_in(&mut st, 10_000, 2);
        }));
        assert!(result.is_err());
        assert_eq!(st.cache_len(), 2, "a rejected token must not touch the sequence state");
    }

    #[test]
    fn independent_states_share_weights_without_interference() {
        // Interleaving two sequences against one model must produce exactly
        // the streams each would produce alone — KV state is per-sequence,
        // weights are shared.
        let tokens_a = [1usize, 5, 9, 2];
        let tokens_b = [3usize, 7, 7, 7];

        let solo = TransformerModel::new(ModelConfig::tiny());
        let mut st = solo.new_state();
        let solo_a: Vec<Vec<f32>> =
            tokens_a.iter().enumerate().map(|(p, &t)| solo.forward_in(&mut st, t, p).logits).collect();
        st.clear();
        let solo_b: Vec<Vec<f32>> =
            tokens_b.iter().enumerate().map(|(p, &t)| solo.forward_in(&mut st, t, p).logits).collect();

        let shared = TransformerModel::new(ModelConfig::tiny());
        let mut state_a = shared.new_state();
        let mut state_b = shared.new_state();
        for (p, (&ta, &tb)) in tokens_a.iter().zip(&tokens_b).enumerate() {
            let la = shared.forward_in(&mut state_a, ta, p).logits;
            let lb = shared.forward_in(&mut state_b, tb, p).logits;
            assert_eq!(la, solo_a[p], "sequence A diverged at {p}");
            assert_eq!(lb, solo_b[p], "sequence B diverged at {p}");
        }
        assert_eq!(state_a.cache_len(), 4);
        assert_eq!(state_b.cache_len(), 4);
    }

    #[test]
    fn sequence_state_clear_frees_kv() {
        let m = TransformerModel::new(ModelConfig::tiny());
        let mut st = m.new_state();
        m.forward_in(&mut st, 1, 0);
        assert!(st.fp16_bytes() > 0);
        st.clear();
        assert_eq!(st.cache_len(), 0);
        assert_eq!(st.fp16_bytes(), 0);
        // Cleared state is reusable.
        m.forward_in(&mut st, 2, 0);
        assert_eq!(st.cache_len(), 1);
    }

    #[test]
    fn scratch_path_is_bit_identical_to_allocating_path() {
        let m = TransformerModel::new(ModelConfig::tiny());
        let mut state_alloc = m.new_state();
        let mut state_scratch = m.new_state();
        let mut scratch = m.new_scratch(8);
        for (pos, token) in [1usize, 5, 9, 2, 40, 7].into_iter().enumerate() {
            let out = m.forward_in(&mut state_alloc, token, pos);
            m.forward_with_scratch(&mut state_scratch, token, pos, &mut scratch);
            assert_eq!(scratch.logits(), out.logits.as_slice(), "logits diverged at {pos}");
            assert_eq!(scratch.scores(), &out.scores, "scores diverged at {pos}");
        }
        assert_eq!(state_alloc.cache_len(), state_scratch.cache_len());
        for (a, b) in state_alloc.caches().iter().zip(state_scratch.caches()) {
            assert_eq!(a.keys(), b.keys());
            assert_eq!(a.values(), b.values());
        }
    }

    #[test]
    fn seeded_state_is_bit_identical_to_prefilled_state() {
        // Seeding a state from another state's prefix rows must yield
        // exactly the forward results a full prefill would: the shared
        // span is a byte-accounting overlay, never a numeric one.
        let m = TransformerModel::new(ModelConfig::tiny());
        let prompt = [1usize, 5, 9, 2, 40, 7];
        let shared = 4;

        let mut reference = m.new_state();
        let mut ref_logits = Vec::new();
        for (pos, &t) in prompt.iter().enumerate() {
            ref_logits = m.forward_in(&mut reference, t, pos).logits;
        }

        let mut donor = m.new_state();
        for (pos, &t) in prompt[..shared].iter().enumerate() {
            m.forward_in(&mut donor, t, pos);
        }
        let mut seeded = m.new_state();
        seeded.seed_from(&donor, shared);
        assert_eq!(seeded.cache_len(), shared);
        assert_eq!(seeded.shared_len(), shared);
        assert_eq!(seeded.fp16_bytes(), 0, "shared rows are not privately owned");
        assert_eq!(seeded.shared_fp16_bytes(), donor.fp16_bytes());

        let mut logits = Vec::new();
        for (pos, &t) in prompt.iter().enumerate().skip(shared) {
            logits = m.forward_in(&mut seeded, t, pos).logits;
        }
        assert_eq!(logits, ref_logits, "seeded forward diverged from full prefill");
        assert_eq!(seeded.cache_len(), reference.cache_len());
        for (a, b) in seeded.caches().iter().zip(reference.caches()) {
            assert_eq!(a.keys(), b.keys());
            assert_eq!(a.values(), b.values());
            assert_eq!(a.positions(), b.positions());
        }
        assert_eq!(seeded.total_fp16_bytes(), reference.total_fp16_bytes());
    }

    #[test]
    fn default_state_is_lazily_sized() {
        let m = TransformerModel::new(ModelConfig::tiny());
        let mut st = SequenceState::default();
        m.forward_in(&mut st, 1, 0);
        assert_eq!(st.n_layers(), m.config().n_layers);
    }
}
