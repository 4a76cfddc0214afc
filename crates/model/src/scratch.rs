//! Reusable per-sequence forward-pass scratch: the zero-allocation decode
//! hot path.
//!
//! One token through [`crate::TransformerModel::forward_in`] historically
//! allocated ~10 fresh `Vec`s per layer (q/k/v, per-head score vectors,
//! softmax copies, gate/up/hidden/down, plus the nested
//! `Vec<Vec<Vec<f32>>>` score tensor of the step output). A
//! [`ForwardScratch`] owns all of those buffers once per sequence;
//! [`crate::TransformerModel::forward_with_scratch`] threads them through
//! every kernel so steady-state decode performs **zero per-token heap
//! allocations** (pinned by a counting-allocator test) while producing
//! bit-identical results — every in-place kernel keeps the f32 summation
//! order of its allocating twin.
//!
//! Attention-score observations land in a [`ScoreBuffer`]: one flat
//! buffer for all layers and heads of the step, exposed to eviction
//! policies as borrowed [`ScoreView`]s instead of nested vectors.

use crate::rope::rope_table_into;
use veda_eviction::ScoreView;

/// Flat per-step attention-score storage: every layer's head-major score
/// block, concatenated, with per-layer end offsets.
///
/// Layers may have different resident cache lengths (per-layer eviction
/// can diverge when a policy refuses a victim), so each layer records its
/// own segment boundary; within a layer all heads have equal length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreBuffer {
    data: Vec<f32>,
    /// Cumulative end offset of each layer's segment in `data`.
    ends: Vec<usize>,
    n_heads: usize,
}

impl ScoreBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of layers recorded in the current step.
    pub fn n_layers(&self) -> usize {
        self.ends.len()
    }

    /// Heads per layer.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// The flat head-major score block of layer `l` as a [`ScoreView`]
    /// (the observation eviction policies consume).
    ///
    /// # Panics
    ///
    /// Panics if `l >= n_layers()`.
    pub fn layer(&self, l: usize) -> ScoreView<'_> {
        assert!(l < self.ends.len(), "layer {l} out of bounds ({} layers)", self.ends.len());
        let start = if l == 0 { 0 } else { self.ends[l - 1] };
        ScoreView::new(&self.data[start..self.ends[l]], self.n_heads)
    }

    /// Resets the buffer for a new step, retaining capacity.
    pub(crate) fn begin_step(&mut self, n_heads: usize) {
        self.data.clear();
        self.ends.clear();
        self.n_heads = n_heads;
    }

    /// Appends one head's segment of `len` scores to the current layer
    /// and returns it for the kernels to fill and normalize in place.
    pub(crate) fn push_head(&mut self, len: usize) -> &mut [f32] {
        let mark = self.data.len();
        self.data.resize(mark + len, 0.0);
        self.data.split_at_mut(mark).1
    }

    /// Closes the current layer's segment.
    pub(crate) fn seal_layer(&mut self) {
        self.ends.push(self.data.len());
    }
}

/// Reusable buffers for one sequence's forward pass (see the
/// [module docs](self)). Create one per decoding session — via
/// [`crate::TransformerModel::new_scratch`] to pre-size every buffer for
/// the model geometry — and pass it to every
/// [`crate::TransformerModel::forward_with_scratch`] call; after the call
/// the next-token [`ForwardScratch::logits`] and the step's
/// [`ForwardScratch::scores`] remain readable until the next call.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    /// Residual-stream hidden state, length `d_model`.
    pub(crate) hidden: Vec<f32>,
    /// Pre-norm output feeding attention / FFN / the LM head.
    pub(crate) normed: Vec<f32>,
    /// Query projection, length `d_model`.
    pub(crate) q: Vec<f32>,
    /// Key projection, length `d_model`.
    pub(crate) k: Vec<f32>,
    /// Value projection, length `d_model`.
    pub(crate) v: Vec<f32>,
    /// Concatenated per-head attention outputs, length `d_model`.
    pub(crate) concat: Vec<f32>,
    /// Attention output after `W_O`, length `d_model`.
    pub(crate) attn_out: Vec<f32>,
    /// FFN gate activation, length `ffn_hidden`.
    pub(crate) gate: Vec<f32>,
    /// FFN up projection, length `ffn_hidden`.
    pub(crate) up: Vec<f32>,
    /// FFN down projection, length `d_model`.
    pub(crate) down: Vec<f32>,
    /// Next-token logits, length `vocab_size`.
    pub(crate) logits: Vec<f32>,
    /// All attention-score observations of the step.
    pub(crate) scores: ScoreBuffer,
    /// The RoPE rotations of the step's position, `head_dim / 2` pairs
    /// shared by every head of `q` and `k` in every layer.
    pub(crate) rope: Vec<(f32, f32)>,
}

impl ForwardScratch {
    /// Creates an empty scratch; buffers grow to their working sizes on
    /// first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch pre-sized for a model geometry, so even the
    /// first forward pass allocates only inside the KV cache. `seq_hint`
    /// pre-sizes the score buffer for an expected resident cache length.
    pub fn for_config(config: &crate::config::ModelConfig, seq_hint: usize) -> Self {
        let d = config.d_model;
        Self {
            hidden: Vec::with_capacity(d),
            normed: Vec::with_capacity(d),
            q: Vec::with_capacity(d),
            k: Vec::with_capacity(d),
            v: Vec::with_capacity(d),
            concat: Vec::with_capacity(d),
            attn_out: Vec::with_capacity(d),
            gate: Vec::with_capacity(config.ffn_hidden),
            up: Vec::with_capacity(config.ffn_hidden),
            down: Vec::with_capacity(d),
            logits: Vec::with_capacity(config.vocab_size),
            scores: ScoreBuffer {
                data: Vec::with_capacity(config.n_layers * config.n_heads * seq_hint),
                ends: Vec::with_capacity(config.n_layers),
                n_heads: config.n_heads,
            },
            rope: Vec::with_capacity(config.head_dim() / 2),
        }
    }

    /// Resets the per-token state for one token at `position`: empties the
    /// score buffer and computes the position's RoPE table.
    pub(crate) fn begin_step(&mut self, config: &crate::config::ModelConfig, position: usize) {
        self.scores.begin_step(config.n_heads);
        rope_table_into(config.head_dim(), position, config.rope_theta, &mut self.rope);
    }

    /// Next-token logits of the most recent forward pass — empty when
    /// that pass was a [`crate::TransformerModel::forward_body`] no head
    /// has run over yet, so logits of an earlier token are never readable.
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// Attention-score observations of the most recent forward pass.
    pub fn scores(&self) -> &ScoreBuffer {
        &self.scores
    }
}

/// Reusable buffers of [`crate::TransformerModel::lm_head_batch`]: the
/// gathered head inputs, the kernel's lane-interleaving workspace and the
/// logits of the whole batch. One per thread that runs heads; contents
/// between calls are meaningless.
#[derive(Debug, Clone, Default)]
pub struct HeadScratch {
    /// Final-norm outputs of the batch, one `d_model` row per sequence.
    pub(crate) inputs: Vec<f32>,
    /// `veda_tensor::ops::gemm_inner_into`'s pack buffer.
    pub(crate) pack: Vec<f32>,
    /// One `vocab_size` row of logits per sequence.
    pub(crate) logits: Vec<f32>,
}

impl HeadScratch {
    /// Creates an empty scratch; buffers grow to the largest batch seen.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_buffer_tracks_layer_segments() {
        let mut b = ScoreBuffer::new();
        b.begin_step(2);
        b.push_head(2).copy_from_slice(&[0.25, 0.75]);
        b.push_head(2).copy_from_slice(&[0.5, 0.5]);
        b.seal_layer();
        b.push_head(1).copy_from_slice(&[1.0]);
        b.push_head(1).copy_from_slice(&[0.0]);
        b.seal_layer();
        assert_eq!(b.n_layers(), 2);
        let l0 = b.layer(0);
        assert_eq!(l0.len(), 2);
        assert_eq!(l0.head(0), &[0.25, 0.75]);
        assert_eq!(l0.head(1), &[0.5, 0.5]);
        let l1 = b.layer(1);
        assert_eq!(l1.len(), 1);
        assert_eq!(l1.head(0), &[1.0]);
        assert_eq!(l1.head(1), &[0.0]);
        // A new step resets the segments.
        b.begin_step(2);
        assert_eq!(b.n_layers(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn score_buffer_rejects_bad_layer() {
        ScoreBuffer::new().layer(0);
    }
}
