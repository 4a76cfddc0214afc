//! Reusable forward-pass scratch: the zero-allocation decode hot path.
//!
//! One token through [`crate::TransformerModel::forward_in`] historically
//! allocated ~10 fresh `Vec`s per layer (q/k/v, per-head score vectors,
//! softmax copies, gate/up/hidden/down, plus the nested
//! `Vec<Vec<Vec<f32>>>` score tensor of the step output). The forward pass
//! now runs any number of rows at once through a [`BatchScratch`] — one
//! per worker thread, every activation a row-major block — and a
//! [`ForwardScratch`] owns what one *sequence* keeps between calls: the
//! input of its LM head, its logits, and (for the one-row API) one
//! `BatchScratch` and the step's observations. Steady state performs
//! **zero per-token heap allocations** (pinned by a counting-allocator
//! test) while producing bit-identical results — every in-place kernel
//! keeps the f32 summation order of its allocating twin.
//!
//! Attention-score observations are *streamed*: the batched forward hands
//! each (row, layer) score block to its caller as a borrowed [`ScoreView`]
//! the moment that row's attention finishes, out of one reused buffer. A
//! caller that wants a token's observations kept builds a [`ScoreBuffer`]
//! from the views — one flat buffer for all layers and heads of the step.

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
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of layers recorded in the current step.
    #[cfg(test)]
    pub(crate) fn n_layers(&self) -> usize {
        self.ends.len()
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

    /// An empty buffer with room for `n_layers` layers of `n_heads × len`
    /// scores each, so a step whose layers all see `len` resident rows is
    /// recorded at exactly its final size.
    pub fn with_capacity(n_layers: usize, n_heads: usize, len: usize) -> Self {
        Self {
            data: Vec::with_capacity(n_layers * n_heads * len),
            ends: Vec::with_capacity(n_layers),
            n_heads,
        }
    }

    /// Appends `scores` as the next layer's segment.
    pub fn push_layer(&mut self, scores: ScoreView<'_>) {
        self.n_heads = scores.n_heads();
        self.data.extend_from_slice(scores.as_flat());
        self.ends.push(self.data.len());
    }

    /// Empties the buffer for a new step, retaining capacity.
    pub(crate) fn clear(&mut self) {
        self.data.clear();
        self.ends.clear();
    }
}

/// Reusable activations of [`crate::TransformerModel::forward_batch`]:
/// every buffer is a row-major block with one row per token of the batch
/// (at most [`crate::transformer::FORWARD_BLOCK_ROWS`] at a time). One per
/// thread that runs forward passes; contents between calls are
/// meaningless.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Residual-stream hidden states, `d_model` per row.
    pub(crate) hidden: Vec<f32>,
    /// Pre-norm outputs feeding attention / the FFN.
    pub(crate) normed: Vec<f32>,
    /// Query projections (RoPE applied in place).
    pub(crate) q: Vec<f32>,
    /// Key projections (RoPE applied in place).
    pub(crate) k: Vec<f32>,
    /// Value projections.
    pub(crate) v: Vec<f32>,
    /// Concatenated per-head attention outputs.
    pub(crate) concat: Vec<f32>,
    /// The residual update in flight: attention after `W_O`, then the FFN
    /// down projection.
    pub(crate) delta: Vec<f32>,
    /// FFN gate activations, `ffn_hidden` per row.
    pub(crate) gate: Vec<f32>,
    /// FFN up projections, `ffn_hidden` per row.
    pub(crate) up: Vec<f32>,
    /// The head-major `n_heads × l_r` score blocks, back to back, of the
    /// group of rows (at most `veda_tensor::ops::INNER_MAX_LANES` of one
    /// run) whose attention is in flight — observations stream out of
    /// here.
    pub(crate) scores: Vec<f32>,
    /// `veda_tensor::ops::gemm_inner_span_into`'s pack buffer: one head's
    /// queries of that group, lane-interleaved.
    pub(crate) pack: Vec<f32>,
    /// One RoPE table (`head_dim / 2` rotations) per row, shared by every
    /// head of `q` and `k` in every layer.
    pub(crate) rope: Vec<(f32, f32)>,
    /// Per run of the batch: rows already forwarded, rows in the block in
    /// flight.
    pub(crate) spans: Vec<(usize, usize)>,
}

impl BatchScratch {
    /// Creates an empty scratch; every forward pass sizes the buffers for
    /// its own row count before it starts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `rows` rows of `config`'s geometry at exactly that
    /// size, so no buffer grows (by doubling) in the middle of a pass. The
    /// score block and the pack buffer depend on the resident length and
    /// are sized, as exactly, by each run's attention.
    pub(crate) fn reserve(&mut self, config: &crate::config::ModelConfig, rows: usize) {
        let Self { hidden, normed, q, k, v, concat, delta, gate, up, rope, .. } = self;
        for buf in [hidden, normed, q, k, v, concat, delta] {
            fit(buf, rows * config.d_model);
        }
        for buf in [gate, up] {
            fit(buf, rows * config.ffn_hidden);
        }
        fit(rope, rows * config.head_dim() / 2);
    }
}

/// Empties `buf` and makes room for exactly `len` elements, so it neither
/// grows by doubling nor holds more than the pass needs.
pub(crate) fn fit<T>(buf: &mut Vec<T>, len: usize) {
    buf.clear();
    buf.reserve_exact(len);
}

/// What one sequence keeps across forward passes (see the
/// [module docs](self)). Create one per decoding session — via
/// [`crate::TransformerModel::new_scratch`] to pre-size it for the model
/// geometry — and pass it to every forward call of that sequence; after
/// the call the next-token [`ForwardScratch::logits`] and (from the
/// one-row API) the step's [`ForwardScratch::scores`] remain readable
/// until the next call.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    /// Activations of the one-row API
    /// ([`crate::TransformerModel::forward_body`]); a sequence that only
    /// ever rides in a batch never sizes them.
    pub(crate) rows: BatchScratch,
    /// Final-norm output of the sequence's newest row: the input of its
    /// LM head, length `d_model`.
    pub(crate) normed: Vec<f32>,
    /// Next-token logits, length `vocab_size`.
    pub(crate) logits: Vec<f32>,
    /// All attention-score observations of the one-row API's last step.
    pub(crate) scores: ScoreBuffer,
}

impl ForwardScratch {
    /// Creates an empty scratch; buffers grow to their working sizes on
    /// first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch whose per-sequence outputs are pre-sized for a
    /// model geometry. `seq_hint` pre-sizes the score buffer for an
    /// expected resident cache length (0 for a sequence that streams its
    /// observations instead of reading [`ForwardScratch::scores`]).
    pub(crate) fn for_config(config: &crate::config::ModelConfig, seq_hint: usize) -> Self {
        Self {
            rows: BatchScratch::new(),
            normed: Vec::with_capacity(config.d_model),
            logits: Vec::with_capacity(config.vocab_size),
            scores: ScoreBuffer::with_capacity(config.n_layers, config.n_heads, seq_hint),
        }
    }

    /// Next-token logits of the most recent forward pass — empty when
    /// that pass was a [`crate::TransformerModel::forward_body`] no head
    /// has run over yet, so logits of an earlier token are never readable.
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// Final-norm output of the newest row forwarded through this scratch
    /// — what its LM head reads.
    pub fn head_input(&self) -> &[f32] {
        &self.normed
    }

    /// Attention-score observations of the most recent one-row forward
    /// pass ([`crate::TransformerModel::forward_body`] and its wrappers).
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
        b.push_layer(ScoreView::new(&[0.25, 0.75, 0.5, 0.5], 2));
        b.push_layer(ScoreView::new(&[1.0, 0.0], 2));
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
        b.clear();
        assert_eq!(b.n_layers(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn score_buffer_rejects_bad_layer() {
        ScoreBuffer::new().layer(0);
    }
}
