//! # veda-model
//!
//! Llama-style transformer substrate for the VEDA reproduction.
//!
//! The paper evaluates on Llama-2 7B; this crate provides the equivalent
//! *functional* substrate built from scratch:
//!
//! * [`ModelConfig`] — model geometry, including a [`ModelConfig::llama2_7b`]
//!   preset used by the cycle model (no tensors are allocated for it) and
//!   small presets that run end-to-end on a CPU in seconds.
//! * [`TransformerModel`] — embedding, RoPE, multi-head attention with a
//!   pluggable KV cache, SwiGLU-free FFN, RMSNorm, tied LM head; prefill +
//!   autoregressive decode. Weights are synthetic but *structured*
//!   (attention sink, content-based matching, recency) so attention-score
//!   distributions exhibit the sparsity the eviction literature documents.
//! * [`InductionLm`] — an interpretable attention-based retrieval language
//!   model used for the perplexity experiment (Fig. 8 left): its
//!   next-token distribution genuinely depends on which KV entries survive
//!   eviction, so cache policies differentiate by mechanism, not by fiat.
//! * [`corpus`] — a structured synthetic token source (Zipf unigrams,
//!   Markov bigrams, long-range segment copies) standing in for PG-19.
//! * [`trace`] — attention-trace recording and a synthetic trace generator
//!   with controllable sink/heavy-hitter/outlier/recency structure.
//!
//! The substitution argument: the paper's claims are about *mechanisms*
//! (score distributions, eviction dynamics, dataflow timing), not about
//! Llama-2's learned knowledge, so a synthetic substrate that reproduces
//! the mechanism-relevant structure — sinks, heavy hitters, recency —
//! supports the same comparisons while staying offline and fast. See
//! `docs/ARCHITECTURE.md` at the workspace root for where this crate
//! sits in the request lifecycle.

// Crate hygiene, enforced by veda-lint (rule crate-hygiene): no unsafe
// code under the determinism pins, no undocumented public surface.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod attention;
pub mod config;
pub mod corpus;
pub mod eval;
pub mod induction;
pub mod kvcache;
pub mod rope;
pub mod sampling;
pub mod scratch;
pub mod trace;
pub mod transformer;
pub mod weights;

pub use config::ModelConfig;
pub use corpus::{Corpus, CorpusConfig};
pub use induction::{InductionConfig, InductionLm};
pub use kvcache::LayerKvCache;
pub use sampling::Sampler;
pub use scratch::{BatchScratch, ForwardScratch, HeadScratch, ScoreBuffer};
pub use trace::{AttentionTrace, SyntheticTraceConfig};
pub use transformer::{RowRun, SequenceState, StepOutput, TransformerModel, FORWARD_BLOCK_ROWS};
