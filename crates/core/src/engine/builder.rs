//! [`EngineBuilder`]: the engine's configuration and its construction.

use std::collections::BTreeMap;
use std::sync::Arc;

use veda_accel::arch::{ArchConfig, DataflowVariant};
use veda_accel::schedule::{DecodeScheduler, LlamaShape};
use veda_cost::EnergyModel;
use veda_mem::HbmConfig;
use veda_model::{ModelConfig, TransformerModel};

use super::step::{StepContext, WorkerScratch};
use super::Engine;
use crate::error::BuildError;
use crate::prefix::{PrefixCache, PrefixCacheConfig};

/// Builder for [`Engine`].
///
/// Defaults: tiny model, VEDA architecture scaled to the model's head
/// geometry, `FlexibleElementSerial` dataflow. Costing always uses the
/// paper-default HBM ([`HbmConfig::default`]).
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    model: ModelConfig,
    variant: DataflowVariant,
    decode_threads: usize,
    prefill_chunk: usize,
    tick_token_budget: usize,
    prefix_cache: Option<PrefixCacheConfig>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineBuilder {
    /// Creates a builder with defaults.
    pub fn new() -> Self {
        Self {
            model: ModelConfig::tiny(),
            variant: DataflowVariant::FlexibleElementSerial,
            decode_threads: 1,
            prefill_chunk: usize::MAX,
            tick_token_budget: usize::MAX,
            prefix_cache: None,
        }
    }

    /// Sets the functional model configuration.
    pub fn model(mut self, model: ModelConfig) -> Self {
        self.model = model;
        self
    }

    /// Sets the dataflow variant.
    pub fn variant(mut self, variant: DataflowVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the number of decode worker threads [`Engine::step`] fans
    /// active sessions across. `1` (the default) keeps today's fully
    /// serial tick; values are clamped to at least one. The fan-out is
    /// order-preserving and touches only per-session state, so **any**
    /// thread count produces byte-identical token streams and reports —
    /// pinned by the integration tests.
    pub fn decode_threads(mut self, threads: usize) -> Self {
        self.decode_threads = threads.max(1);
        self
    }

    /// Sets how many prompt tokens one [`Engine::step`] tick may consume
    /// per prefilling session (Sarathi/vLLM-style chunked prefill).
    /// Values are clamped to at least one.
    ///
    /// The default, `usize::MAX`, selects **instant prefill**: the whole
    /// prompt is consumed synchronously (and cost-free) inside
    /// [`Engine::submit`], byte-identical to the pre-chunking engine. Any
    /// finite value makes prefill first-class scheduled work: `submit`
    /// only validates, reserves KV and enqueues the session in the
    /// [`SessionPhase::Prefilling`](super::SessionPhase::Prefilling) phase, and `step` consumes the prompt
    /// in chunks on the clock, mixed into the decode batch. The generated
    /// token stream and eviction counts are identical for every chunk
    /// size — only the tick timeline changes — which the property tests
    /// pin down.
    pub fn prefill_chunk(mut self, tokens: usize) -> Self {
        self.prefill_chunk = tokens.max(1);
        self
    }

    /// Sets the per-tick token budget shared across phases: one
    /// [`Engine::step`] tick spends one budget token per decoding session
    /// and deals the remainder to prefilling sessions (in session order,
    /// up to [`EngineBuilder::prefill_chunk`] each). Decode is never
    /// throttled — a budget smaller than the decode batch only starves
    /// prefill for that tick. Values are clamped to at least one; the
    /// default `usize::MAX` leaves prefill bounded by the chunk size
    /// alone.
    pub fn tick_token_budget(mut self, tokens: usize) -> Self {
        self.tick_token_budget = tokens.max(1);
        self
    }

    /// Enables the shared-prefix KV cache (see [`crate::prefix`]):
    /// [`Engine::submit`] matches each request's prompt against cached
    /// prefix entries (token-exact longest match of at least
    /// [`PrefixCacheConfig::min_match_tokens`] tokens), and a hit seeds
    /// the session's KV state from the cached rows — only the unshared
    /// suffix is prefilled, the session's policy stack replays the cached
    /// observation stream, and the scheduler charges only the suffix's
    /// prefill work (attention still covers the full resident length via
    /// the chunk's `start_len`). Prompts that *miss* insert themselves as
    /// a new entry when their prefill completes, while room remains.
    ///
    /// Disabled by default — and **off means off**: the engine is
    /// byte-identical to one built without this call, which the
    /// equivalence tests pin. Enabled, the sharing changes only *where
    /// bytes live and when prefill work lands on the clock*, never which
    /// tokens a request generates — pinned by the
    /// `prefix_equivalence` property tests.
    pub fn prefix_cache(mut self, config: PrefixCacheConfig) -> Self {
        self.prefix_cache = Some(config);
        self
    }

    /// Builds the engine: takes the model's weights (shared with every
    /// live model of the same configuration, see
    /// [`veda_model::TransformerModel`]), shapes the architecture to the
    /// model's attention geometry and derives the scheduler and energy
    /// model.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidModel`] / [`BuildError::InvalidArch`]
    /// when the configuration is inconsistent, and
    /// [`BuildError::InvalidPrefixCache`] for a prefix cache that could
    /// never serve a hit.
    pub fn build(self) -> Result<Engine, BuildError> {
        self.model.validate().map_err(BuildError::InvalidModel)?;
        if let Some(config) = &self.prefix_cache {
            config.validate().map_err(BuildError::InvalidPrefixCache)?;
        }

        // Architecture shaped to the model's attention geometry; everything
        // else stays at VEDA defaults.
        let mut arch = ArchConfig::veda();
        arch.head_dim = self.model.head_dim();
        arch.n_heads = self.model.n_heads;
        arch.validate().map_err(BuildError::InvalidArch)?;

        let shape = LlamaShape {
            d_model: self.model.d_model,
            n_heads: self.model.n_heads,
            ffn_hidden: self.model.ffn_hidden,
            n_layers: self.model.n_layers,
            vocab_size: self.model.vocab_size,
        };
        let scheduler = DecodeScheduler::new(arch.clone(), shape, HbmConfig::default(), self.variant);

        Ok(Engine {
            energy: EnergyModel::for_arch(&arch),
            ctx: Arc::new(StepContext {
                model: TransformerModel::new(self.model),
                arch,
                variant: self.variant,
            }),
            scheduler,
            decode_threads: self.decode_threads.max(1),
            prefill_chunk: self.prefill_chunk.max(1),
            tick_token_budget: self.tick_token_budget.max(1),
            prefix_cache: self.prefix_cache.map(PrefixCache::new),
            prefix_transfers: Vec::new(),
            solo_cost_by_len: BTreeMap::new(),
            scratch: WorkerScratch::default(),
            worker_scratch: Vec::new(),
            active: Vec::new(),
            paused: Vec::new(),
            finished: Vec::new(),
            next_id: 0,
            ticks: 0,
            tokens_emitted: 0,
            prefill_tokens: 0,
            batched_cycles: 0,
            batched_energy_mj: 0.0,
            sequential_cycles: 0,
            max_concurrency: 0,
            tracer: None,
            next_trace_id: None,
        })
    }
}
