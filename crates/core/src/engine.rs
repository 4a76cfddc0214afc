//! The session-based serving engine: long-lived substrate, per-request
//! sessions, two-phase (prefill → decode) incremental batched serving.
//!
//! An [`Engine`] owns the model weights, accelerator architecture, decode
//! scheduler and energy model **once**. Callers [`Engine::submit`]
//! [`Request`]s — each with its own prompt, generation limit, stop tokens,
//! eviction policy and [`Budget`] — and receive [`Session`] handles. A
//! session moves through a phase machine ([`SessionPhase`]):
//! `Prefilling → Decoding → Finished`.
//!
//! **Submission is two-phase.** `submit` only validates the request,
//! reserves the session's peak KV footprint
//! ([`Request::reserve_resident_tokens`]) and enqueues it in the
//! `Prefilling` phase; the prompt is consumed *on the clock* by
//! subsequent [`Engine::step`] ticks, up to
//! [`EngineBuilder::prefill_chunk`] prompt tokens per tick
//! (Sarathi/vLLM-style chunked prefill). Every tick builds a **mixed
//! batch**: each decoding session advances by one token *and* each
//! prefilling session consumes its chunk, costed together through
//! [`DecodeScheduler::mixed_batch`] so the linear-layer weights stream
//! from HBM once per tick across both phases. A per-tick token budget
//! ([`EngineBuilder::tick_token_budget`]) is shared across phases: decode
//! tokens are never throttled, prefill chunks are dealt the remainder in
//! session order. Each tick yields one [`TokenEvent`] per session that
//! advanced — [`TokenEvent::Generated`] for decode,
//! [`TokenEvent::PrefillProgress`] for prefill — so callers can stream
//! both output tokens and time-to-first-token progress.
//!
//! **Compatibility: instant prefill.** With the default
//! `prefill_chunk = usize::MAX` the whole prompt is consumed
//! synchronously (and cost-free) inside `submit`, exactly as the
//! pre-chunking engine did: token streams, eviction counts, tick counts
//! and per-request reports are byte-identical, which the integration and
//! property tests pin down. A finite chunk changes only *when* work lands
//! on the clock, never *which* tokens a request generates — chunked
//! prefill observes attention scores without evicting, exactly like
//! instant prefill (VEDA Fig. 3's reserved + voting stages).
//!
//! With [`EngineBuilder::decode_threads`] the per-session work of a tick
//! (decode steps *and* prefill chunks) fans out across scoped worker
//! threads in contiguous slices balanced by planned tokens —
//! order-preserving and byte-identical to the serial schedule. A worker
//! runs its whole slice as **one** batched forward pass
//! ([`TransformerModel::forward_batch`]): every decode row and every row
//! of every chunk goes through the layers together, so the host streams
//! the layer weights once per worker per tick — what
//! `DecodeScheduler::mixed_batch` charges the accelerator — and each
//! session's policies observe its rows' attention scores as they stream
//! out. The pass is the forward *without* the LM head; each worker ends
//! its slice with one batched head over the sessions whose logits the
//! next tick reads, so logits are computed where `mixed_batch` charges
//! `lm_rows` and nowhere else. All of it runs through per-worker buffers
//! that are reused tick after tick.
//!
//! Per-request accounting stays single-sequence and decode-only: each
//! finished session yields the exact [`SimulationReport`] the legacy
//! one-shot [`crate::Simulation::run`] would produce for the same prompt —
//! the determinism invariant the integration tests pin down. Batch-level
//! throughput, energy and on-clock prefill tokens are aggregated
//! separately into an [`EngineReport`].
//!
//! VEDA's layer-wise voting eviction protocol runs per session: each
//! session instantiates its own per-layer policy stack via
//! [`PolicyKind::build`], observes its own attention scores, and evicts
//! from its own [`SequenceState`]. Finished sessions free their KV state
//! immediately.
//!
//! For serving layers (admission control, preemptive scheduling) the
//! engine exposes capacity introspection and session lifecycle hooks:
//! [`Engine::kv_bytes_active`] / [`Engine::session_kv_bytes`] account
//! resident KV bytes, [`Engine::pause`] / [`Engine::resume`] take a
//! session out of (and back into) the batched tick without touching its
//! KV state — a paused session's token stream continues exactly where it
//! left off, because each session decodes greedily from its own logits —
//! and [`Engine::tighten_budget`] shrinks a session's resident cap under
//! memory pressure (the next tick evicts down to it).

use std::collections::BTreeMap;

use veda_accel::arch::{ArchConfig, DataflowVariant};
use veda_accel::attention::decode_attention_cycles;
use veda_accel::schedule::{DecodeScheduler, LlamaShape, PrefillChunk};
use veda_cost::EnergyModel;
use veda_eviction::{EvictionPolicy, PolicyKind, ScoreView};
use veda_mem::HbmConfig;
use veda_model::{
    BatchScratch, ForwardScratch, HeadScratch, ModelConfig, RowRun, ScoreBuffer, SequenceState,
    TransformerModel,
};
use veda_telemetry::{TraceEventKind, Tracer};

use crate::error::BuildError;
use crate::prefix::{
    PrefixCache, PrefixCacheConfig, PrefixCacheStats, PrefixPin, PrefixTransfer, PrefixTransferKind,
};
use crate::simulator::SimulationReport;

/// KV cache budget of one request.
///
/// Replaces the legacy `Option<f64>` compression-ratio / `Option<usize>`
/// fixed-budget pair (and its `usize::MAX / 2` "no budget" sentinel) with
/// one explicit enum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Never evict for capacity (the full-cache configuration).
    Unbounded,
    /// Hold the cache at a fixed number of resident tokens (the
    /// language-modeling configuration).
    Fixed(usize),
    /// Hold the cache at `round(r × prompt_len)` tokens, `r ∈ (0, 1]` (the
    /// paper's Fig. 3 configuration).
    Ratio(f64),
}

impl Budget {
    /// Checks the budget is usable.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidBudget`] for `Fixed(0)` or a ratio
    /// outside `(0, 1]`.
    pub fn validate(self) -> Result<(), BuildError> {
        match self {
            Budget::Unbounded => Ok(()),
            Budget::Fixed(0) => Err(BuildError::InvalidBudget("fixed budget must be positive".into())),
            Budget::Fixed(_) => Ok(()),
            Budget::Ratio(r) if !(0.0..=1.0).contains(&r) || r == 0.0 || r.is_nan() => {
                Err(BuildError::InvalidBudget(format!("compression ratio {r} outside (0, 1]")))
            }
            Budget::Ratio(_) => Ok(()),
        }
    }

    /// Resolves to a concrete resident-token cap for a prompt of
    /// `prompt_len` tokens. `Unbounded` maps to a cap no sequence reaches.
    pub fn resolve(self, prompt_len: usize) -> usize {
        match self {
            Budget::Unbounded => usize::MAX / 2,
            Budget::Fixed(n) => n,
            Budget::Ratio(r) => ((prompt_len as f64 * r).round() as usize).max(1),
        }
    }
}

impl std::fmt::Display for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Budget::Unbounded => write!(f, "unbounded"),
            Budget::Fixed(n) => write!(f, "fixed:{n}"),
            Budget::Ratio(r) => write!(f, "ratio:{r}"),
        }
    }
}

impl std::str::FromStr for Budget {
    type Err = BuildError;

    /// Parses `"unbounded"` / `"full"`, `"fixed:N"` (or a bare integer),
    /// and `"ratio:R"` (or a bare float in `(0, 1]`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim().to_ascii_lowercase();
        let budget = match t.as_str() {
            "unbounded" | "full" | "none" => Budget::Unbounded,
            _ => {
                if let Some(n) = t.strip_prefix("fixed:") {
                    Budget::Fixed(n.parse().map_err(|_| {
                        BuildError::InvalidBudget(format!("cannot parse fixed budget from {s:?}"))
                    })?)
                } else if let Some(r) = t.strip_prefix("ratio:") {
                    Budget::Ratio(r.parse().map_err(|_| {
                        BuildError::InvalidBudget(format!("cannot parse ratio budget from {s:?}"))
                    })?)
                } else if let Ok(n) = t.parse::<usize>() {
                    Budget::Fixed(n)
                } else if let Ok(r) = t.parse::<f64>() {
                    Budget::Ratio(r)
                } else {
                    return Err(BuildError::InvalidBudget(format!("cannot parse budget from {s:?}")));
                }
            }
        };
        budget.validate()?;
        Ok(budget)
    }
}

/// One generation request: a prompt plus per-request decode configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Prompt token ids (must be non-empty and in-vocabulary).
    pub prompt: Vec<usize>,
    /// Maximum number of tokens to generate.
    pub max_new_tokens: usize,
    /// Eviction policy for this request's sessions.
    pub policy: PolicyKind,
    /// KV cache budget for this request.
    pub budget: Budget,
    /// Token ids that end generation early (the stop token is kept in the
    /// output).
    pub stop_tokens: Vec<usize>,
}

impl Request {
    /// A request with the workspace-default policy (voting) and budget
    /// (ratio 0.5), matching [`crate::SimulationBuilder`] defaults.
    pub fn new(prompt: impl Into<Vec<usize>>, max_new_tokens: usize) -> Self {
        Self {
            prompt: prompt.into(),
            max_new_tokens,
            policy: PolicyKind::Voting,
            budget: Budget::Ratio(0.5),
            stop_tokens: Vec::new(),
        }
    }

    /// Sets the eviction policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the cache budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the stop tokens.
    pub fn stop_tokens(mut self, stop_tokens: impl Into<Vec<usize>>) -> Self {
        self.stop_tokens = stop_tokens.into();
        self
    }

    /// Peak resident tokens this request can reach if nothing is ever
    /// evicted: the whole prompt plus every generated token. This is the
    /// conservative bound admission controllers reserve against —
    /// deliberately ignoring the cache [`Budget`], because eviction
    /// policies may refuse to evict below their protected prefix (the
    /// voting policy never evicts inside its reserved length), so the
    /// budget is not a guaranteed ceiling while `prompt + generated` is.
    ///
    /// The single source of the engine/admission reservation math: both
    /// [`crate::Engine::submit`]'s KV pre-allocation and the serving
    /// stack's `AdmissionController` derive from this helper, so the two
    /// accountings cannot drift.
    pub fn peak_resident_tokens(&self) -> usize {
        self.prompt.len() + self.max_new_tokens
    }

    /// KV rows the engine reserves up front for this request's session:
    /// the unbounded peak ([`Request::peak_resident_tokens`] plus one for
    /// the append-then-evict overshoot), clipped by the budget cap (plus
    /// two slots of slack, but never below the prompt — prefill never
    /// evicts, so the full prompt length is always reached). Reserving
    /// this up front means neither prefill nor steady-state decode ever
    /// reallocates KV storage.
    pub fn reserve_resident_tokens(&self) -> usize {
        let unbounded_peak = self.peak_resident_tokens() + 1;
        let resident_cap = self.budget.resolve(self.prompt.len());
        let capped_peak = resident_cap.saturating_add(2).max(self.prompt.len() + 2);
        unbounded_peak.min(capped_peak)
    }

    /// Whether this request's session can never be forced to evict: its
    /// resolved budget cap is at least its unbounded peak
    /// ([`Request::peak_resident_tokens`]), so the cache never exceeds
    /// the cap and no eviction ever runs (`Budget::Unbounded`, or a
    /// fixed/ratio cap at or above `prompt + max_new_tokens`).
    ///
    /// This is the soundness condition for the serving layer's
    /// shared-prefix admission discount: an eviction inside a shared
    /// prefix span privatizes it (the session then *owns* those bytes —
    /// see [`veda_model::LayerKvCache::seed_from`]), so only sessions
    /// that provably never evict can reserve less than their full peak.
    /// Note that [`Engine::tighten_budget`] (the opt-in lossy pressure
    /// response) can retroactively break this promise — which is why the
    /// bundled `veda-serving` server disables the discount entirely when
    /// budget shrinking is configured.
    pub fn never_evicts(&self) -> bool {
        self.budget.resolve(self.prompt.len()) >= self.peak_resident_tokens()
    }
}

/// Handle of one submitted request within an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Session(usize);

impl Session {
    /// The numeric session id (submission order).
    pub fn id(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Lifecycle phase of a session (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionPhase {
    /// The prompt is still being consumed; no output token yet.
    Prefilling,
    /// The prompt is consumed; each tick decodes one generated token.
    Decoding,
    /// The session retired; its report is available until taken.
    Finished,
}

impl std::fmt::Display for SessionPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SessionPhase::Prefilling => "prefilling",
            SessionPhase::Decoding => "decoding",
            SessionPhase::Finished => "finished",
        })
    }
}

/// Per-session outcome of one [`Engine::step`] tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenEvent {
    /// A decoding session emitted one generated token.
    Generated {
        /// The emitting session.
        session: Session,
        /// The generated token id.
        token: usize,
        /// Attention cycles of this token at the session's pre-step cache
        /// length (single-sequence cycle model).
        attention_cycles: u64,
        /// Evictions performed across all layers after appending this
        /// token.
        evictions: usize,
        /// The session's cache length after eviction.
        cache_len: usize,
        /// Whether this token finished the session (limit or stop token).
        finished: bool,
    },
    /// A prefilling session consumed a chunk of prompt tokens (no output
    /// token yet — its first [`TokenEvent::Generated`] comes the tick
    /// after the prompt is fully consumed).
    PrefillProgress {
        /// The prefilling session.
        session: Session,
        /// Prompt tokens consumed this tick.
        tokens: usize,
        /// Prompt tokens still unconsumed after this tick (`0` means
        /// prefill completed and the session enters the `Decoding`
        /// phase).
        remaining: usize,
        /// The session's cache length after the chunk (prefill never
        /// evicts).
        cache_len: usize,
        /// Whether this event retired the session — only possible when
        /// prefill completed and the request asked for zero generated
        /// tokens.
        finished: bool,
    },
}

impl TokenEvent {
    /// The session this event belongs to.
    pub fn session(&self) -> Session {
        match *self {
            TokenEvent::Generated { session, .. } | TokenEvent::PrefillProgress { session, .. } => session,
        }
    }

    /// Whether this event retired its session this tick.
    pub fn finished(&self) -> bool {
        match *self {
            TokenEvent::Generated { finished, .. } | TokenEvent::PrefillProgress { finished, .. } => finished,
        }
    }
}

/// Result of one [`Engine::step`] tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineTick {
    /// One event per session that advanced this tick, in session order
    /// (decode and prefill events interleaved by session).
    pub events: Vec<TokenEvent>,
    /// Number of sessions that advanced in this tick (decode steps plus
    /// prefill chunks; prefilling sessions starved by the tick token
    /// budget do not count).
    pub batch_size: usize,
    /// Generated tokens emitted this tick (decode events).
    pub decode_tokens: usize,
    /// Prompt tokens consumed by prefill chunks this tick.
    pub prefill_tokens: usize,
    /// Prefilling sessions that consumed a chunk this tick.
    pub prefill_sessions: usize,
    /// Critical-path cycles of the mixed tick
    /// ([`DecodeScheduler::mixed_batch`]).
    pub batch_cycles: u64,
    /// Energy of the batched tick in millijoules (core + HBM, weights
    /// streamed once).
    pub batch_energy_mj: f64,
    /// KV bytes resident in device memory after the tick (active sessions
    /// only — paused sessions are the serving layer's to account, finished
    /// sessions free their state before this is sampled).
    pub kv_bytes_resident: u64,
}

/// Outcome of one finished request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// The session handle.
    pub session: Session,
    /// The policy the request ran with.
    pub policy: PolicyKind,
    /// The budget the request ran with.
    pub budget: Budget,
    /// Per-request report, identical to what the legacy one-shot
    /// [`crate::Simulation::run`] produces for the same prompt.
    pub report: SimulationReport,
}

/// Aggregated result of an engine run: per-request reports plus
/// batched-tick throughput/energy.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Finished requests in completion order.
    pub requests: Vec<RequestOutcome>,
    /// Batched (mixed prefill/decode) ticks executed.
    pub ticks: u64,
    /// Total tokens generated across all requests.
    pub total_tokens: usize,
    /// Prompt tokens consumed by on-clock chunked prefill across all
    /// ticks. Zero under instant prefill
    /// (`prefill_chunk = usize::MAX`), where prompts are consumed
    /// cost-free at [`Engine::submit`].
    pub prefill_tokens: usize,
    /// Sum of batched-tick critical-path cycles.
    pub batched_total_cycles: u64,
    /// Batched decode throughput at the architecture clock.
    pub batched_tokens_per_second: f64,
    /// Batched energy per generated token in millijoules.
    pub batched_energy_mj_per_token: f64,
    /// Sum of the per-request single-sequence cycle totals — what serving
    /// the same requests one at a time would have cost.
    pub sequential_total_cycles: u64,
    /// Largest batch observed in one tick.
    pub max_concurrency: usize,
    /// Shared-prefix cache counters at drain time (all-zero when the
    /// cache is disabled). Unlike the tick/token accumulators these are
    /// cumulative over the engine's lifetime — the cache itself persists
    /// across report drains.
    pub prefix: crate::prefix::PrefixCacheStats,
}

impl EngineReport {
    /// How much cheaper the batched schedule was than serving each request
    /// alone (`sequential / batched` cycles; 1.0 when nothing batched).
    pub fn batching_speedup(&self) -> f64 {
        if self.batched_total_cycles == 0 {
            1.0
        } else {
            self.sequential_total_cycles as f64 / self.batched_total_cycles as f64
        }
    }
}

impl std::fmt::Display for EngineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "engine report: {} requests, {} ticks, max concurrency {}",
            self.requests.len(),
            self.ticks,
            self.max_concurrency
        )?;
        writeln!(f, "  tokens generated       : {}", self.total_tokens)?;
        writeln!(f, "  prefill tokens on clock: {}", self.prefill_tokens)?;
        writeln!(f, "  batched cycles         : {}", self.batched_total_cycles)?;
        writeln!(f, "  batched tokens/s       : {:.1}", self.batched_tokens_per_second)?;
        writeln!(f, "  batched energy/token   : {:.3} mJ", self.batched_energy_mj_per_token)?;
        writeln!(f, "  sequential cycles      : {}", self.sequential_total_cycles)?;
        writeln!(f, "  batching speedup       : {:.2}x", self.batching_speedup())?;
        if self.prefix.hits + self.prefix.misses > 0 {
            writeln!(
                f,
                "  prefix cache           : {} hits / {} lookups ({:.0}%), {} prompt tokens shared, {} entries ({} B)",
                self.prefix.hits,
                self.prefix.hits + self.prefix.misses,
                100.0 * self.prefix.hit_rate(),
                self.prefix.shared_tokens,
                self.prefix.entries,
                self.prefix.resident_bytes,
            )?;
        }
        for r in &self.requests {
            let budget = match r.budget {
                Budget::Unbounded => "∞".to_string(),
                _ => r.report.cache_budget.to_string(),
            };
            writeln!(
                f,
                "  {:<4} {:<14} {:<12} {:>4} tokens  {:>8.1} tok/s  {:>8.3} mJ/tok  cache {} / budget {}",
                r.session.to_string(),
                r.policy.as_str(),
                r.budget.to_string(),
                r.report.generated.len(),
                r.report.tokens_per_second,
                r.report.energy_mj_per_token,
                r.report.final_cache_len,
                budget,
            )?;
        }
        Ok(())
    }
}

/// Builder for [`Engine`].
///
/// Defaults match the legacy [`crate::SimulationBuilder`]: tiny model,
/// VEDA architecture scaled to the model's head geometry,
/// `FlexibleElementSerial` dataflow, paper-default HBM.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    model: ModelConfig,
    variant: DataflowVariant,
    hbm: HbmConfig,
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
            hbm: HbmConfig::default(),
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

    /// Sets the HBM configuration.
    pub fn hbm(mut self, hbm: HbmConfig) -> Self {
        self.hbm = hbm;
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
    /// [`SessionPhase::Prefilling`] phase, and `step` consumes the prompt
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
    /// when the configuration is inconsistent.
    pub fn build(self) -> Result<Engine, BuildError> {
        self.model.validate().map_err(BuildError::InvalidModel)?;

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
        let scheduler = DecodeScheduler::new(arch.clone(), shape, self.hbm, self.variant);
        let energy = EnergyModel::for_arch(&arch);

        Ok(Engine {
            model: TransformerModel::new(self.model),
            arch,
            variant: self.variant,
            scheduler,
            energy,
            decode_threads: self.decode_threads.max(1),
            prefill_chunk: self.prefill_chunk.max(1),
            tick_token_budget: self.tick_token_budget.max(1),
            prefix_cache: self.prefix_cache.map(PrefixCache::new),
            prefix_transfers: Vec::new(),
            solo_cycles_by_len: BTreeMap::new(),
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

/// State of one in-flight session. Everything a decode worker touches
/// during the fan-out lives here, in the worker's own [`WorkerScratch`]
/// or behind a shared `&` borrow, so slices advance in parallel without
/// synchronization.
struct ActiveSession {
    id: Session,
    policy_kind: PolicyKind,
    budget: Budget,
    resident_cap: usize,
    policies: Vec<Box<dyn EvictionPolicy>>,
    state: SequenceState,
    /// What the session keeps between forward passes: the input of its LM
    /// head and its logits. While the session has a next token to decode,
    /// `scratch.logits()` holds the logits it is argmaxed from (the
    /// slice's batched LM head fills them in); otherwise it is empty.
    scratch: ForwardScratch,
    /// Reusable per-layer eviction victim list (original slot indices).
    victims: Vec<usize>,
    /// The request's prompt; consumed by prefill (instantly at submit or
    /// chunk by chunk on the clock).
    prompt: Vec<usize>,
    /// Prompt tokens consumed so far; the session is `Prefilling` while
    /// this is short of the prompt length.
    prefilled: usize,
    /// When `Some`, this session records its prompt's per-token
    /// attention-score observations during prefill, to be inserted as a
    /// prefix-cache entry once the prompt completes. Only set for
    /// prompts that *missed* the cache at submit (hit prompts insert
    /// nothing), so the recorded stream always covers the whole prompt.
    prefix_obs: Option<Vec<ScoreBuffer>>,
    /// Id of the prefix-cache entry this session was seeded from, if
    /// any. The session holds a *seed pin* on that entry from submit to
    /// retirement (retire/discard/extract release it), so cache churn
    /// can never evict, spill or expire rows a live session references.
    seed_pin: Option<u64>,
    position: usize,
    max_new_tokens: usize,
    stop_tokens: Vec<usize>,
    generated: Vec<usize>,
    attention_cycles: Vec<u64>,
    total_cycles: u64,
    total_energy_mj: f64,
    evictions: usize,
    /// Request id stamped onto trace events. Defaults to the session id;
    /// serving layers override it with the global arrival index
    /// ([`Engine::set_next_trace_id`]) so one request keeps one id across
    /// shards, swaps, and migrations (the id travels with
    /// [`Engine::extract`]/[`Engine::adopt`]).
    trace_id: u64,
}

impl ActiveSession {
    /// Whether the prompt is fully consumed (the session decodes).
    fn is_decoding(&self) -> bool {
        self.prefilled == self.prompt.len()
    }

    /// The cache length the cycle model charges for the next decode step
    /// (mirrors the legacy `Simulation::run` clamping).
    fn costed_len(&self) -> usize {
        self.state.cache_len().min(self.resident_cap.max(1)).max(1)
    }
}

/// Replays a prefix-cache hit into a freshly built session: the first
/// `matched` recorded observation streams are fed to the policy stack in
/// exactly the order prefill would have produced them — each layer's policy
/// appends then observes, token by token — so the policies' internal state
/// (H2O score sums, vote counts, windows) is bit-identical to having run
/// the shared span's forward passes, which were skipped.
fn replay_observations(session: &mut ActiveSession, observations: &[ScoreBuffer], matched: usize) {
    for step in observations.iter().take(matched) {
        for (layer, policy) in session.policies.iter_mut().enumerate() {
            policy.on_append();
            policy.observe(step.layer(layer));
        }
        session.position += 1;
    }
    session.prefilled += matched;
}

/// Per-session work of one tick, resolved on the coordinator before any
/// fan-out so workers touch only their own session.
#[derive(Debug, Clone, Copy)]
enum Plan {
    /// Advance one generated token (pre-resolved cost inputs).
    Decode { l_before: usize, solo_cycles: u64 },
    /// Consume `tokens` prompt tokens.
    Prefill { tokens: usize },
    /// No work this tick (the tick token budget starved this prefilling
    /// session).
    Wait,
}

impl Plan {
    /// Rows the plan adds to its worker's batched forward pass.
    fn tokens(self) -> usize {
        match self {
            Plan::Decode { .. } => 1,
            Plan::Prefill { tokens } => tokens,
            Plan::Wait => 0,
        }
    }
}

/// Lengths of the contiguous slices (at most `workers`, none empty) a
/// tick's sessions are dealt to workers in: a session joins the slice its
/// planned tokens' midpoint falls in, so a worker holding a 32-token
/// prefill chunk is not also handed half the decode rows.
fn split_by_tokens(plans: &[Plan], workers: usize) -> Vec<usize> {
    let total = plans.iter().map(|p| p.tokens()).sum::<usize>().max(1);
    let mut lens = Vec::with_capacity(workers);
    let (mut before, mut current, mut len) = (0, 0, 0);
    for plan in plans {
        let tokens = plan.tokens();
        let slice = ((2 * before + tokens) * workers / (2 * total)).min(workers - 1);
        if slice != current && len > 0 {
            lens.push(len);
            len = 0;
        }
        current = slice;
        len += 1;
        before += tokens;
    }
    if len > 0 {
        lens.push(len);
    }
    lens
}

/// The buffers one worker's slice of a tick runs through: the activations
/// of its batched forward pass and the workspace of its batched LM head.
#[derive(Default)]
struct WorkerScratch {
    rows: BatchScratch,
    head: HeadScratch,
}

/// Shared read-only context of one decode tick, borrowed by every worker
/// during the fan-out. Everything here is `&`-shared (`TransformerModel`
/// is `Sync`; the cycle and energy models are pure); all mutation happens
/// inside each worker's own [`ActiveSession`]s and [`WorkerScratch`].
struct StepContext<'a> {
    model: &'a TransformerModel,
    arch: &'a ArchConfig,
    energy: &'a EnergyModel,
    variant: DataflowVariant,
    shape: LlamaShape,
}

impl StepContext<'_> {
    /// Executes one worker's slice of the tick — or, from
    /// [`Engine::submit`], the instant prefill of one new session:
    ///
    /// 1. every session's plan [begins](Self::begin): decode rows pick
    ///    their token and book its cost;
    /// 2. **one** batched forward pass carries every row of the slice —
    ///    each decode session's one, each prefill chunk's several —
    ///    through the layers together, so the layer weights stream from
    ///    memory once for the slice, as the cycle model's mixed batch
    ///    charges them; each session's policies observe its rows' scores
    ///    as they stream out. A [`Plan::Wait`] session contributes no
    ///    rows and is not touched;
    /// 3. every session's plan [completes](Self::complete): decode rows
    ///    evict down to their budget, chunks advance their prompt;
    /// 4. the LM head runs **once** for every session of the slice whose
    ///    logits will be read — the ones that decode a token next tick:
    ///    decode rows that did not just finish and chunks that completed a
    ///    prompt with tokens to generate. These are the scheduler's
    ///    `lm_rows`, minus the rows that finished.
    fn run_slice(
        &self,
        sessions: &mut [ActiveSession],
        plans: &[Plan],
        worker: &mut WorkerScratch,
    ) -> Vec<Option<TokenEvent>> {
        let mut outcomes: Vec<_> =
            sessions.iter_mut().zip(plans).map(|(session, &plan)| self.begin(session, plan)).collect();

        let n_layers = self.model.config().n_layers;
        let mut runs = Vec::with_capacity(sessions.len());
        for (session, event) in sessions.iter_mut().zip(&outcomes) {
            let ActiveSession { state, scratch, policies, prefix_obs, prompt, prefilled, .. } = session;
            let tokens = match event {
                None => continue,
                Some(TokenEvent::Generated { token, .. }) => std::slice::from_ref(token),
                Some(TokenEvent::PrefillProgress { tokens, .. }) => {
                    prompt.split_at(*prefilled).1.split_at(*tokens).0
                }
            };
            // A prompt that is a prefix-cache insertion candidate records
            // each token's observation stream for later replay: one
            // buffer per token, opened at its final size when the token's
            // first layer streams out and filled layer by layer.
            let mut recording = prefix_obs.as_mut();
            let recorded = recording.as_ref().map_or(0, |obs| obs.len());
            let observe = move |row: usize, layer: usize, scores: ScoreView<'_>| {
                let policy = &mut policies[layer];
                policy.on_append();
                policy.observe(scores);
                if let Some(obs) = recording.as_mut() {
                    if layer == 0 {
                        obs.push(ScoreBuffer::with_capacity(n_layers, scores.n_heads(), scores.len()));
                    }
                    obs[recorded + row].push_layer(scores);
                }
            };
            runs.push(RowRun::new(state, tokens, session.position, scratch, observe));
        }
        self.model.forward_batch(&mut runs, &mut worker.rows);

        for (session, outcome) in sessions.iter_mut().zip(&mut outcomes) {
            if let Some(event) = outcome {
                self.complete(session, event);
            }
        }
        let mut readers: Vec<&mut ForwardScratch> = sessions
            .iter_mut()
            .zip(&outcomes)
            .filter(|(session, event)| session.is_decoding() && event.as_ref().is_some_and(|e| !e.finished()))
            .map(|(session, _)| &mut session.scratch)
            .collect();
        self.model.lm_head_batch(&mut readers, &mut worker.head);
        outcomes
    }

    /// Opens one session's tick plan before the slice's forward pass and
    /// returns its event (`None` for [`Plan::Wait`]), whose post-forward
    /// fields [`StepContext::complete`] fills in. A decode row picks its
    /// token — greedy argmax over the previous step's logits — and books
    /// its single-sequence cost from the pre-resolved `solo_cycles`; a
    /// prefill chunk needs nothing before its rows run.
    fn begin(&self, session: &mut ActiveSession, plan: Plan) -> Option<TokenEvent> {
        match plan {
            Plan::Wait => None,
            Plan::Prefill { tokens } => {
                let remaining = session.prompt.len() - session.prefilled - tokens;
                Some(TokenEvent::PrefillProgress {
                    session: session.id,
                    tokens,
                    remaining,
                    cache_len: 0,
                    finished: remaining == 0 && session.max_new_tokens == 0,
                })
            }
            Plan::Decode { l_before, solo_cycles } => {
                // Every forward pass empties the logits and only a head
                // over it refills them, so logits that exist belong to the
                // session's immediately preceding forward pass.
                debug_assert!(
                    !session.scratch.logits().is_empty(),
                    "{} decodes without a head over its last forward pass",
                    session.id
                );
                let token = veda_tensor::stats::argmax(session.scratch.logits()).expect("non-empty logits");
                session.generated.push(token);

                let attention_cycles = decode_attention_cycles(self.arch, self.variant, l_before);
                session.attention_cycles.push(attention_cycles);
                session.total_cycles += solo_cycles;
                let solo_bytes =
                    self.shape.weight_bytes_per_token() + self.shape.kv_bytes_per_token(l_before);
                session.total_energy_mj += self.energy.token_energy_mj(solo_cycles, solo_bytes);

                let finished =
                    session.generated.len() >= session.max_new_tokens || session.stop_tokens.contains(&token);
                Some(TokenEvent::Generated {
                    session: session.id,
                    token,
                    attention_cycles,
                    evictions: 0,
                    cache_len: 0,
                    finished,
                })
            }
        }
    }

    /// Closes one session's tick plan after the slice's forward pass, in
    /// which its policies observed every row. A prefill chunk only
    /// advances its prompt — prefill observes without evicting (Fig. 3's
    /// reserved + voting stages), instantly at submit or chunk by chunk on
    /// the clock alike. A decode row evicts down to the session's budget,
    /// layer by layer.
    fn complete(&self, session: &mut ActiveSession, event: &mut TokenEvent) {
        match event {
            TokenEvent::PrefillProgress { tokens, cache_len, .. } => {
                session.position += *tokens;
                session.prefilled += *tokens;
                *cache_len = session.state.cache_len();
            }
            TokenEvent::Generated { evictions, cache_len, .. } => {
                let ActiveSession { state, policies, victims, resident_cap, .. } = session;
                for (layer, policy) in policies.iter_mut().enumerate() {
                    // Victims are selected one at a time (each selection
                    // sees the policy's compacted state, exactly as the
                    // serial protocol demands) but the KV rows are removed
                    // in a single stable compaction pass per layer.
                    // `victims` collects the selected slots mapped back to
                    // the original pre-eviction index space, kept sorted
                    // ascending.
                    victims.clear();
                    let mut len = state.caches()[layer].len();
                    while len > *resident_cap {
                        let Some(slot) = policy.select_victim(len) else {
                            break;
                        };
                        policy.on_evict(slot);
                        let mut original = slot;
                        let mut insert_at = 0;
                        for &prior in victims.iter() {
                            if prior <= original {
                                original += 1;
                                insert_at += 1;
                            } else {
                                break;
                            }
                        }
                        victims.insert(insert_at, original);
                        len -= 1;
                        *evictions += 1;
                    }
                    state.evict_many(layer, victims);
                }
                session.position += 1;
                session.evictions += *evictions;
                *cache_len = session.state.cache_len();
            }
        }
    }
}

/// A paused session lifted out of one [`Engine`] for adoption by another
/// ([`Engine::extract`] / [`Engine::adopt`]) — the unit of cross-shard
/// session migration. The wrapper is opaque: it carries the session's
/// complete decode state (KV cache, logits scratch, per-layer eviction
/// policies, prompt/generation progress and per-request accounting), so
/// the adopting engine continues the token stream bit-identically to an
/// unmigrated run. The KV payload a migration must move over the
/// interconnect is [`MigratedSession::kv_bytes`].
pub struct MigratedSession {
    inner: ActiveSession,
    /// Geometry of the source engine's model — adoption requires an
    /// identical configuration (same synthetic weights).
    config: ModelConfig,
}

impl MigratedSession {
    /// KV bytes (FP16) the session owns — the payload a migration moves
    /// over the interconnect, in each direction. Extraction privatizes
    /// any shared prefix span first, so this covers every resident row.
    pub fn kv_bytes(&self) -> u64 {
        self.inner.state.fp16_bytes() as u64
    }

    /// Tokens the session has generated so far.
    pub fn generated_tokens(&self) -> usize {
        self.inner.generated.len()
    }

    /// The source engine's model geometry (what [`Engine::adopt`] checks).
    pub fn model_config(&self) -> &ModelConfig {
        &self.config
    }
}

impl std::fmt::Debug for MigratedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigratedSession")
            .field("source_session", &self.inner.id)
            .field("kv_bytes", &self.kv_bytes())
            .field("generated_tokens", &self.inner.generated.len())
            .finish()
    }
}

/// The long-lived serving engine (see the [module docs](self)).
pub struct Engine {
    model: TransformerModel,
    arch: ArchConfig,
    variant: DataflowVariant,
    scheduler: DecodeScheduler,
    energy: EnergyModel,
    /// Worker threads one [`Engine::step`] fans sessions across (≥ 1).
    decode_threads: usize,
    /// Prompt tokens one tick may consume per prefilling session
    /// (`usize::MAX` = instant prefill at submit).
    prefill_chunk: usize,
    /// Per-tick token budget shared across phases (≥ 1).
    tick_token_budget: usize,
    /// Shared-prefix KV cache (`None` = disabled, the default — the
    /// disabled engine is byte-identical to the pre-prefix-cache engine).
    prefix_cache: Option<PrefixCache>,
    /// Host-link traffic produced by prefix-cache churn (spills from
    /// eviction, fills from host-tier promotion), in the deterministic
    /// order it happened. Serving layers drain it via
    /// [`Engine::take_prefix_transfers`] to charge their host link; a
    /// standalone engine just accumulates the record.
    prefix_transfers: Vec<PrefixTransfer>,
    /// Cross-tick memo of single-sequence decode cost per cache length,
    /// resolved on the coordinator before any fan-out (capped sessions
    /// share a handful of lengths in steady state). Ordered so iteration
    /// (should any future reader walk it) can never depend on hash seed.
    solo_cycles_by_len: BTreeMap<usize, u64>,
    /// Buffers of the work done on the calling thread: a tick's first
    /// slice and instant prefill at submit.
    scratch: WorkerScratch,
    /// Buffers of the spawned workers, one per further slice a tick has
    /// used so far.
    worker_scratch: Vec<WorkerScratch>,
    active: Vec<ActiveSession>,
    paused: Vec<ActiveSession>,
    finished: Vec<RequestOutcome>,
    next_id: usize,
    ticks: u64,
    tokens_emitted: usize,
    prefill_tokens: usize,
    batched_cycles: u64,
    batched_energy_mj: f64,
    sequential_cycles: u64,
    max_concurrency: usize,
    /// Observation-only trace emitter (`None` = zero-cost, byte-identical
    /// to an engine without the telemetry plane). All emission happens on
    /// the coordinator thread, never inside the decode fan-out, so the
    /// event stream is deterministic for any thread count.
    tracer: Option<Tracer>,
    /// Trace id consumed by the next [`Engine::submit`] (set by serving
    /// layers just before submitting; see [`ActiveSession::trace_id`]).
    next_trace_id: Option<u64>,
}

impl Engine {
    /// The configured architecture.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// The dataflow variant.
    pub fn variant(&self) -> DataflowVariant {
        self.variant
    }

    /// The shared model configuration.
    pub fn model_config(&self) -> &ModelConfig {
        self.model.config()
    }

    /// Decode worker threads per tick (see
    /// [`EngineBuilder::decode_threads`]).
    pub fn decode_threads(&self) -> usize {
        self.decode_threads
    }

    /// Prompt tokens one tick may consume per prefilling session —
    /// `usize::MAX` means instant prefill at submit (see
    /// [`EngineBuilder::prefill_chunk`]).
    pub fn prefill_chunk(&self) -> usize {
        self.prefill_chunk
    }

    /// Per-tick token budget shared across phases (see
    /// [`EngineBuilder::tick_token_budget`]).
    pub fn tick_token_budget(&self) -> usize {
        self.tick_token_budget
    }

    /// The lifecycle phase of `session`: `Prefilling`/`Decoding` for
    /// in-flight sessions (active or paused), `Finished` once its report
    /// is available, `None` for unknown sessions (or after the report was
    /// taken).
    pub fn session_phase(&self, session: Session) -> Option<SessionPhase> {
        if let Some(s) = self.active.iter().chain(&self.paused).find(|s| s.id == session) {
            Some(if s.is_decoding() { SessionPhase::Decoding } else { SessionPhase::Prefilling })
        } else if self.is_finished(session) {
            Some(SessionPhase::Finished)
        } else {
            None
        }
    }

    /// Number of sessions currently decoding.
    pub fn active_sessions(&self) -> usize {
        self.active.len()
    }

    /// Whether `session` is still decoding.
    pub fn is_active(&self, session: Session) -> bool {
        self.active.iter().any(|s| s.id == session)
    }

    /// Number of sessions currently paused.
    pub fn paused_sessions(&self) -> usize {
        self.paused.len()
    }

    /// Whether `session` is paused.
    pub fn is_paused(&self, session: Session) -> bool {
        self.paused.iter().any(|s| s.id == session)
    }

    /// KV bytes (FP16) resident in device memory across all *active*
    /// sessions. Paused sessions are excluded: the serving layer that
    /// paused them decides whether their KV state stays resident or is
    /// swapped to the host. Shared prefix spans are also excluded — those
    /// bytes are resident **once**, inside their prefix-cache entry
    /// ([`Engine::prefix_cache_bytes`]), no matter how many sessions
    /// reference them.
    pub fn kv_bytes_active(&self) -> u64 {
        self.active.iter().map(|s| s.state.fp16_bytes() as u64).sum()
    }

    /// KV bytes (FP16) of one in-flight session, active or paused.
    pub fn session_kv_bytes(&self, session: Session) -> Option<u64> {
        self.active.iter().chain(&self.paused).find(|s| s.id == session).map(|s| s.state.fp16_bytes() as u64)
    }

    /// Tokens `session` may still generate before hitting its limit
    /// (ignores stop tokens, which can end it earlier). Scheduling
    /// policies use this for shortest-remaining-budget ordering.
    pub fn session_remaining_tokens(&self, session: Session) -> Option<usize> {
        self.active
            .iter()
            .chain(&self.paused)
            .find(|s| s.id == session)
            .map(|s| s.max_new_tokens.saturating_sub(s.generated.len()))
    }

    /// KV bytes (FP16) one resident token occupies across all layers —
    /// the unit admission controllers multiply resident-token estimates
    /// by. Consistent with [`veda_model::SequenceState::fp16_bytes`].
    pub fn kv_bytes_per_token(&self) -> u64 {
        let cfg = self.model.config();
        // K and V rows of d_model FP16 values per layer.
        (cfg.n_layers as u64) * 2 * (cfg.d_model as u64) * 2
    }

    /// Whether the shared-prefix KV cache is enabled (see
    /// [`EngineBuilder::prefix_cache`]).
    pub fn prefix_cache_enabled(&self) -> bool {
        self.prefix_cache.is_some()
    }

    /// Prompt tokens a [`Engine::submit`] of this prompt would currently
    /// serve from the prefix cache (token-exact longest match, capped one
    /// short of the prompt, zero when disabled or below the minimum).
    ///
    /// Serving layers use this as a *probe*: under the v2 churn-capable
    /// cache, an unpinned entry can be evicted, spilled or TTL-expired
    /// between the probe and the eventual [`Engine::submit`], so the
    /// match can shrink. A serving layer that reserves only the
    /// **unshared** peak KV bytes of a known-prefix request must take a
    /// [`Engine::pin_prefix`] pin on the matched entry and hold it until
    /// the submit lands — the pin makes the entry ineligible for every
    /// churn path, restoring the "match can only grow" guarantee the
    /// admission discount depends on.
    pub fn prefix_match_len(&self, prompt: &[usize]) -> usize {
        self.prefix_cache.as_ref().map_or(0, |cache| cache.match_len(prompt))
    }

    /// Pins the prefix-cache entry that best matches `prompt` (the same
    /// entry a [`Engine::submit`] would seed from right now) and returns
    /// a [`PrefixPin`] receipt, or `None` when the cache is disabled or
    /// nothing matches at or above the minimum. A pinned entry is immune
    /// to LRU eviction, host spill and TTL expiry until every pin is
    /// released via [`Engine::unpin_prefix`].
    ///
    /// This is the admission-side half of the discount-soundness
    /// contract (see [`Engine::prefix_match_len`]): pin at accept, hold
    /// across the queue, release once the submit has taken its own seed
    /// pin. Pinning is accounting-neutral — it records neither a hit nor
    /// a miss and never promotes a host-tier entry.
    pub fn pin_prefix(&mut self, prompt: &[usize]) -> Option<PrefixPin> {
        self.prefix_cache.as_mut().and_then(|cache| cache.pin(prompt))
    }

    /// Releases a pin taken with [`Engine::pin_prefix`]. The entry's LRU
    /// clock is touched on release, so a just-unpinned entry is the
    /// *freshest* eviction candidate, not the staleest.
    pub fn unpin_prefix(&mut self, pin: PrefixPin) {
        if let Some(cache) = self.prefix_cache.as_mut() {
            cache.unpin(pin);
        }
    }

    /// Host-link bytes a [`Engine::submit`] of this prompt would have to
    /// fill back from the host spill tier before seeding — the size of
    /// the best-matching entry when it currently lives on the host, zero
    /// when it is device-resident, nothing matches, or the cache is
    /// disabled. Admission controllers add this to a request's headroom
    /// check so a discounted accept cannot be bankrupted by its own fill
    /// traffic.
    pub fn prefix_fill_bytes(&self, prompt: &[usize]) -> u64 {
        self.prefix_cache.as_ref().map_or(0, |cache| cache.fill_bytes(prompt))
    }

    /// Advances the prefix cache's TTL clock to `now` (ticks, monotone —
    /// stale values are ignored) and expires idle unpinned entries on
    /// both tiers. Each expiry is traced as
    /// [`TraceEventKind::PrefixExpired`] with the cache entry id in the
    /// event's request field. No-op when the cache is disabled or
    /// [`PrefixCacheConfig::ttl_ticks`] is `u64::MAX`.
    ///
    /// Serving layers call this once per tick *before* admission, so a
    /// tick's accepts see post-expiry cache contents.
    pub fn advance_prefix_clock(&mut self, now: u64) {
        let Some(cache) = self.prefix_cache.as_mut() else { return };
        let expiries = cache.advance_clock(now);
        for expiry in expiries {
            self.trace(expiry.entry, TraceEventKind::PrefixExpired { bytes: expiry.bytes });
        }
    }

    /// Drains the spill/fill transfers the prefix cache generated since
    /// the last call (submit-time promotions, capacity-pressure spills).
    /// Serving layers charge each one to their host link — tagged
    /// [`PrefixTransferKind::Spill`] traffic leaves the device
    /// asynchronously, while `Fill` traffic must be serialized onto the
    /// engine clock like a session swap-in before the hitting session
    /// decodes. Standalone engine users may ignore the outbox; it grows
    /// by one record per spill/fill until drained.
    pub fn take_prefix_transfers(&mut self) -> Vec<PrefixTransfer> {
        std::mem::take(&mut self.prefix_transfers)
    }

    /// FP16 bytes the prefix cache's spilled entries occupy in host
    /// memory (zero when spill is disabled). Counterpart of
    /// [`Engine::prefix_cache_bytes`], which counts the device tier.
    pub fn prefix_host_bytes(&self) -> u64 {
        self.prefix_cache.as_ref().map_or(0, PrefixCache::host_bytes)
    }

    /// Aggregate prefix-cache counters (all-zero when disabled). Also
    /// reported on [`EngineReport::prefix`].
    pub fn prefix_cache_stats(&self) -> PrefixCacheStats {
        self.prefix_cache.as_ref().map_or_else(PrefixCacheStats::default, PrefixCache::stats)
    }

    /// FP16 bytes the cached prefix entries keep resident in HBM —
    /// counted **once**, independently of how many sessions reference
    /// them. Not included in [`Engine::kv_bytes_active`], which accounts
    /// only the bytes sessions privately own.
    pub fn prefix_cache_bytes(&self) -> u64 {
        self.prefix_cache.as_ref().map_or(0, PrefixCache::resident_bytes)
    }

    /// Pauses an active session: it keeps its KV state, logits and policy
    /// stack but stops advancing in [`Engine::step`] until
    /// [`Engine::resume`]d. Returns the session's resident KV bytes (what
    /// a preempting scheduler must move over the host link to actually
    /// free device memory), or `None` if the session is not active.
    ///
    /// Pausing never changes the session's generated token sequence: each
    /// session decodes greedily from its own logits against its own
    /// state, so a pause only delays its remaining tokens.
    pub fn pause(&mut self, session: Session) -> Option<u64> {
        let idx = self.active.iter().position(|s| s.id == session)?;
        let s = self.active.remove(idx);
        let bytes = s.state.fp16_bytes() as u64;
        self.trace(s.trace_id, TraceEventKind::Paused);
        self.paused.push(s);
        Some(bytes)
    }

    /// Resumes a paused session into the active batch (it rejoins at the
    /// end of the round-robin order). Returns its resident KV bytes (the
    /// swap-in volume if it had been swapped out), or `None` if the
    /// session is not paused.
    pub fn resume(&mut self, session: Session) -> Option<u64> {
        let idx = self.paused.iter().position(|s| s.id == session)?;
        let s = self.paused.remove(idx);
        let bytes = s.state.fp16_bytes() as u64;
        self.trace(s.trace_id, TraceEventKind::Resumed);
        self.active.push(s);
        Some(bytes)
    }

    /// Discards an in-flight session — active or paused — without
    /// producing a finished report: its KV state is dropped (device
    /// memory freed), its partial token stream is lost, and it never
    /// appears in [`Engine::drain_report`]. Returns the KV bytes freed,
    /// or `None` if the session is not in flight.
    ///
    /// This is the fail-stop primitive of the serving fault plane: a
    /// crashed shard's sessions are discarded (their requests re-enter
    /// admission from the prompt), and a timed-out session is discarded
    /// before its request retries or dead-letters. The engine's prefix
    /// cache is untouched — cache entries own their bytes independently
    /// of the sessions referencing them, which is exactly what makes
    /// re-prefilling a recovered request cheap.
    pub fn discard(&mut self, session: Session) -> Option<u64> {
        let mut s = if let Some(idx) = self.active.iter().position(|s| s.id == session) {
            self.active.remove(idx)
        } else {
            let idx = self.paused.iter().position(|s| s.id == session)?;
            self.paused.remove(idx)
        };
        self.release_seed_pin(&mut s);
        Some(s.state.fp16_bytes() as u64)
    }

    /// Lifts a *paused* session out of this engine for adoption by
    /// another ([`Engine::adopt`]) — the engine half of cross-shard
    /// session migration. Returns `None` if the session is not paused
    /// (callers [`Engine::pause`] first; extraction of a mid-batch
    /// session would tear a tick in half).
    ///
    /// Any shared prefix span is privatized on the way out
    /// (`clear_shared_marker`): the rows were copied out of the cache
    /// entry when the session was seeded, so after extraction the
    /// session owns every resident byte and references nothing in this
    /// engine's prefix cache — [`MigratedSession::kv_bytes`] is then the
    /// complete interconnect payload. Like [`Engine::pause`], extraction
    /// never changes the session's remaining token stream.
    ///
    /// The extracted session's per-request cycle/energy accounting
    /// travels with it: when it finishes on the adopting engine, its
    /// `total_cycles` accrue to *that* engine's sequential-cycles
    /// aggregate.
    pub fn extract(&mut self, session: Session) -> Option<MigratedSession> {
        let idx = self.paused.iter().position(|s| s.id == session)?;
        let mut s = self.paused.remove(idx);
        s.state.clear_shared_marker();
        // Privatization severs the last reference into this engine's
        // prefix cache, so the seed pin is released here rather than
        // travelling with the session.
        self.release_seed_pin(&mut s);
        self.trace(s.trace_id, TraceEventKind::Extracted);
        Some(MigratedSession { inner: s, config: self.model.config().clone() })
    }

    /// Adopts a session extracted from another engine
    /// ([`Engine::extract`]). The session lands in this engine's *paused*
    /// set under a freshly allocated [`Session`] id (per-engine ids are
    /// not unique across a cluster) — [`Engine::resume`] releases it into
    /// the batch, which lets a serving layer serialize the interconnect
    /// transfer latency into its clock first.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidRequest`] if this engine's model
    /// geometry differs from the source's — migrating a session between
    /// different models would decode against different weights.
    pub fn adopt(&mut self, migrated: MigratedSession) -> Result<Session, BuildError> {
        if *self.model.config() != migrated.config {
            return Err(BuildError::InvalidRequest(
                "adopt requires the source engine's model geometry".into(),
            ));
        }
        let mut s = migrated.inner;
        s.id = Session(self.next_id);
        self.next_id += 1;
        // Extraction released the source-engine seed pin; an adopted
        // session must not carry a dangling pin id into this cache.
        s.seed_pin = None;
        if self.prefix_cache.is_none() {
            // The source engine promised a prefix-cache insertion this
            // engine cannot honor; dropping the recorded observations
            // changes nothing downstream (insertion only serves *future*
            // prompts).
            s.prefix_obs = None;
        }
        let id = s.id;
        self.trace(s.trace_id, TraceEventKind::Adopted);
        self.paused.push(s);
        Ok(id)
    }

    /// Shrinks the resident-token cap of an in-flight session (active or
    /// paused) to `min(current cap, max(1, new_cap))` — budget shrink
    /// under memory pressure. The next tick the session decodes, its
    /// policies evict down to the new cap. Returns the effective cap, or
    /// `None` if the session is not in flight.
    ///
    /// Unlike [`Engine::pause`], tightening a budget *does* change the
    /// session's subsequent token stream (evicting cache entries changes
    /// attention), so serving layers expose it as a distinct, opt-in
    /// pressure response.
    pub fn tighten_budget(&mut self, session: Session, new_cap: usize) -> Option<usize> {
        let s = self.active.iter_mut().chain(&mut self.paused).find(|s| s.id == session)?;
        s.resident_cap = s.resident_cap.min(new_cap.max(1));
        Some(s.resident_cap)
    }

    /// Installs an observation-only trace emitter. Every lifecycle event
    /// the engine produces from here on — prefill chunks, first tokens,
    /// decode ticks, pause/resume, extract/adopt, finishes — flows into
    /// the tracer's sink, stamped with the engine cycle clock and the
    /// tick set via [`Engine::set_trace_now`]. With no tracer installed
    /// the engine's behavior and outputs are byte-identical to a build
    /// without the telemetry plane (determinism invariant #8).
    pub fn install_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// The installed tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Updates the virtual tick stamped onto subsequent trace events.
    /// Serving layers call this once per clock tick; a no-op without a
    /// tracer.
    pub fn set_trace_now(&mut self, now: u64) {
        if let Some(t) = self.tracer.as_mut() {
            t.set_now(now);
        }
    }

    /// Sets the request id the next [`Engine::submit`] stamps onto its
    /// session's trace events (consumed by that one submit). Without
    /// this, events carry the engine-local session id.
    pub fn set_next_trace_id(&mut self, id: u64) {
        self.next_trace_id = Some(id);
    }

    /// Emit `kind` for `trace_id` at the current cycle clock (no-op
    /// without a tracer).
    fn trace(&self, trace_id: u64, kind: TraceEventKind) {
        if let Some(t) = &self.tracer {
            t.emit(self.batched_cycles, trace_id, kind);
        }
    }

    /// Whether `session` has finished (report available).
    pub fn is_finished(&self, session: Session) -> bool {
        self.finished.iter().any(|r| r.session == session)
    }

    /// The finished report of `session`, if any.
    pub fn report(&self, session: Session) -> Option<&SimulationReport> {
        self.finished.iter().find(|r| r.session == session).map(|r| &r.report)
    }

    /// Removes and returns the finished report of `session`.
    pub fn take_report(&mut self, session: Session) -> Option<SimulationReport> {
        let idx = self.finished.iter().position(|r| r.session == session)?;
        Some(self.finished.remove(idx).report)
    }

    /// Admits a request: validates it, reserves its KV storage
    /// ([`Request::reserve_resident_tokens`]) and enqueues the session in
    /// the [`SessionPhase::Prefilling`] phase. With the default instant
    /// prefill (`prefill_chunk = usize::MAX`) the whole prompt is
    /// additionally consumed here, synchronously and off the clock —
    /// byte-identical to the pre-chunking engine — and the session
    /// returns already `Decoding`; with a finite chunk the prompt is
    /// consumed by subsequent [`Engine::step`] ticks. Prefill observes
    /// attention scores but never evicts (Fig. 3's reserved + voting
    /// stages) on either path.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidRequest`] for an empty or
    /// out-of-vocabulary prompt and [`BuildError::InvalidBudget`] for an
    /// unusable budget.
    pub fn submit(&mut self, request: Request) -> Result<Session, BuildError> {
        if request.prompt.is_empty() {
            return Err(BuildError::InvalidRequest("prompt must be non-empty".into()));
        }
        let vocab = self.model.config().vocab_size;
        if let Some(&bad) = request.prompt.iter().find(|&&t| t >= vocab) {
            return Err(BuildError::InvalidRequest(format!(
                "prompt token {bad} outside vocabulary of {vocab}"
            )));
        }
        request.budget.validate()?;
        let resident_cap = request.budget.resolve(request.prompt.len());

        // Reserving the session's peak KV rows up front means neither
        // prefill nor steady-state decode reallocates KV storage.
        let reserve_tokens = request.reserve_resident_tokens();

        let mut session = ActiveSession {
            id: Session(self.next_id),
            policy_kind: request.policy,
            budget: request.budget,
            resident_cap,
            policies: (0..self.model.config().n_layers).map(|_| request.policy.build()).collect(),
            state: self.model.new_state(),
            // The session streams its observations to its policies: no
            // score buffer to pre-size.
            scratch: self.model.new_scratch(0),
            victims: Vec::new(),
            prompt: request.prompt,
            prefilled: 0,
            prefix_obs: None,
            seed_pin: None,
            position: 0,
            max_new_tokens: request.max_new_tokens,
            stop_tokens: request.stop_tokens,
            generated: Vec::new(),
            attention_cycles: Vec::new(),
            total_cycles: 0,
            total_energy_mj: 0.0,
            evictions: 0,
            trace_id: self.next_trace_id.take().unwrap_or(self.next_id as u64),
        };
        session.state.reserve(reserve_tokens, self.model.config().d_model);
        self.next_id += 1;
        let id = session.id;

        // Shared-prefix reuse: a token-exact match against the prefix
        // cache seeds the session's KV state from the cached rows (a
        // shared span — resident once, copy-on-evict) and replays the
        // cached observation stream into the fresh policy stack, so the
        // shared span's forward passes are skipped without changing a
        // single downstream token. Only the unshared suffix goes through
        // (instant or chunked) prefill below. Only prompts that *miss*
        // become insertion candidates: a hit prompt's shareable span is
        // already cached, and storing its private suffix too would bloat
        // the cache with rows no future prompt can match.
        let projected_entry_bytes = session.prompt.len() as u64 * self.kv_bytes_per_token();
        if let Some(cache) = self.prefix_cache.as_mut() {
            if let Some(hit) = cache.lookup(&session.prompt) {
                session.state.seed_from(hit.state, hit.matched);
                let matched = hit.matched;
                let observations = hit.observations;
                // The lookup took the entry's seed pin; the session holds
                // it until retirement so churn can never invalidate the
                // shared span it references.
                session.seed_pin = Some(hit.entry);
                replay_observations(&mut session, observations, matched);
            } else if cache.wants(&session.prompt, projected_entry_bytes) {
                session.prefix_obs = Some(Vec::with_capacity(session.prompt.len()));
            }
        }
        // A host-tier hit above promoted its entry (and may have spilled
        // colder ones to make room): surface that traffic now, stamped
        // with this session's trace id.
        self.drain_prefix_traffic(session.trace_id);

        if self.prefill_chunk == usize::MAX {
            // Instant prefill: consume the whole prompt now, off the
            // clock (the pre-chunking compatibility path), as a one-session
            // slice of one chunk — which also runs the head the first
            // decode tick reads.
            let tokens = session.prompt.len() - session.prefilled;
            let Engine { model, arch, energy, variant, scheduler, scratch, .. } = self;
            let ctx = StepContext { model, arch, energy, variant: *variant, shape: *scheduler.shape() };
            ctx.run_slice(std::slice::from_mut(&mut session), &[Plan::Prefill { tokens }], scratch);
            self.harvest_prefix(&mut session);
            if tokens > 0 {
                self.trace(
                    session.trace_id,
                    TraceEventKind::PrefillChunk { tokens: tokens as u32, remaining: 0 },
                );
            }
            if session.max_new_tokens == 0 {
                self.retire(session);
                return Ok(id);
            }
        }
        self.active.push(session);
        Ok(id)
    }

    /// Inserts a session's completed prompt into the prefix cache, if the
    /// session was recording for insertion (it missed the cache at submit
    /// — see [`Engine::submit`]). Called on the coordinator the moment
    /// prefill completes: the state holds exactly the prompt's KV rows
    /// (prefill never evicts) and the recorded observation stream covers
    /// every prompt token.
    fn harvest_prefix(&mut self, session: &mut ActiveSession) {
        debug_assert_eq!(session.prefilled, session.prompt.len());
        let Some(observations) = session.prefix_obs.take() else { return };
        let cache = self.prefix_cache.as_mut().expect("recording implies an enabled cache");
        // The entry owns its bytes outright: snapshot the state (a cold
        // session has no shared span, but clearing the marker keeps the
        // residency-root invariant unconditional).
        let mut state = self.model.new_state();
        state.seed_from(&session.state, session.prompt.len());
        state.clear_shared_marker();
        cache.insert(session.prompt.clone(), state, observations);
        // The insertion may have spilled (or dropped) cold entries to
        // make byte room: surface that traffic, attributed to the
        // inserting session.
        self.drain_prefix_traffic(session.trace_id);
    }

    /// Moves the cache's pending spill/fill transfers into the engine's
    /// outbox ([`Engine::take_prefix_transfers`]), emitting one trace
    /// event per transfer stamped with `trace_id` (the session whose
    /// submit or prefill completion triggered the churn). Runs on the
    /// coordinator only — submit, the post-fan-out drain and the clock
    /// advance are all coordinator-side.
    fn drain_prefix_traffic(&mut self, trace_id: u64) {
        let Some(cache) = self.prefix_cache.as_mut() else { return };
        let transfers = cache.take_transfers();
        if transfers.is_empty() {
            return;
        }
        for t in &transfers {
            let kind = match t.kind {
                PrefixTransferKind::Spill => TraceEventKind::PrefixSpill { bytes: t.bytes },
                PrefixTransferKind::Fill => TraceEventKind::PrefixFill { bytes: t.bytes },
            };
            self.trace(trace_id, kind);
        }
        self.prefix_transfers.extend(transfers);
    }

    /// Executes one *mixed* tick: every decoding session advances by one
    /// token and every prefilling session consumes up to
    /// [`EngineBuilder::prefill_chunk`] prompt tokens (within the shared
    /// [`EngineBuilder::tick_token_budget`]), all costed as one batch
    /// through [`DecodeScheduler::mixed_batch`] — weights stream from HBM
    /// once per tick across both phases. Returns the per-session
    /// [`TokenEvent`]s plus the tick's batched cost. A no-op returning an
    /// empty tick when nothing is active.
    ///
    /// The sessions are dealt to workers in contiguous slices; a worker
    /// runs its slice as: decode rows pick their token (greedy argmax) →
    /// one batched forward pass over every row of the slice, policies
    /// observing as the scores stream out → decode rows evict, chunks
    /// advance → one batched LM head over the sessions that decode next
    /// tick (the only logits anything reads). With
    /// [`EngineBuilder::decode_threads`] > 1 the slices fan out across a
    /// `std::thread::scope`. All shared accounting — the per-session tick
    /// plan, the mixed-batch cost and the per-length solo-cost memo — is
    /// resolved on the coordinator *before* the fan-out, so workers touch
    /// only their own sessions and the token streams are byte-identical to
    /// the serial schedule for any thread count.
    pub fn step(&mut self) -> EngineTick {
        if self.active.is_empty() {
            return EngineTick::default();
        }

        // Resolve the tick plan on the coordinator. Decode sessions
        // advance one token each and are never throttled; the remaining
        // tick token budget is dealt to prefilling sessions in session
        // order, up to `prefill_chunk` each. Per-request accounting stays
        // single-sequence so the report is identical to a lone
        // `Simulation::run` of the same request; capped sessions share a
        // handful of cache lengths in steady state, so the solo cost is
        // memoized per length across ticks.
        let decode_count = self.active.iter().filter(|s| s.is_decoding()).count();
        let mut prefill_budget = self.tick_token_budget.saturating_sub(decode_count);
        let mut decode_lens: Vec<usize> = Vec::with_capacity(decode_count);
        let mut chunks: Vec<PrefillChunk> = Vec::new();
        let mut plans: Vec<Plan> = Vec::with_capacity(self.active.len());
        for session in &self.active {
            if session.is_decoding() {
                let l = session.costed_len();
                decode_lens.push(l);
                let scheduler = &self.scheduler;
                let solo_cycles = *self
                    .solo_cycles_by_len
                    .entry(l)
                    .or_insert_with(|| scheduler.decode_token(l).total_cycles);
                plans.push(Plan::Decode { l_before: l, solo_cycles });
            } else {
                let remaining = session.prompt.len() - session.prefilled;
                let take = remaining.min(self.prefill_chunk).min(prefill_budget);
                if take == 0 {
                    plans.push(Plan::Wait);
                } else {
                    prefill_budget -= take;
                    chunks.push(PrefillChunk {
                        start_len: session.state.cache_len(),
                        tokens: take,
                        completes_prompt: take == remaining,
                    });
                    plans.push(Plan::Prefill { tokens: take });
                }
            }
        }
        debug_assert!(
            decode_count > 0 || chunks.iter().map(|c| c.tokens).sum::<usize>() > 0,
            "a non-empty tick must make progress (budget and chunk are clamped to >= 1)"
        );

        // Cost the mixed batch: weights stream once per tick across both
        // phases.
        let batch_report = self.scheduler.mixed_batch(&chunks, &decode_lens);
        let shape = *self.scheduler.shape();
        let batch_bytes = shape.weight_bytes_per_token()
            + decode_lens.iter().map(|&l| shape.kv_bytes_per_token(l)).sum::<u64>()
            + chunks.iter().map(|c| shape.prefill_kv_bytes(c.start_len, c.tokens)).sum::<u64>();
        let batch_energy_mj = self.energy.token_energy_mj(batch_report.total_cycles, batch_bytes);

        // Split field borrows instead of moving `active` out: a panic in a
        // downstream policy or model step must not vanish every in-flight
        // session (same guarantee class as `TransformerModel::forward_token`).
        let Engine { active, model, arch, energy, variant, decode_threads, scratch, worker_scratch, .. } =
            self;
        let ctx = StepContext { model, arch, energy, variant: *variant, shape };
        // Order-preserving fan-out: contiguous slices of the session list
        // balanced by planned tokens, the first on this thread and one
        // scoped worker for each of the rest; outcomes are concatenated in
        // slice order, so the tick's event order matches the serial path.
        let lens = split_by_tokens(&plans, (*decode_threads).min(active.len()).max(1));
        if worker_scratch.len() + 1 < lens.len() {
            worker_scratch.resize_with(lens.len() - 1, WorkerScratch::default);
        }
        let mut outcomes: Vec<Option<TokenEvent>> = Vec::with_capacity(active.len());
        std::thread::scope(|scope| {
            let (mut sessions, mut plans) = (active.as_mut_slice(), plans.as_slice());
            let scratches = std::iter::once(scratch).chain(worker_scratch.iter_mut());
            let mut slices = lens.iter().zip(scratches).map(|(&len, scratch)| {
                let (slice, rest) = std::mem::take(&mut sessions).split_at_mut(len);
                let (slice_plans, rest_plans) = plans.split_at(len);
                (sessions, plans) = (rest, rest_plans);
                (slice, slice_plans, scratch)
            });
            let first = slices.next();
            let ctx = &ctx;
            let handles: Vec<_> = slices
                .map(|(slice, plans, scratch)| scope.spawn(move || ctx.run_slice(slice, plans, scratch)))
                .collect();
            if let Some((slice, plans, scratch)) = first {
                outcomes.extend(ctx.run_slice(slice, plans, scratch));
            }
            for handle in handles {
                outcomes.extend(handle.join().expect("decode worker panicked"));
            }
        });

        // Charge the tick's batched cost up front so the trace events
        // emitted from the drain below carry the post-tick cycle clock
        // (nothing in the drain reads these accumulators).
        self.batched_cycles += batch_report.total_cycles;
        self.batched_energy_mj += batch_energy_mj;

        // Retire finished sessions (frees their KV state and policies). No
        // user code runs past this point, so draining here is panic-safe.
        let sessions: Vec<ActiveSession> = self.active.drain(..).collect();
        let mut events: Vec<TokenEvent> = Vec::with_capacity(sessions.len());
        let mut decode_tokens = 0;
        let mut prefill_tokens = 0;
        let mut prefill_sessions = 0;
        for (mut session, outcome) in sessions.into_iter().zip(outcomes) {
            let Some(event) = outcome else {
                self.active.push(session);
                continue;
            };
            match event {
                TokenEvent::Generated { .. } => decode_tokens += 1,
                TokenEvent::PrefillProgress { tokens, remaining, .. } => {
                    prefill_tokens += tokens;
                    prefill_sessions += 1;
                    if remaining == 0 {
                        // The chunk completed the prompt: offer it to the
                        // prefix cache (coordinator-side, so insertion
                        // order is the deterministic session order).
                        self.harvest_prefix(&mut session);
                    }
                }
            }
            if self.tracer.is_some() {
                let kind = match &event {
                    TokenEvent::Generated { evictions, cache_len, .. } => {
                        if session.generated.len() == 1 {
                            TraceEventKind::FirstToken
                        } else {
                            TraceEventKind::DecodeTick {
                                evictions: *evictions as u32,
                                cache_len: *cache_len as u32,
                            }
                        }
                    }
                    TokenEvent::PrefillProgress { tokens, remaining, .. } => {
                        TraceEventKind::PrefillChunk { tokens: *tokens as u32, remaining: *remaining as u32 }
                    }
                };
                self.trace(session.trace_id, kind);
            }
            let finished = event.finished();
            events.push(event);
            if finished {
                self.retire(session);
            } else {
                self.active.push(session);
            }
        }

        self.ticks += 1;
        self.tokens_emitted += decode_tokens;
        self.prefill_tokens += prefill_tokens;
        self.max_concurrency = self.max_concurrency.max(events.len());

        EngineTick {
            batch_size: events.len(),
            decode_tokens,
            prefill_tokens,
            prefill_sessions,
            batch_cycles: batch_report.total_cycles,
            batch_energy_mj,
            kv_bytes_resident: self.kv_bytes_active(),
            events,
        }
    }

    /// Steps until every active session finishes, then drains all finished
    /// requests and batching statistics into an [`EngineReport`].
    pub fn run_to_completion(&mut self) -> EngineReport {
        while !self.active.is_empty() {
            self.step();
        }
        self.drain_report()
    }

    /// Drains every finished request and the accumulated batching
    /// statistics into an [`EngineReport`], resetting the accumulators so
    /// the engine can serve the next wave of requests from a clean slate.
    ///
    /// # Panics
    ///
    /// Panics if sessions are still active: draining mid-flight would
    /// split one wave's batched/sequential accounting across two reports.
    /// Step the engine until [`Engine::active_sessions`] is zero (or use
    /// [`Engine::run_to_completion`]) first.
    pub fn drain_report(&mut self) -> EngineReport {
        assert!(
            self.active.is_empty() && self.paused.is_empty(),
            "drain_report with {} active session(s) and {} paused session(s): finish the wave first",
            self.active.len(),
            self.paused.len()
        );
        let requests = std::mem::take(&mut self.finished);
        let seconds = self.batched_cycles as f64 / (self.arch.clock_ghz * 1e9);
        let report = EngineReport {
            ticks: self.ticks,
            total_tokens: self.tokens_emitted,
            prefill_tokens: self.prefill_tokens,
            batched_total_cycles: self.batched_cycles,
            batched_tokens_per_second: if seconds > 0.0 { self.tokens_emitted as f64 / seconds } else { 0.0 },
            batched_energy_mj_per_token: if self.tokens_emitted == 0 {
                0.0
            } else {
                self.batched_energy_mj / self.tokens_emitted as f64
            },
            sequential_total_cycles: self.sequential_cycles,
            max_concurrency: self.max_concurrency,
            prefix: self.prefix_cache_stats(),
            requests,
        };
        self.ticks = 0;
        self.tokens_emitted = 0;
        self.prefill_tokens = 0;
        self.batched_cycles = 0;
        self.batched_energy_mj = 0.0;
        self.sequential_cycles = 0;
        self.max_concurrency = 0;
        report
    }

    /// Releases `session`'s seed pin on its prefix-cache entry, if it
    /// holds one — the session no longer references the shared span, so
    /// the entry becomes evictable/spillable/expirable again (its LRU
    /// clock is touched on release).
    fn release_seed_pin(&mut self, session: &mut ActiveSession) {
        if let Some(id) = session.seed_pin.take() {
            if let Some(cache) = self.prefix_cache.as_mut() {
                cache.unpin_entry(id);
            }
        }
    }

    /// Finalizes a session into its per-request report and frees its KV
    /// state.
    fn retire(&mut self, mut session: ActiveSession) {
        self.release_seed_pin(&mut session);
        self.trace(
            session.trace_id,
            TraceEventKind::Finished { generated_tokens: session.generated.len() as u32 },
        );
        let seconds = session.total_cycles as f64 / (self.arch.clock_ghz * 1e9);
        let report = SimulationReport {
            tokens_per_second: if seconds > 0.0 { session.generated.len() as f64 / seconds } else { 0.0 },
            energy_mj_per_token: if session.generated.is_empty() {
                0.0
            } else {
                session.total_energy_mj / session.generated.len() as f64
            },
            generated: std::mem::take(&mut session.generated),
            attention_cycles_per_token: std::mem::take(&mut session.attention_cycles),
            total_cycles: session.total_cycles,
            evictions: session.evictions,
            final_cache_len: session.state.cache_len(),
            cache_budget: session.resident_cap,
        };
        session.state.clear(); // free the KV memory eagerly
        self.sequential_cycles += session.total_cycles;
        self.finished.push(RequestOutcome {
            session: session.id,
            policy: session.policy_kind,
            budget: session.budget,
            report,
        });
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("variant", &self.variant)
            .field("decode_threads", &self.decode_threads)
            .field("prefill_chunk", &self.prefill_chunk)
            .field("prefix_cache_entries", &self.prefix_cache.as_ref().map(PrefixCache::len))
            .field("active_sessions", &self.active.len())
            .field("paused_sessions", &self.paused.len())
            .field("finished", &self.finished.len())
            .field("ticks", &self.ticks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prompt() -> Vec<usize> {
        (1..=16).collect()
    }

    fn engine() -> Engine {
        EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid config")
    }

    #[test]
    fn budget_resolution_and_validation() {
        assert_eq!(Budget::Fixed(8).resolve(100), 8);
        assert_eq!(Budget::Ratio(0.5).resolve(16), 8);
        assert_eq!(Budget::Ratio(0.01).resolve(3), 1, "ratio floors at one resident token");
        assert_eq!(Budget::Unbounded.resolve(5), usize::MAX / 2);

        assert!(Budget::Unbounded.validate().is_ok());
        assert!(Budget::Fixed(1).validate().is_ok());
        assert!(Budget::Ratio(1.0).validate().is_ok());
        assert!(matches!(Budget::Fixed(0).validate(), Err(BuildError::InvalidBudget(_))));
        assert!(matches!(Budget::Ratio(0.0).validate(), Err(BuildError::InvalidBudget(_))));
        assert!(matches!(Budget::Ratio(1.5).validate(), Err(BuildError::InvalidBudget(_))));
        assert!(matches!(Budget::Ratio(-0.5).validate(), Err(BuildError::InvalidBudget(_))));
        assert!(matches!(Budget::Ratio(f64::NAN).validate(), Err(BuildError::InvalidBudget(_))));
    }

    #[test]
    fn budget_parses_from_strings() {
        assert_eq!("unbounded".parse::<Budget>().unwrap(), Budget::Unbounded);
        assert_eq!("fixed:12".parse::<Budget>().unwrap(), Budget::Fixed(12));
        assert_eq!("12".parse::<Budget>().unwrap(), Budget::Fixed(12));
        assert_eq!("ratio:0.25".parse::<Budget>().unwrap(), Budget::Ratio(0.25));
        assert_eq!("0.25".parse::<Budget>().unwrap(), Budget::Ratio(0.25));
        assert!("ratio:2.0".parse::<Budget>().is_err());
        assert!("0".parse::<Budget>().is_err());
        assert!("banana".parse::<Budget>().is_err());
    }

    #[test]
    fn builder_rejects_bad_model() {
        let rejected =
            |bad| matches!(EngineBuilder::new().model(bad).build(), Err(BuildError::InvalidModel(_)));
        let mut bad = ModelConfig::tiny();
        bad.n_heads = 5;
        assert!(rejected(bad));
        // Both used to build and then panic inside the first `submit`.
        let mut odd_head = ModelConfig::tiny();
        (odd_head.d_model, odd_head.n_heads) = (6, 2);
        assert!(rejected(odd_head));
        let mut no_ffn = ModelConfig::tiny();
        no_ffn.ffn_hidden = 0;
        assert!(rejected(no_ffn));
        // Used to build and then fill every RoPE table with NaN.
        let mut no_theta = ModelConfig::tiny();
        no_theta.rope_theta = 0.0;
        assert!(rejected(no_theta));
    }

    #[test]
    fn submit_rejects_bad_requests() {
        let mut engine = engine();
        assert!(matches!(engine.submit(Request::new(vec![], 4)), Err(BuildError::InvalidRequest(_))));
        assert!(matches!(
            engine.submit(Request::new(vec![1, 10_000], 4)),
            Err(BuildError::InvalidRequest(_))
        ));
        assert!(matches!(
            engine.submit(Request::new(prompt(), 4).budget(Budget::Fixed(0))),
            Err(BuildError::InvalidBudget(_))
        ));
        assert_eq!(engine.active_sessions(), 0);
    }

    #[test]
    fn streaming_emits_one_event_per_session_per_tick() {
        let mut engine = engine();
        let a = engine.submit(Request::new(prompt(), 4)).unwrap();
        let b = engine.submit(Request::new(vec![2, 4, 6, 8], 6).policy(PolicyKind::H2o)).unwrap();
        assert_eq!(engine.active_sessions(), 2);

        let tick = engine.step();
        assert_eq!(tick.batch_size, 2);
        assert_eq!(tick.events.len(), 2);
        assert_eq!(tick.events[0].session(), a);
        assert_eq!(tick.events[1].session(), b);
        assert!(tick.batch_cycles > 0);
        assert!(tick.batch_energy_mj > 0.0);

        // Session a finishes after 4 ticks, b after 6.
        let mut ticks = 1;
        while engine.active_sessions() > 0 {
            engine.step();
            ticks += 1;
        }
        assert_eq!(ticks, 6);
        assert!(engine.is_finished(a) && engine.is_finished(b));
        assert_eq!(engine.report(a).unwrap().generated.len(), 4);
        assert_eq!(engine.report(b).unwrap().generated.len(), 6);
    }

    #[test]
    fn stop_tokens_end_a_session_early() {
        let mut engine = engine();
        // Find what the first generated token will be, then use it as stop.
        let probe = engine.submit(Request::new(prompt(), 1)).unwrap();
        engine.step();
        let first = engine.take_report(probe).unwrap().generated[0];

        let s = engine.submit(Request::new(prompt(), 64).stop_tokens(vec![first])).unwrap();
        engine.step();
        assert!(engine.is_finished(s), "stop token must end the session");
        let report = engine.take_report(s).unwrap();
        assert_eq!(report.generated, vec![first], "stop token is kept in the output");
    }

    #[test]
    fn finished_sessions_free_their_kv_state() {
        let mut engine = engine();
        let s = engine.submit(Request::new(prompt(), 2)).unwrap();
        engine.step();
        engine.step();
        assert_eq!(engine.active_sessions(), 0);
        assert!(engine.is_finished(s));
        // The engine's accumulators survive; the report drains them.
        let report = engine.drain_report();
        assert_eq!(report.requests.len(), 1);
        assert_eq!(report.ticks, 2);
        assert_eq!(report.total_tokens, 2);
        // Drained: a second drain is empty.
        let empty = engine.drain_report();
        assert!(empty.requests.is_empty());
        assert_eq!(empty.ticks, 0);
    }

    #[test]
    fn zero_token_request_finishes_at_submit() {
        let mut engine = engine();
        let s = engine.submit(Request::new(prompt(), 0)).unwrap();
        assert!(engine.is_finished(s));
        let report = engine.take_report(s).unwrap();
        assert!(report.generated.is_empty());
        assert_eq!(report.total_cycles, 0);
        assert_eq!(report.tokens_per_second, 0.0);
        assert_eq!(report.final_cache_len, prompt().len());
    }

    #[test]
    fn batched_tick_is_cheaper_than_solo_ticks() {
        let mut engine = engine();
        for _ in 0..4 {
            engine.submit(Request::new(prompt(), 8)).unwrap();
        }
        let report = engine.run_to_completion();
        assert_eq!(report.requests.len(), 4);
        assert_eq!(report.max_concurrency, 4);
        assert!(report.batching_speedup() > 1.0, "speedup {}", report.batching_speedup());
        assert!(report.batched_tokens_per_second > 0.0);
        assert!(report.batched_energy_mj_per_token > 0.0);
        assert_eq!(report.total_tokens, 32);
        assert_eq!(report.ticks, 8);
    }

    #[test]
    fn taking_a_report_midway_keeps_aggregates_consistent() {
        // `sequential_total_cycles` must cover every session the batched
        // accumulators cover, even when its report was taken before the
        // drain (the streaming pattern Simulation::run uses).
        let run = |take_midway: bool| {
            let mut engine = engine();
            let short = engine.submit(Request::new(prompt(), 2)).unwrap();
            engine.submit(Request::new(prompt(), 6)).unwrap();
            engine.step();
            engine.step();
            if take_midway {
                engine.take_report(short).unwrap();
            }
            engine.run_to_completion()
        };
        let full = run(false);
        let taken = run(true);
        assert_eq!(taken.sequential_total_cycles, full.sequential_total_cycles);
        assert_eq!(taken.batched_total_cycles, full.batched_total_cycles);
        assert_eq!(taken.requests.len(), 1, "taken report is no longer listed");
    }

    #[test]
    #[should_panic(expected = "active session")]
    fn draining_mid_flight_panics() {
        let mut engine = engine();
        engine.submit(Request::new(prompt(), 10)).unwrap();
        engine.step();
        engine.drain_report();
    }

    #[test]
    fn pause_and_resume_do_not_change_token_streams() {
        // Reference run: two sessions decode uninterrupted.
        let mut reference = engine();
        let ra = reference.submit(Request::new(prompt(), 8)).unwrap();
        let rb = reference.submit(Request::new(vec![3, 6, 9, 12], 8).policy(PolicyKind::H2o)).unwrap();
        let ref_report = reference.run_to_completion();
        let ref_tokens = |s: Session| {
            ref_report.requests.iter().find(|r| r.session == s).unwrap().report.generated.clone()
        };

        // Preempted run: same requests, but session a is paused for three
        // ticks in the middle.
        let mut engine = engine();
        let a = engine.submit(Request::new(prompt(), 8)).unwrap();
        let b = engine.submit(Request::new(vec![3, 6, 9, 12], 8).policy(PolicyKind::H2o)).unwrap();
        engine.step();
        engine.step();
        let bytes_out = engine.pause(a).expect("a is active");
        assert!(bytes_out > 0);
        assert!(engine.is_paused(a) && !engine.is_active(a));
        assert_eq!(engine.active_sessions(), 1);
        for _ in 0..3 {
            let tick = engine.step();
            assert_eq!(tick.batch_size, 1, "paused session must not advance");
            assert!(tick.events.iter().all(|e| e.session() == b));
        }
        let bytes_in = engine.resume(a).expect("a is paused");
        assert_eq!(bytes_out, bytes_in, "pause leaves KV state untouched");
        let report = engine.run_to_completion();
        for (session, reference_session) in [(a, ra), (b, rb)] {
            let got = &report.requests.iter().find(|r| r.session == session).unwrap().report.generated;
            assert_eq!(got, &ref_tokens(reference_session), "preemption changed a token stream");
        }
    }

    #[test]
    fn pause_and_resume_reject_unknown_sessions() {
        let mut engine = engine();
        let s = engine.submit(Request::new(prompt(), 2)).unwrap();
        assert!(engine.pause(Session(99)).is_none());
        assert!(engine.resume(s).is_none(), "active session is not paused");
        engine.pause(s).unwrap();
        assert!(engine.pause(s).is_none(), "paused session is not active");
        engine.resume(s).unwrap();
        engine.run_to_completion();
    }

    #[test]
    fn discard_frees_kv_and_forgets_the_session() {
        let mut engine = engine();
        let a = engine.submit(Request::new(prompt(), 8)).unwrap();
        let b = engine.submit(Request::new(vec![3, 6, 9, 12], 8)).unwrap();
        engine.step();
        let before = engine.kv_bytes_active();

        // Discarding an active session frees its resident bytes and drops
        // it from the batch without a finished report.
        let freed = engine.discard(a).expect("a is in flight");
        assert!(freed > 0);
        assert_eq!(engine.kv_bytes_active(), before - freed);
        assert!(!engine.is_active(a) && !engine.is_paused(a));
        assert_eq!(engine.active_sessions(), 1);

        // Discarding a paused session works the same way.
        engine.pause(b).unwrap();
        assert!(engine.discard(b).is_some());
        assert_eq!(engine.kv_bytes_active(), 0);

        // Unknown or already-discarded sessions are refused.
        assert!(engine.discard(a).is_none());
        assert!(engine.discard(Session(99)).is_none());

        // Neither session ever reaches the report.
        let report = engine.run_to_completion();
        assert!(report.requests.is_empty(), "discarded sessions never finish");
    }

    #[test]
    fn kv_byte_accounting_tracks_sessions() {
        let mut engine = engine();
        assert_eq!(engine.kv_bytes_active(), 0);
        let per_token = engine.kv_bytes_per_token();
        assert!(per_token > 0);

        let s = engine.submit(Request::new(prompt(), 4).budget(Budget::Unbounded)).unwrap();
        // After prefill every layer holds exactly the prompt.
        assert_eq!(engine.kv_bytes_active(), prompt().len() as u64 * per_token);
        assert_eq!(engine.session_kv_bytes(s), Some(prompt().len() as u64 * per_token));

        let tick = engine.step();
        assert_eq!(tick.kv_bytes_resident, (prompt().len() as u64 + 1) * per_token);

        // Paused sessions leave the active pool but stay queryable.
        engine.pause(s).unwrap();
        assert_eq!(engine.kv_bytes_active(), 0);
        assert!(engine.session_kv_bytes(s).is_some());
        engine.resume(s).unwrap();
        engine.run_to_completion();
        assert_eq!(engine.kv_bytes_active(), 0, "finished sessions free their KV state");
        assert!(engine.session_kv_bytes(s).is_none());
    }

    #[test]
    fn tighten_budget_shrinks_resident_cap() {
        let mut engine = engine();
        // Sliding-window can always name a victim beyond its sink, so the
        // shrunk cap is actually reached.
        let request = Request::new(prompt(), 8).policy(PolicyKind::SlidingWindow).budget(Budget::Unbounded);
        let s = engine.submit(request).unwrap();
        assert_eq!(engine.session_remaining_tokens(s), Some(8));
        engine.step();
        assert_eq!(engine.session_remaining_tokens(s), Some(7));

        assert_eq!(engine.tighten_budget(s, 6), Some(6));
        assert_eq!(engine.tighten_budget(s, 10), Some(6), "tighten never raises the cap");
        assert_eq!(engine.tighten_budget(Session(99), 4), None);

        let tick = engine.step();
        let TokenEvent::Generated { evictions, cache_len, .. } = tick.events[0] else {
            panic!("decoding session must emit a generated token");
        };
        assert!(evictions > 0, "next tick evicts down to the new cap");
        assert_eq!(cache_len, 6);
        assert_eq!(engine.tighten_budget(s, 0), Some(1), "cap floors at one resident token");
        engine.run_to_completion();
    }

    #[test]
    #[should_panic(expected = "paused session")]
    fn draining_with_paused_sessions_panics() {
        let mut engine = engine();
        let s = engine.submit(Request::new(prompt(), 10)).unwrap();
        engine.step();
        engine.pause(s).unwrap();
        engine.drain_report();
    }

    #[test]
    fn decode_threads_do_not_change_tokens_or_reports() {
        let run = |threads: usize| {
            let mut engine = EngineBuilder::new()
                .model(ModelConfig::tiny())
                .decode_threads(threads)
                .build()
                .expect("valid config");
            for (i, policy) in PolicyKind::ALL.iter().enumerate() {
                let prompt: Vec<usize> = (0..12 + i).map(|j| (j * 5 + i) % 60 + 1).collect();
                engine
                    .submit(Request::new(prompt, 6 + i).policy(*policy).budget(Budget::Ratio(0.5)))
                    .unwrap();
            }
            engine.run_to_completion()
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), serial, "decode_threads({threads}) diverged from serial");
        }
    }

    #[test]
    fn worker_slices_balance_planned_tokens_not_session_counts() {
        let decode = Plan::Decode { l_before: 1, solo_cycles: 1 };
        let chunk = Plan::Prefill { tokens: 32 };
        // Two chunks ahead of eight decode rows: an even split would give
        // one worker both chunks.
        let mut plans = vec![chunk, chunk];
        plans.extend([decode; 8]);
        assert_eq!(split_by_tokens(&plans, 2), [1, 9]);
        // A chunk behind the decode rows is cut off from them, not merged.
        assert_eq!(split_by_tokens(&[decode, decode, decode, decode, chunk], 2), [4, 1]);
        // Equal work splits evenly; starved sessions cost nothing.
        assert_eq!(split_by_tokens(&[decode; 6], 3), [2, 2, 2]);
        assert_eq!(split_by_tokens(&[Plan::Wait, decode, Plan::Wait, decode], 2), [2, 2]);
        // Never more slices than workers or sessions, never an empty one,
        // every session in exactly one.
        for workers in 1..6 {
            for n in 1..plans.len() {
                let lens = split_by_tokens(&plans[..n], workers);
                assert!(lens.len() <= workers.min(n) && lens.iter().all(|&len| len > 0), "{lens:?}");
                assert_eq!(lens.iter().sum::<usize>(), n);
            }
        }
        assert_eq!(split_by_tokens(&[Plan::Wait, Plan::Wait], 2), [2]);
    }

    #[test]
    fn decode_threads_clamp_to_at_least_one() {
        let engine = EngineBuilder::new().decode_threads(0).build().unwrap();
        assert_eq!(engine.decode_threads(), 1);
    }

    fn chunked_engine(chunk: usize) -> Engine {
        EngineBuilder::new().model(ModelConfig::tiny()).prefill_chunk(chunk).build().expect("valid config")
    }

    #[test]
    fn chunked_prefill_consumes_prompt_on_the_clock() {
        let mut engine = chunked_engine(4);
        let s = engine.submit(Request::new((1..=10).collect::<Vec<_>>(), 3)).unwrap();
        assert_eq!(engine.session_phase(s), Some(SessionPhase::Prefilling));
        assert_eq!(engine.kv_bytes_active(), 0, "submit reserves but does not prefill");
        assert!(engine.is_active(s), "prefilling sessions live in the active set");

        // 10 prompt tokens at chunk 4: three prefill ticks (4 + 4 + 2).
        for (tick_no, (expect_tokens, expect_remaining)) in [(4, 6), (4, 2), (2, 0)].iter().enumerate() {
            let tick = engine.step();
            assert_eq!(tick.batch_size, 1);
            assert_eq!(tick.prefill_tokens, *expect_tokens, "tick {tick_no}");
            assert_eq!(tick.prefill_sessions, 1);
            assert_eq!(tick.decode_tokens, 0);
            assert!(tick.batch_cycles > 0, "prefill ticks are costed");
            assert!(tick.batch_energy_mj > 0.0);
            let TokenEvent::PrefillProgress { session, tokens, remaining, cache_len, finished } =
                tick.events[0]
            else {
                panic!("prefilling session must emit PrefillProgress");
            };
            assert_eq!(session, s);
            assert_eq!(tokens, *expect_tokens);
            assert_eq!(remaining, *expect_remaining);
            assert_eq!(cache_len, 10 - expect_remaining, "prefill never evicts");
            assert!(!finished, "a request with max_new_tokens > 0 survives prefill");
        }
        assert_eq!(engine.session_phase(s), Some(SessionPhase::Decoding));

        // Decode: one generated token per tick, as ever.
        let tick = engine.step();
        assert_eq!((tick.decode_tokens, tick.prefill_tokens), (1, 0));
        assert!(matches!(tick.events[0], TokenEvent::Generated { .. }));
        while engine.is_active(s) {
            engine.step();
        }
        assert_eq!(engine.session_phase(s), Some(SessionPhase::Finished));
    }

    #[test]
    fn chunked_prefill_matches_instant_prefill_exactly() {
        // The compatibility invariant: the chunk size changes only *when*
        // prompt work lands on the clock, never which tokens a request
        // generates, what it evicts, or its decode-side report.
        for policy in PolicyKind::ALL {
            let request = || {
                let prompt: Vec<usize> = (0..23).map(|j| (j * 7 + 3) % 60 + 1).collect();
                Request::new(prompt, 8).policy(policy).budget(Budget::Ratio(0.5))
            };
            let mut instant = engine();
            let si = instant.submit(request()).unwrap();
            while instant.is_active(si) {
                instant.step();
            }
            let reference = instant.take_report(si).unwrap();

            for chunk in [1, 3, 8, 64] {
                let mut chunked = chunked_engine(chunk);
                let sc = chunked.submit(request()).unwrap();
                while chunked.is_active(sc) {
                    chunked.step();
                }
                assert_eq!(
                    chunked.take_report(sc).unwrap(),
                    reference,
                    "{policy}/chunk {chunk}: chunked prefill changed the request's outcome"
                );
                let report = chunked.drain_report();
                assert_eq!(
                    report.prefill_tokens, 23,
                    "{policy}/chunk {chunk}: the whole prompt lands on the clock"
                );
            }
        }
    }

    #[test]
    fn chunked_prefill_is_identical_across_decode_threads() {
        let run = |threads: usize| {
            let mut engine = EngineBuilder::new()
                .model(ModelConfig::tiny())
                .decode_threads(threads)
                .prefill_chunk(3)
                .build()
                .expect("valid config");
            for (i, policy) in PolicyKind::ALL.iter().enumerate() {
                let prompt: Vec<usize> = (0..12 + i).map(|j| (j * 5 + i) % 60 + 1).collect();
                engine
                    .submit(Request::new(prompt, 6 + i).policy(*policy).budget(Budget::Ratio(0.5)))
                    .unwrap();
            }
            engine.run_to_completion()
        };
        let serial = run(1);
        assert!(serial.prefill_tokens > 0);
        for threads in [2, 8] {
            assert_eq!(run(threads), serial, "decode_threads({threads}) diverged under chunked prefill");
        }
    }

    #[test]
    fn tick_token_budget_throttles_prefill_but_never_decode() {
        let mut engine = EngineBuilder::new()
            .model(ModelConfig::tiny())
            .prefill_chunk(8)
            .tick_token_budget(2)
            .build()
            .expect("valid config");
        let a = engine.submit(Request::new(vec![1; 8], 12)).unwrap();
        let b = engine.submit(Request::new(vec![2; 8], 12)).unwrap();

        // Budget 2, chunk 8: the first prefilling session takes the whole
        // budget; the second waits (no event).
        let tick = engine.step();
        assert_eq!(tick.prefill_tokens, 2);
        assert_eq!(tick.batch_size, 1, "the starved session emits no event");
        assert_eq!(tick.events[0].session(), a);

        // Prefill keeps making progress under the budget until both
        // sessions decode.
        while engine.session_phase(a) == Some(SessionPhase::Prefilling)
            || engine.session_phase(b) == Some(SessionPhase::Prefilling)
        {
            let tick = engine.step();
            assert!(tick.prefill_tokens + tick.decode_tokens <= 2, "tick budget respected");
            assert!(tick.batch_size > 0, "every tick makes progress");
        }

        // Both decoding with a budget of 2: decode is never throttled, so
        // both sessions advance every tick.
        let tick = engine.step();
        assert_eq!(tick.decode_tokens, 2);
        while engine.active_sessions() > 0 {
            engine.step();
        }
        assert!(engine.is_finished(a) && engine.is_finished(b));
    }

    #[test]
    fn zero_token_request_retires_at_end_of_chunked_prefill() {
        let mut engine = chunked_engine(2);
        let s = engine.submit(Request::new(vec![1, 2, 3, 4, 5], 0)).unwrap();
        assert!(engine.is_active(s), "chunked zero-token requests still prefill on the clock");
        let mut last = EngineTick::default();
        while engine.is_active(s) {
            last = engine.step();
        }
        assert!(
            matches!(last.events[0], TokenEvent::PrefillProgress { remaining: 0, finished: true, .. }),
            "the completing chunk retires a zero-token request"
        );
        let report = engine.take_report(s).unwrap();
        assert!(report.generated.is_empty());
        assert_eq!(report.final_cache_len, 5);
    }

    #[test]
    fn prefill_chunk_and_tick_budget_clamp_to_at_least_one() {
        let engine = EngineBuilder::new().prefill_chunk(0).tick_token_budget(0).build().unwrap();
        assert_eq!(engine.prefill_chunk(), 1);
        assert_eq!(engine.tick_token_budget(), 1);
    }

    #[test]
    fn reserve_math_lives_on_request() {
        let request = Request::new(vec![1; 10], 6).budget(Budget::Unbounded);
        assert_eq!(request.peak_resident_tokens(), 16);
        assert_eq!(request.reserve_resident_tokens(), 17, "unbounded: peak + overshoot slot");
        let capped = Request::new(vec![1; 10], 6).budget(Budget::Fixed(4));
        assert_eq!(capped.peak_resident_tokens(), 16, "the peak bound ignores the budget");
        assert_eq!(capped.reserve_resident_tokens(), 12, "reserve clips to the prompt + slack");
    }

    #[test]
    fn never_evicts_requires_cap_at_or_above_peak() {
        assert!(Request::new(vec![1; 10], 6).budget(Budget::Unbounded).never_evicts());
        assert!(Request::new(vec![1; 10], 6).budget(Budget::Fixed(16)).never_evicts());
        assert!(!Request::new(vec![1; 10], 6).budget(Budget::Fixed(15)).never_evicts());
        assert!(!Request::new(vec![1; 10], 6).budget(Budget::Ratio(0.5)).never_evicts());
        assert!(Request::new(vec![1; 10], 0).budget(Budget::Ratio(1.0)).never_evicts());
    }

    #[test]
    fn session_phase_tracks_paused_and_unknown_sessions() {
        let mut engine = chunked_engine(4);
        let s = engine.submit(Request::new(prompt(), 2)).unwrap();
        assert_eq!(engine.session_phase(Session(99)), None);
        engine.pause(s).unwrap();
        assert_eq!(engine.session_phase(s), Some(SessionPhase::Prefilling), "paused sessions keep phase");
        engine.resume(s).unwrap();
        while engine.is_active(s) {
            engine.step();
        }
        assert_eq!(engine.session_phase(s), Some(SessionPhase::Finished));
        engine.take_report(s).unwrap();
        assert_eq!(engine.session_phase(s), None, "taken reports forget the session");
    }

    fn prefix_engine(chunk: usize) -> Engine {
        let mut builder = EngineBuilder::new().model(ModelConfig::tiny()).prefix_cache(PrefixCacheConfig {
            min_match_tokens: 4,
            max_entries: 8,
            ..PrefixCacheConfig::default()
        });
        if chunk > 0 {
            builder = builder.prefill_chunk(chunk);
        }
        builder.build().expect("valid config")
    }

    /// A prompt of `suffix` appended to a fixed 10-token shared prefix.
    fn shared_prompt(suffix: &[usize]) -> Vec<usize> {
        let mut prompt: Vec<usize> = (1..=10).collect();
        prompt.extend_from_slice(suffix);
        prompt
    }

    #[test]
    fn prefix_cache_disabled_engine_reports_zero_stats() {
        let mut engine = engine();
        assert!(!engine.prefix_cache_enabled());
        assert_eq!(engine.prefix_match_len(&prompt()), 0);
        engine.submit(Request::new(prompt(), 2)).unwrap();
        let report = engine.run_to_completion();
        assert_eq!(report.prefix, crate::prefix::PrefixCacheStats::default());
        assert_eq!(engine.prefix_cache_bytes(), 0);
    }

    #[test]
    fn prefix_hit_seeds_shared_rows_and_skips_prefill() {
        let mut engine = prefix_engine(0);
        let per_token = engine.kv_bytes_per_token();

        // Cold submit: full prefill, prompt inserted as an entry.
        let a = engine.submit(Request::new(shared_prompt(&[40, 41]), 3)).unwrap();
        let stats = engine.prefix_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (0, 1, 1));
        assert_eq!(engine.prefix_cache_bytes(), 12 * per_token);
        assert_eq!(engine.session_kv_bytes(a), Some(12 * per_token), "cold session owns its rows");

        // Warm submit: the 10-token shared prefix is served from the
        // cache (the suffixes diverge at token 11); only the unshared
        // rows are privately owned.
        let b = engine.submit(Request::new(shared_prompt(&[50, 51]), 3)).unwrap();
        let stats = engine.prefix_cache_stats();
        assert_eq!((stats.hits, stats.shared_tokens), (1, 10));
        assert_eq!(engine.session_kv_bytes(b), Some(2 * per_token), "shared span is not owned");
        assert_eq!(
            engine.kv_bytes_active(),
            12 * per_token + 2 * per_token,
            "active bytes count each session's owned rows only"
        );

        engine.run_to_completion();
        assert_eq!(
            engine.prefix_cache_bytes(),
            12 * per_token,
            "only the cold prompt is inserted — hit prompts add no entry"
        );
    }

    #[test]
    fn layer_major_recording_equals_the_per_token_recording() {
        // A cold prompt's observation stream is assembled layer by layer
        // while its rows run the layers together — instantly at submit
        // (40 rows: across the forward pass's internal block), one row per
        // tick, in chunks that leave a remainder, and in one chunk beside a
        // decode row. Whatever the grouping, the cached entry must hold
        // what a forward pass per token would have cloned.
        let prompt: Vec<usize> = (0..40).map(|i| (i * 7 + 3) % 60 + 1).collect();
        let model = TransformerModel::new(ModelConfig::tiny());
        let (mut state, mut scratch) = (model.new_state(), model.new_scratch(prompt.len()));
        let per_token: Vec<ScoreBuffer> = prompt
            .iter()
            .enumerate()
            .map(|(position, &token)| {
                model.forward_with_scratch(&mut state, token, position, &mut scratch);
                scratch.scores().clone()
            })
            .collect();
        for chunk in [0, 1, 7, 64] {
            let mut engine = prefix_engine(chunk);
            engine.submit(Request::new([5, 6, 7], 50)).unwrap();
            engine.submit(Request::new(prompt.clone(), 2)).unwrap();
            engine.run_to_completion();
            let cache = engine.prefix_cache.as_mut().expect("enabled");
            let probe: Vec<usize> = prompt.iter().copied().chain([1]).collect();
            let hit = cache.lookup(&probe).expect("the prompt was inserted");
            assert_eq!(hit.matched, prompt.len());
            assert_eq!(hit.observations, per_token, "chunk {chunk}");
        }
    }

    #[test]
    fn prefix_match_len_estimates_submit_sharing() {
        let mut engine = prefix_engine(0);
        assert_eq!(engine.prefix_match_len(&shared_prompt(&[40])), 0, "cold cache shares nothing");
        engine.submit(Request::new(shared_prompt(&[40, 41]), 1)).unwrap();
        assert_eq!(engine.prefix_match_len(&shared_prompt(&[50])), 10);
        assert_eq!(engine.prefix_match_len(&shared_prompt(&[40, 41])), 11, "cap is one below the prompt");
        assert_eq!(engine.prefix_match_len(&[1, 2, 9]), 0, "below minimum is a miss");
    }

    #[test]
    fn prefix_hits_do_not_change_token_streams_or_reports() {
        // The tentpole invariant at unit scope (the property test sweeps
        // policies × chunks × threads): a hit run's per-request reports
        // equal a cold engine's for the same requests.
        let requests = || {
            vec![
                Request::new(shared_prompt(&[40, 41]), 6).policy(PolicyKind::Voting),
                Request::new(shared_prompt(&[50, 51, 52]), 5).policy(PolicyKind::H2o),
                Request::new(shared_prompt(&[60]), 4).policy(PolicyKind::SlidingWindow),
            ]
        };
        let mut cold = engine();
        let mut warm = prefix_engine(0);
        let cold_sessions: Vec<Session> = requests().into_iter().map(|r| cold.submit(r).unwrap()).collect();
        let warm_sessions: Vec<Session> = requests().into_iter().map(|r| warm.submit(r).unwrap()).collect();
        assert!(warm.prefix_cache_stats().hits >= 2, "later submits must hit the shared prefix");
        let cold_report = cold.run_to_completion();
        let warm_report = warm.run_to_completion();
        for (c, w) in cold_sessions.iter().zip(&warm_sessions) {
            let find = |report: &EngineReport, s: Session| {
                report.requests.iter().find(|r| r.session == s).unwrap().report.clone()
            };
            assert_eq!(find(&warm_report, *w), find(&cold_report, *c), "prefix sharing changed a report");
        }
    }

    #[test]
    fn chunked_prefill_charges_only_the_unshared_suffix() {
        // Chunk 4 over a 12-token prompt: cold needs ceil(12/4) = 3
        // prefill ticks and 12 on-clock tokens; a 10-token hit leaves a
        // 2-token suffix = 1 tick, and the tick's chunk starts at the
        // shared length so attention still covers the full resident span.
        let mut engine = prefix_engine(4);
        let a = engine.submit(Request::new(shared_prompt(&[40, 41]), 2)).unwrap();
        let mut prefill_ticks = 0;
        while engine.session_phase(a) == Some(SessionPhase::Prefilling) {
            let tick = engine.step();
            prefill_ticks += tick.prefill_sessions;
        }
        assert_eq!(prefill_ticks, 3);
        while engine.is_active(a) {
            engine.step();
        }

        let b = engine.submit(Request::new(shared_prompt(&[50, 51]), 2)).unwrap();
        assert_eq!(engine.prefix_cache_stats().hits, 1);
        let tick = engine.step();
        let TokenEvent::PrefillProgress { tokens, remaining, cache_len, .. } = tick.events[0] else {
            panic!("hit session still prefills its suffix");
        };
        assert_eq!((tokens, remaining), (2, 0), "one chunk covers the whole unshared suffix");
        assert_eq!(cache_len, 12, "the resident cache spans shared + suffix rows");
        while engine.is_active(b) {
            engine.step();
        }
        let report = engine.drain_report();
        assert_eq!(report.prefill_tokens, 12 + 2, "only unshared tokens land on the clock");
        assert_eq!(report.prefix.shared_tokens, 10);
    }

    #[test]
    fn prefix_insertions_are_miss_only_deduped_and_capped() {
        let mut engine = EngineBuilder::new()
            .model(ModelConfig::tiny())
            .prefix_cache(PrefixCacheConfig {
                min_match_tokens: 4,
                max_entries: 2,
                ..PrefixCacheConfig::default()
            })
            .build()
            .unwrap();
        // Three distinct prefix groups; the second prompt of group 0 hits
        // and therefore inserts nothing.
        let group = |g: usize, suffix: usize| -> Vec<usize> {
            let mut prompt: Vec<usize> = (1..=10).map(|t| t + g * 10).collect();
            prompt.push(suffix);
            prompt
        };
        for (g, suffix) in [(0, 40), (0, 50), (1, 40), (2, 40)] {
            engine.submit(Request::new(group(g, suffix), 1)).unwrap();
        }
        let stats = engine.prefix_cache_stats();
        assert_eq!(stats.hits, 1, "the repeated group-0 prompt hits");
        assert_eq!(stats.entries, 2, "capacity bounds the entry count (group 2 arrived full)");
        assert_eq!(stats.insertions, 2, "hit and overflow prompts are not inserted");
        engine.run_to_completion();
    }

    #[test]
    fn report_display_mentions_prefix_cache_only_when_used() {
        let mut plain = engine();
        plain.submit(Request::new(prompt(), 2)).unwrap();
        assert!(!plain.run_to_completion().to_string().contains("prefix cache"));

        let mut warm = prefix_engine(0);
        warm.submit(Request::new(shared_prompt(&[40, 41]), 2)).unwrap();
        warm.submit(Request::new(shared_prompt(&[50, 51]), 2)).unwrap();
        let text = warm.run_to_completion().to_string();
        assert!(text.contains("prefix cache"), "{text}");
        assert!(text.contains("1 hits / 2 lookups"), "{text}");
    }

    #[test]
    fn report_display_lists_requests() {
        let mut engine = engine();
        engine.submit(Request::new(prompt(), 3).policy(PolicyKind::SlidingWindow)).unwrap();
        let report = engine.run_to_completion();
        let text = report.to_string();
        assert!(text.contains("sliding_window"), "{text}");
        assert!(text.contains("batching speedup"), "{text}");
    }

    #[test]
    fn migrated_session_continues_its_token_stream() {
        let request = || Request::new(prompt(), 8).policy(PolicyKind::Voting).budget(Budget::Ratio(0.5));

        let mut reference = engine();
        let r = reference.submit(request()).unwrap();
        let report = reference.run_to_completion();
        let expected = report.requests.iter().find(|o| o.session == r).unwrap().report.generated.clone();

        let mut source = engine();
        let s = source.submit(request()).unwrap();
        for _ in 0..3 {
            source.step();
        }
        source.pause(s).unwrap();
        let migrated = source.extract(s).expect("paused sessions are extractable");
        assert!(migrated.kv_bytes() > 0);
        assert_eq!(migrated.generated_tokens(), 3);
        assert_eq!(source.active_sessions() + source.paused_sessions(), 0, "extraction empties the source");

        let mut target = engine();
        // Occupy an id on the target first, so adoption visibly re-ids.
        let occupant = target.submit(Request::new(prompt(), 1)).unwrap();
        let adopted = target.adopt(migrated).expect("identical geometry");
        assert_ne!(adopted, occupant, "adopted sessions get a fresh target-engine id");
        assert!(target.is_paused(adopted), "adoption lands in the paused set");
        target.resume(adopted).unwrap();
        let report = target.run_to_completion();
        let migrated_tokens =
            &report.requests.iter().find(|o| o.session == adopted).unwrap().report.generated;
        assert_eq!(*migrated_tokens, expected, "migration never changes the token stream");
    }

    #[test]
    fn extract_requires_a_paused_session_and_adopt_checks_geometry() {
        let mut source = engine();
        let s = source.submit(Request::new(prompt(), 4)).unwrap();
        assert!(source.extract(s).is_none(), "active sessions cannot be extracted mid-batch");
        source.pause(s).unwrap();
        let migrated = source.extract(s).unwrap();

        let mut other_model = ModelConfig::tiny();
        other_model.d_model *= 2;
        other_model.ffn_hidden *= 2;
        let mut mismatched = EngineBuilder::new().model(other_model).build().unwrap();
        assert!(matches!(mismatched.adopt(migrated), Err(BuildError::InvalidRequest(_))));
    }

    #[test]
    fn extract_privatizes_shared_prefix_spans() {
        let mut source = prefix_engine(0);
        // First prompt inserts the shared prefix; the second hits it and
        // holds the span as shared (accounting-only) bytes.
        let warm = source.submit(Request::new(shared_prompt(&[21, 22, 23, 24]), 2)).unwrap();
        while source.is_active(warm) {
            source.step();
        }
        let s = source.submit(Request::new(shared_prompt(&[31, 32, 33, 34]), 6)).unwrap();
        source.step();
        source.pause(s).unwrap();
        let owned = source.session_kv_bytes(s).unwrap();
        let migrated = source.extract(s).unwrap();
        assert!(
            migrated.kv_bytes() > owned,
            "extraction privatizes the shared span: payload {} must exceed owned {}",
            migrated.kv_bytes(),
            owned
        );

        // The privatized payload decodes to the same stream a fresh target
        // produces for the uninterrupted request.
        let mut target = prefix_engine(0);
        let adopted = target.adopt(migrated).unwrap();
        target.resume(adopted).unwrap();
        let report = target.run_to_completion();
        let migrated_tokens =
            report.requests.iter().find(|o| o.session == adopted).unwrap().report.generated.clone();

        let mut reference = prefix_engine(0);
        let w = reference.submit(Request::new(shared_prompt(&[21, 22, 23, 24]), 2)).unwrap();
        while reference.is_active(w) {
            reference.step();
        }
        let r = reference.submit(Request::new(shared_prompt(&[31, 32, 33, 34]), 6)).unwrap();
        let report = reference.run_to_completion();
        let expected = report.requests.iter().find(|o| o.session == r).unwrap().report.generated.clone();
        assert_eq!(migrated_tokens, expected);
    }
}
