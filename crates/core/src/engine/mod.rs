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
//! (`Request::reserve_resident_tokens`) and enqueues it in the
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
//! ([`TransformerModel::forward_batch`](veda_model::TransformerModel::forward_batch)):
//! every decode row and every row of every chunk goes through the
//! layers together, so the host streams
//! the layer weights once per worker per tick — what
//! `DecodeScheduler::mixed_batch` charges the accelerator — and each
//! session's policies observe its rows' attention scores as they stream
//! out. The pass is the forward *without* the LM head; each worker ends
//! its slice with one batched head over the sessions whose logits the
//! next tick reads, so logits are computed where `mixed_batch` charges
//! `lm_rows` and nowhere else. All of it runs through per-worker buffers
//! that are reused tick after tick.
//!
//! **A tick is three phases.** [`Engine::step`] is the composition of
//! [`Engine::plan_step`] (on the calling thread: the tick plan, the batch
//! cost and every other shared decision), [`StepWork::compute`] (the
//! fan-out above, over sessions and buffers the work owns; it emits
//! nothing) and [`Engine::commit_step`] (on the calling thread again:
//! prefix harvest, trace emission, retirement and counters). A
//! [`StepWork`] is `Send`, so a caller stepping several engines — a
//! serving cluster — computes each on a thread of its choosing and
//! commits the engines in a fixed order, byte-identical to stepping them
//! one after another.
//!
//! Per-request accounting stays single-sequence and decode-only: each
//! finished session yields the exact [`RequestReport`] the same request
//! would produce alone on a fresh engine — the determinism invariant the
//! integration tests pin down. Batch-level throughput, energy and
//! on-clock prefill tokens are aggregated separately into an
//! [`EngineReport`].
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
//! left off, because each session decodes greedily from its own logits.
//! A session's resident cap is fixed when it is submitted.
//!
//! The module splits along those phases: `request` (what a caller
//! submits and gets back per tick), `builder`, `step` (plan, compute,
//! commit), `migrate` (extract / adopt), `report`, and this file — the
//! [`Engine`] itself, its per-session state, submit, the session
//! lifecycle and the prefix-cache glue.

use std::collections::BTreeMap;
use std::sync::Arc;

use veda_accel::arch::{ArchConfig, DataflowVariant};
use veda_accel::schedule::DecodeScheduler;
use veda_cost::EnergyModel;
use veda_eviction::{EvictionPolicy, PolicyKind};
use veda_model::{ForwardScratch, ModelConfig, ScoreBuffer, SequenceState};
use veda_telemetry::{TraceEventKind, Tracer};

use crate::error::BuildError;
use crate::prefix::{PrefixCache, PrefixPin, PrefixTransfer, PrefixTransferKind};

mod builder;
mod migrate;
mod report;
mod request;
mod step;
mod tests;

pub use builder::EngineBuilder;
pub use migrate::MigratedSession;
pub use report::{EngineReport, EngineTick, RequestOutcome, RequestReport};
pub use request::{Budget, Request, Session, SessionPhase, TokenEvent};
pub use step::StepWork;
use step::{Plan, SoloCost, StepContext, WorkerScratch};

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

    /// The cache length the cycle model charges for the next decode step.
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

/// The long-lived serving engine (see the [module docs](self)).
pub struct Engine {
    /// The model and attention cycle model, shared with the tick's
    /// [`StepWork`].
    ctx: Arc<StepContext>,
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
    solo_cost_by_len: BTreeMap<usize, SoloCost>,
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
        &self.ctx.arch
    }

    /// The dataflow variant.
    pub fn variant(&self) -> DataflowVariant {
        self.ctx.variant
    }

    /// The shared model configuration.
    pub fn model_config(&self) -> &ModelConfig {
        self.ctx.model.config()
    }

    /// Decode worker threads per tick (see
    /// [`EngineBuilder::decode_threads`]).
    pub fn decode_threads(&self) -> usize {
        self.decode_threads
    }

    /// The lifecycle phase of `session`: `Prefilling`/`Decoding` for
    /// in-flight sessions (active or paused), `Finished` once its report
    /// is available, `None` for unknown sessions (or after the report was
    /// taken).
    pub fn session_phase(&self, session: Session) -> Option<SessionPhase> {
        if let Some(s) = self.active.iter().chain(&self.paused).find(|s| s.id == session) {
            Some(if s.is_decoding() { SessionPhase::Decoding } else { SessionPhase::Prefilling })
        } else if self.finished.iter().any(|r| r.session == session) {
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

    /// KV bytes (FP16) resident in device memory across all *active*
    /// sessions. Paused sessions are excluded: the serving layer that
    /// paused them decides whether their KV state stays resident or is
    /// swapped to the host. Shared prefix spans are also excluded — those
    /// bytes are resident **once**, inside their prefix-cache entry
    /// ([`PrefixCache::resident_bytes`]), no matter how many sessions
    /// reference them.
    pub fn kv_bytes_active(&self) -> u64 {
        self.active.iter().map(|s| s.state.fp16_bytes() as u64).sum()
    }

    /// KV bytes (FP16) of one in-flight session, active or paused.
    pub fn session_kv_bytes(&self, session: Session) -> Option<u64> {
        self.active.iter().chain(&self.paused).find(|s| s.id == session).map(|s| s.state.fp16_bytes() as u64)
    }

    /// Tokens `session` may still generate before hitting its limit
    /// (ignores stop tokens, which can end it earlier). The priority
    /// scheduler breaks ties between preemption victims on it.
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
        let cfg = self.ctx.model.config();
        // K and V rows of d_model FP16 values per layer.
        (cfg.n_layers as u64) * 2 * (cfg.d_model as u64) * 2
    }

    /// The shared-prefix KV cache, read-only (`None` when disabled, see
    /// [`EngineBuilder::prefix_cache`]): its counters
    /// ([`PrefixCache::stats`]), the bytes its entries keep resident in
    /// HBM ([`PrefixCache::resident_bytes`]) — counted **once**, however
    /// many sessions reference them, and not in
    /// [`Engine::kv_bytes_active`] — and a prompt's host-tier fill cost
    /// ([`PrefixCache::fill_bytes`]). Everything that changes the cache
    /// goes through the engine, which traces it.
    pub fn prefix_cache(&self) -> Option<&PrefixCache> {
        self.prefix_cache.as_ref()
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

    /// Advances the prefix cache's TTL clock to `now` (ticks, monotone —
    /// stale values are ignored) and expires idle unpinned entries on
    /// both tiers. Each expiry is traced as
    /// [`TraceEventKind::PrefixExpired`] with the cache entry id in the
    /// event's request field. No-op when the cache is disabled or
    /// [`PrefixCacheConfig::ttl_ticks`](crate::PrefixCacheConfig::ttl_ticks) is `u64::MAX`.
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

    /// Reclaims idle prefix-cache bytes for a serving layer that cannot
    /// fit work otherwise, one step per call: a trim of the LRU unpinned
    /// entry's never-served tail, else the LRU unpinned entry whole
    /// (spilled or dropped). Pinned entries are never touched, so no
    /// admission discount or seeded session loses its shared span. A
    /// spill lands in [`Engine::take_prefix_transfers`] and in the trace,
    /// stamped with `trace_id` (the request the bytes were freed for).
    /// Returns `false` when the cache is disabled or every entry is
    /// pinned.
    pub fn reclaim_prefix(&mut self, trace_id: u64) -> bool {
        let Some(cache) = self.prefix_cache.as_mut() else { return false };
        let reclaimed = cache.reclaim_one();
        self.drain_prefix_traffic(trace_id);
        reclaimed
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

    /// Removes and returns the finished report of `session`.
    pub fn take_report(&mut self, session: Session) -> Option<RequestReport> {
        let idx = self.finished.iter().position(|r| r.session == session)?;
        Some(self.finished.remove(idx).report)
    }

    /// Admits a request: validates it, reserves its KV storage
    /// (`Request::reserve_resident_tokens`) and enqueues the session in
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
        let vocab = self.ctx.model.config().vocab_size;
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
            policies: (0..self.ctx.model.config().n_layers).map(|_| request.policy.build()).collect(),
            state: self.ctx.model.new_state(),
            // The session streams its observations to its policies: no
            // score buffer to pre-size.
            scratch: self.ctx.model.new_scratch(0),
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
        session.state.reserve(reserve_tokens, self.ctx.model.config().d_model);
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
            let Engine { ctx, scratch, .. } = self;
            ctx.run_slice(std::slice::from_mut(&mut session), &[Plan::Prefill { tokens }], scratch);
            self.harvest_prefix(&mut session);
            if tokens > 0 {
                self.trace(
                    session.trace_id,
                    TraceEventKind::PrefillChunk { tokens: tokens as u32, remaining: 0 },
                );
            }
            if session.max_new_tokens == 0 {
                self.retire(&mut session);
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
        let mut state = self.ctx.model.new_state();
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
    /// state; the caller drops what is left of it.
    fn retire(&mut self, session: &mut ActiveSession) {
        self.release_seed_pin(session);
        self.trace(
            session.trace_id,
            TraceEventKind::Finished { generated_tokens: session.generated.len() as u32 },
        );
        let seconds = session.total_cycles as f64 / (self.ctx.arch.clock_ghz * 1e9);
        let report = RequestReport {
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
            .field("variant", &self.ctx.variant)
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
