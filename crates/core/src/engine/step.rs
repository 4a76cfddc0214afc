//! The three phases of one [`Engine::step`]: [`Engine::plan_step`] on the
//! calling thread, [`StepWork::compute`] on any thread, and
//! [`Engine::commit_step`] on the calling thread again.

use std::sync::Arc;

use veda_accel::arch::{ArchConfig, DataflowVariant};
use veda_accel::attention::decode_attention_cycles;
use veda_accel::schedule::PrefillChunk;
use veda_eviction::ScoreView;
use veda_model::{BatchScratch, ForwardScratch, HeadScratch, RowRun, ScoreBuffer, TransformerModel};
use veda_telemetry::TraceEventKind;

use super::{ActiveSession, Engine, EngineTick, TokenEvent};

/// Per-session work of one tick, resolved on the coordinator before any
/// fan-out so workers touch only their own session.
#[derive(Debug, Clone, Copy)]
pub(super) enum Plan {
    /// Advance one generated token at cache length `l_before`, costing
    /// what the same step of the session run alone costs.
    Decode { l_before: usize, solo: SoloCost },
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

/// Cycles and energy of one single-sequence decode step, the per-request
/// accounting of a decode row.
#[derive(Debug, Clone, Copy)]
pub(super) struct SoloCost {
    pub(super) cycles: u64,
    pub(super) energy_mj: f64,
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
pub(super) struct WorkerScratch {
    rows: BatchScratch,
    head: HeadScratch,
}

/// What every slice of a tick reads and nothing writes: the model and the
/// attention cycle model. The engine and its in-flight [`StepWork`] share
/// it through an `Arc`, and every worker borrows it during the fan-out
/// (`TransformerModel` is `Sync`; the cycle model is pure);
/// all mutation happens inside each worker's own [`ActiveSession`]s and
/// [`WorkerScratch`].
pub(super) struct StepContext {
    pub(super) model: TransformerModel,
    pub(super) arch: ArchConfig,
    pub(super) variant: DataflowVariant,
}

impl StepContext {
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
    pub(super) fn run_slice(
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
    /// its pre-resolved single-sequence cost; a prefill chunk needs
    /// nothing before its rows run.
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
            Plan::Decode { l_before, solo } => {
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

                let attention_cycles = decode_attention_cycles(&self.arch, self.variant, l_before);
                session.attention_cycles.push(attention_cycles);
                session.total_cycles += solo.cycles;
                session.total_energy_mj += solo.energy_mj;

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

/// The compute phase of one [`Engine::step`], detached from its engine
/// ([`Engine::plan_step`] → [`StepWork::compute`] →
/// [`Engine::commit_step`]). It owns the tick's sessions, their plans and
/// the buffers they run through, and shares the engine's read-only model,
/// so it can be computed on any thread. Computing it emits no trace event
/// and touches nothing outside the work itself.
pub struct StepWork {
    ctx: Arc<StepContext>,
    decode_threads: usize,
    sessions: Vec<ActiveSession>,
    plans: Vec<Plan>,
    /// One outcome per session once computed (`None` for a starved one).
    outcomes: Option<Vec<Option<TokenEvent>>>,
    scratch: WorkerScratch,
    worker_scratch: Vec<WorkerScratch>,
    batch_cycles: u64,
    batch_energy_mj: f64,
}

impl StepWork {
    /// Rows the tick's forward passes carry: one per decoding session plus
    /// every prompt token a chunk consumes — the host cost of computing
    /// the work, to the first order.
    pub fn rows(&self) -> usize {
        self.plans.iter().map(|plan| plan.tokens()).sum()
    }

    /// Runs the tick's forward fan-out: the sessions are dealt to workers
    /// in contiguous slices balanced by planned tokens, and a worker runs
    /// its slice as: decode rows pick their token (greedy argmax) → one
    /// batched forward pass over every row of the slice, policies
    /// observing as the scores stream out → decode rows evict, chunks
    /// advance → one batched LM head over the sessions that decode next
    /// tick (the only logits anything reads). With more than one
    /// [`EngineBuilder::decode_threads`](super::EngineBuilder::decode_threads)
    /// the slices after the first run on scoped threads. Every shared decision was resolved by
    /// [`Engine::plan_step`], so workers touch only their own sessions and
    /// the token streams are byte-identical to the serial schedule for any
    /// thread count. Computing twice is a no-op.
    pub fn compute(&mut self) {
        if self.outcomes.is_some() {
            return;
        }
        let StepWork { ctx, decode_threads, sessions, plans, scratch, worker_scratch, .. } = self;
        let ctx: &StepContext = ctx;
        // Order-preserving fan-out: contiguous slices of the session list
        // balanced by planned tokens, the first on this thread and one
        // scoped worker for each of the rest; outcomes are concatenated in
        // slice order, so the tick's event order matches the serial path.
        let lens = split_by_tokens(plans, (*decode_threads).min(sessions.len()).max(1));
        if lens.len() < 2 {
            self.outcomes = Some(ctx.run_slice(sessions, plans, scratch));
            return;
        }
        if worker_scratch.len() + 1 < lens.len() {
            worker_scratch.resize_with(lens.len() - 1, WorkerScratch::default);
        }
        let mut outcomes: Vec<Option<TokenEvent>> = Vec::with_capacity(sessions.len());
        std::thread::scope(|scope| {
            let (mut sessions, mut plans) = (sessions.as_mut_slice(), plans.as_slice());
            let scratches = std::iter::once(scratch).chain(worker_scratch.iter_mut());
            let mut slices = lens.iter().zip(scratches).map(|(&len, scratch)| {
                let (slice, rest) = std::mem::take(&mut sessions).split_at_mut(len);
                let (slice_plans, rest_plans) = plans.split_at(len);
                (sessions, plans) = (rest, rest_plans);
                (slice, slice_plans, scratch)
            });
            let first = slices.next();
            let handles: Vec<_> = slices
                .map(|(slice, plans, scratch)| scope.spawn(move || ctx.run_slice(slice, plans, scratch)))
                .collect();
            if let Some((slice, plans, scratch)) = first {
                outcomes.extend(ctx.run_slice(slice, plans, scratch));
            }
            for handle in handles {
                outcomes.extend(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
            }
        });
        self.outcomes = Some(outcomes);
    }
}

impl std::fmt::Debug for StepWork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepWork")
            .field("sessions", &self.sessions.len())
            .field("computed", &self.outcomes.is_some())
            .finish()
    }
}

// Compile-time pins: the engine and its compute phase cross threads (a
// cluster's shards step on worker threads), so a field that is not `Send`
// fails the build here rather than the workers.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Engine>();
    assert_send::<StepWork>();
};

impl Engine {
    /// Executes one *mixed* tick: every decoding session advances by one
    /// token and every prefilling session consumes up to
    /// [`EngineBuilder::prefill_chunk`](super::EngineBuilder::prefill_chunk)
    /// prompt tokens (within the shared
    /// [`EngineBuilder::tick_token_budget`](super::EngineBuilder::tick_token_budget)),
    /// all costed as one batch through
    /// [`DecodeScheduler::mixed_batch`](veda_accel::schedule::DecodeScheduler::mixed_batch)
    /// — weights stream from HBM once per tick across both phases. Returns
    /// the per-session [`TokenEvent`]s plus the tick's batched cost. A
    /// no-op returning an empty tick when nothing is active.
    ///
    /// A tick is three phases, and `step` is their composition:
    /// [`Engine::plan_step`] resolves every shared decision on the calling
    /// thread, [`StepWork::compute`] runs the forward fan-out over the
    /// tick's sessions and emits nothing, and [`Engine::commit_step`]
    /// harvests prefixes, emits the trace, retires finished sessions and
    /// counts. A caller that steps several engines at once (a serving
    /// cluster) can run each compute phase on any thread and commit the
    /// engines in a fixed order: the result is byte-identical to calling
    /// `step` on each in turn.
    ///
    /// A panic inside the compute phase hands the tick's sessions back to
    /// the engine before it propagates, so no in-flight session vanishes.
    pub fn step(&mut self) -> EngineTick {
        let Some(mut work) = self.plan_step() else {
            return EngineTick::default();
        };
        if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work.compute())) {
            self.active = std::mem::take(&mut work.sessions);
            std::panic::resume_unwind(panic);
        }
        self.commit_step(work)
    }

    /// The plan phase of [`Engine::step`], on the calling thread: resolves
    /// the tick plan, the mixed-batch cost and the per-length solo-cost
    /// memo, then lends the active sessions and the worker buffers to the
    /// returned [`StepWork`]. `None` when nothing is active.
    ///
    /// Until the work is handed back to [`Engine::commit_step`] the
    /// engine holds no active session: call nothing else on it in between.
    pub fn plan_step(&mut self) -> Option<StepWork> {
        if self.active.is_empty() {
            return None;
        }

        // Decode sessions advance one token each and are never throttled;
        // the remaining tick token budget is dealt to prefilling sessions
        // in session order, up to `prefill_chunk` each. Per-request
        // accounting stays single-sequence so the report is identical to
        // the same request run alone; capped sessions share a handful of
        // cache lengths in steady state, so the solo cost is memoized per
        // length across ticks.
        let decode_count = self.active.iter().filter(|s| s.is_decoding()).count();
        let mut prefill_budget = self.tick_token_budget.saturating_sub(decode_count);
        let mut decode_lens: Vec<usize> = Vec::with_capacity(decode_count);
        let mut chunks: Vec<PrefillChunk> = Vec::new();
        let mut plans: Vec<Plan> = Vec::with_capacity(self.active.len());
        for session in &self.active {
            if session.is_decoding() {
                let l = session.costed_len();
                decode_lens.push(l);
                let (scheduler, energy) = (&self.scheduler, &self.energy);
                let solo = *self.solo_cost_by_len.entry(l).or_insert_with(|| {
                    let step = scheduler.decode_token(l);
                    SoloCost {
                        cycles: step.total_cycles,
                        energy_mj: energy.token_energy_mj(step.total_cycles, step.hbm_bytes),
                    }
                });
                plans.push(Plan::Decode { l_before: l, solo });
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
        let batch_energy_mj = self.energy.token_energy_mj(batch_report.total_cycles, batch_report.hbm_bytes);

        Some(StepWork {
            ctx: Arc::clone(&self.ctx),
            decode_threads: self.decode_threads,
            sessions: std::mem::take(&mut self.active),
            plans,
            outcomes: None,
            scratch: std::mem::take(&mut self.scratch),
            worker_scratch: std::mem::take(&mut self.worker_scratch),
            batch_cycles: batch_report.total_cycles,
            batch_energy_mj,
        })
    }

    /// The commit phase of [`Engine::step`], on the calling thread: takes
    /// back the [`StepWork`] this engine's last [`Engine::plan_step`]
    /// returned (computing it first if no one has), charges the tick's
    /// batched cost, inserts completed prompts into the prefix cache,
    /// emits the tick's trace events and retires finished sessions, all in
    /// session order.
    ///
    /// # Panics
    ///
    /// Panics if the engine was given sessions between
    /// [`Engine::plan_step`] and this call.
    pub fn commit_step(&mut self, mut work: StepWork) -> EngineTick {
        work.compute();
        let StepWork {
            mut sessions, outcomes, scratch, worker_scratch, batch_cycles, batch_energy_mj, ..
        } = work;
        assert!(self.active.is_empty(), "an engine takes no sessions between plan_step and commit_step");
        self.scratch = scratch;
        self.worker_scratch = worker_scratch;

        // Charge the tick's batched cost up front so the trace events
        // emitted below carry the post-tick cycle clock (nothing below
        // reads these accumulators).
        self.batched_cycles += batch_cycles;
        self.batched_energy_mj += batch_energy_mj;

        // One pass in session order: harvest, trace, retire. Finished
        // sessions leave the list (freeing their KV state and policies);
        // the others keep their slots, so a session's state stays where
        // the thread that computes it last touched it. No user code runs
        // past this point, so this pass is panic-safe.
        let mut outcomes = outcomes.unwrap_or_default().into_iter();
        let mut events: Vec<TokenEvent> = Vec::with_capacity(sessions.len());
        let mut decode_tokens = 0;
        let mut prefill_tokens = 0;
        let mut prefill_sessions = 0;
        sessions.retain_mut(|session| {
            let Some(event) = outcomes.next().flatten() else {
                return true;
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
                        self.harvest_prefix(session);
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
            }
            !finished
        });
        self.active = sessions;

        self.ticks += 1;
        self.tokens_emitted += decode_tokens;
        self.prefill_tokens += prefill_tokens;
        self.max_concurrency = self.max_concurrency.max(events.len());

        EngineTick {
            batch_size: events.len(),
            decode_tokens,
            prefill_tokens,
            prefill_sessions,
            batch_cycles,
            batch_energy_mj,
            kv_bytes_resident: self.kv_bytes_active(),
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_slices_balance_planned_tokens_not_session_counts() {
        let decode = Plan::Decode { l_before: 1, solo: SoloCost { cycles: 1, energy_mj: 1.0 } };
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
}
