//! # veda
//!
//! End-to-end simulator for the VEDA reproduction (Wang et al., DAC 2025):
//! **V**oting-based KV cache **E**viction and a **D**ataflow-flexible
//! **A**ccelerator.
//!
//! This crate is the public face of the workspace. It couples:
//!
//! * the functional transformer substrate ([`veda_model`]) — one set of
//!   weights shared by every concurrent sequence,
//! * the eviction policies ([`veda_eviction`]), driven layer-wise exactly
//!   as the hardware voting engine drives them, one policy stack per
//!   session,
//! * the cycle-accurate accelerator model ([`veda_accel`]), including the
//!   batched-tick decode costing,
//! * the memory substrates ([`veda_mem`]) and cost models ([`veda_cost`]).
//!
//! The central type is the serving [`Engine`]: a long-lived object that
//! owns the substrate once and serves many concurrent requests through a
//! **two-phase session lifecycle** —
//! `submit → prefill ticks → decode ticks → report`:
//!
//! 1. [`Engine::submit`] validates a [`Request`] (prompt, token limit,
//!    stop tokens, [`veda_eviction::PolicyKind`], [`Budget`]), reserves
//!    its peak KV footprint (`Request::reserve_resident_tokens`) and
//!    enqueues the [`Session`] in the [`SessionPhase::Prefilling`] phase.
//! 2. Each [`Engine::step`] is one *mixed batched tick*: every decoding
//!    session advances by one token **and** every prefilling session
//!    consumes up to [`EngineBuilder::prefill_chunk`] prompt tokens
//!    (Sarathi/vLLM-style chunked prefill), under a shared
//!    [`EngineBuilder::tick_token_budget`]. Linear-layer weights stream
//!    from HBM once for the whole tick across both phases, and one
//!    [`TokenEvent`] per session ([`TokenEvent::Generated`] /
//!    [`TokenEvent::PrefillProgress`]) lets callers stream output and
//!    prefill progress as they happen.
//! 3. A session whose prompt is consumed moves to
//!    [`SessionPhase::Decoding`]; its first generated token arrives the
//!    following tick.
//! 4. Finished sessions free their KV state and yield a per-request
//!    [`RequestReport`]; [`Engine::run_to_completion`] (or
//!    [`Engine::drain_report`]) additionally aggregates batched
//!    throughput/energy and on-clock prefill tokens into an
//!    [`EngineReport`].
//!
//! With the default `prefill_chunk = usize::MAX` the prompt is instead
//! consumed instantly (and cost-free) inside `submit` — byte-identical to
//! the pre-chunking engine, pinned by the integration and property tests.
//! Either way the chunk size never changes *which* tokens a request
//! generates, only when the work lands on the clock.
//!
//! On top of the engine, the `veda-serving` crate runs the full serving
//! stack — Workload (seeded Poisson or replayed arrivals) → Admission
//! (KV bytes accounted against HBM capacity) → Scheduler (FCFS or
//! priority tiers, with preemption and host-link KV swap serialized into
//! the clock) → Engine — under a
//! virtual clock; the engine's contribution is the session lifecycle:
//! capacity introspection ([`Engine::kv_bytes_active`],
//! [`Engine::kv_bytes_per_token`], [`Engine::session_phase`]),
//! and [`Engine::pause`] / [`Engine::resume`] (preemption that never
//! changes a session's token stream).
//!
//! ## Quickstart: the serving engine
//!
//! ```
//! use veda::{Budget, EngineBuilder, Request};
//! use veda_eviction::PolicyKind;
//!
//! let mut engine = EngineBuilder::new()
//!     .model(veda_model::ModelConfig::tiny())
//!     .build()?;
//!
//! // Two concurrent requests with different policies and budgets.
//! let a = engine.submit(
//!     Request::new(vec![1, 5, 9, 2, 7, 3, 8, 4], 8)
//!         .policy(PolicyKind::Voting)
//!         .budget(Budget::Ratio(0.5)),
//! )?;
//! let b = engine.submit(
//!     Request::new(vec![2, 4, 6, 8, 10, 12], 6)
//!         .policy(PolicyKind::H2o)
//!         .budget(Budget::Fixed(4)),
//! )?;
//!
//! // Stream: each step advances every active session by one token.
//! let tick = engine.step();
//! assert_eq!(tick.batch_size, 2);
//! for event in &tick.events {
//!     // event.session, event.token, event.attention_cycles, ...
//! }
//!
//! let report = engine.run_to_completion();
//! assert_eq!(report.requests.len(), 2);
//! assert!(report.batched_tokens_per_second > 0.0);
//! assert!(engine.take_report(a).is_none(), "drained into the report");
//! # let _ = b;
//! # Ok::<(), veda::BuildError>(())
//! ```
//!
//! ## Chunked prefill
//!
//! A finite [`EngineBuilder::prefill_chunk`] makes prefill first-class
//! scheduled work — `submit` returns a `Prefilling` session and `step`
//! consumes the prompt in on-clock chunks mixed into the decode batch:
//!
//! ```
//! use veda::{EngineBuilder, Request, SessionPhase, TokenEvent};
//!
//! let mut engine = EngineBuilder::new()
//!     .model(veda_model::ModelConfig::tiny())
//!     .prefill_chunk(4)
//!     .build()?;
//! let s = engine.submit(Request::new((1..=10).collect::<Vec<_>>(), 4))?;
//! assert_eq!(engine.session_phase(s), Some(SessionPhase::Prefilling));
//!
//! // A 10-token prompt at chunk 4: ticks consume 4 + 4 + 2 tokens…
//! let tick = engine.step();
//! assert!(matches!(tick.events[0], TokenEvent::PrefillProgress { tokens: 4, .. }));
//! engine.step();
//! engine.step();
//! // …then the session decodes; tokens are identical to instant prefill.
//! assert_eq!(engine.session_phase(s), Some(SessionPhase::Decoding));
//! let report = engine.run_to_completion();
//! assert_eq!(report.prefill_tokens, 10);
//! assert_eq!(report.requests[0].report.generated.len(), 4);
//! # Ok::<(), veda::BuildError>(())
//! ```
//!
//! ## Shared-prefix KV reuse
//!
//! Serving traffic is dominated by common system prompts and few-shot
//! templates. With [`EngineBuilder::prefix_cache`] enabled, `submit`
//! matches each prompt against cached prefix entries (token-exact longest
//! match): a hit seeds the session's KV state from the cached rows —
//! resident in HBM **once**, referenced copy-on-evict by every hit
//! session — replays the cached attention observations into the fresh
//! policy stack, and prefills only the unshared suffix. Sharing never
//! changes which tokens a request generates (pinned by the
//! `prefix_equivalence` property tests); it only removes redundant
//! prefill work and duplicate resident bytes:
//!
//! ```
//! use veda::{EngineBuilder, PrefixCacheConfig, Request};
//!
//! let mut engine = EngineBuilder::new()
//!     .model(veda_model::ModelConfig::tiny())
//!     .prefix_cache(PrefixCacheConfig { min_match_tokens: 4, max_entries: 8, ..PrefixCacheConfig::default() })
//!     .build()?;
//!
//! let system_prompt: Vec<usize> = (1..=12).collect();
//! let ask = |suffix: &[usize]| {
//!     let mut prompt = system_prompt.clone();
//!     prompt.extend_from_slice(suffix);
//!     Request::new(prompt, 4)
//! };
//! engine.submit(ask(&[40, 41]))?; // cold: prefills everything, inserts the prompt
//! engine.submit(ask(&[50, 51]))?; // hit: shares the 12-token system prompt
//! let report = engine.run_to_completion();
//! assert_eq!(report.prefix.hits, 1);
//! assert_eq!(report.prefix.shared_tokens, 12);
//! # Ok::<(), veda::BuildError>(())
//! ```

// Crate hygiene, enforced by veda-lint (rule crate-hygiene): no unsafe
// code under the determinism pins, no undocumented public surface.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
mod error;
pub mod prefix;

pub use engine::{
    Budget, Engine, EngineBuilder, EngineReport, EngineTick, MigratedSession, Request, RequestOutcome,
    RequestReport, Session, SessionPhase, StepWork, TokenEvent,
};
pub use error::BuildError;
pub use prefix::{
    PrefixCache, PrefixCacheConfig, PrefixCacheStats, PrefixPin, PrefixTransfer, PrefixTransferKind,
};

// Re-export the workspace crates under one roof for downstream users.
pub use veda_accel as accel;
pub use veda_cost as cost;
pub use veda_eviction as eviction;
pub use veda_mem as mem;
pub use veda_model as model;
pub use veda_telemetry as telemetry;
pub use veda_tensor as tensor;

/// Whole-run tests of the simulator: one request submitted to a fresh
/// [`Engine`], stepped to completion and checked through its
/// [`RequestReport`].
#[cfg(test)]
mod simulator {
    mod tests {
        use crate::{Budget, Engine, EngineBuilder, Request, RequestReport};
        use veda_eviction::PolicyKind;
        use veda_model::ModelConfig;

        fn prompt() -> Vec<usize> {
            (1..=16).collect()
        }

        fn engine() -> Engine {
            EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid config")
        }

        /// Runs `prompt` alone on `engine` for `max_new_tokens`.
        fn run_on(
            engine: &mut Engine,
            prompt: &[usize],
            max_new_tokens: usize,
            policy: PolicyKind,
            budget: Budget,
        ) -> RequestReport {
            engine
                .submit(Request::new(prompt.to_vec(), max_new_tokens).policy(policy).budget(budget))
                .expect("valid request");
            engine.run_to_completion().requests.remove(0).report
        }

        /// Runs `prompt` alone on a fresh engine.
        fn run(prompt: &[usize], max_new_tokens: usize, policy: PolicyKind, budget: Budget) -> RequestReport {
            run_on(&mut engine(), prompt, max_new_tokens, policy, budget)
        }

        #[test]
        fn run_produces_tokens_and_cycles() {
            let r = run(&prompt(), 8, PolicyKind::Voting, Budget::Ratio(0.5));
            assert_eq!(r.generated.len(), 8);
            assert_eq!(r.attention_cycles_per_token.len(), 8);
            assert!(r.total_cycles > 0);
            assert!(r.tokens_per_second > 0.0);
            assert!(r.energy_mj_per_token > 0.0);
        }

        #[test]
        fn cache_converges_to_budget() {
            let r = run(&prompt(), 12, PolicyKind::SlidingWindow, Budget::Ratio(0.5));
            assert_eq!(r.cache_budget, 8);
            assert_eq!(r.final_cache_len, 8, "cache must be held at the budget");
            assert!(r.evictions > 0);
        }

        #[test]
        fn full_policy_never_evicts() {
            let r = run(&prompt(), 4, PolicyKind::Full, Budget::Fixed(4));
            assert_eq!(r.evictions, 0);
            assert_eq!(r.final_cache_len, 20);
        }

        #[test]
        fn unbounded_budget_never_evicts_either() {
            let r = run(&prompt(), 4, PolicyKind::Voting, Budget::Unbounded);
            assert_eq!(r.evictions, 0);
            assert_eq!(r.final_cache_len, 20);
        }

        #[test]
        fn eviction_speeds_up_attention() {
            let long_prompt: Vec<usize> = (0..64).map(|i| (i * 7) % 60 + 1).collect();
            let rf = run(&long_prompt, 16, PolicyKind::Full, Budget::Fixed(10_000));
            let re = run(&long_prompt, 16, PolicyKind::Voting, Budget::Ratio(0.25));
            let full_attn: u64 = rf.attention_cycles_per_token.iter().sum();
            let evict_attn: u64 = re.attention_cycles_per_token.iter().sum();
            assert!(evict_attn < full_attn, "evicting {evict_attn} vs full {full_attn}");
        }

        #[test]
        fn deterministic_across_runs() {
            let mut a = engine();
            let mut b = engine();
            let voting =
                |engine: &mut Engine| run_on(engine, &prompt(), 6, PolicyKind::Voting, Budget::Ratio(0.5));
            assert_eq!(voting(&mut a), voting(&mut b));
            // And rerunning the same engine gives the same result.
            let r1 = voting(&mut a);
            let r2 = voting(&mut a);
            assert_eq!(r1, r2);
        }
    }
}
