//! What the engine reports: one [`EngineTick`] per step, one
//! [`RequestReport`] per finished request and an [`EngineReport`] per
//! drained wave.

use veda_eviction::PolicyKind;

use super::{Budget, Engine, Session, TokenEvent};
use crate::prefix::{PrefixCache, PrefixCacheStats};

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
    /// ([`DecodeScheduler::mixed_batch`](veda_accel::schedule::DecodeScheduler::mixed_batch)).
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
    /// Per-request report, identical to what the same request produces
    /// alone on a fresh engine.
    pub report: RequestReport,
}

/// Result of one finished request: its prompt's prefill plus greedy
/// generation, costed as a single sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestReport {
    /// Greedily generated token ids.
    pub generated: Vec<usize>,
    /// Attention cycles of each generated token (cycle model).
    pub attention_cycles_per_token: Vec<u64>,
    /// Total decode cycles across generation (all components).
    pub total_cycles: u64,
    /// Decode throughput at the architecture clock.
    pub tokens_per_second: f64,
    /// Energy per generated token in millijoules (core + HBM).
    pub energy_mj_per_token: f64,
    /// Evictions performed across all layers.
    pub evictions: usize,
    /// Final KV cache length (layer 0).
    pub final_cache_len: usize,
    /// The budget that was enforced.
    pub cache_budget: usize,
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

impl Engine {
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
        let seconds = self.batched_cycles as f64 / (self.ctx.arch.clock_ghz * 1e9);
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
            prefix: self.prefix_cache.as_ref().map_or_else(PrefixCacheStats::default, PrefixCache::stats),
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
}
