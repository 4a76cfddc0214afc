//! Differential soundness suite for the v2 (churn-capable) prefix
//! cache, pinning determinism invariant #10:
//!
//! * **v1 equivalence** — with the unbounded default configuration
//!   (`max_bytes = u64::MAX`, no TTL, spill off) the v2 cache makes
//!   byte-identical decisions to the v1 insert-only cache. The v1
//!   semantics are reconstructed here as an independent reference model
//!   and compared decision-by-decision (match length, hit/miss,
//!   insertion, entry count) after every submit, and the churn counters
//!   are asserted to stay exactly zero — the churn machinery must be
//!   unreachable under the defaults.
//! * **churn neutrality** — under *any* churn configuration (byte
//!   pressure, TTL expiry, host spill on or off), per-request token
//!   streams and reports are bit-identical to the same engine with the
//!   cache disabled, across eviction policies, prefill chunk sizes and
//!   decode thread counts. Sessions copy their seeded rows, so evicting
//!   or spilling an entry may only change *future* hit rates, never any
//!   in-flight session's tokens.
//! * **thread invariance** — a churny configuration produces the
//!   identical `EngineReport` (including spill/fill/expiry counters) on
//!   1 and 2 decode threads: all churn is resolved on the coordinator.

use proptest::prelude::*;
use veda::{Budget, Engine, EngineBuilder, PrefixCacheConfig, Request, RequestReport};
use veda_eviction::PolicyKind;
use veda_model::ModelConfig;

/// Deterministic pseudo-random token sequence derived from a seed.
fn tokens(len: usize, seed: u64) -> Vec<usize> {
    (0..len).map(|i| ((i as u64 * 29 + seed * 13 + 5) % 60 + 1) as usize).collect()
}

/// A wave of requests over `groups` shared prefixes (see
/// `prefix_equivalence.rs`, whose construction this mirrors).
fn wave(
    n_requests: usize,
    groups: usize,
    prefix_len: usize,
    suffix_len: usize,
    seed: u64,
    policy_a: PolicyKind,
    policy_b: PolicyKind,
) -> Vec<Request> {
    (0..n_requests)
        .map(|i| {
            let group = i % groups;
            let mut prompt = tokens(prefix_len, seed * 100 + group as u64);
            prompt.extend(tokens(suffix_len + i % 3, seed * 1000 + i as u64));
            let policy = if i % 2 == 0 { policy_a } else { policy_b };
            let budget = match i % 3 {
                0 => Budget::Unbounded,
                1 => Budget::Fixed((seed % 12 + 4) as usize),
                _ => Budget::Ratio((seed % 7 + 3) as f64 / 10.0),
            };
            Request::new(prompt, 3 + i % 5).policy(policy).budget(budget)
        })
        .collect()
}

fn builder(chunk: usize, threads: usize) -> EngineBuilder {
    let mut builder = EngineBuilder::new().model(ModelConfig::tiny()).decode_threads(threads);
    if chunk > 0 {
        builder = builder.prefill_chunk(chunk);
    }
    builder
}

/// Two-stage run (mirrors `prefix_equivalence.rs`) that additionally
/// advances the prefix TTL clock by one tick per executed step, so a
/// finite `ttl_ticks` actually expires idle entries mid-run. The clock
/// schedule depends only on the step schedule, which is identical for
/// every engine the tests compare.
fn run(mut engine: Engine, requests: Vec<Request>, stage1: usize) -> (Vec<RequestReport>, u64) {
    let mut sessions = Vec::with_capacity(requests.len());
    let mut tick = 0u64;
    for (i, request) in requests.into_iter().enumerate() {
        if i == stage1 {
            while engine.active_sessions() > 0 {
                tick += 1;
                engine.advance_prefix_clock(tick);
                engine.step();
            }
        }
        sessions.push(engine.submit(request).expect("valid request"));
    }
    while engine.active_sessions() > 0 {
        tick += 1;
        engine.advance_prefix_clock(tick);
        engine.step();
    }
    let hits = engine.prefix_cache().map_or(0, |cache| cache.stats().hits);
    let reports = sessions.into_iter().map(|s| engine.take_report(s).expect("finished session")).collect();
    (reports, hits)
}

/// Independent reconstruction of the v1 insert-only cache's decision
/// procedure: longest token-exact match capped one short of the prompt,
/// a minimum-match gate, an entry-count cap, no eviction ever. Only
/// decisions are modelled (token sequences, not KV rows) — the point is
/// that an unbounded v2 cache must agree with this model exactly.
struct RefV1Cache {
    min_match: usize,
    max_entries: usize,
    entries: Vec<Vec<usize>>,
}

/// What the reference model decided for one submitted prompt.
#[derive(Debug, PartialEq, Eq)]
struct RefDecision {
    /// Shared tokens on a hit; 0 on a miss.
    matched: usize,
    /// Whether the prompt was inserted as a new entry.
    inserted: bool,
}

impl RefV1Cache {
    fn new(min_match: usize, max_entries: usize) -> Self {
        Self { min_match, max_entries, entries: Vec::new() }
    }

    fn common_prefix(a: &[usize], b: &[usize]) -> usize {
        a.iter().zip(b).take_while(|(x, y)| x == y).count()
    }

    /// v1 `match_len`: longest match over all entries, capped at
    /// `prompt.len() - 1`, zero below the minimum.
    fn match_len(&self, prompt: &[usize]) -> usize {
        let cap = prompt.len().saturating_sub(1);
        let best = self.entries.iter().map(|e| Self::common_prefix(e, &prompt[..cap])).max().unwrap_or(0);
        if best >= self.min_match {
            best
        } else {
            0
        }
    }

    /// v1 submit: a hit seeds (and never inserts — the session records
    /// no observations); a miss inserts iff the prompt is long enough,
    /// the entry table has room and no entry already covers the prompt.
    fn submit(&mut self, prompt: &[usize]) -> RefDecision {
        let matched = self.match_len(prompt);
        if matched > 0 {
            return RefDecision { matched, inserted: false };
        }
        let covered = self.entries.iter().any(|e| e.len() >= prompt.len() && e.starts_with(prompt));
        let inserted = prompt.len() >= self.min_match && self.entries.len() < self.max_entries && !covered;
        if inserted {
            self.entries.push(prompt.to_vec());
        }
        RefDecision { matched: 0, inserted }
    }
}

proptest! {
    /// Invariant #10, decision half: an unbounded/no-TTL/no-spill v2
    /// cache agrees with the v1 reference model on every match length,
    /// every hit/miss and every insertion, submit by submit — and its
    /// churn counters stay zero, proving the churn machinery is
    /// unreachable under the defaults.
    #[test]
    fn unbounded_v2_is_decision_identical_to_v1_reference(
        n_requests in 4usize..12,
        groups in 1usize..4,
        prefix_len in 5usize..18,
        suffix_len in 1usize..6,
        max_entries in 2usize..6,
        seed in 0u64..1000,
    ) {
        let mut engine = builder(0, 1)
            .prefix_cache(PrefixCacheConfig {
                min_match_tokens: 4,
                max_entries,
                ..PrefixCacheConfig::default()
            })
            .build()
            .expect("valid");
        let mut reference = RefV1Cache::new(4, max_entries);
        let requests = wave(n_requests, groups, prefix_len, suffix_len, seed,
                            PolicyKind::Voting, PolicyKind::H2o);

        for (i, request) in requests.into_iter().enumerate() {
            let prompt = request.prompt.clone();
            prop_assert_eq!(
                engine.prefix_match_len(&prompt),
                reference.match_len(&prompt),
                "request {}: match estimate diverged from v1 (seed {})", i, seed
            );
            let before = engine.prefix_cache().expect("prefix cache enabled").stats();
            let expected = reference.submit(&prompt);
            // Instant prefill: the lookup and any insertion happen
            // synchronously inside submit.
            engine.submit(request).expect("valid request");
            let after = engine.prefix_cache().expect("prefix cache enabled").stats();
            let actual = RefDecision {
                matched: (after.shared_tokens - before.shared_tokens) as usize,
                inserted: after.insertions > before.insertions,
            };
            prop_assert_eq!(&actual, &expected, "request {}: decision diverged (seed {})", i, seed);
            prop_assert_eq!(
                (after.hits - before.hits) == 1,
                expected.matched > 0,
                "request {}: hit accounting diverged (seed {})", i, seed
            );
            prop_assert_eq!(
                after.entries, reference.entries.len(),
                "request {}: entry count diverged (seed {})", i, seed
            );
        }
        while engine.active_sessions() > 0 {
            engine.step();
        }
        let stats = engine.prefix_cache().expect("prefix cache enabled").stats();
        prop_assert_eq!(
            (stats.evictions, stats.spills, stats.fills, stats.expiries, stats.host_entries),
            (0, 0, 0, 0, 0),
            "the unbounded default configuration must never churn (seed {})", seed
        );
        prop_assert!(stats.entries_conserved(), "conservation must close (seed {})", seed);
    }

    /// Churn neutrality: under byte pressure, TTL expiry and spill, the
    /// engine's per-request token streams and reports stay bit-identical
    /// to the cache-disabled engine — across 6 eviction policies, chunk
    /// sizes (instant + finite) and decode threads 1/2. Churn may move
    /// cache bytes and change hit rates; it may never touch tokens.
    #[test]
    fn churny_cache_is_token_identical_to_disabled(
        n_requests in 2usize..8,
        groups in 1usize..3,
        prefix_len in 6usize..20,
        suffix_len in 1usize..8,
        chunk_sel in 0usize..3,
        threads in 1usize..3,
        policy_a_idx in 0usize..PolicyKind::ALL.len(),
        policy_b_idx in 0usize..PolicyKind::ALL.len(),
        max_kb in 1u64..6,
        ttl in 2u64..30,
        spill_sel in 0usize..2,
        seed in 0u64..500,
    ) {
        let chunk = [0usize, 3, 8][chunk_sel];
        let policy_a = PolicyKind::ALL[policy_a_idx];
        let policy_b = PolicyKind::ALL[policy_b_idx];
        let requests = || wave(n_requests, groups, prefix_len, suffix_len, seed, policy_a, policy_b);
        let stage1 = groups.max(n_requests / 2);
        let churny = PrefixCacheConfig {
            min_match_tokens: 4,
            max_entries: 16,
            max_bytes: max_kb << 10,
            ttl_ticks: ttl,
            spill: spill_sel == 1,
        };

        let disabled = builder(chunk, threads).build().expect("valid");
        let (reference, no_hits) = run(disabled, requests(), stage1);
        prop_assert_eq!(no_hits, 0, "a disabled cache cannot hit");

        let enabled = builder(chunk, threads).prefix_cache(churny).build().expect("valid");
        let (cached, _) = run(enabled, requests(), stage1);

        for (i, (c, r)) in cached.iter().zip(&reference).enumerate() {
            prop_assert_eq!(
                &c.generated, &r.generated,
                "request {}: churn changed the token stream (chunk {}, threads {}, cfg {:?})",
                i, chunk, threads, churny
            );
            prop_assert_eq!(
                c, r,
                "request {}: churn changed the report (chunk {}, threads {}, cfg {:?})",
                i, chunk, threads, churny
            );
        }
    }

    /// Invariant #10, thread half: a churny configuration — byte
    /// pressure, a finite TTL and spill enabled — produces the identical
    /// `EngineReport` (prefix spill/fill/expiry counters included) on 1
    /// and 2 decode threads.
    #[test]
    fn churny_cache_report_is_thread_invariant(
        n_requests in 2usize..6,
        prefix_len in 6usize..16,
        chunk in 1usize..10,
        max_kb in 1u64..4,
        ttl in 2u64..20,
        seed in 0u64..200,
    ) {
        let churny = PrefixCacheConfig {
            min_match_tokens: 4,
            max_entries: 8,
            max_bytes: max_kb << 10,
            ttl_ticks: ttl,
            spill: true,
        };
        let requests = || wave(n_requests, 1, prefix_len, 2, seed, PolicyKind::Voting, PolicyKind::H2o);
        let run_threads = |threads: usize| {
            let mut engine = builder(chunk, threads).prefix_cache(churny).build().expect("valid");
            for request in requests() {
                engine.submit(request).expect("valid request");
            }
            let mut tick = 0u64;
            while engine.active_sessions() > 0 {
                tick += 1;
                engine.advance_prefix_clock(tick);
                engine.step();
            }
            engine.run_to_completion()
        };
        let serial = run_threads(1);
        let parallel = run_threads(2);
        prop_assert_eq!(parallel, serial, "decode_threads(2) changed a churny prefix run");
    }
}
