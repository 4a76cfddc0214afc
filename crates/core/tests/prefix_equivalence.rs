//! Property tests for the shared-prefix cache's correctness bar: for
//! random request waves that share prompt prefixes, an engine with the
//! prefix cache **enabled** generates bit-identical per-request token
//! streams, eviction counts and reports to the same engine with the cache
//! **disabled** — across eviction policies, prefill chunk sizes (instant
//! and finite) and decode thread counts. Sharing KV across sessions may
//! only change where bytes live and when prefill work lands on the clock,
//! never which tokens a request generates.

use proptest::prelude::*;
use veda::{Budget, Engine, EngineBuilder, PrefixCacheConfig, Request, RequestReport};
use veda_eviction::PolicyKind;
use veda_model::ModelConfig;

/// Deterministic pseudo-random token sequence derived from a seed.
fn tokens(len: usize, seed: u64) -> Vec<usize> {
    (0..len).map(|i| ((i as u64 * 29 + seed * 13 + 5) % 60 + 1) as usize).collect()
}

/// A wave of requests over `groups` shared prefixes: request `i` prepends
/// its group's prefix to a private suffix, so within a group every prompt
/// shares the leading `prefix_len` tokens. Policies and budgets rotate so
/// the sharing crosses policy stacks.
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

/// Submits the wave in two stages (the first `stage1` requests, drained
/// to completion, then the rest), so later submits can hit entries the
/// first stage inserted even under chunked prefill, where insertion
/// happens only when a prompt *completes* on the clock. Returns the
/// per-request reports in submission order plus the engine's prefix-hit
/// count. The schedule is identical for cached and uncached engines, so
/// the comparison isolates the cache.
fn run(mut engine: Engine, requests: Vec<Request>, stage1: usize) -> (Vec<RequestReport>, u64) {
    let mut sessions = Vec::with_capacity(requests.len());
    for (i, request) in requests.into_iter().enumerate() {
        if i == stage1 {
            while engine.active_sessions() > 0 {
                engine.step();
            }
        }
        sessions.push(engine.submit(request).expect("valid request"));
    }
    while engine.active_sessions() > 0 {
        engine.step();
    }
    let hits = engine.prefix_cache().map_or(0, |cache| cache.stats().hits);
    let reports = sessions.into_iter().map(|s| engine.take_report(s).expect("finished session")).collect();
    (reports, hits)
}

fn builder(chunk: usize, threads: usize) -> EngineBuilder {
    let mut builder = EngineBuilder::new().model(ModelConfig::tiny()).decode_threads(threads);
    if chunk > 0 {
        builder = builder.prefill_chunk(chunk);
    }
    builder
}

proptest! {
    /// The acceptance-criteria sweep: cached vs uncached token identity
    /// over ≥2 policies × ≥2 chunk sizes (instant + finite) × threads 1/2.
    #[test]
    fn prefix_cache_is_token_identical_to_disabled(
        n_requests in 2usize..8,
        groups in 1usize..3,
        prefix_len in 6usize..20,
        suffix_len in 1usize..8,
        chunk_sel in 0usize..3,
        threads in 1usize..3,
        policy_a_idx in 0usize..PolicyKind::ALL.len(),
        policy_b_idx in 0usize..PolicyKind::ALL.len(),
        seed in 0u64..500,
    ) {
        // chunk 0 = instant prefill; 3 / 8 = finite chunked prefill.
        let chunk = [0usize, 3, 8][chunk_sel];
        let policy_a = PolicyKind::ALL[policy_a_idx];
        let policy_b = PolicyKind::ALL[policy_b_idx];
        let requests = || wave(n_requests, groups, prefix_len, suffix_len, seed, policy_a, policy_b);
        // Stage 1 covers every group, so every second-stage request finds
        // its group's prefix cached.
        let stage1 = groups.max(n_requests / 2);

        let disabled = builder(chunk, threads).build().expect("valid");
        let (reference, no_hits) = run(disabled, requests(), stage1);
        prop_assert_eq!(no_hits, 0, "a disabled cache cannot hit");

        let enabled = builder(chunk, threads)
            .prefix_cache(PrefixCacheConfig { min_match_tokens: 4, max_entries: 16, ..PrefixCacheConfig::default() })
            .build()
            .expect("valid");
        let (cached, hits) = run(enabled, requests(), stage1);
        if n_requests > stage1 {
            prop_assert!(hits > 0, "second-stage prompts must share their group's prefix");
        }

        for (i, (c, r)) in cached.iter().zip(&reference).enumerate() {
            prop_assert_eq!(
                &c.generated, &r.generated,
                "request {}: prefix sharing changed the token stream (chunk {}, threads {})",
                i, chunk, threads
            );
            prop_assert_eq!(
                c, r,
                "request {}: prefix sharing changed the report (chunk {}, threads {})",
                i, chunk, threads
            );
        }
    }

    /// Thread-count invariance *of the cache itself*: hit counts, entry
    /// counts and shared-token totals are resolved on the coordinator, so
    /// any thread count produces the identical EngineReport — including
    /// the prefix stats — for the same wave.
    #[test]
    fn prefix_cache_stats_are_thread_invariant(
        n_requests in 2usize..6,
        prefix_len in 6usize..16,
        chunk in 1usize..10,
        seed in 0u64..200,
    ) {
        let requests = || wave(n_requests, 1, prefix_len, 2, seed, PolicyKind::Voting, PolicyKind::H2o);
        let run_threads = |threads: usize| {
            let mut engine = builder(chunk, threads)
                .prefix_cache(PrefixCacheConfig { min_match_tokens: 4, max_entries: 16, ..PrefixCacheConfig::default() })
                .build()
                .expect("valid");
            for request in requests() {
                engine.submit(request).expect("valid request");
            }
            engine.run_to_completion()
        };
        let serial = run_threads(1);
        let parallel = run_threads(2);
        prop_assert_eq!(parallel, serial, "decode_threads(2) changed a prefix-cache run");
    }
}
