//! Unit tests of the [`Engine`](super::Engine), through its public API.

#![cfg(test)]

use veda_model::TransformerModel;

use super::*;
use crate::prefix::PrefixCacheConfig;

fn prompt() -> Vec<usize> {
    (1..=16).collect()
}

fn engine() -> Engine {
    EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid config")
}

#[test]
fn builder_rejects_bad_model() {
    let rejected = |bad| matches!(EngineBuilder::new().model(bad).build(), Err(BuildError::InvalidModel(_)));
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

/// Whether the builder refuses `config` as a prefix cache, naming `field`.
fn rejects_prefix_cache(config: PrefixCacheConfig, field: &str) -> bool {
    match EngineBuilder::new().prefix_cache(config).build() {
        Err(BuildError::InvalidPrefixCache(detail)) => detail.contains(field),
        _ => false,
    }
}

#[test]
fn builder_rejects_a_prefix_cache_without_entry_slots() {
    assert!(rejects_prefix_cache(
        PrefixCacheConfig { max_entries: 0, ..PrefixCacheConfig::default() },
        "max_entries"
    ));
    assert!(EngineBuilder::new()
        .prefix_cache(PrefixCacheConfig { max_entries: 1, ..PrefixCacheConfig::default() })
        .build()
        .is_ok());
}

#[test]
fn builder_rejects_a_prefix_cache_without_byte_room() {
    assert!(rejects_prefix_cache(
        PrefixCacheConfig { max_bytes: 0, ..PrefixCacheConfig::default() },
        "max_bytes"
    ));
    assert!(EngineBuilder::new()
        .prefix_cache(PrefixCacheConfig { max_bytes: 1, ..PrefixCacheConfig::default() })
        .build()
        .is_ok());
}

#[test]
fn builder_rejects_a_prefix_cache_that_expires_on_insert() {
    assert!(rejects_prefix_cache(
        PrefixCacheConfig { ttl_ticks: 0, ..PrefixCacheConfig::default() },
        "ttl_ticks"
    ));
    assert!(EngineBuilder::new()
        .prefix_cache(PrefixCacheConfig { ttl_ticks: 1, ..PrefixCacheConfig::default() })
        .build()
        .is_ok());
}

#[test]
fn submit_rejects_bad_requests() {
    let mut engine = engine();
    assert!(matches!(engine.submit(Request::new(vec![], 4)), Err(BuildError::InvalidRequest(_))));
    assert!(matches!(engine.submit(Request::new(vec![1, 10_000], 4)), Err(BuildError::InvalidRequest(_))));
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
    assert_eq!([engine.session_phase(a), engine.session_phase(b)], [Some(SessionPhase::Finished); 2]);
    assert_eq!(engine.take_report(a).unwrap().generated.len(), 4);
    assert_eq!(engine.take_report(b).unwrap().generated.len(), 6);
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
    assert_eq!(engine.session_phase(s), Some(SessionPhase::Finished), "stop token must end the session");
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
    assert_eq!(engine.session_phase(s), Some(SessionPhase::Finished));
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
    assert_eq!(engine.session_phase(s), Some(SessionPhase::Finished));
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
    // drain (the streaming pattern of a caller that takes each
    // report as its session finishes).
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
    let ref_tokens =
        |s: Session| ref_report.requests.iter().find(|r| r.session == s).unwrap().report.generated.clone();

    // Preempted run: same requests, but session a is paused for three
    // ticks in the middle.
    let mut engine = engine();
    let a = engine.submit(Request::new(prompt(), 8)).unwrap();
    let b = engine.submit(Request::new(vec![3, 6, 9, 12], 8).policy(PolicyKind::H2o)).unwrap();
    engine.step();
    engine.step();
    let bytes_out = engine.pause(a).expect("a is active");
    assert!(bytes_out > 0);
    assert!(engine.paused_sessions() == 1 && !engine.is_active(a));
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
    assert_eq!(engine.session_phase(a), None);
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
            engine.submit(Request::new(prompt, 6 + i).policy(*policy).budget(Budget::Ratio(0.5))).unwrap();
        }
        engine.run_to_completion()
    };
    let serial = run(1);
    for threads in [2, 3, 8] {
        assert_eq!(run(threads), serial, "decode_threads({threads}) diverged from serial");
    }
}

#[test]
fn decode_threads_clamp_to_at_least_one() {
    let engine = EngineBuilder::new().decode_threads(0).build().unwrap();
    assert_eq!(engine.decode_threads(), 1);
}

#[test]
fn a_decode_worker_panic_keeps_its_payload_and_the_sessions() {
    let mut engine = EngineBuilder::new()
        .model(ModelConfig::tiny())
        .decode_threads(2)
        .prefill_chunk(4)
        .build()
        .expect("valid config");
    let sessions = [
        engine.submit(Request::new(prompt(), 4)).unwrap(),
        engine.submit(Request::new(prompt(), 4)).unwrap(),
    ];
    // Two 4-token chunks split into slices [1, 1]: the second session's
    // first chunk runs on the scoped worker.
    engine.active[1].prompt[0] = ModelConfig::tiny().vocab_size;
    let panic =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.step())).expect_err("bad token");
    let message = panic.downcast_ref::<String>().map_or("", String::as_str);
    assert!(message.contains("outside vocabulary"), "{message:?}");
    assert!(sessions.iter().all(|&s| engine.is_active(s)), "the sessions went back to the engine");
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
        let TokenEvent::PrefillProgress { session, tokens, remaining, cache_len, finished } = tick.events[0]
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
            engine.submit(Request::new(prompt, 6 + i).policy(*policy).budget(Budget::Ratio(0.5))).unwrap();
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
    assert_eq!([engine.session_phase(a), engine.session_phase(b)], [Some(SessionPhase::Finished); 2]);
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
    assert_eq!(engine.prefill_chunk, 1);
    assert_eq!(engine.tick_token_budget, 1);
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
    assert!(engine.prefix_cache().is_none());
    assert_eq!(engine.prefix_match_len(&prompt()), 0);
    engine.submit(Request::new(prompt(), 2)).unwrap();
    let report = engine.run_to_completion();
    assert_eq!(report.prefix, crate::prefix::PrefixCacheStats::default());
}

#[test]
fn prefix_hit_seeds_shared_rows_and_skips_prefill() {
    let mut engine = prefix_engine(0);
    let per_token = engine.kv_bytes_per_token();

    // Cold submit: full prefill, prompt inserted as an entry.
    let a = engine.submit(Request::new(shared_prompt(&[40, 41]), 3)).unwrap();
    let stats = engine.prefix_cache().unwrap().stats();
    assert_eq!((stats.hits, stats.misses, stats.insertions), (0, 1, 1));
    assert_eq!(engine.prefix_cache().unwrap().resident_bytes(), 12 * per_token);
    assert_eq!(engine.session_kv_bytes(a), Some(12 * per_token), "cold session owns its rows");

    // Warm submit: the 10-token shared prefix is served from the
    // cache (the suffixes diverge at token 11); only the unshared
    // rows are privately owned.
    let b = engine.submit(Request::new(shared_prompt(&[50, 51]), 3)).unwrap();
    let stats = engine.prefix_cache().unwrap().stats();
    assert_eq!((stats.hits, stats.shared_tokens), (1, 10));
    assert_eq!(engine.session_kv_bytes(b), Some(2 * per_token), "shared span is not owned");
    assert_eq!(
        engine.kv_bytes_active(),
        12 * per_token + 2 * per_token,
        "active bytes count each session's owned rows only"
    );

    engine.run_to_completion();
    assert_eq!(
        engine.prefix_cache().unwrap().resident_bytes(),
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
    assert!(warm.prefix_cache().unwrap().stats().hits >= 2, "later submits must hit the shared prefix");
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
    assert_eq!(engine.prefix_cache().unwrap().stats().hits, 1);
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
    let stats = engine.prefix_cache().unwrap().stats();
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
    assert!(target.paused_sessions() == 1 && !target.is_active(adopted), "adoption lands in the paused set");
    target.resume(adopted).unwrap();
    let report = target.run_to_completion();
    let migrated_tokens = &report.requests.iter().find(|o| o.session == adopted).unwrap().report.generated;
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
