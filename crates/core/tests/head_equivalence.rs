//! The engine computes logits only where they are read — never for a
//! prompt token that is not its prompt's last, never for a request's final
//! token — and computes them as one batched LM head per worker slice.
//! Neither may change a single generated token or report field:
//!
//! * against a naive reference that runs the *whole* forward pass (head
//!   included) for every token of one sequence at a time;
//! * across `decode_threads` on a tick mix skewed enough that the
//!   token-weighted worker split differs from an even one;
//! * across pause → extract → adopt in the middle of a prompt, when the
//!   travelling session holds no logits at all;
//! * through the prefix cache: observations recorded layer-major out of
//!   the batched prefill, replayed into a later hit's policies, must leave
//!   that hit on the same reference.

use proptest::prelude::*;
use veda::{Budget, Engine, EngineBuilder, EngineReport, EngineTick, PrefixCacheConfig, Request, Session};
use veda_eviction::PolicyKind;
use veda_model::{ModelConfig, TransformerModel};
use veda_tensor::stats::argmax;

fn prompt(len: usize, seed: u64) -> Vec<usize> {
    (0..len).map(|i| ((i as u64 * 29 + seed * 13 + 5) % 60 + 1) as usize).collect()
}

/// What `request` generates when every token pays for its logits: full
/// forward passes on one sequence, policies evicting one row at a time.
/// Returns the tokens, the eviction count and the final cache length.
fn full_forward_reference(model: &TransformerModel, request: &Request) -> (Vec<usize>, usize, usize) {
    let cap = request.budget.resolve(request.prompt.len());
    let mut state = model.new_state();
    let mut scratch = model.new_scratch(request.prompt.len() + request.max_new_tokens);
    let mut policies: Vec<_> = (0..model.config().n_layers).map(|_| request.policy.build()).collect();
    let mut position = 0;
    for &token in &request.prompt {
        model.forward_with_scratch(&mut state, token, position, &mut scratch);
        for (layer, policy) in policies.iter_mut().enumerate() {
            policy.on_append();
            policy.observe(scratch.scores().layer(layer));
        }
        position += 1;
    }
    let (mut generated, mut evictions) = (Vec::new(), 0);
    while generated.len() < request.max_new_tokens {
        let token = argmax(scratch.logits()).expect("a full forward pass leaves logits");
        generated.push(token);
        model.forward_with_scratch(&mut state, token, position, &mut scratch);
        for (layer, policy) in policies.iter_mut().enumerate() {
            policy.on_append();
            policy.observe(scratch.scores().layer(layer));
            while state.caches()[layer].len() > cap {
                let Some(slot) = policy.select_victim(state.caches()[layer].len()) else { break };
                policy.on_evict(slot);
                state.evict(layer, slot);
                evictions += 1;
            }
        }
        position += 1;
        if request.stop_tokens.contains(&token) {
            break;
        }
    }
    (generated, evictions, state.cache_len())
}

/// `tiny` with two heads of 16 channels instead of four of 8: a head spans
/// one 16-column tile of the `s' × V` kernel, and the small fixed budgets
/// below hold its caches at lengths on every side of the 4-row score tile.
fn wide_head() -> ModelConfig {
    ModelConfig { n_heads: 2, ..ModelConfig::tiny() }
}

fn tiny_engine(threads: usize, chunk: usize) -> Engine {
    engine(ModelConfig::tiny(), threads, chunk)
}

fn engine(model: ModelConfig, threads: usize, chunk: usize) -> Engine {
    EngineBuilder::new()
        .model(model)
        .decode_threads(threads)
        .prefill_chunk(chunk)
        .build()
        .expect("valid config")
}

proptest! {
    #[test]
    fn engine_matches_the_full_forward_reference(
        sessions in 1usize..7,
        threads in 1usize..5,
        chunk_sel in 0usize..4,
        policy_idx in 0usize..PolicyKind::ALL.len(),
        budget_sel in 0usize..3,
        wide in 0usize..2,
        seed in 0u64..1000,
    ) {
        let config = if wide == 1 { wide_head() } else { ModelConfig::tiny() };
        let model = TransformerModel::new(config.clone());
        let chunk = [1, 5, 32, usize::MAX][chunk_sel];
        let requests: Vec<Request> = (0..sessions as u64)
            .map(|i| {
                let budget = match budget_sel {
                    0 => Budget::Unbounded,
                    1 => Budget::Fixed(((seed + i) % 12 + 1) as usize),
                    _ => Budget::Ratio(((seed + i) % 9 + 1) as f64 / 10.0),
                };
                // Zero-token requests, one-token requests and a stop token
                // that may or may not fire: every way a head goes unread.
                let max_new = ((seed + 3 * i) % 9) as usize;
                Request::new(prompt((3 + (seed + 7 * i) % 30) as usize, seed + i), max_new)
                    .policy(PolicyKind::ALL[(policy_idx + i as usize) % PolicyKind::ALL.len()])
                    .budget(budget)
                    .stop_tokens(vec![((seed + i) % 60 + 1) as usize])
            })
            .collect();

        let mut engine = engine(config, threads, chunk);
        let ids: Vec<Session> =
            requests.iter().map(|r| engine.submit(r.clone()).expect("valid request")).collect();
        let report = engine.run_to_completion();
        for (request, id) in requests.iter().zip(ids) {
            let got = &report.requests.iter().find(|r| r.session == id).expect("every request finishes").report;
            let (generated, evictions, final_cache_len) = full_forward_reference(&model, request);
            prop_assert_eq!(&got.generated, &generated, "tokens of {:?}", request);
            prop_assert_eq!(got.evictions, evictions, "evictions of {:?}", request);
            prop_assert_eq!(got.final_cache_len, final_cache_len, "cache length of {:?}", request);
        }
    }
}

/// A closed loop over `requests` with `clients` in flight: every tick and
/// the drained report.
fn run_clients(mut engine: Engine, requests: &[Request], clients: usize) -> (Vec<EngineTick>, EngineReport) {
    let mut pending = requests.iter().rev().cloned().collect::<Vec<_>>();
    let mut ticks = Vec::new();
    loop {
        while engine.active_sessions() < clients {
            let Some(request) = pending.pop() else { break };
            engine.submit(request).expect("valid request");
        }
        if engine.active_sessions() == 0 {
            break;
        }
        ticks.push(engine.step());
    }
    (ticks, engine.drain_report())
}

#[test]
fn skewed_prefill_decode_mix_is_identical_across_decode_threads() {
    // Short requests decode while 40-token prompts arrive behind them: most
    // ticks hold one or two 16-token chunks beside several decode rows, so
    // an even split by session count and the split by planned tokens
    // disagree — and every thread count must still replay the serial run
    // tick for tick, event for event.
    let requests: Vec<Request> = (0..14u64)
        .map(|i| {
            let (prompt_len, max_new) =
                if i % 3 == 2 { (40, 3) } else { (4 + i as usize % 3, 9 + i as usize) };
            Request::new(prompt(prompt_len, i), max_new)
                .policy(PolicyKind::ALL[i as usize % PolicyKind::ALL.len()])
                .budget(Budget::Ratio(0.5))
        })
        .collect();
    let (serial_ticks, serial_report) = run_clients(tiny_engine(1, 16), &requests, 7);
    assert!(
        serial_ticks.iter().any(|t| t.prefill_tokens >= 16 && t.decode_tokens >= 3),
        "the mix must put a whole chunk beside decode rows in one tick"
    );
    for threads in [2, 3, 8] {
        let (ticks, report) = run_clients(tiny_engine(threads, 16), &requests, 7);
        assert_eq!(ticks, serial_ticks, "decode_threads({threads}) changed a tick");
        assert_eq!(report, serial_report, "decode_threads({threads}) changed the report");
    }
}

#[test]
fn migration_in_the_middle_of_a_prompt_keeps_stream_and_report() {
    for policy in PolicyKind::ALL {
        let request = || Request::new(prompt(21, 4), 7).policy(policy).budget(Budget::Ratio(0.5));
        let mut home = tiny_engine(1, 4);
        home.submit(request()).unwrap();
        let reference = home.run_to_completion().requests.pop().expect("finished").report;

        // Two chunks in, the session has consumed 8 of 21 prompt tokens and
        // holds no logits; it leaves for another engine, which finishes
        // the prompt (in chunks of 4, or in one tick where `prefill_chunk`
        // is unbounded) and decodes.
        for adopter_chunk in [4, usize::MAX] {
            let mut source = tiny_engine(2, 4);
            let s = source.submit(request()).unwrap();
            source.step();
            source.step();
            source.pause(s).expect("active session");
            let migrated = source.extract(s).expect("paused session");
            assert_eq!(migrated.generated_tokens(), 0);

            let mut target = tiny_engine(2, adopter_chunk);
            let t = target.adopt(migrated).expect("same geometry");
            target.resume(t).expect("adopted sessions land paused");
            while target.is_active(t) {
                target.step();
            }
            assert_eq!(
                target.take_report(t).expect("finished"),
                reference,
                "{policy}: a mid-prompt migration (adopter chunk {adopter_chunk}) changed the request"
            );
        }
    }
}

#[test]
fn recorded_prefix_observations_replay_onto_the_full_forward_reference() {
    // A cold prompt records one score buffer per token while its rows
    // stream layer-major through the batched prefill (one row per tick,
    // several, a whole 27-token prompt in one 32-row chunk, or instantly
    // at submit). A later prompt that shares 20 tokens skips them: its
    // policies are fed the recording instead, so a wrong or misplaced
    // layer in it would change what they evict — and the hit's stream.
    let model = TransformerModel::new(ModelConfig::tiny());
    let shared = prompt(20, 3);
    let with_suffix = |len: usize, seed: u64| [shared.clone(), prompt(len, seed)].concat();
    for threads in [1, 2] {
        for chunk in [1, 5, 32, usize::MAX] {
            for policy in PolicyKind::ALL {
                let mut engine = EngineBuilder::new()
                    .model(ModelConfig::tiny())
                    .decode_threads(threads)
                    .prefill_chunk(chunk)
                    .prefix_cache(PrefixCacheConfig { min_match_tokens: 4, ..PrefixCacheConfig::default() })
                    .build()
                    .expect("valid config");
                let request = |suffix, seed| {
                    Request::new(with_suffix(suffix, seed), 9).policy(policy).budget(Budget::Fixed(8))
                };
                // The recorder, beside a decoding neighbour (its own prompt
                // too short to cache) so its chunks share worker slices
                // with decode rows.
                let neighbour = engine.submit(Request::new(prompt(3, 9), 30)).expect("valid request");
                let cold = engine.submit(request(7, 11)).expect("valid request");
                while engine.is_active(cold) {
                    engine.step();
                }
                assert_eq!(
                    engine.prefix_cache().expect("prefix cache enabled").stats().insertions,
                    1,
                    "the cold prompt must have been recorded"
                );
                let hit = engine.submit(request(5, 12)).expect("valid request");
                assert_eq!(
                    engine.prefix_cache().expect("prefix cache enabled").stats().shared_tokens,
                    20,
                    "the second prompt must hit"
                );
                let report = engine.run_to_completion();
                for (session, (suffix, seed)) in [(cold, (7, 11)), (hit, (5, 12))] {
                    let got =
                        &report.requests.iter().find(|r| r.session == session).expect("finished").report;
                    let (generated, evictions, final_cache_len) =
                        full_forward_reference(&model, &request(suffix, seed));
                    let what = format!("{policy}, chunk {chunk}, {threads} thread(s)");
                    assert_eq!(got.generated, generated, "tokens: {what}");
                    assert_eq!(got.evictions, evictions, "evictions: {what}");
                    assert_eq!(got.final_cache_len, final_cache_len, "cache length: {what}");
                }
                assert!(report.requests.iter().any(|r| r.session == neighbour));
            }
        }
    }
}
