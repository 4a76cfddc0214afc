//! Property test for the chunked-prefill compatibility guarantee: for
//! random prompts, budgets, policies, chunk sizes and tick token budgets,
//! an engine consuming the prompt in on-clock chunks generates
//! bit-identical tokens and performs bit-identical evictions to the
//! instant-prefill engine (`prefill_chunk = usize::MAX`), which is itself
//! pinned byte-identical to the pre-redesign submit-time prefill. Beside
//! it, the interference trade-off the chunk size sets, in virtual time.

use proptest::prelude::*;
use veda::{Budget, Engine, EngineBuilder, Request, RequestReport, SessionPhase, TokenEvent};
use veda_eviction::PolicyKind;
use veda_model::ModelConfig;

/// Deterministic pseudo-random prompt derived from a seed (the shim's
/// strategies drive the parameters; the content just has to vary).
fn prompt(len: usize, seed: u64) -> Vec<usize> {
    (0..len).map(|i| ((i as u64 * 31 + seed * 17 + 7) % 60 + 1) as usize).collect()
}

fn budget(selector: usize, seed: u64) -> Budget {
    match selector {
        0 => Budget::Unbounded,
        1 => Budget::Fixed((seed % 14 + 1) as usize),
        _ => Budget::Ratio((seed % 9 + 1) as f64 / 10.0),
    }
}

fn run(mut engine: Engine, request: Request) -> RequestReport {
    let session = engine.submit(request).expect("valid request");
    while engine.is_active(session) {
        engine.step();
    }
    assert_eq!(engine.session_phase(session), Some(SessionPhase::Finished));
    engine.take_report(session).expect("finished session has a report")
}

proptest! {
    #[test]
    fn chunked_prefill_is_bit_identical_to_instant(
        prompt_len in 1usize..40,
        max_new in 0usize..12,
        chunk in 1usize..24,
        tick_budget in 1usize..32,
        policy_idx in 0usize..PolicyKind::ALL.len(),
        budget_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let policy = PolicyKind::ALL[policy_idx];
        let request = || Request::new(prompt(prompt_len, seed), max_new)
            .policy(policy)
            .budget(budget(budget_sel, seed));

        let instant = EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid");
        let reference = run(instant, request());

        let chunked_engine = EngineBuilder::new()
            .model(ModelConfig::tiny())
            .prefill_chunk(chunk)
            .tick_token_budget(tick_budget)
            .build()
            .expect("valid");
        let chunked = run(chunked_engine, request());

        prop_assert_eq!(
            &chunked.generated, &reference.generated,
            "chunk {} / tick budget {} changed the token stream", chunk, tick_budget
        );
        prop_assert_eq!(
            chunked.evictions, reference.evictions,
            "chunk {} / tick budget {} changed the eviction count", chunk, tick_budget
        );
        // Decode-side accounting is prefill-agnostic, so the whole
        // per-request report must in fact match.
        prop_assert_eq!(&chunked, &reference);
    }
}

/// Probe TTFT and background decode throughput, both in virtual cycles:
/// four decode sessions run while two 128-token probes prefill one after
/// the other at `chunk` tokens per tick.
fn interference(chunk: usize) -> (u64, f64) {
    let mut engine =
        EngineBuilder::new().model(ModelConfig::tiny()).prefill_chunk(chunk).build().expect("valid config");
    let voting = |prompt: Vec<usize>, max_new| {
        Request::new(prompt, max_new).policy(PolicyKind::Voting).budget(Budget::Ratio(0.5))
    };
    let background: Vec<_> =
        (0..4).map(|i| engine.submit(voting(prompt(16, i), 400)).expect("valid request")).collect();
    while background.iter().any(|&s| engine.session_phase(s) == Some(SessionPhase::Prefilling)) {
        engine.step();
    }
    let (mut ttft_cycles, mut span_cycles, mut decoded) = (0, 0, 0);
    for probe_seed in [100, 101] {
        let probe = engine.submit(voting(prompt(128, probe_seed), 4)).expect("valid request");
        let mut first_token = false;
        while engine.is_active(probe) {
            let tick = engine.step();
            span_cycles += tick.batch_cycles;
            if !first_token {
                ttft_cycles += tick.batch_cycles;
            }
            for event in &tick.events {
                match event {
                    TokenEvent::Generated { session, .. } if *session == probe => first_token = true,
                    TokenEvent::Generated { .. } => decoded += 1,
                    TokenEvent::PrefillProgress { .. } => {}
                }
            }
        }
    }
    assert!(background.iter().all(|&s| engine.is_active(s)), "the decoders must outlive the probes");
    (ttft_cycles / 2, decoded as f64 / span_cycles as f64)
}

#[test]
fn larger_chunks_cut_ttft_and_slow_the_decoders_beside_them() {
    // Instant prefill is off the clock: the best TTFT and undisturbed
    // decoders. On the clock, a larger chunk finishes the prompt in fewer
    // ticks but makes every mixed tick the decoders ride on longer.
    let instant = interference(usize::MAX);
    let sweep: Vec<(u64, f64)> = [4, 16, 64].into_iter().map(interference).collect();
    assert!(sweep.iter().all(|p| instant.0 < p.0 && instant.1 > p.1), "{instant:?} vs {sweep:?}");
    assert!(sweep.windows(2).all(|w| w[0].0 > w[1].0), "TTFT must fall as the chunk grows: {sweep:?}");
    assert!(sweep.windows(2).all(|w| w[0].1 > w[1].1), "decode rate must fall as the chunk grows: {sweep:?}");
}
