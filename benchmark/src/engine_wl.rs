//! The three engine workloads — `solo_stream`, `batch_mixed`,
//! `long_context` — driven through `veda::EngineBuilder`/`Engine` only.
//!
//! A round submits the workload's requests (closed loop: a client sends
//! its next request when its previous one finishes), steps the engine
//! until every request has finished, and drains the report. The engine is
//! built once in set-up and reused, so a round is submits + steps + drain.

use std::collections::BTreeMap;

use rand::Rng;
use veda::{Budget, Engine, EngineBuilder, EngineReport, EngineTick, Request, Session, TokenEvent};
use veda_eviction::PolicyKind;
use veda_model::{ModelConfig, TransformerModel};
use veda_tensor::activation::Activation;

use crate::catalogue::{BATCH_MIXED, LONG_CONTEXT, SOLO_STREAM};
use crate::harness::{self, Args, Checks, Ledger, Outcome, RequestTally};
use crate::host::{Stopwatch, Timed};
use crate::json::Json;
use crate::spans::{Recorder, Trace};
use crate::{engine_layers, host, input, stats};

/// One workload's fixed shape plus its seeded requests.
pub struct Spec {
    pub name: &'static str,
    pub model: ModelConfig,
    pub threads: usize,
    pub prefill_chunk: usize,
    /// Requests in flight at once (closed loop).
    pub clients: usize,
    pub requests: Vec<Request>,
}

/// Narrow model of `long_context`: attention over ~1k rows outweighs its
/// small linear layers.
fn narrow_model() -> ModelConfig {
    ModelConfig {
        vocab_size: 256,
        d_model: 64,
        n_heads: 4,
        n_layers: 2,
        ffn_hidden: 128,
        max_seq_len: 4096,
        activation: Activation::Silu,
        rope_theta: 10000.0,
        seed: 11,
    }
}

/// Builds the workload. Lengths are catalogue constants (or drawn from the
/// shape stream); only token ids come from `seed` — see [`input`].
pub fn spec(name: &str, seed: u64) -> Spec {
    match name {
        SOLO_STREAM => {
            let model = ModelConfig::small();
            let mut content = input::content_rng(seed, 1);
            let prompt = input::tokens(&mut content, 64, model.vocab_size);
            Spec {
                name: SOLO_STREAM,
                threads: 1,
                prefill_chunk: 16,
                clients: 1,
                requests: vec![Request::new(prompt, 768)
                    .policy(PolicyKind::Voting)
                    .budget(Budget::Fixed(512))],
                model,
            }
        }
        BATCH_MIXED => {
            let model = ModelConfig::small();
            let mut shape = input::shape_rng(2);
            let mut content = input::content_rng(seed, 2);
            let requests = (0..20)
                .map(|_| {
                    let prompt_len = shape.gen_range(32..=64usize);
                    let new_tokens = shape.gen_range(32..=48usize);
                    Request::new(input::tokens(&mut content, prompt_len, model.vocab_size), new_tokens)
                        .policy(PolicyKind::Voting)
                        .budget(Budget::Ratio(0.5))
                })
                .collect();
            Spec {
                name: BATCH_MIXED,
                threads: host::worker_threads(),
                prefill_chunk: 32,
                clients: 16,
                requests,
                model,
            }
        }
        LONG_CONTEXT => {
            let model = narrow_model();
            let mut content = input::content_rng(seed, 3);
            let requests =
                [(PolicyKind::Voting, 1024), (PolicyKind::H2o, 1280), (PolicyKind::SlidingWindow, 1536)]
                    .into_iter()
                    .map(|(policy, prompt_len)| {
                        Request::new(input::tokens(&mut content, prompt_len, model.vocab_size), 256)
                            .policy(policy)
                            .budget(Budget::Fixed(1024))
                    })
                    .collect();
            Spec { name: LONG_CONTEXT, threads: 1, prefill_chunk: 32, clients: 3, requests, model }
        }
        other => panic!("{other} is not an engine workload"),
    }
}

pub fn build_engine(spec: &Spec, threads: usize) -> Engine {
    EngineBuilder::new()
        .model(spec.model.clone())
        .decode_threads(threads)
        .prefill_chunk(spec.prefill_chunk)
        .build()
        .expect("the catalogue's engine configurations are valid")
}

/// The short full-cache request every set-up pushes through its fresh
/// engine; its tokens must equal `TransformerModel::generate_greedy`.
const TINY_PROMPT: [usize; 8] = [3, 17, 5, 9, 2, 11, 7, 13];
const TINY_NEW_TOKENS: usize = 8;

/// Ticks the untraced run replays on one thread (both prefill ticks of the
/// first wave and the first decode ticks).
const SERIAL_PREFIX_TICKS: usize = 12;

fn tiny_request_tokens(engine: &mut Engine) -> Vec<usize> {
    engine
        .submit(Request::new(TINY_PROMPT, TINY_NEW_TOKENS).budget(Budget::Unbounded))
        .expect("the tiny request is valid for every catalogue model");
    let mut report = engine.run_to_completion();
    report.requests.pop().map(|r| r.report.generated).unwrap_or_default()
}

/// One complete set-up: weights and engine, input generation, one tiny
/// verified request. No prompt is prefilled here — prefill is chunked, so
/// prompt work lands inside the rounds.
fn setup(name: &str, seed: u64) -> (Spec, Engine, Vec<usize>) {
    let spec = spec(name, seed);
    let mut engine = build_engine(&spec, spec.threads);
    let tiny = tiny_request_tokens(&mut engine);
    (spec, engine, tiny)
}

/// Everything one round produced, kept raw; derived after the clock stops.
pub struct RoundLog {
    pub ticks: Vec<EngineTick>,
    /// Ticks already executed when request `i` was submitted.
    pub submit_tick: Vec<usize>,
    pub sessions: Vec<Session>,
    pub report: EngineReport,
}

/// Runs one round. When traced, spans wrap the round and every call into
/// the engine (`engine.submit` carries the request index).
pub fn run_round(engine: &mut Engine, spec: &Spec, mut trace: Trace<'_>) -> (Timed, RoundLog) {
    let total = spec.requests.len();
    let mut ticks: Vec<EngineTick> = Vec::new();
    let mut submit_tick = Vec::with_capacity(total);
    let mut sessions = Vec::with_capacity(total);
    // Requests are cloned before the clock starts: building inputs is set-up.
    let mut pending: Vec<Request> = spec.requests.iter().rev().cloned().collect();
    let watch = Stopwatch::start();
    let round = trace.open("round", None, None);
    loop {
        while engine.active_sessions() < spec.clients {
            let Some(request) = pending.pop() else { break };
            let index = sessions.len() as u64;
            let session = trace
                .span("engine.submit", round, Some(index), || engine.submit(request))
                .expect("catalogue requests are valid");
            submit_tick.push(ticks.len());
            sessions.push(session);
        }
        if engine.active_sessions() == 0 {
            break;
        }
        ticks.push(trace.span("engine.step", round, None, || engine.step()));
    }
    let report = trace.span("engine.drain_report", round, None, || engine.drain_report());
    trace.close(round);
    (watch.stop(), RoundLog { ticks, submit_tick, sessions, report })
}

/// One round's raw log and what was derived from it.
pub struct Round {
    pub log: RoundLog,
    pub derived: Derived,
}

/// What the untraced metrics and the round-equality check need from a log.
pub struct Derived {
    /// Generated tokens per request, in submit order.
    pub streams: Vec<Vec<usize>>,
    pub forwarded_tokens: u64,
    pub generated_tokens: u64,
    pub itl_samples: usize,
    pub virt: Ledger,
}

pub fn derive(log: &RoundLog, clock_ghz: f64) -> Derived {
    let index_of: BTreeMap<Session, usize> = log.sessions.iter().enumerate().map(|(i, s)| (*s, i)).collect();
    let n = log.sessions.len();
    let mut streams = vec![Vec::new(); n];
    let mut first_token_tick: Vec<Option<usize>> = vec![None; n];
    let mut itl_cycles: Vec<u64> = Vec::new();
    let (mut cycles, mut energy_mj, mut kv_peak) = (0u64, 0.0f64, 0u64);
    let (mut prefill_tokens, mut decode_tokens) = (0u64, 0u64);
    // Prefix sums of tick cycles, for time-to-first-token.
    let mut cycles_before = Vec::with_capacity(log.ticks.len() + 1);
    for (t, tick) in log.ticks.iter().enumerate() {
        cycles_before.push(cycles);
        cycles += tick.batch_cycles;
        energy_mj += tick.batch_energy_mj;
        kv_peak = kv_peak.max(tick.kv_bytes_resident);
        prefill_tokens += tick.prefill_tokens as u64;
        decode_tokens += tick.decode_tokens as u64;
        for event in &tick.events {
            if let TokenEvent::Generated { session, token, .. } = *event {
                let i = index_of[&session];
                streams[i].push(token);
                first_token_tick[i].get_or_insert(t);
                itl_cycles.push(tick.batch_cycles);
            }
        }
    }
    cycles_before.push(cycles);
    itl_cycles.sort_unstable();
    let mut ttft_cycles: Vec<u64> = (0..n)
        .filter_map(|i| first_token_tick[i].map(|t| cycles_before[t + 1] - cycles_before[log.submit_tick[i]]))
        .collect();
    ttft_cycles.sort_unstable();

    let us = |c: u64| c as f64 / (clock_ghz * 1e3);
    let seconds = cycles as f64 / (clock_ghz * 1e9);
    let mut virt = Ledger::default();
    virt.set("virt_tok_s", decode_tokens as f64 / seconds);
    virt.set("virt_energy_mj_tok", energy_mj / decode_tokens.max(1) as f64);
    virt.set("virt_itl_us_p50", us(stats::nearest_rank(&itl_cycles, 0.5).unwrap_or(0)));
    virt.set("virt_itl_us_p99", us(stats::nearest_rank(&itl_cycles, 0.99).unwrap_or(0)));
    virt.set("virt_ttft_us_p50", us(stats::nearest_rank(&ttft_cycles, 0.5).unwrap_or(0)));
    virt.set("kv_peak_bytes", kv_peak as f64);
    Derived {
        streams,
        forwarded_tokens: prefill_tokens + decode_tokens,
        generated_tokens: decode_tokens,
        itl_samples: itl_cycles.len(),
        virt,
    }
}

/// Checks one round's log against itself and against round 0.
fn verify_round(checks: &mut Checks, spec: &Spec, r: usize, log: &RoundLog, d: &Derived, first: &Derived) {
    let unfinished = spec.requests.len() - log.report.requests.len();
    checks.check(unfinished == 0, || format!("round {r}: {unfinished} request(s) did not finish"));
    for outcome in &log.report.requests {
        let Some(i) = log.sessions.iter().position(|s| *s == outcome.session) else {
            checks.check(false, || format!("round {r}: report names unknown session {}", outcome.session));
            continue;
        };
        checks.check(outcome.report.generated == d.streams[i], || {
            format!("round {r}: request {i}: streamed tokens differ from the report's")
        });
        checks.check(outcome.report.generated.len() == spec.requests[i].max_new_tokens, || {
            format!("round {r}: request {i} generated {} tokens", outcome.report.generated.len())
        });
    }
    checks.check(d.streams == first.streams, || format!("round {r}: token streams differ from round 0"));
    checks.check(d.virt.bits() == first.virt.bits(), || {
        format!("round {r}: virtual metrics differ from round 0: {:?} vs {:?}", d.virt, first.virt)
    });
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let (setup_s, (spec, mut engine, tiny)) = harness::measure_setup(|| setup(&args.workload, args.seed));

    // The reference model is built once, outside the timed set-ups.
    let reference = TransformerModel::new(spec.model.clone()).generate_greedy(&TINY_PROMPT, TINY_NEW_TOKENS);
    checks.check(tiny == reference, || {
        format!("unbounded request {tiny:?} differs from generate_greedy {reference:?}")
    });

    let clock_ghz = engine.arch().clock_ghz;
    let mut recorder = args.trace.then(Recorder::new);

    let (rounds, untraced) = harness::run_rounds(
        args,
        |traced| {
            let (timed, log) =
                run_round(&mut engine, &spec, Trace(if traced { recorder.as_mut() } else { None }));
            // Derived after the clock stopped.
            let derived = derive(&log, clock_ghz);
            (timed, Round { log, derived })
        },
        |r, round, first| verify_round(&mut checks, &spec, r, &round.log, &round.derived, &first.derived),
    );
    // Read before the one-thread engine and the probes below add their own.
    let peak_rss_mib = host::peak_rss_mib();
    let first = &rounds.first().derived;

    // A second engine at one thread. Untraced, it replays the first ticks
    // and must produce the very same `EngineTick`s as the fan-out; traced,
    // it runs a whole round, which is also the base of `engine.thread_scaling`.
    let mut serial = None;
    if spec.threads > 1 {
        let mut engine = build_engine(&spec, 1);
        if args.trace {
            let mut rec = Recorder::new();
            let (wall, log) = run_round(&mut engine, &spec, Trace(Some(&mut rec)));
            let d = derive(&log, clock_ghz);
            checks.check(d.streams == first.streams, || {
                format!("token streams at {} threads differ from 1 thread", spec.threads)
            });
            checks.check(d.virt.bits() == first.virt.bits(), || {
                "virtual metrics depend on the thread count".into()
            });
            serial = Some(engine_layers::SerialRound { timed: wall, recorder: rec });
        } else {
            // The same history as the measured engine (one tiny request),
            // so session ids line up and whole ticks compare equal.
            checks.check(tiny_request_tokens(&mut engine) == reference, || {
                "unbounded request at 1 thread differs from generate_greedy".into()
            });
            for request in spec.requests.iter().take(spec.clients) {
                engine.submit(request.clone()).expect("catalogue requests are valid");
            }
            for (t, expected) in rounds.first().log.ticks.iter().take(SERIAL_PREFIX_TICKS).enumerate() {
                let tick = engine.step();
                checks.check(tick == *expected, || {
                    format!("tick {t} at 1 thread differs from {} threads", spec.threads)
                });
            }
        }
    }

    let requests = RequestTally {
        attempted: spec.requests.len() as u64,
        lost: (spec.requests.len() - rounds.first().log.report.requests.len()) as u64,
    };
    let median_wall = rounds.median_wall();
    let mut notes = rounds.notes();
    notes.extend([
        ("tokens_per_round", Json::Num(first.forwarded_tokens as f64)),
        ("itl_samples", Json::Num(first.itl_samples as f64)),
        ("itl_p99_has_ten_samples_beyond", Json::Bool(stats::tail_supported(first.itl_samples, 0.99))),
        ("threads", Json::Num(spec.threads as f64)),
        ("host_parallelism", Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64)),
    ]);

    let mut metrics = Ledger::default();
    if args.trace {
        let layers = engine_layers::Inputs {
            args,
            spec: &spec,
            engine: &engine,
            rounds: &rounds,
            first,
            untraced_raw_wall: untraced.median_raw_wall(),
            serial,
            recorder: recorder.as_ref().expect("traced runs record"),
        };
        engine_layers::measure(layers, &mut metrics, &mut checks, &mut notes);
    } else {
        metrics.set("setup_s", setup_s);
        metrics.set("host_tok_s", first.forwarded_tokens as f64 / median_wall);
        metrics.set("host_peak_rss_mb", peak_rss_mib.unwrap_or(f64::NAN));
        metrics.extend(first.virt.clone());
        metrics.set("completed_frac", harness::completed_frac(requests, &checks));
    }
    Outcome { metrics, checks, requests, notes, spans: recorder }
}
