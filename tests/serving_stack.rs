//! Cross-crate integration of the serving stack (Workload → Admission →
//! Scheduler → Engine): every arrival process × scheduling policy combo
//! completes and conserves requests, same-seed runs are bit-identical,
//! and capacity pressure produces preemption + costed swap traffic
//! without changing any request's generated token sequence.

use std::collections::BTreeMap;

use veda::EngineBuilder;
use veda_model::ModelConfig;
use veda_serving::{
    AdmissionConfig, ArrivalKind, RequestMix, SchedKind, Server, ServerConfig, ServingReport, Workload,
};

fn engine() -> veda::Engine {
    engine_with_threads(1)
}

fn engine_with_threads(threads: usize) -> veda::Engine {
    EngineBuilder::new().model(ModelConfig::tiny()).decode_threads(threads).build().expect("valid config")
}

fn workload(kind: ArrivalKind, seed: u64, total: usize) -> Workload {
    let mix = RequestMix::default();
    match kind {
        ArrivalKind::Poisson => Workload::poisson(seed, 0.6, total, mix),
        ArrivalKind::Burst => Workload::bursty(seed, 1.2, 6, 30, total, mix),
        ArrivalKind::Closed => Workload::closed_loop(seed, 3, 8.0, total, mix),
        ArrivalKind::Trace => {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(seed);
            Workload::trace((0..total).map(|i| (3 * i as u64, mix.sample(&mut rng, i))).collect())
        }
    }
}

fn run(kind: ArrivalKind, sched: SchedKind, seed: u64, capacity_bytes: u64) -> ServingReport {
    let config = ServerConfig {
        admission: AdmissionConfig { capacity_bytes, max_queue_depth: 64 },
        sched,
        ..ServerConfig::default()
    };
    Server::new(engine(), workload(kind, seed, 18), config).run()
}

/// Generated token streams keyed by arrival index (stable across
/// scheduling decisions, unlike session ids).
fn tokens_by_arrival(report: &ServingReport) -> BTreeMap<usize, Vec<usize>> {
    report
        .records
        .iter()
        .filter_map(|record| {
            let session = record.session?;
            let outcome = report.engine.requests.iter().find(|r| r.session == session)?;
            Some((record.arrival, outcome.report.generated.clone()))
        })
        .collect()
}

#[test]
fn every_arrival_process_times_every_scheduler_completes() {
    for kind in [ArrivalKind::Poisson, ArrivalKind::Burst, ArrivalKind::Closed] {
        for sched in [SchedKind::Fcfs, SchedKind::Srb, SchedKind::Priority] {
            let report = run(kind, sched, 11, 24 << 10);
            assert_eq!(report.arrival, kind);
            assert_eq!(report.sched, sched);
            assert_eq!(report.submitted, 18, "{kind}/{sched}");
            assert_eq!(
                report.completed + report.rejected(),
                report.submitted,
                "{kind}/{sched}: every request must complete or be rejected"
            );
            assert!(report.completed > 0, "{kind}/{sched}: something must finish");
            assert!(report.ttft().is_some(), "{kind}/{sched}: TTFT is reported");
            assert!(report.e2e().is_some(), "{kind}/{sched}: e2e latency is reported");
            assert!(report.decode_ticks > 0 && report.ticks >= report.decode_ticks);
            assert!(
                report.kv_resident_peak_bytes <= report.capacity_bytes,
                "{kind}/{sched}: resident KV must never exceed capacity"
            );
            assert!(report.kv_reserved_peak_bytes <= report.capacity_bytes, "{kind}/{sched}");
        }
    }
}

#[test]
fn round_robin_and_trace_also_complete() {
    let report = run(ArrivalKind::Trace, SchedKind::RoundRobin, 5, 24 << 10);
    assert_eq!(report.completed + report.rejected(), report.submitted);
    assert!(report.completed > 0);
}

#[test]
fn same_seed_runs_are_bit_identical() {
    for sched in [SchedKind::Fcfs, SchedKind::Priority] {
        let a = run(ArrivalKind::Poisson, sched, 7, 20 << 10);
        let b = run(ArrivalKind::Poisson, sched, 7, 20 << 10);
        assert_eq!(a, b, "{sched}: same seed must reproduce the full report");
        let c = run(ArrivalKind::Poisson, sched, 8, 20 << 10);
        assert_ne!(
            tokens_by_arrival(&a),
            tokens_by_arrival(&c),
            "{sched}: different seeds produce different workloads"
        );
    }
}

#[test]
fn parallel_decode_is_bit_identical_to_serial() {
    // The tentpole invariant of the session-parallel engine: the same
    // seeded request mix run at decode_threads 1, 2 and 8 yields
    // byte-identical ServingReports (and therefore EngineReports and
    // token streams) across arrival processes and schedulers. The default
    // RequestMix rotates through every eviction policy, so all policy
    // stacks cross the worker threads.
    let run_with_threads = |threads: usize, kind: ArrivalKind, sched: SchedKind| {
        let config = ServerConfig {
            admission: AdmissionConfig { capacity_bytes: 24 << 10, max_queue_depth: 64 },
            sched,
            ..ServerConfig::default()
        };
        Server::new(engine_with_threads(threads), workload(kind, 11, 18), config).run()
    };
    for kind in [ArrivalKind::Poisson, ArrivalKind::Burst] {
        for sched in [SchedKind::Fcfs, SchedKind::Srb, SchedKind::Priority] {
            let serial = run_with_threads(1, kind, sched);
            for threads in [2, 8] {
                let parallel = run_with_threads(threads, kind, sched);
                assert_eq!(parallel, serial, "{kind}/{sched}: decode_threads({threads}) changed the report");
                assert_eq!(
                    tokens_by_arrival(&parallel),
                    tokens_by_arrival(&serial),
                    "{kind}/{sched}: decode_threads({threads}) changed a token stream"
                );
            }
        }
    }
}

#[test]
fn capacity_pressure_preempts_and_costs_swap_without_changing_tokens() {
    // Uncontended reference: capacity so large nothing queues or preempts.
    let unconstrained = run(ArrivalKind::Poisson, SchedKind::Priority, 13, 8 << 30);
    assert_eq!(unconstrained.preemptions, 0);
    assert_eq!(unconstrained.swap_out_bytes, 0);
    assert_eq!(unconstrained.completed, unconstrained.submitted);

    // Tight capacity: the priority scheduler must preempt to admit
    // higher-priority arrivals, costing host-link swap traffic.
    let constrained = run(ArrivalKind::Poisson, SchedKind::Priority, 13, 14 << 10);
    assert!(constrained.preemptions > 0, "tight capacity must force preemption");
    assert_eq!(constrained.preemptions, constrained.resumes, "every victim resumes");
    assert!(constrained.swap_out_bytes > 0, "swap-out traffic is costed");
    assert_eq!(constrained.swap_in_bytes, constrained.swap_out_bytes, "KV returns unchanged");
    assert!(constrained.swap_cycles > 0, "host-link cycles are charged");
    assert_eq!(constrained.completed, constrained.submitted, "pressure delays, never kills");
    assert!(
        constrained.e2e().unwrap().max >= unconstrained.e2e().unwrap().max,
        "contention cannot make the slowest request faster"
    );

    // The acceptance invariant: preemption + swap changes *when* tokens
    // appear, never *which* tokens a request generates.
    assert_eq!(
        tokens_by_arrival(&constrained),
        tokens_by_arrival(&unconstrained),
        "preemption must not change any generated token sequence"
    );
}

#[test]
fn oversized_requests_are_rejected_not_wedged() {
    // Capacity below the largest possible request: some arrivals can
    // never fit and must be rejected immediately; the rest still finish.
    let mix = RequestMix::default();
    let max_est = (mix.prompt_len.1 + mix.max_new_tokens.1) as u64 * engine().kv_bytes_per_token();
    let capacity = max_est / 2;
    let config = ServerConfig {
        admission: AdmissionConfig { capacity_bytes: capacity, max_queue_depth: 64 },
        sched: SchedKind::Fcfs,
        ..ServerConfig::default()
    };
    let report = Server::new(engine(), Workload::poisson(29, 0.6, 18, mix), config).run();
    assert!(report.rejected_never_fits > 0, "some requests exceed half the max footprint");
    assert_eq!(report.completed + report.rejected(), report.submitted);
    assert!(report.records.iter().all(|r| r.finished.is_some() || r.rejected.is_some()));
}

#[test]
fn queue_depth_limit_rejects_overflow() {
    let config = ServerConfig {
        // Tiny queue + tiny capacity: a burst must overflow it.
        admission: AdmissionConfig { capacity_bytes: 13 << 10, max_queue_depth: 2 },
        sched: SchedKind::Fcfs,
        ..ServerConfig::default()
    };
    let report = Server::new(engine(), workload(ArrivalKind::Burst, 17, 18), config).run();
    assert!(report.rejected_queue_full > 0, "burst must overflow a depth-2 queue");
    assert_eq!(report.completed + report.rejected(), report.submitted);
}

#[test]
fn closed_loop_drains_even_when_requests_are_rejected() {
    // Regression: a rejected request must still free its closed-loop user
    // (otherwise the workload never exhausts and the run spins to the
    // max_ticks safety valve). Capacity below the largest request forces
    // never-fits rejections under closed-loop arrivals.
    let mix = RequestMix::default();
    let max_est = (mix.prompt_len.1 + mix.max_new_tokens.1) as u64 * engine().kv_bytes_per_token();
    let config = ServerConfig {
        admission: AdmissionConfig { capacity_bytes: max_est / 2, max_queue_depth: 64 },
        sched: SchedKind::Fcfs,
        ..ServerConfig::default()
    };
    let report = Server::new(engine(), Workload::closed_loop(41, 3, 6.0, 18, mix), config).run();
    assert_eq!(report.submitted, 18, "every closed-loop request must eventually arrive");
    assert!(report.rejected_never_fits > 0, "tiny capacity must reject some requests");
    assert_eq!(report.completed + report.rejected(), report.submitted);
    assert!(report.ticks < ServerConfig::default().max_ticks, "run must drain, not hit the valve");
}

#[test]
fn invalid_trace_requests_are_rejected_cleanly() {
    use veda::{Budget, Request};
    use veda_serving::ServingRequest;
    let mix = RequestMix::default();
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(23)
    };
    let bad = |request: Request| ServingRequest { request, priority: 0 };
    let arrivals = vec![
        (0, bad(Request::new(vec![], 4))),          // empty prompt
        (0, bad(Request::new(vec![1, 2, 3], 0))),   // nothing to generate
        (1, bad(Request::new(vec![1, 99_999], 4))), // out of vocabulary
        (1, bad(Request::new(vec![1, 2, 3], 4).budget(Budget::Fixed(0)))), // unusable budget
        (2, mix.sample(&mut rng, 0)),               // one valid request
    ];
    let report = Server::new(engine(), Workload::trace(arrivals), ServerConfig::default()).run();
    assert_eq!(report.rejected_invalid, 4, "all malformed requests are rejected, not panicked on");
    assert_eq!(report.completed, 1, "the valid request still completes");
    assert_eq!(report.completed + report.rejected(), report.submitted);
}

#[test]
fn budget_shrink_mode_tightens_caps_under_pressure() {
    use veda_eviction::{BudgetController, PressureConfig};
    let controller =
        BudgetController::new(PressureConfig { high_watermark: 0.5, low_watermark: 0.35, floor_tokens: 6 });
    let config = ServerConfig {
        admission: AdmissionConfig { capacity_bytes: 20 << 10, max_queue_depth: 64 },
        sched: SchedKind::Fcfs,
        shrink: Some(controller),
        ..ServerConfig::default()
    };
    let report = Server::new(engine(), workload(ArrivalKind::Poisson, 13, 18), config).run();
    assert!(report.budget_shrinks > 0, "high occupancy must trigger budget shrinking");
    assert_eq!(report.completed + report.rejected(), report.submitted);
    // Shrinking is the lossy pressure response: token streams may legally
    // differ from an unconstrained run, but counts still conserve.
    assert!(report.kv_resident_peak_bytes <= report.capacity_bytes);
}

#[test]
fn chunked_prefill_makes_ttft_real_and_monotone_in_prompt_length() {
    // Three lone requests (arrivals spaced so nothing queues or batches)
    // under FCFS with a finite prefill chunk: TTFT must be strictly
    // positive — the prompt is consumed on the clock, not instantly at
    // admission — and monotone in prompt length.
    use veda::Request;
    use veda_serving::ServingRequest;
    let chunk = 4;
    let engine =
        EngineBuilder::new().model(ModelConfig::tiny()).prefill_chunk(chunk).build().expect("valid config");
    let prompt_lens = [8usize, 16, 32];
    let arrivals = prompt_lens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let prompt: Vec<usize> = (0..len).map(|j| (j * 3 + 1) % 60 + 1).collect();
            (300 * i as u64, ServingRequest { request: Request::new(prompt, 4), priority: 0 })
        })
        .collect();
    let config = ServerConfig { sched: SchedKind::Fcfs, ..ServerConfig::default() };
    let report = Server::new(engine, Workload::trace(arrivals), config).run();
    assert_eq!(report.completed, 3);

    let ttfts: Vec<u64> =
        report.records.iter().map(|r| r.ttft().expect("completed request has a TTFT")).collect();
    for (i, (&ttft, &len)) in ttfts.iter().zip(&prompt_lens).enumerate() {
        assert!(ttft > 0, "request {i}: chunked prefill must make TTFT strictly positive");
        assert!(
            ttft >= (len as u64).div_ceil(chunk as u64),
            "request {i}: TTFT {ttft} cannot beat its own prefill ({len} tokens at chunk {chunk})"
        );
    }
    assert!(ttfts.windows(2).all(|w| w[0] < w[1]), "TTFT must grow with prompt length: {ttfts:?}");
    assert!(report.ttft().expect("completed requests").p50 > 0, "TTFT percentiles are nonzero");
    assert!(report.engine.prefill_tokens > 0, "prompt tokens land on the clock");
}

#[test]
fn chunked_prefill_stack_is_bit_identical_across_threads() {
    // The parallel fan-out covers prefill chunks exactly like decode
    // steps: a chunked-prefill serving run must not depend on the worker
    // thread count.
    let run_chunked = |threads: usize| {
        let engine = EngineBuilder::new()
            .model(ModelConfig::tiny())
            .decode_threads(threads)
            .prefill_chunk(4)
            .build()
            .expect("valid config");
        let config = ServerConfig {
            admission: AdmissionConfig { capacity_bytes: 24 << 10, max_queue_depth: 64 },
            sched: SchedKind::Fcfs,
            ..ServerConfig::default()
        };
        Server::new(engine, workload(ArrivalKind::Poisson, 11, 18), config).run()
    };
    let serial = run_chunked(1);
    assert!(serial.engine.prefill_tokens > 0, "chunked prefill must be exercised");
    for threads in [2, 8] {
        let parallel = run_chunked(threads);
        assert_eq!(parallel, serial, "decode_threads({threads}) changed a chunked-prefill run");
    }
}

#[test]
fn swap_latency_delays_resumed_sessions_without_changing_tokens() {
    // The serialized-swap invariant: under capacity pressure, every
    // swap-in parks its session for at least one tick (the transfer's
    // cycles must elapse on the clock), yet the delay changes only when
    // tokens appear, never which tokens a request generates.
    let unconstrained = run(ArrivalKind::Poisson, SchedKind::Priority, 13, 8 << 30);
    assert_eq!(unconstrained.swap_wait_ticks, 0, "no pressure, no swap waits");

    let constrained = run(ArrivalKind::Poisson, SchedKind::Priority, 13, 14 << 10);
    assert!(constrained.resumes > 0, "tight capacity must force swap-ins");
    assert!(
        constrained.swap_wait_ticks >= constrained.resumes,
        "each swap-in waits at least one tick: {} waits for {} resumes",
        constrained.swap_wait_ticks,
        constrained.resumes
    );
    assert_eq!(constrained.completed, constrained.submitted, "swap latency delays, never kills");
    assert_eq!(
        tokens_by_arrival(&constrained),
        tokens_by_arrival(&unconstrained),
        "swap latency must not change any generated token sequence"
    );
}

#[test]
fn shared_prefix_cache_admits_more_sessions_under_capacity_pressure() {
    // The serving-level payoff of shared-prefix KV reuse: under the same
    // tight capacity and bounded queue, a workload of prompts sharing a
    // long prefix admits strictly more sessions (equivalently, rejects
    // fewer) when the engine's prefix cache is enabled — because known-
    // prefix arrivals reserve only their unshared peak bytes — while
    // every request that completes in both runs generates the identical
    // token stream. Unbounded budgets make every request eviction-free,
    // the soundness condition for the admission discount
    // (`Request::never_evicts`): budgeted sessions could privatize their
    // shared span by evicting inside it, so they reserve full peaks.
    use veda::{Budget, PrefixCacheConfig};

    let mix = || RequestMix {
        shared_prefix_len: 24,
        prefix_groups: 1,
        prompt_len: (3, 6), // private suffix bounds on top of the prefix
        max_new_tokens: (4, 8),
        budgets: vec![Budget::Unbounded],
        ..RequestMix::default()
    };
    let per_token = engine().kv_bytes_per_token();
    // Room for roughly two unshared peaks (≈ 38 resident tokens each):
    // without sharing the queue backs up and overflows; with sharing the
    // ≈ 14-token unshared footprints pack several sessions deep.
    let capacity = 80 * per_token;
    let run = |prefix_cache: bool| {
        let mut builder = EngineBuilder::new().model(ModelConfig::tiny());
        if prefix_cache {
            // Bound the (churn-free: no TTL, no spill) cache to half the
            // capacity so its overhead can never crowd admissions out —
            // the sizing rule the admission docs prescribe.
            builder = builder.prefix_cache(PrefixCacheConfig {
                min_match_tokens: 8,
                max_entries: 8,
                max_bytes: capacity / 2,
                ..PrefixCacheConfig::default()
            });
        }
        let engine = builder.build().expect("valid config");
        let config = ServerConfig {
            admission: AdmissionConfig { capacity_bytes: capacity, max_queue_depth: 3 },
            sched: SchedKind::Fcfs,
            ..ServerConfig::default()
        };
        // Rate 0.8: fast enough that tight capacity backs the queue up
        // (rejections without the cache), slow enough that arrivals after
        // the first admission see its cached prefix.
        Server::new(engine, Workload::poisson(19, 0.8, 24, mix()), config).run()
    };

    let disabled = run(false);
    let enabled = run(true);
    assert_eq!(disabled.engine.prefix.hits, 0);
    assert!(enabled.engine.prefix.hits > 0, "shared prompts must hit the cache");
    assert!(enabled.prefix_saved_tokens() > 0);
    assert!(
        disabled.rejected() > 0,
        "the pressure point must actually reject without the cache (tune capacity/queue if not)"
    );
    assert!(
        enabled.admitted > disabled.admitted,
        "prefix sharing must admit strictly more sessions: {} vs {}",
        enabled.admitted,
        disabled.admitted
    );
    assert!(enabled.rejected() < disabled.rejected());

    // Unchanged per-session token streams: every arrival that completed
    // in both runs generated exactly the same tokens.
    let with = tokens_by_arrival(&enabled);
    let without = tokens_by_arrival(&disabled);
    let mut compared = 0;
    for (arrival, tokens) in &without {
        if let Some(shared_run) = with.get(arrival) {
            assert_eq!(shared_run, tokens, "arrival {arrival}: prefix sharing changed a token stream");
            compared += 1;
        }
    }
    assert!(compared > 0, "some requests must complete in both runs");

    // The sharing is honest accounting, not off-the-books capacity: the
    // reported resident peak includes the cache's own entries (counted
    // once) and still fits the configured capacity.
    assert!(enabled.engine.prefix.resident_bytes > 0);
    assert!(
        enabled.kv_resident_peak_bytes <= enabled.capacity_bytes,
        "resident KV (sessions + prefix cache) must fit capacity: {} vs {}",
        enabled.kv_resident_peak_bytes,
        enabled.capacity_bytes
    );
}

#[test]
fn spill_tier_admits_more_than_drop_on_evict_at_equal_cache_bytes() {
    // Prefix-cache churn under admission pressure: a byte-starved cache
    // (6 KiB) over shared-prefix traffic that backs a 32 KiB server up.
    // With spill on, entries evicted for room move to the host tier and
    // later arrivals still hit them (one fill DMA, then the shared span
    // skips on-clock prefill), so the queue turns over faster and strictly
    // more requests are admitted than when eviction drops the entry. At
    // 12 KiB the cache seldom needs room, and the two admit alike.
    use veda::{Budget, PrefixCacheConfig};

    let run = |cache_kb: u64, spill: bool| {
        let engine = EngineBuilder::new()
            .model(ModelConfig::tiny())
            .prefill_chunk(4)
            .prefix_cache(PrefixCacheConfig {
                min_match_tokens: 4,
                max_entries: 16,
                max_bytes: cache_kb << 10,
                ttl_ticks: 64,
                spill,
            })
            .build()
            .expect("valid config");
        let mix = RequestMix {
            shared_prefix_len: 16,
            prefix_groups: 2,
            prompt_len: (4, 7),
            budgets: vec![Budget::Unbounded],
            ..RequestMix::default()
        };
        let config = ServerConfig {
            admission: AdmissionConfig { capacity_bytes: 32 << 10, max_queue_depth: 6 },
            sched: SchedKind::Fcfs,
            ..ServerConfig::default()
        };
        Server::new(engine, Workload::poisson(29, 0.8, 40, mix), config).run()
    };

    let dropped = run(6, false);
    let spilled = run(6, true);
    assert!(dropped.rejected() > 0, "the pressure point must reject (tune capacity/queue if not)");
    assert!(
        spilled.admitted > dropped.admitted,
        "at equal cache bytes the spill tier must admit strictly more than drop-on-evict: {} vs {}",
        spilled.admitted,
        dropped.admitted
    );
    let (spill, drop) = (&spilled.engine.prefix, &dropped.engine.prefix);
    assert!(spill.spills > 0 && spill.fills > 0, "the starved spill-on cache must spill and fill: {spill:?}");
    assert_eq!(spill.evictions, 0, "spill-on caches spill instead of dropping");
    assert!(drop.evictions > 0 && drop.spills == 0, "the spill-off cache must drop on eviction: {drop:?}");
    assert!(spill.hit_rate() > drop.hit_rate(), "spilled entries stay hittable");

    // Spilling changes which requests are admitted, never which tokens an
    // admitted request generates.
    let with = tokens_by_arrival(&spilled);
    let mut compared = 0;
    for (arrival, tokens) in &tokens_by_arrival(&dropped) {
        if let Some(spill_run) = with.get(arrival) {
            assert_eq!(spill_run, tokens, "arrival {arrival}: the spill tier changed a token stream");
            compared += 1;
        }
    }
    assert!(compared > 0, "some requests must complete in both runs");

    let comfortable = (run(12, false), run(12, true));
    assert_eq!(
        comfortable.0.admitted, comfortable.1.admitted,
        "with room to spare, spill and drop-on-evict admit the same requests"
    );
}

#[test]
fn report_display_shows_latency_table() {
    let text = run(ArrivalKind::Poisson, SchedKind::Srb, 3, 20 << 10).to_string();
    for needle in ["ttft", "p50", "p95", "p99", "queue depth", "preemptions", "rejected", "swap traffic"] {
        assert!(text.contains(needle), "report must mention {needle:?}:\n{text}");
    }
}
