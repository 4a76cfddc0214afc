//! Integration + property tests for the fault-injection plane:
//!
//! * **determinism invariant #9** — a cluster configured with the
//!   default (no-op) `FaultConfig` is byte-identical to one with no
//!   fault plane at all: same `ClusterReport`, same rendered bytes, same
//!   Chrome trace. And a crashy scenario is bit-identical at any decode
//!   thread count.
//! * **exactly-once recovery** — a crash-with-recovery run completes
//!   every non-rejected request exactly once: sessions are lost, retries
//!   happen, nothing is double-finished and nothing is dropped.
//! * **chaos conservation** — under randomized fault schedules, routers,
//!   shard counts, deadlines and shedding, every tick satisfies
//!   `submitted = completed + rejected + dead-lettered + shed +
//!   in-flight`, and every run drains.
//! * **rejoin determinism** — a recovered shard re-enters rotation at
//!   its scheduled tick and receives traffic again, identically across
//!   repeated runs.
//! * **ci chaos smoke** — the fixed-seed crash-and-recover scenario the
//!   CI workflow runs: nonzero retries, zero dead letters, balanced
//!   ShardDown/ShardUp events.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use veda::{EngineBuilder, PrefixCacheConfig};
use veda_model::ModelConfig;
use veda_serving::{
    chrome_trace_json, Cluster, ClusterConfig, FaultConfig, FaultPlan, MigrationConfig, RecordingSink,
    RequestMix, RetryPolicy, RouterKind, SchedKind, ServeError, SinkHandle, TraceEvent, TraceEventKind,
    Workload,
};

fn engine(threads: usize) -> veda::Engine {
    EngineBuilder::new()
        .model(ModelConfig::tiny())
        .prefill_chunk(4)
        .decode_threads(threads)
        .build()
        .expect("valid config")
}

fn workload(seed: u64, rate: f64, requests: usize) -> Workload {
    Workload::poisson(seed, rate, requests, RequestMix::default())
}

/// Runs a cluster with the given fault plane, recording its trace.
fn run_faulted(
    seed: u64,
    shards: usize,
    threads: usize,
    faults: Option<FaultConfig>,
    requests: usize,
) -> (veda_serving::ClusterReport, Vec<TraceEvent>) {
    let (handle, recorder): (SinkHandle, Arc<Mutex<RecordingSink>>) = SinkHandle::recording();
    let config = ClusterConfig {
        shards,
        per_shard_capacity_bytes: 14 << 10,
        max_queue_depth: 32,
        router: RouterKind::RoundRobin,
        sched: SchedKind::Fcfs,
        trace: Some(handle),
        faults,
        ..ClusterConfig::default()
    };
    let engines = (0..shards).map(|_| engine(threads)).collect();
    let report = Cluster::new(engines, workload(seed, 0.6, requests), config).run();
    let events = recorder.lock().expect("recorder lock").take_events();
    (report, events)
}

fn crash_and_recover() -> FaultConfig {
    FaultConfig {
        plan: FaultPlan::parse("crash@6:shard=1:recover=30").expect("valid plan"),
        ..FaultConfig::default()
    }
}

#[test]
fn empty_fault_plane_is_byte_identical_to_none() {
    // Determinism invariant #9 (pinned): the no-op fault plane and the
    // absent fault plane are the same run, down to the trace bytes.
    let (without, without_events) = run_faulted(11, 2, 1, None, 14);
    let (with, with_events) = run_faulted(11, 2, 1, Some(FaultConfig::default()), 14);
    assert_eq!(without, with, "reports must be identical");
    assert_eq!(without.to_string(), with.to_string(), "rendered reports must be identical");
    assert_eq!(
        chrome_trace_json(&without_events),
        chrome_trace_json(&with_events),
        "trace bytes must be identical"
    );
}

#[test]
fn faulted_run_bit_identical_across_thread_counts() {
    // Invariant #9's second half: the same seed + the same plan is
    // bit-identical at any decode thread count, crashes and all.
    let faults = FaultConfig {
        plan: FaultPlan::parse("crash@6:shard=1:recover=30:drain=2;degrade@3-40:shard=0:bw=0.25")
            .expect("valid plan"),
        ttft_deadline: Some(64),
        e2e_deadline: Some(256),
        shed_watermark: Some(0.9),
        ..FaultConfig::default()
    };
    let (baseline, baseline_events) = run_faulted(41, 2, 1, Some(faults.clone()), 16);
    let trace = chrome_trace_json(&baseline_events);
    for threads in [2, 8] {
        let (other, other_events) = run_faulted(41, 2, threads, Some(faults.clone()), 16);
        assert_eq!(baseline, other, "report differs at {threads} decode threads");
        assert_eq!(trace, chrome_trace_json(&other_events), "trace differs at {threads} decode threads");
    }
}

#[test]
fn crash_with_recovery_completes_every_request_exactly_once() {
    let (report, events) = run_faulted(7, 2, 1, Some(crash_and_recover()), 14);
    assert!(report.shard_downs == 1 && report.shard_ups == 1, "one crash, one recovery");
    assert!(report.retries > 0, "the crash must displace work into retries");
    assert_eq!(report.dead_letters, 0, "with a healthy peer nothing exhausts its retries");
    assert_eq!(report.shed, 0, "no watermark armed");
    assert_eq!(
        report.completed() + report.rejected(),
        report.submitted(),
        "every request resolves exactly once"
    );
    // Exactly-once at the event level: one terminal event per arrival.
    let mut finished_per_arrival = std::collections::BTreeMap::new();
    for event in &events {
        if matches!(event.kind, TraceEventKind::Finished { .. }) {
            *finished_per_arrival.entry(event.request).or_insert(0u32) += 1;
        }
    }
    assert!(
        finished_per_arrival.values().all(|&n| n == 1),
        "no request finishes twice, even after a lost attempt"
    );
    assert_eq!(finished_per_arrival.len(), report.completed(), "every completion has its event");
    // The lost sessions really were lost and re-prefilled: recovery
    // latency is observable on the surviving records.
    if report.lost_sessions > 0 {
        assert!(report.recovery().is_some(), "lost-then-recovered requests record their recovery wait");
    }
}

/// Engine with a deliberately starved, spill-enabled prefix cache: a
/// tiny byte bound and a short TTL force spill/fill/expiry churn while
/// the fault plane crashes shards and retries displaced work.
fn churny_engine(threads: usize) -> veda::Engine {
    EngineBuilder::new()
        .model(ModelConfig::tiny())
        .prefill_chunk(4)
        .decode_threads(threads)
        .prefix_cache(PrefixCacheConfig {
            min_match_tokens: 4,
            max_entries: 8,
            max_bytes: 13 << 10,
            ttl_ticks: 10,
            spill: true,
        })
        .build()
        .expect("valid config")
}

/// Crash + retry + spill, end to end: a crashed shard discards its
/// sessions (their seed pins release, so their entries become churnable
/// again), the retries re-prefill through a cache that is actively
/// spilling and expiring — and the run must still complete every
/// request exactly once, conserve cache entries on every shard, and be
/// bit-identical across decode thread counts.
#[test]
fn crash_retry_and_spill_churn_is_exactly_once_and_thread_invariant() {
    let run = |threads: usize| {
        let (handle, recorder) = SinkHandle::recording();
        let config = ClusterConfig {
            shards: 2,
            per_shard_capacity_bytes: 40 << 10,
            max_queue_depth: 32,
            router: RouterKind::PrefixAffinity,
            sched: SchedKind::Fcfs,
            trace: Some(handle),
            faults: Some(crash_and_recover()),
            ..ClusterConfig::default()
        };
        let engines = (0..2).map(|_| churny_engine(threads)).collect();
        let mix = RequestMix { shared_prefix_len: 12, prefix_groups: 3, ..RequestMix::default() };
        let report = Cluster::new(engines, Workload::poisson(7, 0.8, 28, mix), config).run();
        let events = recorder.lock().expect("recorder lock").take_events();
        (report, events)
    };
    let (report, events) = run(1);

    // The scenario actually exercises the churn plane.
    let (evictions, expiries, spills, fills) = report.prefix_churn();
    assert!(spills > 0, "the starved cache must spill under this load");
    assert!(fills > 0, "at least one spilled entry must be promoted back (got f{fills})");
    assert!(expiries > 0, "idle entries must hit the TTL (got x{expiries})");
    assert_eq!(evictions, 0, "spill-on caches spill instead of dropping");
    assert!(report.retries > 0, "the crash must displace work into retries");

    // Exactly-once, crash and churn notwithstanding.
    assert_eq!(
        report.completed() + report.rejected() + report.dead_letters as usize + report.shed as usize,
        report.submitted(),
        "terminal states partition the arrivals"
    );
    let mut finished_per_arrival = std::collections::BTreeMap::new();
    for event in &events {
        if matches!(event.kind, TraceEventKind::Finished { .. }) {
            *finished_per_arrival.entry(event.request).or_insert(0u32) += 1;
        }
    }
    assert!(finished_per_arrival.values().all(|&n| n == 1), "no request finishes twice");
    assert_eq!(finished_per_arrival.len(), report.completed(), "every completion has its event");

    // Cache-entry conservation closes on every shard, and spill traffic
    // was billed to the host links.
    for shard in &report.shards {
        assert!(
            shard.engine.prefix.entries_conserved(),
            "shard {}: cache entry conservation broke: {:?}",
            shard.shard_id,
            shard.engine.prefix
        );
        assert_eq!(
            shard.prefix_spill_bytes, shard.engine.prefix.spill_bytes,
            "shard {}: every spilled byte crosses the host link exactly once",
            shard.shard_id
        );
        assert_eq!(
            shard.prefix_fill_bytes, shard.engine.prefix.fill_bytes,
            "shard {}: every filled byte crosses the host link exactly once",
            shard.shard_id
        );
    }

    // Bit-identical across decode thread counts, churn and all.
    let trace = chrome_trace_json(&events);
    for threads in [2, 8] {
        let (other, other_events) = run(threads);
        assert_eq!(report, other, "churny faulted report differs at {threads} decode threads");
        assert_eq!(
            trace,
            chrome_trace_json(&other_events),
            "churny faulted trace differs at {threads} decode threads"
        );
    }
}

#[test]
fn recovered_shard_rejoins_rotation_deterministically() {
    let (first, first_events) = run_faulted(19, 2, 1, Some(crash_and_recover()), 20);
    let (second, _) = run_faulted(19, 2, 1, Some(crash_and_recover()), 20);
    assert_eq!(first, second, "the same seed + plan reproduces the same run bit-for-bit");
    let downs = first_events.iter().filter(|e| matches!(e.kind, TraceEventKind::ShardDown { .. })).count();
    let ups = first_events.iter().filter(|e| matches!(e.kind, TraceEventKind::ShardUp { .. })).count();
    assert_eq!((downs, ups), (1, 1), "one ShardDown matched by one ShardUp");
    // After the recovery tick the shard takes traffic again.
    let rejoined =
        first_events.iter().any(|e| e.shard == 1 && e.tick >= 30 && matches!(e.kind, TraceEventKind::Queued));
    assert!(rejoined, "the recovered shard must receive queued work after tick 30");
    assert!(first.availability() < 1.0, "the outage must dent availability");
    assert!(first.availability() > 0.5, "but only one shard of two was down, briefly");
}

#[test]
fn deadlines_time_out_and_dead_letter() {
    // A 1-tick TTFT deadline with a single attempt: everything that
    // queues for even one tick times out and dead-letters immediately.
    let faults = FaultConfig {
        ttft_deadline: Some(1),
        retry: RetryPolicy { max_attempts: 1, backoff_base: 1 },
        ..FaultConfig::default()
    };
    let (report, events) = run_faulted(13, 2, 1, Some(faults), 14);
    assert!(report.timeouts > 0, "a 1-tick TTFT deadline must fire");
    assert!(report.dead_letters > 0, "a 1-attempt budget must exhaust");
    assert_eq!(
        report.completed() + report.rejected() + report.dead_letters as usize + report.shed as usize,
        report.submitted(),
        "terminal states partition the arrivals"
    );
    assert!(
        events.iter().any(|e| matches!(e.kind, TraceEventKind::TimedOut { deadline: "ttft" })),
        "timeouts are traced with their deadline kind"
    );
}

#[test]
fn an_unbounded_backoff_parks_retries_until_the_safety_valve() {
    // A backoff of u64::MAX ticks: the ready tick saturates instead of
    // overflowing (or wrapping into an immediate retry), and the idle
    // fast-forward stops at max_ticks instead of jumping to it.
    let max_ticks = 5_000;
    let build = || {
        let config = ClusterConfig {
            shards: 2,
            max_ticks,
            faults: Some(FaultConfig {
                plan: FaultPlan::parse("crash@12:shard=1").expect("valid plan"),
                retry: RetryPolicy { backoff_base: u64::MAX, ..RetryPolicy::default() },
                ..FaultConfig::default()
            }),
            ..ClusterConfig::default()
        };
        let engines = (0..2).map(|_| engine(1)).collect();
        Cluster::new(engines, workload(5, 2.0, 40), config)
    };
    let mut cluster = build();
    while !cluster.is_done() && cluster.now() < max_ticks {
        cluster.tick();
        assert!(cluster.now() <= max_ticks, "the clock jumped past the safety valve");
        assert_eq!(
            cluster.submitted(),
            cluster.completed()
                + cluster.rejected()
                + cluster.dead_lettered()
                + cluster.shed()
                + cluster.in_flight(),
            "conservation broke at tick {}",
            cluster.now()
        );
    }
    assert_eq!(cluster.now(), max_ticks, "parked retries keep the run alive until the valve");
    assert!(cluster.retries() > 0, "the crash must displace work into retries");
    assert_eq!(cluster.in_flight() as u64, cluster.retries(), "every retry is still parked, and in flight");
    let report = build().run();
    assert_eq!((report.ticks, report.retries), (max_ticks, cluster.retries()));
}

#[test]
fn each_fault_scenario_moves_its_own_signal() {
    // One pressured 2-shard run (tight KV and preemptive tiers keep swap
    // DMA on the host links) under four fault plans: every delta against
    // the fault-free baseline is the fault plane's doing.
    let run = |spec: &str| {
        let config = ClusterConfig {
            shards: 2,
            per_shard_capacity_bytes: 10 << 10,
            max_queue_depth: 12,
            router: RouterKind::RoundRobin,
            sched: SchedKind::Priority,
            faults: Some(FaultConfig {
                plan: FaultPlan::parse(spec).expect("valid plan"),
                e2e_deadline: Some(512),
                ..FaultConfig::default()
            }),
            ..ClusterConfig::default()
        };
        let engines = (0..2).map(|_| engine(1)).collect();
        let report = Cluster::new(engines, workload(7, 2.5, 24), config).run();
        let swap_cycles: u64 = report.shards.iter().map(|s| s.swap_cycles).sum();
        (report, swap_cycles)
    };
    let (baseline, baseline_swap) = run("");
    assert_eq!((baseline.retries, baseline.availability()), (0, 1.0), "the baseline is fault-free");
    assert!(baseline_swap > 0, "the pressure point must put swap DMA on the host links");

    let (recovered, _) = run("crash@8:shard=1:recover=48:drain=2");
    assert!(recovered.retries > 0, "a crash must displace work into retries");
    assert!(recovered.availability() < 1.0, "a crash must dent availability");

    let (permanent, _) = run("crash@8:shard=1");
    assert!(
        permanent.availability() < recovered.availability(),
        "a shard that never recovers costs more availability: {} vs {}",
        permanent.availability(),
        recovered.availability()
    );

    let (degraded, degraded_swap) = run("degrade@4-400:shard=0:bw=0.1");
    assert_eq!((degraded.retries, degraded.availability()), (0, 1.0), "a slow link is not an outage");
    assert!(
        degraded_swap > baseline_swap,
        "the same swap DMA must cost more cycles over the degraded link: {degraded_swap} vs {baseline_swap}"
    );
}

#[test]
fn watermark_sheds_under_overload() {
    // A tiny queue with a burst of arrivals and a low watermark: the
    // shedder must fire, and shed requests are terminal.
    let (handle, recorder) = SinkHandle::recording();
    let config = ClusterConfig {
        shards: 2,
        per_shard_capacity_bytes: 14 << 10,
        max_queue_depth: 4,
        router: RouterKind::RoundRobin,
        sched: SchedKind::Fcfs,
        trace: Some(handle),
        faults: Some(FaultConfig { shed_watermark: Some(0.5), ..FaultConfig::default() }),
        ..ClusterConfig::default()
    };
    let engines = (0..2).map(|_| engine(1)).collect();
    let report = Cluster::new(engines, workload(3, 8.0, 24), config).run();
    let events = recorder.lock().expect("recorder lock").take_events();
    assert!(report.shed > 0, "a 0.5 watermark over 8 slots must shed under a rate-8 burst");
    assert_eq!(
        report.completed() + report.rejected() + report.dead_letters as usize + report.shed as usize,
        report.submitted(),
        "shed requests are terminal and accounted"
    );
    let shed_events = events.iter().filter(|e| matches!(e.kind, TraceEventKind::Shed)).count();
    assert_eq!(shed_events as u64, report.shed, "every shed is traced once");
}

#[test]
fn try_new_returns_typed_errors() {
    let mk = |n: usize| (0..n).map(|_| engine(1)).collect::<Vec<_>>();
    let config = ClusterConfig { shards: 2, ..ClusterConfig::default() };
    let err = Cluster::try_new(mk(3), workload(1, 0.5, 4), config.clone()).expect_err("must fail");
    assert_eq!(err, ServeError::EngineCountMismatch { engines: 3, shards: 2 });
    let bad_plan = ClusterConfig {
        shards: 2,
        faults: Some(FaultConfig {
            plan: FaultPlan::parse("crash@5:shard=9").expect("parses"),
            ..FaultConfig::default()
        }),
        ..ClusterConfig::default()
    };
    let err = Cluster::try_new(mk(2), workload(1, 0.5, 4), bad_plan).expect_err("must fail");
    assert!(matches!(err, ServeError::InvalidFaultPlan(_)), "plan validation flows through try_new");
}

#[test]
fn try_new_rejects_a_shed_watermark_outside_the_unit_interval() {
    let with_watermark = |watermark: f64| ClusterConfig {
        shards: 2,
        faults: Some(FaultConfig { shed_watermark: Some(watermark), ..FaultConfig::default() }),
        ..ClusterConfig::default()
    };
    let build = |watermark| {
        let engines = (0..2).map(|_| engine(1)).collect();
        Cluster::try_new(engines, workload(1, 0.5, 4), with_watermark(watermark))
    };
    for watermark in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.5, 1.5] {
        match build(watermark) {
            Err(ServeError::InvalidShedWatermark { watermark: got }) => {
                assert_eq!(got.to_bits(), watermark.to_bits(), "the error names the value");
            }
            Err(other) => panic!("watermark {watermark}: wrong error {other}"),
            Ok(_) => panic!("watermark {watermark} must be rejected"),
        }
    }
    for watermark in [0.8, 1.0] {
        assert!(build(watermark).is_ok(), "watermark {watermark} must be accepted");
    }
}

#[test]
fn ci_chaos_smoke() {
    // The fixed-seed scenario the CI workflow runs: crash shard 1 mid-load,
    // recover it, and demand a clean ledger afterwards.
    let (report, events) = run_faulted(2024, 2, 1, Some(crash_and_recover()), 18);
    assert!(report.retries > 0, "chaos smoke: the crash must force retries");
    assert_eq!(report.dead_letters, 0, "chaos smoke: zero lost requests after recovery");
    assert_eq!(
        report.completed() + report.rejected(),
        report.submitted(),
        "chaos smoke: every request resolves"
    );
    let downs = events.iter().filter(|e| matches!(e.kind, TraceEventKind::ShardDown { .. })).count();
    let ups = events.iter().filter(|e| matches!(e.kind, TraceEventKind::ShardUp { .. })).count();
    assert_eq!(downs, ups, "chaos smoke: every ShardDown is balanced by a ShardUp");
}

proptest! {
    #[test]
    fn chaos_conservation_holds_every_tick(
        seed in 0u64..10_000,
        shards in 1usize..4,
        router_index in 0usize..3,
        crash_shard_raw in 0usize..4,
        crash_at in 2u64..16,
        recover_delta in 0u64..40,
        drain_raw in 0u64..3,
        ttft_raw in 0u64..64,
        shed_raw in 0u64..100,
        migrate_raw in 0u8..2,
    ) {
        let router = [RouterKind::RoundRobin, RouterKind::LeastLoaded, RouterKind::PrefixAffinity]
            [router_index];
        // Encode the optional knobs in plain ranges (the offline proptest
        // shim has no option strategy): small raw values mean "off".
        let recover = (recover_delta >= 5).then(|| crash_at + recover_delta);
        let ttft_deadline = (ttft_raw >= 8).then_some(ttft_raw);
        let shed_watermark = (shed_raw >= 30).then(|| shed_raw as f64 / 100.0);
        let plan = FaultPlan {
            crashes: vec![veda_serving::ShardCrash {
                shard: crash_shard_raw % shards,
                at: crash_at,
                recover_at: recover,
                drain: drain_raw.min(crash_at),
            }],
            degradations: vec![],
        };
        let label = format!(
            "seed {seed}, {shards} shards, {router}, crash@{crash_at} shard {} recover {recover:?}, \
             ttft {ttft_deadline:?}, shed {shed_watermark:?}, migrate {}",
            crash_shard_raw % shards,
            migrate_raw == 1
        );
        let config = ClusterConfig {
            shards,
            per_shard_capacity_bytes: 14 << 10,
            max_queue_depth: 8,
            router,
            sched: SchedKind::Fcfs,
            migration: (migrate_raw == 1).then(MigrationConfig::default),
            faults: Some(FaultConfig {
                plan,
                ttft_deadline,
                shed_watermark,
                ..FaultConfig::default()
            }),
            ..ClusterConfig::default()
        };
        let engines = (0..shards).map(|_| engine(1)).collect();
        let mut cluster = Cluster::new(engines, workload(seed, 0.7, 10), config);
        let mut ticks = 0u64;
        while !cluster.is_done() {
            cluster.tick();
            ticks += 1;
            prop_assert!(ticks < 20_000, "chaos run must terminate ({label})");
            prop_assert_eq!(
                cluster.submitted(),
                cluster.completed()
                    + cluster.rejected()
                    + cluster.dead_lettered()
                    + cluster.shed()
                    + cluster.in_flight(),
                "conservation broke at tick {} ({})",
                cluster.now(),
                &label
            );
            for shard in cluster.shards() {
                prop_assert!(
                    shard.reserved_bytes() <= shard.capacity_bytes(),
                    "shard {} over-reserved under faults ({})",
                    shard.id(),
                    &label
                );
            }
        }
        prop_assert_eq!(cluster.in_flight(), 0, "drained cluster holds nothing ({})", &label);
        prop_assert_eq!(
            cluster.submitted(),
            cluster.completed() + cluster.rejected() + cluster.dead_lettered() + cluster.shed(),
            "terminal states partition the arrivals ({})",
            &label
        );
    }
}
