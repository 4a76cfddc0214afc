//! Integration of the cluster plane (Workload → Router → Shard →
//! Engine): the determinism pin (same-seed runs bit-identical), the
//! RNG-stream discipline (shard count never perturbs what requests
//! *are*), migration's token-stream invariance, and the prefix-affinity
//! payoff over round-robin on shared-prefix traffic.

use std::collections::BTreeMap;

use veda::{EngineBuilder, PrefixCacheConfig, Request};
use veda_model::ModelConfig;
use veda_serving::{
    ArrivalKind, Cluster, ClusterConfig, ClusterReport, Json, MigrationConfig, RequestMix, RouterKind,
    SchedKind, ServingReport, ServingRequest, Workload,
};

fn engine() -> veda::Engine {
    EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid config")
}

fn engines(n: usize) -> Vec<veda::Engine> {
    (0..n).map(|_| engine()).collect()
}

fn workload(kind: ArrivalKind, seed: u64, total: usize) -> Workload {
    let mix = RequestMix::default();
    match kind {
        ArrivalKind::Poisson => Workload::poisson(seed, 0.6, total, mix),
        ArrivalKind::Trace => {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(seed);
            Workload::trace((0..total).map(|i| (3 * i as u64, mix.sample(&mut rng, i))).collect())
        }
    }
}

fn cluster_config(shards: usize, router: RouterKind, capacity: u64, sched: SchedKind) -> ClusterConfig {
    ClusterConfig {
        shards,
        per_shard_capacity_bytes: capacity,
        max_queue_depth: 64,
        router,
        sched,
        ..ClusterConfig::default()
    }
}

/// Generated token streams keyed by global arrival index, across every
/// shard's records. Sessions that migrated are skipped (their record's
/// session handle points at the admitting engine, not the one that
/// finished them) — [`completed_streams_sorted`] covers those.
fn tokens_by_arrival(shards: &[ServingReport]) -> BTreeMap<usize, Vec<usize>> {
    shards
        .iter()
        .flat_map(|shard| {
            shard.records.iter().filter_map(|record| {
                let session = record.session?;
                let outcome = shard.engine.requests.iter().find(|r| r.session == session)?;
                Some((record.arrival, outcome.report.generated.clone()))
            })
        })
        .collect()
}

/// Every completed request's generated token stream, cluster-wide, as a
/// sorted multiset — robust to migration re-homing sessions.
fn completed_streams_sorted(report: &ClusterReport) -> Vec<Vec<usize>> {
    let mut streams: Vec<Vec<usize>> = report
        .shards
        .iter()
        .flat_map(|s| s.engine.requests.iter().map(|r| r.report.generated.clone()))
        .collect();
    streams.sort();
    streams
}

#[test]
fn same_seed_clusters_are_bit_identical() {
    for router in RouterKind::ALL {
        let run = |seed: u64| {
            Cluster::new(
                engines(3),
                workload(ArrivalKind::Poisson, seed, 24),
                cluster_config(3, router, 20 << 10, SchedKind::Fcfs),
            )
            .run()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "{router}: same seed must reproduce the full cluster report");
        let c = run(8);
        assert_ne!(
            completed_streams_sorted(&a),
            completed_streams_sorted(&c),
            "{router}: different seeds produce different workloads"
        );
    }
}

#[test]
fn shard_count_never_perturbs_the_request_stream() {
    // The RNG-stream discipline: the workload samples requests centrally
    // in global arrival order, so splitting arrivals across shards must
    // not change what any request *is* — same priorities, and identical
    // token streams for every request completed under both shard counts.
    for kind in ArrivalKind::ALL {
        let run = |shards: usize| {
            Cluster::new(
                engines(shards),
                workload(kind, 13, 24),
                cluster_config(shards, RouterKind::RoundRobin, 24 << 10, SchedKind::Fcfs),
            )
            .run()
        };
        let one = run(1);
        let three = run(3);
        assert_eq!(one.submitted(), 24);
        assert_eq!(three.submitted(), 24);

        let priorities = |report: &ClusterReport| -> BTreeMap<usize, u8> {
            report.shards.iter().flat_map(|s| s.records.iter().map(|r| (r.arrival, r.priority))).collect()
        };
        assert_eq!(priorities(&one), priorities(&three), "{kind}: per-arrival RNG draws must not move");

        let one_tokens = tokens_by_arrival(&one.shards);
        let three_tokens = tokens_by_arrival(&three.shards);
        let mut compared = 0;
        for (arrival, tokens) in &one_tokens {
            if let Some(other) = three_tokens.get(arrival) {
                assert_eq!(other, tokens, "{kind}: arrival {arrival} generated different tokens");
                compared += 1;
            }
        }
        assert!(compared > 0, "{kind}: some requests must complete under both shard counts");
    }
}

#[test]
fn every_router_completes_and_accounts_routing() {
    for router in RouterKind::ALL {
        let report = Cluster::new(
            engines(3),
            workload(ArrivalKind::Poisson, 11, 24),
            cluster_config(3, router, 24 << 10, SchedKind::Fcfs),
        )
        .run();
        assert_eq!(report.router, router);
        assert_eq!(report.submitted(), 24, "{router}");
        assert_eq!(report.routed.iter().sum::<usize>(), 24, "{router}: every arrival is routed once");
        assert_eq!(
            report.completed() + report.rejected(),
            report.submitted(),
            "{router}: every request completes or is rejected"
        );
        assert!(report.completed() > 0, "{router}");
        assert!(report.ttft().is_some() && report.e2e().is_some(), "{router}");
        for (i, shard) in report.shards.iter().enumerate() {
            assert_eq!(shard.shard_id, i, "{router}: shard reports carry their index");
            assert!(shard.kv_reserved_peak_bytes <= shard.capacity_bytes, "{router}/shard {i}");
        }
        assert_eq!(report.kv_reserved_series.len(), 3);
        assert!(report.kv_reserved_series.iter().all(|s| s.len() as u64 <= report.ticks));
        if router == RouterKind::RoundRobin {
            let max = report.routed.iter().max().unwrap();
            let min = report.routed.iter().min().unwrap();
            assert!(max - min <= 1, "round-robin splits arrivals evenly: {:?}", report.routed);
        }
    }
}

/// Trace with size-alternating requests: even arrivals are large, odd
/// arrivals small, all at tick 0 — under round-robin across 2 shards this
/// loads shard 0 far above shard 1.
fn imbalanced_trace(total: usize) -> Workload {
    let arrivals = (0..total)
        .map(|i| {
            let (prompt_len, max_new) = if i % 2 == 0 { (30, 10) } else { (4, 4) };
            let prompt: Vec<usize> = (0..prompt_len).map(|j| (i + 3 * j) % 50 + 1).collect();
            (0u64, ServingRequest { request: Request::new(prompt, max_new), priority: 0 })
        })
        .collect();
    Workload::trace(arrivals)
}

fn migration_cluster(migration: Option<MigrationConfig>) -> ClusterReport {
    let per_token = engine().kv_bytes_per_token();
    let config = ClusterConfig {
        migration,
        ..cluster_config(2, RouterKind::RoundRobin, 200 * per_token, SchedKind::Fcfs)
    };
    Cluster::new(engines(2), imbalanced_trace(6), config).run()
}

#[test]
fn migration_rebalances_hot_shards_without_changing_token_streams() {
    let migration = MigrationConfig { hot_fraction: 0.5, cold_fraction: 0.5, max_per_tick: 1 };
    let off = migration_cluster(None);
    let on = migration_cluster(Some(migration));

    assert_eq!(off.migrations, 0);
    assert_eq!(off.migration_bytes, 0);
    assert!(on.migrations > 0, "the imbalanced trace must trigger migration");
    assert!(on.migration_bytes > 0, "migrated KV state is costed by the byte");
    assert!(on.migration_cycles > 0, "both host links charge cycles");
    assert_eq!(on.completed(), on.submitted(), "migration delays, never kills");

    // The acceptance invariant: migration changes *where* a session runs,
    // never *which* tokens it generates.
    assert_eq!(
        completed_streams_sorted(&on),
        completed_streams_sorted(&off),
        "migration must not change any generated token sequence"
    );

    // Migration is not preemption: it is accounted separately, as
    // migration-tagged host-link traffic, not swap counters.
    assert_eq!(on.shards.iter().map(|s| s.preemptions).sum::<u64>(), 0);

    // Records of migrated sessions see every token, wait and completion
    // of the shard that finished them.
    let records = || on.shards.iter().flat_map(|s| s.records.iter());
    assert_eq!(
        records().map(|r| r.generated_tokens).sum::<usize>(),
        on.shards.iter().flat_map(|s| &s.engine.requests).map(|r| r.report.generated.len()).sum::<usize>(),
        "every generated token reaches its request's record"
    );
    assert!(records().map(|r| r.migration_wait_ticks).sum::<u64>() > 0, "migration waits are recorded");
    for r in records().filter(|r| r.finished.is_some()) {
        assert!(r.first_token <= r.finished, "request {}: first token after finish", r.arrival);
    }

    // Same-seed migration runs are bit-identical too.
    assert_eq!(on, migration_cluster(Some(migration)));
}

#[test]
fn prefix_affinity_beats_round_robin_on_shared_prefix_traffic() {
    // Five prompt groups over two to four shards: round-robin scatters
    // each group across every shard (each shard pays its own cold miss per
    // group), while prefix-affinity pins each group to the shard that
    // already holds its prefix — fewer cold misses, higher cluster-wide
    // hit rate. Five is coprime to every shard count: groups rotate by
    // arrival index exactly like the round-robin cursor, so a group count
    // that divided the shard count would hand round-robin accidental
    // perfect affinity.
    use veda::Budget;
    let mix = RequestMix {
        shared_prefix_len: 24,
        prefix_groups: 5,
        prompt_len: (3, 6),
        max_new_tokens: (4, 8),
        budgets: vec![Budget::Unbounded],
        ..RequestMix::default()
    };
    let run = |shards: usize, router: RouterKind| {
        let engines: Vec<veda::Engine> = (0..shards)
            .map(|_| {
                EngineBuilder::new()
                    .model(ModelConfig::tiny())
                    .prefix_cache(PrefixCacheConfig {
                        min_match_tokens: 8,
                        max_entries: 16,
                        ..PrefixCacheConfig::default()
                    })
                    .build()
                    .expect("valid config")
            })
            .collect();
        let workload = Workload::poisson(19, 0.6, 40, mix.clone());
        Cluster::new(engines, workload, cluster_config(shards, router, 1 << 20, SchedKind::Fcfs)).run()
    };
    for shards in [2, 3, 4] {
        let rr = run(shards, RouterKind::RoundRobin);
        let affinity = run(shards, RouterKind::PrefixAffinity);
        assert_eq!(rr.completed(), 40, "{shards} shards, ample capacity: everything completes");
        assert_eq!(affinity.completed(), 40);
        assert!(affinity.prefix_hits() > 0);
        assert!(
            affinity.prefix_hit_rate() > rr.prefix_hit_rate(),
            "{shards} shards: prefix affinity must beat round-robin on shared-prefix traffic: {:.2} vs {:.2}",
            affinity.prefix_hit_rate(),
            rr.prefix_hit_rate()
        );

        // Routing never changes what a request generates, only where.
        assert_eq!(completed_streams_sorted(&affinity), completed_streams_sorted(&rr));
    }
}

#[test]
fn cluster_report_display_shows_the_cluster_plane() {
    let text = Cluster::new(
        engines(2),
        workload(ArrivalKind::Poisson, 3, 16),
        cluster_config(2, RouterKind::PrefixAffinity, 20 << 10, SchedKind::Priority),
    )
    .run()
    .to_string();
    for needle in [
        "cluster report",
        "2 shards",
        "prefix_affinity",
        "routed",
        "migrations",
        "shard 0",
        "shard 1",
        "ttft",
        "p99",
    ] {
        assert!(text.contains(needle), "cluster report must mention {needle:?}:\n{text}");
    }
}

#[test]
fn cluster_metrics_gauges_cover_every_shard() {
    // Round-robin scatters three prefix groups over two shards, so the
    // shards end with different hit rates, queue depths and TPOTs: a
    // gauge taken from one shard cannot pass for the cluster's.
    let mix =
        RequestMix { shared_prefix_len: 16, prefix_groups: 3, prompt_len: (4, 12), ..RequestMix::default() };
    let engines = (0..2)
        .map(|_| {
            EngineBuilder::new()
                .model(ModelConfig::tiny())
                .prefill_chunk(4)
                .prefix_cache(PrefixCacheConfig {
                    min_match_tokens: 8,
                    max_entries: 32,
                    ..PrefixCacheConfig::default()
                })
                .build()
                .expect("valid config")
        })
        .collect();
    let workload = Workload::poisson(7, 0.5, 40, mix);
    let report =
        Cluster::new(engines, workload, cluster_config(2, RouterKind::RoundRobin, 1 << 20, SchedKind::Fcfs))
            .run();
    let shard_rates: Vec<f64> = report.shards.iter().map(|s| s.engine.prefix.hit_rate()).collect();
    assert_ne!(shard_rates[0], shard_rates[1], "the shards must disagree for this test to discriminate");

    let doc = Json::parse(&report.metrics().to_string()).expect("the metrics document parses");
    let gauge = |name: &str| doc.get("gauges").and_then(|g| g.get(name)).cloned();
    assert_eq!(gauge("prefix_hit_rate"), Some(Json::F64(report.prefix_hit_rate())));

    let depths: Vec<usize> = report.shards.iter().flat_map(|s| s.queue_depth.iter().copied()).collect();
    let depth_mean = depths.iter().sum::<usize>() as f64 / depths.len() as f64;
    assert_eq!(gauge("queue_depth_mean"), Some(Json::F64(depth_mean)));

    let tpots: Vec<f64> = report
        .shards
        .iter()
        .flat_map(|s| &s.records)
        .filter(|r| r.generated_tokens > 1)
        .filter_map(|r| Some((r.finished? - r.first_token?) as f64 / (r.generated_tokens - 1) as f64))
        .collect();
    let tpot_mean = tpots.iter().sum::<f64>() / tpots.len() as f64;
    assert_eq!(gauge("tpot_mean_ticks"), Some(Json::F64(tpot_mean)));
}

#[test]
fn cluster_kv_peaks_are_simultaneous_not_summed_shard_peaks() {
    // Round-robin puts one request on each shard, the second arriving
    // long after the first has finished: each shard peaks on its own
    // tick, so the sum of the shard peaks is twice what the cluster ever
    // held at once.
    let request = |i: usize| {
        let prompt: Vec<usize> = (0..12).map(|j| (i + 3 * j) % 50 + 1).collect();
        ServingRequest { request: Request::new(prompt, 6), priority: 0 }
    };
    let workload = Workload::trace(vec![(0, request(0)), (200, request(1))]);
    let report = Cluster::new(
        engines(2),
        workload,
        cluster_config(2, RouterKind::RoundRobin, 1 << 20, SchedKind::Fcfs),
    )
    .run();
    assert_eq!(report.completed(), 2);

    let reserved_sum: u64 = report.shards.iter().map(|s| s.kv_reserved_peak_bytes).sum();
    let reserved_max = report.shards.iter().map(|s| s.kv_reserved_peak_bytes).max().unwrap_or(0);
    let resident_sum: u64 = report.shards.iter().map(|s| s.kv_resident_peak_bytes).sum();
    let resident_max = report.shards.iter().map(|s| s.kv_resident_peak_bytes).max().unwrap_or(0);
    assert!(reserved_max > 0 && resident_max > 0);
    let simultaneous_reserved = (0..report.kv_reserved_series[0].len())
        .map(|t| report.kv_reserved_series.iter().map(|series| series[t]).sum::<u64>())
        .max()
        .unwrap_or(0);
    assert_eq!(simultaneous_reserved, reserved_max, "the two shards never hold a reservation at once");
    assert_eq!(report.kv_resident_peak_bytes, resident_max, "nor any resident bytes");

    let doc = Json::parse(&report.metrics().to_string()).expect("the metrics document parses");
    let counter = |name: &str| doc.get("counters").and_then(|c| c.get(name)).cloned();
    assert_eq!(counter("kv_reserved_peak_bytes"), Some(Json::U64(simultaneous_reserved)));
    assert_eq!(counter("kv_resident_peak_bytes"), Some(Json::U64(report.kv_resident_peak_bytes)));
    assert!(simultaneous_reserved < reserved_sum && report.kv_resident_peak_bytes < resident_sum);
}
