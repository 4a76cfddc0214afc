//! Property tests for the serving invariants, over randomized seeds,
//! arrival rates, schedulers and capacities:
//!
//! * conservation — at every tick, `submitted = completed + rejected +
//!   in-flight`;
//! * capacity — admission-reserved bytes never exceed the configured HBM
//!   capacity, and the KV bytes actually resident never exceed the
//!   reservation (so resident ≤ capacity transitively);
//! * termination — every run drains within the tick budget.
//!
//! A third property checks *progress* (invariant #11 in
//! `docs/ARCHITECTURE.md`) on the configuration that once wedged: two
//! small shards behind the prefix router, the priority scheduler and
//! chunked prefill over grouped shared prefixes. Every request that fits
//! an empty shard must reach a terminal state before the safety valve —
//! idle prefix-cache bytes may not hold the queue head out for good.
//!
//! A second property re-checks the same invariants under *adversarial
//! prefix-cache churn* — a byte-starved cache with a short TTL, spill on
//! or off — where the shared-prefix admission discount is only sound if
//! the pin plumbing works: evicting/expiring/spilling an entry out from
//! under a discounted reservation would let resident KV bytes exceed
//! what admission reserved.

use proptest::prelude::*;
use veda::{EngineBuilder, PrefixCacheConfig};
use veda_model::ModelConfig;
use veda_serving::{
    Cluster, ClusterConfig, RequestMix, RouterKind, SchedKind, SinkHandle, TraceEventKind, Workload,
};

fn check_invariants_all_ticks(seed: u64, rate: f64, sched: SchedKind, capacity_bytes: u64) {
    let engine = EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid config");
    let total = 10;
    let workload = Workload::poisson(seed, rate, total, RequestMix::default());
    let config = ClusterConfig {
        shards: 1,
        per_shard_capacity_bytes: capacity_bytes,
        max_queue_depth: 8,
        sched,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(vec![engine], workload, config);

    let mut ticks = 0u64;
    while !cluster.is_done() {
        cluster.tick();
        ticks += 1;
        let shard = &cluster.shards()[0];
        assert!(ticks < 10_000, "run must terminate (seed {seed}, rate {rate}, {sched})");

        prop_assert_eq!(
            cluster.submitted(),
            cluster.completed() + cluster.rejected() + cluster.in_flight(),
            "conservation broke at tick {} (seed {}, rate {}, {})",
            cluster.now(),
            seed,
            rate,
            sched
        );
        prop_assert!(
            shard.reserved_bytes() <= shard.capacity_bytes(),
            "reserved {} exceeds capacity {} at tick {} (seed {}, {})",
            shard.reserved_bytes(),
            shard.capacity_bytes(),
            cluster.now(),
            seed,
            sched
        );
        prop_assert!(
            shard.engine().kv_bytes_active() <= shard.reserved_bytes(),
            "resident {} exceeds reservation {} at tick {} (seed {}, {})",
            shard.engine().kv_bytes_active(),
            shard.reserved_bytes(),
            cluster.now(),
            seed,
            sched
        );
    }
    prop_assert_eq!(cluster.submitted(), total, "workload must deliver every request");
    prop_assert_eq!(cluster.in_flight(), 0, "drained cluster holds nothing");
}

/// The churn-soundness property: drive a 1-shard cluster whose engine runs a
/// deliberately starved prefix cache (tiny byte bound, short TTL,
/// optional spill) under a shared-prefix workload, and assert on every
/// tick that the discounted admission accounting still closes.
fn check_churn_soundness(seed: u64, rate: f64, capacity_bytes: u64, max_kb: u64, ttl: u64, spill: bool) {
    let engine = EngineBuilder::new()
        .model(ModelConfig::tiny())
        .prefix_cache(PrefixCacheConfig {
            min_match_tokens: 4,
            max_entries: 8,
            max_bytes: max_kb << 10,
            ttl_ticks: ttl,
            spill,
        })
        .build()
        .expect("valid config");
    let total = 12;
    let mix = RequestMix { shared_prefix_len: 12, ..RequestMix::default() };
    let workload = Workload::poisson(seed, rate, total, mix);
    let config = ClusterConfig {
        shards: 1,
        per_shard_capacity_bytes: capacity_bytes,
        max_queue_depth: 8,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(vec![engine], workload, config);

    let mut ticks = 0u64;
    while !cluster.is_done() {
        cluster.tick();
        ticks += 1;
        let shard = &cluster.shards()[0];
        assert!(ticks < 20_000, "churny run must terminate (seed {seed})");

        prop_assert_eq!(
            cluster.submitted(),
            cluster.completed() + cluster.rejected() + cluster.in_flight(),
            "conservation broke at tick {} (seed {})",
            cluster.now(),
            seed
        );
        prop_assert!(
            shard.reserved_bytes() <= shard.capacity_bytes(),
            "reserved {} exceeds capacity {} at tick {} (seed {})",
            shard.reserved_bytes(),
            shard.capacity_bytes(),
            cluster.now(),
            seed
        );
        // The discount-soundness observable: a never-evicts request
        // reserved only its unshared bytes; if churn could shrink the
        // match between accept and submit, the session would privately
        // own more than admission reserved and this would trip.
        prop_assert!(
            shard.engine().kv_bytes_active() <= shard.reserved_bytes(),
            "resident {} exceeds reservation {} at tick {} (seed {}, ttl {}, spill {})",
            shard.engine().kv_bytes_active(),
            shard.reserved_bytes(),
            cluster.now(),
            seed,
            ttl,
            spill
        );
        // Entry conservation: insertions = resident (either tier) +
        // evictions + expiries; spills/fills are tier moves, net zero.
        let stats = shard.engine().prefix_cache().expect("prefix cache enabled").stats();
        prop_assert!(
            stats.entries_conserved(),
            "cache entry conservation broke at tick {}: {:?} (seed {})",
            cluster.now(),
            stats,
            seed
        );
        if !spill {
            prop_assert_eq!(
                (stats.host_entries, stats.spills, stats.fills),
                (0, 0, 0),
                "spill-off cache grew a host tier at tick {} (seed {})",
                cluster.now(),
                seed
            );
        }
    }
    prop_assert_eq!(cluster.submitted(), total, "workload must deliver every request");
    prop_assert_eq!(cluster.in_flight(), 0, "drained cluster holds nothing");
    let shard = &cluster.shards()[0];

    // Lookup conservation: every admission performs exactly one cache
    // lookup, and expiry/spill churn must not mint or lose lookups.
    let stats = shard.engine().prefix_cache().expect("prefix cache enabled").stats();
    let report = cluster.run().shards.remove(0);
    prop_assert_eq!(
        stats.hits + stats.misses,
        report.admitted as u64,
        "hits + misses must equal admissions (seed {seed})"
    );
    prop_assert!(stats.hit_rate().is_finite(), "hit rate is total, even with zero lookups");
}

/// The safety valve of the progress checks: far beyond what a healthy
/// run of this size needs (a few hundred ticks).
const PROGRESS_VALVE: u64 = 20_000;

/// Builds the `serving_sim` wedge configuration — `--shards 2 --sched
/// priority --router prefix --shared-prefix 16 --prefill-chunk 4` — with
/// `capacity_kb` per shard, its prefix cache sized at half of that as
/// `serving_sim` sizes it.
fn wedge_cluster(
    seed: u64,
    rate: f64,
    requests: usize,
    capacity_kb: u64,
    groups: usize,
    trace: Option<SinkHandle>,
) -> Cluster {
    let engines = (0..2)
        .map(|_| {
            EngineBuilder::new()
                .model(ModelConfig::tiny())
                .prefill_chunk(4)
                .prefix_cache(PrefixCacheConfig {
                    min_match_tokens: 8,
                    max_entries: 32,
                    max_bytes: (capacity_kb << 10) / 2,
                    ttl_ticks: u64::MAX,
                    spill: false,
                })
                .build()
                .expect("valid config")
        })
        .collect();
    let mix = RequestMix {
        shared_prefix_len: 16,
        prefix_groups: groups,
        prompt_len: (4, 12),
        ..RequestMix::default()
    };
    let config = ClusterConfig {
        shards: 2,
        per_shard_capacity_bytes: capacity_kb << 10,
        router: RouterKind::PrefixAffinity,
        sched: SchedKind::Priority,
        max_ticks: PROGRESS_VALVE,
        trace,
        ..ClusterConfig::default()
    };
    Cluster::new(engines, Workload::poisson(seed, rate, requests, mix), config)
}

/// Steps `cluster` until it is done or reaches the safety valve.
fn run_to_valve(cluster: &mut Cluster) {
    while !cluster.is_done() && cluster.now() < PROGRESS_VALVE {
        cluster.tick();
    }
}

/// The wedge that idle prefix-cache entries once caused: with 12 KiB
/// shards, each shard's one idle unpinned entry was charged against
/// admission headroom and never reclaimed, and the run hit the
/// 1 000 000-tick valve with 6 of 24 requests done. Reclaiming idle
/// prefix bytes at admission finishes all 24.
#[test]
fn idle_prefix_bytes_never_wedge_the_queue() {
    let mut cluster = wedge_cluster(7, 0.5, 24, 12, 2, None);
    run_to_valve(&mut cluster);
    assert_eq!(cluster.in_flight(), 0, "requests still in flight at tick {}", cluster.now());
    assert_eq!(cluster.completed(), 24, "every request of the wedge run completes");
}

/// On 10 KiB shards some requests fit only with their shared prefix.
/// When such a request waits with an admission pin that keeps the queue
/// head out of an idle shard, the shard revokes the pin; the request's
/// full peak then exceeds capacity, so it is rejected `never_fits` after
/// having been queued, and every other request still ends.
#[test]
fn a_revoked_discount_that_cannot_fit_is_rejected_not_stranded() {
    let (sink, recording) = SinkHandle::recording();
    let mut cluster = wedge_cluster(6, 0.5, 16, 10, 1, Some(sink));
    run_to_valve(&mut cluster);
    assert_eq!(cluster.in_flight(), 0, "requests still in flight at tick {}", cluster.now());
    let events = recording.lock().expect("recording sink").take_events();
    let queued =
        |request: u64| events.iter().any(|e| e.request == request && e.kind == TraceEventKind::Queued);
    let revoked = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Rejected { reason: "never_fits" }))
        .filter(|e| queued(e.request))
        .count();
    assert!(revoked > 0, "a queued request was rejected when its pin was revoked");
}

proptest! {
    /// Progress (invariant #11): every request reaches a terminal state
    /// before the safety valve, over the wedge configuration's space.
    #[test]
    fn every_request_ends_before_the_valve(
        seed in 0u64..10_000,
        rate in 0.2f64..2.0,
        capacity_kb in 10u64..17,
        groups in 1usize..4,
    ) {
        let mut cluster = wedge_cluster(seed, rate, 16, capacity_kb, groups, None);
        run_to_valve(&mut cluster);
        prop_assert_eq!(
            cluster.in_flight(),
            0,
            "requests still in flight at the valve (seed {}, rate {}, {} KiB, {} groups)",
            seed,
            rate,
            capacity_kb,
            groups
        );
        prop_assert_eq!(
            cluster.submitted(),
            cluster.completed() + cluster.rejected() + cluster.dead_lettered() + cluster.shed(),
            "every request ends in a terminal state (seed {})",
            seed
        );
    }

    #[test]
    fn serving_invariants_hold_every_tick(
        seed in 0u64..10_000,
        rate in 0.1f64..2.0,
        sched_index in 0usize..SchedKind::ALL.len(),
        capacity_kb in 13u64..40,
    ) {
        let sched = SchedKind::ALL[sched_index];
        check_invariants_all_ticks(seed, rate, sched, capacity_kb << 10);
    }

    /// Adversarial-churn soundness: tiny cache byte bounds and short
    /// TTLs force eviction/expiry/spill traffic while discounted
    /// admissions are in flight; every accounting invariant must still
    /// hold on every tick.
    #[test]
    fn churny_prefix_cache_never_breaks_admission_soundness(
        seed in 0u64..5_000,
        rate in 0.2f64..2.0,
        capacity_kb in 13u64..40,
        max_kb in 1u64..8,
        ttl in 2u64..40,
        spill_sel in 0usize..2,
    ) {
        check_churn_soundness(seed, rate, capacity_kb << 10, max_kb, ttl, spill_sel == 1);
    }
}
