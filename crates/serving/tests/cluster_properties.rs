//! Property tests for the cluster-plane invariants, over randomized
//! seeds, shard counts, routers, schedulers and migration on/off:
//!
//! * conservation — at every tick, cluster-wide `submitted =
//!   completed + rejected + in-flight`, migrations included;
//! * capacity — every shard's admission-reserved bytes stay within its
//!   configured capacity, and its engine's resident KV bytes stay within
//!   the reservation;
//! * termination — every run drains within the tick budget.

use proptest::prelude::*;
use veda::EngineBuilder;
use veda_model::ModelConfig;
use veda_serving::{Cluster, ClusterConfig, MigrationConfig, RequestMix, RouterKind, SchedKind, Workload};

fn check_invariants_all_ticks(
    seed: u64,
    rate: f64,
    shards: usize,
    router: RouterKind,
    sched: SchedKind,
    capacity_bytes: u64,
    migration: Option<MigrationConfig>,
) {
    let engines = (0..shards)
        .map(|_| EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid config"))
        .collect();
    let total = 10;
    let workload = Workload::poisson(seed, rate, total, RequestMix::default());
    let config = ClusterConfig {
        shards,
        per_shard_capacity_bytes: capacity_bytes,
        max_queue_depth: 8,
        router,
        sched,
        migration,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(engines, workload, config);
    let label = format!("seed {seed}, rate {rate}, {shards} shards, {router}, {sched}");

    let mut ticks = 0u64;
    while !cluster.is_done() {
        cluster.tick();
        ticks += 1;
        assert!(ticks < 20_000, "run must terminate ({label})");

        prop_assert_eq!(
            cluster.submitted(),
            cluster.completed() + cluster.rejected() + cluster.in_flight(),
            "conservation broke at tick {} ({})",
            cluster.now(),
            &label
        );
        for shard in cluster.shards() {
            prop_assert!(
                shard.reserved_bytes() <= shard.capacity_bytes(),
                "shard {} reserved {} exceeds capacity {} at tick {} ({})",
                shard.id(),
                shard.reserved_bytes(),
                shard.capacity_bytes(),
                cluster.now(),
                &label
            );
            prop_assert!(
                shard.engine().kv_bytes_active() <= shard.reserved_bytes(),
                "shard {} resident {} exceeds reservation {} at tick {} ({})",
                shard.id(),
                shard.engine().kv_bytes_active(),
                shard.reserved_bytes(),
                cluster.now(),
                &label
            );
        }
    }
    prop_assert_eq!(cluster.submitted(), total, "workload must deliver every request");
    prop_assert_eq!(cluster.in_flight(), 0, "drained cluster holds nothing");
}

proptest! {
    #[test]
    fn cluster_invariants_hold_every_tick(
        seed in 0u64..10_000,
        rate in 0.1f64..2.0,
        shards in 1usize..4,
        router_index in 0usize..RouterKind::ALL.len(),
        sched_index in 0usize..SchedKind::ALL.len(),
        capacity_kb in 13u64..40,
        migrate_index in 0usize..2,
    ) {
        let router = RouterKind::ALL[router_index];
        let sched = SchedKind::ALL[sched_index];
        // Default thresholds (hot 0.85 / cold 0.6): migration only fires
        // under genuine imbalance, but the invariants must hold either way.
        let migration =
            if migrate_index == 1 && shards > 1 { Some(MigrationConfig::default()) } else { None };
        check_invariants_all_ticks(seed, rate, shards, router, sched, capacity_kb << 10, migration);
    }
}
