//! Integration + property tests for the observability plane:
//!
//! * **sink neutrality** — installing a trace sink never changes the run:
//!   the `ServingReport` (and its rendered bytes) are identical with and
//!   without a sink, over randomized seeds/schedulers/capacities;
//! * **determinism invariant #8** — same seed ⇒ byte-identical Chrome
//!   trace, regardless of decode thread count (events are emitted
//!   coordinator-side only, never from the decode fan-out), pinned by
//!   `trace_bytes_identical_across_thread_counts`;
//! * **event conservation** — every submitted request produces exactly
//!   one `Submitted` event and exactly one terminal event (`Finished` or
//!   `Rejected`), and each completed request's waterfall stages sum
//!   exactly to its end-to-end latency;
//! * **export validity** — the Chrome-trace-event JSON parses under the
//!   strict validator, carries one process track per shard, and one
//!   `finished` instant per completed request.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use veda::EngineBuilder;
use veda_model::ModelConfig;
use veda_serving::{
    chrome_trace_json, Cluster, ClusterConfig, Json, MigrationConfig, RecordingSink, RequestMix, RouterKind,
    SchedKind, ServingReport, SinkHandle, TraceEvent, TraceEventKind, Workload,
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

/// Runs a 1-shard cluster, optionally recording its trace.
fn run_one_shard(
    seed: u64,
    rate: f64,
    requests: usize,
    capacity_kb: u64,
    sched: SchedKind,
    threads: usize,
    record: bool,
) -> (ServingReport, Vec<TraceEvent>) {
    let (trace, recorder): (Option<SinkHandle>, Option<Arc<Mutex<RecordingSink>>>) = if record {
        let (handle, recorder) = SinkHandle::recording();
        (Some(handle), Some(recorder))
    } else {
        (None, None)
    };
    let config = ClusterConfig {
        shards: 1,
        per_shard_capacity_bytes: capacity_kb << 10,
        max_queue_depth: 16,
        sched,
        trace,
        ..ClusterConfig::default()
    };
    let report =
        Cluster::new(vec![engine(threads)], workload(seed, rate, requests), config).run().shards.remove(0);
    let events = recorder.map(|r| r.lock().expect("recorder lock").take_events()).unwrap_or_default();
    (report, events)
}

/// Runs a cluster, always recording its trace.
fn run_cluster_trace(
    seed: u64,
    shards: usize,
    capacity_kb: u64,
    threads: usize,
    migrate: bool,
) -> (veda_serving::ClusterReport, Vec<TraceEvent>) {
    let (handle, recorder) = SinkHandle::recording();
    let config = ClusterConfig {
        shards,
        per_shard_capacity_bytes: capacity_kb << 10,
        max_queue_depth: 16,
        router: RouterKind::RoundRobin,
        sched: SchedKind::Fcfs,
        migration: migrate.then(MigrationConfig::default),
        trace: Some(handle),
        ..ClusterConfig::default()
    };
    let engines = (0..shards).map(|_| engine(threads)).collect();
    let report = Cluster::new(engines, workload(seed, 0.6, 12), config).run();
    let events = recorder.lock().expect("recorder lock").take_events();
    (report, events)
}

#[test]
fn trace_bytes_identical_across_thread_counts() {
    // Determinism invariant #8 (pinned): the trace's bytes depend on the
    // seed and configuration, never on the decode thread count.
    let baseline = run_one_shard(41, 0.7, 16, 14, SchedKind::Priority, 1, true);
    let trace = chrome_trace_json(&baseline.1);
    for threads in [2, 8] {
        let other = run_one_shard(41, 0.7, 16, 14, SchedKind::Priority, threads, true);
        assert_eq!(baseline.0, other.0, "report differs at {threads} decode threads");
        assert_eq!(trace, chrome_trace_json(&other.1), "trace differs at {threads} decode threads");
    }
}

#[test]
fn cluster_trace_bytes_identical_across_thread_counts() {
    let (_, baseline) = run_cluster_trace(77, 2, 13, 1, true);
    let trace = chrome_trace_json(&baseline);
    for threads in [2, 8] {
        let (_, other) = run_cluster_trace(77, 2, 13, threads, true);
        assert_eq!(trace, chrome_trace_json(&other), "cluster trace differs at {threads} threads");
    }
}

#[test]
fn chrome_export_is_valid_and_complete() {
    let (report, events) = run_cluster_trace(19, 2, 14, 1, true);
    let json = chrome_trace_json(&events);
    Json::parse(&json).expect("chrome trace must be valid JSON");
    let tracks = json.matches("\"process_name\"").count();
    assert_eq!(tracks, 2, "one process-name metadata record per shard");
    let finished = events.iter().filter(|e| matches!(e.kind, TraceEventKind::Finished { .. })).count();
    assert_eq!(finished, report.completed(), "one finished event per completed request");
}

#[test]
fn a_run_cut_at_max_ticks_finishes_only_what_completed() {
    // The safety valve ends a run with sessions still on the engines.
    // They stay unfinished: no `finished` instant, no engine report.
    let (handle, recorder) = SinkHandle::recording();
    let config = ClusterConfig {
        shards: 2,
        per_shard_capacity_bytes: 13 << 10,
        max_queue_depth: 16,
        max_ticks: 40,
        trace: Some(handle),
        ..ClusterConfig::default()
    };
    let engines = (0..2).map(|_| engine(1)).collect();
    let report = Cluster::new(engines, workload(77, 0.6, 12), config).run();
    let events = recorder.lock().expect("recorder lock").take_events();
    let admitted: usize = report.shards.iter().map(|s| s.admitted).sum();
    assert!(report.completed() < admitted, "the cut must leave admitted sessions unfinished");
    let finished = events.iter().filter(|e| matches!(e.kind, TraceEventKind::Finished { .. })).count();
    assert_eq!(finished, report.completed(), "one finished event per completed request");
    let engine_requests: usize = report.shards.iter().map(|s| s.engine.requests.len()).sum();
    assert_eq!(engine_requests, report.completed(), "the engines report only completed requests");
}

#[test]
fn zero_completion_run_exports_cleanly() {
    // Capacity so small nothing ever fits: every request is rejected,
    // no waterfall exists, and the exporter still writes valid JSON.
    let (report, events) = run_one_shard(5, 0.5, 6, 0, SchedKind::Fcfs, 1, true);
    assert_eq!(report.completed, 0);
    assert!(report.stages().is_none(), "no stages on a zero-completion run");
    Json::parse(&chrome_trace_json(&events)).expect("valid JSON");
    let submitted = events.iter().filter(|e| matches!(e.kind, TraceEventKind::Submitted { .. })).count();
    assert_eq!(submitted, report.submitted);
}

proptest! {
    /// Installing a sink is observation-only: the report — and its
    /// rendered bytes — never change.
    #[test]
    fn sink_never_changes_the_report(
        seed in 0u64..10_000,
        rate in 0.1f64..1.5,
        sched_index in 0usize..SchedKind::ALL.len(),
        capacity_kb in 13u64..40,
    ) {
        let sched = SchedKind::ALL[sched_index];
        let (without, _) = run_one_shard(seed, rate, 10, capacity_kb, sched, 1, false);
        let (with, events) = run_one_shard(seed, rate, 10, capacity_kb, sched, 1, true);
        prop_assert_eq!(&without, &with, "sink changed the report");
        prop_assert_eq!(without.to_string(), with.to_string(), "sink changed the rendered bytes");
        prop_assert!(!events.is_empty(), "a non-empty run emits events");
    }

    /// Every submitted request produces exactly one `Submitted` and
    /// exactly one terminal event, and every completed request's
    /// waterfall stages sum exactly to its end-to-end latency.
    #[test]
    fn events_conserve_and_waterfalls_sum(
        seed in 0u64..10_000,
        rate in 0.1f64..1.5,
        sched_index in 0usize..SchedKind::ALL.len(),
        capacity_kb in 13u64..40,
        shards in 1usize..4,
    ) {
        let sched = SchedKind::ALL[sched_index];
        let (report, events) = {
            let (handle, recorder) = SinkHandle::recording();
            let config = ClusterConfig {
                shards,
                per_shard_capacity_bytes: capacity_kb << 10,
                max_queue_depth: 16,
                router: RouterKind::RoundRobin,
                sched,
                migration: (shards > 1).then(MigrationConfig::default),
                trace: Some(handle),
                ..ClusterConfig::default()
            };
            let engines = (0..shards).map(|_| engine(1)).collect();
            let report = Cluster::new(engines, workload(seed, rate, 10), config).run();
            let events = recorder.lock().expect("recorder lock").take_events();
            (report, events)
        };

        let mut submitted: BTreeMap<u64, usize> = BTreeMap::new();
        let mut terminal: BTreeMap<u64, usize> = BTreeMap::new();
        for event in &events {
            if matches!(event.kind, TraceEventKind::Submitted { .. }) {
                *submitted.entry(event.request).or_default() += 1;
            }
            if event.kind.is_terminal() {
                *terminal.entry(event.request).or_default() += 1;
            }
        }
        prop_assert_eq!(submitted.len(), report.submitted(), "one Submitted per request");
        prop_assert!(submitted.values().all(|&n| n == 1), "Submitted emitted exactly once");
        prop_assert_eq!(
            terminal.len(),
            report.completed() + report.rejected(),
            "one terminal event per resolved request"
        );
        prop_assert!(terminal.values().all(|&n| n == 1), "terminal emitted exactly once");

        for shard in &report.shards {
            for record in &shard.records {
                if let (Some(w), Some(e2e)) = (record.waterfall(), record.e2e()) {
                    prop_assert_eq!(
                        w.e2e(), e2e,
                        "stage durations must sum to end-to-end latency"
                    );
                }
            }
        }
    }
}
