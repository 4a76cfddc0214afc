//! `serve_open` and `serve_chaos`: one open-loop arrival stream into a
//! four-shard cluster, fault-free and under a fault plan, driven through
//! `veda_serving::{Workload, Cluster}` only.
//!
//! A round builds a fresh cluster (untimed — the cluster is consumed by its
//! report), then times every `Cluster::tick` plus the report drain.
//! Requests are timed from their scheduled arrival tick: the cluster takes
//! an arrival on the tick it is due, whatever backlog it carries.

use rand::Rng;
use veda::{Engine, EngineBuilder, PrefixCacheConfig};
use veda_model::ModelConfig;
use veda_serving::{
    Cluster, ClusterConfig, ClusterReport, FaultConfig, FaultPlan, MigrationConfig, RequestMix,
    RequestRecord, RetryPolicy, RouterKind, SchedKind, ServingRequest, SinkHandle, Workload,
};

use crate::catalogue::{RATE_LADDER, SERVE_CHAOS};
use crate::harness::{self, Args, Checks, Ledger, Outcome, RequestTally};
use crate::host::{Stopwatch, Timed};
use crate::json::Json;
use crate::spans::{Recorder, Trace};
use crate::{host, input, serve_layers, stats};

pub const SHARDS: usize = 4;
/// Requests of the measured stream, and of each ladder rung.
pub const STREAM_REQUESTS: usize = 2000;
pub const RUNG_REQUESTS: usize = 1000;
/// Arrival rate of the measured stream, requests per tick. Calibrated once
/// (shape stream 7) to sit at the knee: `virt_slo_attain` ≈ 0.71 and
/// `completed_frac` ≈ 0.99 (0.15 → 0.90 / 1.0; 0.20 → 0.64 / 0.95). A
/// constant of the catalogue, never computed at run time.
pub const STREAM_RATE: f64 = 0.19;
/// The latency limits of `virt_slo_attain`, in ticks.
pub const SLO_TTFT_TICKS: u64 = 32;
pub const SLO_E2E_TICKS: u64 = 256;
/// Share of a rung's requests that must meet both limits.
pub const SLO_TARGET: f64 = 0.9;
pub const SHARED_PREFIX_LEN: usize = 32;
/// HBM per shard, in resident KV tokens.
const SHARD_CAPACITY_TOKENS: u64 = 400;
const FAULT_PLAN: &str = "crash@300:shard=1:recover=600:drain=20;degrade@100-900:shard=0:bw=0.2";

pub fn mix() -> RequestMix {
    RequestMix {
        shared_prefix_len: SHARED_PREFIX_LEN,
        prefix_groups: 12,
        prompt_len: (8, 48),
        max_new_tokens: (8, 48),
        priority_tiers: 3,
        ..RequestMix::default()
    }
}

/// The arrival stream: ticks, lengths, priorities, policies and budgets
/// come from `Workload::poisson` on the catalogue's shape stream; every
/// private suffix token is then redrawn from `seed` (see [`input`]).
pub fn arrivals(seed: u64, rate: f64, total: usize) -> Vec<(u64, ServingRequest)> {
    let mix = mix();
    let vocab = mix.vocab_size;
    let mut content = input::content_rng(seed, 5);
    let mut source = Workload::poisson(input::SHAPE_STREAM, rate, total, mix);
    let mut out = Vec::with_capacity(total);
    while let Some(tick) = source.next_arrival_tick() {
        for mut arrival in source.take_arrivals(tick) {
            for token in &mut arrival.request.prompt[SHARED_PREFIX_LEN..] {
                *token = content.gen_range(1..vocab);
            }
            out.push((tick, arrival));
        }
    }
    out
}

pub fn build_engine() -> Engine {
    EngineBuilder::new()
        .model(ModelConfig::tiny())
        .prefill_chunk(8)
        .tick_token_budget(64)
        .prefix_cache(PrefixCacheConfig {
            min_match_tokens: 8,
            max_entries: 8,
            max_bytes: 48 << 10,
            ttl_ticks: 200,
            spill: true,
        })
        .build()
        .expect("the catalogue's engine configuration is valid")
}

pub fn cluster_config(chaos: bool, kv_bytes_per_token: u64, trace: Option<SinkHandle>) -> ClusterConfig {
    let faults = chaos.then(|| FaultConfig {
        plan: FaultPlan::parse(FAULT_PLAN).expect("the catalogue's fault plan parses"),
        retry: RetryPolicy::default(),
        ttft_deadline: None,
        e2e_deadline: Some(400),
        shed_watermark: Some(0.8),
    });
    ClusterConfig {
        shards: SHARDS,
        per_shard_capacity_bytes: SHARD_CAPACITY_TOKENS * kv_bytes_per_token,
        max_queue_depth: 32,
        router: RouterKind::PrefixAffinity,
        sched: SchedKind::Priority,
        migration: Some(MigrationConfig::default()),
        trace,
        faults,
        ..ClusterConfig::default()
    }
}

pub fn build_cluster(chaos: bool, arrivals: &[(u64, ServingRequest)], trace: Option<SinkHandle>) -> Cluster {
    let engines: Vec<Engine> = (0..SHARDS).map(|_| build_engine()).collect();
    let config = cluster_config(chaos, engines[0].kv_bytes_per_token(), trace);
    Cluster::new(engines, Workload::trace(arrivals.to_vec()), config)
}

/// One complete set-up: the seeded arrival stream, four engines and the
/// cluster, and a fifth engine of the same configuration that serves one
/// tiny request (the cluster's own engines must stay idle and pristine).
fn setup(seed: u64, chaos: bool) -> (Vec<(u64, ServingRequest)>, Cluster, usize) {
    let arrivals = arrivals(seed, STREAM_RATE, STREAM_REQUESTS);
    let cluster = build_cluster(chaos, &arrivals, None);
    let mut spare = build_engine();
    spare.submit(veda::Request::new([3usize, 17, 5, 9], 4)).expect("the tiny request is valid");
    let tiny_tokens = spare.run_to_completion().total_tokens;
    (arrivals, cluster, tiny_tokens)
}

/// What one cluster run produced.
pub struct RoundResult {
    pub report: ClusterReport,
    /// Requests in flight when the half-way and the last arrival landed.
    pub in_flight_half: usize,
    pub in_flight_last: usize,
    /// Requests still in flight when the run stopped (0 unless `max_ticks` hit).
    pub backlog_end: usize,
}

/// Runs `cluster` to completion. When traced, every `Cluster::tick` gets a
/// span under the round's.
pub fn run_cluster(mut cluster: Cluster, total: usize, mut trace: Trace<'_>) -> (Timed, RoundResult) {
    let (mut in_flight_half, mut in_flight_last) = (None, None);
    let watch = Stopwatch::start();
    let round = trace.open("round", None, None);
    while !cluster.is_done() && cluster.now() < CLUSTER_MAX_TICKS {
        trace.span("serving.cluster_tick", round, None, || cluster.tick());
        if in_flight_half.is_none() && cluster.submitted() >= total / 2 {
            in_flight_half = Some(cluster.in_flight());
        }
        if in_flight_last.is_none() && cluster.submitted() >= total {
            in_flight_last = Some(cluster.in_flight());
        }
    }
    let backlog_end = cluster.in_flight();
    // `run` finds the cluster done and only folds the shards into the report.
    let report = trace.span("serving.report", round, None, || cluster.run());
    trace.close(round);
    let result = RoundResult {
        report,
        in_flight_half: in_flight_half.unwrap_or(0),
        in_flight_last: in_flight_last.unwrap_or(0),
        backlog_end,
    };
    (watch.stop(), result)
}

/// The cluster's own safety valve (`ClusterConfig::max_ticks` default).
const CLUSTER_MAX_TICKS: u64 = 1_000_000;

pub fn records(report: &ClusterReport) -> impl Iterator<Item = &RequestRecord> {
    report.shards.iter().flat_map(|s| s.records.iter())
}

/// Share of submitted requests that finish within both latency limits;
/// anything rejected, shed, dead-lettered or unfinished misses.
pub fn slo_attain(report: &ClusterReport) -> f64 {
    let met = records(report)
        .filter(|r| r.finished.is_some())
        .filter(|r| {
            r.ttft().is_some_and(|t| t <= SLO_TTFT_TICKS) && r.e2e().is_some_and(|t| t <= SLO_E2E_TICKS)
        })
        .count();
    met as f64 / report.submitted().max(1) as f64
}

/// Tokens the host pushed through a model: on-clock prefill + generated.
pub fn forwarded_tokens(report: &ClusterReport) -> u64 {
    report.shards.iter().map(|s| (s.engine.prefill_tokens + s.engine.total_tokens) as u64).sum()
}

pub fn generated_tokens(report: &ClusterReport) -> u64 {
    report.shards.iter().map(|s| s.engine.total_tokens as u64).sum()
}

pub fn total_cycles(report: &ClusterReport) -> u64 {
    report.shards.iter().map(|s| s.engine.batched_total_cycles).sum()
}

fn virt_metrics(report: &ClusterReport, clock_ghz: f64) -> Ledger {
    let finished: Vec<&RequestRecord> = records(report).filter(|r| r.finished.is_some()).collect();
    let mut ttft: Vec<u64> = finished.iter().filter_map(|r| r.ttft()).collect();
    let mut e2e: Vec<u64> = finished.iter().filter_map(|r| r.e2e()).collect();
    ttft.sort_unstable();
    e2e.sort_unstable();
    let generated = generated_tokens(report);
    let energy_mj: f64 = report
        .shards
        .iter()
        .map(|s| s.engine.batched_energy_mj_per_token * s.engine.total_tokens as f64)
        .sum();
    let mut virt = Ledger::default();
    virt.set("virt_tok_s", generated as f64 / (total_cycles(report) as f64 / (clock_ghz * 1e9)));
    virt.set("virt_energy_mj_tok", energy_mj / generated.max(1) as f64);
    virt.set("virt_ttft_ticks_p50", stats::nearest_rank(&ttft, 0.5).unwrap_or(0) as f64);
    virt.set("virt_ttft_ticks_p99", stats::nearest_rank(&ttft, 0.99).unwrap_or(0) as f64);
    virt.set("virt_e2e_ticks_p99", stats::nearest_rank(&e2e, 0.99).unwrap_or(0) as f64);
    virt.set("virt_slo_attain", slo_attain(report));
    virt.set("kv_peak_bytes", report.shards.iter().map(|s| s.kv_resident_peak_bytes).sum::<u64>() as f64);
    virt
}

/// Requests of one run by terminal state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Terminal {
    pub finished: usize,
    pub rejected: usize,
    pub shed: usize,
    pub dead_lettered: usize,
    pub unfinished: usize,
}

pub fn terminal_states(report: &ClusterReport) -> Terminal {
    let mut t = Terminal::default();
    for r in records(report) {
        if r.finished.is_some() {
            t.finished += 1;
        } else if r.rejected.is_some() {
            t.rejected += 1;
        } else if r.shed.is_some() {
            t.shed += 1;
        } else if r.dead_letter.is_some() {
            t.dead_lettered += 1;
        } else {
            t.unfinished += 1;
        }
    }
    t
}

/// Serving invariants of one report.
fn verify_report(checks: &mut Checks, r: usize, result: &RoundResult, expected: usize) {
    let report = &result.report;
    let t = terminal_states(report);
    checks.check(report.submitted() == expected && records(report).count() == expected, || {
        format!("round {r}: {} of {expected} requests were submitted", report.submitted())
    });
    checks.check(
        t.finished == report.completed()
            && t.rejected == report.rejected()
            && t.shed as u64 == report.shed
            && t.dead_lettered as u64 == report.dead_letters,
        || format!("round {r}: records {t:?} disagree with the report's counters"),
    );
    checks.check(
        records(report).all(|x| {
            [x.finished.is_some(), x.rejected.is_some(), x.shed.is_some(), x.dead_letter.is_some()]
                .iter()
                .filter(|b| **b)
                .count()
                <= 1
        }),
        || format!("round {r}: a request reached two terminal states"),
    );
    checks.check(t.unfinished == 0 && result.backlog_end == 0, || {
        format!(
            "round {r}: {} request(s) unfinished, {} in flight at the end",
            t.unfinished, result.backlog_end
        )
    });
    checks.check(records(report).all(|x| x.finished.is_none() || x.first_token <= x.finished), || {
        format!("round {r}: a request finished before its first token")
    });
    for shard in &report.shards {
        checks.check(shard.kv_reserved_peak_bytes <= shard.capacity_bytes, || {
            format!(
                "round {r}: shard {} reserved {} B of {} B",
                shard.shard_id, shard.kv_reserved_peak_bytes, shard.capacity_bytes
            )
        });
        checks.check(shard.engine.prefix.entries_conserved(), || {
            format!("round {r}: shard {} prefix cache entries are not conserved", shard.shard_id)
        });
    }
}

/// One rung of the rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rate_per_ktick: u32,
    pub attain: f64,
    /// In flight at the last arrival ≤ 2 × in flight at the half-way arrival.
    pub backlog_stable: bool,
}

/// Runs the fixed rate ladder (fault-free cluster, `RUNG_REQUESTS` each),
/// two rungs at a time — once per run, outside the timed rounds.
pub fn rate_ladder(seed: u64) -> Vec<Rung> {
    let rung = |rate_per_ktick: u32| {
        let stream = arrivals(seed, f64::from(rate_per_ktick) / 1000.0, RUNG_REQUESTS);
        let (_, result) = run_cluster(build_cluster(false, &stream, None), RUNG_REQUESTS, Trace(None));
        Rung {
            rate_per_ktick,
            attain: slo_attain(&result.report),
            backlog_stable: result.in_flight_last <= 2 * result.in_flight_half.max(1),
        }
    };
    let threads = host::worker_threads();
    let mut rungs = Vec::new();
    for pair in RATE_LADDER.chunks(threads) {
        std::thread::scope(|scope| {
            let handles: Vec<_> = pair.iter().map(|&rate| scope.spawn(move || rung(rate))).collect();
            rungs.extend(handles.into_iter().map(|h| h.join().expect("ladder rung panicked")));
        });
    }
    rungs
}

/// Highest rung that meets the target without a growing backlog.
pub fn max_rate_slo(rungs: &[Rung]) -> Option<u32> {
    rungs.iter().filter(|r| r.attain >= SLO_TARGET && r.backlog_stable).map(|r| r.rate_per_ktick).max()
}

pub fn run(args: &Args) -> Outcome {
    let chaos = args.workload == SERVE_CHAOS;
    let mut checks = Checks::default();
    let (setup_s, (arrivals, first_cluster, tiny_tokens)) =
        harness::measure_setup(|| setup(args.seed, chaos));
    checks.check(tiny_tokens == 4, || format!("the tiny request generated {tiny_tokens} tokens, not 4"));
    let clock_ghz = first_cluster.shards()[0].engine().arch().clock_ghz;

    let mut recorder = args.trace.then(Recorder::new);
    let mut prepared = Some(first_cluster);
    let mut next_cluster = || prepared.take().unwrap_or_else(|| build_cluster(chaos, &arrivals, None));
    let (rounds, untraced) = harness::run_rounds(
        args,
        |traced| {
            run_cluster(next_cluster(), STREAM_REQUESTS, Trace(if traced { recorder.as_mut() } else { None }))
        },
        |r, result, first| {
            verify_report(&mut checks, r, result, STREAM_REQUESTS);
            checks.check(result.report == first.report, || {
                format!("round {r}: cluster report differs from round 0")
            });
        },
    );
    // Read before the rate ladder (two more clusters at once) and the probes.
    let peak_rss_mib = host::peak_rss_mib();
    let first = rounds.first();
    let virt = virt_metrics(&first.report, clock_ghz);
    let terminal = terminal_states(&first.report);
    checks.check(stats::tail_supported(terminal.finished, 0.99), || {
        format!("{} finished requests do not leave ten samples beyond p99", terminal.finished)
    });
    let requests = RequestTally {
        attempted: STREAM_REQUESTS as u64,
        lost: (STREAM_REQUESTS - terminal.finished) as u64,
    };

    let ladder = (!chaos).then(|| rate_ladder(args.seed));
    let max_rate = ladder.as_deref().map(|rungs| {
        let best = max_rate_slo(rungs);
        checks.check(best.is_some(), || format!("no rung of the ladder meets the target: {rungs:?}"));
        f64::from(best.unwrap_or(0))
    });

    let mut notes = rounds.notes();
    notes.extend([
        ("tokens_per_round", Json::Num(forwarded_tokens(&first.report) as f64)),
        ("finished", Json::Num(terminal.finished as f64)),
        ("rejected", Json::Num(terminal.rejected as f64)),
        ("shed", Json::Num(terminal.shed as f64)),
        ("dead_lettered", Json::Num(terminal.dead_lettered as f64)),
        ("generator_lateness_ticks", Json::Num(0.0)),
    ]);
    if let Some(rungs) = &ladder {
        notes.push((
            "ladder",
            Json::Arr(
                rungs
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("rate_per_ktick", Json::Num(f64::from(r.rate_per_ktick))),
                            ("attain", Json::Num(r.attain)),
                            ("backlog_stable", Json::Bool(r.backlog_stable)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }

    let mut metrics = Ledger::default();
    if args.trace {
        let layers = serve_layers::Inputs {
            args,
            chaos,
            arrivals: &arrivals,
            rounds: &rounds,
            untraced: &untraced,
            ladder: ladder.as_deref(),
            virt: &virt,
            clock_ghz,
            recorder: recorder.as_ref().expect("traced runs record"),
        };
        serve_layers::measure(layers, &mut metrics, &mut checks, &mut notes);
    } else {
        metrics.set("setup_s", setup_s);
        metrics.set("host_tok_s", forwarded_tokens(&first.report) as f64 / rounds.median_wall());
        metrics.set("host_peak_rss_mb", peak_rss_mib.unwrap_or(f64::NAN));
        metrics.extend(virt);
        if let Some(rate) = max_rate {
            metrics.set("virt_max_rate_slo", rate);
        }
        metrics.set("completed_frac", harness::completed_frac(requests, &checks));
    }
    Outcome { metrics, checks, requests, notes, spans: recorder }
}
