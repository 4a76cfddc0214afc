//! Wall-clock decode throughput baseline: serial vs session-parallel
//! engine ticks across a batch sweep, the allocating vs scratch forward
//! path and the batched LM head per session count, written to
//! `BENCH_decode.json` — a chunked-prefill
//! interference sweep (chunk size × prompt length → TTFT p50/p99 and
//! decode tokens/s in *virtual* time), written to `BENCH_prefill.json` —
//! and a cluster-plane sweep (shard count × routing policy over a
//! shared-prefix workload → throughput, latency, rejection rate, prefix
//! hit rate and migration traffic), written to `BENCH_cluster.json` —
//! and a fault-plane sweep (fault scenario × router × load shedding →
//! goodput, p99 end-to-end latency, retries, dead letters, shed count
//! and availability), written to `BENCH_faults.json` — and a
//! prefix-cache churn sweep (cache byte bound × TTL × spill on/off over
//! a pressured shared-prefix run → hit rate, admitted count and
//! spill/fill/expiry traffic), written to `BENCH_prefix.json` — so
//! future PRs have pinned perf references.
//!
//! ```sh
//! cargo run --release -p veda-bench --bin throughput            # full sweep
//! cargo run --release -p veda-bench --bin throughput -- --quick # CI-sized
//! ```

use std::time::Instant;

use veda::{Budget, EngineBuilder, PrefixCacheConfig, PrefixCacheStats, Request, SessionPhase, TokenEvent};
use veda_eviction::PolicyKind;
use veda_model::ModelConfig;
use veda_serving::{
    AdmissionConfig, Cluster, ClusterConfig, ClusterReport, FaultConfig, FaultPlan, MigrationConfig,
    RequestMix, RetryPolicy, RouterKind, SchedKind, Server, ServerConfig, ServingRequest, StageSummaries,
    Workload,
};
use veda_telemetry::nearest_rank;

struct Args {
    quick: bool,
    json: String,
    prefill_json: String,
    cluster_json: String,
    faults_json: String,
    prefix_json: String,
    gen_tokens: usize,
}

fn parse_args() -> Result<Args, Box<dyn std::error::Error>> {
    let mut parsed = Args {
        quick: false,
        json: "BENCH_decode.json".to_string(),
        prefill_json: "BENCH_prefill.json".to_string(),
        cluster_json: "BENCH_cluster.json".to_string(),
        faults_json: "BENCH_faults.json".to_string(),
        prefix_json: "BENCH_prefix.json".to_string(),
        gen_tokens: 32,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--json" => parsed.json = args.next().ok_or("missing value after --json")?,
            "--prefill-json" => {
                parsed.prefill_json = args.next().ok_or("missing value after --prefill-json")?;
            }
            "--cluster-json" => {
                parsed.cluster_json = args.next().ok_or("missing value after --cluster-json")?;
            }
            "--faults-json" => {
                parsed.faults_json = args.next().ok_or("missing value after --faults-json")?;
            }
            "--prefix-json" => {
                parsed.prefix_json = args.next().ok_or("missing value after --prefix-json")?;
            }
            "--gen" => parsed.gen_tokens = args.next().ok_or("missing value after --gen")?.parse()?,
            "--help" | "-h" => {
                println!(
                    "usage: throughput [--quick] [--json PATH] [--prefill-json PATH] \
                     [--cluster-json PATH] [--faults-json PATH] [--prefix-json PATH] [--gen N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)").into()),
        }
    }
    Ok(parsed)
}

/// Seeded request mix: every session voting-evicted at ratio 0.5, prompts
/// long enough that attention over the resident cache is real work.
fn requests(n: usize, prompt_len: usize, gen_tokens: usize, vocab: usize) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let prompt: Vec<usize> =
                (0..prompt_len + (i % 5)).map(|j| (j * 7 + i * 13) % (vocab - 1) + 1).collect();
            Request::new(prompt, gen_tokens).policy(PolicyKind::Voting).budget(Budget::Ratio(0.5))
        })
        .collect()
}

struct EnginePoint {
    batch: usize,
    threads: usize,
    tokens: usize,
    wall_s: f64,
    tokens_per_s: f64,
    ns_per_token: f64,
}

/// One engine measurement: build, then three waves of prefill
/// (unmeasured) and a timed decode loop to completion — the fastest wave
/// counts, to shave scheduler noise off the shared-host numbers.
fn measure_engine(model: &ModelConfig, batch: usize, threads: usize, gen_tokens: usize) -> EnginePoint {
    let mut engine =
        EngineBuilder::new().model(model.clone()).decode_threads(threads).build().expect("valid config");
    let (mut wall_s, mut tokens) = (f64::INFINITY, 0);
    for _ in 0..3 {
        for request in requests(batch, 48, gen_tokens, model.vocab_size) {
            engine.submit(request).expect("valid request");
        }
        let start = Instant::now();
        while engine.active_sessions() > 0 {
            engine.step();
        }
        wall_s = wall_s.min(start.elapsed().as_secs_f64());
        tokens = engine.drain_report().total_tokens;
    }
    EnginePoint {
        batch,
        threads,
        tokens,
        wall_s,
        tokens_per_s: tokens as f64 / wall_s.max(1e-12),
        ns_per_token: wall_s * 1e9 / tokens.max(1) as f64,
    }
}

struct PrefillPoint {
    /// Prompt tokens per prefilling session per tick; 0 = instant
    /// (off-clock) prefill.
    chunk: usize,
    prompt_len: usize,
    ttft_p50_us: f64,
    ttft_p99_us: f64,
    /// Decode throughput (generated tokens per *virtual* second) over the
    /// probe phase — the interference signal: prefill chunks lengthen the
    /// mixed ticks the background decode sessions ride on.
    decode_tokens_per_s: f64,
}

/// Nearest-rank percentile of an unsorted sample set (the same exact
/// percentile the serving reports use, via `veda_telemetry`).
fn percentile_us(samples: &mut [u64], q: f64) -> f64 {
    samples.sort_unstable();
    nearest_rank(samples, q).expect("probe sets are non-empty") as f64
}

/// Chunked-prefill interference, measured in virtual time on the tiny
/// geometry: 4 long-running decode sessions share the engine with a
/// sequence of prefill probes of `prompt_len` tokens each; per probe we
/// record TTFT in engine cycles (converted to µs at the architecture
/// clock), and across the whole probe phase the decode tokens/s the
/// background sessions sustained.
fn measure_prefill(model: &ModelConfig, chunk: usize, prompt_len: usize, probes: usize) -> PrefillPoint {
    let mut builder = EngineBuilder::new().model(model.clone());
    if chunk > 0 {
        builder = builder.prefill_chunk(chunk);
    }
    let mut engine = builder.build().expect("valid config");
    let clock_ghz = engine.arch().clock_ghz;

    // Background decoders, sized to outlive every probe.
    let bg_new = probes * (prompt_len + 20) + 32;
    let background: Vec<_> = (0..4)
        .map(|i| {
            let prompt: Vec<usize> = (0..16).map(|j| (j * 7 + i * 13) % (model.vocab_size - 1) + 1).collect();
            engine
                .submit(Request::new(prompt, bg_new).policy(PolicyKind::Voting).budget(Budget::Ratio(0.5)))
                .expect("valid request")
        })
        .collect();
    while background.iter().any(|&s| engine.session_phase(s) == Some(SessionPhase::Prefilling)) {
        engine.step();
    }

    let mut ttft_us: Vec<u64> = Vec::with_capacity(probes);
    let mut span_cycles = 0u64;
    let mut span_decode_tokens = 0u64;
    for p in 0..probes {
        let prompt: Vec<usize> =
            (0..prompt_len).map(|j| (j * 11 + p * 29) % (model.vocab_size - 1) + 1).collect();
        let probe = engine
            .submit(Request::new(prompt, 4).policy(PolicyKind::Voting).budget(Budget::Ratio(0.5)))
            .expect("valid request");
        let mut probe_cycles = 0u64;
        let mut first_token_at: Option<u64> = None;
        while engine.is_active(probe) {
            let tick = engine.step();
            probe_cycles += tick.batch_cycles;
            span_cycles += tick.batch_cycles;
            span_decode_tokens +=
                tick.events.iter().filter(|e| e.generated_token().is_some() && e.session() != probe).count()
                    as u64;
            if first_token_at.is_none()
                && tick
                    .events
                    .iter()
                    .any(|e| e.session() == probe && matches!(e, TokenEvent::Generated { .. }))
            {
                first_token_at = Some(probe_cycles);
            }
        }
        let cycles = first_token_at.expect("probe generated at least one token");
        ttft_us.push((cycles as f64 / (clock_ghz * 1e3)).round() as u64);
    }
    assert!(
        background.iter().all(|&s| engine.is_active(s)),
        "background sessions must outlive the probe phase"
    );

    let span_seconds = span_cycles as f64 / (clock_ghz * 1e9);
    PrefillPoint {
        chunk,
        prompt_len,
        ttft_p50_us: percentile_us(&mut ttft_us, 0.50),
        ttft_p99_us: percentile_us(&mut ttft_us, 0.99),
        decode_tokens_per_s: span_decode_tokens as f64 / span_seconds.max(1e-12),
    }
}

struct PrefixCachePoint {
    /// Shared prefix length of the workload's prompts.
    prefix_len: usize,
    /// On-clock prefill tokens with the cache disabled / enabled (the
    /// delta is the prefill work the sharing removed).
    prefill_tokens_disabled: usize,
    prefill_tokens_enabled: usize,
    stats: PrefixCacheStats,
}

/// Shared-prefix reuse, measured in virtual time: `waves` waves of 4
/// requests sharing a `prefix_len`-token prefix (plus private suffixes)
/// run through a chunked-prefill engine, once with the prefix cache off
/// and once on. Deterministic — a model property like the interference
/// sweep, not a wall-clock measurement.
fn measure_prefix_cache(model: &ModelConfig, prefix_len: usize, waves: usize) -> PrefixCachePoint {
    let run = |enabled: bool| {
        let mut builder = EngineBuilder::new().model(model.clone()).prefill_chunk(8);
        if enabled {
            builder = builder.prefix_cache(PrefixCacheConfig {
                min_match_tokens: 4,
                max_entries: 32,
                ..PrefixCacheConfig::default()
            });
        }
        let mut engine = builder.build().expect("valid config");
        let mut prefill_tokens = 0;
        for wave in 0..waves {
            for i in 0..4 {
                let mut prompt: Vec<usize> =
                    (0..prefix_len).map(|j| (j * 7 + 3) % (model.vocab_size - 1) + 1).collect();
                prompt.extend((0..6 + i).map(|j| (j * 11 + wave * 5 + i * 17) % (model.vocab_size - 1) + 1));
                engine
                    .submit(Request::new(prompt, 4).policy(PolicyKind::Voting).budget(Budget::Ratio(0.5)))
                    .expect("valid request");
            }
            while engine.active_sessions() > 0 {
                prefill_tokens += engine.step().prefill_tokens;
            }
        }
        (prefill_tokens, engine.prefix_cache_stats())
    };
    let (prefill_tokens_disabled, _) = run(false);
    let (prefill_tokens_enabled, stats) = run(true);
    PrefixCachePoint { prefix_len, prefill_tokens_disabled, prefill_tokens_enabled, stats }
}

struct ClusterPoint {
    shards: usize,
    router: RouterKind,
    completed: usize,
    rejected: usize,
    ttft_p50_ticks: u64,
    ttft_p99_ticks: u64,
    tokens_per_tick: f64,
    prefix_hit_rate: f64,
    migrations: u64,
    migration_bytes: u64,
}

impl ClusterPoint {
    fn of(shards: usize, report: &ClusterReport) -> Self {
        let ttft = report.ttft();
        Self {
            shards,
            router: report.router,
            completed: report.completed(),
            rejected: report.rejected(),
            ttft_p50_ticks: ttft.map_or(0, |t| t.p50),
            ttft_p99_ticks: ttft.map_or(0, |t| t.p99),
            tokens_per_tick: report.generated_tokens() as f64 / (report.ticks.max(1)) as f64,
            prefix_hit_rate: report.prefix_hit_rate(),
            migrations: report.migrations,
            migration_bytes: report.migration_bytes,
        }
    }

    fn json_row(&self, scenario: &str) -> String {
        format!(
            "    {{\"scenario\": \"{}\", \"shards\": {}, \"router\": \"{}\", \"completed\": {}, \
             \"rejected\": {}, \"ttft_p50_ticks\": {}, \"ttft_p99_ticks\": {}, \
             \"tokens_per_tick\": {:.3}, \"prefix_hit_rate\": {:.4}, \"migrations\": {}, \
             \"migration_bytes\": {}}}",
            scenario,
            self.shards,
            self.router,
            self.completed,
            self.rejected,
            self.ttft_p50_ticks,
            self.ttft_p99_ticks,
            self.tokens_per_tick,
            self.prefix_hit_rate,
            self.migrations,
            self.migration_bytes,
        )
    }
}

/// Shard × router sweep over shared-prefix Poisson traffic (the
/// `cluster_stack` acceptance workload): 5 prompt groups each with a
/// 24-token shared prefix, prefix-cache engines on every shard, ample
/// per-shard capacity so routing quality — not admission pressure — is
/// the signal. Five groups is deliberately coprime to every swept shard
/// count: groups rotate by arrival index exactly like the round-robin
/// cursor, so a group count that divided the shard count would hand
/// round-robin accidental perfect affinity. Virtual time; deterministic.
fn measure_cluster(shards: usize, router: RouterKind, requests: usize) -> ClusterPoint {
    let mix = RequestMix {
        shared_prefix_len: 24,
        prefix_groups: 5,
        prompt_len: (3, 6),
        max_new_tokens: (4, 8),
        budgets: vec![Budget::Unbounded],
        ..RequestMix::default()
    };
    let engines: Vec<_> = (0..shards)
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
    let workload = Workload::poisson(19, 0.6, requests, mix);
    let config = ClusterConfig {
        shards,
        per_shard_capacity_bytes: 1 << 20,
        max_queue_depth: 64,
        router,
        sched: SchedKind::Fcfs,
        migration: Some(MigrationConfig::default()),
        ..ClusterConfig::default()
    };
    let report = Cluster::new(engines, workload, config).run();
    ClusterPoint::of(shards, &report)
}

/// A pressured single-server run for the stage-waterfall reference:
/// chunked prefill on a tight KV budget with a preemptive scheduler, so
/// the waterfall's stages (queueing, on-clock prefill, decode, swap
/// wait) all carry real ticks. Virtual time; deterministic.
fn measure_server_waterfall(requests: usize) -> Option<StageSummaries> {
    let engine =
        EngineBuilder::new().model(ModelConfig::tiny()).prefill_chunk(4).build().expect("valid config");
    let per_token = engine.kv_bytes_per_token();
    let workload = Workload::poisson(11, 0.8, requests, RequestMix::default());
    let config = ServerConfig {
        admission: AdmissionConfig { capacity_bytes: 96 * per_token, max_queue_depth: 64 },
        sched: SchedKind::Priority,
        ..ServerConfig::default()
    };
    Server::new(engine, workload, config).run().stages()
}

/// Renders per-stage p50/p99 rows for a `"stage_waterfall"` JSON array.
fn stage_waterfall_json(stages: Option<&StageSummaries>) -> String {
    let mut out = String::new();
    if let Some(stages) = stages {
        let rows = stages.rows();
        for (i, (name, summary)) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"p50_ticks\": {}, \"p99_ticks\": {}}}{}\n",
                name,
                summary.p50,
                summary.p99,
                if i + 1 == rows.len() { "" } else { "," },
            ));
        }
    }
    out
}

/// Migration under deliberate imbalance: size-alternating requests all
/// arriving at tick 0, round-robin across 2 tight shards with aggressive
/// thresholds — round-robin piles the large requests onto shard 0, and
/// migration visibly rebalances (nonzero migrations / bytes in the JSON).
fn measure_migration_demo() -> (ClusterPoint, Option<StageSummaries>) {
    let per_token =
        EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid config").kv_bytes_per_token();
    let arrivals = (0..6)
        .map(|i| {
            let (prompt_len, max_new) = if i % 2 == 0 { (30, 10) } else { (4, 4) };
            let prompt: Vec<usize> = (0..prompt_len).map(|j| (i + 3 * j) % 50 + 1).collect();
            (0u64, ServingRequest { request: Request::new(prompt, max_new), priority: 0 })
        })
        .collect();
    let engines: Vec<_> = (0..2)
        .map(|_| EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid config"))
        .collect();
    let config = ClusterConfig {
        shards: 2,
        per_shard_capacity_bytes: 200 * per_token,
        max_queue_depth: 64,
        router: RouterKind::RoundRobin,
        sched: SchedKind::Fcfs,
        migration: Some(MigrationConfig { hot_fraction: 0.5, cold_fraction: 0.5, max_per_tick: 1 }),
        ..ClusterConfig::default()
    };
    let report = Cluster::new(engines, Workload::trace(arrivals), config).run();
    (ClusterPoint::of(2, &report), report.stages())
}

struct FaultPoint {
    scenario: &'static str,
    router: RouterKind,
    shed_on: bool,
    completed: usize,
    rejected: usize,
    retries: u64,
    timeouts: u64,
    dead_letters: u64,
    shed: u64,
    goodput: f64,
    e2e_p99_ticks: u64,
    availability: f64,
    recovery_p99_ticks: u64,
    swap_link_cycles: u64,
}

impl FaultPoint {
    fn json_row(&self) -> String {
        format!(
            "    {{\"scenario\": \"{}\", \"router\": \"{}\", \"shed\": {}, \"completed\": {}, \
             \"rejected\": {}, \"retries\": {}, \"timeouts\": {}, \"dead_letters\": {}, \
             \"shed_count\": {}, \"goodput_per_tick\": {:.4}, \"e2e_p99_ticks\": {}, \
             \"availability\": {:.4}, \"recovery_p99_ticks\": {}, \"swap_link_cycles\": {}}}",
            self.scenario,
            self.router,
            self.shed_on,
            self.completed,
            self.rejected,
            self.retries,
            self.timeouts,
            self.dead_letters,
            self.shed,
            self.goodput,
            self.e2e_p99_ticks,
            self.availability,
            self.recovery_p99_ticks,
            self.swap_link_cycles,
        )
    }
}

/// Fault-plane sweep point: one scenario × router × shedding run over a
/// 2-shard cluster under a pressured Poisson arrival stream. Scenarios
/// reuse the same seed and workload, so every delta against `baseline`
/// is the fault plane's doing. Virtual time; deterministic.
fn measure_faults(scenario: &'static str, router: RouterKind, shed_on: bool, requests: usize) -> FaultPoint {
    let plan = match scenario {
        "baseline" => FaultPlan::default(),
        "crash_recover" => FaultPlan::parse("crash@8:shard=1:recover=48:drain=2").expect("valid spec"),
        "crash_permanent" => FaultPlan::parse("crash@8:shard=1").expect("valid spec"),
        "degraded_link" => FaultPlan::parse("degrade@4-400:shard=0:bw=0.1").expect("valid spec"),
        other => panic!("unknown fault scenario {other:?}"),
    };
    let engines: Vec<_> = (0..2)
        .map(|_| {
            EngineBuilder::new().model(ModelConfig::tiny()).prefill_chunk(4).build().expect("valid config")
        })
        .collect();
    let workload = Workload::poisson(7, 2.5, requests, RequestMix::default());
    let config = ClusterConfig {
        shards: 2,
        per_shard_capacity_bytes: 10 << 10,
        max_queue_depth: 12,
        router,
        // Preemptive tiers + tight KV keep real swap DMA on the host
        // link, so the degraded_link scenario has traffic to slow down.
        sched: SchedKind::Priority,
        faults: Some(FaultConfig {
            plan,
            retry: RetryPolicy::default(),
            ttft_deadline: None,
            e2e_deadline: Some(512),
            shed_watermark: shed_on.then_some(0.6),
        }),
        ..ClusterConfig::default()
    };
    let report = Cluster::new(engines, workload, config).run();
    FaultPoint {
        scenario,
        router,
        shed_on,
        completed: report.completed(),
        rejected: report.rejected(),
        retries: report.retries,
        timeouts: report.timeouts,
        dead_letters: report.dead_letters,
        shed: report.shed,
        goodput: report.goodput(),
        e2e_p99_ticks: report.e2e().map_or(0, |s| s.p99),
        availability: report.availability(),
        recovery_p99_ticks: report.recovery().map_or(0, |s| s.p99),
        swap_link_cycles: report.shards.iter().map(|s| s.swap_cycles).sum(),
    }
}

struct PrefixChurnPoint {
    cache_kb: u64,
    ttl: u64,
    spill: bool,
    admitted: usize,
    completed: usize,
    rejected: usize,
    stats: PrefixCacheStats,
}

impl PrefixChurnPoint {
    fn json_row(&self) -> String {
        format!(
            "    {{\"cache_kb\": {}, \"ttl_ticks\": {}, \"spill\": {}, \"admitted\": {}, \
             \"completed\": {}, \"rejected\": {}, \"hit_rate\": {:.4}, \"hits\": {}, \
             \"misses\": {}, \"evictions\": {}, \"expiries\": {}, \"spills\": {}, \"fills\": {}, \
             \"spill_bytes\": {}, \"fill_bytes\": {}, \"host_entries\": {}}}",
            self.cache_kb,
            self.ttl,
            self.spill,
            self.admitted,
            self.completed,
            self.rejected,
            self.stats.hit_rate(),
            self.stats.hits,
            self.stats.misses,
            self.stats.evictions,
            self.stats.expiries,
            self.stats.spills,
            self.stats.fills,
            self.stats.spill_bytes,
            self.stats.fill_bytes,
            self.stats.host_entries,
        )
    }
}

/// Prefix-cache churn under admission pressure: a single pressured
/// server (32 KiB HBM, queue depth 6) over Poisson shared-prefix
/// traffic (2 groups, 16-token shared prefix, short private suffixes),
/// with the engine's cache byte-starved so entries actually churn. The
/// swept knobs are the v2 cache's: byte bound × TTL × spill on/off.
/// With spill on, evicted-for-room entries move to the host tier and
/// later arrivals still hit them (paying the fill DMA once), so their
/// shared span skips on-clock prefill and the queue turns over faster —
/// the drop-on-evict configuration re-prefills the whole prompt instead
/// and screen-rejects more arrivals. Virtual time; deterministic.
fn measure_prefix_churn(cache_kb: u64, ttl: u64, spill: bool, requests: usize) -> PrefixChurnPoint {
    let engine = match EngineBuilder::new()
        .model(ModelConfig::tiny())
        .prefill_chunk(4)
        .prefix_cache(PrefixCacheConfig {
            min_match_tokens: 4,
            max_entries: 16,
            max_bytes: cache_kb << 10,
            ttl_ticks: ttl,
            spill,
        })
        .build()
    {
        Ok(engine) => engine,
        Err(err) => panic!("churn-probe engine config is static and valid: {err}"),
    };
    let mix = RequestMix {
        shared_prefix_len: 16,
        prefix_groups: 2,
        prompt_len: (4, 7),
        budgets: vec![Budget::Unbounded],
        ..RequestMix::default()
    };
    let workload = Workload::poisson(29, 0.8, requests, mix);
    let config = ServerConfig {
        admission: AdmissionConfig { capacity_bytes: 32 << 10, max_queue_depth: 6 },
        sched: SchedKind::Fcfs,
        ..ServerConfig::default()
    };
    let report = Server::new(engine, workload, config).run();
    PrefixChurnPoint {
        cache_kb,
        ttl,
        spill,
        admitted: report.admitted,
        completed: report.completed,
        rejected: report.rejected(),
        stats: report.engine.prefix,
    }
}

struct ForwardPoint {
    label: &'static str,
    ns_per_token: f64,
}

/// Times the allocating `forward_in` against the scratch path on one
/// sequence with a warm cache of `resident` tokens. Best of three passes
/// per path, to shave scheduler noise off the shared-host numbers.
fn measure_forward(model: &ModelConfig, resident: usize, tokens: usize) -> Vec<ForwardPoint> {
    use veda_model::TransformerModel;
    let m = TransformerModel::new(model.clone());
    let token = |i: usize| (i * 11 + 1) % model.vocab_size;
    let mut out = Vec::new();
    const PASSES: usize = 3;

    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let mut state = m.new_state();
        for pos in 0..resident {
            m.forward_in(&mut state, token(pos), pos);
        }
        let start = Instant::now();
        for i in 0..tokens {
            std::hint::black_box(m.forward_in(&mut state, token(resident + i), resident + i));
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / tokens as f64);
    }
    out.push(ForwardPoint { label: "forward_alloc", ns_per_token: best });

    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let mut state = m.new_state();
        state.reserve(resident + tokens + 1, model.d_model);
        let mut scratch = m.new_scratch(resident + tokens + 1);
        for pos in 0..resident {
            m.forward_with_scratch(&mut state, token(pos), pos, &mut scratch);
        }
        let start = Instant::now();
        for i in 0..tokens {
            m.forward_with_scratch(&mut state, token(resident + i), resident + i, &mut scratch);
            std::hint::black_box(scratch.logits());
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / tokens as f64);
    }
    out.push(ForwardPoint { label: "forward_scratch", ns_per_token: best });
    out
}

struct HeadPoint {
    /// Sequences sharing one `lm_head_batch` call; 0 = the reference row,
    /// one `dot` per vocabulary row (every head, before heads were batched).
    sessions: usize,
    ns_per_row: f64,
}

/// Times the LM head per logits row: the per-vocab-row `dot` reference,
/// then `TransformerModel::lm_head_batch` over 1, 2, 4 and 8 sequences
/// fresh from a forward-pass body. Best of `passes` calls each.
fn measure_lm_head(model: &ModelConfig, passes: usize) -> Vec<HeadPoint> {
    use veda_model::{HeadScratch, TransformerModel};
    let m = TransformerModel::new(model.clone());
    let best_ns = |f: &mut dyn FnMut()| {
        (0..passes).fold(f64::INFINITY, |best, _| {
            let start = Instant::now();
            f();
            best.min(start.elapsed().as_secs_f64() * 1e9)
        })
    };

    let weights = veda_model::weights::ModelWeights::synthetic(model);
    let x = weights.embed(1);
    let mut logits = Vec::with_capacity(model.vocab_size);
    let reference = best_ns(&mut || {
        logits.clear();
        logits.extend(weights.embedding.iter_rows().map(|row| veda_tensor::ops::dot(x, row)));
        std::hint::black_box(&logits);
    });
    let mut out = vec![HeadPoint { sessions: 0, ns_per_row: reference }];

    let mut head = HeadScratch::new();
    for sessions in [1usize, 2, 4, 8] {
        let mut scratches: Vec<_> = (0..sessions)
            .map(|s| {
                let mut scratch = m.new_scratch(1);
                m.forward_body(&mut m.new_state(), (s * 11 + 1) % model.vocab_size, 0, &mut scratch);
                scratch
            })
            .collect();
        let mut batch: Vec<_> = scratches.iter_mut().collect();
        let ns = best_ns(&mut || m.lm_head_batch(std::hint::black_box(&mut batch), &mut head));
        out.push(HeadPoint { sessions, ns_per_row: ns / sessions as f64 });
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args()?;
    let (model, model_name, batches, threads_list, forward_tokens) = if args.quick {
        (ModelConfig::tiny(), "tiny", vec![1usize, 4, 8], vec![1usize, 2], 64usize)
    } else {
        (ModelConfig::small(), "small", vec![1usize, 4, 8, 16], vec![1usize, 2, 4], 128usize)
    };
    let host_parallelism = std::thread::available_parallelism().map(usize::from).unwrap_or(1);

    println!("== decode throughput: model {model_name}, {} tokens/request ==", args.gen_tokens);
    println!("   host parallelism: {host_parallelism}\n");

    // Forward-path comparison on both geometries: the tiny model is where
    // per-token allocations are a visible fraction of the work; the sweep
    // model is compute-bound, so its scratch delta is noise-level — the
    // durable guarantee there is the zero-allocation pin
    // (crates/model/tests/zero_alloc.rs), not wall-clock.
    let mut forward_models = vec![(ModelConfig::tiny(), "tiny")];
    if !args.quick {
        forward_models.push((model.clone(), model_name));
    }
    let mut forward_rows: Vec<(String, f64, f64)> = Vec::new();
    for (fwd_model, fwd_name) in &forward_models {
        let forward = measure_forward(fwd_model, 64, forward_tokens);
        for p in &forward {
            println!("   {fwd_name:<6} {:<16} {:>12.0} ns/token", p.label, p.ns_per_token);
        }
        let alloc_ns = forward[0].ns_per_token;
        let scratch_ns = forward[1].ns_per_token;
        println!("   {fwd_name:<6} scratch speedup  {:>12.2}x\n", alloc_ns / scratch_ns);
        forward_rows.push((fwd_name.to_string(), alloc_ns, scratch_ns));
    }

    // The LM head per logits row, on the sweep model: what batching the
    // sessions of a worker slice into one call buys.
    let head_points = measure_lm_head(&model, if args.quick { 5 } else { 30 });
    let head_reference_ns = head_points.first().map_or(f64::NAN, |p| p.ns_per_row);
    println!("   {model_name} LM head          ns/row   vs per-row dot");
    for p in &head_points {
        let label = if p.sessions == 0 { "dot/row".to_string() } else { format!("S = {}", p.sessions) };
        println!("   {label:>16} {:>12.0} {:>14.2}x", p.ns_per_row, p.ns_per_row / head_reference_ns);
    }
    println!();

    let mut points: Vec<EnginePoint> = Vec::new();
    println!("   {:>5} {:>8} {:>12} {:>14} {:>12}", "batch", "threads", "tokens/s", "ns/token", "speedup");
    for &batch in &batches {
        let mut serial_tps = 0.0;
        for &threads in &threads_list {
            let p = measure_engine(&model, batch, threads, args.gen_tokens);
            if threads == 1 {
                serial_tps = p.tokens_per_s;
            }
            println!(
                "   {:>5} {:>8} {:>12.1} {:>14.0} {:>11.2}x",
                p.batch,
                p.threads,
                p.tokens_per_s,
                p.ns_per_token,
                p.tokens_per_s / serial_tps.max(1e-12),
            );
            points.push(p);
        }
    }

    // Chunked-prefill interference sweep: chunk size × prompt length →
    // TTFT p50/p99 and background decode tokens/s, in virtual time (the
    // numbers are deterministic — the sweep is a model property, not a
    // wall-clock measurement, so it runs on the tiny geometry in both
    // modes).
    let (chunks, prompt_lens, probes) = if args.quick {
        (vec![0usize, 4, 16], vec![24usize, 64], 4usize)
    } else {
        (vec![0usize, 4, 16, 64], vec![32usize, 128, 256], 8usize)
    };
    let prefill_model = ModelConfig::tiny();
    println!("\n== chunked-prefill interference (virtual time, tiny model; chunk 0 = instant) ==");
    println!(
        "   {:>6} {:>8} {:>12} {:>12} {:>16}",
        "chunk", "prompt", "ttft_p50_us", "ttft_p99_us", "decode tok/s"
    );
    let mut prefill_points: Vec<PrefillPoint> = Vec::new();
    for &chunk in &chunks {
        for &prompt_len in &prompt_lens {
            let p = measure_prefill(&prefill_model, chunk, prompt_len, probes);
            println!(
                "   {:>6} {:>8} {:>12.0} {:>12.0} {:>16.1}",
                p.chunk, p.prompt_len, p.ttft_p50_us, p.ttft_p99_us, p.decode_tokens_per_s
            );
            prefill_points.push(p);
        }
    }
    let mut prefill_json = String::new();
    prefill_json.push_str("{\n");
    prefill_json.push_str("  \"model\": \"tiny\",\n");
    prefill_json.push_str(&format!("  \"probes_per_point\": {probes},\n"));
    prefill_json.push_str(
        "  \"note\": \"chunk 0 = instant (off-clock) prefill; TTFT in virtual microseconds at the \
         architecture clock, decode_tokens_per_s is the 4 background decode sessions' virtual \
         throughput while prefill probes interfere\",\n",
    );
    prefill_json.push_str("  \"sweep\": [\n");
    for (i, p) in prefill_points.iter().enumerate() {
        prefill_json.push_str(&format!(
            "    {{\"chunk\": {}, \"prompt_len\": {}, \"ttft_p50_us\": {:.1}, \
             \"ttft_p99_us\": {:.1}, \"decode_tokens_per_s\": {:.1}}}{}\n",
            p.chunk,
            p.prompt_len,
            p.ttft_p50_us,
            p.ttft_p99_us,
            p.decode_tokens_per_s,
            if i + 1 == prefill_points.len() { "" } else { "," },
        ));
    }
    prefill_json.push_str("  ],\n");

    // Shared-prefix reuse: hit stats and saved on-clock prefill tokens
    // per shared-prefix length (virtual time; deterministic).
    let prefix_lens: &[usize] = if args.quick { &[16, 48] } else { &[16, 48, 96] };
    let waves = if args.quick { 3 } else { 6 };
    println!("\n== shared-prefix cache ({waves} waves of 4 requests per point, chunked prefill) ==");
    println!(
        "   {:>6} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "prefix", "hit rate", "prefill off", "prefill on", "saved toks", "entries"
    );
    prefill_json.push_str(
        "  \"prefix_cache_note\": \"waves of 4 requests sharing a prefix, chunked prefill (chunk 8); \
         prefill_tokens_* are on-clock prompt tokens with the cache disabled/enabled, \
         shared_tokens is the prefill work the cache absorbed\",\n",
    );
    prefill_json.push_str("  \"prefix_cache\": [\n");
    for (i, &prefix_len) in prefix_lens.iter().enumerate() {
        let p = measure_prefix_cache(&prefill_model, prefix_len, waves);
        println!(
            "   {:>6} {:>9.0}% {:>12} {:>12} {:>12} {:>10}",
            p.prefix_len,
            100.0 * p.stats.hit_rate(),
            p.prefill_tokens_disabled,
            p.prefill_tokens_enabled,
            p.stats.shared_tokens,
            p.stats.entries
        );
        prefill_json.push_str(&format!(
            "    {{\"prefix_len\": {}, \"hit_rate\": {:.4}, \"hits\": {}, \"lookups\": {}, \
             \"prefill_tokens_disabled\": {}, \"prefill_tokens_enabled\": {}, \
             \"shared_tokens\": {}, \"entries\": {}, \"resident_bytes\": {}}}{}\n",
            p.prefix_len,
            p.stats.hit_rate(),
            p.stats.hits,
            p.stats.hits + p.stats.misses,
            p.prefill_tokens_disabled,
            p.prefill_tokens_enabled,
            p.stats.shared_tokens,
            p.stats.entries,
            p.stats.resident_bytes,
            if i + 1 == prefix_lens.len() { "" } else { "," },
        ));
    }
    prefill_json.push_str("  ],\n");

    // Stage waterfall under pressure: where a pressured request's
    // end-to-end latency actually goes, stage by stage (virtual time;
    // deterministic).
    let waterfall_requests = if args.quick { 24 } else { 48 };
    let server_stages = measure_server_waterfall(waterfall_requests);
    println!("\n== stage waterfall ({waterfall_requests} requests, tight KV, priority scheduler) ==");
    println!("   {:>14} {:>9} {:>9}", "stage", "p50", "p99");
    if let Some(stages) = &server_stages {
        for (name, summary) in stages.rows() {
            println!("   {:>14} {:>9} {:>9}", name, summary.p50, summary.p99);
        }
    }
    prefill_json.push_str(
        "  \"stage_waterfall_note\": \"per-stage latency split (virtual ticks) of a pressured \
         single-server run: chunked prefill (chunk 4), 96-token KV budget, priority scheduler; \
         the five stages sum to each request's end-to-end latency\",\n",
    );
    prefill_json.push_str("  \"stage_waterfall\": [\n");
    prefill_json.push_str(&stage_waterfall_json(server_stages.as_ref()));
    prefill_json.push_str("  ]\n}\n");
    std::fs::write(&args.prefill_json, &prefill_json)?;
    println!("\nwrote {}", args.prefill_json);

    // Cluster-plane sweep: shard count × routing policy over shared-prefix
    // traffic, plus a forced-imbalance migration demo. Virtual time —
    // deterministic, so it runs the same workload in both modes and only
    // scales the request count.
    let cluster_requests = if args.quick { 24 } else { 48 };
    let shard_counts: &[usize] = &[1, 2, 4];
    println!("\n== cluster plane ({cluster_requests} shared-prefix requests, virtual time) ==");
    println!(
        "   {:>6} {:>16} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "shards",
        "router",
        "completed",
        "rejected",
        "ttft_p50",
        "ttft_p99",
        "tok/tick",
        "hit rate",
        "migrations"
    );
    let mut cluster_points: Vec<ClusterPoint> = Vec::new();
    for &shards in shard_counts {
        for router in RouterKind::ALL {
            let p = measure_cluster(shards, router, cluster_requests);
            println!(
                "   {:>6} {:>16} {:>9} {:>8} {:>9} {:>9} {:>9.2} {:>8.0}% {:>10}",
                p.shards,
                p.router.to_string(),
                p.completed,
                p.rejected,
                p.ttft_p50_ticks,
                p.ttft_p99_ticks,
                p.tokens_per_tick,
                100.0 * p.prefix_hit_rate,
                p.migrations
            );
            cluster_points.push(p);
        }
    }
    let (demo, demo_stages) = measure_migration_demo();
    println!(
        "   migration demo: 2 tight shards, round-robin, imbalanced trace → {} migrations, {} bytes",
        demo.migrations, demo.migration_bytes
    );
    let affinity_beats_rr = |shards: usize| {
        let rate = |router: RouterKind| {
            cluster_points
                .iter()
                .find(|p| p.shards == shards && p.router == router)
                .map_or(0.0, |p| p.prefix_hit_rate)
        };
        rate(RouterKind::PrefixAffinity) > rate(RouterKind::RoundRobin)
    };
    assert!(
        affinity_beats_rr(2) && affinity_beats_rr(4),
        "prefix affinity must beat round-robin on shared-prefix traffic (pinned by cluster_stack)"
    );
    assert!(demo.migrations > 0, "the imbalanced demo must trigger migration");

    let mut cluster_json = String::new();
    cluster_json.push_str("{\n");
    cluster_json.push_str(&format!("  \"requests\": {cluster_requests},\n"));
    cluster_json.push_str(
        "  \"note\": \"virtual-time sweep: shard count x router over Poisson shared-prefix traffic \
         (5 prompt groups, 24-token shared prefix, prefix-cache engines, ample capacity); the \
         migration_demo scenario forces imbalance (size-alternating trace, 2 tight shards, \
         hot/cold 0.5) so migration counters are demonstrably nonzero; latencies in virtual \
         ticks\",\n",
    );
    cluster_json.push_str("  \"sweep\": [\n");
    for (i, p) in cluster_points.iter().enumerate() {
        cluster_json.push_str(&p.json_row("shared_prefix"));
        cluster_json.push_str(if i + 1 == cluster_points.len() { "\n" } else { ",\n" });
    }
    cluster_json.push_str("  ],\n");
    cluster_json.push_str("  \"migration_demo\": [\n");
    cluster_json.push_str(&demo.json_row("imbalanced_trace"));
    cluster_json.push_str("\n  ],\n");
    cluster_json.push_str(
        "  \"stage_waterfall_note\": \"per-stage latency split (virtual ticks) of the \
         migration_demo run — migration_wait is the stage cross-shard transfers add\",\n",
    );
    cluster_json.push_str("  \"stage_waterfall\": [\n");
    cluster_json.push_str(&stage_waterfall_json(demo_stages.as_ref()));
    cluster_json.push_str("  ]\n}\n");
    std::fs::write(&args.cluster_json, &cluster_json)?;
    println!("wrote {}", args.cluster_json);

    // Fault-plane sweep: fault scenario × router × load shedding over a
    // pressured 2-shard Poisson run. Virtual time — deterministic, so
    // both modes run the same schedule and only scale the request count.
    let fault_requests = if args.quick { 24 } else { 48 };
    let fault_scenarios: &[&'static str] = &["baseline", "crash_recover", "crash_permanent", "degraded_link"];
    let fault_routers = [RouterKind::RoundRobin, RouterKind::LeastLoaded];
    println!("\n== fault plane ({fault_requests} requests, 2 shards, virtual time) ==");
    println!(
        "   {:>15} {:>12} {:>5} {:>9} {:>8} {:>7} {:>8} {:>12} {:>5} {:>9} {:>8} {:>6}",
        "scenario",
        "router",
        "shed",
        "completed",
        "rejected",
        "retries",
        "timeouts",
        "dead_letters",
        "shed#",
        "e2e_p99",
        "goodput",
        "avail"
    );
    // (swap_link_cycles rides in the JSON only — it is the degraded_link
    // scenario's signal, noise for the rest.)
    let mut fault_points: Vec<FaultPoint> = Vec::new();
    for &scenario in fault_scenarios {
        for router in fault_routers {
            for shed_on in [false, true] {
                let p = measure_faults(scenario, router, shed_on, fault_requests);
                println!(
                    "   {:>15} {:>12} {:>5} {:>9} {:>8} {:>7} {:>8} {:>12} {:>5} {:>9} {:>8.3} {:>6.3}",
                    p.scenario,
                    p.router.to_string(),
                    p.shed_on,
                    p.completed,
                    p.rejected,
                    p.retries,
                    p.timeouts,
                    p.dead_letters,
                    p.shed,
                    p.e2e_p99_ticks,
                    p.goodput,
                    p.availability,
                );
                fault_points.push(p);
            }
        }
    }
    let fault_of = |scenario: &str| {
        fault_points
            .iter()
            .find(|p| p.scenario == scenario && p.router == RouterKind::RoundRobin && !p.shed_on)
            .expect("swept scenario")
    };
    assert!(
        fault_of("baseline").retries == 0 && fault_of("baseline").availability == 1.0,
        "the baseline scenario must be fault-free"
    );
    assert!(
        fault_of("crash_recover").retries > 0 && fault_of("crash_recover").availability < 1.0,
        "the crash scenario must visibly retry and dent availability"
    );
    assert!(
        fault_of("degraded_link").swap_link_cycles > fault_of("baseline").swap_link_cycles,
        "the degraded link must make the same swap DMA cost more cycles"
    );

    let mut faults_json = String::new();
    faults_json.push_str("{\n");
    faults_json.push_str(&format!("  \"requests\": {fault_requests},\n"));
    faults_json.push_str(
        "  \"note\": \"virtual-time fault-plane sweep: scenario x router x shedding over the same \
         pressured 2-shard Poisson run (seed 23, rate 1.2, chunked prefill, tight 14 KiB/shard KV, \
         e2e deadline 512 ticks); baseline has an empty fault plan, crash_recover fail-stops shard 1 \
         at tick 8 and recovers it at 48, crash_permanent never recovers it, degraded_link cuts \
         shard 0's host-link bandwidth to 10% for ticks 4-400 (visible as swap_link_cycles — swap \
         DMA costs more cycles over the slow link); shed=true arms a 0.6 queue watermark; every \
         delta vs baseline is the fault plane's doing; latencies in virtual ticks\",\n",
    );
    faults_json.push_str("  \"sweep\": [\n");
    for (i, p) in fault_points.iter().enumerate() {
        faults_json.push_str(&p.json_row());
        faults_json.push_str(if i + 1 == fault_points.len() { "\n" } else { ",\n" });
    }
    faults_json.push_str("  ]\n}\n");
    std::fs::write(&args.faults_json, &faults_json)?;
    println!("wrote {}", args.faults_json);

    // Prefix-cache churn sweep: cache byte bound × TTL × spill on/off
    // over a pressured shared-prefix run. Virtual time — deterministic,
    // so both modes run the same 40-request workload and quick mode only
    // trims the grid.
    let churn_requests = 40;
    let (churn_cache_kbs, churn_ttls): (&[u64], &[u64]) =
        if args.quick { (&[6], &[64]) } else { (&[6, 12], &[16, 64]) };
    println!(
        "\n== prefix-cache churn ({churn_requests} shared-prefix requests, 32 KiB HBM, virtual time) =="
    );
    println!(
        "   {:>8} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6} {:>8}",
        "cache_kb",
        "ttl",
        "spill",
        "admitted",
        "rejected",
        "hit rate",
        "evicted",
        "expired",
        "spills",
        "fills"
    );
    let mut churn_points: Vec<PrefixChurnPoint> = Vec::new();
    for &cache_kb in churn_cache_kbs {
        for &ttl in churn_ttls {
            for spill in [false, true] {
                let p = measure_prefix_churn(cache_kb, ttl, spill, churn_requests);
                println!(
                    "   {:>8} {:>6} {:>6} {:>9} {:>9} {:>8.0}% {:>9} {:>7} {:>6} {:>8}",
                    p.cache_kb,
                    p.ttl,
                    p.spill,
                    p.admitted,
                    p.rejected,
                    100.0 * p.stats.hit_rate(),
                    p.stats.evictions,
                    p.stats.expiries,
                    p.stats.spills,
                    p.stats.fills,
                );
                churn_points.push(p);
            }
        }
    }
    let churn_of = |cache_kb: u64, ttl: u64, spill: bool| {
        churn_points.iter().find(|p| p.cache_kb == cache_kb && p.ttl == ttl && p.spill == spill)
    };
    let (Some(starved_off), Some(starved_on)) = (churn_of(6, 64, false), churn_of(6, 64, true)) else {
        panic!("the churn sweep always covers the 6 KiB / ttl 64 headline pair");
    };
    assert!(
        starved_on.admitted > starved_off.admitted,
        "at equal cache bytes the spill tier must admit strictly more than drop-on-evict \
         under pressure ({} vs {})",
        starved_on.admitted,
        starved_off.admitted,
    );
    assert!(
        starved_on.stats.spills > 0 && starved_on.stats.fills > 0 && starved_on.stats.evictions == 0,
        "the starved spill-on point must actually spill and fill"
    );
    assert!(
        starved_off.stats.evictions > 0 && starved_off.stats.spills == 0,
        "the starved spill-off point must drop entries on eviction"
    );

    let mut prefix_json = String::new();
    prefix_json.push_str("{\n");
    prefix_json.push_str(&format!("  \"requests\": {churn_requests},\n"));
    prefix_json.push_str(
        "  \"note\": \"virtual-time prefix-cache churn sweep: cache byte bound x TTL x spill \
         on/off over the same pressured single-server shared-prefix Poisson run (seed 29, rate \
         0.8, 2 prefix groups, 16-token shared prefix, 32 KiB HBM, queue depth 6); with spill on, \
         byte-pressure evictions move entries to the host tier where later arrivals still hit \
         them (one fill DMA, then the shared span skips on-clock prefill), so the queue turns \
         over faster and strictly more requests are admitted than with drop-on-evict at equal \
         cache bytes — the delta the hard assert pins\",\n",
    );
    prefix_json.push_str("  \"prefix_churn\": [\n");
    for (i, p) in churn_points.iter().enumerate() {
        prefix_json.push_str(&p.json_row());
        prefix_json.push_str(if i + 1 == churn_points.len() { "\n" } else { ",\n" });
    }
    prefix_json.push_str("  ]\n}\n");
    std::fs::write(&args.prefix_json, &prefix_json)?;
    println!("wrote {}", args.prefix_json);

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"model\": \"{model_name}\",\n"));
    json.push_str(&format!("  \"gen_tokens\": {},\n", args.gen_tokens));
    json.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    json.push_str(
        "  \"forward_path_note\": \"scratch wall-clock wins scale with the allocation share of \
         a token: visible on the tiny geometry, noise-level on compute-bound geometries — the \
         durable scratch guarantee is the zero-allocation pin in \
         crates/model/tests/zero_alloc.rs\",\n",
    );
    json.push_str("  \"forward_path\": [\n");
    for (i, (name, alloc_ns, scratch_ns)) in forward_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"model\": \"{name}\", \"alloc_ns_per_token\": {alloc_ns:.1}, \
             \"scratch_ns_per_token\": {scratch_ns:.1}, \"scratch_speedup\": {:.4}}}{}\n",
            alloc_ns / scratch_ns,
            if i + 1 == forward_rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"lm_head_note\": \"ns per logits row of the tied LM head on the sweep model: sessions 0 is \
         the reference, one dot per vocabulary row; sessions S is one lm_head_batch \
         (veda_tensor::ops::gemm_inner_into) over S sequences, bit-identical to the reference per \
         row\",\n",
    );
    json.push_str("  \"lm_head\": [\n");
    for (i, p) in head_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"sessions\": {}, \"ns_per_row\": {:.1}, \"vs_per_row_dot\": {:.4}}}{}\n",
            p.sessions,
            p.ns_per_row,
            p.ns_per_row / head_reference_ns,
            if i + 1 == head_points.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"engine_decode\": [\n");
    for (i, p) in points.iter().enumerate() {
        let serial = points
            .iter()
            .find(|q| q.batch == p.batch && q.threads == 1)
            .map_or(p.tokens_per_s, |q| q.tokens_per_s);
        json.push_str(&format!(
            "    {{\"batch\": {}, \"threads\": {}, \"tokens\": {}, \"wall_s\": {:.6}, \
             \"tokens_per_s\": {:.1}, \"ns_per_token\": {:.1}, \"speedup_vs_serial\": {:.4}}}{}\n",
            p.batch,
            p.threads,
            p.tokens,
            p.wall_s,
            p.tokens_per_s,
            p.ns_per_token,
            p.tokens_per_s / serial.max(1e-12),
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.json, &json)?;
    println!("\nwrote {}", args.json);
    Ok(())
}
