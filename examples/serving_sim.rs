//! Serving simulation: the ROADMAP's scaling anchor. A seeded workload of
//! timed arrivals (open-loop Poisson or a deterministic trace) flows
//! through the `veda-serving` stack — admission
//! control accounts KV bytes against HBM capacity, a scheduling policy
//! decides which queued request is admitted next (preempting and swapping
//! sessions over the host link when it must make room), and the engine
//! decodes every admitted session in batched ticks.
//!
//! The stack is a [`veda_serving::Cluster`] of `--shards N` engines
//! (default 1) behind one routing plane
//! (`--router round_robin|prefix_affinity`), stepped on one
//! virtual clock, with opt-in cross-shard KV migration (`--migrate`).
//! The run ends with a `ClusterReport` (routing counts, migration
//! traffic, global latency aggregates), then each shard's
//! `ServingReport` (TTFT / queueing / end-to-end latency percentiles,
//! queue depth, preemption/rejection counts and swap traffic) next to its
//! engine's batched throughput report.
//!
//! The fault plane (`--fault-plan SPEC` schedules fail-stop crashes and
//! link degradations; `--deadline-ticks`, `--shed-watermark`,
//! `--retry-max`, `--retry-backoff` arm deadlines, load shedding and the
//! retry policy) works at any shard count, and the streamed ticks
//! annotate `shard N DOWN` / `shard N UP` transitions live.
//!
//! ```sh
//! cargo run --release --example serving_sim -- --arrival poisson --sched fcfs --seed 7
//! cargo run --release --example serving_sim -- --arrival trace --sched priority --capacity-kb 16
//! cargo run --release --example serving_sim -- --shards 4 --router prefix --shared-prefix 24 --prefix-groups 3
//! cargo run --release --example serving_sim -- --shards 2 --migrate --capacity-kb 16
//! cargo run --release --example serving_sim -- --shards 2 --fault-plan "crash@10:shard=1:recover=60" --requests 32
//! cargo run --release --example serving_sim -- --shards 2 --deadline-ticks 200 --shed-watermark 0.8 --rate 2.0
//! ```

use std::sync::{Arc, Mutex};

use veda::{EngineBuilder, PrefixCacheConfig};
use veda_accel::DataflowVariant;
use veda_eviction::PolicyKind;
use veda_model::ModelConfig;
use veda_serving::{
    chrome_trace_json, ArrivalKind, Cluster, ClusterConfig, FaultConfig, FaultPlan, Json, MigrationConfig,
    RecordingSink, RequestMix, RetryPolicy, RouterKind, SchedKind, ShardHealth, SinkHandle, Workload,
};

struct Args {
    seed: u64,
    arrival: ArrivalKind,
    rate: f64,
    sched: SchedKind,
    requests: usize,
    capacity_kb: u64,
    policy: Option<PolicyKind>,
    variant: DataflowVariant,
    threads: usize,
    /// Prompt tokens one tick may consume per prefilling session;
    /// 0 selects instant (off-clock) prefill.
    prefill_chunk: usize,
    /// Shared-prefix length prepended to every prompt (0 = no shared
    /// prefixes, prefix cache disabled).
    shared_prefix: usize,
    /// Distinct shared-prefix groups requests rotate through.
    prefix_groups: usize,
    /// Idle ticks before an unpinned prefix-cache entry expires
    /// (`None` = entries never expire, the insert-only v1 behaviour).
    prefix_ttl: Option<u64>,
    /// Spill byte-pressure prefix-cache evictions to the host tier
    /// instead of dropping them.
    prefix_spill: bool,
    /// Engines behind the routing plane.
    shards: usize,
    /// Routing policy.
    router: RouterKind,
    /// Enables cross-shard KV migration.
    migrate: bool,
    /// Write a Chrome-trace-event JSON (Perfetto-loadable) of every
    /// request's lifecycle to this path.
    trace_out: Option<String>,
    /// Write the run's metrics document as JSON to this path.
    metrics_out: Option<String>,
    /// Fault-plan spec (`crash@T:shard=N[:recover=T2][:drain=D]` /
    /// `degrade@T1-T2:shard=N:bw=F`, `;`-separated).
    fault_plan: Option<String>,
    /// Per-attempt end-to-end deadline, in ticks.
    deadline_ticks: Option<u64>,
    /// Load-shedding watermark fraction of total queue slots.
    shed_watermark: Option<f64>,
    /// Retry attempts before a request is dead-lettered.
    retry_max: Option<u32>,
    /// First-retry backoff in ticks (doubles per attempt).
    retry_backoff: Option<u64>,
}

impl Args {
    /// Whether any fault-plane flag was given.
    fn faulted(&self) -> bool {
        self.fault_plan.is_some()
            || self.deadline_ticks.is_some()
            || self.shed_watermark.is_some()
            || self.retry_max.is_some()
            || self.retry_backoff.is_some()
    }

    /// Builds the fault-plane configuration, or `None` when no fault
    /// flag was given (keeping the run on invariant #9's no-plane side).
    fn fault_config(&self) -> Result<Option<FaultConfig>, Box<dyn std::error::Error>> {
        if !self.faulted() {
            return Ok(None);
        }
        let defaults = RetryPolicy::default();
        Ok(Some(FaultConfig {
            plan: match &self.fault_plan {
                Some(spec) => FaultPlan::parse(spec)?,
                None => FaultPlan::default(),
            },
            retry: RetryPolicy {
                max_attempts: self.retry_max.unwrap_or(defaults.max_attempts),
                backoff_base: self.retry_backoff.unwrap_or(defaults.backoff_base),
            },
            ttft_deadline: None,
            e2e_deadline: self.deadline_ticks,
            shed_watermark: self.shed_watermark,
        }))
    }
}

fn parse_args() -> Result<Args, Box<dyn std::error::Error>> {
    let mut parsed = Args {
        seed: 7,
        arrival: ArrivalKind::Poisson,
        rate: 0.5,
        sched: SchedKind::Fcfs,
        requests: 24,
        capacity_kb: 32,
        policy: None,
        variant: DataflowVariant::FlexibleElementSerial,
        threads: 1,
        prefill_chunk: 0,
        shared_prefix: 0,
        prefix_groups: 1,
        prefix_ttl: None,
        prefix_spill: false,
        shards: 1,
        router: RouterKind::RoundRobin,
        migrate: false,
        trace_out: None,
        metrics_out: None,
        fault_plan: None,
        deadline_ticks: None,
        shed_watermark: None,
        retry_max: None,
        retry_backoff: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value after {arg}"));
        match arg.as_str() {
            "--seed" => parsed.seed = value()?.parse()?,
            "--arrival" => parsed.arrival = value()?.parse()?,
            "--rate" => parsed.rate = value()?.parse()?,
            "--sched" => parsed.sched = value()?.parse()?,
            "--requests" => parsed.requests = value()?.parse()?,
            "--capacity-kb" => parsed.capacity_kb = value()?.parse()?,
            "--policy" => parsed.policy = Some(value()?.parse()?),
            "--variant" => parsed.variant = value()?.parse()?,
            "--threads" => parsed.threads = value()?.parse()?,
            "--prefill-chunk" => parsed.prefill_chunk = value()?.parse()?,
            "--shared-prefix" => parsed.shared_prefix = value()?.parse()?,
            "--prefix-groups" => parsed.prefix_groups = value()?.parse()?,
            "--prefix-ttl" => parsed.prefix_ttl = Some(value()?.parse()?),
            "--prefix-spill" => parsed.prefix_spill = true,
            "--shards" => parsed.shards = value()?.parse()?,
            "--router" => parsed.router = value()?.parse()?,
            "--migrate" => parsed.migrate = true,
            "--trace-out" => parsed.trace_out = Some(value()?),
            "--metrics-out" => parsed.metrics_out = Some(value()?),
            "--fault-plan" => parsed.fault_plan = Some(value()?),
            "--deadline-ticks" => parsed.deadline_ticks = Some(value()?.parse()?),
            "--shed-watermark" => parsed.shed_watermark = Some(value()?.parse()?),
            "--retry-max" => parsed.retry_max = Some(value()?.parse()?),
            "--retry-backoff" => parsed.retry_backoff = Some(value()?.parse()?),
            "--help" | "-h" => {
                println!(
                    "usage: serving_sim [--seed N] [--arrival poisson|trace] [--rate R]\n\
                     \x20                  [--sched fcfs|priority] [--requests N]\n\
                     \x20                  [--capacity-kb KB] [--policy P] [--variant V] [--threads N]\n\
                     \x20                  [--prefill-chunk N]   (0 = instant prefill at admission)\n\
                     \x20                  [--shared-prefix LEN] [--prefix-groups N]\n\
                     \x20                  (LEN > 0 prepends per-group shared prompt prefixes and\n\
                     \x20                   enables the engine's prefix cache)\n\
                     \x20                  [--prefix-ttl TICKS] (expire prefix-cache entries idle\n\
                     \x20                   that long; default: entries never expire)\n\
                     \x20                  [--prefix-spill]     (spill byte-pressure prefix-cache\n\
                     \x20                   evictions to a host-memory tier instead of dropping)\n\
                     \x20                  [--shards N] [--router round_robin|prefix_affinity]\n\
                     \x20                  [--migrate]\n\
                     \x20                  (N engines, default 1, behind the routing plane;\n\
                     \x20                   --capacity-kb is per shard, --migrate enables\n\
                     \x20                   cross-shard KV migration when a shard runs hot)\n\
                     \x20                  [--trace-out PATH]   (Chrome-trace-event JSON, one track\n\
                     \x20                   per shard — load it in Perfetto / chrome://tracing)\n\
                     \x20                  [--metrics-out PATH] (metrics document as JSON)\n\
                     \x20                  [--fault-plan SPEC]  (seeded fault schedule, `;`-separated:\n\
                     \x20                   crash@T:shard=N[:recover=T2][:drain=D] fail-stops shard N,\n\
                     \x20                   degrade@T1-T2:shard=N:bw=F scales its host link)\n\
                     \x20                  [--deadline-ticks N] (per-attempt end-to-end deadline)\n\
                     \x20                  [--shed-watermark F] (shed newest low-priority queued work\n\
                     \x20                   when global queue depth exceeds F of total slots)\n\
                     \x20                  [--retry-max N] [--retry-backoff T]\n\
                     \x20                  (streamed ticks report `shard N DOWN` / `shard N UP` live)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)").into()),
        }
    }
    if parsed.rate <= 0.0 {
        return Err("--rate must be positive".into());
    }
    if parsed.prefix_groups == 0 {
        return Err("--prefix-groups must be at least 1".into());
    }
    if parsed.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(parsed)
}

/// Builds the requested workload over the (optionally single-policy) mix.
fn build_workload(args: &Args) -> Workload {
    let mut mix = RequestMix::default();
    if let Some(policy) = args.policy {
        mix.policies = vec![policy];
    }
    if args.shared_prefix > 0 {
        mix.shared_prefix_len = args.shared_prefix;
        mix.prefix_groups = args.prefix_groups;
        // Prompt-length bounds now size the private suffix.
        mix.prompt_len = (4, 12);
    }
    match args.arrival {
        ArrivalKind::Poisson => Workload::poisson(args.seed, args.rate, args.requests, mix),
        ArrivalKind::Trace => {
            // A deterministic stair-step trace: pairs of requests every
            // five ticks, built from the same seeded mix.
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(args.seed);
            let arrivals =
                (0..args.requests).map(|i| ((i as u64 / 2) * 5, mix.sample(&mut rng, i))).collect();
            Workload::trace(arrivals)
        }
    }
}

fn build_engine(args: &Args) -> Result<veda::Engine, veda::BuildError> {
    let mut builder =
        EngineBuilder::new().model(ModelConfig::tiny()).variant(args.variant).decode_threads(args.threads);
    if args.prefill_chunk > 0 {
        builder = builder.prefill_chunk(args.prefill_chunk);
    }
    if args.shared_prefix > 0 {
        // Bound the cache to half the admission capacity, the sizing rule
        // the admission docs prescribe (its bytes are charged against
        // headroom, so an unbounded cache could crowd out admissions).
        // The churn knobs default to the v1 insert-only behaviour: no
        // TTL, drop on byte-pressure eviction.
        builder = builder.prefix_cache(PrefixCacheConfig {
            min_match_tokens: (args.shared_prefix / 2).max(4),
            max_entries: 32,
            max_bytes: (args.capacity_kb << 10) / 2,
            ttl_ticks: args.prefix_ttl.unwrap_or(u64::MAX),
            spill: args.prefix_spill,
        });
    }
    builder.build()
}

/// Wires a recording sink when `--trace-out` asked for one. Returns the
/// config-side handle and the recorder to drain after the run.
fn make_sink(wanted: bool) -> (Option<SinkHandle>, Option<Arc<Mutex<RecordingSink>>>) {
    if wanted {
        let (handle, recorder) = SinkHandle::recording();
        (Some(handle), Some(recorder))
    } else {
        (None, None)
    }
}

/// Writes the Chrome trace (if recorded) and metrics JSON (if asked for).
fn write_observability(
    args: &Args,
    recorder: Option<Arc<Mutex<RecordingSink>>>,
    metrics: Json,
) -> Result<(), Box<dyn std::error::Error>> {
    if let (Some(path), Some(recorder)) = (&args.trace_out, recorder) {
        let events = recorder.lock().expect("recorder lock").take_events();
        std::fs::write(path, chrome_trace_json(&events))?;
        println!("trace: {} events -> {path} (load in Perfetto / chrome://tracing)", events.len());
    }
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, format!("{metrics:#}\n"))?;
        println!("metrics: -> {path}");
    }
    Ok(())
}

/// Runs N engines behind the routing plane on one clock and prints the reports.
fn run_cluster(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let engines: Vec<veda::Engine> =
        (0..args.shards).map(|_| build_engine(args)).collect::<Result<_, _>>()?;
    let kv_per_token = engines[0].kv_bytes_per_token();
    let workload = build_workload(args);
    let (trace, recorder) = make_sink(args.trace_out.is_some());
    let faults = args.fault_config()?;
    let config = ClusterConfig {
        shards: args.shards,
        per_shard_capacity_bytes: args.capacity_kb << 10,
        router: args.router,
        sched: args.sched,
        migration: args.migrate.then(MigrationConfig::default),
        faults,
        trace,
        ..ClusterConfig::default()
    };
    let prefill_mode = if args.prefill_chunk > 0 {
        format!("chunked prefill ({} tokens/tick)", args.prefill_chunk)
    } else {
        "instant prefill".to_string()
    };
    let prefix_mode = if args.shared_prefix > 0 {
        format!(
            ", {}-token shared prefixes × {} group(s) + prefix cache",
            args.shared_prefix, args.prefix_groups
        )
    } else {
        String::new()
    };
    println!(
        "== serving_sim: {} requests over {} shard(s), {} router{}{}, {} arrivals (rate {}), {} scheduler, \
         {} dataflow, {} decode thread(s), {}{} ==",
        args.requests,
        args.shards,
        args.router,
        if args.migrate { " + migration" } else { "" },
        if args.faulted() { " + fault plane" } else { "" },
        args.arrival,
        args.rate,
        args.sched,
        args.variant,
        engines[0].decode_threads(),
        prefill_mode,
        prefix_mode,
    );
    println!(
        "   seed {}, per-shard KV capacity {} KiB ({} B/token => ~{} resident tokens/shard)\n",
        args.seed,
        args.capacity_kb,
        kv_per_token,
        (args.capacity_kb << 10) / kv_per_token.max(1)
    );

    // Stream the first stretch of the virtual clock, then run silently.
    const SHOWN_TICKS: usize = 24;
    let mut cluster = Cluster::try_new(engines, workload, config)?;
    println!(
        "{:<8} {:>9} {:>10} {:>12}  per-shard reserved B",
        "tick", "in-flight", "completed", "migrations"
    );
    let mut shown = 0;
    let mut prev_health = cluster.health().to_vec();
    while !cluster.is_done() && shown < SHOWN_TICKS {
        cluster.tick();
        shown += 1;
        for (shard, (before, after)) in prev_health.iter().zip(cluster.health()).enumerate() {
            match (before == &ShardHealth::Down, after == &ShardHealth::Down) {
                (false, true) => println!("{:<8} ** shard {shard} DOWN **", cluster.now()),
                (true, false) => println!("{:<8} ** shard {shard} UP **", cluster.now()),
                _ => {}
            }
        }
        prev_health = cluster.health().to_vec();
        let reserved: Vec<String> = cluster.shards().iter().map(|s| s.reserved_bytes().to_string()).collect();
        println!(
            "{:<8} {:>9} {:>10} {:>12}  [{}]",
            cluster.now(),
            cluster.in_flight(),
            cluster.completed(),
            cluster.migrations(),
            reserved.join(", "),
        );
    }
    if !cluster.is_done() {
        println!("…");
    }
    let report = cluster.run();

    println!("\n{}", report);
    for shard in &report.shards {
        println!("{}", shard);
        println!("{}", shard.engine);
    }
    println!("(per-shard reports above; each request's record lives on the shard that accepted it)");

    // Prefill-vs-decode token share of the on-clock work, over all shards.
    let prefill: usize = report.shards.iter().map(|s| s.engine.prefill_tokens).sum();
    let decode: usize = report.shards.iter().map(|s| s.engine.total_tokens).sum();
    let total = prefill + decode;
    if prefill > 0 {
        println!(
            "prefill/decode token share : {:.1}% prefill ({} prompt tokens on the clock) / {:.1}% decode ({} generated)",
            100.0 * prefill as f64 / total.max(1) as f64,
            prefill,
            100.0 * decode as f64 / total.max(1) as f64,
            decode,
        );
    } else {
        println!(
            "prefill/decode token share : instant prefill (prompts consumed off-clock at admission) / {decode} generated"
        );
    }
    println!("(ticks are batched mixed prefill/decode steps of the virtual clock;");
    println!(" per-request tok/s in the engine reports are single-sequence equivalents)");
    write_observability(args, recorder, report.metrics())?;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run_cluster(&parse_args()?)
}
