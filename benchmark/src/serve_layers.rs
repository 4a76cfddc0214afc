//! Per-layer ledger of the serving workloads (traced run): a span per
//! `Cluster::tick`, counters from the cluster and shard reports, the cost
//! of an installed `RecordingSink`, and probes of the engine, scheduler and
//! prefix cache at the geometry the shards ran at.

use std::collections::BTreeMap;
use std::time::Instant;

use veda::Request;
use veda_accel::{DecodeScheduler, PrefillChunk};
use veda_cost::EnergyModel;
use veda_mem::HbmConfig;
use veda_model::ModelConfig;
use veda_serving::{
    chrome_trace_json, ClusterReport, ServingRequest, SinkHandle, TraceEvent, TraceEventKind,
};

use crate::engine_layers::llama_shape;
use crate::harness::{Args, Checks, Ledger, Rounds};
use crate::json::Json;
use crate::serve_wl::{self, RoundResult, Rung, STREAM_REQUESTS};
use crate::spans::{self, Recorder, Trace};
use crate::{host, probes, stats};

pub struct Inputs<'a> {
    pub args: &'a Args,
    pub chaos: bool,
    pub arrivals: &'a [(u64, ServingRequest)],
    pub rounds: &'a Rounds<RoundResult>,
    pub untraced: &'a Rounds<RoundResult>,
    pub ladder: Option<&'a [Rung]>,
    pub virt: &'a Ledger,
    pub clock_ghz: f64,
    pub recorder: &'a Recorder,
}

/// Host microseconds of one `Engine::step` of the shard engine decoding
/// `batch` sessions (the mean batch the shards ran at).
fn engine_step_us(batch: usize) -> Vec<f64> {
    let mut engine = serve_wl::build_engine();
    for s in 0..batch.max(1) {
        let prompt: Vec<usize> = (0..40).map(|j| 1 + (s * 11 + j * 5) % 60).collect();
        engine.submit(Request::new(prompt, 400)).expect("valid request");
    }
    // Prefill (chunk 8) completes within a few ticks; time steady decode.
    for _ in 0..8 {
        engine.step();
    }
    let mut times = Vec::new();
    for _ in 0..300 {
        let start = Instant::now();
        std::hint::black_box(engine.step());
        times.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    times.sort_by(f64::total_cmp);
    times
}

/// Host microseconds of one prefix-cache lookup (`Engine::prefix_match_len`)
/// against a cache holding the workload's twelve group prefixes' worth of
/// entries (eight fit).
fn prefix_match_us(arrivals: &[(u64, ServingRequest)]) -> f64 {
    let mut engine = serve_wl::build_engine();
    for (_, arrival) in arrivals.iter().take(12) {
        let mut request = arrival.request.clone();
        request.max_new_tokens = 1;
        engine.submit(request).expect("valid request");
        engine.run_to_completion();
    }
    let prompts: Vec<&[usize]> =
        arrivals.iter().skip(12).take(64).map(|(_, a)| a.request.prompt.as_slice()).collect();
    let mut i = 0;
    host::probe_ns(15, 64, || {
        i = (i + 1) % prompts.len();
        engine.prefix_match_len(std::hint::black_box(prompts[i]))
    }) / 1e3
}

/// Time to first token in virtual microseconds from trace-event cycle
/// stamps: `Submitted` (shard clock) to `FirstToken` (engine clock) for
/// requests whose two events carry the same shard.
fn ttft_us_from_events(events: &[TraceEvent], clock_ghz: f64) -> Vec<f64> {
    let mut submitted: BTreeMap<u64, (u32, u64)> = BTreeMap::new();
    let mut out = Vec::new();
    for e in events {
        match e.kind {
            TraceEventKind::Submitted { .. } => {
                submitted.entry(e.request).or_insert((e.shard, e.cycles));
            }
            TraceEventKind::FirstToken => {
                if let Some((shard, cycles)) = submitted.remove(&e.request) {
                    if shard == e.shard {
                        out.push(e.cycles.saturating_sub(cycles) as f64 / (clock_ghz * 1e3));
                    }
                }
            }
            _ => {}
        }
    }
    out.sort_by(f64::total_cmp);
    out
}

fn counters(report: &ClusterReport, out: &mut Ledger) {
    let sum =
        |f: &dyn Fn(&veda_serving::ServingReport) -> u64| report.shards.iter().map(f).sum::<u64>() as f64;
    out.set("serving.preemptions", sum(&|s| s.preemptions));
    out.set("serving.resumes", sum(&|s| s.resumes));
    out.set("serving.rejected_never_fits", sum(&|s| s.rejected_never_fits as u64));
    out.set("serving.rejected_queue_full", sum(&|s| s.rejected_queue_full as u64));
    out.set("serving.shed", report.shed as f64);
    out.set("serving.retries", report.retries as f64);
    out.set("serving.timeouts", report.timeouts as f64);
    out.set("serving.dead_letters", report.dead_letters as f64);
    out.set("serving.lost_sessions", report.lost_sessions as f64);
    out.set("serving.migrations", report.migrations as f64);
    out.set("serving.migration_bytes", report.migration_bytes as f64);
    out.set("serving.availability", report.availability());
    out.set("serving.recovery_ticks_p99", report.recovery().map_or(0.0, |s| s.p99 as f64));
    let routed_max = report.routed.iter().copied().max().unwrap_or(0) as f64;
    let routed_mean = report.routed.iter().sum::<usize>() as f64 / report.routed.len().max(1) as f64;
    out.set("serving.routed_imbalance", routed_max / routed_mean.max(1.0) - 1.0);

    let depth_samples: usize = report.shards.iter().map(|s| s.queue_depth.len()).sum();
    let depth_sum: usize = report.shards.iter().flat_map(|s| s.queue_depth.iter()).sum();
    out.set("serving.queue_depth_mean", depth_sum as f64 / depth_samples.max(1) as f64);
    out.set(
        "serving.queue_depth_max",
        report.shards.iter().map(|s| s.queue_depth_max()).max().unwrap_or(0) as f64,
    );
    let stage = |pick: &dyn Fn(&veda_serving::StageSummaries) -> u64| {
        report.stages().map_or(0.0, |s| pick(&s) as f64)
    };
    out.set("serving.stage_queueing_ticks_p99", stage(&|s| s.queueing.p99));
    out.set("serving.stage_prefill_ticks_p99", stage(&|s| s.prefill.p99));
    out.set("serving.stage_decode_ticks_p99", stage(&|s| s.decode.p99));
    out.set("serving.stage_swap_wait_ticks_p99", stage(&|s| s.swap_wait.p99));
    out.set("serving.stage_migration_wait_ticks_p99", stage(&|s| s.migration_wait.p99));

    let reserved_peak = sum(&|s| s.kv_reserved_peak_bytes);
    let resident_peak = sum(&|s| s.kv_resident_peak_bytes);
    out.set("serving.kv_reserved_peak_frac", reserved_peak / sum(&|s| s.capacity_bytes));
    out.set("serving.kv_reserved_over_resident", reserved_peak / resident_peak.max(1.0));

    let prefix = report.shards.iter().map(|s| s.engine.prefix);
    out.set("prefix.hit_rate", report.prefix_hit_rate());
    out.set("prefix.shared_tokens", prefix.clone().map(|p| p.shared_tokens).sum::<u64>() as f64);
    out.set("prefix.insertions", prefix.clone().map(|p| p.insertions).sum::<u64>() as f64);
    let (evictions, expiries, spills, fills) = report.prefix_churn();
    out.set("prefix.evictions", evictions as f64);
    out.set("prefix.expiries", expiries as f64);
    out.set("prefix.spills", spills as f64);
    out.set("prefix.fills", fills as f64);
    out.set("prefix.spill_bytes", report.prefix_spill_bytes() as f64);
    out.set("prefix.fill_bytes", report.prefix_fill_bytes() as f64);

    let swap_cycles = sum(&|s| s.swap_cycles);
    let prefix_cycles = sum(&|s| s.prefix_transfer_cycles);
    out.set("mem.swap_out_bytes", sum(&|s| s.swap_out_bytes));
    out.set("mem.swap_in_bytes", sum(&|s| s.swap_in_bytes));
    out.set("mem.swap_cycles", swap_cycles);
    out.set("mem.prefix_transfer_cycles", prefix_cycles);
    out.set("mem.migration_cycles", report.migration_cycles as f64);
    // Host-link cycles of every kind over the shards' engine cycles.
    let link_cycles = swap_cycles + prefix_cycles + report.migration_cycles as f64;
    out.set("mem.hostlink_busy_frac", link_cycles / (serve_wl::total_cycles(report) as f64).max(1.0));
}

pub fn measure(
    inputs: Inputs<'_>,
    out: &mut Ledger,
    checks: &mut Checks,
    notes: &mut Vec<(&'static str, Json)>,
) {
    let Inputs { args, chaos, arrivals, rounds, untraced, ladder, virt, clock_ghz, recorder } = inputs;
    let first = rounds.first();
    let report = &first.report;
    let probe_start = Instant::now();
    counters(report, out);
    out.set("serving.backlog_end", first.backlog_end as f64);

    // serving: spans per Cluster::tick.
    let untraced_wall = untraced.median_wall();
    let mut tick_us: Vec<f64> =
        recorder.durations("serving.cluster_tick").iter().map(|ns| ns / 1e3).collect();
    tick_us.sort_by(f64::total_cmp);
    let executed_ticks = tick_us.len() as f64 / rounds.len() as f64;
    out.set("serving.tick_us_p50", stats::nearest_rank(&tick_us, 0.5).unwrap_or(0.0));
    out.set("serving.tick_us_p99", stats::nearest_rank(&tick_us, 0.99).unwrap_or(0.0));
    out.set("serving.ticks", report.ticks as f64);
    out.set("serving.ticks_per_s", report.ticks as f64 / untraced_wall);

    // engine (probe): the shard engine's step at the mean batch it ran at.
    let engine_ticks: u64 = report.shards.iter().map(|s| s.engine.ticks).sum();
    let forwarded = serve_wl::forwarded_tokens(report);
    let generated = serve_wl::generated_tokens(report);
    let prefill_tokens: u64 = report.shards.iter().map(|s| s.engine.prefill_tokens as u64).sum();
    let mean_batch = (generated as f64 / engine_ticks.max(1) as f64).round().max(1.0) as usize;
    let step_us = engine_step_us(mean_batch);
    let step_us_p50 = stats::nearest_rank(&step_us, 0.5).unwrap_or(0.0);
    out.set("engine.step_ms_p50", step_us_p50 / 1e3);
    out.set("engine.step_ms_p99", stats::nearest_rank(&step_us, 0.99).unwrap_or(0.0) / 1e3);
    out.set("engine.steps", engine_ticks as f64);
    out.set("engine.batch_size_mean", generated as f64 / engine_ticks.max(1) as f64);
    out.set("engine.prefill_tokens", prefill_tokens as f64);
    out.set("engine.decode_tokens", generated as f64);
    // An estimate: decode steps at the mean batch stand in for every shard
    // tick (prefill chunks and ragged batches are not replayed).
    let engine_est_s = engine_ticks as f64 * step_us_p50 / 1e6;
    out.set("serving.overhead_share_est", 1.0 - (engine_est_s / untraced.median_raw_wall()).min(1.0));
    out.set("model.forwarded_tokens", forwarded as f64);

    // accel / cost (from the shards' engine reports; ticks are not visible
    // from outside a cluster, so there is no per-component split here).
    let cycles = serve_wl::total_cycles(report);
    let sequential: u64 = report.shards.iter().map(|s| s.engine.sequential_total_cycles).sum();
    out.set("accel.cycles_total", cycles as f64);
    out.set("accel.batching_speedup", sequential as f64 / cycles.max(1) as f64);
    let arch = serve_wl::build_engine().arch().clone();
    let shape = llama_shape(&ModelConfig::tiny());
    let energy = EnergyModel::for_arch(&arch);
    let core_mj_tok = energy.token_energy_mj(cycles, 0) / generated.max(1) as f64;
    let hbm_mj_tok = virt.get("virt_energy_mj_tok").unwrap_or(0.0) - core_mj_tok;
    out.set("cost.energy_core_mj_tok", core_mj_tok);
    out.set("cost.energy_hbm_mj_tok", hbm_mj_tok);
    // Computed back from the energy model's price per HBM byte.
    out.set("mem.hbm_bytes_per_token", hbm_mj_tok / (energy.hbm_pj_per_byte * 1e-9));
    let scheduler = DecodeScheduler::new(
        arch,
        shape,
        HbmConfig::default(),
        veda_accel::DataflowVariant::FlexibleElementSerial,
    );
    let lens = vec![48usize; mean_batch];
    let chunk = [PrefillChunk { start_len: 32, tokens: 8, completes_prompt: false }];
    out.set("accel.mixed_batch_ns", probes::mixed_batch_ns(&scheduler, &chunk, &lens));
    out.set("prefix.match_us", prefix_match_us(arrivals));

    // telemetry: two more rounds with a RecordingSink installed, no spans.
    let mut sink_walls = Vec::new();
    let mut events = Vec::new();
    for _ in 0..2 {
        let (handle, buffer): (SinkHandle, _) = SinkHandle::recording();
        let cluster = serve_wl::build_cluster(chaos, arrivals, Some(handle));
        let (wall, result) = serve_wl::run_cluster(cluster, STREAM_REQUESTS, Trace(None));
        checks.check(result.report == *report, || {
            "report with a sink installed differs from the untraced one".into()
        });
        sink_walls.push(wall.seconds);
        events = buffer.lock().expect("sink poisoned").take_events();
    }
    out.set("telemetry.sink_overhead_frac", stats::median(&sink_walls) / untraced_wall - 1.0);
    out.set("telemetry.events", events.len() as f64);
    let export_start = Instant::now();
    let trace_json = chrome_trace_json(&events);
    out.set("telemetry.export_ms", host::secs(export_start) * 1e3);
    out.set("telemetry.trace_json_bytes", trace_json.len() as f64);
    let ttft_us = ttft_us_from_events(&events, clock_ghz);
    out.set("serving.ttft_us_p50", stats::nearest_rank(&ttft_us, 0.5).unwrap_or(0.0));
    out.set("serving.ttft_us_p99", stats::nearest_rank(&ttft_us, 0.99).unwrap_or(0.0));

    if let Some(rungs) = ladder {
        const NAMES: [&str; 6] = [
            "serving.ladder_attain.80",
            "serving.ladder_attain.110",
            "serving.ladder_attain.140",
            "serving.ladder_attain.170",
            "serving.ladder_attain.200",
            "serving.ladder_attain.250",
        ];
        for (name, rung) in NAMES.into_iter().zip(rungs) {
            out.set(name, rung.attain);
        }
    }

    // bench: reconciliation — tick spans plus the report drain are the
    // round; what is left is the round span's self time.
    let round_ns: f64 = recorder.durations("round").iter().sum();
    let residual = spans::self_time_by_name(recorder.spans())["round"] as f64 / round_ns.max(1.0);
    out.set("bench.recon_residual_frac", residual);
    rounds.record_bench_health(untraced.median_raw_wall(), probe_start, out);

    // Dominance: the workload must still sit where it was put.
    let get = |name: &str| virt.get(name).unwrap_or(0.0);
    checks.warn(residual <= 0.25, || {
        format!("tick spans leave {:.1}% of the round unexplained", residual * 100.0)
    });
    if chaos {
        checks.check(report.retries > 0 && report.availability() < 1.0, || {
            format!("serve_chaos: {} retries, availability {}", report.retries, report.availability())
        });
    } else {
        let attain = get("virt_slo_attain");
        checks.check(attain > 0.0 && attain < 1.0, || {
            format!("serve_open: SLO attainment {attain} is saturated")
        });
        checks.check(get("virt_ttft_ticks_p99") > get("virt_ttft_ticks_p50"), || {
            "serve_open: TTFT p99 does not exceed p50".into()
        });
    }
    notes.push(("executed_ticks_per_round", Json::Num(executed_ticks)));
    notes.push(("ttft_event_samples", Json::Num(ttft_us.len() as f64)));
    let _ = args;
}
