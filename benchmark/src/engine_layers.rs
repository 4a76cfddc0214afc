//! Per-layer ledger of the engine workloads (traced run): spans around the
//! engine calls, every tick's `CycleReport` re-derived from the tick's
//! events, layer probes at the observed geometry, and the reconciliation
//! of the parts with the round's wall time.

use std::collections::BTreeMap;
use std::time::Instant;

use veda::{Engine, Session, TokenEvent};
use veda_accel::{CycleReport, DecodeScheduler, LlamaShape, PrefillChunk};
use veda_cost::EnergyModel;
use veda_eviction::PolicyKind;
use veda_mem::HbmConfig;
use veda_model::ModelConfig;

use crate::catalogue::{BATCH_MIXED, LONG_CONTEXT, SOLO_STREAM};
use crate::engine_wl::{Derived, Round, RoundLog, Spec};
use crate::harness::{Args, Checks, Ledger, Rounds};
use crate::host::Timed;
use crate::json::Json;
use crate::probes::{self, ModelProbe};
use crate::spans::{self, Recorder};
use crate::stats;

/// The one-thread round of a multi-threaded workload.
pub struct SerialRound {
    pub timed: Timed,
    pub recorder: Recorder,
}

pub struct Inputs<'a> {
    pub args: &'a Args,
    pub spec: &'a Spec,
    pub engine: &'a Engine,
    pub rounds: &'a Rounds<Round>,
    pub first: &'a Derived,
    pub untraced_raw_wall: f64,
    pub serial: Option<SerialRound>,
    pub recorder: &'a Recorder,
}

pub fn llama_shape(model: &ModelConfig) -> LlamaShape {
    LlamaShape {
        d_model: model.d_model,
        n_heads: model.n_heads,
        ffn_hidden: model.ffn_hidden,
        n_layers: model.n_layers,
        vocab_size: model.vocab_size,
    }
}

/// One tick as the scheduler saw it, read back from the tick's events.
struct TickPlan {
    chunks: Vec<PrefillChunk>,
    decode_lens: Vec<usize>,
}

/// Round 0 replayed from its events alone.
struct Walk {
    ticks: Vec<TickPlan>,
    /// Rows each forwarded token attended over, with its session's policy.
    forwards: Vec<(usize, PolicyKind)>,
    /// Evictions (all layers) per policy.
    evictions: BTreeMap<&'static str, u64>,
    /// Largest eviction one event performed in one layer.
    max_bulk_rows: usize,
}

fn walk(spec: &Spec, log: &RoundLog) -> Walk {
    struct Live {
        last_len: usize,
        cap: usize,
        policy: PolicyKind,
    }
    let mut live: BTreeMap<Session, Live> = log
        .sessions
        .iter()
        .zip(&spec.requests)
        .map(|(s, r)| (*s, Live { last_len: 0, cap: r.budget.resolve(r.prompt.len()), policy: r.policy }))
        .collect();
    let mut out =
        Walk { ticks: Vec::new(), forwards: Vec::new(), evictions: BTreeMap::new(), max_bulk_rows: 0 };
    for tick in &log.ticks {
        let mut plan = TickPlan { chunks: Vec::new(), decode_lens: Vec::new() };
        for event in &tick.events {
            let session = live.get_mut(&event.session()).expect("events name submitted sessions");
            match *event {
                TokenEvent::Generated { evictions, cache_len, .. } => {
                    // The engine charges the pre-step length, clamped to the budget.
                    plan.decode_lens.push(session.last_len.min(session.cap.max(1)).max(1));
                    out.forwards.push((session.last_len + 1, session.policy));
                    *out.evictions.entry(session.policy.as_str()).or_insert(0) += evictions as u64;
                    out.max_bulk_rows = out.max_bulk_rows.max(evictions / spec.model.n_layers);
                    session.last_len = cache_len;
                }
                TokenEvent::PrefillProgress { tokens, remaining, cache_len, .. } => {
                    let start_len = cache_len - tokens;
                    plan.chunks.push(PrefillChunk { start_len, tokens, completes_prompt: remaining == 0 });
                    out.forwards.extend((start_len + 1..=cache_len).map(|len| (len, session.policy)));
                    session.last_len = cache_len;
                }
            }
        }
        out.ticks.push(plan);
    }
    out
}

/// `accel.*`, `cost.*`, `mem.hbm_bytes_per_token`: every tick costed again
/// through the public scheduler and checked against what the engine charged.
fn accel_ledger(
    inputs: &Inputs<'_>,
    walk: &Walk,
    out: &mut Ledger,
    checks: &mut Checks,
) -> (DecodeScheduler, f64) {
    let Inputs { spec, engine, rounds, first, .. } = inputs;
    let log = &rounds.first().log;
    let shape = llama_shape(&spec.model);
    let scheduler =
        DecodeScheduler::new(engine.arch().clone(), shape, HbmConfig::default(), engine.variant());
    let mut total = CycleReport::new();
    let mut mismatches = 0u64;
    let mut hbm_bytes = 0u64;
    for (plan, tick) in walk.ticks.iter().zip(&log.ticks) {
        let report = scheduler.mixed_batch(&plan.chunks, &plan.decode_lens);
        if report.total_cycles != tick.batch_cycles {
            mismatches += 1;
        }
        total.merge(&report);
        hbm_bytes += shape.weight_bytes_per_token()
            + plan.decode_lens.iter().map(|&l| shape.kv_bytes_per_token(l)).sum::<u64>()
            + plan.chunks.iter().map(|c| shape.prefill_kv_bytes(c.start_len, c.tokens)).sum::<u64>();
    }
    checks.check(mismatches == 0, || {
        format!("{mismatches} tick(s) re-derive to a different cycle count than EngineTick.batch_cycles")
    });
    let component = |names: &[&str]| -> f64 {
        total.components.iter().filter(|(n, _)| names.contains(n)).map(|(_, c)| *c as f64).sum()
    };
    out.set("accel.cycles_total", total.total_cycles as f64);
    out.set("accel.cycles_compute", total.compute_cycles as f64);
    out.set("accel.cycles_memory", total.memory_cycles as f64);
    out.set("accel.cycles_exposed_sfu", total.exposed_sfu_cycles as f64);
    out.set("accel.cycles.linear", component(&["qkv", "proj", "ffn_gate_up", "ffn_down", "lm_head"]));
    out.set("accel.cycles.attention", component(&["attention"]));
    out.set("accel.cycles.prefill_attention", component(&["prefill_attention"]));
    out.set("accel.cycles.norm", component(&["norm"]));
    out.set("accel.pe_utilization", total.pe_utilization());
    out.set("accel.memory_boundedness", total.memory_boundedness());
    out.set("accel.batching_speedup", log.report.batching_speedup());
    out.set("accel.recon_mismatch_ticks", mismatches as f64);

    // Host cost of one costing call, at the tick of median batch size.
    let mut by_size: Vec<&TickPlan> = walk.ticks.iter().collect();
    by_size.sort_by_key(|p| p.chunks.len() + p.decode_lens.len());
    let typical = by_size[by_size.len() / 2];
    let mixed_batch_ns = probes::mixed_batch_ns(&scheduler, &typical.chunks, &typical.decode_lens);
    out.set("accel.mixed_batch_ns", mixed_batch_ns);

    let generated = first.generated_tokens.max(1) as f64;
    let energy = EnergyModel::for_arch(engine.arch());
    let core_mj = energy.token_energy_mj(total.total_cycles, 0);
    let total_mj = first.virt.get("virt_energy_mj_tok").unwrap_or(0.0) * generated;
    out.set("cost.energy_core_mj_tok", core_mj / generated);
    out.set("cost.energy_hbm_mj_tok", (total_mj - core_mj) / generated);
    // Computed from tensor sizes (FP16 weights once per tick + each row's KV stream).
    out.set("mem.hbm_bytes_per_token", hbm_bytes as f64 / generated);
    (scheduler, mixed_batch_ns)
}

/// Paper-scale context, on `solo_stream` only: what the same cycle model
/// says about Llama-2 7B, beside the paper's published 18.6 tok/s. The
/// accelerator model is validated against nothing else, so the error is
/// stated with every simulated speed-up.
fn paper_scale(out: &mut Ledger) {
    const PAPER_TOK_S: f64 = 18.6;
    let table = veda_cost::table2(&veda_accel::ArchConfig::veda());
    out.set("accel.llama7b_tok_s", table.gpu.veda_tokens_per_s);
    out.set("accel.llama7b_err_vs_paper", table.gpu.veda_tokens_per_s / PAPER_TOK_S - 1.0);
    out.set("accel.veda8_speedup_vs_gpu", table.gpu.veda8_speedup_vs_gpu);
    out.set("accel.energy_eff_ratio_vs_gpu", table.gpu.energy_efficiency_ratio);
}

/// `engine.fanout_us_tiny`: what handing a 16-session tick of the tiny
/// model to two workers costs over running it on one — the fixed price of
/// the per-tick `thread::scope`, visible because the tiny model leaves
/// almost no work to amortise it.
fn fanout_us_tiny() -> f64 {
    let step_us = |threads: usize| {
        let mut engine = veda::EngineBuilder::new()
            .model(ModelConfig::tiny())
            .decode_threads(threads)
            .build()
            .expect("tiny engine");
        for s in 0..16usize {
            let prompt: Vec<usize> = (0..8).map(|j| 1 + (s * 7 + j * 3) % 60).collect();
            engine.submit(veda::Request::new(prompt, 200)).expect("valid request");
        }
        let mut times = Vec::new();
        for _ in 0..150 {
            let start = Instant::now();
            std::hint::black_box(engine.step());
            times.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
        stats::median(&times)
    };
    step_us(2) - step_us(1)
}

pub fn measure(
    inputs: Inputs<'_>,
    out: &mut Ledger,
    checks: &mut Checks,
    notes: &mut Vec<(&'static str, Json)>,
) {
    let Inputs { args, spec, rounds, first, untraced_raw_wall, recorder, .. } = &inputs;
    let walk = walk(spec, &rounds.first().log);
    let probe_start = Instant::now();

    // accel / cost / mem
    let (_scheduler, mixed_batch_ns) = accel_ledger(&inputs, &walk, out, checks);
    if spec.name == SOLO_STREAM {
        paper_scale(out);
    }
    for name in ["mem.swap_out_bytes", "mem.swap_in_bytes", "mem.swap_cycles", "mem.prefix_transfer_cycles"] {
        out.set(name, 0.0);
    }
    out.set("mem.migration_cycles", 0.0);
    out.set("mem.hostlink_busy_frac", 0.0);

    // model / tensor
    let mut lens: Vec<usize> = walk.forwards.iter().map(|(len, _)| *len).collect();
    lens.sort_unstable();
    let p50len = stats::nearest_rank(&lens, 0.5).unwrap_or(1);
    let p95len = stats::nearest_rank(&lens, 0.95).unwrap_or(1);
    let log = &rounds.first().log;
    let batch_size_mean =
        log.ticks.iter().map(|t| t.batch_size as f64).sum::<f64>() / log.ticks.len().max(1) as f64;
    let model = ModelProbe::run(
        &spec.model,
        args.seed,
        batch_size_mean.round() as usize,
        p50len,
        p95len,
        walk.max_bulk_rows,
    );
    model.record(out);
    probes::tensor(&spec.model, p50len, args.seed, out);
    out.set("model.forwarded_tokens", first.forwarded_tokens as f64);
    // Computed from tensor sizes over every forward pass of round 0: the
    // cache-independent FLOPs (GEMVs + LM head) over all FLOPs. Exact, so the
    // dominance check below cannot fail on machine noise.
    let lm_head_flops = (2 * spec.model.d_model * spec.model.vocab_size) as u64;
    let linear_flops = (spec.model.decode_flops(0) + lm_head_flops) * walk.forwards.len() as u64;
    let attention_flops: u64 =
        walk.forwards.iter().map(|(len, _)| spec.model.decode_flops(*len) - spec.model.decode_flops(0)).sum();
    let linear_flop_share = linear_flops as f64 / (linear_flops + attention_flops).max(1) as f64;
    out.set("model.linear_flop_share", linear_flop_share);

    // eviction
    let mut policy_cost: BTreeMap<&'static str, probes::PolicyProbe> = BTreeMap::new();
    for (kind, observe_name, select_name) in probes::POLICIES {
        let probe = probes::policy(kind.build(), spec.model.n_heads, p50len, args.seed);
        out.set(observe_name, probe.observe_ns);
        out.set(select_name, probe.select_ns);
        policy_cost.insert(kind.as_str(), probe);
    }
    let evictions: u64 = walk.evictions.values().sum();
    out.set("eviction.evictions", evictions as f64);
    out.set("eviction.evictions_per_token", evictions as f64 / first.forwarded_tokens.max(1) as f64);
    if spec.name == LONG_CONTEXT {
        // Output distortion of each policy on the first 320 tokens of the
        // Voting session's prompt, cache 128 (`transformer_distortion`).
        let prompt = &spec.requests[0].prompt[..320];
        for (kind, name) in [
            (PolicyKind::Voting, "eviction.kl_nats.voting"),
            (PolicyKind::H2o, "eviction.kl_nats.h2o"),
            (PolicyKind::SlidingWindow, "eviction.kl_nats.sliding"),
        ] {
            out.set(name, veda_model::eval::transformer_distortion(&spec.model, prompt, kind, 128));
        }
    }

    // Estimated host time of the layer calls of one round.
    let forward_est_ns: f64 = walk.forwards.iter().map(|(len, _)| model.forward_ns_at(*len)).sum();
    let layers = spec.model.n_layers as f64;
    let observe_est_ns: f64 = walk
        .forwards
        .iter()
        .map(|(_, kind)| policy_cost.get(kind.as_str()).map_or(0.0, |p| p.observe_ns) * layers)
        .sum();
    let select_est_ns: f64 = walk
        .evictions
        .iter()
        .map(|(kind, n)| policy_cost.get(kind).map_or(0.0, |p| p.select_ns) * *n as f64)
        .sum();
    let kv_evict_est_ns = evictions as f64 * model.kv_evict_one_ns;
    let eviction_est_ns = observe_est_ns + select_est_ns;
    let costing_est_ns = walk.ticks.len() as f64 * mixed_batch_ns;

    // engine: spans of the traced rounds (of the one-thread round where the
    // workload fans out, so step time is not divided among workers).
    // Layer attribution compares raw readings (spans, probes) with raw wall
    // time; only the ratios of whole rounds use nominal-speed seconds.
    let traced_wall = rounds.median_wall();
    let (span_source, serial_wall) = match &inputs.serial {
        Some(serial) => (&serial.recorder, serial.timed.wall),
        None => (*recorder, rounds.median_raw_wall()),
    };
    let mut step_ms: Vec<f64> = recorder.durations("engine.step").iter().map(|ns| ns / 1e6).collect();
    step_ms.sort_by(f64::total_cmp);
    let mut submit_us: Vec<f64> = recorder.durations("engine.submit").iter().map(|ns| ns / 1e3).collect();
    submit_us.sort_by(f64::total_cmp);
    out.set("engine.step_ms_p50", stats::nearest_rank(&step_ms, 0.5).unwrap_or(0.0));
    out.set("engine.step_ms_p99", stats::nearest_rank(&step_ms, 0.99).unwrap_or(0.0));
    out.set("engine.steps", log.ticks.len() as f64);
    out.set("engine.batch_size_mean", batch_size_mean);
    out.set("engine.submit_us_p50", stats::nearest_rank(&submit_us, 0.5).unwrap_or(0.0));
    out.set("engine.prefill_tokens", log.report.prefill_tokens as f64);
    out.set("engine.decode_tokens", log.report.total_tokens as f64);
    let serial_rounds = span_source.durations("round").len().max(1) as f64;
    let serial_step_ns: f64 = span_source.durations("engine.step").iter().sum::<f64>() / serial_rounds;
    out.set("engine.coord_share", 1.0 - (forward_est_ns / serial_step_ns).min(1.0));
    if let Some(serial) = &inputs.serial {
        out.set("engine.thread_scaling", serial.timed.seconds / traced_wall);
        out.set("engine.fanout_us_tiny", fanout_us_tiny());
    }

    // Shares and reconciliation against the one-thread wall.
    let serial_wall_ns = serial_wall * 1e9;
    out.set("model.forward_share", forward_est_ns / serial_wall_ns);
    out.set("eviction.share", eviction_est_ns / serial_wall_ns);
    let explained = forward_est_ns + eviction_est_ns + kv_evict_est_ns + costing_est_ns;
    let residual = (serial_wall_ns - explained).abs() / serial_wall_ns;
    out.set("bench.recon_residual_frac", residual);

    // bench: instrument health.
    rounds.record_bench_health(*untraced_raw_wall, probe_start, out);

    // Dominance: the workload must still stress the layer it exists for.
    // The failing checks read deterministic figures (FLOPs, batch sizes); the
    // same questions asked of wall-clock probes only warn.
    let get = |name: &str| out.get(name).unwrap_or(0.0);
    checks.warn(residual <= 0.25, || {
        format!("layer parts leave {:.1}% of the round unexplained", residual * 100.0)
    });
    match spec.name {
        SOLO_STREAM => {
            checks.check(linear_flop_share >= 0.6, || {
                format!("solo_stream: linear kernels are {linear_flop_share:.3} of the FLOPs, < 0.6")
            });
            checks.warn(get("model.linear_share") >= 0.6, || {
                format!("solo_stream: linear share of host time {:.3} < 0.6", get("model.linear_share"))
            });
        }
        LONG_CONTEXT => {
            checks.check(1.0 - linear_flop_share >= 0.5, || {
                format!("long_context: attention is {:.3} of the FLOPs, < 0.5", 1.0 - linear_flop_share)
            });
            checks.warn(get("model.attention_share") >= 0.5, || {
                format!(
                    "long_context: attention share of host time {:.3} < 0.5",
                    get("model.attention_share")
                )
            });
        }
        BATCH_MIXED => checks
            .check(batch_size_mean >= 8.0, || format!("batch_mixed: mean batch {batch_size_mean:.2} < 8")),
        _ => {}
    }
    notes.push(("resident_len_p50_p95", Json::Arr(vec![Json::Num(p50len as f64), Json::Num(p95len as f64)])));
    notes.push(("step_samples", Json::Num(step_ms.len() as f64)));
    // The round span's self time: the benchmark's own loop between calls.
    let round_self_ns = spans::self_time_by_name(recorder.spans())["round"] as f64;
    notes.push((
        "round_self_time_share",
        Json::Num(round_self_ns / recorder.durations("round").iter().sum::<f64>()),
    ));
}
