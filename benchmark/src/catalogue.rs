//! The catalogue: every workload, end-to-end metric and per-layer metric
//! this benchmark reports, by name, with its unit and direction.
//! `BENCHMARK.json` at the repository root is this file rendered by
//! `veda-benchmark manifest`; a unit test keeps the two equal.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const SOLO_STREAM: &str = "solo_stream";
pub const BATCH_MIXED: &str = "batch_mixed";
pub const LONG_CONTEXT: &str = "long_context";
pub const EVICT_QUALITY: &str = "evict_quality";
pub const SERVE_OPEN: &str = "serve_open";
pub const SERVE_CHAOS: &str = "serve_chaos";

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: SOLO_STREAM,
        why: "One user on the small model: weights stream per token and GEMVs dominate, so a kernel change shows here and a serving, fan-out or prefix change must not.",
    },
    Workload {
        name: BATCH_MIXED,
        why: "Closed loop of 16 clients on 2 threads: the only place weight reuse across sessions, thread fan-out and prefill-chunk/decode interference exist.",
    },
    Workload {
        name: LONG_CONTEXT,
        why: "Narrow model, ~1k resident rows, three policies: attention, KV append/evict and policy observe/select dominate; linear kernels do little.",
    },
    Workload {
        name: EVICT_QUALITY,
        why: "InductionLm perplexity on held-out samples at cache 128: the checked output is accuracy, so faster victim selection that picks worse victims fails only here.",
    },
    Workload {
        name: SERVE_OPEN,
        why: "Open-loop Poisson arrivals on a 4-shard cluster at the knee: admission, preemption and swap, prefix hits beside spill churn and routing all work, fault-free.",
    },
    Workload {
        name: SERVE_CHAOS,
        why: "The same arrivals and cluster under a crash and a degraded link: retry/backoff, deadlines, shedding, health-aware routing and recovery, paired with serve_open.",
    },
];

const ALL: &[&str] = &[SOLO_STREAM, BATCH_MIXED, LONG_CONTEXT, EVICT_QUALITY, SERVE_OPEN, SERVE_CHAOS];
const ACCEL: &[&str] = &[SOLO_STREAM, BATCH_MIXED, LONG_CONTEXT, SERVE_OPEN, SERVE_CHAOS];
const ENGINE: &[&str] = &[SOLO_STREAM, BATCH_MIXED, LONG_CONTEXT];
const SERVE: &[&str] = &[SERVE_OPEN, SERVE_CHAOS];

/// An end-to-end metric. `det` marks a virtual-time or accuracy figure
/// that repeats exactly for a given seed: `--compare` holds those to
/// equality, and within a run they are asserted equal on every round.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub det: bool,
    /// Workloads the metric is defined on. Elsewhere the cell is not a
    /// measurement and carries [`NOT_APPLICABLE`].
    pub workloads: &'static [&'static str],
}

/// What a cell holds when its metric is not defined on the workload. The
/// driver's contract fixes the result line ("with `--trace 0` the metrics are
/// every `end_to_end` metric", each as `{"value", "unit"}`, "choose metrics
/// that are never 0"), so the cell can be neither absent, nor 0, nor carry a
/// marker of its own. It is a placeholder, never a measurement or a copy of
/// one: every run prints the cell as `n/a`, names it in the `# not_applicable`
/// line just above the result line and in the result file, and `--compare`
/// skips it.
pub const NOT_APPLICABLE: f64 = 1.0;

/// Bound on a deterministic metric. At a fixed seed these repeat exactly
/// (`--compare` holds them to that); across the driver's seeds only the token
/// contents differ, which spreads the most sensitive of them
/// (`virt_ttft_ticks_p99` on serve_open) by 0.57 % over ten seeds. The
/// driver wants a spread under a third of the bound, hence 2 %, not 0.
const DET: f64 = 0.02;

/// Bound on the wall-clock metrics. The issue asked for 10 % (20 % for
/// set-up), but the driver rejects a benchmark whose own ten-run spread
/// exceeds its bound, and the sandbox's co-tenants spread ten identical runs
/// by up to 19 % even at nominal-speed seconds (see `host::Reference` and the
/// README's paired table). This is the largest bound the contract allows.
const HOST: f64 = 0.25;

const fn det(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
) -> EndToEnd {
    EndToEnd { name, unit, better, bound: DET, det: true, workloads }
}

/// Virtual microseconds: modelled accelerator cycles ÷ modelled clock.
/// Named apart from `us` because it is not a reading of the host's clock.
const VIRT_US: &str = "virt_us";

pub const END_TO_END: [EndToEnd; 16] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: HOST, det: false, workloads: ALL },
    EndToEnd {
        name: "host_tok_s",
        unit: "tok/s",
        better: Better::Higher,
        bound: HOST,
        det: false,
        workloads: ALL,
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        det: false,
        workloads: ALL,
    },
    det("completed_frac", "share", Better::Higher, ALL),
    det("virt_tok_s", "tok/s", Better::Higher, ACCEL),
    det("virt_energy_mj_tok", "mJ/tok", Better::Lower, ACCEL),
    det("virt_itl_us_p50", VIRT_US, Better::Lower, ENGINE),
    det("virt_itl_us_p99", VIRT_US, Better::Lower, ENGINE),
    det("virt_ttft_us_p50", VIRT_US, Better::Lower, ENGINE),
    det("virt_ttft_ticks_p50", "ticks", Better::Lower, SERVE),
    det("virt_ttft_ticks_p99", "ticks", Better::Lower, SERVE),
    det("virt_e2e_ticks_p99", "ticks", Better::Lower, SERVE),
    det("virt_slo_attain", "share", Better::Higher, SERVE),
    det("virt_max_rate_slo", "req/ktick", Better::Higher, &[SERVE_OPEN]),
    det("kv_peak_bytes", "bytes", Better::Lower, ACCEL),
    det("evict_ppl_voting", "ppl", Better::Lower, &[EVICT_QUALITY]),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// Per-layer metrics, prefixed by crate name. Host times (`ns`/`us`/`ms`)
/// are timed from this benchmark around calls into public functions;
/// counts come from reports and events. A metric a workload does not
/// exercise reads 0 there. `better` is the direction a layer optimisation
/// would move it; for pure descriptors (lengths, token counts) it is the
/// direction that makes the workload cheaper.
pub const PER_LAYER: &[PerLayer] = &[
    // tensor: kernels at the model's largest weight shape.
    lo("tensor.gemv_outer_ns", "ns"),
    lo("tensor.gemv_inner_ns", "ns"),
    lo("tensor.softmax_ns", "ns"),
    lo("tensor.rmsnorm_ns", "ns"),
    hi("tensor.gemv_gflops", "GFLOP/s"),
    lo("tensor.flops_per_token", "FLOP"),
    lo("tensor.bytes_per_token", "bytes"),
    // model: forward pass and KV cache at the observed resident lengths.
    lo("model.forward_ns_p50len", "ns"),
    lo("model.forward_ns_p95len", "ns"),
    lo("model.attend_ns", "ns"),
    lo("model.attention_share", "share"),
    lo("model.linear_share", "share"),
    lo("model.linear_flop_share", "share"),
    lo("model.kv_append_ns", "ns"),
    lo("model.kv_evict_one_ns", "ns"),
    lo("model.kv_evict_bulk_ns", "ns"),
    lo("model.resident_len_p50", "rows"),
    lo("model.resident_len_p95", "rows"),
    lo("model.forwarded_tokens", "count"),
    lo("model.forward_share", "share"),
    // eviction: policy cost, work and quality.
    lo("eviction.observe_ns.voting", "ns"),
    lo("eviction.observe_ns.h2o", "ns"),
    lo("eviction.observe_ns.sliding", "ns"),
    lo("eviction.select_ns.voting", "ns"),
    lo("eviction.select_ns.h2o", "ns"),
    lo("eviction.select_ns.sliding", "ns"),
    lo("eviction.evictions", "count"),
    lo("eviction.evictions_per_token", "1/tok"),
    lo("eviction.share", "share"),
    lo("eviction.ppl.h2o", "ppl"),
    lo("eviction.ppl.sliding", "ppl"),
    lo("eviction.ppl.full", "ppl"),
    lo("eviction.kl_nats.voting", "nats"),
    lo("eviction.kl_nats.h2o", "nats"),
    lo("eviction.kl_nats.sliding", "nats"),
    // accel: every tick's CycleReport re-derived from the tick's events.
    lo("accel.cycles_total", "cycles"),
    lo("accel.cycles_compute", "cycles"),
    lo("accel.cycles_memory", "cycles"),
    lo("accel.cycles_exposed_sfu", "cycles"),
    lo("accel.cycles.linear", "cycles"),
    lo("accel.cycles.attention", "cycles"),
    lo("accel.cycles.prefill_attention", "cycles"),
    lo("accel.cycles.norm", "cycles"),
    hi("accel.pe_utilization", "share"),
    lo("accel.memory_boundedness", "share"),
    hi("accel.batching_speedup", "x"),
    lo("accel.recon_mismatch_ticks", "count"),
    lo("accel.mixed_batch_ns", "ns"),
    hi("accel.llama7b_tok_s", "tok/s"),
    lo("accel.llama7b_err_vs_paper", "share"),
    hi("accel.veda8_speedup_vs_gpu", "x"),
    hi("accel.energy_eff_ratio_vs_gpu", "x"),
    // cost: the energy split behind virt_energy_mj_tok.
    lo("cost.energy_core_mj_tok", "mJ/tok"),
    lo("cost.energy_hbm_mj_tok", "mJ/tok"),
    // mem: HBM stream and host-link traffic.
    lo("mem.hbm_bytes_per_token", "bytes"),
    lo("mem.swap_out_bytes", "bytes"),
    lo("mem.swap_in_bytes", "bytes"),
    lo("mem.swap_cycles", "cycles"),
    lo("mem.prefix_transfer_cycles", "cycles"),
    lo("mem.migration_cycles", "cycles"),
    lo("mem.hostlink_busy_frac", "share"),
    // engine: Engine::step and submit as seen from outside.
    lo("engine.step_ms_p50", "ms"),
    lo("engine.step_ms_p99", "ms"),
    lo("engine.steps", "count"),
    hi("engine.batch_size_mean", "sessions"),
    lo("engine.submit_us_p50", "us"),
    lo("engine.prefill_tokens", "count"),
    lo("engine.decode_tokens", "count"),
    hi("engine.thread_scaling", "x"),
    lo("engine.fanout_us_tiny", "us"),
    lo("engine.coord_share", "share"),
    // prefix: shared-prefix cache counters.
    hi("prefix.hit_rate", "share"),
    hi("prefix.shared_tokens", "count"),
    lo("prefix.insertions", "count"),
    lo("prefix.evictions", "count"),
    lo("prefix.expiries", "count"),
    lo("prefix.spills", "count"),
    lo("prefix.fills", "count"),
    lo("prefix.spill_bytes", "bytes"),
    lo("prefix.fill_bytes", "bytes"),
    lo("prefix.match_us", "us"),
    // serving: shard and cluster tick bookkeeping, queues, faults.
    lo("serving.tick_us_p50", "us"),
    lo("serving.tick_us_p99", "us"),
    lo("serving.ticks", "ticks"),
    hi("serving.ticks_per_s", "1/s"),
    lo("serving.overhead_share_est", "share"),
    lo("serving.queue_depth_mean", "requests"),
    lo("serving.queue_depth_max", "requests"),
    lo("serving.stage_queueing_ticks_p99", "ticks"),
    lo("serving.stage_prefill_ticks_p99", "ticks"),
    lo("serving.stage_decode_ticks_p99", "ticks"),
    lo("serving.stage_swap_wait_ticks_p99", "ticks"),
    lo("serving.stage_migration_wait_ticks_p99", "ticks"),
    lo("serving.preemptions", "count"),
    lo("serving.resumes", "count"),
    lo("serving.rejected_never_fits", "count"),
    lo("serving.rejected_queue_full", "count"),
    lo("serving.shed", "count"),
    lo("serving.retries", "count"),
    lo("serving.timeouts", "count"),
    lo("serving.dead_letters", "count"),
    lo("serving.lost_sessions", "count"),
    lo("serving.migrations", "count"),
    lo("serving.migration_bytes", "bytes"),
    lo("serving.routed_imbalance", "share"),
    lo("serving.kv_reserved_peak_frac", "share"),
    lo("serving.kv_reserved_over_resident", "x"),
    hi("serving.availability", "share"),
    lo("serving.recovery_ticks_p99", "ticks"),
    lo("serving.backlog_end", "requests"),
    hi("serving.ladder_attain.80", "share"),
    hi("serving.ladder_attain.110", "share"),
    hi("serving.ladder_attain.140", "share"),
    hi("serving.ladder_attain.170", "share"),
    hi("serving.ladder_attain.200", "share"),
    hi("serving.ladder_attain.250", "share"),
    lo("serving.ttft_us_p50", VIRT_US),
    lo("serving.ttft_us_p99", VIRT_US),
    // telemetry: what observing costs.
    lo("telemetry.sink_overhead_frac", "share"),
    lo("telemetry.events", "count"),
    lo("telemetry.trace_json_bytes", "bytes"),
    lo("telemetry.export_ms", "ms"),
    // bench: health of this instrument.
    lo("bench.trace_overhead_frac", "share"),
    lo("bench.recon_residual_frac", "share"),
    lo("bench.round_iqr_frac", "share"),
    hi("bench.rounds", "count"),
    lo("bench.probe_seconds", "s"),
];

/// The rate ladder of `virt_max_rate_slo`, in requests per 1000 ticks.
pub const RATE_LADDER: [u32; 6] = [80, 110, 140, 170, 200, 250];

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 8;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Json {
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why is {} chars", w.name, w.why.len());
            assert!(names.insert(w.name), "duplicate name {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{} [{}]", m.name, m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(!m.workloads.is_empty() && m.workloads.iter().all(|w| ALL.contains(w)), "{}", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{} [{}]", m.name, m.unit);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }
        assert!(manifest().to_pretty().len() <= 64 << 10);
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = end_to_end("setup_s").expect("setup_s is required by the contract");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_the_rendered_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).expect("BENCHMARK.json parses"), manifest());
    }
}
