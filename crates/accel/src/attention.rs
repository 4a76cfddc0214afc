//! Cycle model of the attention process under the three dataflow variants
//! (the Fig. 8 center ablation) and of the voting-eviction speedup
//! (Fig. 8 right).
//!
//! Per decode token at cache length `l`, head dimension `d`, the model
//! charges, per head:
//!
//! | component | Baseline | +F | +F+E |
//! |---|---|---|---|
//! | `q×Kᵀ` | `l·ceil(d/P)` | `l·ceil(d/P)` | `l·ceil(d/P)` |
//! | softmax | fill + `l/ω` blocking | fill + `l/ω` blocking | O(1) drain |
//! | `s'×V` | `ceil(l/P)·P·ceil(d/P)·γ` | `l·ceil(d/P)` | `l·ceil(d/P)` |
//! | V upkeep | `d/8` | — | — |
//!
//! `P` = MACs, `γ` = the baseline's V-gather slowdown, `ω` = the residual
//! softmax throughput after cross-head overlap, "fill" = the blocking
//! softmax pipeline latency. See [`crate::arch::BaselineCalibration`] for
//! the constants and their justification. The baseline additionally pads
//! `l` to whole `P`-chunks (fixed epoch granularity) in `s'×V` — the
//! "k = 256 → 257 doubles the epochs" pathology of Section I.

use crate::arch::{ArchConfig, DataflowVariant};

/// Cycles of one head's attention at cache length `l` for a decode step.
pub fn decode_attention_cycles_per_head(arch: &ArchConfig, variant: DataflowVariant, l: usize) -> u64 {
    if l == 0 {
        return 0;
    }
    let d = arch.head_dim;
    let p = arch.macs();
    let cal = &arch.calibration;
    let chunks_d = (d as u64).div_ceil(p as u64);

    // q × Kᵀ: identical in all variants (the fixed tree also fits d).
    let qk = l as u64 * chunks_d;

    // softmax.
    let softmax = if variant.element_serial() {
        cal.element_serial_drain
    } else {
        cal.softmax_fill_cycles + (l as u64).div_ceil(cal.softmax_residual_throughput.max(1))
    };

    // s' × V.
    let sv = if variant.flexible() {
        l as u64 * chunks_d
    } else {
        // Fixed inner product over k = l: epochs of P with padding, plus the
        // half-rate V gather path.
        let padded = (l as u64).div_ceil(p as u64) * p as u64;
        ((padded * chunks_d) as f64 * cal.gather_slowdown).round() as u64
    };

    // Transposed-V maintenance (baseline only).
    let upkeep = if variant.flexible() { 0 } else { cal.transpose_maintenance_per_head };

    qk + softmax + sv + upkeep
}

/// Cycles of a full decode-step attention (all heads) at cache length `l`.
///
/// Softmax fill/drain is paid once per head but overlaps across heads are
/// already folded into the calibration constants, so heads simply sum.
pub fn decode_attention_cycles(arch: &ArchConfig, variant: DataflowVariant, l: usize) -> u64 {
    arch.n_heads as u64 * decode_attention_cycles_per_head(arch, variant, l)
}

/// Cycles of the prefill attention for a prompt of length `p_len`
/// (per head): row `i` attends to `i+1` keys. The flexible variants skip
/// the causal upper triangle (Section V); the baseline's fixed GEMM kernel
/// computes full rows. The whole-prompt prefill is exactly a chunked
/// prefill starting from an empty cache.
pub fn prefill_attention_cycles_per_head(arch: &ArchConfig, variant: DataflowVariant, p_len: usize) -> u64 {
    chunked_prefill_attention_cycles_per_head(arch, variant, 0, p_len)
}

/// Cycles of one head's attention for a *chunked-prefill* chunk: `tokens`
/// consecutive prompt rows appended to a cache already holding
/// `start_len` entries. Row `i` of the chunk attends causally to
/// `start_len + i + 1` keys under the flexible variants; the baseline's
/// fixed GEMM kernel computes full `start_len + tokens` rows. Within the
/// chunk the softmax of row `i` overlaps with row `i+1`'s GEMVs in *all*
/// variants (rows are independent); only the per-row drain differs.
pub(crate) fn chunked_prefill_attention_cycles_per_head(
    arch: &ArchConfig,
    variant: DataflowVariant,
    start_len: usize,
    tokens: usize,
) -> u64 {
    let mut total = 0u64;
    let d = arch.head_dim;
    let p = arch.macs();
    let chunks_d = (d as u64).div_ceil(p as u64);
    for i in 0..tokens {
        let effective_l = if variant.flexible() { start_len + i + 1 } else { start_len + tokens };
        let qk = effective_l as u64 * chunks_d;
        let sv = if variant.flexible() {
            effective_l as u64 * chunks_d
        } else {
            let padded = (effective_l as u64).div_ceil(p as u64) * p as u64;
            ((padded * chunks_d) as f64 * arch.calibration.gather_slowdown).round() as u64
        };
        let drain = if variant.element_serial() {
            arch.calibration.element_serial_drain
        } else {
            arch.calibration.softmax_fill_cycles / 4 // pipelined across rows
        };
        total += qk + sv + drain;
    }
    if !variant.flexible() {
        total += tokens as u64 * arch.calibration.transpose_maintenance_per_head;
    }
    total
}

/// Cycles of a full chunked-prefill chunk (all heads); see
/// [`chunked_prefill_attention_cycles_per_head`].
pub(crate) fn chunked_prefill_attention_cycles(
    arch: &ArchConfig,
    variant: DataflowVariant,
    start_len: usize,
    tokens: usize,
) -> u64 {
    arch.n_heads as u64 * chunked_prefill_attention_cycles_per_head(arch, variant, start_len, tokens)
}

/// Average attention cycles per generated token over a generation phase:
/// prompt `p_len`, generating `gen_len` tokens, with the cache either
/// growing freely (`kv_budget = None`) or held at a budget by eviction
/// (`Some(s)` — the voting engine keeps `l = min(grown, s)`).
///
/// This is the quantity plotted in Fig. 8 (center, right): "latency of the
/// attention process averaged over tokens during the generation phase".
pub fn average_generation_attention_cycles(
    arch: &ArchConfig,
    variant: DataflowVariant,
    p_len: usize,
    gen_len: usize,
    kv_budget: Option<usize>,
) -> f64 {
    if gen_len == 0 {
        // Degenerate point: report the latency of the first generated token.
        let l = kv_budget.map_or(p_len + 1, |b| (p_len + 1).min(b.max(1)));
        return decode_attention_cycles(arch, variant, l) as f64;
    }
    let mut total = 0u64;
    for g in 0..gen_len {
        let grown = p_len + g + 1;
        let l = kv_budget.map_or(grown, |b| grown.min(b.max(1)));
        total += decode_attention_cycles(arch, variant, l);
    }
    total as f64 / gen_len as f64
}

/// Speedup of voting-based eviction holding the cache at `ratio × p_len`
/// versus the no-eviction baseline (both on VEDA, i.e. F+E) — one point of
/// Fig. 8 (right).
pub fn eviction_speedup(arch: &ArchConfig, p_len: usize, gen_len: usize, ratio: f64) -> f64 {
    let budget = ((p_len as f64 * ratio).round() as usize).max(1);
    let variant = DataflowVariant::FlexibleElementSerial;
    let baseline = average_generation_attention_cycles(arch, variant, p_len, gen_len, None);
    let evicted = average_generation_attention_cycles(arch, variant, p_len, gen_len, Some(budget));
    baseline / evicted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> ArchConfig {
        ArchConfig::veda()
    }

    #[test]
    fn variant_ordering_holds_everywhere() {
        let a = arch();
        for l in [128usize, 257, 512, 1000, 1536, 4096] {
            let base = decode_attention_cycles(&a, DataflowVariant::Baseline, l);
            let f = decode_attention_cycles(&a, DataflowVariant::Flexible, l);
            let fe = decode_attention_cycles(&a, DataflowVariant::FlexibleElementSerial, l);
            assert!(base > f, "l={l}: baseline {base} <= flexible {f}");
            assert!(f > fe, "l={l}: flexible {f} <= element-serial {fe}");
        }
    }

    #[test]
    fn ablation_ratios_land_in_paper_band() {
        // Fig. 8 (center): Baseline+F ≈ 0.72–0.75, Baseline+F+E ≈
        // 0.55–0.63 over generation lengths 0..1024 after a 512 prompt.
        let a = arch();
        for gen in [0usize, 128, 256, 512, 1024] {
            let base = average_generation_attention_cycles(&a, DataflowVariant::Baseline, 512, gen, None);
            let f = average_generation_attention_cycles(&a, DataflowVariant::Flexible, 512, gen, None);
            let fe = average_generation_attention_cycles(
                &a,
                DataflowVariant::FlexibleElementSerial,
                512,
                gen,
                None,
            );
            let rf = f / base;
            let rfe = fe / base;
            assert!((0.62..=0.82).contains(&rf), "gen={gen}: F ratio {rf}");
            assert!((0.45..=0.70).contains(&rfe), "gen={gen}: F+E ratio {rfe}");
        }
    }

    #[test]
    fn element_serial_ratio_rises_with_generation_length() {
        // The paper's F+E curve rises from 0.55 toward 0.63 as generation
        // grows (the O(1) drain amortizes while O(l) terms grow).
        let a = arch();
        let ratio = |gen| {
            let base = average_generation_attention_cycles(&a, DataflowVariant::Baseline, 512, gen, None);
            let fe = average_generation_attention_cycles(
                &a,
                DataflowVariant::FlexibleElementSerial,
                512,
                gen,
                None,
            );
            fe / base
        };
        assert!(ratio(1024) > ratio(0), "F+E ratio must rise: {} vs {}", ratio(1024), ratio(0));
    }

    #[test]
    fn eviction_speedup_matches_paper_corners() {
        // Fig. 8 (right): 0.5 KV @ gen 128 ≈ 2.3×; 0.2 KV @ gen 1024 ≈ 10×.
        let a = arch();
        let s_lo = eviction_speedup(&a, 512, 128, 0.5);
        let s_hi = eviction_speedup(&a, 512, 1024, 0.2);
        assert!((1.8..=2.8).contains(&s_lo), "0.5KV@128 speedup {s_lo}");
        assert!((8.0..=12.0).contains(&s_hi), "0.2KV@1024 speedup {s_hi}");
    }

    #[test]
    fn eviction_speedup_monotone_in_ratio_and_length() {
        let a = arch();
        assert!(eviction_speedup(&a, 512, 512, 0.2) > eviction_speedup(&a, 512, 512, 0.4));
        assert!(eviction_speedup(&a, 512, 1024, 0.3) > eviction_speedup(&a, 512, 128, 0.3));
    }

    #[test]
    fn chunked_prefill_from_empty_cache_matches_whole_prompt_prefill() {
        let a = ArchConfig::veda();
        for variant in
            [DataflowVariant::Baseline, DataflowVariant::Flexible, DataflowVariant::FlexibleElementSerial]
        {
            for p_len in [1, 7, 64, 257] {
                assert_eq!(
                    chunked_prefill_attention_cycles_per_head(&a, variant, 0, p_len),
                    prefill_attention_cycles_per_head(&a, variant, p_len),
                    "{variant:?} p_len {p_len}"
                );
            }
        }
    }

    #[test]
    fn chunked_prefill_cost_grows_with_start_len_and_tokens() {
        let a = ArchConfig::veda();
        let v = DataflowVariant::FlexibleElementSerial;
        assert_eq!(chunked_prefill_attention_cycles_per_head(&a, v, 100, 0), 0);
        let early = chunked_prefill_attention_cycles_per_head(&a, v, 0, 16);
        let late = chunked_prefill_attention_cycles_per_head(&a, v, 512, 16);
        assert!(late > early, "rows deeper in the prompt attend to more keys");
        let small = chunked_prefill_attention_cycles_per_head(&a, v, 64, 8);
        let big = chunked_prefill_attention_cycles_per_head(&a, v, 64, 32);
        assert!(big > small);
        assert_eq!(chunked_prefill_attention_cycles(&a, v, 64, 8), a.n_heads as u64 * small, "heads sum");
    }

    #[test]
    fn prefill_causal_skip_halves_flexible_work() {
        // Section V: the flexible PE array skips the upper triangle,
        // halving effective attention ops at prefill.
        let a = arch();
        let flex = prefill_attention_cycles_per_head(&a, DataflowVariant::FlexibleElementSerial, 512);
        let base = prefill_attention_cycles_per_head(&a, DataflowVariant::Baseline, 512);
        // Flexible computes ~l²/2 + l²/2 = l²; baseline ~l² + 2l² (gather).
        assert!(base as f64 / flex as f64 > 1.8, "prefill ratio {}", base as f64 / flex as f64);
    }

    #[test]
    fn zero_length_cache_costs_nothing() {
        let a = arch();
        assert_eq!(decode_attention_cycles(&a, DataflowVariant::Baseline, 0), 0);
    }

    #[test]
    fn sequence_extension_is_smooth_for_flexible_only() {
        // l = 256 -> 257: flexible grows by one cycle per kernel; the
        // baseline jumps by a whole padded epoch in s'×V.
        let a = arch();
        let f_delta = decode_attention_cycles_per_head(&a, DataflowVariant::FlexibleElementSerial, 257)
            - decode_attention_cycles_per_head(&a, DataflowVariant::FlexibleElementSerial, 256);
        let b_delta = decode_attention_cycles_per_head(&a, DataflowVariant::Baseline, 257)
            - decode_attention_cycles_per_head(&a, DataflowVariant::Baseline, 256);
        assert_eq!(f_delta, 2);
        assert!(b_delta > 200, "baseline epoch jump {b_delta}");
    }
}
