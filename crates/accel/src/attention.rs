//! Cycle model of the attention process under the three dataflow variants
//! (the Fig. 8 center ablation) and of the voting-eviction speedup
//! (Fig. 8 right).
//!
//! One function prices everything: one head's attention for one query
//! row over `k` keys. A decode step at cache length `l` is one row with
//! `k = l`; row `i` of a prefill chunk appended after `start_len` cached
//! entries has `k = start_len + i + 1` under the flexible variants and
//! `k = start_len + tokens` on the baseline, whose fixed GEMM kernel
//! computes full rows. Per row and head the model charges:
//!
//! | component | Baseline | +F | +F+E |
//! |---|---|---|---|
//! | `q×Kᵀ` | `k·ceil(d/P)` | `k·ceil(d/P)` | `k·ceil(d/P)` |
//! | softmax | drain + `σ·blocking(k)` | drain + `σ·blocking(k)` | drain |
//! | `s'×V` | `ceil(k/P)·P·ceil(d/P)·γ` | `k·ceil(d/P)` | `k·ceil(d/P)` |
//! | V upkeep | `ceil(d/8)` | — | — |
//!
//! `P` = [`ArchConfig::macs`]: the analytic model counts VEDA's ×2 lanes
//! as one 128-wide array, while the functional model
//! ([`crate::pipeline::AttentionPipeline`]) is one 64-PE tile. The drain
//! (`element_serial_drain_cycles`, 40) and `blocking(k)` (`blocking_cycles`,
//! `k` on Table I's 2 EXP + 2 DIV units) are derived from the
//! [`SfuConfig`](crate::arch::SfuConfig), and the baseline's transposed-V
//! upkeep is the row's `d` values through an 8-wide serializer; `γ`
//! (gather slowdown, 2) and `σ` (the share of the blocking softmax that
//! does not hide behind the next head's or row's GEMVs, 0.5) are the two
//! fitted constants of [`crate::arch::BaselineCalibration`]. The baseline also
//! pads `k` to whole `P`-chunks (fixed epoch granularity) in `s'×V` — the
//! "k = 256 → 257 doubles the epochs" pathology of Section I.
//!
//! A decode step is priced at `l` keys although its byte model
//! (`LlamaShape::layer_kv_bytes(l)`: `l` reads plus the new token's
//! write) implies `l + 1`, as a chunk row has; `docs/FIDELITY.md` records
//! this as a known modelling difference.

use crate::arch::{ArchConfig, DataflowVariant};

/// Width of the serializer that writes a new row into the baseline's
/// transposed V copy, in values per cycle.
const TRANSPOSE_SERIALIZER_WIDTH: u64 = 8;

/// Cycles of one head's attention for one query row over `keys` keys —
/// the single per-row cost behind every decode step and prefill chunk.
fn row_cycles(arch: &ArchConfig, variant: DataflowVariant, keys: usize) -> u64 {
    if keys == 0 {
        return 0;
    }
    let cal = &arch.calibration;
    let k = keys as u64;
    let p = arch.macs() as u64;
    let chunks_d = (arch.head_dim as u64).div_ceil(p);

    // q × Kᵀ: identical in all variants (the fixed tree also fits d).
    let qk = k * chunks_d;

    // softmax: the drain always; the blocking schedule also exposes the
    // share of its passes that the next GEMVs do not hide.
    let drain = arch.sfu.element_serial_drain_cycles();
    let softmax = if variant.element_serial() {
        drain
    } else {
        drain + (arch.sfu.blocking_cycles(keys) as f64 * cal.softmax_exposed_share).round() as u64
    };

    // s' × V (the flexible array streams it like q × Kᵀ), and the
    // baseline's transposed-V upkeep.
    let (sv, upkeep) = if variant.flexible() {
        (qk, 0)
    } else {
        // Fixed inner product: epochs of P with padding, plus the half-rate
        // V gather path.
        let padded = k.div_ceil(p) * p;
        (
            ((padded * chunks_d) as f64 * cal.gather_slowdown).round() as u64,
            (arch.head_dim as u64).div_ceil(TRANSPOSE_SERIALIZER_WIDTH),
        )
    };

    qk + softmax + sv + upkeep
}

/// Cycles of one head's attention at cache length `l` for a decode step:
/// one row over `l` keys, so exactly a 1-row chunk after `l - 1` entries.
pub fn decode_attention_cycles_per_head(arch: &ArchConfig, variant: DataflowVariant, l: usize) -> u64 {
    row_cycles(arch, variant, l)
}

/// Cycles of a full decode-step attention (all heads) at cache length `l`.
///
/// Heads run one after another and their costs sum; the part of each
/// blocking softmax that overlaps the next head's GEMVs is already left
/// out by `softmax_exposed_share`.
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
/// `start_len` entries, each priced as one row over its keys (see the
/// module table).
pub(crate) fn chunked_prefill_attention_cycles_per_head(
    arch: &ArchConfig,
    variant: DataflowVariant,
    start_len: usize,
    tokens: usize,
) -> u64 {
    (0..tokens)
        .map(|i| {
            row_cycles(arch, variant, if variant.flexible() { start_len + i + 1 } else { start_len + tokens })
        })
        .sum()
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
    fn baseline_transpose_upkeep_scales_with_head_dim() {
        // At γ = 1 and a whole number of 128-key epochs the baseline's
        // `s'×V` costs what the flexible one does, so the two differ by the
        // upkeep alone: `ceil(d / 8)` cycles per row and head.
        for (head_dim, upkeep) in [(64, 8), (128, 16), (129, 17)] {
            let mut a = ArchConfig { head_dim, ..arch() };
            a.calibration.gather_slowdown = 1.0;
            let per_head = |v| decode_attention_cycles_per_head(&a, v, 256);
            assert_eq!(per_head(DataflowVariant::Baseline) - per_head(DataflowVariant::Flexible), upkeep);
        }
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
    fn one_row_chunk_is_a_decode_step() {
        let a = arch();
        for variant in DataflowVariant::ALL {
            for l in 1..4096 {
                assert_eq!(
                    chunked_prefill_attention_cycles_per_head(&a, variant, l - 1, 1),
                    decode_attention_cycles_per_head(&a, variant, l),
                    "{variant} at l {l}"
                );
            }
        }
    }

    #[test]
    fn element_serial_cycles_are_pinned() {
        // Every benchmark workload runs +F+E, where a row costs
        // `2·keys·ceil(d/P) + drain`; the virtual-time metrics rest on
        // these exact numbers.
        let v = DataflowVariant::FlexibleElementSerial;
        for (d, decode, chunks) in
            [(128, [42, 552, 554, 8232], [6720, 17296]), (129, [44, 1064, 1068, 16424], [10880, 33952])]
        {
            let a = ArchConfig { head_dim: d, ..arch() };
            for (l, want) in [1, 256, 257, 4096].into_iter().zip(decode) {
                assert_eq!(decode_attention_cycles_per_head(&a, v, l), want, "decode d {d} l {l}");
            }
            for ((start, tokens), want) in [(0, 64), (512, 16)].into_iter().zip(chunks) {
                assert_eq!(
                    chunked_prefill_attention_cycles_per_head(&a, v, start, tokens),
                    want,
                    "chunk d {d} ({start}, {tokens})"
                );
            }
        }
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
