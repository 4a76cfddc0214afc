//! End-to-end decode scheduling: maps a Llama-shaped decoder layer stack
//! onto the PE array, SFU and HBM, producing per-tick cycle reports.
//!
//! In the generation phase every linear layer is a GEMV whose weights
//! stream from HBM exactly once (no reuse across a single token), so each
//! component's time is `max(compute, memory)` under double buffering —
//! decode is memory-bound, which the report's `memory_boundedness` makes
//! visible. The attention process adds the KV cache stream and the
//! variant-dependent kernel cycles from [`crate::attention`]. Every layer
//! does the same work, so one layer is priced and charged `n_layers`
//! times; the report carries the HBM bytes it charged, which is all the
//! energy model needs besides the cycles.

use crate::arch::{ArchConfig, DataflowVariant};
use crate::attention::{chunked_prefill_attention_cycles, decode_attention_cycles};
use crate::report::CycleReport;
use veda_mem::HbmConfig;

/// One prefilling sequence's share of a mixed tick: `tokens` consecutive
/// prompt tokens appended to a cache already holding `start_len` entries
/// (Sarathi/vLLM-style chunked prefill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillChunk {
    /// Cache length before the chunk (prompt tokens already consumed).
    pub start_len: usize,
    /// Prompt tokens this chunk consumes (must be ≥ 1).
    pub tokens: usize,
    /// Whether this chunk consumes the prompt's final token — only then
    /// does the sequence need the LM head (its logits seed the first
    /// decode step); mid-prompt chunks skip it.
    pub completes_prompt: bool,
}

/// Geometry of the model being scheduled (decode-time view; no tensors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlamaShape {
    /// Hidden dimension `D`.
    pub d_model: usize,
    /// Attention heads `H`.
    pub n_heads: usize,
    /// FFN hidden dimension.
    pub ffn_hidden: usize,
    /// Number of layers.
    pub n_layers: usize,
    /// Vocabulary size (tied LM head).
    pub vocab_size: usize,
}

impl LlamaShape {
    /// Llama-2 7B.
    pub fn llama2_7b() -> Self {
        Self { d_model: 4096, n_heads: 32, ffn_hidden: 11008, n_layers: 32, vocab_size: 32000 }
    }

    /// Head dimension.
    pub(crate) fn head_dim(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Weight bytes streamed per token in FP16 (all linear layers + LM
    /// head).
    pub fn weight_bytes_per_token(&self) -> u64 {
        let d = self.d_model as u64;
        let f = self.ffn_hidden as u64;
        let per_layer = 4 * d * d + 3 * d * f;
        2 * (self.n_layers as u64 * per_layer + d * self.vocab_size as u64)
    }

    /// KV cache bytes one sequence streams in **one layer** for one token
    /// at cache length `l`: read K and V at `l` entries, write the new
    /// token's K/V pair. The single source of the KV byte layout — the
    /// all-layer and chunk variants below, and the scheduler's per-layer
    /// attention costing, all derive from it.
    pub(crate) fn layer_kv_bytes(&self, l: usize) -> u64 {
        let d = self.d_model as u64;
        2 * (l as u64) * d * 2 + 2 * d * 2
    }

    /// KV cache bytes one sequence streams in **one layer** for a
    /// chunked-prefill chunk of `tokens` prompt tokens appended to a
    /// cache of `start_len` entries: each row reads the cache at its own
    /// (growing) length and writes its K/V pair, summed token-serially.
    pub(crate) fn layer_prefill_kv_bytes(&self, start_len: usize, tokens: usize) -> u64 {
        (0..tokens).map(|i| self.layer_kv_bytes(start_len + i)).sum()
    }

    /// KV cache bytes streamed per token at cache length `l` (read K and V
    /// across all layers, plus the new token's write).
    pub fn kv_bytes_per_token(&self, l: usize) -> u64 {
        self.n_layers as u64 * self.layer_kv_bytes(l)
    }

    /// KV cache bytes streamed by a chunked-prefill chunk across all
    /// layers (see `LlamaShape::layer_prefill_kv_bytes`).
    pub fn prefill_kv_bytes(&self, start_len: usize, tokens: usize) -> u64 {
        self.n_layers as u64 * self.layer_prefill_kv_bytes(start_len, tokens)
    }
}

/// Scheduler producing per-token decode cycle reports.
#[derive(Debug, Clone)]
pub struct DecodeScheduler {
    arch: ArchConfig,
    shape: LlamaShape,
    hbm: HbmConfig,
    variant: DataflowVariant,
}

impl DecodeScheduler {
    /// Creates a scheduler for `shape` on `arch` with the given dataflow
    /// variant and HBM configuration.
    ///
    /// # Panics
    ///
    /// Panics if the architecture or the HBM configuration is invalid, or
    /// the head geometry disagrees with the architecture's attention model.
    pub fn new(arch: ArchConfig, shape: LlamaShape, hbm: HbmConfig, variant: DataflowVariant) -> Self {
        arch.validate().and_then(|()| hbm.validate()).expect("valid architecture and HBM configuration");
        assert_eq!(arch.head_dim, shape.head_dim(), "architecture/model head_dim mismatch");
        assert_eq!(arch.n_heads, shape.n_heads, "architecture/model head count mismatch");
        Self { arch, shape, hbm, variant }
    }

    /// VEDA on Llama-2 7B with the paper's 256 GB/s HBM.
    pub fn veda_llama7b() -> Self {
        Self::new(
            ArchConfig::veda(),
            LlamaShape::llama2_7b(),
            HbmConfig::default(),
            DataflowVariant::FlexibleElementSerial,
        )
    }

    /// Charges a component whose `compute` cycles overlap streaming
    /// `bytes` from HBM.
    fn stream(&self, report: &mut CycleReport, name: &'static str, compute: u64, bytes: u64) {
        report.add_overlapped(name, compute, self.hbm.cost(bytes));
        report.hbm_bytes += bytes;
    }

    /// Charges a batched linear GEMV `(1,k)×(k,n)` applied to `tokens`
    /// input rows (one per decode sequence, plus every prompt token of the
    /// tick's prefill chunks): compute runs once per row, chunked on the
    /// array, but the FP16 weights stream from HBM **once** for the whole
    /// batch — the bandwidth amortization that makes batched decode pay
    /// and that chunked prefill piggybacks on.
    fn linear(&self, report: &mut CycleReport, name: &'static str, k: usize, n: usize, tokens: u64) {
        // Outer-product mapping: k temporal, n spatial (weights stream row
        // by row in (k, n) layout — sequential).
        let compute = tokens * self.arch.flexible_gemv_cycles(k, n);
        self.stream(report, name, compute, (k * n * 2) as u64);
    }

    /// Full decode step of a single sequence at cache length `l`: a
    /// one-sequence [`DecodeScheduler::mixed_batch`] with no prefill.
    pub fn decode_token(&self, l: usize) -> CycleReport {
        self.mixed_batch(&[], &[l])
    }

    /// One *mixed* tick: every decode sequence advances by one token
    /// **and** every prefilling sequence consumes its [`PrefillChunk`] of
    /// prompt tokens. Linear-layer weights stream from HBM once for the
    /// whole tick, shared across both phases (one GEMV pass per input row:
    /// one row per decode sequence, one per prompt token); attention —
    /// whose operand is each sequence's private KV cache — is charged per
    /// decode sequence at its own cache length and per prefill chunk
    /// token-serially at its growing cache lengths, as are the
    /// per-row normalizations. The LM head runs for decode rows and for
    /// chunks that complete their prompt (their logits seed the first
    /// decode step); mid-prompt chunks skip it. The report's `hbm_bytes`
    /// are the weight and KV bytes the tick streamed — the
    /// [`LlamaShape`] byte helpers' sum, less the LM head's weights on a
    /// tick that skips it.
    ///
    /// # Panics
    ///
    /// Panics if both `prefill` and `cache_lens` are empty, or if any
    /// chunk has zero tokens.
    pub fn mixed_batch(&self, prefill: &[PrefillChunk], cache_lens: &[usize]) -> CycleReport {
        assert!(!prefill.is_empty() || !cache_lens.is_empty(), "mixed tick must be non-empty");
        assert!(prefill.iter().all(|c| c.tokens > 0), "prefill chunks must consume at least one token");
        let prefill_tokens: u64 = prefill.iter().map(|c| c.tokens as u64).sum();
        let tokens = cache_lens.len() as u64 + prefill_tokens;
        let lm_rows = cache_lens.len() as u64 + prefill.iter().filter(|c| c.completes_prompt).count() as u64;
        let d = self.shape.d_model;
        let f = self.shape.ffn_hidden;
        let mut report = CycleReport::new();

        // One layer, priced once: every layer does the same work.
        self.linear(&mut report, "qkv", d, 3 * d, tokens);
        // Attention kernels + KV stream, per sequence: each sequence's
        // compute overlaps with its own cache stream.
        for &l in cache_lens {
            let compute = decode_attention_cycles(&self.arch, self.variant, l);
            self.stream(&mut report, "attention", compute, self.shape.layer_kv_bytes(l));
        }
        for chunk in prefill {
            let compute =
                chunked_prefill_attention_cycles(&self.arch, self.variant, chunk.start_len, chunk.tokens);
            let bytes = self.shape.layer_prefill_kv_bytes(chunk.start_len, chunk.tokens);
            self.stream(&mut report, "prefill_attention", compute, bytes);
        }
        self.linear(&mut report, "proj", d, d, tokens);
        self.linear(&mut report, "ffn_gate_up", d, 2 * f, tokens);
        self.linear(&mut report, "ffn_down", f, d, tokens);

        // Two layernorms/RMSnorms per input row: the O(1) drain under
        // element-serial scheduling; a blocking reduction+normalization
        // over `d` otherwise.
        let per_norm = if self.variant.element_serial() {
            self.arch.sfu.element_serial_drain_cycles()
        } else {
            self.arch.sfu.blocking_cycles(d)
        };
        report.add_exposed_sfu("norm", tokens * 2 * per_norm);
        report.repeat(self.shape.n_layers as u64);

        // No sequence needs logits this tick (all chunks are mid-prompt):
        // the LM head neither computes nor streams its weights.
        if lm_rows > 0 {
            self.linear(&mut report, "lm_head", d, self.shape.vocab_size, lm_rows);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decode throughput in tokens/second at the paper's 1 GHz clock.
    fn tokens_per_second(sched: &DecodeScheduler, l: usize) -> f64 {
        1e9 / sched.decode_token(l).total_cycles as f64
    }

    #[test]
    fn llama7b_weight_stream_is_about_13gb() {
        let s = LlamaShape::llama2_7b();
        let gb = s.weight_bytes_per_token() as f64 / 1e9;
        assert!((12.0..15.0).contains(&gb), "weight stream {gb} GB");
    }

    #[test]
    fn decode_is_memory_bound() {
        let sched = DecodeScheduler::veda_llama7b();
        let report = sched.decode_token(512);
        assert!(report.memory_boundedness() > 0.9, "boundedness {}", report.memory_boundedness());
    }

    #[test]
    fn veda_7b_throughput_matches_paper_scale() {
        // Paper: one VEDA sustains 18.6 tokens/s on Llama-2 7B with
        // 256 GB/s HBM. A bandwidth-bound model must land in that range.
        let sched = DecodeScheduler::veda_llama7b();
        let tps = tokens_per_second(&sched, 512);
        assert!((12.0..25.0).contains(&tps), "tokens/s {tps}");
    }

    #[test]
    fn throughput_drops_as_cache_grows() {
        let sched = DecodeScheduler::veda_llama7b();
        assert!(tokens_per_second(&sched, 128) > tokens_per_second(&sched, 4096));
    }

    #[test]
    fn element_serial_variant_is_fastest_end_to_end() {
        let mk =
            |v| DecodeScheduler::new(ArchConfig::veda(), LlamaShape::llama2_7b(), HbmConfig::default(), v);
        let base = mk(DataflowVariant::Baseline).decode_token(1024).total_cycles;
        let f = mk(DataflowVariant::Flexible).decode_token(1024).total_cycles;
        let fe = mk(DataflowVariant::FlexibleElementSerial).decode_token(1024).total_cycles;
        assert!(base > f && f > fe, "{base} / {f} / {fe}");
    }

    #[test]
    fn kv_bytes_grow_linearly() {
        let s = LlamaShape::llama2_7b();
        let a = s.kv_bytes_per_token(100);
        let b = s.kv_bytes_per_token(200);
        assert!(b > a && b < 2 * a + s.n_layers as u64 * s.d_model as u64 * 8);
    }

    #[test]
    #[should_panic(expected = "head_dim mismatch")]
    fn mismatched_geometry_rejected() {
        let mut arch = ArchConfig::veda();
        arch.head_dim = 64;
        DecodeScheduler::new(arch, LlamaShape::llama2_7b(), HbmConfig::default(), DataflowVariant::Baseline);
    }

    /// The component names of a report, in order.
    fn names(report: &CycleReport) -> Vec<&'static str> {
        report.components.iter().map(|c| c.0).collect()
    }

    #[test]
    fn report_components_cover_all_layers() {
        // One total per term, each covering all 32 layers: the norm term
        // is 32 layers × 2 norms × the 40-cycle element-serial drain.
        let sched = DecodeScheduler::veda_llama7b();
        let report = sched.decode_token(16);
        assert_eq!(
            names(&report),
            ["qkv", "attention", "proj", "ffn_gate_up", "ffn_down", "norm", "lm_head"]
        );
        assert_eq!(report.components.iter().find(|c| c.0 == "norm"), Some(&("norm", 32 * 2 * 40)));
        assert_eq!(report.components.iter().map(|c| c.1).sum::<u64>(), report.total_cycles);
    }

    #[test]
    fn single_sequence_batch_equals_decode_token() {
        let sched = DecodeScheduler::veda_llama7b();
        assert_eq!(sched.decode_token(512), sched.mixed_batch(&[], &[512]));
    }

    #[test]
    fn batching_amortizes_weight_streaming() {
        // One 8-sequence tick streams the weights once instead of 8 times,
        // so it is cheaper than 8 single-sequence ticks — but dearer than
        // one, and the gain is bounded: the 128-MAC array goes
        // compute-bound once the batch multiplies the GEMV work.
        let sched = DecodeScheduler::veda_llama7b();
        let lens = [512usize; 8];
        let tick = sched.mixed_batch(&[], &lens).total_cycles;
        let single = sched.decode_token(512).total_cycles;
        assert!(tick > single, "a batch tick cannot be cheaper than one sequence");
        assert!(tick < 8 * single * 9 / 10, "batching saved too little: {tick} vs 8×{single}");
        // Per-token throughput improves accordingly.
        let batched_tokens_per_second = lens.len() as f64 * 1e9 / tick as f64;
        assert!(batched_tokens_per_second > 1.2 * tokens_per_second(&sched, 512));
        // A wider array relieves the compute bound and unlocks more of the
        // bandwidth amortization.
        let mut wide_arch = ArchConfig::veda();
        wide_arch.pe_lanes *= 8;
        let wide = DecodeScheduler::new(
            wide_arch,
            LlamaShape::llama2_7b(),
            HbmConfig::default(),
            DataflowVariant::FlexibleElementSerial,
        );
        let wide_tick = wide.mixed_batch(&[], &lens).total_cycles;
        let wide_single = wide.decode_token(512).total_cycles;
        assert!(
            wide_tick < 8 * wide_single / 2,
            "wide array should amortize better: {wide_tick} vs 8×{wide_single}"
        );
    }

    #[test]
    fn mixed_length_batch_charges_each_sequence_its_own_attention() {
        let sched = DecodeScheduler::veda_llama7b();
        let short = sched.mixed_batch(&[], &[128, 128]).total_cycles;
        let mixed = sched.mixed_batch(&[], &[128, 4096]).total_cycles;
        assert!(mixed > short, "longer cache in the batch must cost more");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_batch_panics() {
        DecodeScheduler::veda_llama7b().mixed_batch(&[], &[]);
    }

    #[test]
    fn mixed_batch_with_no_prefill_has_the_decode_layout() {
        // Any number of decode sequences share one `attention` total, and a
        // tick without chunks has no `prefill_attention` term.
        let sched = DecodeScheduler::veda_llama7b();
        let decode = sched.decode_token(512);
        for lens in [vec![512], vec![128, 4096], vec![64; 8]] {
            assert_eq!(names(&sched.mixed_batch(&[], &lens)), names(&decode));
        }
        let chunk = PrefillChunk { start_len: 0, tokens: 4, completes_prompt: false };
        assert_eq!(
            names(&sched.mixed_batch(&[chunk], &[512])),
            ["qkv", "attention", "prefill_attention", "proj", "ffn_gate_up", "ffn_down", "norm", "lm_head"]
        );
    }

    #[test]
    fn hbm_bytes_are_the_shape_byte_model() {
        let sched = DecodeScheduler::veda_llama7b();
        let s = sched.shape;
        let mid = PrefillChunk { start_len: 0, tokens: 16, completes_prompt: false };
        let last = PrefillChunk { start_len: 200, tokens: 7, completes_prompt: true };
        for (chunks, lens) in
            [(vec![], vec![512]), (vec![mid], vec![128, 4096, 513]), (vec![mid, last], vec![])]
        {
            let expected = s.weight_bytes_per_token()
                + lens.iter().map(|&l| s.kv_bytes_per_token(l)).sum::<u64>()
                + chunks.iter().map(|c| s.prefill_kv_bytes(c.start_len, c.tokens)).sum::<u64>();
            assert_eq!(sched.mixed_batch(&chunks, &lens).hbm_bytes, expected, "{chunks:?} {lens:?}");
        }
        // A tick where every chunk is mid-prompt skips the LM head's weights.
        let lm_head_bytes = 2 * s.d_model as u64 * s.vocab_size as u64;
        let expected = s.weight_bytes_per_token() - lm_head_bytes + s.prefill_kv_bytes(0, 16);
        assert_eq!(sched.mixed_batch(&[mid], &[]).hbm_bytes, expected);
    }

    #[test]
    fn llama7b_cycles_are_pinned() {
        // Captured from a schedule that charged each of the 32 layers in turn.
        let sched = DecodeScheduler::veda_llama7b();
        let mid = PrefillChunk { start_len: 0, tokens: 16, completes_prompt: false };
        let last = PrefillChunk { start_len: 200, tokens: 7, completes_prompt: true };
        assert_eq!(sched.decode_token(512).total_cycles, 70_044_306);
        assert_eq!(sched.mixed_batch(&[mid], &[128, 4096, 513]).total_cycles, 978_246_304);
        assert_eq!(sched.mixed_batch(&[mid, last], &[]).total_cycles, 1_169_901_010);
        assert_eq!(sched.mixed_batch(&[mid], &[]).total_cycles, 810_475_520);
        let r = sched.mixed_batch(&[mid, last], &[64, 1000]);
        let cycles = [r.total_cycles, r.compute_cycles, r.memory_cycles, r.exposed_sfu_cycles];
        assert_eq!(cycles, [1_275_707_296, 1_274_322_944, 75_807_602, 64_000]);
        let baseline = DecodeScheduler::new(
            ArchConfig::veda(),
            LlamaShape::llama2_7b(),
            HbmConfig::default(),
            DataflowVariant::Baseline,
        );
        assert_eq!(baseline.mixed_batch(&[last], &[300]).total_cycles, 416_500_736);
    }

    #[test]
    #[should_panic(expected = "sequential_efficiency")]
    fn nan_hbm_efficiency_rejected() {
        let hbm = HbmConfig { sequential_efficiency: f64::NAN, ..HbmConfig::default() };
        DecodeScheduler::new(ArchConfig::veda(), LlamaShape::llama2_7b(), hbm, DataflowVariant::Baseline);
    }

    #[test]
    fn prefill_chunks_make_the_tick_dearer() {
        let sched = DecodeScheduler::veda_llama7b();
        let decode_only = sched.mixed_batch(&[], &[512, 512]).total_cycles;
        let chunk = PrefillChunk { start_len: 0, tokens: 64, completes_prompt: false };
        let mixed = sched.mixed_batch(&[chunk], &[512, 512]).total_cycles;
        assert!(mixed > decode_only, "a prefill chunk must add work: {mixed} vs {decode_only}");
        let bigger = PrefillChunk { start_len: 0, tokens: 256, completes_prompt: false };
        let heavier = sched.mixed_batch(&[bigger], &[512, 512]).total_cycles;
        assert!(heavier > mixed, "larger chunks cost more: {heavier} vs {mixed}");
    }

    #[test]
    fn mixed_batch_shares_one_weight_stream() {
        // A mixed tick streams the linear weights once, so it is cheaper
        // than costing prefill and decode as separate ticks. On the paper's
        // 128-MAC array the GEMVs are compute-bound, so the saving is
        // modest; a wider array exposes the full bandwidth amortization
        // (same reasoning as `batching_amortizes_weight_streaming`).
        let chunk = PrefillChunk { start_len: 0, tokens: 8, completes_prompt: false };
        let sched = DecodeScheduler::veda_llama7b();
        let mixed = sched.mixed_batch(&[chunk], &[512]).total_cycles;
        let separate = sched.mixed_batch(&[chunk], &[]).total_cycles + sched.decode_token(512).total_cycles;
        assert!(mixed < separate, "one weight stream must beat two: {mixed} vs {separate}");

        let mut wide_arch = ArchConfig::veda();
        wide_arch.pe_lanes *= 8;
        let wide = DecodeScheduler::new(
            wide_arch,
            LlamaShape::llama2_7b(),
            HbmConfig::default(),
            DataflowVariant::FlexibleElementSerial,
        );
        let mixed = wide.mixed_batch(&[chunk], &[512]).total_cycles;
        let separate = wide.mixed_batch(&[chunk], &[]).total_cycles + wide.decode_token(512).total_cycles;
        assert!(mixed < separate * 3 / 4, "wide array should amortize better: {mixed} vs {separate}");
    }

    #[test]
    fn completing_chunk_pays_the_lm_head() {
        let sched = DecodeScheduler::veda_llama7b();
        let mid = PrefillChunk { start_len: 128, tokens: 32, completes_prompt: false };
        let last = PrefillChunk { completes_prompt: true, ..mid };
        let without = sched.mixed_batch(&[mid], &[]).total_cycles;
        let with = sched.mixed_batch(&[last], &[]).total_cycles;
        assert!(with > without, "the completing chunk must charge the LM head: {with} vs {without}");
    }

    #[test]
    fn prefill_only_tick_is_valid_and_empty_mixed_tick_panics() {
        let sched = DecodeScheduler::veda_llama7b();
        let chunk = PrefillChunk { start_len: 0, tokens: 16, completes_prompt: true };
        assert!(sched.mixed_batch(&[chunk], &[]).total_cycles > 0);
        let r = std::panic::catch_unwind(|| sched.mixed_batch(&[], &[]));
        assert!(r.is_err(), "a tick with no work must panic");
    }

    #[test]
    fn prefill_kv_bytes_sum_token_serially() {
        let s = LlamaShape::llama2_7b();
        assert_eq!(s.prefill_kv_bytes(10, 0), 0);
        assert_eq!(
            s.prefill_kv_bytes(10, 3),
            s.kv_bytes_per_token(10) + s.kv_bytes_per_token(11) + s.kv_bytes_per_token(12)
        );
    }
}
