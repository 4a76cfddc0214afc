//! Regenerates Fig. 8 (left): perplexity vs cache size for Streaming-LLM,
//! H2O and voting-based eviction on the synthetic corpus, with voting's
//! fallback rate, votes per round and share of evictions that differ from
//! a sliding window's beside each row, and then voting with the paper's
//! own hyper-parameters (`docs/FIDELITY.md` explains the difference).
//!
//! Usage: `fig8_left [--paper]` — the default quick scale runs in seconds;
//! `--paper` scores 1000 held-out samples × 4096 tokens at caches 128–2048.

fn main() -> Result<(), String> {
    let paper = std::env::args().any(|a| a == "--paper");
    let scale = if paper { veda_bench::QualityScale::paper() } else { veda_bench::QualityScale::quick() };
    eprintln!(
        "fig8_left: {} samples x {} tokens from sample {}, cache sizes {:?}",
        scale.samples.count, scale.samples.len, scale.samples.first, scale.cache_sizes
    );
    let points = veda_bench::fig8_left(scale);
    print!("{}", veda_bench::render_quality(&points));
    let defaults = veda_bench::Substrate::default().voting_sweep(
        &[veda_eviction::VotingConfig::default()],
        scale.samples,
        scale.cache_sizes,
    )?;
    print!("\nvoting with the paper's defaults (a 1, b 0.2, R 32):\n{}", veda_bench::render_sweep(&defaults));
    Ok(())
}
