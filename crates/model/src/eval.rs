//! A transformer-based distortion metric for eviction policies. (Perplexity
//! on the synthetic corpus goes through `veda_bench::Substrate::score`.)

use crate::transformer::TransformerModel;
use veda_eviction::{CacheSimulator, PolicyKind};

/// Mean KL divergence (in nats) between the pruned-cache transformer's
/// next-token distribution and the full-cache oracle, over one generated
/// sequence — a direct measurement of how much an eviction policy distorts
/// the *actual transformer* outputs.
///
/// Two sequences of one model consume the same token stream. One policy,
/// driven through `veda_eviction::CacheSimulator`, observes the pruned
/// sequence's layer-0 attention scores, and every victim it picks is
/// evicted from all layers at once. That is not VEDA's layer-wise voting
/// engine, which the serving engine models: there each layer runs its own
/// policy on its own scores and evicts from its own cache. Moving this
/// metric onto `forward_batch`'s per-(row, layer) observer, one policy per
/// layer (the rest of ROADMAP item 1 (a)), closes the difference;
/// `docs/FIDELITY.md` lists it as a known modelling difference.
pub fn transformer_distortion(
    model_config: &crate::config::ModelConfig,
    tokens: &[usize],
    policy: PolicyKind,
    cache_budget: usize,
) -> f64 {
    let model = TransformerModel::new(model_config.clone());
    let (mut oracle, mut pruned) = (model.new_state(), model.new_state());
    let mut policy = policy.build();
    let mut sim = CacheSimulator::new(policy.as_mut(), cache_budget);
    let mut kl_sum = 0.0f64;
    let mut count = 0usize;

    for (pos, &tok) in tokens.iter().enumerate() {
        let full = model.forward_in(&mut oracle, tok, pos);
        let cut = model.forward_in(&mut pruned, tok, pos);
        if let Some(slot) = sim.step(Some(cut.scores.layer(0))) {
            pruned.evict_all_layers(slot);
        }

        // KL(full || pruned) over next-token distributions.
        let lp_full = veda_tensor::softmax::log_softmax(&full.logits);
        let lp_cut = veda_tensor::softmax::log_softmax(&cut.logits);
        let kl: f64 = lp_full
            .iter()
            .zip(&lp_cut)
            .map(|(&a, &b)| (f64::from(a).exp()) * (f64::from(a) - f64::from(b)))
            // lint:allow(float-reduction): f64 KL accumulation in vocab order; widening to f64 is the precision discipline here
            .sum();
        kl_sum += kl.max(0.0);
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        kl_sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::corpus::{Corpus, CorpusConfig};

    fn fast_corpus() -> Corpus {
        Corpus::new(CorpusConfig { vocab_size: 256, seed: 5, ..CorpusConfig::default() })
    }

    #[test]
    fn transformer_distortion_grows_as_budget_shrinks() {
        let cfg = ModelConfig::tiny();
        let corpus = fast_corpus();
        let tokens: Vec<usize> = corpus.sample(0, 48).iter().map(|&t| t % cfg.vocab_size).collect();
        let tight = transformer_distortion(&cfg, &tokens, PolicyKind::SlidingWindow, 8);
        let loose = transformer_distortion(&cfg, &tokens, PolicyKind::SlidingWindow, 40);
        assert!(tight >= loose, "tight {tight} loose {loose}");
        assert!(loose >= 0.0);
    }

    #[test]
    fn full_policy_has_zero_distortion() {
        let cfg = ModelConfig::tiny();
        let tokens = [1usize, 4, 9, 16, 25, 36, 7, 12];
        let d = transformer_distortion(&cfg, &tokens, PolicyKind::Full, 1);
        assert!(d.abs() < 1e-9, "distortion {d}");
    }

    #[test]
    fn distortion_bits_are_pinned_per_policy() {
        // Exact f64 bits on one fixed input: any change to how the two
        // sequences are driven (or to the forward pass under them) shows
        // here before it moves a benchmark row.
        let cfg = ModelConfig::tiny();
        let tokens: Vec<usize> = (0..40).map(|i| (i * 7 + 3) % cfg.vocab_size).collect();
        let bits: Vec<u64> = PolicyKind::ALL
            .iter()
            .map(|&kind| transformer_distortion(&cfg, &tokens, kind, 12).to_bits())
            .collect();
        // Full, SlidingWindow, H2o, Voting: 0.0, 0.3305574086784540,
        // 0.2669983810578250, 0.0223693736178123.
        assert_eq!(bits, [0, 4599626412808101288, 4598481435155668106, 4582104754380564156]);
    }
}
