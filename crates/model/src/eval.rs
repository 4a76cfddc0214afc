//! A transformer-based distortion metric for eviction policies. (Perplexity
//! on the synthetic corpus goes through `veda_bench::Substrate::score`.)

use crate::transformer::TransformerModel;
use veda_eviction::PolicyKind;

/// Mean KL divergence (in nats) between the pruned-cache transformer's
/// next-token distribution and the full-cache oracle, over one generated
/// sequence — a direct measurement of how much an eviction policy distorts
/// the *actual transformer* outputs.
///
/// Both models consume the same token stream. The policy observes the
/// pruned model's layer-0 attention scores and evicts synchronously across
/// layers, matching VEDA's layer-wise voting engine.
pub fn transformer_distortion(
    model_config: &crate::config::ModelConfig,
    tokens: &[usize],
    policy: PolicyKind,
    cache_budget: usize,
) -> f64 {
    let mut oracle = TransformerModel::new(model_config.clone());
    let mut pruned = TransformerModel::new(model_config.clone());
    let mut p = policy.build();
    let mut kl_sum = 0.0f64;
    let mut count = 0usize;

    for (pos, &tok) in tokens.iter().enumerate() {
        let full = oracle.forward_token(tok, pos);
        let cut = pruned.forward_token(tok, pos);

        // Drive the policy with the pruned model's first-layer observation.
        p.on_append();
        p.observe(cut.scores.layer(0));
        if pruned.cache_len() > cache_budget {
            if let Some(slot) = p.select_victim(pruned.cache_len()) {
                pruned.evict_all_layers(slot);
                p.on_evict(slot);
            }
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
}
