//! An interpretable attention-based retrieval language model.
//!
//! The Fig. 8 (left) experiment needs a language model whose predictive
//! quality *depends causally on which KV entries survive eviction*, and
//! which is cheap enough to evaluate over 1000 × 4096-token samples. A
//! random-weight transformer fails the first requirement (its logits carry
//! no signal), and a trained 7B model is unavailable offline. The
//! [`InductionLm`] fills the gap:
//!
//! * it is a genuine attention model: per-head scores over the resident
//!   cache are formed from content match (induction heads), recency, and an
//!   attention sink — the same structure measured in trained LLMs;
//! * its next-token distribution mixes attention-retrieved continuations
//!   (the value of a cache entry is the token that followed it) with bigram
//!   and unigram priors, so evicting a cache entry that would have been
//!   retrieved provably hurts the NLL;
//! * eviction policies observe exactly the per-head score vectors — the same
//!   interface the transformer and the hardware voting engine use.
//!
//! Perplexity numbers are therefore on the synthetic corpus' own scale, but
//! the *ordering and spacing* of policies is produced by the same mechanisms
//! the paper describes (heavy hitters, sinks, recency, outliers).

use crate::corpus::Corpus;
use veda_eviction::{EvictionPolicy, ScoreView};
use veda_tensor::softmax::softmax_in_place;

/// One pseudo-head's score parameterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadParams {
    /// Logit bonus when a cache entry's token equals the current token.
    pub match_gain: f32,
    /// Recency timescale: logit −= min(distance / tau, recency_cap).
    pub recency_tau: f32,
    /// Logit bonus for absolute position 0 (attention sink).
    pub sink_gain: f32,
    /// Query-independent key-salience gain: frequent tokens and named
    /// entities act as heavy hitters whose keys attract attention in
    /// *every* step (the persistence-of-importance structure of
    /// Scissorhands/H2O).
    pub salience_gain: f32,
    /// Topic-affinity gain: keys belonging to the *active* topic's
    /// vocabulary (or the global slice) are more attractive than keys from
    /// past topics — attention follows the current discourse, so stale
    /// anchors fade instead of scoring forever.
    pub topic_gain: f32,
    /// Weight of this head in the *prediction* mixture (how much the
    /// model's output actually depends on what this head retrieves).
    pub predict_weight: f32,
}

/// Configuration of the retrieval LM.
#[derive(Debug, Clone, PartialEq)]
pub struct InductionConfig {
    /// Per-head score parameters (heads model the diversity of real
    /// attention: match-dominant, recency-dominant, sink-dominant).
    pub heads: Vec<HeadParams>,
    /// Cap on the recency penalty in nats: beyond ~`cap·tau` tokens the
    /// scores plateau at a noise floor instead of vanishing, as measured
    /// attention does.
    pub recency_cap: f32,
    /// Standard deviation of per-entry, per-head, per-step logit noise
    /// (attention scores fluctuate; without noise every policy becomes
    /// quasi-deterministic in age).
    pub score_noise: f32,
    /// Noise seed.
    pub noise_seed: u64,
    /// Mixture weight of the attention-retrieved continuation.
    pub attn_weight: f32,
    /// Mixture weight of the bigram prior.
    pub bigram_weight: f32,
    /// Mixture weight of the unigram prior.
    pub unigram_weight: f32,
    /// Uniform smoothing floor.
    pub floor_weight: f32,
}

impl Default for InductionConfig {
    fn default() -> Self {
        Self {
            heads: vec![
                HeadParams {
                    match_gain: 6.0,
                    recency_tau: 1.0e9,
                    sink_gain: 0.5,
                    salience_gain: 2.5,
                    topic_gain: 2.5,
                    predict_weight: 0.55,
                },
                HeadParams {
                    match_gain: 1.5,
                    recency_tau: 32.0,
                    sink_gain: 1.0,
                    salience_gain: 0.5,
                    topic_gain: 0.5,
                    predict_weight: 0.35,
                },
                HeadParams {
                    match_gain: 2.0,
                    recency_tau: 256.0,
                    sink_gain: 3.0,
                    salience_gain: 3.0,
                    topic_gain: 2.0,
                    predict_weight: 0.10,
                },
            ],
            recency_cap: 6.0,
            score_noise: 0.2,
            noise_seed: 77,
            attn_weight: 0.70,
            bigram_weight: 0.10,
            unigram_weight: 0.10,
            floor_weight: 0.10,
        }
    }
}

impl InductionConfig {
    /// Validates the configuration: at least one head; mixture weights
    /// finite, non-negative and summing to ~1; `score_noise` and
    /// `recency_cap` finite and non-negative; per head a finite, positive
    /// `recency_tau`, finite gains and a finite, non-negative
    /// `predict_weight`, not zero on every head.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.heads.is_empty() {
            return Err("at least one head required".into());
        }
        let non_negative = |name: &str, x: f32| {
            if x.is_finite() && x >= 0.0 {
                Ok(())
            } else {
                Err(format!("{name} = {x}, expected finite and >= 0"))
            }
        };
        let mixture = [
            ("attn_weight", self.attn_weight),
            ("bigram_weight", self.bigram_weight),
            ("unigram_weight", self.unigram_weight),
            ("floor_weight", self.floor_weight),
        ];
        for (name, weight) in mixture {
            non_negative(name, weight)?;
        }
        let sum = self.attn_weight + self.bigram_weight + self.unigram_weight + self.floor_weight;
        if (sum - 1.0).abs() > 1e-3 {
            return Err(format!("mixture weights sum to {sum}, expected 1"));
        }
        non_negative("score_noise", self.score_noise)?;
        non_negative("recency_cap", self.recency_cap)?;
        for (i, head) in self.heads.iter().enumerate() {
            if !(head.recency_tau.is_finite() && head.recency_tau > 0.0) {
                return Err(format!("head {i}: recency_tau = {}, expected finite and > 0", head.recency_tau));
            }
            let gains = [
                ("match_gain", head.match_gain),
                ("sink_gain", head.sink_gain),
                ("salience_gain", head.salience_gain),
                ("topic_gain", head.topic_gain),
            ];
            for (name, gain) in gains {
                if !gain.is_finite() {
                    return Err(format!("head {i}: {name} = {gain}, expected finite"));
                }
            }
            non_negative(&format!("head {i}: predict_weight"), head.predict_weight)?;
        }
        if self.heads.iter().all(|head| head.predict_weight == 0.0) {
            return Err("predict_weight is 0 on every head".into());
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct Entry {
    position: usize,
    key_token: usize,
    /// The token that followed this position; `None` for the newest entry.
    value_token: Option<usize>,
}

/// Result of evaluating one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleEval {
    /// Sum of per-token negative log-likelihoods.
    pub total_nll: f64,
    /// Number of predicted tokens.
    pub tokens: usize,
    /// Number of evictions performed.
    pub evictions: usize,
}

impl SampleEval {
    /// Perplexity `exp(mean NLL)`.
    pub fn perplexity(&self) -> f64 {
        if self.tokens == 0 {
            return f64::NAN;
        }
        (self.total_nll / self.tokens as f64).exp()
    }
}

/// The retrieval language model. Stateless across samples; each
/// [`InductionLm::evaluate_sample`] call drives a fresh pass.
#[derive(Debug, Clone)]
pub struct InductionLm {
    config: InductionConfig,
    /// Normalized unigram distribution from the corpus.
    unigram: Vec<f32>,
    /// Query-independent key salience per token type: frequent tokens and
    /// entities have persistently attractive keys (heavy hitters), in
    /// [0, 1].
    salience: Vec<f32>,
    /// Topic id of each token (usize::MAX for global/BOS tokens, which
    /// belong to every topic).
    token_topic: Vec<usize>,
    /// Topic schedule parameters (mirrored from the corpus).
    topic_len: usize,
    n_topics: usize,
}

impl InductionLm {
    /// Builds the LM against a corpus (for its unigram/bigram priors).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: InductionConfig, corpus: &Corpus) -> Self {
        config.validate().expect("valid induction config");
        let v = corpus.config().vocab_size;
        let mut unigram: Vec<f32> = (0..v).map(|t| corpus.unigram_weight(t)).collect();
        let sum = veda_tensor::stats::sum(&unigram);
        for u in &mut unigram {
            *u /= sum;
        }
        let max_u = veda_tensor::stats::max_or(f32::MIN_POSITIVE, &unigram);
        // Frequent tokens get only mild salience — their many duplicate
        // anchors are redundant; named entities get full salience.
        let mut salience: Vec<f32> = unigram.iter().map(|&u| 0.35 * (u / max_u).sqrt()).collect();
        let mut token_topic = vec![usize::MAX; v];
        for topic in 0..corpus.config().n_topics {
            let (start, len) = corpus.topic_slice(topic);
            for slot in token_topic[start..(start + len).min(v)].iter_mut() {
                *slot = topic;
            }
        }
        for (t, sal) in salience.iter_mut().enumerate() {
            if corpus.is_entity(t) {
                // Named entities are salient keys regardless of frequency —
                // but below the topic-affinity gain, so entities of *past*
                // topics fade below active-topic content.
                *sal = 0.6;
            }
        }
        Self {
            config,
            unigram,
            salience,
            token_topic,
            topic_len: corpus.config().topic_len,
            n_topics: corpus.config().n_topics,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &InductionConfig {
        &self.config
    }

    /// One scoring pass: every head's post-softmax attention from the
    /// token at `current_pos` over `entries`, head-major into `scores`
    /// (`heads × entries.len()`, the buffer reused by every pass).
    ///
    /// The noise is drawn as one block in head-then-entry order — the order
    /// of one `standard_normal` call per (head, entry) — so the scores are
    /// bit-equal to scoring each head with its own draws.
    fn score_pass(
        &self,
        entries: &[Entry],
        current_token: usize,
        current_pos: usize,
        rng: &mut rand::rngs::StdRng,
        scores: &mut Vec<f32>,
    ) {
        let n = entries.len();
        scores.resize(self.config.heads.len() * n, 0.0);
        veda_tensor::rng::fill_standard_normal(rng, scores);
        let active_topic = (current_pos / self.topic_len) % self.n_topics;
        for (h, head) in self.config.heads.iter().zip(scores.chunks_exact_mut(n.max(1))) {
            for (score, e) in head.iter_mut().zip(entries) {
                let mut logit = 0.0;
                if e.key_token == current_token {
                    logit += h.match_gain;
                }
                logit += h.salience_gain * self.salience[e.key_token];
                let tt = self.token_topic[e.key_token];
                if tt == usize::MAX || tt == active_topic {
                    logit += h.topic_gain;
                }
                let recency = (current_pos - e.position) as f32 / h.recency_tau;
                logit -= recency.min(self.config.recency_cap);
                if e.position == 0 {
                    logit += h.sink_gain;
                }
                *score = logit + *score * self.config.score_noise;
            }
            softmax_in_place(head);
        }
    }

    /// Probability of `target` (arriving at `target_pos`) under the
    /// mixture given prediction-weighted attention over the entries.
    fn predict_prob(
        &self,
        entries: &[Entry],
        avg_scores: &[f32],
        prev_token: usize,
        target_pos: usize,
        corpus: &Corpus,
        target: usize,
    ) -> f64 {
        // Attention-retrieved continuation mass on `target`.
        let mut retrieved = 0.0f64;
        let mut covered = 0.0f64;
        for (e, &s) in entries.iter().zip(avg_scores) {
            if let Some(v) = e.value_token {
                covered += f64::from(s);
                if v == target {
                    retrieved += f64::from(s);
                }
            }
        }
        let p_attn = if covered > 1e-12 { retrieved / covered } else { 0.0 };
        let p_bigram = if corpus.successor_at(prev_token, target_pos) == target {
            0.9
        } else {
            0.1 / self.unigram.len() as f64
        };
        let p_uni = f64::from(self.unigram[target]);
        let p_floor = 1.0 / self.unigram.len() as f64;
        f64::from(self.config.attn_weight) * p_attn
            + f64::from(self.config.bigram_weight) * p_bigram
            + f64::from(self.config.unigram_weight) * p_uni
            + f64::from(self.config.floor_weight) * p_floor
    }

    /// Evaluates one token sample under a cache `budget` and an eviction
    /// `policy`, returning accumulated NLL statistics.
    ///
    /// The policy is driven through the standard protocol (append →
    /// observe → evict) with per-head score observations.
    pub fn evaluate_sample(
        &self,
        tokens: &[usize],
        budget: usize,
        policy: &mut dyn EvictionPolicy,
        corpus: &Corpus,
    ) -> SampleEval {
        self.evaluate_sample_with_residents(tokens, budget, policy, corpus).0
    }

    /// Like [`InductionLm::evaluate_sample`], additionally returning the
    /// absolute positions resident at the end (diagnostics for policy
    /// behaviour analysis).
    ///
    /// Each step scores the cache twice: once for the policy to observe,
    /// then — after any eviction — once more to predict the next token.
    /// When the policy does not read scores
    /// ([`EvictionPolicy::reads_scores`]) the first pass only advances the
    /// noise stream past its draws, and the last token, which has nothing to
    /// predict, gets no second pass.
    pub fn evaluate_sample_with_residents(
        &self,
        tokens: &[usize],
        budget: usize,
        policy: &mut dyn EvictionPolicy,
        corpus: &Corpus,
    ) -> (SampleEval, Vec<usize>) {
        policy.reset();
        let mut rng =
            veda_tensor::rng::seeded(self.config.noise_seed ^ (tokens.len() as u64).wrapping_mul(0x9E37));
        let heads = &self.config.heads;
        let reads_scores = policy.reads_scores();
        // lint:allow(float-reduction): head-count-bounded sum in fixed config order, once per sample
        let total: f32 = heads.iter().map(|h| h.predict_weight).sum();
        let weights: Vec<f32> = heads.iter().map(|h| h.predict_weight / total.max(1e-9)).collect();
        let mut entries: Vec<Entry> = Vec::new();
        let mut scores: Vec<f32> = Vec::new();
        let mut weighted: Vec<f32> = Vec::new();
        let mut eval = SampleEval { total_nll: 0.0, tokens: 0, evictions: 0 };

        for (pos, &tok) in tokens.iter().enumerate() {
            // Backfill the newest entry's value: `tok` followed it.
            if let Some(last) = entries.last_mut() {
                if last.value_token.is_none() {
                    last.value_token = Some(tok);
                }
            }
            entries.push(Entry { position: pos, key_token: tok, value_token: None });
            policy.on_append();
            if reads_scores {
                self.score_pass(&entries, tok, pos, &mut rng, &mut scores);
                policy.observe(ScoreView::new(&scores, heads.len()));
            } else {
                veda_tensor::rng::skip_standard_normal(&mut rng, heads.len() * entries.len());
            }

            // Evict if over budget.
            if entries.len() > budget {
                if let Some(slot) = policy.select_victim(entries.len()) {
                    entries.remove(slot);
                    policy.on_evict(slot);
                    eval.evictions += 1;
                }
            }

            // Predict the next token from the cache as it now stands.
            let Some(&next) = tokens.get(pos + 1) else { break };
            self.score_pass(&entries, tok, pos, &mut rng, &mut scores);
            weighted.clear();
            weighted.resize(entries.len(), 0.0);
            for (&w, head) in weights.iter().zip(scores.chunks_exact(entries.len().max(1))) {
                for (o, &s) in weighted.iter_mut().zip(head) {
                    *o += w * s;
                }
            }
            let p = self.predict_prob(&entries, &weighted, tok, pos + 1, corpus, next).max(1e-12);
            eval.total_nll += -p.ln();
            eval.tokens += 1;
        }
        (eval, entries.iter().map(|e| e.position).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use veda_eviction::{FullCachePolicy, PolicyKind, SlidingWindowPolicy};

    fn small_corpus() -> Corpus {
        Corpus::new(CorpusConfig { vocab_size: 256, seed: 5, ..CorpusConfig::default() })
    }

    #[test]
    fn full_cache_beats_tiny_window() {
        let corpus = small_corpus();
        let lm = InductionLm::new(InductionConfig::default(), &corpus);
        let sample = corpus.sample(0, 512);
        let full = lm.evaluate_sample(&sample, usize::MAX / 2, &mut FullCachePolicy::new(), &corpus);
        let windowed = lm.evaluate_sample(&sample, 16, &mut SlidingWindowPolicy::new(4), &corpus);
        assert!(
            full.perplexity() < windowed.perplexity(),
            "full {} vs window {}",
            full.perplexity(),
            windowed.perplexity()
        );
    }

    #[test]
    fn perplexity_decreases_with_budget() {
        let corpus = small_corpus();
        let lm = InductionLm::new(InductionConfig::default(), &corpus);
        let sample = corpus.sample(1, 768);
        let small = lm.evaluate_sample(&sample, 32, &mut PolicyKind::Voting.build(), &corpus);
        let large = lm.evaluate_sample(&sample, 256, &mut PolicyKind::Voting.build(), &corpus);
        assert!(
            large.perplexity() <= small.perplexity() + 0.5,
            "large {} vs small {}",
            large.perplexity(),
            small.perplexity()
        );
    }

    #[test]
    fn evictions_happen_exactly_when_over_budget() {
        let corpus = small_corpus();
        let lm = InductionLm::new(InductionConfig::default(), &corpus);
        let sample = corpus.sample(2, 300);
        let eval = lm.evaluate_sample(&sample, 100, &mut PolicyKind::H2o.build(), &corpus);
        assert_eq!(eval.evictions, 200);
        assert_eq!(eval.tokens, 299);
    }

    #[test]
    fn deterministic_across_runs() {
        let corpus = small_corpus();
        let lm = InductionLm::new(InductionConfig::default(), &corpus);
        let sample = corpus.sample(3, 400);
        let a = lm.evaluate_sample(&sample, 64, &mut PolicyKind::Voting.build(), &corpus);
        let b = lm.evaluate_sample(&sample, 64, &mut PolicyKind::Voting.build(), &corpus);
        assert_eq!(a.total_nll, b.total_nll);
    }

    #[test]
    fn scores_observed_are_distributions() {
        let corpus = small_corpus();
        let lm = InductionLm::new(InductionConfig::default(), &corpus);
        let entries = [
            Entry { position: 0, key_token: 0, value_token: Some(3) },
            Entry { position: 1, key_token: 3, value_token: Some(9) },
            Entry { position: 2, key_token: 9, value_token: None },
        ];
        let mut rng = veda_tensor::rng::seeded(1);
        let mut flat = Vec::new();
        lm.score_pass(&entries, 3, 2, &mut rng, &mut flat);
        let scores = ScoreView::new(&flat, lm.config().heads.len());
        assert_eq!(scores.len(), entries.len());
        for s in scores.heads() {
            let sum: f32 = s.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
        // The match head (head 0) should put most mass on the matching key.
        let first = scores.head(0);
        assert!(first[1] > first[0] && first[1] > first[2]);
    }

    #[test]
    fn invalid_mixture_rejected() {
        let cfg = InductionConfig { attn_weight: 0.9, ..InductionConfig::default() };
        assert!(cfg.validate().is_err());
        assert!(InductionConfig::default().validate().is_ok());
    }

    /// Validates the default configuration changed by `edit`, and checks
    /// the error names `field`.
    fn rejects(field: &str, edit: impl FnOnce(&mut InductionConfig)) {
        let mut config = InductionConfig::default();
        edit(&mut config);
        let err = config.validate().expect_err(field);
        assert!(err.contains(field), "{field}: {err}");
    }

    #[test]
    fn nan_attn_weight_rejected() {
        rejects("attn_weight", |c| c.attn_weight = f32::NAN);
    }

    #[test]
    fn negative_bigram_weight_rejected_even_when_the_sum_is_one() {
        rejects("bigram_weight", |c| {
            c.attn_weight = 0.9;
            c.bigram_weight = -0.1;
        });
    }

    #[test]
    fn infinite_unigram_weight_rejected() {
        rejects("unigram_weight", |c| c.unigram_weight = f32::INFINITY);
    }

    #[test]
    fn negative_floor_weight_rejected() {
        rejects("floor_weight", |c| {
            c.attn_weight = 0.9;
            c.floor_weight = -0.1;
        });
    }

    #[test]
    fn nan_or_negative_score_noise_rejected() {
        rejects("score_noise", |c| c.score_noise = f32::NAN);
        rejects("score_noise", |c| c.score_noise = -0.2);
    }

    #[test]
    fn nan_or_negative_recency_cap_rejected() {
        rejects("recency_cap", |c| c.recency_cap = f32::NAN);
        rejects("recency_cap", |c| c.recency_cap = -1.0);
    }

    #[test]
    fn recency_tau_must_be_finite_and_positive() {
        for tau in [0.0, -32.0, f32::NAN, f32::INFINITY] {
            rejects("recency_tau", |c| c.heads[1].recency_tau = tau);
        }
    }

    #[test]
    fn non_finite_match_gain_rejected() {
        rejects("match_gain", |c| c.heads[0].match_gain = f32::NAN);
    }

    #[test]
    fn non_finite_sink_gain_rejected() {
        rejects("sink_gain", |c| c.heads[2].sink_gain = f32::INFINITY);
    }

    #[test]
    fn non_finite_salience_gain_rejected() {
        rejects("salience_gain", |c| c.heads[1].salience_gain = f32::NEG_INFINITY);
    }

    #[test]
    fn non_finite_topic_gain_rejected() {
        rejects("topic_gain", |c| c.heads[0].topic_gain = f32::NAN);
    }

    #[test]
    fn negative_predict_weight_rejected() {
        rejects("predict_weight", |c| c.heads[2].predict_weight = -0.1);
    }

    #[test]
    fn all_zero_predict_mix_rejected() {
        rejects("predict_weight", |c| c.heads.iter_mut().for_each(|h| h.predict_weight = 0.0));
        // One head carrying the whole mix is fine.
        let mut config = InductionConfig::default();
        config.heads.iter_mut().skip(1).for_each(|h| h.predict_weight = 0.0);
        assert_eq!(config.validate(), Ok(()));
    }
}
