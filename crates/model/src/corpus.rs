//! Structured synthetic token source (PG-19 substitute).
//!
//! PG-19 is book-length text: locally predictable, with long-range reuse
//! *and strong topical drift* — vocabulary that dominates one stretch goes
//! quiet in the next. KV-eviction policies differentiate on exactly these
//! axes, so the generator mixes four processes, all deterministic given the
//! seed:
//!
//! * **topics** — the stream is segmented into topics of `topic_len`
//!   tokens; each topic draws from its own contiguous vocabulary slice and
//!   has its own bigram successor table. Tokens frequent in one topic go
//!   permanently quiet when the topic changes — the non-stationarity that
//!   punishes policies which hoard stale high-scoring entries;
//! * **Zipf unigrams** (within the active slice) — some tokens are heavy
//!   hitters while their topic is live;
//! * **bigram chains** (per topic) — local predictability, so recent
//!   context matters;
//! * **segment copies** (within the current topic) — long-range reuse, so
//!   discarding mid-range context costs accuracy.
//!
//! The per-slice Zipf table depends only on the configuration, so
//! [`Corpus::new`] builds it once as a [`Categorical`]; [`Corpus::sample`]
//! carries the active topic across positions rather than dividing it out of
//! every one.

use rand::Rng;
use veda_tensor::rng::{seeded, Categorical};

/// Parameters of the synthetic corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// Vocabulary size (token 0 is reserved as BOS).
    pub vocab_size: usize,
    /// Zipf exponent of the per-topic unigram distribution (finite, > 0).
    pub zipf_exponent: f64,
    /// Upper edge of the bigram band, less `copy_start_prob`. A free step
    /// (no forced attribute, topic intro or running copy) draws `u ~ U[0, 1)`
    /// and takes the first band it falls in: a query below `query_prob`, a
    /// copy below `query_prob + copy_start_prob` where one can start, the
    /// topic's bigram chain below `copy_start_prob + bigram_prob`, else a
    /// unigram. So the chain is followed with probability
    /// `bigram_prob − query_prob` where a copy can start (0.39 at the
    /// defaults) and `copy_start_prob + bigram_prob − query_prob` where none
    /// can (0.45), not with `bigram_prob` itself.
    pub bigram_prob: f64,
    /// Width of the copy band of a free step, `[query_prob, query_prob +
    /// copy_start_prob)`: the probability of *starting* an in-topic copy
    /// where one can start (past the topic's first `copy_len.0 + 2` tokens
    /// and with an earlier source). Where none can, the band falls through
    /// to the bigram chain.
    pub copy_start_prob: f64,
    /// Copy segment length range (inclusive).
    pub copy_len: (usize, usize),
    /// Tokens per topic before the vocabulary slice rotates.
    pub topic_len: usize,
    /// Number of vocabulary slices the topics cycle through.
    pub n_topics: usize,
    /// Probability that a unigram draw comes from the *global* slice —
    /// function-word-like tokens shared by all topics, whose bigram
    /// successors are topic-independent (they never go stale).
    pub global_frac: f64,
    /// Entities per topic: rare "named" tokens introduced with their
    /// attribute at the topic opening and queried throughout the topic.
    /// A query emits the entity token and the true continuation is its
    /// attribute — recoverable only from a resident anchor of an earlier
    /// occurrence (the long-range retrieval that recency windows lose).
    pub entities_per_topic: usize,
    /// Per-step probability of an entity query (outside intros/copies): the
    /// band `[0, query_prob)` of a free step's draw, taken before the copy
    /// and bigram bands.
    pub query_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            vocab_size: 4096,
            zipf_exponent: 1.05,
            bigram_prob: 0.45,
            copy_start_prob: 0.06,
            copy_len: (12, 64),
            topic_len: 512,
            n_topics: 8,
            global_frac: 0.4,
            entities_per_topic: 16,
            query_prob: 0.06,
            seed: 19,
        }
    }
}

impl CorpusConfig {
    /// Checks that [`Corpus::sample`] can draw from this configuration;
    /// the error names the offending field.
    ///
    /// # Errors
    ///
    /// Fails if `n_topics` or `topic_len` is zero, the vocabulary holds
    /// fewer than four tokens per topic, the copy range is inverted, no
    /// slice rank is left outside the `entities_per_topic` entity ranks,
    /// `zipf_exponent` is not finite and > 0, or a probability is not
    /// finite and in `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_topics == 0 {
            return Err("topics must be non-degenerate: n_topics = 0, expected > 0".into());
        }
        if self.topic_len == 0 {
            return Err("topics must be non-degenerate: topic_len = 0, expected > 0".into());
        }
        let min_vocab = self.n_topics.saturating_mul(4);
        if self.vocab_size < min_vocab {
            return Err(format!(
                "vocabulary too small for topic count: vocab_size = {}, expected >= 4 * n_topics = {min_vocab}",
                self.vocab_size
            ));
        }
        if self.copy_len.0 > self.copy_len.1 {
            return Err(format!("inverted copy length range: copy_len = {:?}", self.copy_len));
        }
        let slice_len = Corpus::slice_len(self);
        if self.entities_per_topic >= slice_len {
            return Err(format!(
                "entities_per_topic = {}, expected below the slice length {slice_len} so that some rank is drawable",
                self.entities_per_topic
            ));
        }
        if !(self.zipf_exponent.is_finite() && self.zipf_exponent > 0.0) {
            return Err(format!("zipf_exponent = {}, expected finite and > 0", self.zipf_exponent));
        }
        let probabilities = [
            ("bigram_prob", self.bigram_prob),
            ("copy_start_prob", self.copy_start_prob),
            ("global_frac", self.global_frac),
            ("query_prob", self.query_prob),
        ];
        for (name, p) in probabilities {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p}, expected finite and in [0, 1]"));
            }
        }
        Ok(())
    }
}

/// A deterministic structured token source.
///
/// ```
/// use veda_model::{Corpus, CorpusConfig};
/// let corpus = Corpus::new(CorpusConfig::default());
/// let a = corpus.sample(0, 128);
/// let b = corpus.sample(0, 128);
/// assert_eq!(a, b); // same sample index => same stream
/// assert!(a.iter().all(|&t| t < 4096));
/// ```
#[derive(Debug, Clone)]
pub struct Corpus {
    config: CorpusConfig,
    /// Stationary unigram weight of each token: its Zipf mass within its
    /// own slice, divided by the topic count (used for salience and the
    /// unigram prior).
    unigram: Vec<f32>,
    /// Zipf weights of the drawable slice ranks (the ranks below the
    /// entities), shared by the global slice and every topic's slice.
    slice: Categorical,
}

impl Corpus {
    /// Builds the corpus distributions for `config`.
    ///
    /// # Panics
    ///
    /// Panics with [`CorpusConfig::validate`]'s message if `config` is
    /// invalid.
    pub fn new(config: CorpusConfig) -> Self {
        match Self::build(config) {
            Ok(corpus) => corpus,
            Err(err) => panic!("{err}"),
        }
    }

    fn build(config: CorpusConfig) -> Result<Self, String> {
        config.validate()?;
        // One `powf` per slice rank; token `t >= 1` has rank
        // `(t - 1) % slice_len + 1`, so cycling the ranks fills the vocabulary.
        let rank_mass: Vec<f64> = (1..=Self::slice_len(&config))
            .map(|rank| 1.0 / (rank as f64).powf(config.zipf_exponent))
            .collect();
        let mut unigram = vec![1e-9f32; config.vocab_size];
        for (u, &mass) in unigram.iter_mut().skip(1).zip(rank_mass.iter().cycle()) {
            *u = (mass / config.n_topics as f64) as f32;
        }
        let drawable = rank_mass.len() - config.entities_per_topic;
        let slice = Categorical::new(rank_mass.iter().take(drawable).map(|&mass| mass as f32).collect())
            .map_err(|err| format!("Zipf slice table: {err}"))?;
        Ok(Self { config, unigram, slice })
    }

    fn slice_len(config: &CorpusConfig) -> usize {
        // One extra slice for the global (topic-independent) vocabulary.
        (config.vocab_size - 1) / (config.n_topics + 1)
    }

    /// 1-based Zipf rank of a token within its slice (global or topical).
    fn slice_rank(config: &CorpusConfig, token: usize) -> usize {
        ((token - 1) % Self::slice_len(config)) + 1
    }

    /// Number of global (topic-independent) tokens; globals are tokens
    /// `1..=global_len`.
    pub fn global_len(&self) -> usize {
        Self::slice_len(&self.config)
    }

    /// Whether a token belongs to the global slice.
    pub fn is_global(&self, token: usize) -> bool {
        (1..=self.global_len()).contains(&token)
    }

    /// Whether a token is one of its topic's entity tokens (the rarest
    /// slice ranks are reserved for entities; they never appear in unigram
    /// or bigram draws).
    pub fn is_entity(&self, token: usize) -> bool {
        if token == 0 || self.is_global(token) {
            return false;
        }
        let len = Self::slice_len(&self.config);
        let rank = Self::slice_rank(&self.config, token); // 1-based
        rank > len - self.config.entities_per_topic
    }

    /// The `i`-th entity token of a topic.
    ///
    /// # Panics
    ///
    /// Panics if `i >= entities_per_topic`.
    pub fn entity(&self, topic: usize, i: usize) -> usize {
        assert!(i < self.config.entities_per_topic, "entity index out of range");
        let (start, len) = self.topic_slice(topic);
        start + len - 1 - i
    }

    /// The attribute token of an entity in its topic: a deterministic
    /// non-entity, non-global token of the topic slice. Queries of the
    /// entity are always followed by this attribute.
    pub fn attribute(&self, topic: usize, entity_index: usize) -> usize {
        let (start, len) = self.topic_slice(topic);
        let usable = len - self.config.entities_per_topic;
        start + (entity_index.wrapping_mul(0x9E3779B9).wrapping_add(topic.wrapping_mul(0x85EBCA6B)) % usable)
    }

    /// The configuration.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// The topic active at a stream position.
    pub fn topic_at(&self, position: usize) -> usize {
        (position / self.config.topic_len) % self.config.n_topics
    }

    /// The vocabulary slice (start, length) of a topic (after the global
    /// slice).
    pub fn topic_slice(&self, topic: usize) -> (usize, usize) {
        let len = Self::slice_len(&self.config);
        (1 + len + (topic % self.config.n_topics) * len, len)
    }

    /// The bigram successor of `token` under the topic active at
    /// `position`. Global tokens have topic-independent successors into
    /// the global slice (stable n-grams); topical tokens continue within
    /// their topic's slice (topical drift).
    pub fn successor_at(&self, token: usize, position: usize) -> usize {
        self.successor_in(token, self.topic_at(position))
    }

    /// [`Corpus::successor_at`] with the topic already known.
    fn successor_in(&self, token: usize, topic: usize) -> usize {
        if self.is_global(token) {
            return 1 + (token.wrapping_mul(2654435761) % self.global_len());
        }
        let (start, len) = self.topic_slice(topic);
        let usable = len - self.config.entities_per_topic;
        start + (token.wrapping_mul(2654435761).wrapping_add(topic.wrapping_mul(40503)) % usable)
    }

    /// Stationary unigram weight of a token (Zipf mass within its slice,
    /// averaged over topics).
    pub fn unigram_weight(&self, token: usize) -> f32 {
        self.unigram[token]
    }

    /// Generates sample `index` of length `len`, starting with BOS.
    pub fn sample(&self, index: u64, len: usize) -> Vec<usize> {
        let mut rng = seeded(self.config.seed ^ (0x9E37_79B9 + index.wrapping_mul(0x85EB_CA6B)));
        let mut out = Vec::with_capacity(len);
        if len == 0 {
            return out;
        }
        let c = &self.config;
        let n_ent = c.entities_per_topic;
        let slice_len = Self::slice_len(c);
        out.push(0); // BOS
        let mut prev = 0;
        // The active topic, the position it opened at and its slice's first
        // token, advanced at each `topic_len` boundary.
        let (mut topic, mut topic_start_pos, mut start) = (0, 0, 1 + slice_len);
        let mut copy: Option<(usize, usize)> = None; // (source cursor, remaining)
        let mut forced: Option<usize> = None; // pending attribute after a query
        for pos in 1..len {
            if pos - topic_start_pos == c.topic_len {
                topic = if topic + 1 == c.n_topics { 0 } else { topic + 1 };
                topic_start_pos = pos;
                start = 1 + slice_len + topic * slice_len;
            }
            let in_topic = pos - topic_start_pos;
            let token = 'next: {
                // A query's attribute always follows its entity.
                if let Some(attr) = forced.take() {
                    break 'next attr;
                }
                // Topic intro: introduce each entity with its attribute.
                if in_topic < 2 * n_ent {
                    copy = None;
                    let i = in_topic / 2;
                    break 'next if in_topic.is_multiple_of(2) {
                        self.entity(topic, i)
                    } else {
                        self.attribute(topic, i)
                    };
                }
                // Continue an active copy first (but never across a topic edge).
                if let Some((cursor, remaining)) = copy.take() {
                    if remaining > 0 && cursor < pos && cursor >= topic_start_pos {
                        copy = Some((cursor + 1, remaining - 1));
                        break 'next out[cursor];
                    }
                }
                let u: f64 = rng.gen();
                if u < c.query_prob && n_ent > 0 {
                    // Entity query: the entity token, then (next step) its
                    // attribute.
                    let i = rng.gen_range(0..n_ent);
                    forced = Some(self.attribute(topic, i));
                    break 'next self.entity(topic, i);
                }
                if u < c.query_prob + c.copy_start_prob && in_topic > c.copy_len.0 + 2 {
                    // Start copying an earlier segment of this topic. Sources
                    // are skewed toward the topic opening (documents introduce
                    // entities early and reference them throughout), so useful
                    // anchors concentrate beyond any fixed recency window.
                    let lo = topic_start_pos.max(1);
                    let hi = pos - 1;
                    if hi > lo {
                        let skew: f64 = rng.gen::<f64>();
                        let src = lo + ((skew * skew) * (hi - lo) as f64) as usize;
                        let span = rng.gen_range(c.copy_len.0..=c.copy_len.1);
                        copy = Some((src + 1, span));
                        break 'next out[src];
                    }
                }
                if u < c.copy_start_prob + c.bigram_prob {
                    self.successor_in(prev, topic)
                } else if rng.gen::<f64>() < c.global_frac {
                    1 + self.slice.sample(&mut rng)
                } else {
                    start + self.slice.sample(&mut rng)
                }
            };
            out.push(token);
            prev = token;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_deterministic_per_index() {
        let c = Corpus::new(CorpusConfig::default());
        assert_eq!(c.sample(3, 256), c.sample(3, 256));
        assert_ne!(c.sample(3, 256), c.sample(4, 256));
    }

    #[test]
    fn starts_with_bos_and_stays_in_vocab() {
        let c = Corpus::new(CorpusConfig::default());
        let s = c.sample(0, 512);
        assert_eq!(s[0], 0);
        assert!(s.iter().all(|&t| t < c.config().vocab_size));
    }

    #[test]
    fn tokens_stay_in_topic_or_global_slice() {
        let c = Corpus::new(CorpusConfig::default());
        let s = c.sample(1, 2048);
        for (pos, &t) in s.iter().enumerate().skip(1) {
            let (start, len) = c.topic_slice(c.topic_at(pos));
            assert!(
                c.is_global(t) || (start..start + len).contains(&t),
                "token {t} at pos {pos} outside topic slice [{start}, {}) and not global",
                start + len
            );
        }
    }

    #[test]
    fn global_tokens_have_stable_successors() {
        let c = Corpus::new(CorpusConfig::default());
        let g = 5; // a global token
        assert!(c.is_global(g));
        assert_eq!(c.successor_at(g, 100), c.successor_at(g, 5000));
        assert!(c.is_global(c.successor_at(g, 100)));
    }

    #[test]
    fn topics_rotate_with_position() {
        let c = Corpus::new(CorpusConfig::default());
        assert_eq!(c.topic_at(0), 0);
        assert_eq!(c.topic_at(511), 0);
        assert_eq!(c.topic_at(512), 1);
        assert_eq!(c.topic_at(512 * 8), 0); // cycles
    }

    #[test]
    fn successors_differ_across_topics() {
        let c = Corpus::new(CorpusConfig::default());
        // A *topical* token: globals have stable successors by design.
        let (start, _) = c.topic_slice(0);
        let token = start + 5;
        assert!(!c.is_global(token));
        let a = c.successor_at(token, 100); // topic 0
        let b = c.successor_at(token, 700); // topic 1
        assert_ne!(a, b, "topical drift requires per-topic successors");
        // Global tokens keep stable successors.
        assert_eq!(c.successor_at(3, 100), c.successor_at(3, 700));
    }

    #[test]
    fn unigram_distribution_is_skewed_within_slice() {
        let c = Corpus::new(CorpusConfig::default());
        // Slice-rank 1 vs a deep rank within the same slice.
        assert!(c.unigram_weight(1) > 10.0 * c.unigram_weight(400));
    }

    #[test]
    fn bigram_chain_is_followed_often() {
        let c = Corpus::new(CorpusConfig::default());
        let s = c.sample(2, 4096);
        let follows = s.windows(2).enumerate().filter(|(i, w)| c.successor_at(w[0], i + 1) == w[1]).count();
        let frac = follows as f64 / (s.len() - 1) as f64;
        // Intros, queries and copies dilute the raw bigram share; the chain
        // must still be a visible fraction of transitions.
        assert!(frac > 0.15, "bigram fraction {frac}");
    }

    #[test]
    fn copies_produce_repeated_segments() {
        let c = Corpus::new(CorpusConfig::default());
        let s = c.sample(5, 2048);
        let mut seen = std::collections::BTreeMap::new();
        for w in s.windows(8) {
            *seen.entry(w.to_vec()).or_insert(0usize) += 1;
        }
        let repeats = seen.values().filter(|&&v| v > 1).count();
        assert!(repeats > 10, "repeated 8-grams: {repeats}");
    }

    #[test]
    fn zero_length_sample_is_empty() {
        let c = Corpus::new(CorpusConfig::default());
        assert!(c.sample(0, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "vocabulary too small")]
    fn tiny_vocab_rejected() {
        Corpus::new(CorpusConfig { vocab_size: 16, ..CorpusConfig::default() });
    }

    /// Validates the default configuration changed by `edit`, and checks
    /// the error names `field`.
    fn rejects(field: &str, edit: impl FnOnce(&mut CorpusConfig)) {
        let mut config = CorpusConfig::default();
        edit(&mut config);
        let err = config.validate().expect_err(field);
        assert!(err.contains(field), "{field}: {err}");
    }

    #[test]
    fn default_and_test_configs_are_valid() {
        assert_eq!(CorpusConfig::default().validate(), Ok(()));
        for topic_len in [512, 64] {
            let config = CorpusConfig { vocab_size: 256, topic_len, seed: 5, ..CorpusConfig::default() };
            assert_eq!(config.validate(), Ok(()));
        }
    }

    #[test]
    fn vocab_size_below_four_per_topic_rejected() {
        rejects("vocab_size", |c| c.vocab_size = 4 * c.n_topics - 1);
    }

    #[test]
    fn zero_topic_len_or_n_topics_rejected() {
        rejects("topic_len", |c| c.topic_len = 0);
        rejects("n_topics", |c| c.n_topics = 0);
    }

    #[test]
    fn inverted_copy_len_rejected() {
        rejects("copy_len", |c| c.copy_len = (64, 12));
    }

    #[test]
    #[should_panic(expected = "entities_per_topic = 16, expected below the slice length 15")]
    fn entities_filling_the_slice_rejected_at_construction() {
        // 63 / 4 = 15 ranks per slice, all of them entities: no drawable rank.
        Corpus::new(CorpusConfig {
            vocab_size: 64,
            n_topics: 3,
            entities_per_topic: 16,
            ..CorpusConfig::default()
        });
    }

    #[test]
    fn entities_per_topic_must_leave_a_drawable_rank() {
        rejects("entities_per_topic", |c| c.entities_per_topic = 455);
        let mut config = CorpusConfig { entities_per_topic: 454, ..CorpusConfig::default() };
        assert_eq!(config.validate(), Ok(()));
        config.entities_per_topic = 0;
        assert_eq!(config.validate(), Ok(()));
    }

    #[test]
    fn zipf_exponent_must_be_finite_and_positive() {
        for s in [f64::NAN, f64::INFINITY, 0.0, -1.05] {
            rejects("zipf_exponent", |c| c.zipf_exponent = s);
        }
    }

    #[test]
    fn bigram_prob_must_be_a_probability() {
        for p in [f64::NAN, -0.1, 1.5] {
            rejects("bigram_prob", |c| c.bigram_prob = p);
        }
    }

    #[test]
    fn copy_start_prob_must_be_a_probability() {
        for p in [f64::NAN, -0.1, f64::INFINITY] {
            rejects("copy_start_prob", |c| c.copy_start_prob = p);
        }
    }

    #[test]
    fn global_frac_must_be_a_probability() {
        for p in [f64::NAN, -0.1, 1.5] {
            rejects("global_frac", |c| c.global_frac = p);
        }
    }

    #[test]
    fn query_prob_must_be_a_probability() {
        for p in [f64::NAN, f64::NEG_INFINITY, 1.5] {
            rejects("query_prob", |c| c.query_prob = p);
        }
    }
}
