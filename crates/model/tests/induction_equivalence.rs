//! `InductionLm::evaluate_sample` scores the cache through one head-major
//! buffer with block Gaussian draws, and skips the observe pass of a policy
//! that does not read scores. Neither may change a bit of what a sample
//! scores:
//!
//! * against the pre-change step loop, kept below as a test-local
//!   reference (one `standard_normal` per (head, entry), a `Vec<Vec<f32>>`
//!   per pass, every pass computed for every policy, and its own append →
//!   observe → evict bookkeeping in place of the offline drive):
//!   `total_nll` bits, token and eviction counts and the final resident
//!   positions, for every policy kind, budgets from 1 to beyond the sample
//!   and samples of 0 to 300 tokens;
//! * `reads_scores()` is pinned for every built-in policy, also through a
//!   double box, since the skip depends on it;
//! * a steady-state step allocates nothing: a 1 536-token sample allocates
//!   no more than a 512-token one (allocations are counted per thread, so
//!   the other tests of this binary do not perturb the count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use veda_eviction::{
    CacheSimulator, EvictionPolicy, PolicyKind, ScoreView, SlidingWindowPolicy, VotingConfig, VotingPolicy,
};
use veda_model::induction::SampleEval;
use veda_model::{Corpus, CorpusConfig, InductionConfig, InductionLm};
use veda_tensor::softmax::softmax;

/// Counts the allocations and reallocations made by the current thread.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the slot may already be gone while a thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` that never
// allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `veda_bench::CALIBRATED_VOTING` (the benchmark's voting arm).
const CALIBRATED_VOTING: VotingConfig =
    VotingConfig { a: 2.0, b: 0.0, reserved_len: 1, per_head_votes: false };

// ---------------------------------------------------------------------------
// The pre-change `InductionLm`, verbatim apart from its name and from
// handing each observation to the policy as a flat `ScoreView`.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Entry {
    position: usize,
    key_token: usize,
    /// The token that followed this position; `None` for the newest entry.
    value_token: Option<usize>,
}

/// What a sample scores: `(total_nll, tokens, evictions)`.
type Scored = (f64, usize, usize);

struct ReferenceLm {
    config: InductionConfig,
    unigram: Vec<f32>,
    salience: Vec<f32>,
    token_topic: Vec<usize>,
    topic_len: usize,
    n_topics: usize,
}

impl ReferenceLm {
    fn new(config: InductionConfig, corpus: &Corpus) -> Self {
        config.validate().expect("valid induction config");
        let v = corpus.config().vocab_size;
        let mut unigram: Vec<f32> = (0..v).map(|t| corpus.unigram_weight(t)).collect();
        let sum = veda_tensor::stats::sum(&unigram);
        for u in &mut unigram {
            *u /= sum;
        }
        let max_u = veda_tensor::stats::max_or(f32::MIN_POSITIVE, &unigram);
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

    fn head_scores(
        &self,
        entries: &[Entry],
        current_token: usize,
        current_pos: usize,
        rng: &mut rand::rngs::StdRng,
    ) -> Vec<Vec<f32>> {
        self.config
            .heads
            .iter()
            .map(|h| {
                let logits: Vec<f32> = entries
                    .iter()
                    .map(|e| {
                        let mut logit = 0.0;
                        if e.key_token == current_token {
                            logit += h.match_gain;
                        }
                        logit += h.salience_gain * self.salience[e.key_token];
                        let active_topic = (current_pos / self.topic_len) % self.n_topics;
                        let tt = self.token_topic[e.key_token];
                        if tt == usize::MAX || tt == active_topic {
                            logit += h.topic_gain;
                        }
                        let recency = (current_pos - e.position) as f32 / h.recency_tau;
                        logit -= recency.min(self.config.recency_cap);
                        if e.position == 0 {
                            logit += h.sink_gain;
                        }
                        logit + veda_tensor::rng::standard_normal(rng) * self.config.score_noise
                    })
                    .collect();
                softmax(&logits)
            })
            .collect()
    }

    fn predict_weighted_scores(&self, scores: &[Vec<f32>]) -> Vec<f32> {
        let len = scores.first().map_or(0, Vec::len);
        let mut out = vec![0.0f32; len];
        let total: f32 = self.config.heads.iter().map(|h| h.predict_weight).sum();
        for (h, head_scores) in self.config.heads.iter().zip(scores) {
            let w = h.predict_weight / total.max(1e-9);
            for (o, &s) in out.iter_mut().zip(head_scores) {
                *o += w * s;
            }
        }
        out
    }

    fn predict_prob(
        &self,
        entries: &[Entry],
        avg_scores: &[f32],
        prev_token: usize,
        target_pos: usize,
        corpus: &Corpus,
        target: usize,
    ) -> f64 {
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

    fn evaluate_sample_with_residents(
        &self,
        tokens: &[usize],
        budget: usize,
        policy: &mut dyn EvictionPolicy,
        corpus: &Corpus,
    ) -> (Scored, Vec<usize>) {
        policy.reset();
        let mut rng =
            veda_tensor::rng::seeded(self.config.noise_seed ^ (tokens.len() as u64).wrapping_mul(0x9E37));
        let mut entries: Vec<Entry> = Vec::new();
        let mut flat_scores: Vec<f32> = Vec::new();
        let (mut total_nll, mut scored, mut evictions) = (0.0f64, 0usize, 0usize);
        let mut pending: Option<(Vec<f32>, usize)> = None;

        for (pos, &tok) in tokens.iter().enumerate() {
            if let Some((avg, prev)) = pending.take() {
                debug_assert_eq!(avg.len(), entries.len());
                let p = self.predict_prob(&entries, &avg, prev, pos, corpus, tok).max(1e-12);
                total_nll += -p.ln();
                scored += 1;
            }
            if let Some(last) = entries.last_mut() {
                if last.value_token.is_none() {
                    last.value_token = Some(tok);
                }
            }
            entries.push(Entry { position: pos, key_token: tok, value_token: None });
            policy.on_append();
            let scores = self.head_scores(&entries, tok, pos, &mut rng);
            flat_scores.clear();
            flat_scores.extend(scores.iter().flatten());
            policy.observe(ScoreView::new(&flat_scores, scores.len()));

            if entries.len() > budget {
                if let Some(slot) = policy.select_victim(entries.len()) {
                    entries.remove(slot);
                    policy.on_evict(slot);
                    evictions += 1;
                }
            }

            let scores = self.head_scores(&entries, tok, pos, &mut rng);
            let avg = self.predict_weighted_scores(&scores);
            pending = Some((avg, tok));
        }
        ((total_nll, scored, evictions), entries.iter().map(|e| e.position).collect())
    }
}

// ---------------------------------------------------------------------------

/// A corpus whose topics rotate every 64 tokens, so a 300-token sample
/// crosses several and the topic term of the logits changes.
fn fast_corpus() -> Corpus {
    Corpus::new(CorpusConfig { vocab_size: 256, topic_len: 64, seed: 5, ..CorpusConfig::default() })
}

/// The policies under test at `budget`, by label. Each call builds fresh
/// ones.
fn policies(budget: usize) -> Vec<(String, Box<dyn EvictionPolicy>)> {
    let mut out: Vec<(String, Box<dyn EvictionPolicy>)> = vec![
        ("voting (calibrated)".into(), Box::new(VotingPolicy::new(CALIBRATED_VOTING))),
        ("voting (default)".into(), PolicyKind::Voting.build()),
        ("h2o".into(), PolicyKind::H2o.build()),
        ("full".into(), PolicyKind::Full.build()),
        ("sliding (sink 4)".into(), PolicyKind::SlidingWindow.build()),
    ];
    // Sink = budget evicts the entry just appended; sink > budget makes
    // `select_victim` return `None` whenever the cache is over budget.
    for sink in [budget, budget + 1] {
        out.push((format!("sliding (sink {sink})"), Box::new(SlidingWindowPolicy::new(sink))));
    }
    out
}

/// A fresh policy as the `evict_quality` benchmark builds it.
fn benchmark_arm(kind: PolicyKind) -> Box<dyn EvictionPolicy> {
    match kind {
        PolicyKind::Voting => Box::new(VotingPolicy::new(CALIBRATED_VOTING)),
        other => other.build(),
    }
}

/// `lm`'s score of `sample` and the positions resident at its end.
fn evaluate_with_residents(
    lm: &InductionLm,
    sample: &[usize],
    budget: usize,
    policy: &mut dyn EvictionPolicy,
    corpus: &Corpus,
) -> (SampleEval, Vec<usize>) {
    let mut sim = CacheSimulator::new(policy, budget);
    let eval = lm.evaluate_in(sample, &mut sim, corpus);
    (eval, sim.resident().to_vec())
}

fn assert_equivalent(config: &InductionConfig, corpus: &Corpus, lengths: &[usize], budgets: &[usize]) {
    let lm = InductionLm::new(config.clone(), corpus);
    let reference = ReferenceLm::new(config.clone(), corpus);
    for &len in lengths {
        let sample = corpus.sample(3, len);
        for &budget in budgets {
            let fresh = policies(budget).into_iter().zip(policies(budget));
            for ((label, mut policy), (_, mut twin)) in fresh {
                let (got, got_residents) =
                    evaluate_with_residents(&lm, &sample, budget, policy.as_mut(), corpus);
                let (want, want_residents) =
                    reference.evaluate_sample_with_residents(&sample, budget, twin.as_mut(), corpus);
                let case = format!("{label}, budget {budget}, {len} tokens");
                assert_eq!(got.total_nll.to_bits(), want.0.to_bits(), "{case}: total_nll");
                assert_eq!((got.tokens, got.evictions), (want.1, want.2), "{case}: tokens, evictions");
                assert_eq!(got_residents, want_residents, "{case}: final residents");
            }
        }
    }
}

#[test]
fn every_policy_scores_the_same_bits_as_the_reference_loop() {
    assert_equivalent(&InductionConfig::default(), &fast_corpus(), &[0, 1, 2, 300], &[1, 16, 128, 512]);
}

#[test]
fn a_two_head_substrate_scores_the_same_bits() {
    // A head count other than the default's three, and a noise seed of its
    // own: the block draw must follow the head-major order for any shape.
    let mut config = InductionConfig { noise_seed: 1234, ..InductionConfig::default() };
    config.heads.truncate(2);
    assert_equivalent(&config, &fast_corpus(), &[2, 300], &[1, 16, 512]);
}

#[test]
fn the_benchmark_arms_score_the_same_bits_on_the_default_substrate() {
    // `evict_quality`'s shape: the default corpus, 1 536 tokens, cache 128.
    let corpus = Corpus::new(CorpusConfig::default());
    let lm = InductionLm::new(InductionConfig::default(), &corpus);
    let reference = ReferenceLm::new(InductionConfig::default(), &corpus);
    let sample = corpus.sample(1000, 1536);
    for kind in [PolicyKind::Voting, PolicyKind::H2o, PolicyKind::SlidingWindow] {
        let (got, got_residents) =
            evaluate_with_residents(&lm, &sample, 128, benchmark_arm(kind).as_mut(), &corpus);
        let (want, want_residents) =
            reference.evaluate_sample_with_residents(&sample, 128, benchmark_arm(kind).as_mut(), &corpus);
        assert_eq!(got.total_nll.to_bits(), want.0.to_bits(), "{kind}: total_nll");
        assert_eq!((got.tokens, got.evictions), (want.1, want.2), "{kind}");
        assert_eq!(got_residents, want_residents, "{kind}");
    }
}

#[test]
fn reads_scores_is_false_only_for_score_free_policies() {
    for kind in PolicyKind::ALL {
        let expected = !matches!(kind, PolicyKind::Full | PolicyKind::SlidingWindow);
        assert_eq!(kind.build().reads_scores(), expected, "{kind}");
        let double: Box<Box<dyn EvictionPolicy>> = Box::new(kind.build());
        assert_eq!(double.reads_scores(), expected, "{kind} through Box<Box<dyn _>>");
    }
    assert!(VotingPolicy::new(CALIBRATED_VOTING).reads_scores());
}

#[test]
fn a_longer_sample_allocates_no_more_than_a_shorter_one() {
    let corpus = Corpus::new(CorpusConfig::default());
    let lm = InductionLm::new(InductionConfig::default(), &corpus);
    let (short, long) = (corpus.sample(1000, 512), corpus.sample(1000, 1536));
    let allocations = |sample: &[usize], policy: &mut dyn EvictionPolicy| {
        let before = ALLOCATIONS.with(Cell::get);
        let eval = lm.evaluate_sample(sample, 128, policy, &corpus);
        let after = ALLOCATIONS.with(Cell::get);
        assert_eq!(eval.evictions, sample.len() - 128);
        after - before
    };
    for kind in [PolicyKind::Voting, PolicyKind::H2o, PolicyKind::SlidingWindow] {
        let on_short = allocations(&short, benchmark_arm(kind).as_mut());
        let on_long = allocations(&long, benchmark_arm(kind).as_mut());
        assert!(
            on_long <= on_short,
            "{kind}: {on_long} allocations over 1 536 tokens vs {on_short} over 512"
        );
    }
}
