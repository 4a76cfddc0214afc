//! `Corpus::sample` draws from a Zipf table built once per corpus and
//! carries the active topic across positions. This pins it token for token
//! against the per-call construction it replaced: a `powf` table built per
//! sample, a `sample_categorical` per unigram draw (which re-sums the table)
//! and a `topic_at` per position.

use rand::Rng;
use veda_model::{Corpus, CorpusConfig};
use veda_tensor::rng::{sample_categorical, seeded};

/// The sampling loop as it was before the tables were hoisted.
fn reference(corpus: &Corpus, index: u64, len: usize) -> Vec<usize> {
    let config = corpus.config();
    let mut rng = seeded(config.seed ^ (0x9E37_79B9 + index.wrapping_mul(0x85EB_CA6B)));
    let mut out = Vec::with_capacity(len);
    if len == 0 {
        return out;
    }
    let slice_len = corpus.global_len();
    let usable = slice_len - config.entities_per_topic.min(slice_len);
    let slice_weights: Vec<f32> =
        (0..usable).map(|i| (1.0 / ((i + 1) as f64).powf(config.zipf_exponent)) as f32).collect();
    out.push(0); // BOS
    let mut copy: Option<(usize, usize)> = None;
    let mut forced: Option<usize> = None;
    while out.len() < len {
        let pos = out.len();
        let prev = *out.last().expect("non-empty");
        let topic = corpus.topic_at(pos);
        let (start, _) = corpus.topic_slice(topic);
        let topic_start_pos = pos - (pos % config.topic_len);
        if let Some(attr) = forced.take() {
            out.push(attr);
            continue;
        }
        let in_topic_now = pos - topic_start_pos;
        let n_ent = config.entities_per_topic;
        if in_topic_now < 2 * n_ent && pos > 0 {
            let i = in_topic_now / 2;
            if in_topic_now.is_multiple_of(2) {
                out.push(corpus.entity(topic, i));
            } else {
                out.push(corpus.attribute(topic, i));
            }
            copy = None;
            continue;
        }
        if let Some((cursor, remaining)) = copy {
            if remaining > 0 && cursor < pos && cursor >= topic_start_pos {
                out.push(out[cursor]);
                copy = Some((cursor + 1, remaining - 1));
                continue;
            }
            copy = None;
        }
        let u: f64 = rng.gen();
        let in_topic = pos - topic_start_pos;
        if u < config.query_prob && n_ent > 0 {
            let i = rng.gen_range(0..n_ent);
            forced = Some(corpus.attribute(topic, i));
            out.push(corpus.entity(topic, i));
            continue;
        }
        if u < config.query_prob + config.copy_start_prob && in_topic > config.copy_len.0 + 2 {
            let lo = topic_start_pos.max(1);
            let hi = pos - 1;
            if hi > lo {
                let skew: f64 = rng.gen::<f64>();
                let src = lo + ((skew * skew) * (hi - lo) as f64) as usize;
                let span = rng.gen_range(config.copy_len.0..=config.copy_len.1);
                copy = Some((src + 1, span));
                out.push(out[src]);
                continue;
            }
        }
        if u < config.copy_start_prob + config.bigram_prob {
            out.push(corpus.successor_at(prev, pos));
        } else if rng.gen::<f64>() < config.global_frac {
            out.push(1 + sample_categorical(&mut rng, &slice_weights));
        } else {
            out.push(start + sample_categorical(&mut rng, &slice_weights));
        }
    }
    out.truncate(len);
    out
}

/// The configurations the workspace builds: the default (every quality
/// workload and experiment), and the two small ones the model's unit tests
/// and the induction equivalence suite use.
fn configs() -> [CorpusConfig; 3] {
    [
        CorpusConfig::default(),
        CorpusConfig { vocab_size: 256, seed: 5, ..CorpusConfig::default() },
        CorpusConfig { vocab_size: 256, topic_len: 64, seed: 5, ..CorpusConfig::default() },
    ]
}

/// Empty, BOS only, one drawn token, both sides of the first topic edge at
/// 512, the quality workload's length and a paper-scale length.
const LENS: [usize; 8] = [0, 1, 2, 511, 512, 513, 1536, 4096];

#[test]
fn samples_equal_the_per_call_construction() {
    for config in configs() {
        let corpus = Corpus::new(config.clone());
        for index in (0..8).chain(1000..1008) {
            for len in LENS {
                let got = corpus.sample(index, len);
                let want = reference(&corpus, index, len);
                assert_eq!(got.len(), len);
                if let Some(at) = got.iter().zip(&want).position(|(g, w)| g != w) {
                    panic!("{config:?}: sample {index} of length {len} differs at position {at}");
                }
            }
        }
    }
}

#[test]
fn unigram_weights_equal_the_per_token_powf() {
    for config in configs() {
        let corpus = Corpus::new(config.clone());
        let slice_len = corpus.global_len();
        assert_eq!(corpus.unigram_weight(0).to_bits(), 1e-9f32.to_bits());
        for token in 1..config.vocab_size {
            let rank = (token - 1) % slice_len + 1;
            let want = (1.0 / (rank as f64).powf(config.zipf_exponent) / config.n_topics as f64) as f32;
            assert_eq!(corpus.unigram_weight(token).to_bits(), want.to_bits(), "{config:?}: token {token}");
        }
    }
}
