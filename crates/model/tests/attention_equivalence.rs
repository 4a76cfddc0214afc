//! Pins `attention::attend` — RoPE from the step's table, `q × Kᵀ` through
//! the row-tiled span kernel, `s' × V` through the register-tiled one and
//! the row-blocked projections — bit for bit against a reference written
//! with `dot`, `axpy`, `softmax_in_place` and `apply_rope` only: one call
//! per row, per head, in the order the kernels promise to keep.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use veda_model::attention::attend;
use veda_model::rope::apply_rope;
use veda_model::weights::{LayerWeights, ModelWeights};
use veda_model::{LayerKvCache, ModelConfig};
use veda_tensor::ops::{axpy, dot};
use veda_tensor::rng::{normal_vec, seeded};
use veda_tensor::softmax::softmax_in_place;
use veda_tensor::Matrix;

/// Head widths on both sides of every column tile of the `s' × V` kernel.
const HEAD_DIMS: [usize; 7] = [2, 6, 8, 10, 16, 24, 32];

fn config(head_dim: usize, n_heads: usize) -> ModelConfig {
    ModelConfig {
        vocab_size: 32,
        d_model: head_dim * n_heads,
        n_heads,
        n_layers: 1,
        ffn_hidden: 8,
        seed: (head_dim * 10 + n_heads) as u64,
        ..ModelConfig::tiny()
    }
}

/// `x × m` as one `axpy` per matrix row into zeros.
fn project(x: &[f32], m: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0; m.cols()];
    for (&xi, row) in x.iter().zip(m.iter_rows()) {
        axpy(xi, row, &mut out);
    }
    out
}

/// One attention step the slow way; returns the `W_O` output and the
/// per-head post-softmax scores.
fn reference_attend(
    x: &[f32],
    position: usize,
    cache: &mut LayerKvCache,
    w: &LayerWeights,
    cfg: &ModelConfig,
) -> (Vec<f32>, Vec<Vec<f32>>) {
    let dh = cfg.head_dim();
    let (mut q, mut k, v) = (project(x, &w.wq), project(x, &w.wk), project(x, &w.wv));
    for head in q.chunks_exact_mut(dh).chain(k.chunks_exact_mut(dh)) {
        apply_rope(head, position, cfg.rope_theta);
    }
    cache.append(position, &k, &v);
    let scale = 1.0 / (dh as f32).sqrt();
    let mut concat = vec![0.0; cfg.d_model];
    let mut head_scores = Vec::new();
    for (h, out) in concat.chunks_exact_mut(dh).enumerate() {
        let span = h * dh..(h + 1) * dh;
        let mut scores: Vec<f32> =
            cache.keys().iter_rows().map(|row| dot(&q[span.clone()], &row[span.clone()]) * scale).collect();
        softmax_in_place(&mut scores);
        for (&s, row) in scores.iter().zip(cache.values().iter_rows()) {
            axpy(s, &row[span.clone()], out);
        }
        head_scores.push(scores);
    }
    (project(&concat, &w.wo), head_scores)
}

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{what}: element {i} is {got:?}, reference {want:?}"
        );
    }
}

/// Two caches kept in lock-step, one driven by `attend`, one by the
/// reference.
struct Pair<'a> {
    cfg: &'a ModelConfig,
    weights: &'a ModelWeights,
    kernel: LayerKvCache,
    reference: LayerKvCache,
    position: usize,
}

impl<'a> Pair<'a> {
    fn new(cfg: &'a ModelConfig, weights: &'a ModelWeights) -> Self {
        Self { cfg, weights, kernel: LayerKvCache::new(), reference: LayerKvCache::new(), position: 0 }
    }

    /// One step of both sides on `x`, compared bit for bit.
    fn step(&mut self, x: &[f32]) {
        let w = &self.weights.layers[0];
        let got = attend(x, self.position, &mut self.kernel, w, self.cfg);
        let (output, head_scores) = reference_attend(x, self.position, &mut self.reference, w, self.cfg);
        let what = format!(
            "head_dim {} x {} heads, {} resident rows",
            self.cfg.head_dim(),
            self.cfg.n_heads,
            self.kernel.len()
        );
        assert_same_bits(&got.output, &output, &format!("output, {what}"));
        assert_eq!(got.head_scores.len(), head_scores.len());
        for (h, (got, want)) in got.head_scores.iter().zip(&head_scores).enumerate() {
            assert_same_bits(got, want, &format!("head {h} scores, {what}"));
        }
        assert_same_bits(self.kernel.keys().as_slice(), self.reference.keys().as_slice(), "cached keys");
        assert_same_bits(
            self.kernel.values().as_slice(),
            self.reference.values().as_slice(),
            "cached values",
        );
        self.position += 1;
    }

    fn evict_many(&mut self, sorted_slots: &[usize]) {
        self.kernel.evict_many(sorted_slots);
        self.reference.evict_many(sorted_slots);
    }
}

proptest! {
    #[test]
    fn attend_is_bit_identical_to_the_reference_across_evictions(
        head_dim in 0usize..HEAD_DIMS.len(),
        n_heads in 1usize..4,
        steps in 1usize..15,
        seed in 0u64..1000,
    ) {
        // Resident lengths 1..=14 cross every remainder of the 4-row score
        // tile; single and bulk evictions leave compacted rows behind.
        let cfg = config(HEAD_DIMS[head_dim], n_heads);
        let weights = ModelWeights::synthetic(&cfg);
        let mut rng: StdRng = seeded(seed);
        let mut pair = Pair::new(&cfg, &weights);
        for _ in 0..steps {
            pair.step(weights.embed(rng.gen_range(0..cfg.vocab_size)));
            let len = pair.kernel.len();
            match rng.gen_range(0..4u32) {
                0 if len > 1 => {
                    let slot = rng.gen_range(0..len);
                    pair.kernel.evict(slot);
                    pair.reference.evict(slot);
                }
                1 if len > 2 => {
                    let first = rng.gen_range(0..len - 1);
                    pair.evict_many(&[first, rng.gen_range(first + 1..len)]);
                }
                _ => {}
            }
        }
    }
}

#[test]
fn attend_is_bit_identical_on_special_values() {
    // Hidden states holding ±0.0 / NaN / ±∞ poison whole rows of q, k and
    // v; the kernels must propagate them exactly as per-row `dot`/`axpy`
    // do (NaN compared as NaN).
    let cfg = config(16, 2);
    let weights = ModelWeights::synthetic(&cfg);
    let mut pair = Pair::new(&cfg, &weights);
    let mut rng = seeded(5);
    for special in [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.5] {
        let mut x = normal_vec(&mut rng, cfg.d_model, 1.0);
        x[3] = special;
        x[17] = -special;
        pair.step(&x);
        pair.step(&vec![special; cfg.d_model]);
        pair.step(weights.embed(7));
    }
}

#[test]
fn attend_is_bit_identical_over_a_long_stream_and_a_seeded_prefix() {
    for (head_dim, n_heads) in [(16, 4), (8, 4), (32, 2), (10, 3)] {
        let cfg = config(head_dim, n_heads);
        let weights = ModelWeights::synthetic(&cfg);
        let mut rng = seeded(head_dim as u64);
        let mut pair = Pair::new(&cfg, &weights);
        // 1 001 resident rows without paying 1 001 reference steps.
        for position in 0..1001 {
            let (k, v) = (normal_vec(&mut rng, cfg.d_model, 1.0), normal_vec(&mut rng, cfg.d_model, 1.0));
            pair.kernel.append(position, &k, &v);
            pair.reference.append(position, &k, &v);
        }
        pair.position = 1001;
        for _ in 0..3 {
            pair.step(weights.embed(rng.gen_range(0..cfg.vocab_size)));
        }
        pair.evict_many(&[0, 5, 500, 1003]);
        pair.step(weights.embed(3));

        // A cache seeded from a donor's first rows (the prefix cache's
        // shared span), then grown and evicted inside the span.
        let mut seeded_pair = Pair::new(&cfg, &weights);
        seeded_pair.kernel.seed_from(&pair.kernel, 13);
        seeded_pair.reference.seed_from(&pair.reference, 13);
        seeded_pair.position = 2000;
        assert_eq!(seeded_pair.kernel.shared_len(), 13);
        for _ in 0..3 {
            seeded_pair.step(weights.embed(rng.gen_range(0..cfg.vocab_size)));
        }
        seeded_pair.evict_many(&[2, 14]);
        seeded_pair.step(weights.embed(1));
    }
}
