//! Weight synthesis draws every Gaussian of a model in one stream, split
//! across cores at stream positions. This pins it bit for bit against the
//! per-matrix construction it replaced: one `standard_normal` per element,
//! matrix after matrix, each scaled and then given its structure.

use rand::rngs::StdRng as Rng;
use veda_model::weights::{LayerWeights, ModelWeights, StructureParams};
use veda_model::ModelConfig;
use veda_tensor::rng::{seeded, standard_normal, xavier_std};
use veda_tensor::Matrix;

fn noise_matrix(rng: &mut Rng, rows: usize, cols: usize, std: f32) -> Matrix {
    let data = (0..rows * cols).map(|_| standard_normal(rng) * std).collect();
    Matrix::from_vec(rows, cols, data).expect("sized buffer")
}

fn identity_plus_noise(rng: &mut Rng, n: usize, gain: f32, std: f32) -> Matrix {
    let mut m = noise_matrix(rng, n, n, std);
    for i in 0..n {
        m.row_mut(i)[i] += gain;
    }
    m
}

/// The construction as it was before the one-stream pass.
fn reference(config: &ModelConfig, sp: StructureParams) -> ModelWeights {
    let mut rng = seeded(config.seed);
    let (d, f, v) = (config.d_model, config.ffn_hidden, config.vocab_size);
    let sink_dir = {
        let mut u: Vec<f32> = (0..d).map(|_| standard_normal(&mut rng)).collect();
        let n = veda_tensor::ops::norm2(&u).max(1e-6);
        for x in &mut u {
            *x /= n;
        }
        u
    };
    let mut embedding = noise_matrix(&mut rng, v, d, 1.0 / (d as f32).sqrt());
    for t in 0..v {
        let gain = if t == 0 { sp.sink_bos } else { sp.sink_base };
        for (x, &u) in embedding.row_mut(t).iter_mut().zip(&sink_dir) {
            *x += gain * u;
        }
    }
    let layers = (0..config.n_layers)
        .map(|_| {
            let std = xavier_std(d, d);
            LayerWeights {
                wq: identity_plus_noise(&mut rng, d, sp.match_gain, std),
                wk: identity_plus_noise(&mut rng, d, sp.match_gain, std),
                wv: noise_matrix(&mut rng, d, d, std),
                wo: noise_matrix(&mut rng, d, d, std),
                w1: noise_matrix(&mut rng, d, f, xavier_std(d, f)),
                w2: noise_matrix(&mut rng, f, d, xavier_std(f, d)),
                w3: noise_matrix(&mut rng, d, f, xavier_std(d, f)),
                attn_norm: vec![1.0; d],
                ffn_norm: vec![1.0; d],
            }
        })
        .collect();
    ModelWeights { embedding, final_norm: vec![1.0; d], layers }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_bit_equal(config: &ModelConfig, sp: StructureParams) {
    let got = ModelWeights::synthetic_with(config, sp);
    let want = reference(config, sp);
    assert_eq!(got.embedding.shape(), want.embedding.shape());
    assert!(bits(got.embedding.as_slice()) == bits(want.embedding.as_slice()), "embedding");
    assert_eq!(bits(&got.final_norm), bits(&want.final_norm), "final_norm");
    assert_eq!(got.layers.len(), want.layers.len());
    for (l, (g, w)) in got.layers.iter().zip(&want.layers).enumerate() {
        let pairs = [
            ("wq", &g.wq, &w.wq),
            ("wk", &g.wk, &w.wk),
            ("wv", &g.wv, &w.wv),
            ("wo", &g.wo, &w.wo),
            ("w1", &g.w1, &w.w1),
            ("w2", &g.w2, &w.w2),
            ("w3", &g.w3, &w.w3),
        ];
        for (name, a, b) in pairs {
            assert_eq!(a.shape(), b.shape(), "layer {l} {name}");
            assert!(bits(a.as_slice()) == bits(b.as_slice()), "layer {l} {name} differs");
        }
        assert_eq!(bits(&g.attn_norm), bits(&w.attn_norm), "layer {l} attn_norm");
        assert_eq!(bits(&g.ffn_norm), bits(&w.ffn_norm), "layer {l} ffn_norm");
    }
}

#[test]
fn tiny_matches_the_per_matrix_construction() {
    assert_bit_equal(&ModelConfig::tiny(), StructureParams::default());
}

#[test]
fn the_long_context_narrow_model_matches_the_per_matrix_construction() {
    // ≈ 98 k draws: above the size at which a fill is split across cores.
    let narrow = ModelConfig {
        vocab_size: 256,
        d_model: 64,
        n_heads: 4,
        n_layers: 2,
        ffn_hidden: 128,
        max_seq_len: 4096,
        seed: 11,
        ..ModelConfig::small()
    };
    assert_bit_equal(&narrow, StructureParams::default());
}

#[test]
fn small_matches_the_per_matrix_construction() {
    assert_bit_equal(&ModelConfig::small(), StructureParams::default());
}

#[test]
fn three_layers_with_a_wider_ffn_and_explicit_structure_match() {
    let config = ModelConfig {
        vocab_size: 96,
        d_model: 48,
        n_heads: 4,
        n_layers: 3,
        ffn_hidden: 80,
        max_seq_len: 256,
        seed: 19,
        ..ModelConfig::tiny()
    };
    assert_bit_equal(&config, StructureParams::default());
    assert_bit_equal(&config, StructureParams { match_gain: 0.5, sink_base: 0.3, sink_bos: 1.5 });
}
