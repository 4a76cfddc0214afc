//! Microbenchmarks of the tensor kernels that dominate the functional
//! model: the two GEMV interpretations, a chunk's grouped `q × Kᵀ`, the
//! attention step, softmax variants and FP16 conversion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use veda_eviction::ScoreView;
use veda_model::attention::attend;
use veda_model::weights::ModelWeights;
use veda_model::{BatchScratch, LayerKvCache, ModelConfig, RowRun, TransformerModel};
use veda_tensor::{ops, softmax, Matrix, OnlineSoftmax};

fn bench_gemv(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemv");
    for &l in &[128usize, 1024] {
        let d = 128;
        let mut rng = veda_tensor::rng::seeded(1);
        let m = Matrix::from_vec(l, d, veda_tensor::rng::normal_vec(&mut rng, l * d, 1.0)).unwrap();
        let q = veda_tensor::rng::normal_vec(&mut rng, d, 1.0);
        let s = veda_tensor::rng::uniform_vec(&mut rng, l, 0.0, 1.0);
        group.bench_with_input(BenchmarkId::new("inner_qk", l), &l, |b, _| {
            b.iter(|| ops::gemv_inner(black_box(&q), black_box(&m)))
        });
        group.bench_with_input(BenchmarkId::new("outer_sv", l), &l, |b, _| {
            b.iter(|| ops::gemv_outer(black_box(&s), black_box(&m)))
        });
    }
    // The FFN up-projection of `small`: a wide output, four rows per pass.
    let mut rng = veda_tensor::rng::seeded(4);
    let w = Matrix::from_vec(256, 1024, veda_tensor::rng::normal_vec(&mut rng, 256 * 1024, 1.0)).unwrap();
    let x = veda_tensor::rng::normal_vec(&mut rng, 256, 1.0);
    let mut y = Vec::new();
    group.bench_function("outer_into_256x1024", |b| {
        b.iter(|| ops::gemv_outer_into(black_box(&x), black_box(&w), &mut y))
    });
    group.finish();
}

/// `gemm_outer_into` of 1, 8 and 32 input rows over a *walk* of 16
/// distinct 256 x 1024 matrices (16 MiB, the layer weights of `small`):
/// each iteration streams every matrix once from memory, as one tick's
/// forward pass does, so sharing a weight stream across input rows shows
/// as ns per input row falling with the row count. A single hot matrix
/// would sit in L2 and hide exactly that. Printed times are per walk.
fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    let mut rng = veda_tensor::rng::seeded(6);
    let (k, n) = (256, 1024);
    let walk: Vec<Matrix> = (0..16)
        .map(|_| Matrix::from_vec(k, n, veda_tensor::rng::normal_vec(&mut rng, k * n, 1.0)).unwrap())
        .collect();
    for rows in [1usize, 8, 32] {
        let xs = veda_tensor::rng::normal_vec(&mut rng, rows * k, 1.0);
        let mut out = Vec::new();
        group.bench_function(format!("outer_{rows}x{k}x{n}"), |b| {
            b.iter(|| {
                for w in &walk {
                    ops::gemm_outer_into(black_box(&xs), rows, black_box(w), &mut out);
                }
            })
        });
    }
    group.finish();
}

/// One head's `q × Kᵀ` for the last 8 rows of a prefill chunk — row `r`
/// over the leading `l - 7 + r` keys — as 8 one-lane passes over the keys
/// and as one 8-lane pass, at the head geometries of `long_context`
/// (l 768, d_h 16), the serving workloads' tiny model (l 48, d_h 8) and
/// `small` (l 416, d_h 32). Same kernel, same outputs bit for bit; the
/// difference is what sharing the pass over `K` saves.
fn bench_qk_span(c: &mut Criterion) {
    let mut group = c.benchmark_group("qk");
    let mut rng = veda_tensor::rng::seeded(8);
    for (l, dh, heads) in [(768usize, 16usize, 4usize), (48, 8, 4), (416, 32, 8)] {
        let d = dh * heads;
        let keys = Matrix::from_vec(l, d, veda_tensor::rng::normal_vec(&mut rng, l * d, 1.0)).unwrap();
        let qs: Vec<Vec<f32>> = (0..8).map(|_| veda_tensor::rng::normal_vec(&mut rng, dh, 1.0)).collect();
        let mut outs = vec![vec![0.0f32; l]; 8];
        let mut pack = Vec::new();
        group.bench_function(format!("span_8x1lane_{l}x{dh}"), |b| {
            b.iter(|| {
                for (r, (q, out)) in qs.iter().zip(&mut outs).enumerate() {
                    let mut lane = [(black_box(&q[..]), &mut out[..l - 7 + r])];
                    ops::gemm_inner_span_into(&mut lane, black_box(&keys), dh, &mut pack);
                }
            })
        });
        group.bench_function(format!("span_8lanes_{l}x{dh}"), |b| {
            b.iter(|| {
                let mut rows = qs.iter().zip(&mut outs).enumerate();
                let mut lanes: [(&[f32], &mut [f32]); 8] = std::array::from_fn(|_| {
                    let (r, (q, out)) = rows.next().expect("8 lanes");
                    (black_box(&q[..]), &mut out[..l - 7 + r])
                });
                ops::gemm_inner_span_into(&mut lanes, black_box(&keys), dh, &mut pack);
            })
        });
    }
    group.finish();
}

/// One layer's attention step of the `long_context` geometry (d 64, H 4)
/// over 1 024 resident rows: QKV, RoPE, per-head `q × Kᵀ` → softmax →
/// `s' × V`, and `W_O`. The appended row is evicted again so every
/// iteration sees the same cache.
fn bench_attend(c: &mut Criterion) {
    let config = ModelConfig { d_model: 64, n_heads: 4, ffn_hidden: 128, ..ModelConfig::tiny() };
    let weights = ModelWeights::synthetic(&config);
    let mut rng = veda_tensor::rng::seeded(5);
    let mut cache = LayerKvCache::new();
    cache.reserve(1025, config.d_model);
    for position in 0..1023 {
        let k = veda_tensor::rng::normal_vec(&mut rng, config.d_model, 1.0);
        let v = veda_tensor::rng::normal_vec(&mut rng, config.d_model, 1.0);
        cache.append(position, &k, &v);
    }
    let x = weights.embed(1).to_vec();
    c.bench_function("attend_d64_h4_l1024", |b| {
        b.iter(|| {
            let out = attend(black_box(&x), 1023, &mut cache, &weights.layers[0], &config);
            cache.evict(1023);
            out
        })
    });
}

/// The same geometry and resident length for an 8-row prefill chunk: one
/// `forward_batch` of a one-layer model whose FFN is two units wide, so
/// the pass is the chunk's attention step (8 rows' QKV, RoPE, appends,
/// per-head `q × Kᵀ` of the group in one pass over the keys, 8 softmaxes
/// and `s' × V`s per head, `W_O`) — compare with 8 × `attend_d64_h4_l1024`.
/// The appended rows are evicted again.
fn bench_attend_chunk(c: &mut Criterion) {
    let config = ModelConfig { d_model: 64, n_heads: 4, n_layers: 1, ffn_hidden: 2, ..ModelConfig::tiny() };
    let model = TransformerModel::new(config.clone());
    let mut state = model.new_state();
    state.reserve(1024, config.d_model);
    let (mut scratch, mut rows) = (model.new_scratch(0), BatchScratch::new());
    let resident: Vec<usize> = (0..1016).map(|i| i % config.vocab_size).collect();
    let run = RowRun::new(&mut state, &resident, 0, &mut scratch, |_, _, _: ScoreView<'_>| {});
    model.forward_batch(&mut [run], &mut rows);
    let chunk = [1usize, 2, 3, 4, 5, 6, 7, 8];
    let appended: Vec<usize> = (1016..1024).collect();
    c.bench_function("attend_chunk8_d64_h4_l1024", |b| {
        b.iter(|| {
            let observe = |_, _, view: ScoreView<'_>| {
                black_box(view.as_flat());
            };
            let run = RowRun::new(&mut state, black_box(&chunk), 1016, &mut scratch, observe);
            model.forward_batch(&mut [run], &mut rows);
            state.evict_many(0, &appended);
        })
    });
}

fn bench_softmax(c: &mut Criterion) {
    let mut group = c.benchmark_group("softmax");
    let xs = veda_tensor::rng::normal_vec(&mut veda_tensor::rng::seeded(2), 4096, 1.0);
    group.bench_function("two_pass_4096", |b| b.iter(|| softmax::softmax(black_box(&xs))));
    group.bench_function("online_4096", |b| {
        b.iter(|| {
            let mut os = OnlineSoftmax::new();
            for &x in &xs {
                os.push(black_box(x));
            }
            os.exp_sum()
        })
    });
    group.finish();
}

fn bench_fp16(c: &mut Criterion) {
    let xs = veda_tensor::rng::normal_vec(&mut veda_tensor::rng::seeded(3), 4096, 10.0);
    c.bench_function("fp16_quantize_4096", |b| {
        b.iter(|| xs.iter().map(|&x| veda_tensor::fp16::quantize_f32(black_box(x))).sum::<f32>())
    });
}

criterion_group!(
    benches,
    bench_gemv,
    bench_gemm,
    bench_qk_span,
    bench_attend,
    bench_attend_chunk,
    bench_softmax,
    bench_fp16
);
criterion_main!(benches);
