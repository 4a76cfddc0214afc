//! Scratch vs allocating forward path: one decode token through the
//! transformer with a warm cache, with and without the reusable
//! [`veda_model::ForwardScratch`] buffers — and the LM head per session
//! count: one `dot` per vocabulary row against one `lm_head_batch` over
//! `S` sequences, which streams the tied embedding once for all of them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use veda_model::weights::ModelWeights;
use veda_model::{HeadScratch, ModelConfig, TransformerModel};

fn bench_forward_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward_token");
    for &resident in &[16usize, 64, 128] {
        let cfg = ModelConfig::tiny();
        let model = TransformerModel::new(cfg.clone());
        let token = |i: usize| (i * 11 + 1) % cfg.vocab_size;

        // Warm state reused across iterations: decode-then-evict keeps the
        // cache at `resident`, so every iteration measures the same work.
        let mut state = model.new_state();
        for pos in 0..resident {
            model.forward_in(&mut state, token(pos), pos);
        }
        let mut pos = resident;
        group.bench_with_input(BenchmarkId::new("alloc", resident), &resident, |b, _| {
            b.iter(|| {
                let out = model.forward_in(&mut state, token(pos), pos);
                pos += 1;
                for layer in 0..state.n_layers() {
                    state.evict_many(layer, &[1]);
                }
                black_box(out.logits.len())
            })
        });

        let mut state = model.new_state();
        state.reserve(resident + 2, cfg.d_model);
        let mut scratch = model.new_scratch(resident + 2);
        for pos in 0..resident {
            model.forward_with_scratch(&mut state, token(pos), pos, &mut scratch);
        }
        let mut pos = resident;
        group.bench_with_input(BenchmarkId::new("scratch", resident), &resident, |b, _| {
            b.iter(|| {
                model.forward_with_scratch(&mut state, token(pos), pos, &mut scratch);
                pos += 1;
                for layer in 0..state.n_layers() {
                    state.evict_many(layer, &[1]);
                }
                black_box(scratch.logits().len())
            })
        });
    }
    group.finish();
}

/// The `small` model's LM head: `dot_per_row` is one full head computed
/// as one `dot` per vocabulary row; `batch/S` is one `lm_head_batch` over
/// `S` sequences fresh from a forward body. Divide a `batch/S` mean by `S`
/// for the cost per logits row; every row is bit-identical to the
/// reference (`crates/core/tests/head_equivalence.rs`).
fn bench_lm_head(c: &mut Criterion) {
    let cfg = ModelConfig::small();
    let model = TransformerModel::new(cfg.clone());
    let mut group = c.benchmark_group("lm_head_small");

    let weights = ModelWeights::synthetic(&cfg);
    let x = weights.embed(1);
    let mut logits = Vec::with_capacity(cfg.vocab_size);
    group.bench_function("dot_per_row", |b| {
        b.iter(|| {
            logits.clear();
            logits.extend(weights.embedding.iter_rows().map(|row| veda_tensor::ops::dot(x, row)));
            black_box(logits.len())
        })
    });

    let mut head = HeadScratch::new();
    for sessions in [1usize, 2, 4, 8] {
        let mut scratches: Vec<_> = (0..sessions)
            .map(|s| {
                let mut scratch = model.new_scratch(1);
                model.forward_body(&mut model.new_state(), (s * 11 + 1) % cfg.vocab_size, 0, &mut scratch);
                scratch
            })
            .collect();
        let mut batch: Vec<_> = scratches.iter_mut().collect();
        group.bench_with_input(BenchmarkId::new("batch", sessions), &sessions, |b, _| {
            b.iter(|| model.lm_head_batch(black_box(&mut batch), &mut head))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forward_paths, bench_lm_head);
criterion_main!(benches);
