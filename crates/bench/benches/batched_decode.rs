//! Batched-decode benchmarks: the engine's continuous-batching tick
//! against the same requests served one at a time, plus the scheduler's
//! batched cycle model on the paper's Llama-2 7B shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use veda::{Budget, EngineBuilder, Request};
use veda_accel::schedule::DecodeScheduler;
use veda_eviction::PolicyKind;
use veda_model::ModelConfig;

fn mixed_requests(n: usize) -> Vec<Request> {
    let policies = [PolicyKind::Voting, PolicyKind::H2o, PolicyKind::SlidingWindow];
    (0..n)
        .map(|i| {
            let prompt: Vec<usize> = (0..16 + 2 * (i % 4)).map(|j| (j * 7 + i * 13) % 60 + 1).collect();
            Request::new(prompt, 8).policy(policies[i % policies.len()]).budget(Budget::Ratio(0.5))
        })
        .collect()
}

fn bench_engine_batching(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_decode_8tok");
    group.sample_size(10);
    for &batch in &[1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("batched", batch), &batch, |b, &n| {
            b.iter(|| {
                let mut engine = EngineBuilder::new().model(ModelConfig::tiny()).build().unwrap();
                for request in mixed_requests(n) {
                    engine.submit(black_box(request)).unwrap();
                }
                engine.run_to_completion().batched_total_cycles
            })
        });
    }
    // The one-at-a-time equivalent of batch=8 for comparison: one fresh
    // engine per request.
    group.bench_function("sequential_8", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for request in mixed_requests(8) {
                let mut engine = EngineBuilder::new().model(ModelConfig::tiny()).build().unwrap();
                engine.submit(black_box(request)).unwrap();
                total += engine.run_to_completion().requests[0].report.total_cycles;
            }
            total
        })
    });
    group.finish();
}

fn bench_batched_cycle_model(c: &mut Criterion) {
    let sched = DecodeScheduler::veda_llama7b();
    let mut group = c.benchmark_group("decode_batch_llama7b_l512");
    for &batch in &[1usize, 8, 32] {
        let lens = vec![512usize; batch];
        group.bench_with_input(BenchmarkId::from_parameter(batch), &lens, |b, lens| {
            b.iter(|| sched.decode_batch(black_box(lens)).total_cycles)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_batching, bench_batched_cycle_model);
criterion_main!(benches);
