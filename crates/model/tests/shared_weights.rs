//! Every live `TransformerModel` of one `ModelConfig` reads one weight set:
//! the first build synthesizes it, later builds share it, and it dies with
//! the last model that holds it. Sharing must not change a bit of output.
//!
//! The weights are private, so sharing is observed through allocation: a
//! build that synthesizes allocates at least the config's parameter bytes,
//! a build that shares allocates almost nothing. Bytes are counted per
//! thread, so the other tests of this binary do not perturb a count, and
//! each test uses a seed no other test uses, so no test shares another's
//! weights.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Barrier;

use veda::{Engine, EngineBuilder};
use veda_model::{ModelConfig, TransformerModel};

/// Counts the bytes the current thread allocates (a reallocation counts
/// its new size).
struct CountingAllocator;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count_bytes(n: usize) {
    // `try_with`: the slot may already be gone while a thread tears down.
    let _ = BYTES.try_with(|b| b.set(b.get() + n));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` that never
// allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_bytes(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_bytes(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_bytes(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the bytes it allocated on this
/// thread.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// Bytes of one f32 weight set of `config`.
fn weight_bytes(config: &ModelConfig) -> usize {
    config.params() as usize * std::mem::size_of::<f32>()
}

const PROMPT: [usize; 4] = [1, 5, 9, 2];

fn greedy(model: &TransformerModel) -> Vec<usize> {
    model.generate_greedy(&PROMPT, 8)
}

#[test]
fn a_live_config_is_synthesized_once_and_again_after_its_last_model_drops() {
    let config = ModelConfig { seed: 101, ..ModelConfig::small() };
    let full = weight_bytes(&config);

    let (first, first_bytes) = allocated(|| TransformerModel::new(config.clone()));
    assert!(first_bytes >= full, "the first build synthesizes: {first_bytes} bytes < {full}");
    let (second, second_bytes) = allocated(|| TransformerModel::new(config.clone()));
    assert!(
        second_bytes * 100 < first_bytes,
        "a second build of a live config shares: {second_bytes} bytes vs {first_bytes}"
    );
    let reference = greedy(&first);
    assert_eq!(greedy(&second), reference);

    drop((first, second));
    let (rebuilt, rebuilt_bytes) = allocated(|| TransformerModel::new(config.clone()));
    assert!(rebuilt_bytes >= full, "a dead config synthesizes again: {rebuilt_bytes} bytes < {full}");
    assert_eq!(greedy(&rebuilt), reference, "a rebuild gives bit-identical output");
}

#[test]
fn configs_that_differ_only_in_seed_do_not_share() {
    let config = ModelConfig { seed: 102, ..ModelConfig::tiny() };
    let other = ModelConfig { seed: 103, ..config.clone() };
    let model = TransformerModel::new(config);
    let (reseeded, bytes) = allocated(|| TransformerModel::new(other.clone()));
    assert!(bytes >= weight_bytes(&other), "another seed synthesizes its own set: {bytes} bytes");
    assert_ne!(greedy(&model), greedy(&reseeded), "the seeds' weights differ");
}

#[test]
fn a_clone_shares_the_weights_and_keeps_them_alive() {
    let config = ModelConfig { seed: 104, ..ModelConfig::tiny() };
    let full = weight_bytes(&config);
    let model = TransformerModel::new(config.clone());
    let (clone, clone_bytes) = allocated(|| model.clone());
    assert!(clone_bytes * 10 < full, "a clone copies no weights: {clone_bytes} bytes vs {full}");
    let reference = greedy(&model);
    assert_eq!(greedy(&clone), reference);

    // With the original gone, the clone alone keeps the set live.
    drop(model);
    let (rebuilt, rebuilt_bytes) = allocated(|| TransformerModel::new(config.clone()));
    assert!(rebuilt_bytes * 10 < full, "the clone's set is shared: {rebuilt_bytes} bytes vs {full}");
    assert_eq!(greedy(&rebuilt), reference);
    drop(clone);
}

#[test]
fn four_threads_building_one_config_at_once_agree_bit_for_bit() {
    let config = ModelConfig { seed: 105, ..ModelConfig::tiny() };
    let start = Barrier::new(4);
    let outputs: Vec<(Vec<usize>, Vec<f32>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let model = TransformerModel::new(config.clone());
                    let logits = model.forward_in(&mut model.new_state(), 3, 0).logits;
                    (greedy(&model), logits)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("builder thread")).collect()
    });
    let alone = TransformerModel::new(config);
    let logits = alone.forward_in(&mut alone.new_state(), 3, 0).logits;
    let reference = (greedy(&alone), logits);
    for (thread, output) in outputs.iter().enumerate() {
        assert_eq!(output, &reference, "thread {thread}");
    }
}

#[test]
fn a_cluster_worth_of_engines_synthesizes_its_weights_once() {
    // A serving set-up: four shards and a spare, all `tiny`.
    let config = ModelConfig { seed: 106, ..ModelConfig::tiny() };
    let full = weight_bytes(&config);
    let build = || EngineBuilder::new().model(config.clone()).build().expect("valid engine");
    let (shards, bytes): (Vec<Engine>, Vec<usize>) = (0..4).map(|_| allocated(build)).unzip();
    let (spare, spare_bytes) = allocated(build);
    assert!(bytes.first().is_some_and(|&b| b >= full), "the first engine synthesizes: {bytes:?}");
    for (engine, &later) in bytes.iter().chain([&spare_bytes]).enumerate().skip(1) {
        let saved = bytes.first().map_or(0, |&first| first.saturating_sub(later));
        assert!(saved >= full, "engine {engine} synthesized again: {later} bytes vs {bytes:?}");
    }
    assert!(shards.iter().chain([&spare]).all(|e| e.model_config() == &config));
}
