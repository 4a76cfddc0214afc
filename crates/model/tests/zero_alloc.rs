//! Pins the zero-allocation guarantee of the scratch decode path: once a
//! session's buffers are warm and its KV cache is pre-reserved, a
//! steady-state decode token performs **zero** heap allocations inside
//! `TransformerModel::forward_with_scratch` — and equally inside the split
//! path the engine runs, `forward_body` per sequence plus one
//! `lm_head_batch` over all of them.
//!
//! This file must stay a single-test binary: the counting `#[global_allocator]`
//! is process-wide, and a concurrently running sibling test would perturb
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use veda_model::{ForwardScratch, HeadScratch, ModelConfig, SequenceState, TransformerModel};

/// Counts every allocation and reallocation passed to the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// One sequence in steady state at a fixed resident budget.
struct Sequence {
    state: SequenceState,
    scratch: ForwardScratch,
    pos: usize,
}

const BUDGET: usize = 8;

impl Sequence {
    fn new(model: &TransformerModel) -> Self {
        let mut state = model.new_state();
        // Reserve for the cap (+1 for the append-then-evict overshoot) so
        // steady-state `push_row` never grows the backing storage.
        state.reserve(BUDGET + 1, model.config().d_model);
        Self { state, scratch: model.new_scratch(BUDGET + 1), pos: 0 }
    }

    /// One token through `forward` (which runs at least the body), then
    /// evict back down to the budget keeping the sink, as a sliding-window
    /// policy would.
    fn step(&mut self, model: &TransformerModel, forward: impl Fn(&mut Self, usize, usize)) {
        let token = (self.pos * 7 + 1) % model.config().vocab_size;
        forward(self, token, self.pos);
        self.pos += 1;
        while self.state.cache_len() > BUDGET {
            for layer in 0..self.state.n_layers() {
                self.state.evict_many(layer, &[1]);
            }
        }
    }
}

#[test]
fn steady_state_decode_performs_zero_heap_allocations() {
    let model = TransformerModel::new(ModelConfig::tiny());
    let whole = |seq: &mut Sequence, token, pos| {
        model.forward_with_scratch(&mut seq.state, token, pos, &mut seq.scratch);
    };
    let body = |seq: &mut Sequence, token, pos| {
        model.forward_body(&mut seq.state, token, pos, &mut seq.scratch);
    };

    // Warm-up: fill the caches to the budget and let every scratch buffer
    // — the batch head's included — reach its working capacity.
    let mut solo = Sequence::new(&model);
    // A scratch that grows every buffer, the RoPE table included, on first
    // use instead of being pre-sized by `for_config`.
    let mut lazy = Sequence { scratch: ForwardScratch::new(), ..Sequence::new(&model) };
    let mut batch = [Sequence::new(&model), Sequence::new(&model), Sequence::new(&model)];
    let mut head = HeadScratch::new();
    for _ in 0..BUDGET + 4 {
        solo.step(&model, whole);
        lazy.step(&model, whole);
        let [a, b, c] = &mut batch;
        for seq in [&mut *a, &mut *b, &mut *c] {
            seq.step(&model, body);
        }
        model.lm_head_batch(&mut [&mut a.scratch, &mut b.scratch, &mut c.scratch], &mut head);
    }

    // Steady state: decode must not touch the allocator at all.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..64 {
        solo.step(&model, whole);
        lazy.step(&model, whole);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state decode allocated {} time(s) over 2 x 64 tokens",
        after - before
    );
    assert_eq!(lazy.scratch.logits(), solo.scratch.logits(), "a lazily grown scratch is the same scratch");

    // The same for the split path: three bodies, one batched head, and a
    // last round in which only one of the three wants logits.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for round in 0..64 {
        let [a, b, c] = &mut batch;
        for seq in [&mut *a, &mut *b, &mut *c] {
            seq.step(&model, body);
        }
        if round < 63 {
            model.lm_head_batch(&mut [&mut a.scratch, &mut b.scratch, &mut c.scratch], &mut head);
        } else {
            model.lm_head_batch(&mut [&mut b.scratch], &mut head);
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "body + batched head allocated {} time(s) over 64 rounds", after - before);

    // And the batched head left what the whole forward pass would have:
    // `solo` and `batch[1]` saw the same tokens at the same positions.
    let [a, b, _] = &batch;
    assert_eq!(b.scratch.logits(), solo.scratch.logits());
    assert!(a.scratch.logits().is_empty(), "a body without a head must leave no logits behind");
}
