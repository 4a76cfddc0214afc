//! Pins the zero-allocation guarantee of the scratch decode path: once a
//! session's buffers are warm and its KV cache is pre-reserved, a
//! steady-state decode token performs **zero** heap allocations inside
//! `TransformerModel::forward_with_scratch` — and equally inside the split
//! path, `forward_body` per sequence plus one `lm_head_batch` over all of
//! them, and inside what the engine runs per worker per tick: one
//! `forward_batch` over decode rows and a prefill chunk, then the head.
//!
//! This file must stay a single-test binary: the counting `#[global_allocator]`
//! is process-wide, and a concurrently running sibling test would perturb
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use veda_model::{
    BatchScratch, ForwardScratch, HeadScratch, ModelConfig, RowRun, SequenceState, TransformerModel,
};

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
        // Reserve for the cap plus the append-then-evict overshoot (one
        // row per decode step, `CHUNK` per batched chunk) so steady-state
        // `push_row` never grows the backing storage.
        state.reserve(BUDGET + CHUNK, model.config().d_model);
        Self { state, scratch: model.new_scratch(BUDGET + 1), pos: 0 }
    }

    /// One token through `forward` (which runs at least the body), then
    /// evict back down to the budget keeping the sink, as a sliding-window
    /// policy would.
    fn step(&mut self, model: &TransformerModel, forward: impl Fn(&mut Self, usize, usize)) {
        let token = (self.pos * 7 + 1) % model.config().vocab_size;
        forward(self, token, self.pos);
        self.advance(1);
    }

    /// Books `rows` forwarded tokens and evicts back down to the budget.
    fn advance(&mut self, rows: usize) {
        self.pos += rows;
        while self.state.cache_len() > BUDGET {
            for layer in 0..self.state.n_layers() {
                self.state.evict_many(layer, &[1]);
            }
        }
    }
}

/// Rows of the chunk in [`batched_tick`]: two attention groups, the
/// second of one row.
const CHUNK: usize = 9;

/// One engine-style tick: a decode row each for `a` and `b` and a
/// [`CHUNK`]-row chunk for `c` through one `forward_batch`, every row's
/// scores observed as they stream, then one head over all three.
fn batched_tick(
    model: &TransformerModel,
    [a, b, c]: &mut [Sequence; 3],
    rows: &mut BatchScratch,
    head: &mut HeadScratch,
    observed: &mut usize,
) {
    let vocab = model.config().vocab_size;
    let (ta, tb) = ([(a.pos * 7 + 1) % vocab], [(b.pos * 7 + 1) % vocab]);
    let tc: [usize; CHUNK] = std::array::from_fn(|i| ((c.pos + i) * 5 + 2) % vocab);
    let seen = std::cell::Cell::new(0);
    let observe =
        |_row, _layer, view: veda_eviction::ScoreView<'_>| seen.set(seen.get() + view.as_flat().len());
    model.forward_batch(
        &mut [
            RowRun::new(&mut a.state, &ta, a.pos, &mut a.scratch, observe),
            RowRun::new(&mut b.state, &tb, b.pos, &mut b.scratch, observe),
            RowRun::new(&mut c.state, &tc, c.pos, &mut c.scratch, observe),
        ],
        rows,
    );
    *observed += seen.get();
    a.advance(1);
    b.advance(1);
    c.advance(CHUNK);
    model.lm_head_batch(&mut [&mut a.scratch, &mut b.scratch, &mut c.scratch], head);
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
    // The engine's shape: scratches that never size a score buffer, one
    // worker's batch buffers.
    let mut ticked: [Sequence; 3] =
        std::array::from_fn(|_| Sequence { scratch: model.new_scratch(0), ..Sequence::new(&model) });
    let (mut rows, mut tick_head, mut observed) = (BatchScratch::new(), HeadScratch::new(), 0);
    for _ in 0..BUDGET + 4 {
        batched_tick(&model, &mut ticked, &mut rows, &mut tick_head, &mut observed);
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

    // The same for a worker's tick: one batched forward over two decode
    // rows and a chunk, observations streamed, one head.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..64 {
        batched_tick(&model, &mut ticked, &mut rows, &mut tick_head, &mut observed);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "batched forward + head allocated {} time(s) over 64 ticks",
        after - before
    );
    assert!(observed > 0, "every row's scores must have streamed past the observer");

    // And the batched head left what the whole forward pass would have:
    // `solo` and `batch[1]` saw the same tokens at the same positions.
    let [a, b, _] = &batch;
    assert_eq!(b.scratch.logits(), solo.scratch.logits());
    assert!(a.scratch.logits().is_empty(), "a body without a head must leave no logits behind");
}
