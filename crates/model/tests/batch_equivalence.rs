//! Pins `TransformerModel::forward_batch` — many rows of many sequences
//! through the layers together, linear layers as one GEMM over all of
//! them — bit for bit against a forward pass written token by token from
//! `rmsnorm_into`, `dot`, `axpy`, `softmax_in_place` and `apply_rope`
//! only, and against itself under every grouping of the same rows: one
//! batch, one call per sequence, one call per row. A batch longer than the
//! internal block goes block by block, and a run's rows are scored eight
//! at a time in one pass over their keys, so the groupings and the chunk
//! lengths also pin that neither the blocking nor the grouping is visible
//! — in the scores, or in the order observers are called.

use std::cell::RefCell;
use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;
use veda_eviction::ScoreView;
use veda_model::rope::apply_rope;
use veda_model::weights::ModelWeights;
use veda_model::{
    BatchScratch, ForwardScratch, HeadScratch, LayerKvCache, ModelConfig, RowRun, SequenceState,
    TransformerModel, FORWARD_BLOCK_ROWS,
};
use veda_tensor::norm::{rmsnorm_into, DEFAULT_EPS};
use veda_tensor::ops::{axpy, dot};
use veda_tensor::rng::seeded;
use veda_tensor::softmax::softmax_in_place;
use veda_tensor::Matrix;

fn config(head_dim: usize, n_heads: usize) -> ModelConfig {
    ModelConfig {
        vocab_size: 40,
        d_model: head_dim * n_heads,
        n_heads,
        n_layers: 3,
        ffn_hidden: 24,
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

/// What one token's forward pass leaves behind, besides its K/V rows.
#[derive(Debug, Clone, PartialEq)]
struct RowTrace {
    /// Per layer, the head-major post-softmax score block, as bits.
    scores: Vec<Vec<u32>>,
    /// Final-norm output (the LM head's input), as bits.
    head_input: Vec<u32>,
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// One token through every layer the slow way, appending to `caches`. The
/// token attends over every resident row but the newest `short` — 0 for
/// the forward pass as it is, 1 for the mutation that must be caught.
fn reference_forward(
    cfg: &ModelConfig,
    w: &ModelWeights,
    caches: &mut [LayerKvCache],
    token: usize,
    position: usize,
    short: usize,
) -> RowTrace {
    let dh = cfg.head_dim();
    let scale = 1.0 / (dh as f32).sqrt();
    let mut hidden = w.embed(token).to_vec();
    let mut normed = Vec::new();
    let mut scores = Vec::new();
    for (lw, cache) in w.layers.iter().zip(caches) {
        rmsnorm_into(&hidden, &lw.attn_norm, DEFAULT_EPS, &mut normed);
        let (mut q, mut k, v) =
            (project(&normed, &lw.wq), project(&normed, &lw.wk), project(&normed, &lw.wv));
        for head in q.chunks_exact_mut(dh).chain(k.chunks_exact_mut(dh)) {
            apply_rope(head, position, cfg.rope_theta);
        }
        cache.append(position, &k, &v);
        let mut concat = vec![0.0; cfg.d_model];
        let mut layer_scores = Vec::new();
        for (h, out) in concat.chunks_exact_mut(dh).enumerate() {
            let span = h * dh..(h + 1) * dh;
            let mut s: Vec<f32> = cache
                .keys()
                .iter_rows()
                .take(cache.len() - short)
                .map(|row| dot(&q[span.clone()], &row[span.clone()]) * scale)
                .collect();
            softmax_in_place(&mut s);
            for (&si, row) in s.iter().zip(cache.values().iter_rows()) {
                axpy(si, &row[span.clone()], out);
            }
            layer_scores.extend(bits(&s));
        }
        scores.push(layer_scores);
        for (x, o) in hidden.iter_mut().zip(project(&concat, &lw.wo)) {
            *x += o;
        }

        rmsnorm_into(&hidden, &lw.ffn_norm, DEFAULT_EPS, &mut normed);
        let mut gate = project(&normed, &lw.w1);
        for g in &mut gate {
            *g = cfg.activation.apply(*g);
        }
        for (g, u) in gate.iter_mut().zip(project(&normed, &lw.w3)) {
            *g *= u;
        }
        for (x, dn) in hidden.iter_mut().zip(project(&gate, &lw.w2)) {
            *x += dn;
        }
    }
    rmsnorm_into(&hidden, &w.final_norm, DEFAULT_EPS, &mut normed);
    RowTrace { scores, head_input: bits(&normed) }
}

/// One sequence of the slice: its state going in and the rows it
/// contributes this tick.
#[derive(Clone)]
struct Seq {
    state: SequenceState,
    tokens: Vec<usize>,
    position: usize,
}

/// How the rows of a slice are dealt to `forward_batch` calls.
#[derive(Debug, Clone, Copy)]
enum Grouping {
    OneBatch,
    PerSequence,
    PerRow,
}

/// One layer's resident keys and values, as bits, and their positions.
type CacheBits = (Vec<u32>, Vec<u32>, Vec<usize>);

/// Everything observable after a slice ran: per (sequence, row) its
/// trace, per sequence the final caches and the last row's logits.
#[derive(Debug, PartialEq)]
struct SliceResult {
    rows: BTreeMap<(usize, usize), RowTrace>,
    caches: Vec<Vec<CacheBits>>,
    logits: Vec<Vec<u32>>,
}

fn cache_bits(caches: &[LayerKvCache]) -> Vec<CacheBits> {
    caches
        .iter()
        .map(|c| (bits(c.keys().as_slice()), bits(c.values().as_slice()), c.positions().to_vec()))
        .collect()
}

/// Runs the slice through `forward_batch` under `grouping`, then one
/// batched LM head over every sequence.
fn run_batched(model: &TransformerModel, seqs: &[Seq], grouping: Grouping) -> SliceResult {
    let mut seqs = seqs.to_vec();
    let n_layers = model.config().n_layers;
    // (sequence, row) -> per-layer score bits, in observation order.
    let seen = RefCell::new(BTreeMap::<(usize, usize), Vec<Vec<u32>>>::new());
    let mut head_inputs = BTreeMap::<(usize, usize), Vec<u32>>::new();
    let mut scratches: Vec<ForwardScratch> = seqs.iter().map(|_| model.new_scratch(0)).collect();
    let mut rows = BatchScratch::new();
    let observer = |seq: usize, first: usize| {
        let seen = &seen;
        move |row: usize, layer: usize, view: ScoreView<'_>| {
            assert_eq!(view.n_heads(), model.config().n_heads);
            let mut seen = seen.borrow_mut();
            let layers = seen.entry((seq, first + row)).or_default();
            // Per sequence and layer, rows arrive in order; per row,
            // layers arrive in order.
            assert_eq!(
                layers.len(),
                layer,
                "sequence {seq} row {} saw layer {layer} out of turn",
                first + row
            );
            layers.push(bits(view.as_flat()));
        }
    };
    match grouping {
        Grouping::OneBatch => {
            let mut runs: Vec<_> = seqs
                .iter_mut()
                .zip(&mut scratches)
                .enumerate()
                .map(|(i, (seq, scratch))| {
                    RowRun::new(&mut seq.state, &seq.tokens, seq.position, scratch, observer(i, 0))
                })
                .collect();
            model.forward_batch(&mut runs, &mut rows);
        }
        Grouping::PerSequence => {
            for (i, (seq, scratch)) in seqs.iter_mut().zip(&mut scratches).enumerate() {
                let run = RowRun::new(&mut seq.state, &seq.tokens, seq.position, scratch, observer(i, 0));
                model.forward_batch(&mut [run], &mut rows);
            }
        }
        Grouping::PerRow => {
            for (i, (seq, scratch)) in seqs.iter_mut().zip(&mut scratches).enumerate() {
                for (row, token) in seq.tokens.iter().enumerate() {
                    let run = RowRun::new(
                        &mut seq.state,
                        std::slice::from_ref(token),
                        seq.position + row,
                        scratch,
                        observer(i, row),
                    );
                    model.forward_batch(&mut [run], &mut rows);
                    // Every row is a run's last here, so every row's
                    // final norm is visible.
                    head_inputs.insert((i, row), bits(scratch.head_input()));
                }
            }
        }
    }
    for (i, (seq, scratch)) in seqs.iter().zip(&scratches).enumerate() {
        assert!(scratch.logits().is_empty(), "a forward pass leaves no logits behind");
        if let Some(last) = seq.tokens.len().checked_sub(1) {
            head_inputs.insert((i, last), bits(scratch.head_input()));
        }
    }
    // A sequence with no rows this tick has nothing for a head to read.
    let mut readers: Vec<&mut ForwardScratch> =
        scratches.iter_mut().zip(&seqs).filter(|(_, seq)| !seq.tokens.is_empty()).map(|(s, _)| s).collect();
    model.lm_head_batch(&mut readers, &mut HeadScratch::new());

    let seen = seen.into_inner();
    let rows = seen
        .into_iter()
        .map(|(key, scores)| {
            assert_eq!(scores.len(), n_layers, "row {key:?} missed a layer");
            // Rows that were not a run's last never went through the
            // final norm; the comparison fills those from the reference.
            (key, RowTrace { scores, head_input: head_inputs.get(&key).cloned().unwrap_or_default() })
        })
        .collect();
    SliceResult {
        rows,
        caches: seqs.iter().map(|s| cache_bits(s.state.caches())).collect(),
        logits: scratches.iter().map(|s| bits(s.logits())).collect(),
    }
}

/// The same slice, one token at a time through [`reference_forward`].
fn run_reference(cfg: &ModelConfig, w: &ModelWeights, seqs: &[Seq]) -> SliceResult {
    run_mutated_reference(cfg, w, seqs, None)
}

/// [`run_reference`] with row `short` (sequence, row), if any, attending
/// over a prefix one row too short.
fn run_mutated_reference(
    cfg: &ModelConfig,
    w: &ModelWeights,
    seqs: &[Seq],
    short: Option<(usize, usize)>,
) -> SliceResult {
    let mut rows = BTreeMap::new();
    let (mut caches, mut logits) = (Vec::new(), Vec::new());
    for (i, seq) in seqs.iter().enumerate() {
        let mut seq_caches = seq.state.caches().to_vec();
        let mut last = Vec::new();
        for (row, &token) in seq.tokens.iter().enumerate() {
            let short = usize::from(short == Some((i, row)));
            let trace = reference_forward(cfg, w, &mut seq_caches, token, seq.position + row, short);
            last = trace.head_input.clone();
            rows.insert((i, row), trace);
        }
        let x: Vec<f32> = last.iter().map(|&b| f32::from_bits(b)).collect();
        logits.push(if x.is_empty() {
            Vec::new()
        } else {
            w.embedding.iter_rows().map(|row| dot(&x, row).to_bits()).collect()
        });
        caches.push(cache_bits(&seq_caches));
    }
    SliceResult { rows, caches, logits }
}

/// The first difference between `got` and `want`, treating a row whose
/// final norm `got` never computed (it was not its run's last) as
/// matching.
fn slice_diff(got: &SliceResult, want: &SliceResult) -> Option<String> {
    if got.rows.len() != want.rows.len() {
        return Some("row count".into());
    }
    for (key, want_row) in &want.rows {
        let got_row = &got.rows[key];
        if got_row.scores != want_row.scores {
            return Some(format!("scores of row {key:?}"));
        }
        if !got_row.head_input.is_empty() && got_row.head_input != want_row.head_input {
            return Some(format!("final norm of row {key:?}"));
        }
    }
    if got.caches != want.caches {
        return Some("K/V rows and positions".into());
    }
    (got.logits != want.logits).then(|| "logits".into())
}

fn assert_slice_eq(got: &SliceResult, want: &SliceResult, what: &str) {
    if let Some(diff) = slice_diff(got, want) {
        panic!("{what}: {diff} differ from the reference");
    }
}

fn tokens(rng: &mut StdRng, n: usize, vocab: usize) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..vocab)).collect()
}

/// A state that has lived: `history` tokens forwarded one at a time.
fn lived(model: &TransformerModel, rng: &mut StdRng, history: usize) -> SequenceState {
    let mut state = model.new_state();
    let mut scratch = model.new_scratch(0);
    for (position, token) in tokens(rng, history, model.config().vocab_size).into_iter().enumerate() {
        model.forward_body(&mut state, token, position, &mut scratch);
    }
    state
}

/// A tick's worth of mixed work: decode rows on caches that have been
/// evicted from (one at a time, in bulk, inside a shared span), multi-row
/// chunks on a fresh state and behind a seeded prefix, an idle sequence,
/// and one chunk long enough that the batch crosses the internal block —
/// with a run straddling the boundary.
fn mixed_slice(model: &TransformerModel, rng: &mut StdRng) -> Vec<Seq> {
    let vocab = model.config().vocab_size;
    let n_layers = model.config().n_layers;
    let mut seqs = Vec::new();

    // Decode row behind single evictions that left the layers at
    // different lengths.
    let mut state = lived(model, rng, 11);
    state.evict(0, 3);
    state.evict(0, 0);
    state.evict(1, 5);
    seqs.push(Seq { state, tokens: tokens(rng, 1, vocab), position: 11 });

    // A 5-row chunk opening a prompt.
    seqs.push(Seq { state: model.new_state(), tokens: tokens(rng, 5, vocab), position: 0 });

    // A 7-row chunk behind a shared span seeded from a donor.
    let donor = lived(model, rng, 9);
    let mut state = model.new_state();
    state.seed_from(&donor, 6);
    assert_eq!(state.shared_len(), 6);
    seqs.push(Seq { state, tokens: tokens(rng, 7, vocab), position: 6 });

    // Decode row on a seeded state after a bulk eviction inside the span.
    let mut state = model.new_state();
    state.seed_from(&donor, 9);
    for layer in 0..n_layers {
        state.evict_many(layer, &[1, 4, 8]);
    }
    seqs.push(Seq { state, tokens: tokens(rng, 1, vocab), position: 9 });

    // A starved sequence: no rows this tick.
    seqs.push(Seq { state: lived(model, rng, 2), tokens: Vec::new(), position: 2 });

    // 14 rows so far; this chunk straddles the block boundary and fills
    // most of a second block, and a last decode row lands in the third.
    seqs.push(Seq {
        state: lived(model, rng, 3),
        tokens: tokens(rng, FORWARD_BLOCK_ROWS + 20, vocab),
        position: 3,
    });
    seqs.push(Seq { state: lived(model, rng, 4), tokens: tokens(rng, 1, vocab), position: 4 });
    seqs
}

#[test]
fn mixed_slice_matches_the_token_by_token_reference_under_every_grouping() {
    for (head_dim, n_heads) in [(8, 4), (16, 2), (32, 1), (8, 1)] {
        let cfg = config(head_dim, n_heads);
        let model = TransformerModel::new(cfg.clone());
        let weights = ModelWeights::synthetic(&cfg);
        let mut rng = seeded(head_dim as u64 * 7 + n_heads as u64);
        let seqs = mixed_slice(&model, &mut rng);
        let total: usize = seqs.iter().map(|s| s.tokens.len()).sum();
        assert!(total > 2 * FORWARD_BLOCK_ROWS, "the slice must span three blocks");

        let want = run_reference(&cfg, &weights, &seqs);
        for grouping in [Grouping::OneBatch, Grouping::PerSequence, Grouping::PerRow] {
            let got = run_batched(&model, &seqs, grouping);
            assert_slice_eq(&got, &want, &format!("head_dim {head_dim} x {n_heads}, {grouping:?}"));
        }
    }
}

#[test]
fn consecutive_ticks_with_evictions_between_them_stay_on_the_reference() {
    // Three ticks over the same sequences: chunks continue, finished
    // prompts turn into decode rows, and between ticks every sequence is
    // evicted from as a policy would — the batched side and the reference
    // side from the same slots.
    let cfg = config(16, 2);
    let model = TransformerModel::new(cfg.clone());
    let weights = ModelWeights::synthetic(&cfg);
    let mut rng = seeded(41);
    let mut seqs = vec![
        Seq { state: model.new_state(), tokens: Vec::new(), position: 0 },
        Seq { state: lived(&model, &mut rng, 6), tokens: Vec::new(), position: 6 },
        Seq { state: lived(&model, &mut rng, 13), tokens: Vec::new(), position: 13 },
    ];
    for tick in 0..3 {
        for (seq, rows) in seqs.iter_mut().zip([[9, 4, 1], [1, 1, 1], [3, 1, 6]]) {
            seq.tokens = tokens(&mut rng, rows[tick], cfg.vocab_size);
        }
        let want = run_reference(&cfg, &weights, &seqs);
        let got = run_batched(&model, &seqs, Grouping::OneBatch);
        assert_slice_eq(&got, &want, &format!("tick {tick}"));

        // Carry the batched side's states into the next tick, evicted.
        let mut rows = BatchScratch::new();
        for seq in &mut seqs {
            let mut scratch = model.new_scratch(0);
            let run = RowRun::new(&mut seq.state, &seq.tokens, seq.position, &mut scratch, |_, _, _| {});
            model.forward_batch(&mut [run], &mut rows);
            seq.position += seq.tokens.len();
            for layer in 0..cfg.n_layers {
                let len = seq.state.caches()[layer].len();
                if len > 5 {
                    seq.state.evict_many(layer, &[1, len - 2]);
                }
            }
        }
    }
}

/// Chunk lengths on both sides of the 8-row attention group and of the
/// 32-row block.
const CHUNK_LENGTHS: [usize; 9] = [1, 2, 7, 8, 9, 16, 17, 32, 33];

/// One chunk of `len` rows on each kind of resident set a chunk can meet:
/// a fresh state, behind a shared span seeded from a donor, and behind
/// layers that bulk evictions left at different lengths.
fn chunk_slice(model: &TransformerModel, rng: &mut StdRng, len: usize) -> Vec<Seq> {
    let vocab = model.config().vocab_size;
    let donor = lived(model, rng, 9);
    let mut seeded = model.new_state();
    seeded.seed_from(&donor, 7);
    let mut evicted = lived(model, rng, 12);
    evicted.evict_many(0, &[0, 5, 11]);
    evicted.evict_many(2, &[3, 4]);
    vec![
        Seq { state: model.new_state(), tokens: tokens(rng, len, vocab), position: 0 },
        Seq { state: seeded, tokens: tokens(rng, len, vocab), position: 7 },
        Seq { state: evicted, tokens: tokens(rng, len, vocab), position: 12 },
    ]
}

#[test]
fn chunks_straddling_the_attention_group_and_the_block_stay_on_the_reference() {
    for (head_dim, n_heads) in [(8, 4), (16, 2)] {
        let cfg = config(head_dim, n_heads);
        let model = TransformerModel::new(cfg.clone());
        let weights = ModelWeights::synthetic(&cfg);
        let mut rng = seeded(head_dim as u64 * 11 + n_heads as u64);
        for len in CHUNK_LENGTHS {
            let seqs = chunk_slice(&model, &mut rng, len);
            let want = run_reference(&cfg, &weights, &seqs);
            // Alone every chunk starts a block; in one batch the second
            // and third start wherever the one before them ended.
            for grouping in [Grouping::PerSequence, Grouping::OneBatch] {
                let got = run_batched(&model, &seqs, grouping);
                assert_slice_eq(
                    &got,
                    &want,
                    &format!("head_dim {head_dim} x {n_heads}, {len} rows, {grouping:?}"),
                );
            }
        }
    }
}

#[test]
fn a_row_whose_prefix_is_one_short_is_caught() {
    // The comparison above is only worth something if it fails for the
    // bug the grouped kernel can have: one lane storing a prefix off by
    // one. Mutate the reference that way, in the second group of a chunk.
    let cfg = config(8, 4);
    let model = TransformerModel::new(cfg.clone());
    let weights = ModelWeights::synthetic(&cfg);
    let seqs = chunk_slice(&model, &mut seeded(5), 17);
    let got = run_batched(&model, &seqs, Grouping::OneBatch);
    let (seq, row) = (1, 10);
    let mutated = run_mutated_reference(&cfg, &weights, &seqs, Some((seq, row)));
    // Rows are compared in (sequence, row) order, so the first difference
    // is the mutated row itself: everything before it still matches.
    assert_eq!(slice_diff(&got, &mutated), Some(format!("scores of row {:?}", (seq, row))));
    assert_eq!(slice_diff(&got, &run_reference(&cfg, &weights, &seqs)), None);
}

#[test]
fn observers_are_called_per_layer_run_by_run_with_rows_ascending() {
    // Three runs — 9 rows behind 4 resident ones, a decode row, 33 rows on
    // a fresh state — so the batch spans two blocks and the last run
    // straddles them. Per block and per layer, every run's observer sees
    // its rows of that block in ascending order before the next run's
    // does, each view as long as the row's causal prefix.
    let cfg = config(8, 4);
    let model = TransformerModel::new(cfg.clone());
    let mut rng = seeded(13);
    let history = [4usize, 6, 0];
    let lens = [9usize, 1, 33];
    let mut states: Vec<SequenceState> = history.iter().map(|&h| lived(&model, &mut rng, h)).collect();
    let chunks: Vec<Vec<usize>> = lens.iter().map(|&n| tokens(&mut rng, n, cfg.vocab_size)).collect();
    let mut scratches: Vec<ForwardScratch> = lens.iter().map(|_| model.new_scratch(0)).collect();

    let calls = RefCell::new(Vec::new());
    let mut runs: Vec<_> = states
        .iter_mut()
        .zip(&chunks)
        .zip(&mut scratches)
        .zip(history)
        .enumerate()
        .map(|(run, (((state, chunk), scratch), history))| {
            let calls = &calls;
            RowRun::new(state, chunk, history, scratch, move |row, layer, view: ScoreView<'_>| {
                calls.borrow_mut().push((run, row, layer, view.len()));
            })
        })
        .collect();
    model.forward_batch(&mut runs, &mut BatchScratch::new());
    drop(runs);

    let mut want = Vec::new();
    let mut done = [0usize; 3];
    while done != lens {
        // Deal the block as `forward_batch` documents it: each run in
        // order takes what is left of it.
        let mut room = FORWARD_BLOCK_ROWS;
        let dealt: Vec<(usize, usize)> = done
            .iter()
            .zip(lens)
            .map(|(&done, len)| {
                let take = (len - done).min(room);
                room -= take;
                (done, take)
            })
            .collect();
        for layer in 0..cfg.n_layers {
            for (run, &(first, take)) in dealt.iter().enumerate() {
                want.extend((first..first + take).map(|row| (run, row, layer, history[run] + row + 1)));
            }
        }
        for (done, (_, take)) in done.iter_mut().zip(dealt) {
            *done += take;
        }
    }
    assert_eq!(calls.into_inner(), want);
}

#[test]
fn one_row_calls_are_the_batch_of_one() {
    // `forward_body` and `prefill` are calls of the batched forward: a
    // prompt through `prefill`, through `forward_body` per token and
    // through one run agree on caches, last-row scores and logits.
    let cfg = config(8, 4);
    let mut model = TransformerModel::new(cfg.clone());
    let prompt = tokens(&mut seeded(3), FORWARD_BLOCK_ROWS + 3, cfg.vocab_size);

    let mut state = model.new_state();
    let mut scratch = model.new_scratch(prompt.len());
    for (position, &token) in prompt.iter().enumerate() {
        model.forward_with_scratch(&mut state, token, position, &mut scratch);
    }

    let out = model.prefill(&prompt).expect("non-empty prompt");
    assert_eq!(bits(&out.logits), bits(scratch.logits()));
    assert_eq!(&out.scores, scratch.scores());
    assert_eq!(cache_bits(model.caches()), cache_bits(state.caches()));
    assert!(model.prefill(&[]).is_none());
}
