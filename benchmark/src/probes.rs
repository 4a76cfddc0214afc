//! Probes: representative calls into one layer at a time, replayed at the
//! workload's own geometry after the traced rounds. Each returns the
//! median host nanoseconds of one call (see [`host::probe_ns`]).

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use veda_accel::{DecodeScheduler, PrefillChunk};
use veda_eviction::{EvictionPolicy, PolicyKind, ScoreView};
use veda_model::attention::attend;
use veda_model::weights::ModelWeights;
use veda_model::{ForwardScratch, ModelConfig, SequenceState, TransformerModel};
use veda_tensor::Matrix;

use crate::harness::Ledger;
use crate::{host, input, stats};

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.gen_range(-0.05f32..0.05)).collect();
    Matrix::from_vec(rows, cols, data).expect("rows × cols values")
}

fn random_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// `tensor.*`: the blessed in-place kernels at the model's largest weight
/// shapes — `gemv_outer_into` on the `(d, ffn)` FFN matrix, `gemv_inner_into`
/// on the `(vocab, d)` tied LM head — and softmax/RMSNorm at the resident
/// length and hidden width. FLOPs and bytes per token are computed from
/// tensor sizes (f32 weights and KV rows read once per token), not measured.
pub fn tensor(model: &ModelConfig, resident_len: usize, seed: u64, out: &mut Ledger) {
    let mut rng = input::content_rng(seed, 101);
    let (d, f, v) = (model.d_model, model.ffn_hidden, model.vocab_size);

    let ffn = random_matrix(&mut rng, d, f);
    let x = random_vec(&mut rng, d);
    let mut y = Vec::with_capacity(f);
    let outer_ns = host::probe_ns(15, 40, || veda_tensor::ops::gemv_outer_into(black_box(&x), &ffn, &mut y));
    out.set("tensor.gemv_outer_ns", outer_ns);
    out.set("tensor.gemv_gflops", (2 * d * f) as f64 / outer_ns);

    let head = random_matrix(&mut rng, v, d);
    let mut logits = Vec::with_capacity(v);
    out.set(
        "tensor.gemv_inner_ns",
        host::probe_ns(15, 20, || veda_tensor::ops::gemv_inner_into(black_box(&x), &head, &mut logits)),
    );

    let scores = random_vec(&mut rng, resident_len.max(1));
    let mut buf = scores.clone();
    out.set(
        "tensor.softmax_ns",
        host::probe_ns(15, 200, || {
            buf.copy_from_slice(&scores);
            veda_tensor::softmax::softmax_in_place(black_box(&mut buf));
        }),
    );
    let gamma = vec![1.0f32; d];
    let mut normed = Vec::with_capacity(d);
    out.set(
        "tensor.rmsnorm_ns",
        host::probe_ns(15, 400, || {
            veda_tensor::norm::rmsnorm_into(
                black_box(&x),
                &gamma,
                veda_tensor::norm::DEFAULT_EPS,
                &mut normed,
            )
        }),
    );

    let weights = (model.n_layers * (4 * d * d + 3 * d * f) + d * v) as u64;
    let kv_rows = (model.n_layers * 2 * resident_len * d) as u64;
    out.set("tensor.flops_per_token", (model.decode_flops(resident_len) + (2 * d * v) as u64) as f64);
    out.set("tensor.bytes_per_token", (4 * (weights + kv_rows)) as f64);
}

/// Host cost of the model layer at the observed resident lengths.
pub struct ModelProbe {
    /// `forward_with_scratch` with one resident row: the part of a forward
    /// pass that does not depend on the cache (GEMVs, norms, LM head).
    pub forward_ns_len1: f64,
    pub forward_ns_p50len: f64,
    pub forward_ns_p95len: f64,
    /// Median over back-to-back pairs of (one-row pass ÷ `p50len` pass).
    pub linear_share: f64,
    pub attend_ns: f64,
    pub kv_append_ns: f64,
    pub kv_evict_one_ns: f64,
    pub kv_evict_bulk_ns: f64,
    pub p50len: usize,
    pub p95len: usize,
}

/// Sequences of one probed length, each with its scratch, held one row short
/// of that length: a timed pass appends the row, and evicting a middle row
/// in every layer restores the set.
struct LaneSet {
    len: usize,
    position: usize,
    lanes: Vec<(SequenceState, ForwardScratch)>,
}

impl ModelProbe {
    /// Holds three sets of `sequences` sequences (the workload's mean batch,
    /// so the caches compete for the processor's as they do in a tick) at 1,
    /// `p50len` and `p95len` rows and times forward passes that see exactly
    /// that many rows. The three lengths are timed **back to back** — lane by
    /// lane, one pass of each — so a burst of machine noise lands on all
    /// three and `linear_share`, the median of the per-triple ratios, does
    /// not depend on readings taken seconds apart. The restoring eviction at
    /// `p50len` is timed as `kv_evict_one_ns` (one layer's share).
    /// `bulk_rows` is the largest single eviction the workload performed in
    /// one layer.
    pub fn run(
        config: &ModelConfig,
        seed: u64,
        sequences: usize,
        p50len: usize,
        p95len: usize,
        bulk_rows: usize,
    ) -> Self {
        let (p50len, p95len) = (p50len.max(2), p95len.max(p50len.max(2)));
        let mut rng = input::content_rng(seed, 102);
        let model = TransformerModel::new(config.clone());
        let token = |rng: &mut StdRng| rng.gen_range(1..config.vocab_size);
        let fresh = |len: usize| LaneSet {
            len,
            position: 0,
            lanes: (0..sequences.max(1))
                .map(|_| {
                    let mut state = model.new_state();
                    state.reserve(len + 1, config.d_model);
                    (state, model.new_scratch(len + 1))
                })
                .collect(),
        };
        let grow = |set: &mut LaneSet, rng: &mut StdRng| {
            while set.lanes[0].0.cache_len() + 1 < set.len {
                for (state, scratch) in &mut set.lanes {
                    model.forward_with_scratch(state, token(rng), set.position, scratch);
                }
                set.position += 1;
            }
        };
        let mut at_p50 = fresh(p50len);
        grow(&mut at_p50, &mut rng);
        // The p95 set continues from a copy of the p50 set.
        let mut at_p95 = LaneSet {
            len: p95len,
            position: at_p50.position,
            lanes: at_p50
                .lanes
                .iter()
                .map(|(grown, _)| {
                    let mut state = grown.clone();
                    state.reserve(p95len + 1, config.d_model);
                    (state, model.new_scratch(p95len + 1))
                })
                .collect(),
        };
        grow(&mut at_p95, &mut rng);
        let mut sets = [fresh(1), at_p50, at_p95];

        let mut forward: [Vec<f64>; 3] = Default::default();
        let (mut ratio, mut evict) = (Vec::new(), Vec::new());
        let lanes = sets[0].lanes.len();
        for _ in 0..(48 / lanes).max(4) {
            for lane in 0..lanes {
                let mut triple = [0.0f64; 3];
                for (which, set) in sets.iter_mut().enumerate() {
                    let (state, scratch) = &mut set.lanes[lane];
                    let t = token(&mut rng);
                    let start = Instant::now();
                    model.forward_with_scratch(state, t, set.position, scratch);
                    triple[which] = start.elapsed().as_nanos() as f64;
                    black_box(scratch.logits());
                    let start = Instant::now();
                    state.evict_all_layers((set.len - 1) / 2);
                    if which == 1 {
                        evict.push(start.elapsed().as_nanos() as f64 / config.n_layers as f64);
                    }
                    forward[which].push(triple[which]);
                }
                ratio.push(triple[0] / triple[1]);
            }
            for set in &mut sets {
                set.position += 1;
            }
        }
        // One layer at p50len − 1 and p95len − 1 rows for the single-layer probes.
        let layer_p50 = sets[1].lanes[0].0.caches()[0].clone();
        let layer_p95 = sets[2].lanes[0].0.caches()[0].clone();
        let position = sets[2].position;

        let weights = ModelWeights::synthetic(config);
        let x: Vec<f32> = weights.embed(token(&mut rng)).to_vec();
        let mut cache = layer_p50.clone();
        cache.reserve(p50len + 2, config.d_model);
        let attend_ns = host::probe_ns(9, 8, || {
            let out = attend(black_box(&x), position, &mut cache, &weights.layers[0], config);
            let last = cache.len() - 1;
            cache.evict(last);
            out
        });

        let (k, v) = (random_vec(&mut rng, config.d_model), random_vec(&mut rng, config.d_model));
        let kv_append_ns = host::probe_ns(15, 64, || {
            cache.append(position, black_box(&k), &v);
            let last = cache.len() - 1;
            cache.evict(last);
        });

        // Bulk eviction: `bulk_rows` evenly spread victims out of p95len rows.
        let bulk_rows = bulk_rows.clamp(2, layer_p95.len().max(2) - 1);
        let victims: Vec<usize> = (0..bulk_rows).map(|i| i * layer_p95.len() / bulk_rows).collect();
        let mut bulk = Vec::new();
        for _ in 0..15 {
            let mut cache = layer_p95.clone();
            let start = Instant::now();
            cache.evict_many(black_box(&victims));
            bulk.push(start.elapsed().as_nanos() as f64);
            black_box(cache.len());
        }

        Self {
            forward_ns_len1: stats::median(&forward[0]),
            forward_ns_p50len: stats::median(&forward[1]),
            forward_ns_p95len: stats::median(&forward[2]),
            linear_share: stats::median(&ratio).min(1.0),
            attend_ns,
            kv_append_ns,
            kv_evict_one_ns: stats::median(&evict),
            kv_evict_bulk_ns: stats::median(&bulk),
            p50len,
            p95len,
        }
    }

    /// Forward-pass cost at `len` resident rows, interpolated linearly
    /// between the three probed lengths (attention is linear in `len`).
    pub fn forward_ns_at(&self, len: usize) -> f64 {
        let points = [
            (1.0, self.forward_ns_len1),
            (self.p50len as f64, self.forward_ns_p50len),
            (self.p95len as f64, self.forward_ns_p95len),
        ];
        let x = len as f64;
        let (a, b) = if x <= points[1].0 || points[2].0 <= points[1].0 {
            (points[0], points[1])
        } else {
            (points[1], points[2])
        };
        a.1 + (b.1 - a.1) * (x - a.0) / (b.0 - a.0).max(1.0)
    }

    pub fn record(&self, out: &mut Ledger) {
        out.set("model.forward_ns_p50len", self.forward_ns_p50len);
        out.set("model.forward_ns_p95len", self.forward_ns_p95len);
        out.set("model.attend_ns", self.attend_ns);
        out.set("model.kv_append_ns", self.kv_append_ns);
        out.set("model.kv_evict_one_ns", self.kv_evict_one_ns);
        out.set("model.kv_evict_bulk_ns", self.kv_evict_bulk_ns);
        out.set("model.resident_len_p50", self.p50len as f64);
        out.set("model.resident_len_p95", self.p95len as f64);
        // Host time: the cache-independent share of a forward pass at the
        // median resident length, and its complement.
        out.set("model.linear_share", self.linear_share);
        out.set("model.attention_share", 1.0 - self.linear_share);
    }
}

/// Host cost of one `observe` and one `select_victim` of a policy tracking
/// `len` entries under `n_heads` heads (the policy is held at that length:
/// append, observe, select, evict).
pub struct PolicyProbe {
    pub observe_ns: f64,
    pub select_ns: f64,
}

pub fn policy(mut policy: Box<dyn EvictionPolicy>, n_heads: usize, len: usize, seed: u64) -> PolicyProbe {
    let len = len.max(8);
    let mut rng = input::content_rng(seed, 103);
    // Softmax-like rows: positive, each head summing to about one.
    let scores: Vec<f32> =
        (0..n_heads * (len + 1)).map(|_| rng.gen_range(0.0f32..2.0) / (len + 1) as f32).collect();
    for tracked in 1..=len {
        policy.on_append();
        policy.observe(ScoreView::new(&scores[..n_heads * tracked], n_heads));
    }
    let (mut observe, mut select) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        let (mut observe_ns, mut select_ns) = (0u128, 0u128);
        const REPS: usize = 32;
        for _ in 0..REPS {
            policy.on_append();
            let view = ScoreView::new(&scores, n_heads);
            let start = Instant::now();
            policy.observe(black_box(view));
            observe_ns += start.elapsed().as_nanos();
            let start = Instant::now();
            let victim = policy.select_victim(black_box(len + 1));
            select_ns += start.elapsed().as_nanos();
            policy.on_evict(victim.unwrap_or(len / 2));
        }
        observe.push(observe_ns as f64 / REPS as f64);
        select.push(select_ns as f64 / REPS as f64);
    }
    PolicyProbe { observe_ns: stats::median(&observe), select_ns: stats::median(&select) }
}

/// The three policies the catalogue compares, with their metric suffixes.
pub const POLICIES: [(PolicyKind, &str, &str); 3] = [
    (PolicyKind::Voting, "eviction.observe_ns.voting", "eviction.select_ns.voting"),
    (PolicyKind::H2o, "eviction.observe_ns.h2o", "eviction.select_ns.h2o"),
    (PolicyKind::SlidingWindow, "eviction.observe_ns.sliding", "eviction.select_ns.sliding"),
];

/// Host nanoseconds of one `DecodeScheduler::mixed_batch` call.
pub fn mixed_batch_ns(scheduler: &DecodeScheduler, chunks: &[PrefillChunk], lens: &[usize]) -> f64 {
    host::probe_ns(15, 64, || scheduler.mixed_batch(black_box(chunks), black_box(lens)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_interpolation_is_piecewise_linear() {
        let p = ModelProbe {
            forward_ns_len1: 100.0,
            forward_ns_p50len: 300.0,
            forward_ns_p95len: 700.0,
            linear_share: 1.0 / 3.0,
            attend_ns: 0.0,
            kv_append_ns: 0.0,
            kv_evict_one_ns: 0.0,
            kv_evict_bulk_ns: 0.0,
            p50len: 101,
            p95len: 201,
        };
        assert_eq!(p.forward_ns_at(1), 100.0);
        assert_eq!(p.forward_ns_at(51), 200.0);
        assert_eq!(p.forward_ns_at(101), 300.0);
        assert_eq!(p.forward_ns_at(151), 500.0);
        assert_eq!(p.forward_ns_at(201), 700.0);
        // Equal percentiles (a flat cache) fall back to the first segment.
        let flat = ModelProbe { p95len: 101, forward_ns_p95len: 300.0, ..p };
        assert_eq!(flat.forward_ns_at(101), 300.0);
        assert_eq!(flat.forward_ns_at(151), 400.0);
    }

    #[test]
    fn policy_probe_holds_the_tracked_length() {
        for (kind, ..) in POLICIES {
            let probe = policy(kind.build(), 4, 64, 7);
            assert!(probe.observe_ns > 0.0 && probe.select_ns >= 0.0, "{kind}");
        }
    }
}
