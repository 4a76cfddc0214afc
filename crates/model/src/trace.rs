//! Attention-trace recording and synthetic trace generation.
//!
//! Traces decouple policy experiments from model execution: a trace is, per
//! step, the per-head post-softmax score vector of the new token over all
//! *absolute* previous positions. [`SyntheticTraceConfig`] generates traces
//! with controllable sink / heavy-hitter / recency / outlier structure —
//! the fast path for policy unit tests and ablations.

use rand::Rng;
use veda_eviction::ScoreView;
use veda_tensor::softmax::softmax;

/// A recorded attention trace: step `i` is a [`ScoreView`] of every
/// head's score from token `i` to the absolute positions `0..=i`.
#[derive(Debug, Clone)]
pub struct AttentionTrace {
    heads: usize,
    /// One flat head-major buffer per step.
    steps: Vec<Vec<f32>>,
}

impl AttentionTrace {
    /// Creates an empty trace of `heads` heads.
    pub(crate) fn new(heads: usize) -> Self {
        Self { heads, steps: Vec::new() }
    }

    /// Appends one step's scores, head-major.
    ///
    /// # Panics
    ///
    /// Panics if each head's scores are not `steps_so_far + 1` long.
    pub(crate) fn push_step(&mut self, scores: Vec<f32>) {
        let expected = self.heads * (self.steps.len() + 1);
        assert_eq!(scores.len(), expected, "trace step has wrong score length");
        self.steps.push(scores);
    }

    /// Number of recorded steps.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.steps.len()
    }

    /// The scores of step `i`.
    #[cfg(test)]
    pub(crate) fn step(&self, i: usize) -> ScoreView<'_> {
        ScoreView::new(&self.steps[i], self.heads)
    }

    /// Iterates over the steps.
    pub fn iter(&self) -> impl Iterator<Item = ScoreView<'_>> {
        self.steps.iter().map(|step| ScoreView::new(step, self.heads))
    }

    /// Measures attention sparsity: the average (over steps ≥ `skip` and
    /// heads) fraction of positions holding the *smallest* scores that
    /// together account for at most `1 − mass` of the attention. A value of
    /// 0.95 at `mass = 0.9` means 95 % of positions can be dropped while
    /// keeping 90 % of the attention mass — the sparsity claim of Section I.
    pub fn sparsity(&self, mass: f32, skip: usize) -> f32 {
        let mut total = 0.0;
        let mut count = 0usize;
        for step in self.iter().skip(skip) {
            for head in step.heads() {
                if head.len() < 4 {
                    continue;
                }
                let mut sorted = head.to_vec();
                sorted.sort_by(|a, b| b.partial_cmp(a).expect("no NaN scores"));
                let mut acc = 0.0;
                let mut needed = 0usize;
                for &s in &sorted {
                    if acc >= mass {
                        break;
                    }
                    acc += s;
                    needed += 1;
                }
                total += 1.0 - needed as f32 / head.len() as f32;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f32
        }
    }
}

/// Parameters of the synthetic attention-trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTraceConfig {
    /// Number of steps (tokens) to generate.
    pub steps: usize,
    /// Number of heads.
    pub heads: usize,
    /// Logit bonus of position 0 (attention sink).
    pub sink_gain: f32,
    /// Fraction of positions that are heavy hitters.
    pub heavy_fraction: f32,
    /// Logit bonus of heavy-hitter positions.
    pub heavy_gain: f32,
    /// Recency timescale (logit −= distance/tau).
    pub recency_tau: f32,
    /// Per-step probability that a random position gets a one-off outlier
    /// logit spike (the outlier-bias stressor).
    pub outlier_prob: f32,
    /// Outlier spike magnitude.
    pub outlier_gain: f32,
    /// i.i.d. logit noise standard deviation.
    pub noise: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticTraceConfig {
    fn default() -> Self {
        Self {
            steps: 256,
            heads: 4,
            sink_gain: 3.0,
            heavy_fraction: 0.06,
            heavy_gain: 2.5,
            recency_tau: 48.0,
            outlier_prob: 0.05,
            outlier_gain: 8.0,
            noise: 0.5,
            seed: 23,
        }
    }
}

impl SyntheticTraceConfig {
    /// Generates the trace.
    pub fn generate(&self) -> AttentionTrace {
        let mut rng = veda_tensor::rng::seeded(self.seed);
        let heavy: Vec<bool> = (0..self.steps).map(|_| rng.gen::<f32>() < self.heavy_fraction).collect();
        let mut trace = AttentionTrace::new(self.heads);
        for i in 0..self.steps {
            let mut scores = Vec::with_capacity(self.heads * (i + 1));
            for _ in 0..self.heads {
                let mut logits: Vec<f32> = (0..=i)
                    .map(|j| {
                        let mut l = 0.0;
                        if j == 0 {
                            l += self.sink_gain;
                        }
                        if heavy[j] {
                            l += self.heavy_gain;
                        }
                        l -= (i - j) as f32 / self.recency_tau;
                        l + veda_tensor::rng::standard_normal(&mut rng) * self.noise
                    })
                    .collect();
                if i > 0 && rng.gen::<f32>() < self.outlier_prob {
                    let j = rng.gen_range(0..=i);
                    logits[j] += self.outlier_gain;
                }
                scores.extend(softmax(&logits));
            }
            trace.push_step(scores);
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_trace_has_expected_shape() {
        let cfg = SyntheticTraceConfig { steps: 32, heads: 2, ..SyntheticTraceConfig::default() };
        let t = cfg.generate();
        assert_eq!(t.len(), 32);
        assert_eq!(t.step(10).n_heads(), 2);
        assert_eq!(t.step(10).len(), 11);
    }

    #[test]
    fn scores_are_distributions() {
        let t = SyntheticTraceConfig { steps: 64, ..SyntheticTraceConfig::default() }.generate();
        for step in t.iter() {
            for head in step.heads() {
                let sum: f32 = head.iter().sum();
                assert!((sum - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn sink_receives_above_uniform_mass() {
        let t = SyntheticTraceConfig { steps: 128, ..SyntheticTraceConfig::default() }.generate();
        let mut sink = 0.0;
        let mut n = 0;
        for step in t.iter().skip(32) {
            for head in step.heads() {
                sink += head[0] * head.len() as f32; // ratio to uniform
                n += 1;
            }
        }
        assert!(sink / n as f32 > 2.0, "sink/uniform ratio {}", sink / n as f32);
    }

    #[test]
    fn long_traces_are_sparse_like_llms() {
        // Section I: attention sparsity approaching 95 % at long contexts.
        let t = SyntheticTraceConfig { steps: 512, ..SyntheticTraceConfig::default() }.generate();
        let s = t.sparsity(0.9, 256);
        assert!(s > 0.7, "sparsity {s}");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SyntheticTraceConfig { steps: 16, ..SyntheticTraceConfig::default() };
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.step(15).as_flat(), b.step(15).as_flat());
    }

    #[test]
    #[should_panic(expected = "wrong score length")]
    fn push_step_validates_length() {
        let mut t = AttentionTrace::new(1);
        t.push_step(vec![0.5, 0.5]);
    }

    #[test]
    fn sparsity_of_empty_trace_is_zero() {
        assert_eq!(AttentionTrace::new(4).sparsity(0.9, 0), 0.0);
    }
}
