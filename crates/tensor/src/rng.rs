//! Seeded random initialization helpers.
//!
//! Every stochastic component of the reproduction draws from a seeded
//! [`rand::rngs::StdRng`], so all experiments are bit-for-bit reproducible.
//!
//! A Gaussian draw is a pure function of its *stream position*: the `k`-th
//! [`standard_normal`] of a generator reads stream words `2k` and `2k + 1`
//! and nothing else. That is the crate's "parallelise across independent
//! outputs" rule applied to a random stream: a share of a long fill starts
//! from the generator advanced ([`skip_standard_normal`]) to the stream
//! position of its first element, so [`fill_normal_parts`] may cut a fill
//! across cores anywhere and never changes a bit.
//!
//! A categorical draw reads one `f32` uniform in `[0, total)` and walks the
//! weights in index order, subtracting each until the remainder falls below
//! one. [`sample_categorical`] computes `total` (`weights.iter().sum()`) on
//! every call; a [`Categorical`] computes it once, in the same order, when it
//! is built. Both run the one private draw, so a table drawn through either
//! gives the same index and leaves the generator at the same stream position.

use crate::error::CategoricalError;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Creates the workspace-standard seeded RNG.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The Box–Muller uniforms of one draw: `u1` (guarded against `log(0)`),
/// then `u2` — one stream word each.
fn box_muller_uniforms(rng: &mut StdRng) -> (f32, f32) {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

fn box_muller(u1: f32, u2: f32) -> f32 {
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// Samples one standard normal variate via Box–Muller (avoids a dependency
/// on `rand_distr`).
pub fn standard_normal(rng: &mut StdRng) -> f32 {
    let (u1, u2) = box_muller_uniforms(rng);
    box_muller(u1, u2)
}

/// Uniform pairs drawn ahead of the transcendental pass in
/// [`fill_normal_parts`].
const FILL_BLOCK: usize = 64;

/// Fewest normals a share of a split fill holds: ≈ 0.7 ms of Box–Muller
/// work, far above the cost of a thread. A fill of fewer than two shares
/// stays on the calling thread and never asks the host for its core count,
/// which reads files and allocates.
const MIN_SHARE: usize = 32 * 1024;

/// Cost of skipping a draw relative to drawing it: two generator steps
/// against two uniforms, `ln`, `sqrt` and `cos` (≈ 2 ns against ≈ 21 ns on
/// an x86-64 host). It only sizes the shares; any split gives the same bits.
const SKIP_COST: f64 = 0.1;

/// One part of a [`fill_normal_parts`] fill: a buffer and the standard
/// deviation of its draws.
pub(crate) type NormalPart<'a> = (&'a mut [f32], f32);

/// Fills every part with i.i.d. `N(0, std²)` draws as if the parts were one
/// buffer: element `k` of their concatenation is the `k`-th
/// [`standard_normal`] draw times its part's `std`, and `rng` ends where that
/// loop of per-call draws would have left it.
///
/// A fill of at least two shares of 32 Ki normals is cut at stream positions
/// across the host's cores. Each share starts from `rng` advanced by
/// [`skip_standard_normal`] over the shares before it, so the result is
/// bit-equal for any core count; the calling thread skips while the others
/// draw, then draws the last share itself.
pub fn fill_normal_parts(rng: &mut StdRng, parts: &mut [NormalPart<'_>]) {
    let total: usize = parts.iter().map(|(out, _)| out.len()).sum();
    if total < 2 * MIN_SHARE {
        fill_serial(rng, parts.iter_mut().map(|(out, std)| (&mut **out, *std)));
        return;
    }
    let workers = std::thread::available_parallelism().map_or(1, usize::from).min(total / MIN_SHARE);
    fill_split(rng, parts, &share_starts(total, workers));
}

/// Fills `out` with standard normal variates: a one-part
/// [`fill_normal_parts`] with `std` 1.
pub fn fill_standard_normal(rng: &mut StdRng, out: &mut [f32]) {
    fill_normal_parts(rng, &mut [(out, 1.0)]);
}

/// Draws the parts in order on this thread. The uniforms of a 64-element
/// block are drawn first, then the unchanged Box–Muller expression runs over
/// them, so the generator's serial dependency chain no longer interleaves
/// with `ln`/`cos`.
fn fill_serial<'a>(rng: &mut StdRng, parts: impl IntoIterator<Item = NormalPart<'a>>) {
    let mut uniforms = [(0.0f32, 0.0f32); FILL_BLOCK];
    for (out, std) in parts {
        for block in out.chunks_mut(FILL_BLOCK) {
            for (pair, _) in uniforms.iter_mut().zip(block.iter()) {
                *pair = box_muller_uniforms(rng);
            }
            for (z, &(u1, u2)) in block.iter_mut().zip(&uniforms) {
                *z = box_muller(u1, u2) * std;
            }
        }
    }
}

/// Where each share after the first starts, for `workers` shares of
/// `total` draws. Share `i` starts once the calling thread has skipped the
/// `i` shares before it, so the shares shrink by `1 − SKIP_COST` each and
/// all finish together.
fn share_starts(total: usize, workers: usize) -> Vec<usize> {
    let keep = 1.0 - SKIP_COST;
    let filled = |shares: usize| 1.0 - keep.powi(shares as i32);
    let whole = filled(workers);
    (1..workers).map(|i| (total as f64 * filled(i) / whole).round() as usize).collect()
}

/// Fills `parts` as one stream cut at the ascending element positions
/// `starts`: one scoped thread per share but the last, which the calling
/// thread draws after skipping every earlier share.
fn fill_split(rng: &mut StdRng, parts: &mut [NormalPart<'_>], starts: &[usize]) {
    let mut pending = parts.iter_mut().map(|(out, std)| (&mut **out, *std));
    let mut carry: Option<NormalPart<'_>> = None;
    std::thread::scope(|scope| {
        let mut at = 0;
        for &start in starts {
            let len = start.saturating_sub(at);
            let mut share = Vec::new();
            let mut need = len;
            while need > 0 {
                let Some((out, std)) = carry.take().or_else(|| pending.next()) else { break };
                if out.len() <= need {
                    need -= out.len();
                    share.push((out, std));
                } else {
                    let (head, tail) = out.split_at_mut(need);
                    share.push((head, std));
                    carry = Some((tail, std));
                    need = 0;
                }
            }
            let mut own = rng.clone();
            scope.spawn(move || fill_serial(&mut own, share));
            skip_standard_normal(rng, len);
            at += len;
        }
        fill_serial(rng, carry.into_iter().chain(pending));
    });
}

/// Advances `rng` exactly as `n` calls of [`standard_normal`] would (two
/// stream words per draw), without computing the variates.
pub fn skip_standard_normal(rng: &mut StdRng, n: usize) {
    for _ in 0..2 * n {
        rng.next_u64();
    }
}

/// Vector of i.i.d. `N(0, std²)` samples: a one-part [`fill_normal_parts`].
pub fn normal_vec(rng: &mut StdRng, len: usize, std: f32) -> Vec<f32> {
    let mut out = vec![0.0; len];
    fill_normal_parts(rng, &mut [(&mut out, std)]);
    out
}

/// Vector of i.i.d. `U(lo, hi)` samples.
pub fn uniform_vec(rng: &mut StdRng, len: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Xavier/Glorot-style scale for a `(fan_in, fan_out)` linear layer.
pub fn xavier_std(fan_in: usize, fan_out: usize) -> f32 {
    (2.0 / (fan_in + fan_out) as f32).sqrt()
}

/// A discrete distribution over table indices, built once and drawn from
/// many times: the normalizer that [`sample_categorical`] sums on every call
/// is summed here at construction, in the same order.
///
/// ```
/// use veda_tensor::rng::{sample_categorical, seeded, Categorical};
/// let weights = [0.1, 0.7, 0.2];
/// let table = Categorical::new(weights.to_vec()).unwrap();
/// let (mut a, mut b) = (seeded(3), seeded(3));
/// for _ in 0..100 {
///     assert_eq!(table.sample(&mut a), sample_categorical(&mut b, &weights));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    weights: Vec<f32>,
    total: f32,
}

impl Categorical {
    /// Builds the sampler for `weights` (unnormalized).
    ///
    /// # Errors
    ///
    /// Fails if the table is empty, holds a negative or non-finite weight, or
    /// sums to infinity or to less than `f32::MIN_POSITIVE` — zero, or a
    /// subnormal total that the draw's uniform (over at least
    /// `[0, f32::MIN_POSITIVE)`) would overshoot.
    pub fn new(weights: Vec<f32>) -> Result<Self, CategoricalError> {
        if weights.is_empty() {
            return Err(CategoricalError::Empty);
        }
        if let Some((index, &weight)) =
            weights.iter().enumerate().find(|(_, w)| !(w.is_finite() && **w >= 0.0))
        {
            return Err(CategoricalError::Weight { index, weight });
        }
        let total: f32 = weights.iter().sum();
        if !(total.is_finite() && total >= f32::MIN_POSITIVE) {
            return Err(CategoricalError::Total(total));
        }
        Ok(Self { weights, total })
    }

    /// Draws one index: one `f32` uniform from `rng`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        draw(rng, &self.weights, self.total)
    }

    /// The normalizer: the weights summed in index order.
    pub fn total(&self) -> f32 {
        self.total
    }
}

/// Samples an index from a discrete probability distribution (weights need
/// not be normalized): a one-shot [`Categorical`] draw that sums `probs` on
/// every call.
///
/// # Panics
///
/// Panics if `probs` is empty.
pub fn sample_categorical(rng: &mut StdRng, probs: &[f32]) -> usize {
    assert!(!probs.is_empty(), "sample_categorical: empty distribution");
    draw(rng, probs, probs.iter().sum())
}

/// The categorical draw of both entry points: a uniform in `[0, total)`,
/// then the subtract-and-compare walk over `probs` (the last index if the
/// walk runs out).
fn draw(rng: &mut StdRng, probs: &[f32], total: f32) -> usize {
    let mut t = rng.gen_range(0.0..total.max(f32::MIN_POSITIVE));
    for (i, &p) in probs.iter().enumerate() {
        if t < p {
            return i;
        }
        t -= p;
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_reproducible() {
        let a = normal_vec(&mut seeded(7), 16, 1.0);
        let b = normal_vec(&mut seeded(7), 16, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = normal_vec(&mut seeded(1), 16, 1.0);
        let b = normal_vec(&mut seeded(2), 16, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn standard_normal_moments_are_plausible() {
        let mut rng = seeded(42);
        let xs = normal_vec(&mut rng, 20_000, 1.0);
        let mean: f32 = xs.iter().sum::<f32>() / xs.len() as f32;
        let var: f32 = xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / xs.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    /// The reference: one [`standard_normal`] per element, times its part's
    /// `std`, in order; then the draw that follows.
    fn per_call(seed: u64, lens: &[usize], stds: &[f32]) -> (Vec<Vec<u32>>, u32) {
        let mut rng = seeded(seed);
        let bufs = lens
            .iter()
            .zip(stds)
            .map(|(&n, &std)| (0..n).map(|_| (standard_normal(&mut rng) * std).to_bits()).collect())
            .collect();
        (bufs, standard_normal(&mut rng).to_bits())
    }

    /// [`fill_split`] at `starts`, in the reference's shape.
    fn split(seed: u64, lens: &[usize], stds: &[f32], starts: &[usize]) -> (Vec<Vec<u32>>, u32) {
        let mut bufs: Vec<Vec<f32>> = lens.iter().map(|&n| vec![f32::NAN; n]).collect();
        let mut parts: Vec<NormalPart<'_>> =
            bufs.iter_mut().zip(stds).map(|(buf, &std)| (buf.as_mut_slice(), std)).collect();
        let mut rng = seeded(seed);
        fill_split(&mut rng, &mut parts, starts);
        let bits = bufs.iter().map(|buf| buf.iter().map(|z| z.to_bits()).collect()).collect();
        (bits, standard_normal(&mut rng).to_bits())
    }

    const LENS: [usize; 6] = [0, 1, 63, 64, 65, 129];
    const STDS: [f32; 6] = [0.5, 2.0, 1.0, 0.25, 3.0, 0.1];

    #[test]
    fn any_worker_count_draws_the_per_call_stream() {
        let total: usize = LENS.iter().sum();
        let expected = per_call(9, &LENS, &STDS);
        for workers in 1..=8 {
            let sized = share_starts(total, workers);
            assert_eq!(sized.len(), workers - 1);
            assert!(sized.windows(2).all(|w| w[0] <= w[1]) && sized.iter().all(|&s| s <= total));
            let even: Vec<usize> = (1..workers).map(|i| i * total / workers).collect();
            for starts in [sized, even] {
                assert_eq!(split(9, &LENS, &STDS, &starts), expected, "{workers} workers at {starts:?}");
            }
        }
    }

    #[test]
    fn every_two_way_cut_draws_the_per_call_stream() {
        // 200 draws over empty parts and parts on both sides of every cut.
        let lens = [0, 1, 63, 0, 64, 65, 7];
        let stds = [4.0, 0.5, 2.0, 1.0, 0.25, 3.0, 0.1];
        let expected = per_call(13, &lens, &stds);
        for cut in 0..=200 {
            assert_eq!(split(13, &lens, &stds, &[cut]), expected, "cut at {cut}");
        }
    }

    #[test]
    fn public_fills_draw_the_per_call_stream_on_both_sides_of_the_gate() {
        for total in [2 * MIN_SHARE - 1, 2 * MIN_SHARE + 5] {
            let lens = [0, total / 3, 1, total - total / 3 - 1];
            let stds = [1.0, 0.5, 2.0, 0.125];
            let (expected, next) = per_call(21, &lens, &stds);
            let mut bufs: Vec<Vec<f32>> = lens.iter().map(|&n| vec![f32::NAN; n]).collect();
            let mut parts: Vec<NormalPart<'_>> =
                bufs.iter_mut().zip(stds).map(|(buf, std)| (buf.as_mut_slice(), std)).collect();
            let mut rng = seeded(21);
            fill_normal_parts(&mut rng, &mut parts);
            let bits: Vec<Vec<u32>> = bufs.iter().map(|b| b.iter().map(|z| z.to_bits()).collect()).collect();
            assert!(bits == expected, "{total} draws");
            assert_eq!(standard_normal(&mut rng).to_bits(), next);
        }
    }

    #[test]
    fn uniform_vec_respects_bounds() {
        let xs = uniform_vec(&mut seeded(3), 1000, -0.5, 0.5);
        assert!(xs.iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn xavier_std_shrinks_with_width() {
        assert!(xavier_std(1024, 1024) < xavier_std(64, 64));
    }

    #[test]
    fn categorical_sampling_tracks_distribution() {
        let mut rng = seeded(11);
        let probs = [0.1, 0.7, 0.2];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[sample_categorical(&mut rng, &probs)] += 1;
        }
        assert!(counts[1] > counts[2] && counts[2] > counts[0]);
        let p1 = counts[1] as f32 / 10_000.0;
        assert!((p1 - 0.7).abs() < 0.03, "p1 {p1}");
    }

    #[test]
    fn categorical_handles_degenerate_distribution() {
        let mut rng = seeded(5);
        assert_eq!(sample_categorical(&mut rng, &[0.0, 0.0, 1.0]), 2);
        let table = Categorical::new(vec![0.0, 0.0, 1.0]).unwrap();
        assert_eq!(table.sample(&mut rng), 2);
    }

    #[test]
    fn categorical_rejects_tables_it_cannot_draw_from() {
        assert_eq!(Categorical::new(Vec::new()), Err(CategoricalError::Empty));
        for bad in [-0.5, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            match Categorical::new(vec![1.0, 2.0, bad]) {
                Err(CategoricalError::Weight { index: 2, weight }) => {
                    assert!(weight.to_bits() == bad.to_bits(), "{weight} vs {bad}")
                }
                other => panic!("weight {bad}: {other:?}"),
            }
        }
        assert_eq!(Categorical::new(vec![0.0; 4]), Err(CategoricalError::Total(0.0)));
        assert_eq!(Categorical::new(vec![f32::MAX; 2]), Err(CategoricalError::Total(f32::INFINITY)));
        // A subnormal total would be drawn over [0, MIN_POSITIVE) and fall
        // off the table; subnormal weights beside a normal total are fine.
        let subnormal = f32::from_bits(1);
        assert_eq!(Categorical::new(vec![subnormal, 0.0]), Err(CategoricalError::Total(subnormal)));
        assert!(Categorical::new(vec![subnormal, f32::MIN_POSITIVE]).is_ok());
    }

    #[test]
    fn categorical_total_is_the_index_order_sum() {
        let weights = vec![1.0e8, 1.0, -0.0, 3.5, 1.0e-3];
        let table = Categorical::new(weights.clone()).unwrap();
        assert_eq!(table.total().to_bits(), weights.iter().sum::<f32>().to_bits());
    }
}
