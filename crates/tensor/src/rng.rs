//! Seeded random initialization helpers.
//!
//! Every stochastic component of the reproduction draws from a seeded
//! [`rand::rngs::StdRng`], so all experiments are bit-for-bit reproducible.

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
/// [`fill_standard_normal`].
const FILL_BLOCK: usize = 64;

/// Fills `out` with standard normal variates: bit-equal to calling
/// [`standard_normal`] once per element, in order, and leaving `rng` in the
/// same state. The uniforms of a 64-element block are drawn first, then the
/// unchanged Box–Muller expression runs over them, so the generator's
/// serial dependency chain no longer interleaves with `ln`/`cos`.
pub fn fill_standard_normal(rng: &mut StdRng, out: &mut [f32]) {
    let mut uniforms = [(0.0f32, 0.0f32); FILL_BLOCK];
    for block in out.chunks_mut(FILL_BLOCK) {
        for (pair, _) in uniforms.iter_mut().zip(block.iter()) {
            *pair = box_muller_uniforms(rng);
        }
        for (z, &(u1, u2)) in block.iter_mut().zip(&uniforms) {
            *z = box_muller(u1, u2);
        }
    }
}

/// Advances `rng` exactly as `n` calls of [`standard_normal`] would (two
/// stream words per draw), without computing the variates.
pub fn skip_standard_normal(rng: &mut StdRng, n: usize) {
    for _ in 0..2 * n {
        rng.next_u64();
    }
}

/// Vector of i.i.d. `N(0, std²)` samples.
pub fn normal_vec(rng: &mut StdRng, len: usize, std: f32) -> Vec<f32> {
    let mut out = vec![0.0; len];
    fill_standard_normal(rng, &mut out);
    for z in &mut out {
        *z *= std;
    }
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

/// Samples an index from a discrete probability distribution.
///
/// # Panics
///
/// Panics if `probs` is empty.
pub fn sample_categorical(rng: &mut StdRng, probs: &[f32]) -> usize {
    assert!(!probs.is_empty(), "sample_categorical: empty distribution");
    let total: f32 = probs.iter().sum();
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
    }
}
