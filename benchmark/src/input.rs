//! The seeded input generator. `--seed` reaches the program only through
//! the inputs made here.
//!
//! Two streams, kept apart on purpose. *Shapes* — prompt and output
//! lengths, arrival ticks, priorities — are catalogue constants drawn from
//! [`SHAPE_STREAM`], so the modelled accelerator does the same amount of
//! work under every seed and the virtual-time metrics of two runs compare
//! exactly (a serving cluster at its knee is chaotic in its arrival
//! stream: the same rate under another stream moves p99 TTFT five-fold).
//! *Contents* — every token id the model reads — are drawn from `--seed`,
//! so no run can be tuned to one token sequence, host time sees fresh
//! data, and the accuracy workload scores held-out samples picked by the
//! seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream the workload shapes are drawn from; a constant of the catalogue.
pub const SHAPE_STREAM: u64 = 7;

/// The content generator of one workload under one seed. `tag` separates
/// workloads so that two of them never read the same token sequence.
pub fn content_rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// The shape generator of one workload (independent of `--seed`).
pub fn shape_rng(tag: u64) -> StdRng {
    StdRng::seed_from_u64(SHAPE_STREAM ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// `len` token ids in `1..vocab` (0 is BOS in the synthetic corpora).
pub fn tokens(rng: &mut StdRng, len: usize, vocab: usize) -> Vec<usize> {
    (0..len).map(|_| rng.gen_range(1..vocab)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tokens() {
        let a = tokens(&mut content_rng(7, 1), 64, 4096);
        let b = tokens(&mut content_rng(7, 1), 64, 4096);
        assert_eq!(a, b);
        assert!(a.iter().all(|&t| (1..4096).contains(&t)));
    }

    #[test]
    fn seeds_and_workloads_are_independent() {
        let base = tokens(&mut content_rng(7, 1), 64, 4096);
        for (seed, tag) in [(8, 1), (7, 2), (0, 1), (u64::MAX, 1)] {
            let other = tokens(&mut content_rng(seed, tag), 64, 4096);
            let same = base.iter().zip(&other).filter(|(a, b)| a == b).count();
            assert!(same <= 2, "seed {seed} tag {tag}: {same} of 64 tokens coincide");
        }
    }

    #[test]
    fn shapes_do_not_depend_on_the_seed() {
        let draw = || {
            let mut rng = shape_rng(3);
            (0..8).map(|_| rng.gen_range(32..=64usize)).collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
        let mut other = shape_rng(4);
        assert_ne!(draw(), (0..8).map(|_| other.gen_range(32..=64usize)).collect::<Vec<_>>());
    }
}
