//! Deterministic pseudo-random eviction baseline.
//!
//! Useful as a statistical floor in quality experiments: any score-driven
//! policy should beat it. Uses an internal SplitMix64 generator so the crate
//! stays dependency-free and the policy is reproducible from its seed.

use crate::policy::EvictionPolicy;
use crate::score::ScoreView;

/// Evicts a uniformly pseudo-random non-sink slot.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    state: u64,
    sink_len: usize,
    len: usize,
}

impl RandomPolicy {
    /// Creates a seeded random policy with no protected sink.
    pub fn new(seed: u64) -> Self {
        Self { state: seed, sink_len: 0, len: 0 }
    }

    /// Creates a seeded random policy protecting the first `sink_len` slots.
    pub fn with_sink(seed: u64, sink_len: usize) -> Self {
        Self { state: seed, sink_len, len: 0 }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl EvictionPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn on_append(&mut self) {
        self.len += 1;
    }

    fn observe(&mut self, _scores: ScoreView<'_>) {}

    fn reads_scores(&self) -> bool {
        false
    }

    fn select_victim(&mut self, cache_len: usize) -> Option<usize> {
        debug_assert_eq!(cache_len, self.len, "cache/policy desync");
        if cache_len <= self.sink_len {
            return None;
        }
        let span = (cache_len - self.sink_len) as u64;
        Some(self.sink_len + (self.next_u64() % span) as usize)
    }

    fn on_evict(&mut self, _idx: usize) {
        self.len = self.len.saturating_sub(1);
    }

    fn reset(&mut self) {
        self.len = 0;
    }

    fn tracked_len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_victims() {
        let mut a = RandomPolicy::new(7);
        let mut b = RandomPolicy::new(7);
        for _ in 0..50 {
            a.on_append();
            b.on_append();
        }
        for _ in 0..10 {
            assert_eq!(a.select_victim(50), b.select_victim(50));
        }
    }

    #[test]
    fn victims_stay_in_range_and_outside_sink() {
        let mut p = RandomPolicy::with_sink(3, 5);
        for _ in 0..20 {
            p.on_append();
        }
        for _ in 0..100 {
            let v = p.select_victim(20).unwrap();
            assert!((5..20).contains(&v));
        }
    }

    #[test]
    fn refuses_when_all_sink() {
        let mut p = RandomPolicy::with_sink(1, 4);
        for _ in 0..3 {
            p.on_append();
        }
        assert_eq!(p.select_victim(3), None);
    }

    #[test]
    fn victims_are_spread_out() {
        let mut p = RandomPolicy::new(42);
        for _ in 0..10 {
            p.on_append();
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(p.select_victim(10).unwrap());
        }
        assert!(seen.len() >= 8, "only {} distinct victims", seen.len());
    }
}
