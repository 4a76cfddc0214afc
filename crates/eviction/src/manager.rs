//! Policy-driven cache simulation over attention-score streams.
//!
//! [`CacheSimulator`] tracks *which absolute token positions are resident*
//! under a policy and a cache budget, without storing any actual K/V data.
//! It is the glue used by the quality experiments (drive a policy over an
//! attention trace and ask "what survived?") and by the functional model,
//! which keeps its K/V matrices in lockstep with the simulator's resident
//! set.

use crate::policy::EvictionPolicy;
use crate::stats::EvictionStats;

/// Outcome of one simulated token step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimulatedStep {
    /// Absolute index of the token appended this step.
    pub appended: usize,
    /// Absolute index of the token evicted this step, if any.
    pub evicted: Option<usize>,
}

/// Drives an [`EvictionPolicy`] over a stream of attention observations,
/// maintaining the resident set and eviction statistics.
///
/// ```
/// use veda_eviction::{CacheSimulator, SlidingWindowPolicy};
///
/// let mut sim = CacheSimulator::new(Box::new(SlidingWindowPolicy::new(1)), 2);
/// sim.step(0, &[vec![1.0]]);
/// sim.step(1, &[vec![0.5, 0.5]]);
/// let s = sim.step(2, &[vec![0.2, 0.3, 0.5]]);
/// assert!(s.evicted.is_some());
/// assert_eq!(sim.resident().len(), 2);
/// ```
pub struct CacheSimulator {
    policy: Box<dyn EvictionPolicy>,
    budget: usize,
    resident: Vec<usize>,
    next_token: usize,
    stats: EvictionStats,
    /// Reusable flat observation buffer (heads concatenated) so repeated
    /// steps do not reallocate.
    flat_scores: Vec<f32>,
}

impl CacheSimulator {
    /// Creates a simulator with the given policy and cache budget
    /// (maximum number of resident kv vectors).
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn new(policy: Box<dyn EvictionPolicy>, budget: usize) -> Self {
        assert!(budget > 0, "cache budget must be positive");
        Self {
            policy,
            budget,
            resident: Vec::new(),
            next_token: 0,
            stats: EvictionStats::default(),
            flat_scores: Vec::new(),
        }
    }

    /// Absolute token indices currently resident, oldest first.
    pub fn resident(&self) -> &[usize] {
        &self.resident
    }

    /// Accumulated eviction statistics.
    pub fn stats(&self) -> &EvictionStats {
        &self.stats
    }

    /// Processes one token: appends it, feeds the observation (scores over
    /// the *resident* slots, per head), and evicts if over budget.
    ///
    /// `scores[h].len()` must equal `resident().len() + 1` (the new token is
    /// part of the cache when it attends).
    ///
    /// # Panics
    ///
    /// Panics if score lengths disagree with the resident set.
    pub fn step(&mut self, token_idx: usize, scores: &[Vec<f32>]) -> SimulatedStep {
        self.resident.push(token_idx);
        self.policy.on_append();
        for head in scores {
            assert_eq!(
                head.len(),
                self.resident.len(),
                "observation length {} != resident {} (policy {})",
                head.len(),
                self.resident.len(),
                self.policy.name()
            );
        }
        crate::score::observe_heads_into(self.policy.as_mut(), scores, &mut self.flat_scores);
        self.next_token = token_idx + 1;

        let mut evicted = None;
        if self.resident.len() > self.budget {
            if let Some(slot) = self.policy.select_victim(self.resident.len()) {
                let abs = self.resident.remove(slot);
                self.policy.on_evict(slot);
                self.stats.record_eviction(token_idx, abs);
                evicted = Some(abs);
            } else {
                self.stats.record_refusal();
            }
        }
        debug_assert_eq!(self.policy.tracked_len(), self.resident.len(), "policy state desync");
        SimulatedStep { appended: token_idx, evicted }
    }

    /// Convenience for trace-driven simulation: the caller has scores over
    /// *all* absolute positions `0..=token_idx`; this projects them onto the
    /// resident set (plus the new token) and renormalizes each head to sum
    /// to one, modelling softmax over the surviving keys only.
    pub fn step_from_full_scores(&mut self, token_idx: usize, full_scores: &[Vec<f32>]) -> SimulatedStep {
        let mut projected: Vec<Vec<f32>> = Vec::with_capacity(full_scores.len());
        for head in full_scores {
            assert!(head.len() > token_idx, "full score vector shorter than token index");
            let mut proj: Vec<f32> = self.resident.iter().map(|&abs| head[abs]).collect();
            proj.push(head[token_idx]);
            let sum = veda_tensor::stats::sum(&proj);
            if sum > 0.0 {
                for v in &mut proj {
                    *v /= sum;
                }
            }
            projected.push(proj);
        }
        self.step(token_idx, &projected)
    }

    /// Resets policy, resident set and statistics.
    pub fn reset(&mut self) {
        self.policy.reset();
        self.resident.clear();
        self.next_token = 0;
        self.stats = EvictionStats::default();
    }
}

impl std::fmt::Debug for CacheSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheSimulator")
            .field("policy", &self.policy.name())
            .field("budget", &self.budget)
            .field("resident_len", &self.resident.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;

    fn uniform_scores(len: usize) -> Vec<Vec<f32>> {
        vec![vec![1.0 / len as f32; len]]
    }

    #[test]
    fn respects_budget() {
        let mut sim = CacheSimulator::new(PolicyKind::H2o.build(), 4);
        for t in 0..20 {
            sim.step(t, &uniform_scores(sim.resident().len() + 1));
            assert!(sim.resident().len() <= 4);
        }
        assert!(sim.stats().to_string().starts_with("16 evictions"));
    }

    #[test]
    fn full_policy_never_evicts_but_grows() {
        let mut sim = CacheSimulator::new(PolicyKind::Full.build(), 2);
        for t in 0..10 {
            let s = sim.step(t, &uniform_scores(sim.resident().len() + 1));
            assert_eq!(s.evicted, None);
        }
        assert_eq!(sim.resident().len(), 10);
        assert!(sim.stats().to_string().ends_with(", 8 refusals"));
    }

    #[test]
    fn sliding_window_keeps_sink_and_recent() {
        let mut sim = CacheSimulator::new(Box::new(crate::SlidingWindowPolicy::new(2)), 5);
        for t in 0..30 {
            sim.step(t, &uniform_scores(sim.resident().len() + 1));
        }
        let resident = sim.resident();
        assert_eq!(&resident[..2], &[0, 1], "sink retained");
        assert_eq!(&resident[2..], &[27, 28, 29], "recent window retained");
    }

    #[test]
    fn step_from_full_scores_projects_and_renormalizes() {
        let mut sim = CacheSimulator::new(PolicyKind::H2o.build(), 2);
        // Token 0, 1 resident; token 2 arrives with scores over all three.
        sim.step_from_full_scores(0, &[vec![1.0, 0.0, 0.0]]);
        sim.step_from_full_scores(1, &[vec![0.5, 0.5, 0.0]]);
        let s = sim.step_from_full_scores(2, &[vec![0.2, 0.2, 0.6]]);
        assert!(s.evicted.is_some());
        assert_eq!(sim.resident().len(), 2);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut sim = CacheSimulator::new(PolicyKind::Voting.build(), 3);
        for t in 0..8 {
            sim.step(t, &uniform_scores(sim.resident().len() + 1));
        }
        sim.reset();
        assert!(sim.resident().is_empty());
        assert!(sim.stats().to_string().starts_with("0 evictions"));
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_rejected() {
        CacheSimulator::new(PolicyKind::Full.build(), 0);
    }

    #[test]
    #[should_panic(expected = "observation length")]
    fn mismatched_scores_panic() {
        let mut sim = CacheSimulator::new(PolicyKind::H2o.build(), 4);
        sim.step(0, &[vec![0.5, 0.5]]);
    }
}
