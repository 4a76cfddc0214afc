//! The offline eviction drive.
//!
//! [`CacheSimulator`] is the one place the offline protocol (append →
//! observe → evict, [`crate::policy`]) runs. It tracks *which absolute
//! token positions are resident* under a policy and a cache budget,
//! without storing any K/V data. Every offline evaluation drives its
//! policy through it — `InductionLm`'s perplexity, the transformer
//! distortion metric, the property tests and `examples/eviction_lab.rs` —
//! and removes from its own per-slot data the slot each step reports. The
//! engine's online eviction, which selects many victims per layer and
//! compacts them once, does not go through here.

use crate::policy::EvictionPolicy;
use crate::score::ScoreView;
use crate::stats::EvictionStats;

/// Drives a borrowed [`EvictionPolicy`] over a stream of attention
/// observations, maintaining the resident set and eviction statistics.
/// The policy is borrowed so the caller can read its state (such as
/// `VotingPolicy::stats`) after the drive.
///
/// ```
/// use veda_eviction::{CacheSimulator, ScoreView, SlidingWindowPolicy};
///
/// let mut window = SlidingWindowPolicy::new(1);
/// let mut sim = CacheSimulator::new(&mut window, 2);
/// assert_eq!(sim.step(Some(ScoreView::single(&[1.0]))), None);
/// assert!(!sim.reads_scores()); // so the scores may be left out
/// assert_eq!(sim.step(None), None);
/// assert_eq!(sim.step(None), Some(1)); // slot 1 (token 1) leaves
/// assert_eq!(sim.resident(), &[0, 2]);
/// ```
pub struct CacheSimulator<'p> {
    policy: &'p mut dyn EvictionPolicy,
    budget: usize,
    resident: Vec<usize>,
    next_token: usize,
    stats: EvictionStats,
}

impl<'p> CacheSimulator<'p> {
    /// Starts an empty cache of at most `budget` resident entries under
    /// `policy`, which is reset. A budget of 0 evicts on every step.
    pub fn new(policy: &'p mut dyn EvictionPolicy, budget: usize) -> Self {
        policy.reset();
        Self { policy, budget, resident: Vec::new(), next_token: 0, stats: EvictionStats::default() }
    }

    /// Absolute token indices currently resident, oldest first.
    pub fn resident(&self) -> &[usize] {
        &self.resident
    }

    /// Accumulated eviction statistics.
    pub fn stats(&self) -> &EvictionStats {
        &self.stats
    }

    /// Whether the policy reads its observations
    /// ([`EvictionPolicy::reads_scores`]). When it does not, a caller may
    /// skip computing them and pass `None` to [`CacheSimulator::step`].
    pub fn reads_scores(&self) -> bool {
        self.policy.reads_scores()
    }

    /// Processes the next token (absolute index = tokens stepped so far):
    /// appends it, hands the policy `scores` — the token's attention over
    /// the resident slots, its own slot last — and evicts one entry if the
    /// cache is over budget. A policy that does not read scores is not
    /// handed them.
    ///
    /// Returns the victim's slot, its index in [`CacheSimulator::resident`]
    /// before this step removed it, so a caller that keeps per-slot data
    /// removes the same one. `None` when the cache was within budget or the
    /// policy refused.
    ///
    /// # Panics
    ///
    /// Panics if the policy reads scores and `scores` is `None`, or if
    /// `scores` does not cover every resident slot.
    pub fn step(&mut self, scores: Option<ScoreView<'_>>) -> Option<usize> {
        let token = self.next_token;
        self.next_token += 1;
        self.resident.push(token);
        self.policy.on_append();
        if let Some(scores) = scores {
            assert_eq!(
                scores.len(),
                self.resident.len(),
                "observation length {} != resident {} (policy {})",
                scores.len(),
                self.resident.len(),
                self.policy.name()
            );
            if self.policy.reads_scores() {
                self.policy.observe(scores);
            }
        } else if self.policy.reads_scores() {
            panic!("policy {} reads scores, but the step has no observation", self.policy.name());
        }

        if self.resident.len() <= self.budget {
            return None;
        }
        let cache_len = self.resident.len();
        let victim = self.policy.select_victim(cache_len);
        match victim {
            Some(slot) => {
                let evicted = self.resident.remove(slot);
                self.policy.on_evict(slot);
                self.stats.record_eviction(token, evicted, slot, cache_len);
            }
            None => self.stats.record_refusal(),
        }
        debug_assert_eq!(self.policy.tracked_len(), self.resident.len(), "policy state desync");
        victim
    }

    /// Resets policy, resident set and statistics.
    pub fn reset(&mut self) {
        self.policy.reset();
        self.resident.clear();
        self.next_token = 0;
        self.stats = EvictionStats::default();
    }
}

impl std::fmt::Debug for CacheSimulator<'_> {
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

    /// Steps `sim` once with uniform single-head scores over its cache.
    fn step_uniform(sim: &mut CacheSimulator<'_>) -> Option<usize> {
        let len = sim.resident().len() + 1;
        let scores = vec![1.0 / len as f32; len];
        sim.step(Some(ScoreView::single(&scores)))
    }

    #[test]
    fn respects_budget() {
        let mut h2o = PolicyKind::H2o.build();
        let mut sim = CacheSimulator::new(h2o.as_mut(), 4);
        for _ in 0..20 {
            step_uniform(&mut sim);
            assert!(sim.resident().len() <= 4);
        }
        assert!(sim.stats().to_string().starts_with("16 evictions"));
    }

    #[test]
    fn full_policy_never_evicts_but_grows() {
        // The refusing policy: over budget every step, never a victim.
        let mut full = PolicyKind::Full.build();
        let mut sim = CacheSimulator::new(full.as_mut(), 2);
        for _ in 0..10 {
            assert_eq!(step_uniform(&mut sim), None);
        }
        assert_eq!(sim.resident().len(), 10);
        assert!(sim.stats().to_string().ends_with(", 8 refusals"));
    }

    #[test]
    fn sliding_window_keeps_sink_and_recent() {
        let mut window = crate::SlidingWindowPolicy::new(2);
        let mut sim = CacheSimulator::new(&mut window, 5);
        for _ in 0..30 {
            step_uniform(&mut sim);
        }
        let resident = sim.resident();
        assert_eq!(&resident[..2], &[0, 1], "sink retained");
        assert_eq!(&resident[2..], &[27, 28, 29], "recent window retained");
    }

    #[test]
    fn a_score_free_policy_evicts_the_same_with_or_without_scores() {
        let (mut with, mut without) = (PolicyKind::SlidingWindow.build(), PolicyKind::SlidingWindow.build());
        let mut observed = CacheSimulator::new(with.as_mut(), 6);
        let mut blind = CacheSimulator::new(without.as_mut(), 6);
        assert!(!blind.reads_scores());
        for _ in 0..24 {
            assert_eq!(step_uniform(&mut observed), blind.step(None));
        }
        assert_eq!(observed.resident(), blind.resident());
        assert_eq!(observed.stats(), blind.stats());
    }

    #[test]
    fn steps_report_the_victims_slot() {
        // A window with a 1-token sink always evicts slot 1, so the
        // resident set before each step says which token left.
        let mut window = crate::SlidingWindowPolicy::new(1);
        let mut sim = CacheSimulator::new(&mut window, 3);
        for token in 0..8 {
            let before = sim.resident().to_vec();
            match sim.step(None) {
                Some(slot) => {
                    assert_eq!(slot, 1);
                    assert_eq!(sim.resident(), &[&before[..slot], &before[slot + 1..], &[token]].concat());
                }
                None => assert!(token < 3),
            }
        }
        assert_eq!(sim.stats().evictions_at(1), 5);
        assert_eq!(sim.stats().evictions_at(0), 0);
    }

    #[test]
    fn zero_budget_evicts_on_every_step() {
        let mut h2o = PolicyKind::H2o.build();
        let mut sim = CacheSimulator::new(h2o.as_mut(), 0);
        for _ in 0..5 {
            assert_eq!(step_uniform(&mut sim), Some(0));
            assert!(sim.resident().is_empty());
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut voting = PolicyKind::Voting.build();
        let mut sim = CacheSimulator::new(voting.as_mut(), 3);
        for _ in 0..8 {
            step_uniform(&mut sim);
        }
        sim.reset();
        assert!(sim.resident().is_empty());
        assert!(sim.stats().to_string().starts_with("0 evictions"));
        assert_eq!(step_uniform(&mut sim), None);
        assert_eq!(sim.resident(), &[0]);
    }

    #[test]
    #[should_panic(expected = "observation length")]
    fn mismatched_scores_panic() {
        let mut h2o = PolicyKind::H2o.build();
        let mut sim = CacheSimulator::new(h2o.as_mut(), 4);
        sim.step(Some(ScoreView::single(&[0.5, 0.5])));
    }

    #[test]
    #[should_panic(expected = "reads scores")]
    fn a_scoring_policy_without_scores_panics() {
        let mut voting = PolicyKind::Voting.build();
        let mut sim = CacheSimulator::new(voting.as_mut(), 4);
        sim.step(None);
    }
}
