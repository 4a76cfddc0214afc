//! The VEDA voting-based eviction algorithm (Section III, Fig. 3).
//!
//! Every generated token is a *voter*. Alongside the attention-score vector
//! `s'(i)` of step `i`, an adaptive threshold
//!
//! ```text
//! T(i) = a · mean(s'(i)) − b · σ(s'(i))
//! ```
//!
//! is computed. Every cache position whose score falls below `T(i)` receives
//! one vote; if the threshold is not positive the single minimum-score
//! position receives the vote instead. When the cache exceeds its budget,
//! the position with the highest vote count is evicted (earliest position on
//! ties). The first `reserved_len` steps cast no votes, and the first
//! `reserved_len` positions are never evicted — the attention-sink
//! reservation that lower-bounds the cache.
//!
//! The three biases of accumulation-based eviction are addressed by
//! construction:
//!
//! * **item-count bias** — recent positions have had fewer chances to be
//!   voted against, so they are *less* likely to be evicted, not more;
//! * **criteria bias** — the threshold adapts to each step's own score
//!   distribution (rows with few items have higher means and thus higher
//!   thresholds);
//! * **outlier bias** — a vote is worth 1 regardless of score magnitude.

use crate::policy::EvictionPolicy;
use crate::score::ScoreView;

/// Hyper-parameters of the voting algorithm.
///
/// Defaults follow the paper: `a = 1.0`, `b = 0.2`, reserved length 32,
/// 16-bit saturating vote counters (the hardware vote buffer is
/// 4096 × 16 bit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VotingConfig {
    /// Mean coefficient `a` of the threshold.
    pub a: f32,
    /// Standard-deviation coefficient `b` of the threshold.
    pub b: f32,
    /// Reserved prefix length `R`: steps before which no voting occurs and
    /// positions that are never evicted (attention sink).
    pub reserved_len: usize,
    /// Whether votes are accumulated layer-wise across heads (paper
    /// behaviour) or from the head-averaged score vector only. `true`
    /// means each head votes independently and votes are summed.
    pub per_head_votes: bool,
}

impl Default for VotingConfig {
    fn default() -> Self {
        // Section V: "Voting operates layer-wise, meaning that all heads
        // are aggregated and averaged" — one vote round per step on the
        // head-averaged score vector.
        Self { a: 1.0, b: 0.2, reserved_len: 32, per_head_votes: false }
    }
}

impl VotingConfig {
    /// Paper defaults with a custom reserved length.
    pub fn with_reserved_len(reserved_len: usize) -> Self {
        Self { reserved_len, ..Self::default() }
    }

    /// Paper defaults with custom threshold coefficients.
    pub fn with_coefficients(a: f32, b: f32) -> Self {
        Self { a, b, ..Self::default() }
    }

    /// Rejects coefficients under which the threshold is not the paper's
    /// `T = a·mean − b·σ`: a non-finite `a` or `b` makes every comparison
    /// false (each step silently becomes the minimum fallback), and a
    /// negative one flips the sign of its term.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [("a", self.a), ("b", self.b)] {
            if !value.is_finite() || value < 0.0 {
                return Err(format!("voting coefficient {name} = {value} must be finite and non-negative"));
            }
        }
        Ok(())
    }

    /// The adaptive threshold `T = a·mean − b·σ` for one score vector.
    pub fn threshold(&self, scores: &[f32]) -> f32 {
        let mut m = veda_tensor::norm::StreamingMoments::new();
        for &s in scores {
            m.push(s);
        }
        m.voting_threshold(self.a, self.b)
    }
}

/// What the vote rounds of one sequence did, so a perplexity can be read
/// beside how often the adaptive threshold was actually in force.
///
/// A *round* is one score vector voted on: one per step layer-wise, one per
/// head per step with [`VotingConfig::per_head_votes`]. Steps inside the
/// reserved stage, and rounds whose votable span is empty, are not rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VoteStats {
    /// Vote rounds.
    pub rounds: u64,
    /// Rounds that cast the single minimum-score vote because the
    /// threshold was not positive or no votable score lay below it.
    pub fallback_rounds: u64,
    /// Votes cast (a vote on a saturated counter is still cast).
    pub votes_cast: u64,
    /// Votable slots summed over the rounds: `votes_cast / votable` is the
    /// vote density.
    pub votable: u64,
}

impl VoteStats {
    /// Share of rounds that fell back to the single minimum vote; 0 before
    /// the first round.
    pub fn fallback_rate(&self) -> f64 {
        self.fallback_rounds as f64 / self.rounds.max(1) as f64
    }

    /// Mean votes per round; 0 before the first round.
    pub fn votes_per_round(&self) -> f64 {
        self.votes_cast as f64 / self.rounds.max(1) as f64
    }
}

impl std::ops::AddAssign for VoteStats {
    /// Pools the rounds of two sequences.
    fn add_assign(&mut self, other: Self) {
        self.rounds += other.rounds;
        self.fallback_rounds += other.fallback_rounds;
        self.votes_cast += other.votes_cast;
        self.votable += other.votable;
    }
}

/// Votes cast by a single score vector under a threshold: the list of voted
/// slots. Implements the `T ≤ 0 → vote for the minimum` fallback. This is
/// the allocating reference; [`VotingPolicy`] counts the same votes in
/// place.
pub fn votes_for(scores: &[f32], threshold: f32) -> Vec<usize> {
    if scores.is_empty() {
        return Vec::new();
    }
    if threshold > 0.0 {
        let below: Vec<usize> =
            scores.iter().enumerate().filter(|(_, &s)| s < threshold).map(|(j, _)| j).collect();
        if !below.is_empty() {
            return below;
        }
    }
    // Threshold non-positive (or nothing below it): vote for the minimum.
    vec![veda_tensor::stats::argmin(scores).expect("non-empty scores")]
}

/// The voting-based eviction policy.
///
/// See the [module documentation](self) for the algorithm and
/// [`crate::policy`] for the driving protocol.
#[derive(Debug, Clone)]
pub struct VotingPolicy {
    config: VotingConfig,
    /// Saturating per-slot vote counters (hardware: 16-bit buffer).
    votes: Vec<u16>,
    /// Number of observe() calls so far (the step index `i` of Fig. 3).
    steps_observed: usize,
    /// Reusable head-average buffer: steady-state observation allocates
    /// nothing once its capacity is warm.
    avg_scratch: Vec<f32>,
    stats: VoteStats,
}

impl VotingPolicy {
    /// Creates a policy with the given configuration.
    pub fn new(config: VotingConfig) -> Self {
        Self {
            config,
            votes: Vec::new(),
            steps_observed: 0,
            avg_scratch: Vec::new(),
            stats: VoteStats::default(),
        }
    }

    /// Current vote counts per cache slot (diagnostic / hardware mirror).
    pub fn vote_counts(&self) -> &[u16] {
        &self.votes
    }

    /// Vote statistics since construction or the last
    /// [`EvictionPolicy::reset`].
    pub fn stats(&self) -> VoteStats {
        self.stats
    }

    /// One vote round: [`votes_for`] over the votable span, counted into
    /// the vote buffer in place.
    fn cast_votes(&mut self, scores: &[f32]) {
        // Reserved positions take no part in voting: they can never be
        // evicted, so votes for them would be discarded — worse, the
        // minimum-score fallback would waste its single vote on a reserved
        // slot and leave the evictable region vote-free.
        let lo = self.config.reserved_len.min(scores.len());
        let (_, votable) = scores.split_at(lo);
        if votable.is_empty() {
            return;
        }
        let threshold = self.config.threshold(scores);
        // The protocol keeps one counter per score; a shorter buffer just
        // drops the votes it has no counter for.
        let counters = self.votes.get_mut(lo..).unwrap_or_default();
        let mut cast = 0u64;
        if threshold > 0.0 {
            for (count, &s) in counters.iter_mut().zip(votable) {
                let vote = u16::from(s < threshold);
                *count = count.saturating_add(vote);
                cast += u64::from(vote);
            }
        }
        if cast == 0 {
            // Threshold non-positive (or nothing below it): vote for the
            // minimum.
            if let Some(count) = veda_tensor::stats::argmin(votable).and_then(|j| counters.get_mut(j)) {
                *count = count.saturating_add(1);
            }
            cast = 1;
            self.stats.fallback_rounds += 1;
        }
        self.stats.rounds += 1;
        self.stats.votes_cast += cast;
        self.stats.votable += votable.len() as u64;
    }
}

impl EvictionPolicy for VotingPolicy {
    fn name(&self) -> &'static str {
        "voting"
    }

    fn on_append(&mut self) {
        self.votes.push(0);
    }

    fn observe(&mut self, scores: ScoreView<'_>) {
        self.steps_observed += 1;
        // Reserved stage: the first R steps cast no votes (Fig. 3 line
        // "if (i < R) break").
        if self.steps_observed <= self.config.reserved_len {
            return;
        }
        if self.config.per_head_votes {
            for head in scores.heads() {
                self.cast_votes(head);
            }
        } else {
            // Take the scratch out so `cast_votes` can borrow `self`
            // mutably; moving a Vec does not allocate.
            let mut avg = std::mem::take(&mut self.avg_scratch);
            scores.average_into(&mut avg);
            self.cast_votes(&avg);
            self.avg_scratch = avg;
        }
    }

    fn select_victim(&mut self, cache_len: usize) -> Option<usize> {
        debug_assert_eq!(cache_len, self.votes.len(), "cache/policy desync");
        let lo = self.config.reserved_len.min(cache_len);
        if lo >= cache_len {
            return None;
        }
        // Highest vote count wins; earliest position on ties (Section III:
        // "the earliest position is selected").
        let mut best = lo;
        for j in lo + 1..cache_len {
            if self.votes[j] > self.votes[best] {
                best = j;
            }
        }
        Some(best)
    }

    fn on_evict(&mut self, idx: usize) {
        self.votes.remove(idx);
    }

    fn reset(&mut self) {
        self.votes.clear();
        self.steps_observed = 0;
        self.stats = VoteStats::default();
    }

    fn tracked_len(&self) -> usize {
        self.votes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(policy: &mut VotingPolicy, heads: &[Vec<f32>]) {
        policy.observe(ScoreView::new(&heads.concat(), heads.len()));
    }

    #[test]
    fn threshold_is_mean_minus_scaled_sigma() {
        let cfg = VotingConfig::with_coefficients(1.0, 0.5);
        // mean = 0.25, sigma of [0.1,0.4] around 0.25 = 0.15
        let t = cfg.threshold(&[0.1, 0.4]);
        assert!((t - (0.25 - 0.5 * 0.15)).abs() < 1e-5);
    }

    #[test]
    fn uniform_scores_vote_for_minimum_only() {
        // Uniform distribution: sigma = 0, T = mean; nothing strictly below
        // the mean except... nothing, so the min fallback triggers.
        let votes = votes_for(&[0.25, 0.25, 0.25, 0.25], 0.25);
        assert_eq!(votes, vec![0]);
    }

    #[test]
    fn sparse_scores_vote_for_small_entries() {
        // One dominant score: threshold falls well below it; tiny scores
        // below threshold get voted.
        let scores = [0.9, 0.02, 0.02, 0.06];
        let cfg = VotingConfig::default();
        let t = cfg.threshold(&scores);
        let votes = votes_for(&scores, t);
        assert!(votes.contains(&1) && votes.contains(&2), "votes = {votes:?}, t = {t}");
        assert!(!votes.contains(&0));
    }

    #[test]
    fn negative_threshold_falls_back_to_minimum() {
        let votes = votes_for(&[0.5, 0.1, 0.4], -1.0);
        assert_eq!(votes, vec![1]);
    }

    #[test]
    fn reserved_steps_cast_no_votes() {
        let mut p = VotingPolicy::new(VotingConfig::with_reserved_len(2));
        for _ in 0..3 {
            p.on_append();
        }
        drive(&mut p, &[vec![0.9, 0.05, 0.05]]);
        drive(&mut p, &[vec![0.9, 0.05, 0.05]]);
        assert!(p.vote_counts().iter().all(|&v| v == 0), "no votes during reserved stage");
        drive(&mut p, &[vec![0.9, 0.05, 0.05]]);
        assert!(p.vote_counts().iter().any(|&v| v > 0), "votes after reserved stage");
    }

    #[test]
    fn reserved_positions_never_evicted() {
        let mut p = VotingPolicy::new(VotingConfig::with_reserved_len(2));
        for _ in 0..5 {
            p.on_append();
        }
        // Make position 0 maximally voted — it must still not be selected.
        for _ in 0..10 {
            drive(&mut p, &[vec![0.01, 0.01, 0.3, 0.3, 0.38]]);
        }
        let victim = p.select_victim(5).unwrap();
        assert!(victim >= 2, "victim {victim} is inside the reserved prefix");
    }

    #[test]
    fn tie_breaks_to_earliest() {
        let mut p = VotingPolicy::new(VotingConfig::with_reserved_len(0));
        for _ in 0..3 {
            p.on_append();
        }
        // No observations => all votes zero => earliest slot wins.
        assert_eq!(p.select_victim(3), Some(0));
    }

    #[test]
    fn eviction_compacts_vote_state() {
        let mut p = VotingPolicy::new(VotingConfig::with_reserved_len(0));
        for _ in 0..4 {
            p.on_append();
        }
        drive(&mut p, &[vec![0.4, 0.01, 0.55, 0.04]]);
        let before = p.vote_counts().to_vec();
        let victim = p.select_victim(4).unwrap();
        p.on_evict(victim);
        assert_eq!(p.tracked_len(), 3);
        let mut expect = before.clone();
        expect.remove(victim);
        assert_eq!(p.vote_counts(), expect.as_slice());
    }

    #[test]
    fn recent_tokens_accumulate_fewer_votes() {
        // Item-count bias check: under i.i.d. sparse scores, early positions
        // can only accumulate votes over more steps than late positions.
        let mut p = VotingPolicy::new(VotingConfig::with_reserved_len(0));
        p.on_append();
        for step in 1..40 {
            p.on_append();
            let len = step + 1;
            // Low score everywhere except the newest position.
            let mut s = vec![0.5 / (len - 1) as f32; len];
            s[len - 1] = 0.5;
            drive(&mut p, &[s]);
        }
        let votes = p.vote_counts();
        let newest = votes[votes.len() - 1];
        let oldest = votes[0];
        assert!(oldest >= newest, "older positions should have at least as many votes");
    }

    #[test]
    fn select_victim_none_when_everything_reserved() {
        let mut p = VotingPolicy::new(VotingConfig::with_reserved_len(8));
        for _ in 0..4 {
            p.on_append();
        }
        assert_eq!(p.select_victim(4), None);
    }

    #[test]
    fn reset_clears_state() {
        let mut p = VotingPolicy::new(VotingConfig::with_reserved_len(0));
        p.on_append();
        p.observe(ScoreView::single(&[1.0]));
        assert_eq!(p.stats().rounds, 1);
        p.reset();
        assert_eq!(p.tracked_len(), 0);
        assert_eq!(p.stats(), VoteStats::default());
    }

    #[test]
    fn validate_rejects_a_bad_mean_coefficient() {
        for a in [f32::NAN, f32::INFINITY, -0.5] {
            let err = VotingConfig::with_coefficients(a, 0.2).validate().unwrap_err();
            assert!(err.contains("a ="), "{err}");
        }
        assert!(VotingConfig::default().validate().is_ok());
        assert!(VotingConfig::with_coefficients(0.0, 0.0).validate().is_ok());
    }

    #[test]
    fn validate_rejects_a_bad_sigma_coefficient() {
        for b in [f32::NAN, f32::NEG_INFINITY, -1.2] {
            let err = VotingConfig::with_coefficients(1.0, b).validate().unwrap_err();
            assert!(err.contains("b ="), "{err}");
        }
    }

    #[test]
    fn stats_tell_threshold_rounds_from_fallback_rounds() {
        let mut p =
            VotingPolicy::new(VotingConfig { per_head_votes: true, ..VotingConfig::with_reserved_len(1) });
        for _ in 0..4 {
            p.on_append();
        }
        // Reserved stage: observed, not a round.
        drive(&mut p, &[vec![0.9, 0.02, 0.02, 0.06]]);
        assert_eq!(p.stats(), VoteStats::default());
        // Head 0 votes below its threshold (slots 1–3); head 1 is uniform,
        // so nothing lies below T = mean and it falls back to one vote.
        drive(&mut p, &[vec![0.9, 0.02, 0.02, 0.06], vec![0.25; 4]]);
        let stats = p.stats();
        assert_eq!(stats, VoteStats { rounds: 2, fallback_rounds: 1, votes_cast: 3 + 1, votable: 6 });
        assert_eq!(stats.fallback_rate(), 0.5);
        assert_eq!(stats.votes_per_round(), 2.0);
        assert_eq!(p.vote_counts(), &[0, 2, 1, 1]);
    }

    #[test]
    fn vote_counts_saturate_at_u16_max() {
        let mut p = VotingPolicy::new(VotingConfig::with_reserved_len(0));
        p.on_append();
        p.on_append();
        p.votes[0] = u16::MAX - 1;
        // Observing sparse scores votes for slot 0 twice (per-head).
        drive(&mut p, &[vec![0.01, 0.99], vec![0.01, 0.99], vec![0.01, 0.99]]);
        assert_eq!(p.vote_counts()[0], u16::MAX);
    }

    #[test]
    fn layerwise_aggregation_option_still_votes() {
        let mut p = VotingPolicy::new(VotingConfig {
            per_head_votes: false,
            reserved_len: 0,
            ..VotingConfig::default()
        });
        for _ in 0..3 {
            p.on_append();
        }
        drive(&mut p, &[vec![0.01, 0.5, 0.49], vec![0.03, 0.48, 0.49]]);
        assert!(p.vote_counts()[0] > 0);
    }
}
