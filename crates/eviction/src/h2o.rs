//! H2O: heavy-hitter-oracle eviction by accumulated attention scores
//! (Zhang et al. \[21\]), the method Fig. 2 (a) of the VEDA paper analyzes.
//!
//! Each cache position accumulates the attention scores it receives across
//! all steps (summed over heads); the position with the *minimum*
//! accumulated score is evicted. The paper identifies three biases of this
//! scheme, all of which this implementation reproduces faithfully:
//!
//! * **item-count bias** — early positions sum over more steps, so recent
//!   positions look unimportant;
//! * **criteria bias** — rows with few items have systematically larger
//!   scores, yet all rows are summed with equal weight;
//! * **outlier bias** — one huge score keeps a position resident forever.

use crate::policy::EvictionPolicy;
use crate::score::ScoreView;

/// Accumulated-attention-score eviction.
///
/// As in the released H2O system, a window of the most recent positions is
/// exempt from eviction ("heavy hitters + recent"): without it, pure
/// accumulation always evicts the newest entry (every older entry has had
/// strictly more steps to accumulate non-negative scores) and the policy
/// degenerates to keep-the-prefix. The three scoring biases the VEDA paper
/// analyzes all remain.
///
/// ```
/// use veda_eviction::{EvictionPolicy, H2oPolicy};
/// let mut p = H2oPolicy::new();
/// for _ in 0..3 { p.on_append(); }
/// p.observe(veda_eviction::ScoreView::single(&[0.7, 0.1, 0.2]));
/// assert_eq!(p.select_victim(3), Some(1)); // lowest accumulated score
/// ```
#[derive(Debug, Clone)]
pub struct H2oPolicy {
    accumulated: Vec<f32>,
    /// `None` = half of the current cache (the H2O release's
    /// "heavy-hitters + recent" split); `Some(w)` = fixed window.
    recent_window: Option<usize>,
}

impl Default for H2oPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl H2oPolicy {
    /// Creates an H2O policy with the system default: the most recent half
    /// of the cache is exempt (the release's heavy/recent split).
    pub fn new() -> Self {
        Self { accumulated: Vec::new(), recent_window: None }
    }

    /// Creates an H2O policy with an explicit recent-window exemption
    /// (0 = pure accumulation, the Fig. 2 (a) strawman).
    #[cfg(test)]
    pub(crate) fn with_recent_window(recent_window: usize) -> Self {
        Self { accumulated: Vec::new(), recent_window: Some(recent_window) }
    }

    /// The recent-window exemption for a given cache length.
    pub(crate) fn recent_window(&self, cache_len: usize) -> usize {
        self.recent_window.unwrap_or(cache_len / 2)
    }

    /// The per-slot accumulated attention scores (the "importance vector").
    #[cfg(test)]
    pub(crate) fn importance(&self) -> &[f32] {
        &self.accumulated
    }
}

impl EvictionPolicy for H2oPolicy {
    fn name(&self) -> &'static str {
        "h2o"
    }

    fn on_append(&mut self) {
        self.accumulated.push(0.0);
    }

    fn observe(&mut self, scores: ScoreView<'_>) {
        for head in scores.heads() {
            debug_assert_eq!(head.len(), self.accumulated.len(), "cache/policy desync");
            for (acc, &s) in self.accumulated.iter_mut().zip(head.iter()) {
                *acc += s;
            }
        }
    }

    fn select_victim(&mut self, cache_len: usize) -> Option<usize> {
        debug_assert_eq!(cache_len, self.accumulated.len(), "cache/policy desync");
        let hi = cache_len.saturating_sub(self.recent_window(cache_len));
        if hi == 0 {
            // Everything is inside the protected recent window: fall back
            // to evicting the global minimum so the budget still binds.
            return veda_tensor::stats::argmin(&self.accumulated[..cache_len]);
        }
        veda_tensor::stats::argmin(&self.accumulated[..hi])
    }

    fn on_evict(&mut self, idx: usize) {
        self.accumulated.remove(idx);
    }

    fn reset(&mut self) {
        self.accumulated.clear();
    }

    fn tracked_len(&self) -> usize {
        self.accumulated.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_across_steps_and_heads() {
        let mut p = H2oPolicy::new();
        for _ in 0..2 {
            p.on_append();
        }
        p.observe(ScoreView::new(&[0.6, 0.4, 0.2, 0.8], 2));
        p.observe(ScoreView::single(&[0.5, 0.5]));
        assert!((p.importance()[0] - 1.3).abs() < 1e-6);
        assert!((p.importance()[1] - 1.7).abs() < 1e-6);
    }

    #[test]
    fn evicts_minimum_importance() {
        let mut p = H2oPolicy::with_recent_window(0);
        for _ in 0..3 {
            p.on_append();
        }
        p.observe(ScoreView::single(&[0.5, 0.1, 0.4]));
        assert_eq!(p.select_victim(3), Some(1));
    }

    #[test]
    fn exhibits_item_count_bias_against_recent_tokens() {
        // The documented failure mode: a recent position with consistently
        // *higher* per-step scores still loses to an old position that
        // accumulated many small scores.
        let mut p = H2oPolicy::with_recent_window(0);
        p.on_append();
        for _ in 0..10 {
            p.observe(ScoreView::single(&[0.1])); // old token trickles up to 1.0
            p.on_append();
            p.on_evict(1); // keep a single-slot cache plus the probe below
        }
        p.on_append(); // fresh recent token
        p.observe(ScoreView::single(&[0.2, 0.8])); // recent token gets 0.8 once
                                                   // Old token: 10*0.1 + 0.2 = 1.2 > recent 0.8 => recent evicted.
        assert_eq!(p.select_victim(2), Some(1));
    }

    #[test]
    fn exhibits_outlier_bias() {
        let mut p = H2oPolicy::with_recent_window(0);
        for _ in 0..2 {
            p.on_append();
        }
        // One huge outlier score on position 0, then consistent preference
        // for position 1 — position 0 is still never the victim.
        p.observe(ScoreView::single(&[5.0, 0.0]));
        for _ in 0..4 {
            p.observe(ScoreView::single(&[0.1, 0.9]));
        }
        assert_eq!(p.select_victim(2), Some(1));
    }

    #[test]
    fn eviction_compacts_importance() {
        let mut p = H2oPolicy::new();
        for _ in 0..3 {
            p.on_append();
        }
        p.observe(ScoreView::single(&[0.2, 0.3, 0.5]));
        p.on_evict(0);
        assert_eq!(p.tracked_len(), 2);
        assert!((p.importance()[0] - 0.3).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_accumulators() {
        let mut p = H2oPolicy::new();
        p.on_append();
        p.observe(ScoreView::single(&[1.0]));
        p.reset();
        assert_eq!(p.tracked_len(), 0);
    }
}
