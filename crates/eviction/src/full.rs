//! The no-eviction oracle baseline.

use crate::policy::EvictionPolicy;
use crate::score::ScoreView;

/// Never evicts. Serves as the accuracy upper bound ("Baseline" in Fig. 8
/// right: VEDA without cache eviction) and as the memory-unbounded oracle in
/// quality comparisons.
///
/// ```
/// use veda_eviction::{EvictionPolicy, FullCachePolicy};
/// let mut p = FullCachePolicy::new();
/// p.on_append();
/// assert_eq!(p.select_victim(1), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FullCachePolicy {
    len: usize,
}

impl FullCachePolicy {
    /// Creates the oracle policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvictionPolicy for FullCachePolicy {
    fn name(&self) -> &'static str {
        "full"
    }

    fn on_append(&mut self) {
        self.len += 1;
    }

    fn observe(&mut self, _scores: ScoreView<'_>) {}

    fn reads_scores(&self) -> bool {
        false
    }

    fn select_victim(&mut self, _cache_len: usize) -> Option<usize> {
        None
    }

    fn on_evict(&mut self, _idx: usize) {
        // The owner should never evict under this policy, but stay
        // consistent if it forces one.
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
    fn never_selects_a_victim() {
        let mut p = FullCachePolicy::new();
        for _ in 0..100 {
            p.on_append();
        }
        p.observe(ScoreView::single(&[0.5; 100]));
        assert_eq!(p.select_victim(100), None);
        assert_eq!(p.tracked_len(), 100);
    }

    #[test]
    fn reset_zeroes_length() {
        let mut p = FullCachePolicy::new();
        p.on_append();
        p.reset();
        assert_eq!(p.tracked_len(), 0);
    }
}
