//! Streaming-LLM style sliding-window eviction (Xiao et al. \[18\]).
//!
//! Retains the earliest `sink_len` positions (the attention sink) and the
//! most recent window; whenever the cache exceeds its budget the *oldest
//! non-sink* position is evicted. Simple and score-free, but it forgets all
//! out-of-window content — the accuracy loss the paper uses it to
//! illustrate.

use crate::policy::EvictionPolicy;
use crate::score::ScoreView;

/// Sink + recent-window eviction.
///
/// ```
/// use veda_eviction::{EvictionPolicy, SlidingWindowPolicy};
/// let mut p = SlidingWindowPolicy::new(2);
/// for _ in 0..5 { p.on_append(); }
/// // Oldest position after the 2-entry sink:
/// assert_eq!(p.select_victim(5), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindowPolicy {
    sink_len: usize,
    len: usize,
}

impl SlidingWindowPolicy {
    /// Creates a policy preserving the first `sink_len` positions.
    pub fn new(sink_len: usize) -> Self {
        Self { sink_len, len: 0 }
    }

    /// The attention-sink length.
    pub fn sink_len(&self) -> usize {
        self.sink_len
    }
}

impl EvictionPolicy for SlidingWindowPolicy {
    fn name(&self) -> &'static str {
        "sliding_window"
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
        if cache_len > self.sink_len {
            Some(self.sink_len)
        } else {
            None
        }
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
    fn evicts_oldest_outside_sink() {
        let mut p = SlidingWindowPolicy::new(3);
        for _ in 0..10 {
            p.on_append();
        }
        assert_eq!(p.select_victim(10), Some(3));
    }

    #[test]
    fn refuses_when_cache_is_all_sink() {
        let mut p = SlidingWindowPolicy::new(4);
        for _ in 0..3 {
            p.on_append();
        }
        assert_eq!(p.select_victim(3), None);
    }

    #[test]
    fn zero_sink_behaves_as_fifo() {
        let mut p = SlidingWindowPolicy::new(0);
        for _ in 0..2 {
            p.on_append();
        }
        assert_eq!(p.select_victim(2), Some(0));
    }

    #[test]
    fn repeated_evictions_keep_window_semantics() {
        let mut p = SlidingWindowPolicy::new(1);
        for _ in 0..5 {
            p.on_append();
        }
        let v = p.select_victim(5).unwrap();
        p.on_evict(v);
        assert_eq!(p.tracked_len(), 4);
        assert_eq!(p.select_victim(4), Some(1));
    }
}
