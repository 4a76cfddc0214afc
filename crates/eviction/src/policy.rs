//! The [`EvictionPolicy`] trait shared by all KV cache eviction strategies.
//!
//! ## Protocol
//!
//! The cache owner (functional model or accelerator scheduler) drives a
//! policy through a strict sequence per token:
//!
//! 1. [`EvictionPolicy::on_append`] — a new kv vector was appended; the
//!    policy extends its per-position state by one slot.
//! 2. [`EvictionPolicy::observe`] — the post-softmax attention scores of the
//!    current token over *all* cache positions (a [`ScoreView`]: one slice
//!    per head, each as long as the current cache).
//! 3. If the cache exceeds its budget: [`EvictionPolicy::select_victim`]
//!    returns the slot to evict, and the owner then calls
//!    [`EvictionPolicy::on_evict`] so the policy compacts its state.
//!
//! [`crate::CacheSimulator`] runs this sequence for every offline
//! evaluation. Positions are *current cache slots* (0 = oldest resident
//! entry), not absolute token indices: after an eviction every later slot
//! shifts down by one, mirroring how the hardware vote-count buffer is
//! compacted.

use crate::score::ScoreView;

/// Per-head post-softmax attention scores of one token over the cache in
/// the legacy nested representation (hot paths use [`ScoreView`]).
#[cfg(test)]
pub(crate) type HeadScores = [Vec<f32>];

/// A KV cache eviction strategy.
///
/// See the [module documentation](self) for the calling protocol. Policies
/// must be deterministic: the same observation sequence always yields the
/// same victims. `Send` is a supertrait so per-session policy stacks can
/// move across the engine's decode worker threads.
pub trait EvictionPolicy: Send {
    /// Short stable identifier, e.g. `"voting"` or `"h2o"`.
    fn name(&self) -> &'static str;

    /// Extends per-position state for a newly appended kv vector.
    fn on_append(&mut self);

    /// Feeds the attention scores of the current step as a flat borrowed
    /// view.
    ///
    /// `scores.head(h)[j]` is head `h`'s post-softmax attention from the
    /// current token to cache slot `j`. Every head slice must have length
    /// equal to the number of `on_append` calls minus evictions.
    fn observe(&mut self, scores: ScoreView<'_>);

    /// Whether [`EvictionPolicy::observe`] reads its scores. `false` is a
    /// promise that `observe` ignores its argument and has no effect, so
    /// an owner may skip computing the scores and the call altogether.
    fn reads_scores(&self) -> bool {
        true
    }

    /// Picks the slot to evict, given the current cache length.
    ///
    /// Returns `None` when the policy refuses to evict (e.g. the full-cache
    /// oracle, or when every position is protected).
    fn select_victim(&mut self, cache_len: usize) -> Option<usize>;

    /// Compacts per-position state after slot `idx` was removed.
    fn on_evict(&mut self, idx: usize);

    /// Resets all internal state (start of a new sequence).
    fn reset(&mut self);

    /// Number of position slots the policy currently tracks (diagnostic;
    /// the owner asserts this stays in lockstep with the cache).
    fn tracked_len(&self) -> usize;
}

impl<P: EvictionPolicy + ?Sized> EvictionPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn on_append(&mut self) {
        (**self).on_append();
    }

    fn observe(&mut self, scores: ScoreView<'_>) {
        (**self).observe(scores);
    }

    fn reads_scores(&self) -> bool {
        (**self).reads_scores()
    }

    fn select_victim(&mut self, cache_len: usize) -> Option<usize> {
        (**self).select_victim(cache_len)
    }

    fn on_evict(&mut self, idx: usize) {
        (**self).on_evict(idx);
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn tracked_len(&self) -> usize {
        (**self).tracked_len()
    }
}

/// Enumeration of the built-in policies, used by configuration surfaces and
/// report labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Never evict (oracle accuracy, unbounded memory).
    Full,
    /// Streaming-LLM: attention sink + most recent window.
    SlidingWindow,
    /// H2O accumulated attention scores.
    H2o,
    /// VEDA voting-based eviction.
    Voting,
}

impl PolicyKind {
    /// All kinds, in presentation order.
    pub const ALL: [PolicyKind; 4] =
        [PolicyKind::Full, PolicyKind::SlidingWindow, PolicyKind::H2o, PolicyKind::Voting];

    /// Stable identifier matching [`EvictionPolicy::name`].
    pub fn as_str(self) -> &'static str {
        match self {
            PolicyKind::Full => "full",
            PolicyKind::SlidingWindow => "sliding_window",
            PolicyKind::H2o => "h2o",
            PolicyKind::Voting => "voting",
        }
    }

    /// Builds the policy with workspace-default parameters.
    pub fn build(self) -> Box<dyn EvictionPolicy> {
        match self {
            PolicyKind::Full => Box::new(crate::FullCachePolicy::new()),
            PolicyKind::SlidingWindow => Box::new(crate::SlidingWindowPolicy::new(4)),
            PolicyKind::H2o => Box::new(crate::H2oPolicy::new()),
            PolicyKind::Voting => Box::new(crate::VotingPolicy::new(crate::VotingConfig::default())),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error parsing a [`PolicyKind`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyKindError(String);

impl std::fmt::Display for ParsePolicyKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown eviction policy {:?} (expected one of: {})",
            self.0,
            PolicyKind::ALL.map(PolicyKind::as_str).join(", ")
        )
    }
}

impl std::error::Error for ParsePolicyKindError {}

impl std::str::FromStr for PolicyKind {
    type Err = ParsePolicyKindError;

    /// Parses a policy from its stable identifier ([`PolicyKind::as_str`])
    /// or common CLI aliases; matching is case-insensitive and ignores
    /// `-`/`_` differences.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized: String =
            s.trim().to_ascii_lowercase().chars().filter(|c| !matches!(c, '-' | '_')).collect();
        match normalized.as_str() {
            "full" | "oracle" => Ok(PolicyKind::Full),
            "slidingwindow" | "sliding" | "slide" | "streamingllm" => Ok(PolicyKind::SlidingWindow),
            "h2o" => Ok(PolicyKind::H2o),
            "voting" | "vote" | "veda" => Ok(PolicyKind::Voting),
            _ => Err(ParsePolicyKindError(s.to_string())),
        }
    }
}

/// Averages per-head scores into a single layer-wise score vector, the
/// aggregation VEDA's voting engine performs ("all heads are aggregated and
/// averaged", Section V).
///
/// Returns an empty vector when `scores` is empty.
///
/// # Panics
///
/// Panics if head slices disagree in length.
#[cfg(test)]
pub(crate) fn average_heads(scores: &HeadScores) -> Vec<f32> {
    let Some(first) = scores.first() else {
        return Vec::new();
    };
    let len = first.len();
    let mut out = vec![0.0f32; len];
    for head in scores {
        assert_eq!(head.len(), len, "average_heads: ragged head scores");
        for (o, &s) in out.iter_mut().zip(head) {
            *o += s;
        }
    }
    let inv = 1.0 / scores.len() as f32;
    for o in &mut out {
        *o *= inv;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_via_str() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.build().name(), kind.as_str());
        }
    }

    #[test]
    fn average_heads_mean_of_two() {
        let s = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert_eq!(average_heads(&s), vec![0.5, 0.5]);
    }

    #[test]
    fn average_heads_empty() {
        let s: Vec<Vec<f32>> = Vec::new();
        assert!(average_heads(&s).is_empty());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn average_heads_rejects_ragged() {
        let s = vec![vec![1.0, 0.0], vec![0.5]];
        average_heads(&s);
    }

    #[test]
    fn display_matches_as_str() {
        assert_eq!(PolicyKind::Voting.to_string(), "voting");
        assert_eq!(PolicyKind::H2o.to_string(), "h2o");
    }

    #[test]
    fn from_str_round_trips_every_kind() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.as_str().parse::<PolicyKind>().unwrap(), kind);
            assert_eq!(kind.to_string().parse::<PolicyKind>().unwrap(), kind);
        }
    }

    #[test]
    fn from_str_accepts_aliases_and_rejects_unknown() {
        assert_eq!("VEDA".parse::<PolicyKind>().unwrap(), PolicyKind::Voting);
        assert_eq!("sliding-window".parse::<PolicyKind>().unwrap(), PolicyKind::SlidingWindow);
        let err = "lru".parse::<PolicyKind>().unwrap_err();
        assert!(err.to_string().contains("lru"), "{err}");
        assert!(err.to_string().contains("voting"), "{err}");
    }
}
