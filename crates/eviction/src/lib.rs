//! # veda-eviction
//!
//! KV cache eviction policies for LLM generation, implementing Section III
//! of the VEDA paper plus every baseline it compares against:
//!
//! * [`VotingPolicy`] — the paper's contribution: each generated token
//!   "votes" for unimportant KV positions using the adaptive threshold
//!   `T(i) = a·mean(s'(i)) − b·σ(s'(i))`; the position with the most votes is
//!   evicted. A reserved prefix (attention sink) never receives votes.
//! * [`H2oPolicy`] — accumulated-attention-score eviction (H2O, Zhang et
//!   al.), which the paper analyzes as suffering from item-count, criteria
//!   and outlier bias.
//! * [`SlidingWindowPolicy`] — Streaming-LLM style sink + recent window.
//! * [`DecayedScorePolicy`] — an exponentially-decayed score baseline.
//! * [`RandomPolicy`] — a deterministic pseudo-random victim baseline.
//! * [`FullCachePolicy`] — never evicts (the accuracy oracle).
//!
//! All policies implement [`EvictionPolicy`] and operate on per-head
//! post-softmax attention-score observations, delivered as borrowed flat
//! [`ScoreView`]s (zero-copy, zero-allocation on the decode hot path);
//! they are *pure algorithm state machines* so both the functional model
//! (`veda-model`) and the cycle-accurate hardware voting engine
//! (`veda-accel`) can drive them.
//!
//! ## Example
//!
//! ```
//! use veda_eviction::{EvictionPolicy, ScoreView, VotingConfig, VotingPolicy};
//!
//! // Reserved length 1 so this tiny example can evict (the paper uses 32).
//! let mut policy = VotingPolicy::new(VotingConfig::with_reserved_len(1));
//! // Simulate three cached tokens and two attention observations.
//! for _ in 0..3 { policy.on_append(); }
//! policy.observe(ScoreView::single(&[0.8, 0.15, 0.05]));
//! policy.observe(ScoreView::single(&[0.7, 0.10, 0.20]));
//! // Cache over budget => pick a victim (never slot 0, the reserved sink).
//! let victim = policy.select_victim(3);
//! assert!(matches!(victim, Some(1) | Some(2)));
//! ```

// Crate hygiene, enforced by veda-lint (rule crate-hygiene): no unsafe
// code under the determinism pins, no undocumented public surface.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod decayed;
pub mod full;
pub mod h2o;
pub mod manager;
pub mod policy;
pub mod pressure;
pub mod random;
pub mod score;
pub mod sliding;
pub mod stats;
pub mod voting;

pub use decayed::DecayedScorePolicy;
pub use full::FullCachePolicy;
pub use h2o::H2oPolicy;
pub use manager::{CacheSimulator, SimulatedStep};
pub use policy::{EvictionPolicy, ParsePolicyKindError, PolicyKind};
pub use pressure::{BudgetController, PressureConfig};
pub use random::RandomPolicy;
pub use score::{observe_heads, observe_heads_into, ScoreView};
pub use sliding::SlidingWindowPolicy;
pub use stats::EvictionStats;
pub use voting::{VoteStats, VotingConfig, VotingPolicy};
