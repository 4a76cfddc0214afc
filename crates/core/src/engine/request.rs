//! What a caller hands the engine and gets back per session: the
//! [`Request`] and its [`Budget`], the [`Session`] handle, its
//! [`SessionPhase`] and the per-tick [`TokenEvent`].

use veda_eviction::PolicyKind;

use crate::error::BuildError;

/// KV cache budget of one request.
///
/// Replaces the legacy `Option<f64>` compression-ratio / `Option<usize>`
/// fixed-budget pair (and its `usize::MAX / 2` "no budget" sentinel) with
/// one explicit enum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Never evict for capacity (the full-cache configuration).
    Unbounded,
    /// Hold the cache at a fixed number of resident tokens (the
    /// language-modeling configuration).
    Fixed(usize),
    /// Hold the cache at `round(r × prompt_len)` tokens, `r ∈ (0, 1]` (the
    /// paper's Fig. 3 configuration).
    Ratio(f64),
}

impl Budget {
    /// Checks the budget is usable.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidBudget`] for `Fixed(0)` or a ratio
    /// outside `(0, 1]`.
    pub fn validate(self) -> Result<(), BuildError> {
        match self {
            Budget::Unbounded => Ok(()),
            Budget::Fixed(0) => Err(BuildError::InvalidBudget("fixed budget must be positive".into())),
            Budget::Fixed(_) => Ok(()),
            Budget::Ratio(r) if !(0.0..=1.0).contains(&r) || r == 0.0 || r.is_nan() => {
                Err(BuildError::InvalidBudget(format!("compression ratio {r} outside (0, 1]")))
            }
            Budget::Ratio(_) => Ok(()),
        }
    }

    /// Resolves to a concrete resident-token cap for a prompt of
    /// `prompt_len` tokens. `Unbounded` maps to a cap no sequence reaches.
    pub fn resolve(self, prompt_len: usize) -> usize {
        match self {
            Budget::Unbounded => usize::MAX / 2,
            Budget::Fixed(n) => n,
            Budget::Ratio(r) => ((prompt_len as f64 * r).round() as usize).max(1),
        }
    }
}

impl std::fmt::Display for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Budget::Unbounded => write!(f, "unbounded"),
            Budget::Fixed(n) => write!(f, "fixed:{n}"),
            Budget::Ratio(r) => write!(f, "ratio:{r}"),
        }
    }
}

impl std::str::FromStr for Budget {
    type Err = BuildError;

    /// Parses `"unbounded"` / `"full"`, `"fixed:N"` (or a bare integer),
    /// and `"ratio:R"` (or a bare float in `(0, 1]`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim().to_ascii_lowercase();
        let budget = match t.as_str() {
            "unbounded" | "full" | "none" => Budget::Unbounded,
            _ => {
                if let Some(n) = t.strip_prefix("fixed:") {
                    Budget::Fixed(n.parse().map_err(|_| {
                        BuildError::InvalidBudget(format!("cannot parse fixed budget from {s:?}"))
                    })?)
                } else if let Some(r) = t.strip_prefix("ratio:") {
                    Budget::Ratio(r.parse().map_err(|_| {
                        BuildError::InvalidBudget(format!("cannot parse ratio budget from {s:?}"))
                    })?)
                } else if let Ok(n) = t.parse::<usize>() {
                    Budget::Fixed(n)
                } else if let Ok(r) = t.parse::<f64>() {
                    Budget::Ratio(r)
                } else {
                    return Err(BuildError::InvalidBudget(format!("cannot parse budget from {s:?}")));
                }
            }
        };
        budget.validate()?;
        Ok(budget)
    }
}

/// One generation request: a prompt plus per-request decode configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Prompt token ids (must be non-empty and in-vocabulary).
    pub prompt: Vec<usize>,
    /// Maximum number of tokens to generate.
    pub max_new_tokens: usize,
    /// Eviction policy for this request's sessions.
    pub policy: PolicyKind,
    /// KV cache budget for this request.
    pub budget: Budget,
    /// Token ids that end generation early (the stop token is kept in the
    /// output).
    pub stop_tokens: Vec<usize>,
}

impl Request {
    /// A request with the workspace-default policy (voting) and budget
    /// (ratio 0.5).
    pub fn new(prompt: impl Into<Vec<usize>>, max_new_tokens: usize) -> Self {
        Self {
            prompt: prompt.into(),
            max_new_tokens,
            policy: PolicyKind::Voting,
            budget: Budget::Ratio(0.5),
            stop_tokens: Vec::new(),
        }
    }

    /// Sets the eviction policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the cache budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the stop tokens.
    pub fn stop_tokens(mut self, stop_tokens: impl Into<Vec<usize>>) -> Self {
        self.stop_tokens = stop_tokens.into();
        self
    }

    /// Peak resident tokens this request can reach if nothing is ever
    /// evicted: the whole prompt plus every generated token. This is the
    /// conservative bound admission controllers reserve against —
    /// deliberately ignoring the cache [`Budget`], because eviction
    /// policies may refuse to evict below their protected prefix (the
    /// voting policy never evicts inside its reserved length), so the
    /// budget is not a guaranteed ceiling while `prompt + generated` is.
    ///
    /// The single source of the engine/admission reservation math: both
    /// [`crate::Engine::submit`]'s KV pre-allocation and the serving
    /// stack's `AdmissionController` derive from this helper, so the two
    /// accountings cannot drift.
    pub fn peak_resident_tokens(&self) -> usize {
        self.prompt.len() + self.max_new_tokens
    }

    /// KV rows the engine reserves up front for this request's session:
    /// the unbounded peak ([`Request::peak_resident_tokens`] plus one for
    /// the append-then-evict overshoot), clipped by the budget cap (plus
    /// two slots of slack, but never below the prompt — prefill never
    /// evicts, so the full prompt length is always reached). Reserving
    /// this up front means neither prefill nor steady-state decode ever
    /// reallocates KV storage.
    pub(crate) fn reserve_resident_tokens(&self) -> usize {
        let unbounded_peak = self.peak_resident_tokens() + 1;
        let resident_cap = self.budget.resolve(self.prompt.len());
        let capped_peak = resident_cap.saturating_add(2).max(self.prompt.len() + 2);
        unbounded_peak.min(capped_peak)
    }

    /// Whether this request's session can never be forced to evict: its
    /// resolved budget cap is at least its unbounded peak
    /// ([`Request::peak_resident_tokens`]), so the cache never exceeds
    /// the cap and no eviction ever runs (`Budget::Unbounded`, or a
    /// fixed/ratio cap at or above `prompt + max_new_tokens`).
    ///
    /// This is the soundness condition for the serving layer's
    /// shared-prefix admission discount: an eviction inside a shared
    /// prefix span privatizes it (the session then *owns* those bytes —
    /// see [`veda_model::LayerKvCache::seed_from`]), so only sessions
    /// that provably never evict can reserve less than their full peak.
    pub fn never_evicts(&self) -> bool {
        self.budget.resolve(self.prompt.len()) >= self.peak_resident_tokens()
    }
}

/// Handle of one submitted request within an [`Engine`](super::Engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Session(pub(super) usize);

impl std::fmt::Display for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Lifecycle phase of a session (see the [module docs](super)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionPhase {
    /// The prompt is still being consumed; no output token yet.
    Prefilling,
    /// The prompt is consumed; each tick decodes one generated token.
    Decoding,
    /// The session retired; its report is available until taken.
    Finished,
}

impl std::fmt::Display for SessionPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SessionPhase::Prefilling => "prefilling",
            SessionPhase::Decoding => "decoding",
            SessionPhase::Finished => "finished",
        })
    }
}

/// Per-session outcome of one [`Engine::step`](super::Engine::step) tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenEvent {
    /// A decoding session emitted one generated token.
    Generated {
        /// The emitting session.
        session: Session,
        /// The generated token id.
        token: usize,
        /// Attention cycles of this token at the session's pre-step cache
        /// length (single-sequence cycle model).
        attention_cycles: u64,
        /// Evictions performed across all layers after appending this
        /// token.
        evictions: usize,
        /// The session's cache length after eviction.
        cache_len: usize,
        /// Whether this token finished the session (limit or stop token).
        finished: bool,
    },
    /// A prefilling session consumed a chunk of prompt tokens (no output
    /// token yet — its first [`TokenEvent::Generated`] comes the tick
    /// after the prompt is fully consumed).
    PrefillProgress {
        /// The prefilling session.
        session: Session,
        /// Prompt tokens consumed this tick.
        tokens: usize,
        /// Prompt tokens still unconsumed after this tick (`0` means
        /// prefill completed and the session enters the `Decoding`
        /// phase).
        remaining: usize,
        /// The session's cache length after the chunk (prefill never
        /// evicts).
        cache_len: usize,
        /// Whether this event retired the session — only possible when
        /// prefill completed and the request asked for zero generated
        /// tokens.
        finished: bool,
    },
}

impl TokenEvent {
    /// The session this event belongs to.
    pub fn session(&self) -> Session {
        match *self {
            TokenEvent::Generated { session, .. } | TokenEvent::PrefillProgress { session, .. } => session,
        }
    }

    /// Whether this event retired its session this tick.
    pub(crate) fn finished(&self) -> bool {
        match *self {
            TokenEvent::Generated { finished, .. } | TokenEvent::PrefillProgress { finished, .. } => finished,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_resolution_and_validation() {
        assert_eq!(Budget::Fixed(8).resolve(100), 8);
        assert_eq!(Budget::Ratio(0.5).resolve(16), 8);
        assert_eq!(Budget::Ratio(0.01).resolve(3), 1, "ratio floors at one resident token");
        assert_eq!(Budget::Unbounded.resolve(5), usize::MAX / 2);

        assert!(Budget::Unbounded.validate().is_ok());
        assert!(Budget::Fixed(1).validate().is_ok());
        assert!(Budget::Ratio(1.0).validate().is_ok());
        assert!(matches!(Budget::Fixed(0).validate(), Err(BuildError::InvalidBudget(_))));
        assert!(matches!(Budget::Ratio(0.0).validate(), Err(BuildError::InvalidBudget(_))));
        assert!(matches!(Budget::Ratio(1.5).validate(), Err(BuildError::InvalidBudget(_))));
        assert!(matches!(Budget::Ratio(-0.5).validate(), Err(BuildError::InvalidBudget(_))));
        assert!(matches!(Budget::Ratio(f64::NAN).validate(), Err(BuildError::InvalidBudget(_))));
    }

    #[test]
    fn budget_parses_from_strings() {
        assert_eq!("unbounded".parse::<Budget>().unwrap(), Budget::Unbounded);
        assert_eq!("fixed:12".parse::<Budget>().unwrap(), Budget::Fixed(12));
        assert_eq!("12".parse::<Budget>().unwrap(), Budget::Fixed(12));
        assert_eq!("ratio:0.25".parse::<Budget>().unwrap(), Budget::Ratio(0.25));
        assert_eq!("0.25".parse::<Budget>().unwrap(), Budget::Ratio(0.25));
        assert!("ratio:2.0".parse::<Budget>().is_err());
        assert!("0".parse::<Budget>().is_err());
        assert!("banana".parse::<Budget>().is_err());
    }

    #[test]
    fn reserve_math_lives_on_request() {
        let request = Request::new(vec![1; 10], 6).budget(Budget::Unbounded);
        assert_eq!(request.peak_resident_tokens(), 16);
        assert_eq!(request.reserve_resident_tokens(), 17, "unbounded: peak + overshoot slot");
        let capped = Request::new(vec![1; 10], 6).budget(Budget::Fixed(4));
        assert_eq!(capped.peak_resident_tokens(), 16, "the peak bound ignores the budget");
        assert_eq!(capped.reserve_resident_tokens(), 12, "reserve clips to the prompt + slack");
    }

    #[test]
    fn never_evicts_requires_cap_at_or_above_peak() {
        assert!(Request::new(vec![1; 10], 6).budget(Budget::Unbounded).never_evicts());
        assert!(Request::new(vec![1; 10], 6).budget(Budget::Fixed(16)).never_evicts());
        assert!(!Request::new(vec![1; 10], 6).budget(Budget::Fixed(15)).never_evicts());
        assert!(!Request::new(vec![1; 10], 6).budget(Budget::Ratio(0.5)).never_evicts());
        assert!(Request::new(vec![1; 10], 0).budget(Budget::Ratio(1.0)).never_evicts());
    }
}
