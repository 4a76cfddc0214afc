//! Timed request arrivals: a seeded open-loop Poisson process and
//! deterministic trace replay.
//!
//! A [`Workload`] is a list of [`ServingRequest`]s stamped with
//! virtual-clock arrival ticks, sorted and fixed at construction: arrivals
//! never depend on service times, so nothing the cluster does can change
//! what arrives or when.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veda::{Budget, Request};
use veda_eviction::PolicyKind;

/// One request as the serving layer sees it: the engine [`Request`] plus
/// scheduling metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingRequest {
    /// The engine request (prompt, limits, policy, budget).
    pub request: Request,
    /// Priority tier, higher is more important (used by the priority
    /// scheduler; ignored by the others).
    pub priority: u8,
}

/// The arrival process families a [`Workload`] can generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrivalKind {
    /// Open-loop Poisson arrivals at a constant rate.
    Poisson,
    /// Deterministic replay of an explicit arrival trace.
    Trace,
}

impl ArrivalKind {
    /// All kinds, in presentation order.
    pub const ALL: [ArrivalKind; 2] = [ArrivalKind::Poisson, ArrivalKind::Trace];

    /// Stable identifier.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Trace => "trace",
        }
    }
}

impl std::fmt::Display for ArrivalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error parsing an [`ArrivalKind`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArrivalKindError(String);

impl std::fmt::Display for ParseArrivalKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown arrival process {:?} (expected one of: poisson, trace)", self.0)
    }
}

impl std::error::Error for ParseArrivalKindError {}

impl std::str::FromStr for ArrivalKind {
    type Err = ParseArrivalKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "poisson" | "open" => Ok(ArrivalKind::Poisson),
            "trace" | "replay" => Ok(ArrivalKind::Trace),
            _ => Err(ParseArrivalKindError(s.to_string())),
        }
    }
}

/// Population the request generator samples from: policies and budgets
/// rotate deterministically per request; prompt lengths, generation
/// limits and priorities are drawn from the seeded RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMix {
    /// Eviction policies, assigned round-robin by arrival index.
    pub policies: Vec<PolicyKind>,
    /// Cache budgets, assigned round-robin by arrival index.
    pub budgets: Vec<Budget>,
    /// Inclusive prompt-length bounds. With shared prefixes enabled these
    /// bound the private *suffix* — the shared prefix is prepended on top.
    pub prompt_len: (usize, usize),
    /// Inclusive generated-token bounds (min must be ≥ 1 so every request
    /// produces a first token).
    pub max_new_tokens: (usize, usize),
    /// Number of priority tiers; priorities are drawn from `0..tiers`.
    pub priority_tiers: u8,
    /// Vocabulary size prompts are drawn from (tokens in `1..vocab`).
    pub vocab_size: usize,
    /// Shared-prefix length in tokens; `0` (the default) disables shared
    /// prefixes entirely. When positive, each request's prompt is its
    /// group's deterministic prefix of this length followed by a random
    /// private suffix drawn from the `prompt_len` bounds — the workload
    /// shape that exercises the engine's prefix cache (common system
    /// prompts / few-shot templates shared across sessions).
    pub shared_prefix_len: usize,
    /// Number of distinct prefix groups; requests rotate through them by
    /// arrival index. Ignored (treated as 1) unless `shared_prefix_len`
    /// is positive.
    pub prefix_groups: usize,
}

impl Default for RequestMix {
    /// The mixed population the serving example ships: all four
    /// policy/budget pairings over short prompts sized for
    /// [`veda_model::ModelConfig::tiny`].
    fn default() -> Self {
        Self {
            policies: vec![PolicyKind::Voting, PolicyKind::H2o, PolicyKind::SlidingWindow, PolicyKind::Full],
            budgets: vec![Budget::Ratio(0.5), Budget::Fixed(12), Budget::Ratio(0.25), Budget::Unbounded],
            prompt_len: (12, 32),
            max_new_tokens: (6, 16),
            priority_tiers: 3,
            vocab_size: veda_model::ModelConfig::tiny().vocab_size,
            shared_prefix_len: 0,
            prefix_groups: 0,
        }
    }
}

impl RequestMix {
    /// The deterministic shared prefix of `group` (independent of the
    /// workload RNG, so every arrival process generates the identical
    /// prefix for a group — the property that makes prompts actually
    /// shareable).
    pub(crate) fn group_prefix(&self, group: usize) -> Vec<usize> {
        (0..self.shared_prefix_len).map(|j| (group * 31 + j * 7 + 1) % (self.vocab_size - 1) + 1).collect()
    }

    /// Samples the `index`-th request of a workload. With
    /// [`RequestMix::shared_prefix_len`] set, the prompt is the arrival's
    /// group prefix (`RequestMix::group_prefix`, groups rotating by
    /// index) followed by a random private suffix; otherwise the whole
    /// prompt is random. The disabled path draws exactly the RNG stream
    /// it always did, so existing seeded workloads are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are inverted, a bound is zero, or the mix has
    /// no policies/budgets.
    pub fn sample(&self, rng: &mut StdRng, index: usize) -> ServingRequest {
        assert!(!self.policies.is_empty() && !self.budgets.is_empty(), "empty policy/budget mix");
        assert!(self.vocab_size > 1, "vocabulary too small to sample prompts");
        let (p_lo, p_hi) = self.prompt_len;
        let (g_lo, g_hi) = self.max_new_tokens;
        assert!(0 < p_lo && p_lo <= p_hi, "invalid prompt length bounds");
        assert!(0 < g_lo && g_lo <= g_hi, "invalid generation bounds");

        let suffix_len = rng.gen_range(p_lo..=p_hi);
        let mut prompt = if self.shared_prefix_len > 0 {
            self.group_prefix(index % self.prefix_groups.max(1))
        } else {
            Vec::new()
        };
        prompt.extend((0..suffix_len).map(|_| rng.gen_range(1..self.vocab_size)));
        let max_new = rng.gen_range(g_lo..=g_hi);
        let priority = if self.priority_tiers <= 1 { 0 } else { rng.gen_range(0..self.priority_tiers) };
        let request = Request::new(prompt, max_new)
            .policy(self.policies[index % self.policies.len()])
            .budget(self.budgets[index % self.budgets.len()]);
        ServingRequest { request, priority }
    }
}

/// Draws an exponential holding time with the given mean, in whole ticks.
fn exp_ticks(rng: &mut StdRng, mean: f64) -> u64 {
    let u: f64 = rng.gen();
    // 1 - u ∈ (0, 1], so ln is finite and the draw non-negative.
    (-(1.0 - u).ln() * mean).round() as u64
}

/// A seeded, reproducible list of timed request arrivals (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct Workload {
    kind: ArrivalKind,
    /// Arrivals not yet taken, sorted by tick.
    scheduled: VecDeque<(u64, ServingRequest)>,
}

impl Workload {
    /// Open-loop Poisson arrivals: `total` requests at `rate` requests
    /// per tick (exponential inter-arrival times with mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn poisson(seed: u64, rate: f64, total: usize, mix: RequestMix) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scheduled = VecDeque::with_capacity(total);
        let mut tick = 0u64;
        for i in 0..total {
            tick += exp_ticks(&mut rng, 1.0 / rate);
            let request = mix.sample(&mut rng, i);
            scheduled.push_back((tick, request));
        }
        Self { kind: ArrivalKind::Poisson, scheduled }
    }

    /// Deterministic replay of an explicit `(tick, request)` trace.
    /// Arrivals are sorted by tick; the trace's own order breaks ties.
    pub fn trace(arrivals: Vec<(u64, ServingRequest)>) -> Self {
        let mut arrivals = arrivals;
        arrivals.sort_by_key(|(tick, _)| *tick);
        Self { kind: ArrivalKind::Trace, scheduled: arrivals.into() }
    }

    /// The arrival process family.
    pub(crate) fn kind(&self) -> ArrivalKind {
        self.kind
    }

    /// Requests arriving at or before `now`, in arrival order. Each is
    /// returned exactly once.
    pub fn take_arrivals(&mut self, now: u64) -> Vec<ServingRequest> {
        let mut out = Vec::new();
        while self.scheduled.front().is_some_and(|(tick, _)| *tick <= now) {
            out.push(self.scheduled.pop_front().expect("checked non-empty").1);
        }
        out
    }

    /// Whether every request this workload will ever produce has been
    /// taken.
    pub(crate) fn exhausted(&self) -> bool {
        self.scheduled.is_empty()
    }

    /// The tick of the next scheduled arrival, if any (used to
    /// fast-forward idle servers).
    pub fn next_arrival_tick(&self) -> Option<u64> {
        self.scheduled.front().map(|(tick, _)| *tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip_and_label() {
        for kind in ArrivalKind::ALL {
            assert_eq!(kind.as_str().parse::<ArrivalKind>().unwrap(), kind);
        }
        assert!("warp".parse::<ArrivalKind>().is_err());
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let collect = |seed| {
            let mut w = Workload::poisson(seed, 0.5, 20, RequestMix::default());
            let mut out = Vec::new();
            for now in 0..10_000 {
                for r in w.take_arrivals(now) {
                    out.push((now, r));
                }
                if w.exhausted() {
                    break;
                }
            }
            out
        };
        let a = collect(7);
        let b = collect(7);
        let c = collect(8);
        assert_eq!(a, b, "same seed, same arrivals");
        assert_ne!(a, c, "different seed, different arrivals");
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn poisson_rate_shapes_spacing() {
        let span = |rate: f64| {
            let w = Workload::poisson(3, rate, 50, RequestMix::default());
            w.scheduled.back().expect("non-empty").0
        };
        assert!(span(2.0) < span(0.1), "higher rate packs arrivals tighter");
    }

    #[test]
    fn trace_replays_in_order() {
        let mix = RequestMix::default();
        let mut rng = StdRng::seed_from_u64(1);
        let r0 = mix.sample(&mut rng, 0);
        let r1 = mix.sample(&mut rng, 1);
        let mut w = Workload::trace(vec![(9, r1.clone()), (2, r0.clone())]);
        assert_eq!(w.next_arrival_tick(), Some(2));
        assert_eq!(w.take_arrivals(5), vec![r0]);
        assert_eq!(w.take_arrivals(9), vec![r1]);
        assert!(w.exhausted());
    }

    #[test]
    fn shared_prefix_mix_prepends_group_prefixes() {
        let mix = RequestMix { shared_prefix_len: 10, prefix_groups: 2, ..RequestMix::default() };
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..16 {
            let r = mix.sample(&mut rng, i);
            let prefix = mix.group_prefix(i % 2);
            assert_eq!(prefix.len(), 10);
            assert!(r.request.prompt.starts_with(&prefix), "request {i} must start with its group prefix");
            let suffix_len = r.request.prompt.len() - 10;
            assert!((mix.prompt_len.0..=mix.prompt_len.1).contains(&suffix_len));
            assert!(r.request.prompt.iter().all(|&t| t >= 1 && t < mix.vocab_size));
        }
        assert_ne!(mix.group_prefix(0), mix.group_prefix(1), "groups have distinct prefixes");
    }

    #[test]
    fn disabled_shared_prefix_preserves_the_rng_stream() {
        // Adding the shared-prefix feature must not perturb existing
        // seeded workloads: with the feature off, the sampled requests
        // are exactly what the pre-feature sampler drew.
        let mix = RequestMix::default();
        let mut rng = StdRng::seed_from_u64(4);
        let r = mix.sample(&mut rng, 0);
        let mut reference_rng = StdRng::seed_from_u64(4);
        let len = reference_rng.gen_range(mix.prompt_len.0..=mix.prompt_len.1);
        let prompt: Vec<usize> = (0..len).map(|_| reference_rng.gen_range(1..mix.vocab_size)).collect();
        assert_eq!(r.request.prompt, prompt);
    }

    #[test]
    fn mix_respects_bounds_and_rotation() {
        let mix = RequestMix::default();
        let mut rng = StdRng::seed_from_u64(42);
        for i in 0..64 {
            let r = mix.sample(&mut rng, i);
            let len = r.request.prompt.len();
            assert!((mix.prompt_len.0..=mix.prompt_len.1).contains(&len));
            assert!((mix.max_new_tokens.0..=mix.max_new_tokens.1).contains(&r.request.max_new_tokens));
            assert!(r.request.prompt.iter().all(|&t| t >= 1 && t < mix.vocab_size));
            assert!(r.priority < mix.priority_tiers);
            assert_eq!(r.request.policy, mix.policies[i % mix.policies.len()]);
        }
    }
}
