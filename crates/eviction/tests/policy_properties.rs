//! Property-based tests over all eviction policies: invariants that must
//! hold for any observation stream.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use rand::Rng;
use veda_eviction::voting::votes_for;
use veda_eviction::{
    CacheSimulator, EvictionPolicy, PolicyKind, ScoreView, VoteStats, VotingConfig, VotingPolicy,
};

/// Counts the calling thread's allocations and reallocations, so the
/// sibling tests `cargo test` runs on other threads do not perturb the
/// count.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the only added
// work is a thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The voting rule as the paper states it, on the allocating reference:
/// per round `votes_for` over the votable span, then one saturating
/// increment per returned slot.
struct ReferenceVoting {
    config: VotingConfig,
    counters: Vec<u16>,
    steps: usize,
    stats: VoteStats,
}

impl ReferenceVoting {
    fn new(config: VotingConfig, slots: usize) -> Self {
        Self { config, counters: vec![0; slots], steps: 0, stats: VoteStats::default() }
    }

    fn observe(&mut self, scores: ScoreView<'_>) {
        self.steps += 1;
        if self.steps <= self.config.reserved_len {
            return;
        }
        if self.config.per_head_votes {
            for head in scores.heads() {
                self.round(head);
            }
        } else {
            self.round(&scores.average());
        }
    }

    fn round(&mut self, scores: &[f32]) {
        let lo = self.config.reserved_len.min(scores.len());
        let votable = &scores[lo..];
        if votable.is_empty() {
            return;
        }
        let threshold = self.config.threshold(scores);
        let voted = votes_for(votable, threshold);
        let below = votable.iter().filter(|&&s| s < threshold).count();
        self.stats.rounds += 1;
        self.stats.fallback_rounds += u64::from(threshold <= 0.0 || below == 0);
        self.stats.votes_cast += voted.len() as u64;
        self.stats.votable += votable.len() as u64;
        for j in voted {
            self.counters[lo + j] = self.counters[lo + j].saturating_add(1);
        }
    }
}

fn assert_stats_conserved(stats: VoteStats) {
    assert!(stats.votes_cast >= stats.rounds, "{stats:?}: every round casts a vote");
    assert!(stats.fallback_rounds <= stats.rounds, "{stats:?}");
    assert!(stats.votes_cast <= stats.votable, "{stats:?}: a slot gets at most one vote per round");
}

/// Random softmax-like score vectors (positive, sum to 1) per head,
/// head-major in one flat buffer.
fn random_scores(rng: &mut rand::rngs::StdRng, heads: usize, len: usize) -> Vec<f32> {
    (0..heads)
        .flat_map(|_| {
            let raw: Vec<f32> = (0..len).map(|_| rng.gen_range(0.01f32..1.0)).collect();
            let sum: f32 = raw.iter().sum();
            raw.into_iter().map(move |x| x / sum)
        })
        .collect()
}

/// Steps `sim` once with random scores of `heads` heads over its cache.
fn step_random(sim: &mut CacheSimulator<'_>, rng: &mut rand::rngs::StdRng, heads: usize) {
    let scores = random_scores(rng, heads, sim.resident().len() + 1);
    sim.step(Some(ScoreView::new(&scores, heads)));
}

proptest! {
    #[test]
    fn cache_never_exceeds_budget(
        kind_idx in 0usize..PolicyKind::ALL.len(),
        budget in 1usize..16,
        tokens in 1usize..64,
        heads in 1usize..4,
        seed in 0u64..500,
    ) {
        let kind = PolicyKind::ALL[kind_idx];
        let mut rng = veda_tensor::rng::seeded(seed);
        let mut policy = kind.build();
        let mut sim = CacheSimulator::new(policy.as_mut(), budget);
        for _ in 0..tokens {
            step_random(&mut sim, &mut rng, heads);
            match kind {
                // Evicting policies may refuse only when everything is
                // protected (sink/reserved); the cache can then exceed the
                // budget by the protected amount at most.
                PolicyKind::Full => {}
                _ => prop_assert!(
                    sim.resident().len() <= budget.max(33),
                    "{kind}: resident {} budget {}", sim.resident().len(), budget
                ),
            }
        }
    }

    #[test]
    fn resident_set_is_sorted_and_unique(
        kind_idx in 0usize..PolicyKind::ALL.len(),
        budget in 2usize..12,
        tokens in 1usize..48,
        seed in 0u64..200,
    ) {
        let kind = PolicyKind::ALL[kind_idx];
        let mut rng = veda_tensor::rng::seeded(seed);
        let mut policy = kind.build();
        let mut sim = CacheSimulator::new(policy.as_mut(), budget);
        for _ in 0..tokens {
            step_random(&mut sim, &mut rng, 2);
            let r = sim.resident();
            prop_assert!(r.windows(2).all(|w| w[0] < w[1]), "{kind}: resident not sorted: {r:?}");
        }
    }

    #[test]
    fn sliding_window_never_evicts_newest_token(
        sink in 0usize..4,
        extra in 1usize..8,
        tokens in 1usize..48,
        seed in 0u64..200,
    ) {
        // Structural guarantee of the sink+window scheme: as long as the
        // budget exceeds the sink, the victim is always the oldest non-sink
        // slot, never the newest. (Score-driven policies such as H2O can
        // evict the newest token — the item-count bias the paper documents —
        // so no such property is asserted for them.)
        let budget = sink + extra;
        let mut rng = veda_tensor::rng::seeded(seed);
        let mut window = veda_eviction::SlidingWindowPolicy::new(sink);
        let mut sim = CacheSimulator::new(&mut window, budget);
        for t in 0..tokens {
            step_random(&mut sim, &mut rng, 1);
            prop_assert_eq!(*sim.resident().last().unwrap(), t);
        }
    }

    #[test]
    fn deterministic_given_same_stream(
        kind_idx in 0usize..PolicyKind::ALL.len(),
        budget in 1usize..10,
        tokens in 1usize..40,
        seed in 0u64..100,
    ) {
        let kind = PolicyKind::ALL[kind_idx];
        let run = || {
            let mut rng = veda_tensor::rng::seeded(seed);
            let mut policy = kind.build();
            let mut sim = CacheSimulator::new(policy.as_mut(), budget);
            for _ in 0..tokens {
                step_random(&mut sim, &mut rng, 2);
            }
            sim.resident().to_vec()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn voting_threshold_between_extremes(
        xs in proptest::collection::vec(0.0001f32..1.0, 2..64),
        a in 0.5f32..1.5,
        b in 0.0f32..0.5,
    ) {
        // T = a*mean - b*sigma <= a*mean <= a*max
        let cfg = VotingConfig::with_coefficients(a, b);
        let t = cfg.threshold(&xs);
        let max = xs.iter().cloned().fold(f32::MIN, f32::max);
        prop_assert!(t <= a * max + 1e-5);
    }

    #[test]
    fn voting_votes_nonempty_and_in_range(
        xs in proptest::collection::vec(0.0001f32..1.0, 1..64),
    ) {
        let cfg = VotingConfig::default();
        let t = cfg.threshold(&xs);
        let votes = veda_eviction::voting::votes_for(&xs, t);
        prop_assert!(!votes.is_empty());
        prop_assert!(votes.iter().all(|&j| j < xs.len()));
    }

    #[test]
    fn in_place_votes_equal_votes_for_plus_increment(
        slots in 1usize..12,
        heads in 1usize..4,
        reserved_len in 0usize..6,
        coeff in 0usize..12,
        per_head in 0usize..2,
        observations in 1usize..24,
        seed in 0u64..1000,
    ) {
        // `a` and `b` from the calibration grid's corners: b = 3 drives
        // `T <= 0` on peaked rows, a = 4 votes for almost everything.
        let a = [0.5f32, 1.0, 4.0][coeff % 3];
        let b = [0.0f32, 0.2, 1.2, 3.0][coeff / 3];
        let config = VotingConfig { a, b, reserved_len, per_head_votes: per_head == 1 };
        let mut rng = veda_tensor::rng::seeded(seed);
        let mut policy = VotingPolicy::new(config);
        for _ in 0..slots {
            policy.on_append();
        }
        let mut reference = ReferenceVoting::new(config, slots);
        for _ in 0..observations {
            // Scores on a coarse lattice so ties are the rule; one row in
            // four is all-equal, one in four has a single dominant weight.
            let shape = rng.gen_range(0u32..4);
            let flat: Vec<f32> = (0..heads * slots)
                .map(|i| match shape {
                    0 => 0.125,
                    1 if i % slots == 0 => 0.9,
                    1 => 0.0078125,
                    _ => f32::from(rng.gen_range(1u8..5)) * 0.0625,
                })
                .collect();
            let view = ScoreView::new(&flat, heads);
            policy.observe(view);
            reference.observe(view);
            prop_assert_eq!(policy.vote_counts(), reference.counters.as_slice());
            prop_assert_eq!(policy.stats(), reference.stats);
        }
        assert_stats_conserved(policy.stats());
        if slots <= reserved_len {
            // Empty votable span: observed, never a round.
            prop_assert_eq!(policy.stats(), VoteStats::default());
        }
    }

    #[test]
    fn voting_policy_state_tracks_cache(
        tokens in 1usize..64,
        budget in 2usize..16,
        seed in 0u64..100,
    ) {
        let mut rng = veda_tensor::rng::seeded(seed);
        let mut policy = VotingPolicy::new(VotingConfig::with_reserved_len(1));
        let mut sim = CacheSimulator::new(&mut policy, budget);
        for _ in 0..tokens {
            step_random(&mut sim, &mut rng, 2);
        }
        prop_assert!(sim.resident().len() <= budget);
        prop_assert_eq!(sim.resident().len(), budget.min(tokens));
    }
}

#[test]
fn saturated_counters_stay_equal_to_the_reference() {
    // 256 heads voting per head: slot 1 collects 256 votes per step, so
    // its 16-bit counter saturates on step 256 and must stay there.
    let config = VotingConfig { per_head_votes: true, ..VotingConfig::with_reserved_len(0) };
    let heads = 256;
    let flat: Vec<f32> = (0..heads).flat_map(|_| [0.9f32, 0.01, 0.09]).collect();
    let view = ScoreView::new(&flat, heads);
    let mut policy = VotingPolicy::new(config);
    for _ in 0..3 {
        policy.on_append();
    }
    let mut reference = ReferenceVoting::new(config, 3);
    for _ in 0..260 {
        policy.observe(view);
        reference.observe(view);
    }
    assert_eq!(policy.vote_counts(), reference.counters.as_slice());
    assert_eq!(policy.vote_counts()[1], u16::MAX);
    assert_eq!(policy.stats(), reference.stats);
    assert!(policy.stats().votes_cast > u64::from(u16::MAX), "saturated votes still count as cast");
    assert_stats_conserved(policy.stats());
}

#[test]
fn steady_state_voting_observe_allocates_nothing() {
    const BUDGET: usize = 64;
    const HEADS: usize = 4;
    let mut rng = veda_tensor::rng::seeded(11);
    let rows: Vec<f32> = random_scores(&mut rng, HEADS, BUDGET + 1);
    for per_head_votes in [false, true] {
        let mut policy =
            VotingPolicy::new(VotingConfig { per_head_votes, ..VotingConfig::with_reserved_len(4) });
        let mut sim = CacheSimulator::new(&mut policy, BUDGET);
        let mut step = || {
            let len = sim.resident().len() + 1;
            let victim = sim.step(Some(ScoreView::new(&rows[..HEADS * len], HEADS)));
            assert_eq!(victim.is_some(), len > BUDGET, "slots beyond the reserved prefix");
        };
        // Warm-up: fill to the budget and evict a few times, so the vote
        // buffer, the head-average scratch and the drive's resident set and
        // per-slot counts reach their final capacity.
        for _ in 0..BUDGET + 8 {
            step();
        }
        let before = ALLOCATIONS.with(Cell::get);
        for _ in 0..200 {
            step();
        }
        let allocated = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(allocated, 0, "per_head_votes {per_head_votes}: {allocated} allocations in steady state");
        assert!(policy.stats().rounds >= 200, "the measured steps voted");
    }
}
