//! Scheduling policies: which queued request is admitted next, and which
//! running session (if any) is preempted to make room for it.
//!
//! Policies are deliberately small, deterministic decision functions over
//! read-only views of the queue and the running set; the [`crate::Shard`]
//! owns all state transitions (reserve/release, swap, pause/resume), so a
//! policy bug cannot corrupt accounting. Preemptive policies bound the
//! times any one session may be preempted ([`MAX_PREEMPTIONS`]) so a
//! stream of short requests cannot starve a long one forever.

/// Times one session may be preempted before it becomes unevictable.
pub const MAX_PREEMPTIONS: u32 = 2;

/// Read-only view of one queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedView {
    /// Arrival index (global submission order) — the deterministic
    /// tiebreaker.
    pub arrival: usize,
    /// Tick the request was submitted.
    pub submitted: u64,
    /// Priority tier, higher is more important.
    pub priority: u8,
    /// Tokens the request wants to generate.
    pub total_tokens: usize,
    /// Peak KV bytes the request will reserve.
    pub est_bytes: u64,
}

/// Read-only view of one running (admitted, active) session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningView {
    /// Arrival index of the underlying request.
    pub arrival: usize,
    /// Priority tier.
    pub priority: u8,
    /// Tokens the session may still generate.
    pub remaining_tokens: usize,
    /// Peak KV bytes reserved for the session.
    pub est_bytes: u64,
    /// Times this session has already been preempted.
    pub preemptions: u32,
}

/// The built-in scheduling policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedKind {
    /// First come, first served; never preempts.
    Fcfs,
    /// Round-robin over the queue by arrival index; never preempts.
    RoundRobin,
    /// Shortest remaining budget first; preempts the running session with
    /// the most remaining tokens when a strictly shorter request waits.
    Srb,
    /// Priority tiers (FCFS within a tier); preempts the lowest-priority
    /// running session for a strictly higher-priority request.
    Priority,
}

impl SchedKind {
    /// All kinds, in presentation order.
    pub const ALL: [SchedKind; 4] =
        [SchedKind::Fcfs, SchedKind::RoundRobin, SchedKind::Srb, SchedKind::Priority];

    /// Stable identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            SchedKind::Fcfs => "fcfs",
            SchedKind::RoundRobin => "round_robin",
            SchedKind::Srb => "srb",
            SchedKind::Priority => "priority",
        }
    }

    /// Builds the policy.
    pub fn build(self) -> Box<dyn SchedulerPolicy> {
        match self {
            SchedKind::Fcfs => Box::new(Fcfs),
            SchedKind::RoundRobin => Box::new(RoundRobin { cursor: 0 }),
            SchedKind::Srb => Box::new(ShortestRemainingBudget),
            SchedKind::Priority => Box::new(PriorityTiers),
        }
    }
}

impl std::fmt::Display for SchedKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error parsing a [`SchedKind`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchedKindError(String);

impl std::fmt::Display for ParseSchedKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown scheduler {:?} (expected one of: fcfs, round_robin, srb, priority)", self.0)
    }
}

impl std::error::Error for ParseSchedKindError {}

impl std::str::FromStr for SchedKind {
    type Err = ParseSchedKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized: String =
            s.trim().to_ascii_lowercase().chars().filter(|c| !matches!(c, '-' | '_' | ' ')).collect();
        match normalized.as_str() {
            "fcfs" | "fifo" => Ok(SchedKind::Fcfs),
            "roundrobin" | "rr" => Ok(SchedKind::RoundRobin),
            "srb" | "shortest" | "sjf" => Ok(SchedKind::Srb),
            "priority" | "prio" | "tiers" => Ok(SchedKind::Priority),
            _ => Err(ParseSchedKindError(s.to_string())),
        }
    }
}

/// A scheduling decision function (see the [module docs](self)).
pub trait SchedulerPolicy {
    /// Which policy this is.
    fn kind(&self) -> SchedKind;

    /// Index into `queued` of the request to try admitting next, or
    /// `None` to admit nothing this round. `queued` is never empty.
    /// Must not assume the pick is admitted — a candidate that does not
    /// fit blocks the queue and will be offered again next tick; the
    /// server confirms successful admissions via
    /// [`SchedulerPolicy::on_admitted`].
    fn next_candidate(&mut self, queued: &[QueuedView]) -> Option<usize>;

    /// Notification that `admitted` (a previous [`next_candidate`] pick)
    /// actually entered the engine. Stateful orderings (round-robin)
    /// advance here, so a blocked pick is retried rather than bypassed.
    ///
    /// [`next_candidate`]: SchedulerPolicy::next_candidate
    fn on_admitted(&mut self, admitted: &QueuedView) {
        let _ = admitted;
    }

    /// Index into `running` of the session to preempt so `incoming` can
    /// be admitted, or `None` to let `incoming` wait. Only consulted when
    /// `incoming` does not fit; the server may call it repeatedly until
    /// enough bytes are freed.
    fn preemption_victim(&self, incoming: &QueuedView, running: &[RunningView]) -> Option<usize> {
        let _ = (incoming, running);
        None
    }
}

/// First come, first served.
struct Fcfs;

impl SchedulerPolicy for Fcfs {
    fn kind(&self) -> SchedKind {
        SchedKind::Fcfs
    }

    fn next_candidate(&mut self, queued: &[QueuedView]) -> Option<usize> {
        position_min_by_key(queued, |q| (q.submitted, q.arrival))
    }
}

/// Round-robin over arrival indices.
struct RoundRobin {
    /// Arrival index after which the next pick starts.
    cursor: usize,
}

impl SchedulerPolicy for RoundRobin {
    fn kind(&self) -> SchedKind {
        SchedKind::RoundRobin
    }

    fn next_candidate(&mut self, queued: &[QueuedView]) -> Option<usize> {
        // First queued arrival strictly beyond the cursor, wrapping to the
        // smallest when the cursor passed everyone. The cursor moves only
        // in `on_admitted`, so a pick that fails to fit is retried (not
        // bypassed) next round.
        let beyond = queued
            .iter()
            .enumerate()
            .filter(|(_, q)| q.arrival > self.cursor)
            .min_by_key(|(_, q)| q.arrival)
            .map(|(i, _)| i);
        beyond.or_else(|| position_min_by_key(queued, |q| q.arrival))
    }

    fn on_admitted(&mut self, admitted: &QueuedView) {
        self.cursor = admitted.arrival;
    }
}

/// Shortest remaining budget (SJF over generation limits), preemptive.
struct ShortestRemainingBudget;

impl SchedulerPolicy for ShortestRemainingBudget {
    fn kind(&self) -> SchedKind {
        SchedKind::Srb
    }

    fn next_candidate(&mut self, queued: &[QueuedView]) -> Option<usize> {
        position_min_by_key(queued, |q| (q.total_tokens, q.arrival))
    }

    fn preemption_victim(&self, incoming: &QueuedView, running: &[RunningView]) -> Option<usize> {
        // Preempt the session with the most remaining work, but only for a
        // strictly shorter request — equal-length churn is pure swap cost.
        running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.remaining_tokens > incoming.total_tokens && r.preemptions < MAX_PREEMPTIONS)
            .max_by_key(|(_, r)| (r.remaining_tokens, std::cmp::Reverse(r.arrival)))
            .map(|(i, _)| i)
    }
}

/// Priority tiers, preemptive.
struct PriorityTiers;

impl SchedulerPolicy for PriorityTiers {
    fn kind(&self) -> SchedKind {
        SchedKind::Priority
    }

    fn next_candidate(&mut self, queued: &[QueuedView]) -> Option<usize> {
        // Highest tier first, FCFS within a tier.
        position_min_by_key(queued, |q| (std::cmp::Reverse(q.priority), q.submitted, q.arrival))
    }

    fn preemption_victim(&self, incoming: &QueuedView, running: &[RunningView]) -> Option<usize> {
        // Lowest tier first; most remaining work breaks ties (it has the
        // least sunk cost per byte freed).
        running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.priority < incoming.priority && r.preemptions < MAX_PREEMPTIONS)
            .min_by_key(|(_, r)| (r.priority, std::cmp::Reverse(r.remaining_tokens), r.arrival))
            .map(|(i, _)| i)
    }
}

fn position_min_by_key<T, K: Ord>(items: &[T], key: impl Fn(&T) -> K) -> Option<usize> {
    items.iter().enumerate().min_by_key(|(_, item)| key(item)).map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(arrival: usize, submitted: u64, priority: u8, tokens: usize) -> QueuedView {
        QueuedView { arrival, submitted, priority, total_tokens: tokens, est_bytes: 100 }
    }

    fn running(arrival: usize, priority: u8, remaining: usize, preemptions: u32) -> RunningView {
        RunningView { arrival, priority, remaining_tokens: remaining, est_bytes: 100, preemptions }
    }

    #[test]
    fn kinds_roundtrip_and_aliases() {
        for kind in SchedKind::ALL {
            assert_eq!(kind.as_str().parse::<SchedKind>().unwrap(), kind);
            assert_eq!(kind.build().kind(), kind);
        }
        assert_eq!("rr".parse::<SchedKind>().unwrap(), SchedKind::RoundRobin);
        assert_eq!("round-robin".parse::<SchedKind>().unwrap(), SchedKind::RoundRobin);
        assert!("lifo".parse::<SchedKind>().is_err());
    }

    #[test]
    fn fcfs_picks_earliest_submission() {
        let mut p = SchedKind::Fcfs.build();
        let q = [queued(2, 5, 0, 4), queued(0, 1, 0, 9), queued(1, 1, 2, 2)];
        assert_eq!(p.next_candidate(&q), Some(1), "earliest submitted, lowest arrival on tie");
        assert_eq!(p.preemption_victim(&q[0], &[running(0, 0, 50, 0)]), None, "fcfs never preempts");
    }

    #[test]
    fn round_robin_cycles_over_admitted_arrivals() {
        let mut p = SchedKind::RoundRobin.build();
        let q = [queued(3, 0, 0, 4), queued(7, 0, 0, 4), queued(5, 0, 0, 4)];
        let admit = |p: &mut Box<dyn SchedulerPolicy>| {
            let pick = p.next_candidate(&q).unwrap();
            p.on_admitted(&q[pick]);
            pick
        };
        assert_eq!(admit(&mut p), 0, "first pass starts at the smallest arrival");
        assert_eq!(admit(&mut p), 2, "then the next larger arrival");
        assert_eq!(admit(&mut p), 1);
        assert_eq!(admit(&mut p), 0, "wraps around");
    }

    #[test]
    fn round_robin_retries_a_blocked_pick() {
        let mut p = SchedKind::RoundRobin.build();
        let q = [queued(3, 0, 0, 4), queued(5, 0, 0, 4)];
        assert_eq!(p.next_candidate(&q), Some(0));
        // Not admitted (didn't fit): the same candidate is offered again
        // instead of being bypassed by a later arrival.
        assert_eq!(p.next_candidate(&q), Some(0), "blocked pick must be retried");
        p.on_admitted(&q[0]);
        assert_eq!(p.next_candidate(&q), Some(1), "cursor advances only on admission");
    }

    #[test]
    fn srb_prefers_short_requests_and_preempts_long_sessions() {
        let mut p = SchedKind::Srb.build();
        let q = [queued(0, 0, 0, 12), queued(1, 3, 0, 4)];
        assert_eq!(p.next_candidate(&q), Some(1), "shorter request wins despite later arrival");

        let r = [running(0, 0, 3, 0), running(1, 0, 20, 0), running(2, 0, 20, MAX_PREEMPTIONS)];
        assert_eq!(p.preemption_victim(&q[1], &r), Some(1), "most remaining, preemptable");
        let only_short = [running(0, 0, 4, 0)];
        assert_eq!(p.preemption_victim(&q[1], &only_short), None, "equal length never preempts");
    }

    #[test]
    fn priority_prefers_high_tiers_and_preempts_low() {
        let mut p = SchedKind::Priority.build();
        let q = [queued(0, 0, 0, 4), queued(1, 5, 2, 4)];
        assert_eq!(p.next_candidate(&q), Some(1), "higher tier wins despite later submission");

        let incoming = queued(2, 6, 2, 4);
        let r = [running(0, 2, 9, 0), running(1, 0, 3, 0), running(2, 0, 8, 0)];
        assert_eq!(p.preemption_victim(&incoming, &r), Some(2), "lowest tier, most remaining");
        let peers = [running(0, 2, 9, 0)];
        assert_eq!(p.preemption_victim(&incoming, &peers), None, "equal tier never preempts");
    }

    #[test]
    fn preemption_counter_bounds_churn() {
        let p = SchedKind::Priority.build();
        let incoming = queued(9, 0, 2, 4);
        let r = [running(0, 0, 9, MAX_PREEMPTIONS)];
        assert_eq!(p.preemption_victim(&incoming, &r), None);
    }
}
