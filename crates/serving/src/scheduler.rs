//! Scheduling policies: which queued request is admitted next, and which
//! running session (if any) is preempted to make room for it.
//!
//! Each [`SchedKind`] is a small, stateless, deterministic decision
//! function over read-only views of the queue and the running set; the
//! [`crate::Shard`] owns all state transitions (stage changes, swap,
//! pause/resume), so a policy bug cannot corrupt accounting. The
//! preemptive policy bounds the times any one session may be preempted
//! ([`MAX_PREEMPTIONS`]) so a stream of high-priority requests cannot
//! starve a low-priority one forever.

/// Times one session may be preempted before it becomes unevictable.
pub const MAX_PREEMPTIONS: u32 = 2;

/// Read-only view of one queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueuedView {
    /// Arrival index (global submission order) — the deterministic
    /// tiebreaker.
    pub(crate) arrival: usize,
    /// Tick the request was submitted.
    pub(crate) submitted: u64,
    /// Priority tier, higher is more important.
    pub(crate) priority: u8,
    /// Peak KV bytes the request will reserve.
    pub(crate) est_bytes: u64,
}

/// Read-only view of one running (admitted, active) session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunningView {
    /// Arrival index of the underlying request.
    pub(crate) arrival: usize,
    /// Priority tier.
    pub(crate) priority: u8,
    /// Tokens the session may still generate.
    pub(crate) remaining_tokens: usize,
    /// Times this session has already been preempted.
    pub(crate) preemptions: u32,
}

/// The scheduling policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedKind {
    /// First come, first served; never preempts.
    Fcfs,
    /// Priority tiers (FCFS within a tier); preempts the lowest-priority
    /// running session for a strictly higher-priority request.
    Priority,
}

impl SchedKind {
    /// All kinds, in presentation order.
    pub const ALL: [SchedKind; 2] = [SchedKind::Fcfs, SchedKind::Priority];

    /// Stable identifier.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            SchedKind::Fcfs => "fcfs",
            SchedKind::Priority => "priority",
        }
    }

    /// Index into `queued` of the request to try admitting next, or
    /// `None` to admit nothing this round. A candidate that does not fit
    /// blocks the queue and is offered again next tick.
    pub(crate) fn next_candidate(self, queued: &[QueuedView]) -> Option<usize> {
        match self {
            SchedKind::Fcfs => position_min_by_key(queued, |q| (q.submitted, q.arrival)),
            // Highest tier first, FCFS within a tier.
            SchedKind::Priority => {
                position_min_by_key(queued, |q| (std::cmp::Reverse(q.priority), q.submitted, q.arrival))
            }
        }
    }

    /// Index into `running` of the session to preempt so `incoming` can
    /// be admitted, or `None` to let `incoming` wait. Only consulted when
    /// `incoming` does not fit; the shard may ask repeatedly until enough
    /// bytes are freed.
    pub(crate) fn preemption_victim(self, incoming: &QueuedView, running: &[RunningView]) -> Option<usize> {
        match self {
            SchedKind::Fcfs => None,
            // Lowest tier first; most remaining work breaks ties (it has
            // the least sunk cost per byte freed).
            SchedKind::Priority => running
                .iter()
                .enumerate()
                .filter(|(_, r)| r.priority < incoming.priority && r.preemptions < MAX_PREEMPTIONS)
                .min_by_key(|(_, r)| (r.priority, std::cmp::Reverse(r.remaining_tokens), r.arrival))
                .map(|(i, _)| i),
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
        write!(f, "unknown scheduler {:?} (expected one of: fcfs, priority)", self.0)
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
            "priority" | "prio" | "tiers" => Ok(SchedKind::Priority),
            _ => Err(ParseSchedKindError(s.to_string())),
        }
    }
}

fn position_min_by_key<T, K: Ord>(items: &[T], key: impl Fn(&T) -> K) -> Option<usize> {
    items.iter().enumerate().min_by_key(|(_, item)| key(item)).map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(arrival: usize, submitted: u64, priority: u8) -> QueuedView {
        QueuedView { arrival, submitted, priority, est_bytes: 100 }
    }

    fn running(arrival: usize, priority: u8, remaining: usize, preemptions: u32) -> RunningView {
        RunningView { arrival, priority, remaining_tokens: remaining, preemptions }
    }

    #[test]
    fn kinds_roundtrip_and_aliases() {
        for kind in SchedKind::ALL {
            assert_eq!(kind.as_str().parse::<SchedKind>().unwrap(), kind);
        }
        assert_eq!("fifo".parse::<SchedKind>().unwrap(), SchedKind::Fcfs);
        assert_eq!("Prio".parse::<SchedKind>().unwrap(), SchedKind::Priority);
        assert!("lifo".parse::<SchedKind>().is_err());
    }

    #[test]
    fn fcfs_picks_earliest_submission() {
        let p = SchedKind::Fcfs;
        let q = [queued(2, 5, 0), queued(0, 1, 0), queued(1, 1, 2)];
        assert_eq!(p.next_candidate(&q), Some(1), "earliest submitted, lowest arrival on tie");
        assert_eq!(p.preemption_victim(&q[0], &[running(0, 0, 50, 0)]), None, "fcfs never preempts");
    }

    #[test]
    fn priority_prefers_high_tiers_and_preempts_low() {
        let p = SchedKind::Priority;
        let q = [queued(0, 0, 0), queued(1, 5, 2)];
        assert_eq!(p.next_candidate(&q), Some(1), "higher tier wins despite later submission");

        let incoming = queued(2, 6, 2);
        let r = [running(0, 2, 9, 0), running(1, 0, 3, 0), running(2, 0, 8, 0)];
        assert_eq!(p.preemption_victim(&incoming, &r), Some(2), "lowest tier, most remaining");
        let peers = [running(0, 2, 9, 0)];
        assert_eq!(p.preemption_victim(&incoming, &peers), None, "equal tier never preempts");
    }

    #[test]
    fn preemption_counter_bounds_churn() {
        let incoming = queued(9, 0, 2);
        let r = [running(0, 0, 9, MAX_PREEMPTIONS)];
        assert_eq!(SchedKind::Priority.preemption_victim(&incoming, &r), None);
    }
}
