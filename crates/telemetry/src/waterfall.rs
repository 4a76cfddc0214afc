//! Per-request latency waterfall: where each tick of end-to-end latency
//! went.

/// A completed request's end-to-end latency split into disjoint stages.
///
/// The stages partition the closed interval from submission to
/// completion, so they sum exactly to the end-to-end latency
/// ([`StageWaterfall::e2e`]) — pinned by the conservation property
/// test. Swap and migration waits are carved out of whichever of
/// prefill / decode they interrupted, so "prefill" and "decode" here
/// mean *on-device* time only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageWaterfall {
    /// Ticks from submission to admission (time in the wait queue).
    pub queueing: u64,
    /// On-device ticks from admission to the first generated token.
    pub prefill: u64,
    /// On-device ticks from the first token to completion.
    pub decode: u64,
    /// Ticks spent swapped out to the host (preemption → rejoin).
    pub swap_wait: u64,
    /// Ticks spent in flight between shards (extract → resume).
    pub migration_wait: u64,
}

impl StageWaterfall {
    /// The stage durations in field order: queueing, prefill, decode,
    /// swap wait, migration wait.
    pub(crate) fn stages(&self) -> [u64; 5] {
        [self.queueing, self.prefill, self.decode, self.swap_wait, self.migration_wait]
    }

    /// End-to-end latency: the exact sum of all five stages.
    pub fn e2e(&self) -> u64 {
        self.stages().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_sum_to_e2e() {
        let w = StageWaterfall { queueing: 3, prefill: 5, decode: 20, swap_wait: 4, migration_wait: 2 };
        assert_eq!(w.e2e(), 34);
        assert_eq!(StageWaterfall::default().e2e(), 0);
    }
}
