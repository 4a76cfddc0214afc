//! Eviction statistics collected by [`crate::CacheSimulator`].

/// Counters describing a policy's eviction behaviour over one sequence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvictionStats {
    evictions: usize,
    refusals: usize,
    /// Sum of (current token − evicted token) ages, for the mean age.
    total_age: u64,
    min_age: Option<usize>,
    max_age: Option<usize>,
    /// `by_slot[s]`: evictions whose victim sat at cache slot `s`.
    by_slot: Vec<usize>,
}

impl EvictionStats {
    /// Records that `victim_token`, at `slot` of a `cache_len`-entry
    /// cache, was evicted while generating `current_token`. The per-slot
    /// counts grow to the cache length, so a cache held at its budget
    /// allocates for them once.
    pub(crate) fn record_eviction(
        &mut self,
        current_token: usize,
        victim_token: usize,
        slot: usize,
        cache_len: usize,
    ) {
        if self.by_slot.len() < cache_len {
            self.by_slot.resize(cache_len, 0);
        }
        if let Some(count) = self.by_slot.get_mut(slot) {
            *count += 1;
        }
        let age = current_token.saturating_sub(victim_token);
        self.evictions += 1;
        self.total_age += age as u64;
        self.min_age = Some(self.min_age.map_or(age, |m| m.min(age)));
        self.max_age = Some(self.max_age.map_or(age, |m| m.max(age)));
    }

    /// Records that the policy declined to evict while over budget.
    pub(crate) fn record_refusal(&mut self) {
        self.refusals += 1;
    }

    /// Evictions whose victim sat at cache slot `slot` when it was chosen
    /// (a sink-plus-window policy always evicts the slot after its sink).
    pub fn evictions_at(&self, slot: usize) -> usize {
        self.by_slot.get(slot).copied().unwrap_or(0)
    }

    /// Mean age (in tokens) of evicted entries; 0 when none were evicted.
    pub(crate) fn mean_age(&self) -> f64 {
        if self.evictions == 0 {
            0.0
        } else {
            self.total_age as f64 / self.evictions as f64
        }
    }
}

impl std::fmt::Display for EvictionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} evictions (mean age {:.1}, min {:?}, max {:?}), {} refusals",
            self.evictions,
            self.mean_age(),
            self.min_age,
            self.max_age,
            self.refusals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_ages() {
        let mut s = EvictionStats::default();
        s.record_eviction(10, 2, 0, 4); // age 8
        s.record_eviction(10, 6, 3, 4); // age 4
        assert_eq!(s.mean_age(), 6.0);
        assert_eq!((s.evictions_at(0), s.evictions_at(1), s.evictions_at(3)), (1, 0, 1));
        assert_eq!(s.to_string(), "2 evictions (mean age 6.0, min Some(4), max Some(8)), 0 refusals");
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = EvictionStats::default();
        assert_eq!(s.mean_age(), 0.0);
        assert_eq!(s.to_string(), "0 evictions (mean age 0.0, min None, max None), 0 refusals");
    }

    #[test]
    fn display_is_informative() {
        let mut s = EvictionStats::default();
        s.record_eviction(5, 1, 0, 2);
        s.record_refusal();
        let out = s.to_string();
        assert!(out.contains("1 evictions"));
        assert!(out.contains("1 refusals"));
    }
}
