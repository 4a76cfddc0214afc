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
}

impl EvictionStats {
    /// Records that `victim_token` was evicted while generating
    /// `current_token`.
    pub(crate) fn record_eviction(&mut self, current_token: usize, victim_token: usize) {
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
        s.record_eviction(10, 2); // age 8
        s.record_eviction(10, 6); // age 4
        assert_eq!(s.mean_age(), 6.0);
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
        s.record_eviction(5, 1);
        s.record_refusal();
        let out = s.to_string();
        assert!(out.contains("1 evictions"));
        assert!(out.contains("1 refusals"));
    }
}
