//! Admission control: KV byte accounting against HBM capacity.
//!
//! Every admitted session reserves a conservative *peak* KV footprint —
//! `(prompt_len + max_new_tokens) × kv_bytes_per_token` — against the
//! device capacity ([`veda_mem::HbmConfig::capacity_bytes`]). The peak
//! bound deliberately ignores the request's cache budget: eviction
//! policies may refuse to evict below their protected prefix (the voting
//! policy never evicts inside its reserved length), so the budget is not
//! a guaranteed ceiling, while `prompt + generated` is. Reserving peaks
//! makes the core serving invariant — admitted KV bytes never exceed
//! capacity — hold unconditionally, at the cost of admitting slightly
//! fewer sessions than a tighter estimate would. The controller keeps no
//! reservation state: a shard sums the peaks of its running and
//! swapping-in requests from its request table
//! ([`crate::Shard::reserved_bytes`]), so reserved bytes equal the
//! admitted reservations by construction.
//!
//! ## Shared-prefix discount
//!
//! When the engine's prefix cache is enabled, a request whose prompt
//! matches a cached prefix references the shared span instead of owning
//! it — those bytes are resident **once**, in the cache entry — so the
//! server reserves only the *unshared* peak
//! (`AdmissionController::estimate_unshared_bytes`). Two conditions
//! make the discount sound under the v2 churn-capable cache:
//!
//! 1. **The match cannot shrink.** Under LRU eviction, TTL expiry and
//!    host spill, a probed match could vanish between arrival and
//!    submit — so the shard does not probe, it **pins**: accepting a
//!    discounted request takes a [`veda::Engine::pin_prefix`] pin on
//!    the matched entry and holds it across the queue. A pinned entry
//!    is ineligible for every churn path, so the discount's basis is
//!    still resident at submit time; the pin is released only after
//!    the submit has taken its own per-session seed pin (held until
//!    the session retires), so the entry is covered for the request's
//!    whole lifetime. Every queue-exit path — rejection, shed,
//!    timeout, crash — releases the pin too. The shard's admission
//!    reclaim step ([`veda::Engine::reclaim_prefix`]) trims, spills and
//!    drops only unpinned entries, so it cannot shrink a pinned match
//!    either. The one path that takes a pin away before the submit,
//!    the revocation on a shard nothing else can free, returns the
//!    request's reservation estimate to its full peak in the same step:
//!    a request without a pin never carries a discount.
//! 2. **The span cannot be privatized.** An eviction *inside* a shared
//!    span deep-copies it (the session then owns those bytes), which
//!    would push the session past a discounted reservation — so the
//!    discount is applied only to requests that provably never evict
//!    ([`Request::never_evicts`]: budget cap ≥ peak; a session's cap is
//!    fixed at submit). Every other request reserves its full peak,
//!    exactly as without the cache.
//!
//! The cache's own resident bytes are charged too: the server subtracts
//! [`veda::PrefixCache::resident_bytes`] from the headroom admissions
//! and swap-ins fit into, so cached prefixes are never free capacity.
//! A request whose matched entry was spilled to the host tier also
//! charges its fill cost ([`veda::PrefixCache::fill_bytes`]) against
//! headroom — promotion copies the entry back into device memory, and
//! an admission that ignored those bytes could be bankrupted by its own
//! fill traffic. Idle cache bytes are not lost capacity, though: a
//! candidate that does not fit first reclaims unpinned entries (their
//! never-served tails, then whole entries in LRU order) before any
//! running session is preempted for it, so cache overhead can delay an
//! admission but never crowd it out for good.
//! [`veda::PrefixCacheConfig::max_bytes`] still bounds the overhead a
//! burst of insertions can build up between admissions. This is what lets a
//! shared-prefix workload admit strictly more sessions under the same
//! capacity — pinned by the serving-stack tests — without moving bytes
//! off the books.

use veda::Request;

/// Why a request was turned away rather than queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The request's peak KV footprint exceeds the device capacity even
    /// with an empty machine; it can never be admitted.
    NeverFits,
    /// The wait queue is at its configured depth limit.
    QueueFull,
    /// The request itself is malformed (empty or out-of-vocabulary
    /// prompt, zero-token generation limit, unusable budget) — possible
    /// only through hand-built trace workloads.
    Invalid,
}

impl RejectReason {
    /// Stable label.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            RejectReason::NeverFits => "never_fits",
            RejectReason::QueueFull => "queue_full",
            RejectReason::Invalid => "invalid",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Admission configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Device KV capacity in bytes. Model weights are accounted
    /// separately (they are resident regardless of load), so this is the
    /// budget available to session KV state.
    pub capacity_bytes: u64,
    /// Maximum number of requests waiting for admission; arrivals beyond
    /// this are rejected with [`RejectReason::QueueFull`].
    pub max_queue_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self { capacity_bytes: veda_mem::HbmConfig::default().capacity_bytes, max_queue_depth: 64 }
    }
}

/// Byte-accounting admission controller (see the [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct AdmissionController {
    config: AdmissionConfig,
}

impl AdmissionController {
    /// Creates a controller over `config`.
    pub(crate) fn new(config: AdmissionConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub(crate) fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Peak KV bytes of a request given the engine's per-token KV cost
    /// ([`veda::Engine::kv_bytes_per_token`]). The token count is
    /// [`Request::peak_resident_tokens`], the single source of the
    /// reservation math shared with the engine's submit-time KV
    /// pre-allocation, so the two accountings cannot drift (see the
    /// [module docs](self) for why the cache budget is ignored).
    pub(crate) fn estimate_bytes(request: &Request, kv_bytes_per_token: u64) -> u64 {
        request.peak_resident_tokens() as u64 * kv_bytes_per_token
    }

    /// Peak KV bytes a request will *privately own*, given that
    /// `shared_tokens` of its prompt are served from the engine's prefix
    /// cache ([`veda::Engine::prefix_match_len`]) and therefore stay
    /// resident in the cache entry, not the session (see the
    /// [module docs](self)). With `shared_tokens = 0` this is exactly
    /// [`AdmissionController::estimate_bytes`].
    pub(crate) fn estimate_unshared_bytes(
        request: &Request,
        shared_tokens: usize,
        kv_bytes_per_token: u64,
    ) -> u64 {
        request.peak_resident_tokens().saturating_sub(shared_tokens) as u64 * kv_bytes_per_token
    }

    /// Screens an arrival: `Err` rejects it outright, `Ok` means it may
    /// wait in the queue (whether it is admitted *now* is the scheduler's
    /// call via [`AdmissionController::would_fit`]).
    pub(crate) fn screen(&self, est_bytes: u64, queue_depth: usize) -> Result<(), RejectReason> {
        if est_bytes > self.config.capacity_bytes {
            Err(RejectReason::NeverFits)
        } else if queue_depth >= self.config.max_queue_depth {
            Err(RejectReason::QueueFull)
        } else {
            Ok(())
        }
    }

    /// Whether reserving `est_bytes` on top of `reserved` stays within
    /// capacity.
    pub(crate) fn would_fit(&self, reserved: u64, est_bytes: u64) -> bool {
        reserved + est_bytes <= self.config.capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veda::Request;

    fn request(prompt_len: usize, max_new: usize) -> Request {
        Request::new(vec![1; prompt_len], max_new)
    }

    #[test]
    fn peak_covers_prompt_and_generation() {
        assert_eq!(request(16, 8).peak_resident_tokens(), 24);
        assert_eq!(AdmissionController::estimate_bytes(&request(16, 8), 256), 24 * 256);
    }

    #[test]
    fn shared_prefix_discount_reduces_the_estimate() {
        let r = request(16, 8);
        assert_eq!(AdmissionController::estimate_unshared_bytes(&r, 0, 256), 24 * 256);
        assert_eq!(AdmissionController::estimate_unshared_bytes(&r, 10, 256), 14 * 256);
        // The discount never underflows, even for a (theoretical) full
        // overlap.
        assert_eq!(AdmissionController::estimate_unshared_bytes(&r, 99, 256), 0);
    }

    #[test]
    fn would_fit_counts_the_reserved_bytes() {
        let ac = AdmissionController::new(AdmissionConfig { capacity_bytes: 1000, max_queue_depth: 4 });
        assert!(ac.would_fit(0, 1000));
        assert!(ac.would_fit(600, 400));
        assert!(!ac.would_fit(600, 401));
        assert!(!ac.would_fit(1000, 1));
    }

    #[test]
    fn screen_rejects_giants_and_full_queues() {
        let ac = AdmissionController::new(AdmissionConfig { capacity_bytes: 1000, max_queue_depth: 2 });
        assert_eq!(ac.screen(1001, 0), Err(RejectReason::NeverFits));
        assert_eq!(ac.screen(500, 2), Err(RejectReason::QueueFull));
        assert_eq!(ac.screen(500, 1), Ok(()));
        // A fitting-but-not-now request queues rather than rejects.
        assert_eq!(ac.screen(1000, 0), Ok(()));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RejectReason::NeverFits.to_string(), "never_fits");
        assert_eq!(RejectReason::QueueFull.to_string(), "queue_full");
    }
}
