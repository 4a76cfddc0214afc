//! Shared-prefix KV reuse across sessions: the engine-level prefix cache.
//!
//! Serving workloads at scale are dominated by common system prompts and
//! few-shot templates; recomputing (and re-storing) the identical prefix
//! KV for every session wastes both HBM bytes and prefill cycles. A
//! [`PrefixCache`] stores, per cached prefix, everything a new session
//! needs to *skip* prefilling the shared span while remaining
//! bit-identical to an uncached run:
//!
//! * the per-layer **KV rows** of the prefix (a [`SequenceState`] holding
//!   exactly the prefix tokens — prefill never evicts, so these rows are a
//!   pure function of the token sequence), and
//! * the per-token **attention-score observation stream**
//!   ([`ScoreBuffer`] per prefix token). Eviction policies accumulate
//!   state from prefill observations (H2O's score sums, voting's vote
//!   counts), so a session that skips the shared forward passes must
//!   *replay* the recorded observations into its fresh policy stack —
//!   otherwise its later eviction decisions, and therefore its generated
//!   tokens, would drift from an uncached run.
//!
//! Because RoPE rotates keys by **absolute** position and every prompt
//! places the shared prefix at positions `0..k`, the cached rows are
//! valid for any request whose prompt starts with the same tokens. The
//! observation stream is likewise a deterministic function of the prefix
//! tokens alone.
//!
//! Matching is token-exact longest-prefix, bounded above by
//! `prompt.len() - 1`: the final prompt token is always recomputed, since
//! its forward pass produces the logits the first decode step samples
//! from. Matches shorter than [`PrefixCacheConfig::min_match_tokens`]
//! are ignored (tiny shared spans are not worth the bookkeeping).
//!
//! # Churn: LRU eviction, TTL expiry and the host spill tier
//!
//! The v1 cache was insert-only within a run, which made the admission
//! discount trivially sound but modelled nothing like a churning
//! production cache. v2 lets entries *leave*:
//!
//! * **Byte-pressure eviction.** When an insertion (or a promotion from
//!   the host tier) would push device-resident bytes past
//!   [`PrefixCacheConfig::max_bytes`], the cache evicts unpinned entries
//!   in LRU order (`last_used`, ties broken by insertion id — fully
//!   deterministic, no wall clock). With
//!   [`PrefixCacheConfig::spill`] off the victim is dropped; with spill
//!   on it moves to a **host-memory tier**: its KV rows leave HBM over
//!   the host link (a `PrefixSpill` transfer the serving layer charges)
//!   but stay warm in host RAM. A later hit on a spilled entry
//!   *promotes* it back (a `PrefixFill` transfer whose latency the
//!   serving layer serializes onto the engine clock exactly like a
//!   session swap-in).
//! * **TTL expiry.** `PrefixCache::advance_clock` runs on the
//!   coordinator each virtual tick; unpinned entries (either tier) idle
//!   for [`PrefixCacheConfig::ttl_ticks`] or longer are expired and
//!   dropped. The clock is the serving layer's virtual tick counter, so
//!   expiry is bit-identical across `decode_threads` and across runs.
//! * **Pins.** Eviction interacts with the subtlest soundness condition
//!   in the codebase: an admission controller that discounted a
//!   request's reservation by its shared prefix must be guaranteed the
//!   share still exists at submit time. v2 makes that explicit with
//!   per-entry reference counts: a serving layer pins the matched entry
//!   when it takes the discount (`PrefixCache::pin`), and every hit
//!   session holds a *seed pin* on its entry from submit to retirement.
//!   Pinned entries are immune to eviction, spilling *and* expiry, in
//!   both tiers, so a granted reservation can never be invalidated. A
//!   promotion that finds only pinned device entries may transiently
//!   overshoot `max_bytes` — the byte bound is a policy target, not a
//!   physical wall, and soundness wins the conflict.
//!
//! * **Trims and reclaim.** Each entry records the longest match it has
//!   served (through a lookup or a pin). A serving layer that cannot
//!   admit work calls `PrefixCache::reclaim_one` (through
//!   `Engine::reclaim_prefix`): it cuts the LRU unpinned entry's rows
//!   past that match — the inserting session's private prompt tail,
//!   which no prompt has matched — and, when no entry has such a tail,
//!   evicts the LRU unpinned entry as byte pressure would. A trim is
//!   dropped, never spilled: the tail is a copy of one session's rows.
//!
//! For an engine used on its own, the default churn knobs
//! (`max_bytes = u64::MAX`, no TTL, spill off) leave none of this
//! machinery reachable, and the cache is byte-identical to the v1
//! insert-only cache — determinism invariant #10, pinned by
//! `tests/prefix_v2_equivalence.rs`. Under a serving shard, admission
//! pressure can still trim or spill entries whatever the knobs say.
//!
//! [`PrefixCacheConfig::max_entries`] remains a hard structural bound on
//! the *index*: insertions are skipped (never evicted for) once the
//! device tier holds that many entries, exactly as in v1.
//!
//! The engine inserts only prompts that **missed**: a hit prompt's
//! shareable span is already cached, and its private suffix could never
//! match a future prompt — so for group-structured traffic the cache
//! holds about one entry per distinct prefix, not one per request.
//!
//! The cache keeps each device entry's prefix KV resident in HBM
//! **once**; every hit session references that span (copy-on-evict, see
//! [`SequenceState::seed_from`]) instead of owning a private copy, and
//! serving layers charge [`PrefixCache::resident_bytes`] against device
//! capacity so cached prefixes are never free memory. Host-tier bytes
//! (`PrefixCache::host_bytes`) live in host RAM and are accounted
//! separately.
//!
//! ```
//! use veda::{PrefixCache, PrefixCacheConfig};
//! use veda_model::{ModelConfig, TransformerModel};
//!
//! // Build a prefix entry the way the engine does during prefill: run the
//! // shared tokens forward once, recording KV rows and observations.
//! let model = TransformerModel::new(ModelConfig::tiny());
//! let prefix = vec![1, 5, 9, 2];
//! let mut state = model.new_state();
//! let mut scratch = model.new_scratch(prefix.len());
//! let mut observations = Vec::new();
//! for (position, &token) in prefix.iter().enumerate() {
//!     model.forward_with_scratch(&mut state, token, position, &mut scratch);
//!     observations.push(scratch.scores().clone());
//! }
//!
//! let mut cache = PrefixCache::new(PrefixCacheConfig { min_match_tokens: 2, max_entries: 8, ..PrefixCacheConfig::default() });
//! assert!(cache.insert(prefix.clone(), state, observations));
//!
//! // A prompt sharing the prefix matches it token-exactly…
//! assert_eq!(cache.match_len(&[1, 5, 9, 2, 7, 3]), 4);
//! // …the final prompt token is never served from the cache…
//! assert_eq!(cache.match_len(&[1, 5, 9, 2]), 3);
//! // …and prompts diverging before the minimum match length miss.
//! assert_eq!(cache.match_len(&[1, 9, 9, 9, 9]), 0);
//! assert_eq!(cache.stats().entries, 1);
//! ```

use veda_model::{ScoreBuffer, SequenceState};

/// Configuration of the engine's [`PrefixCache`] (see
/// [`crate::EngineBuilder::prefix_cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixCacheConfig {
    /// Minimum token-exact match length worth sharing; shorter matches
    /// are treated as misses. Clamped to at least 1.
    pub min_match_tokens: usize,
    /// Maximum number of cached prefix entries in the device tier. Once
    /// full, further insertions are skipped — the entry *count* bound is
    /// structural (an index-size cap) and is never evicted for; only the
    /// byte bound below drives churn.
    pub max_entries: usize,
    /// Maximum FP16 bytes the cache's entries may keep resident in HBM.
    /// An insertion (or host-tier promotion) that would exceed it evicts
    /// unpinned entries in LRU order first — dropping them, or spilling
    /// them to the host tier when [`PrefixCacheConfig::spill`] is on.
    /// Pinned entries never move, so a promotion may transiently
    /// overshoot this bound when every device entry is pinned.
    /// `u64::MAX` (the standalone default) disables byte-pressure churn
    /// entirely, restoring v1's insert-only behaviour.
    pub max_bytes: u64,
    /// Idle ticks after which an unpinned entry (either tier) expires.
    /// The clock advances via `PrefixCache::advance_clock` — virtual
    /// ticks, never wall time. `u64::MAX` (the default) means entries
    /// never expire.
    pub ttl_ticks: u64,
    /// Whether byte-pressure eviction spills victims to the host-memory
    /// tier (promoted back on a later hit, with the fill latency charged
    /// by the serving layer) instead of dropping them. Off by default.
    pub spill: bool,
}

impl Default for PrefixCacheConfig {
    /// Minimum match of 4 tokens, at most 32 entries, no byte bound, no
    /// TTL, spill off — the no-churn configuration that is byte-identical
    /// to the v1 insert-only cache (serving deployments should set
    /// [`PrefixCacheConfig::max_bytes`] and consider a TTL).
    fn default() -> Self {
        Self { min_match_tokens: 4, max_entries: 32, max_bytes: u64::MAX, ttl_ticks: u64::MAX, spill: false }
    }
}

impl PrefixCacheConfig {
    /// Rejects a configuration under which the cache could never serve a
    /// hit: no entry slot (`max_entries == 0`), no byte room
    /// (`max_bytes == 0`), or entries that expire on the tick they are
    /// inserted (`ttl_ticks == 0`).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.max_entries == 0 {
            return Err("max_entries must be at least 1".into());
        }
        if self.max_bytes == 0 {
            return Err("max_bytes must be at least 1".into());
        }
        if self.ttl_ticks == 0 {
            return Err("ttl_ticks must be at least 1".into());
        }
        Ok(())
    }
}

/// Aggregate counters of one [`PrefixCache`] (reported on
/// [`crate::EngineReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Cached prefix entries currently resident in the device tier.
    pub entries: usize,
    /// FP16 bytes the cached prefix KV occupies in HBM — resident once,
    /// referenced by every hit session.
    pub resident_bytes: u64,
    /// Entries currently parked in the host-memory spill tier.
    pub host_entries: usize,
    /// FP16 bytes the host-memory spill tier holds (host RAM, not HBM).
    pub host_bytes: u64,
    /// Submitted prompts that matched a cached prefix.
    pub hits: u64,
    /// Submitted prompts that matched nothing (or matched below the
    /// minimum length).
    pub misses: u64,
    /// Prefix entries inserted.
    pub insertions: u64,
    /// Total prompt tokens served from the cache across all hits — the
    /// prefill forward passes (and on-clock prefill chunks) the engine
    /// skipped.
    pub shared_tokens: u64,
    /// Unpinned entries dropped under byte pressure (spill off).
    pub evictions: u64,
    /// Unpinned entries moved device → host under byte pressure.
    pub spills: u64,
    /// Host-tier entries promoted back to the device on a hit.
    pub fills: u64,
    /// Unpinned entries dropped by TTL expiry (either tier).
    pub expiries: u64,
    /// FP16 bytes moved device → host by spills.
    pub spill_bytes: u64,
    /// FP16 bytes moved host → device by promotions.
    pub fill_bytes: u64,
    /// Unpinned device entries cut back to the longest match they had
    /// served, under admission pressure (`PrefixCache::reclaim_one`).
    pub trims: u64,
    /// FP16 bytes trims freed from the device tier (no host-link
    /// traffic: a trimmed tail is dropped, never spilled).
    pub trimmed_bytes: u64,
}

impl PrefixCacheStats {
    /// Hit rate over all lookups, in `[0, 1]`. Guarded: a run whose
    /// entries were inserted and then expired without ever being looked
    /// up has zero lookups, and the rate is defined as `0.0` rather than
    /// `NaN`.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Entry-count conservation: every inserted or promoted entry is
    /// either still resident (some tier) or left through exactly one of
    /// eviction/expiry. Property tests assert this closes on every tick.
    pub fn entries_conserved(&self) -> bool {
        self.insertions == (self.entries + self.host_entries) as u64 + self.evictions + self.expiries
    }
}

/// One cached prefix: its tokens, KV rows and observation stream.
#[derive(Debug, Clone)]
struct PrefixEntry {
    /// Stable insertion id — monotone over the cache's lifetime, kept
    /// through spills and promotions. Doubles as the deterministic LRU
    /// tie-breaker and the id stamped onto expiry trace events.
    id: u64,
    /// The prefix token sequence.
    tokens: Vec<usize>,
    /// Per-layer KV rows of the prefix (`cache_len == tokens.len()`).
    state: SequenceState,
    /// Per-token attention-score observations (one [`ScoreBuffer`] per
    /// prefix token, in token order) — replayed into a hit session's
    /// fresh policy stack.
    observations: Vec<ScoreBuffer>,
    /// Times this entry served a hit.
    hits: u64,
    /// Longest match this entry has served through a lookup or been
    /// pinned at. Rows past it are the inserting session's private
    /// prompt tail, which no prompt has matched yet; a trim cuts them.
    served: usize,
    /// Outstanding pins: queued admission discounts plus live seeded
    /// sessions. A pinned entry is immune to eviction, spilling and
    /// expiry.
    pins: u32,
    /// Cache-clock tick of the last touch (insert, hit, promotion or
    /// unpin) — the LRU ordering key.
    last_used: u64,
}

fn entry_bytes(entry: &PrefixEntry) -> u64 {
    entry.state.total_fp16_bytes() as u64
}

/// A held admission pin on one cached entry, returned by
/// `PrefixCache::pin`. The serving layer keeps it while a discounted
/// reservation is outstanding and releases it with
/// `PrefixCache::unpin`; while held, the entry cannot be evicted,
/// spilled or expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixPin {
    entry: u64,
    matched: usize,
}

impl PrefixPin {
    /// Token-exact match length the pin was taken against. The entry
    /// cannot leave while pinned, so a later lookup is guaranteed to
    /// match at least this many tokens.
    pub fn matched(&self) -> usize {
        self.matched
    }
}

/// Which way a pending prefix transfer moves KV bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixTransferKind {
    /// Device → host: an unpinned entry left HBM under byte pressure.
    Spill,
    /// Host → device: a spilled entry was promoted back on a hit.
    Fill,
}

/// One pending host-link transfer produced by cache churn. The cache is
/// a pure bookkeeping structure — it records the traffic and the owning
/// serving layer drains it (via `Engine::take_prefix_transfers`) to
/// charge its host link and serialize fill latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixTransfer {
    /// Stable id of the entry that moved.
    pub entry: u64,
    /// FP16 bytes crossing the host link.
    pub bytes: u64,
    /// Direction of the move.
    pub kind: PrefixTransferKind,
}

/// One TTL expiry, returned by `PrefixCache::advance_clock` so the
/// engine can stamp a trace event per expired entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PrefixExpiry {
    /// Stable id of the expired entry.
    pub entry: u64,
    /// FP16 bytes the entry freed.
    pub bytes: u64,
}

/// The outcome of a successful [`PrefixCache::lookup`]: how many tokens
/// are shared and borrows of the data needed to seed a session. Looking
/// up takes a *seed pin* on the entry (recorded under
/// [`PrefixHit::entry`]); the engine holds it for the session's lifetime
/// and releases it at retire/discard/extract.
pub(crate) struct PrefixHit<'a> {
    /// Shared token count (`>= min_match_tokens`).
    pub matched: usize,
    /// Stable id of the entry that served the hit (now holding one more
    /// pin — the session's seed pin).
    pub entry: u64,
    /// The entry's KV rows (seed the session's [`SequenceState`] from the
    /// first `matched` rows).
    pub state: &'a SequenceState,
    /// The entry's observation stream (replay the first `matched`
    /// buffers).
    pub observations: &'a [ScoreBuffer],
}

/// Token-exact longest-match prefix cache with LRU/TTL churn and an
/// optional host-memory spill tier (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct PrefixCache {
    config: PrefixCacheConfig,
    /// Device tier: entries resident in HBM.
    entries: Vec<PrefixEntry>,
    /// Host tier: entries spilled to host RAM, promoted back on a hit.
    host: Vec<PrefixEntry>,
    /// Next entry id (monotone, never reused).
    next_id: u64,
    /// Virtual cache clock, advanced by the owning layer's tick counter.
    now: u64,
    /// Host-link traffic produced by churn, drained by the serving layer.
    pending: Vec<PrefixTransfer>,
    /// The running counters; [`PrefixCache::stats`] fills in the four
    /// derived fields (entry counts and bytes per tier) on read.
    stats: PrefixCacheStats,
}

impl PrefixCache {
    /// Creates an empty cache.
    pub fn new(config: PrefixCacheConfig) -> Self {
        let config = PrefixCacheConfig { min_match_tokens: config.min_match_tokens.max(1), ..config };
        Self {
            config,
            entries: Vec::new(),
            host: Vec::new(),
            next_id: 0,
            now: 0,
            pending: Vec::new(),
            stats: PrefixCacheStats::default(),
        }
    }

    /// Number of cached prefixes in the device tier.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries in either tier.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.host.is_empty()
    }

    /// FP16 bytes the cached prefix KV occupies in HBM. Each device
    /// entry's rows are resident **once**; hit sessions reference them
    /// (shared spans) rather than owning copies.
    pub fn resident_bytes(&self) -> u64 {
        self.entries.iter().map(entry_bytes).sum()
    }

    /// FP16 bytes parked in the host-memory spill tier (host RAM — not
    /// charged against device capacity, but promotions pay to bring them
    /// back).
    pub(crate) fn host_bytes(&self) -> u64 {
        self.host.iter().map(entry_bytes).sum()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> PrefixCacheStats {
        PrefixCacheStats {
            entries: self.entries.len(),
            resident_bytes: self.resident_bytes(),
            host_entries: self.host.len(),
            host_bytes: self.host_bytes(),
            ..self.stats
        }
    }

    /// Best `(match_len, entry_id, in_host_tier)` across both tiers for
    /// `prompt`, or `None` below the minimum. Ties on length prefer the
    /// most recently inserted entry (highest id) — with an insert-only
    /// history this reproduces v1's highest-index tie-break exactly —
    /// and the device tier over the host tier at equal `(len, id)`
    /// (unreachable: ids are unique).
    fn best_match(&self, prompt: &[usize]) -> Option<(usize, u64, bool)> {
        let cap = prompt.len().saturating_sub(1);
        let best = self
            .entries
            .iter()
            .map(|e| (e, false))
            .chain(self.host.iter().map(|e| (e, true)))
            .map(|(e, in_host)| (common_prefix_len(&e.tokens, &prompt[..cap]), e.id, in_host))
            .max_by_key(|&(len, id, in_host)| (len, id, !in_host))?;
        if best.0 >= self.config.min_match_tokens {
            Some(best)
        } else {
            None
        }
    }

    /// Longest token-exact match between `prompt` and any cached prefix
    /// (either tier), bounded by `prompt.len() - 1` (the final prompt
    /// token is always recomputed — its logits seed the first decode
    /// step). Returns 0 for matches below the configured minimum.
    /// Read-only: does not touch the hit/miss counters, the LRU order or
    /// the tiers (use it to *estimate*, e.g. for routing affinity).
    pub fn match_len(&self, prompt: &[usize]) -> usize {
        self.best_match(prompt).map_or(0, |(len, _, _)| len)
    }

    /// FP16 bytes a hit on `prompt` would have to promote from the host
    /// tier right now (0 when the best match is device-resident or there
    /// is no match). Admission controllers add this to a queued
    /// request's headroom check so a promotion can never be granted into
    /// capacity that does not exist.
    pub fn fill_bytes(&self, prompt: &[usize]) -> u64 {
        match self.best_match(prompt) {
            Some((_, id, true)) => self.host.iter().find(|e| e.id == id).map_or(0, entry_bytes),
            _ => 0,
        }
    }

    /// Pins the best-matching entry for `prompt` (either tier) and
    /// returns the pin, or `None` when nothing matches at the minimum
    /// length. While the pin is held the entry cannot be evicted,
    /// spilled or expired, so an admission discount taken against
    /// [`PrefixPin::matched`] tokens stays valid until
    /// [`PrefixCache::unpin`]. Does not count a hit or promote — the
    /// submit-time lookup does that.
    pub(crate) fn pin(&mut self, prompt: &[usize]) -> Option<PrefixPin> {
        let (matched, id, _) = self.best_match(prompt)?;
        let now = self.now;
        if let Some(entry) = self.entry_mut(id) {
            entry.pins += 1;
            entry.served = entry.served.max(matched);
            entry.last_used = now;
        }
        Some(PrefixPin { entry: id, matched })
    }

    /// Releases a pin taken by [`PrefixCache::pin`]. The entry's LRU
    /// clock is touched (it was in use until now).
    pub(crate) fn unpin(&mut self, pin: PrefixPin) {
        self.unpin_entry(pin.entry);
    }

    /// Releases one pin on entry `id` (used both for admission pins and
    /// for the engine's per-session seed pins). Missing ids are ignored
    /// — a pinned entry cannot leave, so this only happens for callers
    /// replaying stale state.
    pub(crate) fn unpin_entry(&mut self, id: u64) {
        let now = self.now;
        if let Some(entry) = self.entry_mut(id) {
            entry.pins = entry.pins.saturating_sub(1);
            entry.last_used = now;
        }
    }

    fn entry_mut(&mut self, id: u64) -> Option<&mut PrefixEntry> {
        self.entries.iter_mut().chain(self.host.iter_mut()).find(|e| e.id == id)
    }

    /// Looks up the best entry for `prompt`, counting a hit or a miss.
    /// On a hit, the entry is promoted to the device tier if it was
    /// spilled (recording a `Fill` transfer), takes one seed pin for the
    /// hitting session, and the call returns the shared length plus
    /// borrows of the entry's KV rows and observation stream.
    pub(crate) fn lookup(&mut self, prompt: &[usize]) -> Option<PrefixHit<'_>> {
        let best = self.best_match(prompt);
        match best {
            Some((matched, id, in_host)) => {
                self.stats.hits += 1;
                self.stats.shared_tokens += matched as u64;
                if in_host {
                    self.promote(id);
                }
                let now = self.now;
                let entry = self.entries.iter_mut().find(|e| e.id == id)?;
                entry.hits += 1;
                entry.pins += 1;
                entry.served = entry.served.max(matched);
                entry.last_used = now;
                Some(PrefixHit { matched, entry: id, state: &entry.state, observations: &entry.observations })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Moves host entry `id` back to the device tier, evicting unpinned
    /// device entries as needed. Promotion always succeeds — when every
    /// device entry is pinned the byte bound is transiently overshot
    /// (soundness beats the policy target; see the module docs).
    fn promote(&mut self, id: u64) {
        let Some(index) = self.host.iter().position(|e| e.id == id) else {
            return;
        };
        let entry = self.host.remove(index);
        let bytes = entry_bytes(&entry);
        // Best-effort room: spill/drop unpinned LRU entries, but promote
        // regardless of the outcome.
        self.make_room(bytes);
        // Keep the device tier's entry-count bound by swapping the LRU
        // unpinned entry out (spill is on — promotions only exist with a
        // host tier), again best-effort.
        while self.entries.len() >= self.config.max_entries {
            if !self.evict_one() {
                break;
            }
        }
        self.stats.fills += 1;
        self.stats.fill_bytes += bytes;
        self.pending.push(PrefixTransfer { entry: entry.id, bytes, kind: PrefixTransferKind::Fill });
        self.entries.push(entry);
    }

    /// Evicts (or spills) the unpinned LRU device entry. Returns `false`
    /// when every device entry is pinned.
    fn evict_one(&mut self) -> bool {
        let victim = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.pins == 0)
            .min_by_key(|(_, e)| (e.last_used, e.id))
            .map(|(i, _)| i);
        let Some(index) = victim else {
            return false;
        };
        let entry = self.entries.remove(index);
        let bytes = entry_bytes(&entry);
        if self.config.spill {
            self.stats.spills += 1;
            self.stats.spill_bytes += bytes;
            self.pending.push(PrefixTransfer { entry: entry.id, bytes, kind: PrefixTransferKind::Spill });
            self.host.push(entry);
        } else {
            self.stats.evictions += 1;
        }
        true
    }

    /// Frees device bytes for a serving layer that cannot otherwise
    /// admit work, one step per call. The step first **trims** the
    /// least-recently-used unpinned entry that has served a hit and
    /// still holds rows past its longest served match: its tokens, KV
    /// rows and observations are cut to that match. The cut tail was a
    /// copy of the inserting session's private rows, so a trim is
    /// dropped, never spilled, and moves nothing over the host link.
    /// Only when no entry can be trimmed does the step evict the LRU
    /// unpinned entry whole (spilled or dropped, as under byte
    /// pressure). Pinned entries are never touched. Returns `false`
    /// when there was nothing to reclaim.
    pub(crate) fn reclaim_one(&mut self) -> bool {
        let min = self.config.min_match_tokens;
        let trimmable = self
            .entries
            .iter_mut()
            .filter(|e| e.pins == 0 && e.served >= min && e.tokens.len() > e.served)
            .min_by_key(|e| (e.last_used, e.id));
        let Some(entry) = trimmable else {
            return self.evict_one();
        };
        let before = entry_bytes(entry);
        let tail: Vec<usize> = (entry.served..entry.tokens.len()).collect();
        for layer in 0..entry.state.n_layers() {
            entry.state.evict_many(layer, &tail);
        }
        entry.tokens.truncate(entry.served);
        entry.observations.truncate(entry.served);
        self.stats.trims += 1;
        self.stats.trimmed_bytes += before - entry_bytes(entry);
        true
    }

    /// Evicts unpinned LRU entries until `incoming` more bytes fit under
    /// the byte bound. Returns whether they now fit.
    fn make_room(&mut self, incoming: u64) -> bool {
        if self.config.max_bytes == u64::MAX {
            return true;
        }
        while self.resident_bytes().saturating_add(incoming) > self.config.max_bytes {
            if !self.evict_one() {
                return false;
            }
        }
        true
    }

    /// Whether eviction *could* make `incoming` bytes fit: only pinned
    /// bytes are immovable.
    fn room_possible(&self, incoming: u64) -> bool {
        let pinned: u64 = self.entries.iter().filter(|e| e.pins > 0).map(entry_bytes).sum();
        pinned.saturating_add(incoming) <= self.config.max_bytes
    }

    /// Whether the cache would accept an insertion of `tokens` right now:
    /// the prefix is at least the minimum match length, no existing entry
    /// (either tier) already covers it, the device tier has entry-count
    /// room, and evicting unpinned entries could free enough bytes for
    /// `projected_bytes` (the candidate entry's estimated KV footprint).
    /// The engine probes this at submit to decide whether a session
    /// should record its prefill observation stream at all.
    pub(crate) fn wants(&self, tokens: &[usize], projected_bytes: u64) -> bool {
        tokens.len() >= self.config.min_match_tokens
            && self.entries.len() < self.config.max_entries
            && self.room_possible(projected_bytes)
            && !self.covers(tokens)
    }

    /// Whether some entry's tokens (either tier) start with the whole of
    /// `tokens`.
    fn covers(&self, tokens: &[usize]) -> bool {
        self.entries
            .iter()
            .chain(self.host.iter())
            .any(|e| e.tokens.len() >= tokens.len() && e.tokens.starts_with(tokens))
    }

    /// Inserts a prefix entry: its token sequence, the [`SequenceState`]
    /// holding exactly those tokens' KV rows, and the per-token
    /// observation stream. Unpinned LRU entries are evicted (dropped, or
    /// spilled to the host tier when [`PrefixCacheConfig::spill`] is on)
    /// to make byte room. Returns `false` (dropping the data) when the
    /// prefix is below the minimum length, already covered by an existing
    /// entry, the device tier is full in entries
    /// ([`PrefixCacheConfig::max_entries`] is a structural bound, never
    /// evicted for), or eviction cannot free enough bytes because the
    /// remaining entries are pinned.
    ///
    /// # Panics
    ///
    /// Panics if `state`'s cache length or `observations`'s length
    /// disagree with `tokens.len()`.
    pub fn insert(
        &mut self,
        tokens: Vec<usize>,
        state: SequenceState,
        observations: Vec<ScoreBuffer>,
    ) -> bool {
        assert_eq!(state.cache_len(), tokens.len(), "prefix entry state/token length mismatch");
        assert_eq!(observations.len(), tokens.len(), "prefix entry observations/token length mismatch");
        let bytes = state.total_fp16_bytes() as u64;
        if !self.wants(&tokens, bytes) || !self.make_room(bytes) {
            return false;
        }
        self.stats.insertions += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.entries.push(PrefixEntry {
            id,
            tokens,
            state,
            observations,
            hits: 0,
            served: 0,
            pins: 0,
            last_used: self.now,
        });
        true
    }

    /// Advances the cache clock to `now` (monotone; lower values are
    /// clamped) and expires unpinned entries in either tier that have
    /// been idle for [`PrefixCacheConfig::ttl_ticks`] or longer. Returns
    /// one [`PrefixExpiry`] per dropped entry, in deterministic order
    /// (device tier in entry order, then host tier), so the engine can
    /// stamp a trace event for each.
    pub(crate) fn advance_clock(&mut self, now: u64) -> Vec<PrefixExpiry> {
        self.now = self.now.max(now);
        let ttl = self.config.ttl_ticks;
        if ttl == u64::MAX {
            return Vec::new();
        }
        let at = self.now;
        let mut expired = Vec::new();
        self.entries.retain(|e| {
            let dead = e.pins == 0 && at.saturating_sub(e.last_used) >= ttl;
            if dead {
                expired.push(PrefixExpiry { entry: e.id, bytes: entry_bytes(e) });
            }
            !dead
        });
        self.host.retain(|e| {
            let dead = e.pins == 0 && at.saturating_sub(e.last_used) >= ttl;
            if dead {
                expired.push(PrefixExpiry { entry: e.id, bytes: entry_bytes(e) });
            }
            !dead
        });
        self.stats.expiries += expired.len() as u64;
        expired
    }

    /// Drains the host-link transfers produced by churn since the last
    /// drain (spills from eviction, fills from promotion), in the order
    /// they happened. The owning serving layer charges them against its
    /// host link; a standalone engine may simply discard them (the
    /// *decision* record is what determinism tests compare).
    pub(crate) fn take_transfers(&mut self) -> Vec<PrefixTransfer> {
        std::mem::take(&mut self.pending)
    }
}

/// Length of the longest common prefix of two token slices.
fn common_prefix_len(a: &[usize], b: &[usize]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use veda_model::{ModelConfig, TransformerModel};

    /// Runs `tokens` through a fresh sequence, returning the state and
    /// per-token observations — exactly what the engine records during
    /// prefill.
    fn materialize(model: &TransformerModel, tokens: &[usize]) -> (SequenceState, Vec<ScoreBuffer>) {
        let mut state = model.new_state();
        let mut scratch = model.new_scratch(tokens.len());
        let mut observations = Vec::with_capacity(tokens.len());
        for (position, &token) in tokens.iter().enumerate() {
            model.forward_with_scratch(&mut state, token, position, &mut scratch);
            observations.push(scratch.scores().clone());
        }
        (state, observations)
    }

    fn cache(min: usize, max: usize) -> PrefixCache {
        PrefixCache::new(PrefixCacheConfig {
            min_match_tokens: min,
            max_entries: max,
            ..PrefixCacheConfig::default()
        })
    }

    fn fill_cache(c: &mut PrefixCache, model: &TransformerModel, tokens: &[usize]) -> bool {
        let (state, obs) = materialize(model, tokens);
        c.insert(tokens.to_vec(), state, obs)
    }

    #[test]
    fn match_is_longest_and_capped_below_full_prompt() {
        let model = TransformerModel::new(ModelConfig::tiny());
        let mut c = cache(2, 8);
        let short = vec![1, 2, 3];
        let long = vec![1, 2, 3, 4, 5, 6];
        let (state, obs) = materialize(&model, &short);
        assert!(c.insert(short, state, obs));
        let (state, obs) = materialize(&model, &long);
        assert!(c.insert(long, state, obs));

        assert_eq!(c.match_len(&[1, 2, 3, 4, 5, 6, 7]), 6, "longest entry wins");
        assert_eq!(c.match_len(&[1, 2, 3, 4, 5, 6]), 5, "the last prompt token is recomputed");
        assert_eq!(c.match_len(&[1, 2, 9, 9]), 2, "divergence truncates the match");
        assert_eq!(c.match_len(&[9, 1, 2, 3]), 0, "prefixes anchor at position 0");
        assert_eq!(c.match_len(&[1, 2]), 0, "cap below minimum is a miss");
    }

    #[test]
    fn minimum_match_length_gates_hits() {
        let model = TransformerModel::new(ModelConfig::tiny());
        let mut c = cache(4, 8);
        let tokens = vec![1, 2, 3, 4, 5];
        let (state, obs) = materialize(&model, &tokens);
        assert!(c.insert(tokens, state, obs));
        assert_eq!(c.match_len(&[1, 2, 3, 9, 9]), 0, "3 < min_match_tokens");
        assert_eq!(c.match_len(&[1, 2, 3, 4, 9]), 4);
        assert!(c.lookup(&[1, 2, 3, 9, 9]).is_none());
        assert_eq!(c.lookup(&[1, 2, 3, 4, 9]).expect("hit").matched, 4);
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.shared_tokens), (1, 1, 4));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn insertions_dedup_and_respect_entry_capacity() {
        let model = TransformerModel::new(ModelConfig::tiny());
        let mut c = cache(2, 2);
        let a = vec![1, 2, 3];
        assert!(fill_cache(&mut c, &model, &a));
        // Covered by an existing entry (equal tokens): skipped.
        assert!(!fill_cache(&mut c, &model, &a));
        // A shorter prefix of an existing entry is also covered.
        assert!(!fill_cache(&mut c, &model, &[1, 2]));
        // A *longer* prefix is new information.
        assert!(fill_cache(&mut c, &model, &[1, 2, 3, 4]));
        // Full in entries: the count bound is structural — further
        // inserts are skipped, never evicted for.
        assert!(!fill_cache(&mut c, &model, &[7, 8, 9]));
        let stats = c.stats();
        assert_eq!((stats.entries, stats.insertions, stats.evictions), (2, 2, 0));
        assert!(stats.resident_bytes > 0);
        assert!(stats.entries_conserved());
    }

    #[test]
    fn byte_pressure_evicts_lru_unpinned_entries() {
        let model = TransformerModel::new(ModelConfig::tiny());
        let first = vec![1, 2, 3, 4];
        let (state, obs) = materialize(&model, &first);
        let entry_bytes = state.total_fp16_bytes() as u64;

        // Room for exactly one entry of this size: a second insert
        // evicts the cold first entry (spill off → dropped).
        let mut c = PrefixCache::new(PrefixCacheConfig {
            min_match_tokens: 2,
            max_entries: 8,
            max_bytes: entry_bytes,
            ttl_ticks: u64::MAX,
            spill: false,
        });
        assert!(c.insert(first.clone(), state, obs));
        assert!(fill_cache(&mut c, &model, &[7, 8, 9, 10]));
        let stats = c.stats();
        assert_eq!((stats.entries, stats.insertions, stats.evictions), (1, 2, 1));
        assert!(stats.resident_bytes <= entry_bytes);
        assert_eq!(c.match_len(&[1, 2, 3, 4, 5]), 0, "the evicted entry is gone");
        assert_eq!(c.match_len(&[7, 8, 9, 10, 11]), 4, "the new entry replaced it");
        assert!(stats.entries_conserved());
        assert!(c.take_transfers().is_empty(), "drop-on-evict moves no host-link bytes");
    }

    #[test]
    fn pinned_entries_are_immune_to_eviction() {
        let model = TransformerModel::new(ModelConfig::tiny());
        let first = vec![1, 2, 3, 4];
        let (state, obs) = materialize(&model, &first);
        let entry_bytes = state.total_fp16_bytes() as u64;
        let mut c = PrefixCache::new(PrefixCacheConfig {
            min_match_tokens: 2,
            max_entries: 8,
            max_bytes: entry_bytes,
            ttl_ticks: u64::MAX,
            spill: false,
        });
        assert!(c.insert(first, state, obs));
        let pin = c.pin(&[1, 2, 3, 4, 5]).expect("pin the only entry");
        assert_eq!(pin.matched(), 4);
        // The sole entry is pinned: no victim exists, so the insert is
        // skipped rather than invalidating the pinned reservation.
        assert!(!fill_cache(&mut c, &model, &[7, 8, 9, 10]));
        assert_eq!(c.match_len(&[1, 2, 3, 4, 5]), 4, "the pinned entry survived");
        c.unpin(pin);
        assert!(fill_cache(&mut c, &model, &[7, 8, 9, 10]), "unpinned, it can be evicted again");
        assert_eq!(c.match_len(&[1, 2, 3, 4, 5]), 0);
    }

    #[test]
    fn spill_parks_victims_on_the_host_and_a_hit_promotes_them() {
        let model = TransformerModel::new(ModelConfig::tiny());
        let first = vec![1, 2, 3, 4];
        let (state, obs) = materialize(&model, &first);
        let entry_bytes = state.total_fp16_bytes() as u64;
        let mut c = PrefixCache::new(PrefixCacheConfig {
            min_match_tokens: 2,
            max_entries: 8,
            max_bytes: entry_bytes,
            ttl_ticks: u64::MAX,
            spill: true,
        });
        assert!(c.insert(first, state, obs));
        assert!(fill_cache(&mut c, &model, &[7, 8, 9, 10]));
        let stats = c.stats();
        assert_eq!((stats.entries, stats.host_entries, stats.spills, stats.evictions), (1, 1, 1, 0));
        assert_eq!(stats.spill_bytes, entry_bytes);
        assert_eq!(stats.host_bytes, entry_bytes);
        let transfers = c.take_transfers();
        assert_eq!(transfers.len(), 1);
        assert_eq!((transfers[0].kind, transfers[0].bytes), (PrefixTransferKind::Spill, entry_bytes));

        // The spilled prefix still matches (host tier is searched) and a
        // lookup promotes it back, displacing the now-cold other entry.
        assert_eq!(c.match_len(&[1, 2, 3, 4, 5]), 4);
        assert_eq!(c.fill_bytes(&[1, 2, 3, 4, 5]), entry_bytes, "a hit would promote");
        assert_eq!(c.fill_bytes(&[7, 8, 9, 10, 11]), 0, "device hits promote nothing");
        let hit = c.lookup(&[1, 2, 3, 4, 5]).expect("host-tier hit");
        assert_eq!(hit.matched, 4);
        let seed_pin = hit.entry;
        let stats = c.stats();
        assert_eq!((stats.fills, stats.fill_bytes), (1, entry_bytes));
        assert_eq!((stats.entries, stats.host_entries), (1, 1), "promotion swapped the tiers");
        let transfers = c.take_transfers();
        assert_eq!(transfers.len(), 2, "the displaced entry spilled, the hit entry filled");
        assert_eq!(transfers[0].kind, PrefixTransferKind::Spill);
        assert_eq!(transfers[1].kind, PrefixTransferKind::Fill);
        assert!(c.stats().entries_conserved());
        c.unpin_entry(seed_pin);
    }

    #[test]
    fn ttl_expires_idle_unpinned_entries_deterministically() {
        let model = TransformerModel::new(ModelConfig::tiny());
        let mut c = PrefixCache::new(PrefixCacheConfig {
            min_match_tokens: 2,
            max_entries: 8,
            max_bytes: u64::MAX,
            ttl_ticks: 10,
            spill: false,
        });
        assert!(fill_cache(&mut c, &model, &[1, 2, 3, 4]));
        c.advance_clock(5);
        assert!(fill_cache(&mut c, &model, &[7, 8, 9, 10]));
        // Tick 9: nothing has been idle for 10 ticks yet.
        assert!(c.advance_clock(9).is_empty());
        assert_eq!(c.stats().entries, 2);
        // Tick 10: the first entry (last_used = 0) expires; the second
        // (last_used = 5) survives until tick 15.
        let expired = c.advance_clock(10);
        assert_eq!(expired.len(), 1);
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.stats().expiries, 1);
        assert_eq!(c.match_len(&[1, 2, 3, 4, 5]), 0);
        assert_eq!(c.match_len(&[7, 8, 9, 10, 11]), 4);
        // A hit refreshes the survivor's TTL.
        let hit = c.lookup(&[7, 8, 9, 10, 11]).expect("hit");
        let id = hit.entry;
        c.unpin_entry(id);
        assert!(c.advance_clock(15).is_empty(), "the tick-10 touch reset the clock");
        let expired = c.advance_clock(20);
        assert_eq!(expired.len(), 1);
        assert!(c.is_empty());
        assert!(c.stats().entries_conserved());
        // Inserted-then-expired with no lookups after the drop: the hit
        // rate must stay defined (regression for the divide-by-zero).
        let mut idle = PrefixCache::new(PrefixCacheConfig {
            min_match_tokens: 2,
            max_entries: 8,
            max_bytes: u64::MAX,
            ttl_ticks: 1,
            spill: false,
        });
        assert!(fill_cache(&mut idle, &model, &[1, 2, 3]));
        idle.advance_clock(1);
        let stats = idle.stats();
        assert_eq!((stats.entries, stats.expiries, stats.hits + stats.misses), (0, 1, 0));
        assert_eq!(stats.hit_rate(), 0.0, "zero lookups is a defined 0.0, not NaN");
        assert!(stats.hit_rate().is_finite());
    }

    #[test]
    fn pinned_entries_never_expire() {
        let model = TransformerModel::new(ModelConfig::tiny());
        let mut c = PrefixCache::new(PrefixCacheConfig {
            min_match_tokens: 2,
            max_entries: 8,
            max_bytes: u64::MAX,
            ttl_ticks: 3,
            spill: false,
        });
        assert!(fill_cache(&mut c, &model, &[1, 2, 3, 4]));
        let pin = c.pin(&[1, 2, 3, 4, 5]).expect("pin");
        assert!(c.advance_clock(100).is_empty(), "pinned entries are immune to TTL");
        c.unpin(pin);
        // The unpin touched the LRU clock, so expiry counts idle time
        // from the release, not the insert.
        assert!(c.advance_clock(102).is_empty());
        assert_eq!(c.advance_clock(103).len(), 1);
    }

    fn churny(max_bytes: u64, spill: bool) -> PrefixCache {
        PrefixCache::new(PrefixCacheConfig {
            min_match_tokens: 2,
            max_entries: 8,
            max_bytes,
            ttl_ticks: u64::MAX,
            spill,
        })
    }

    /// Every KV row (as raw bits), position and observation a hit of
    /// `matched` tokens on `state`/`observations` would seed.
    fn seed_bits(
        state: &SequenceState,
        observations: &[ScoreBuffer],
        matched: usize,
    ) -> (Vec<u32>, Vec<usize>, Vec<ScoreBuffer>) {
        let mut bits = Vec::new();
        let mut positions = Vec::new();
        for layer in state.caches() {
            for row in 0..matched {
                bits.extend(layer.keys().row(row).iter().chain(layer.values().row(row)).map(|x| x.to_bits()));
            }
            positions.extend(layer.positions().iter().take(matched));
        }
        (bits, positions, observations.iter().take(matched).cloned().collect())
    }

    /// Serves `prompt` once and releases the seed pin, so the entry has
    /// `served` = the match and stays unpinned.
    fn serve(c: &mut PrefixCache, prompt: &[usize]) -> usize {
        let hit = c.lookup(prompt).expect("hit");
        let (matched, entry) = (hit.matched, hit.entry);
        c.unpin_entry(entry);
        matched
    }

    #[test]
    fn a_trimmed_entry_serves_bit_identical_hits() {
        let model = TransformerModel::new(ModelConfig::tiny());
        let mut c = churny(u64::MAX, true);
        assert!(fill_cache(&mut c, &model, &[1, 2, 3, 4, 5, 6, 7, 8]));
        let prompt = [1, 2, 3, 4, 9, 9];
        assert_eq!(serve(&mut c, &prompt), 4);
        let before = {
            let hit = c.lookup(&prompt).expect("hit");
            let (bits, entry) = (seed_bits(hit.state, hit.observations, hit.matched), hit.entry);
            c.unpin_entry(entry);
            bits
        };
        let full_bytes = c.resident_bytes();

        assert!(c.reclaim_one());
        let stats = c.stats();
        assert_eq!((stats.trims, stats.entries, stats.evictions, stats.spills), (1, 1, 0, 0));
        assert_eq!(stats.trimmed_bytes, full_bytes / 2, "half the rows were a never-served tail");
        assert_eq!(c.resident_bytes(), full_bytes - stats.trimmed_bytes);
        assert!(c.take_transfers().is_empty(), "a trim moves nothing over the host link");
        assert!(stats.entries_conserved(), "a trim neither adds nor removes an entry");

        let hit = c.lookup(&prompt).expect("the trimmed entry still hits");
        assert_eq!(hit.matched, 4);
        assert_eq!(seed_bits(hit.state, hit.observations, hit.matched), before);
        assert_eq!(hit.state.cache_len(), 4);
        assert_eq!(hit.observations.len(), 4);
        // …and equal to rows recorded afresh for the served span alone.
        let (fresh, fresh_obs) = materialize(&model, &[1, 2, 3, 4]);
        assert_eq!(seed_bits(&fresh, &fresh_obs, 4), before);
    }

    #[test]
    fn a_trim_keeps_the_served_span_and_spares_pinned_entries() {
        let model = TransformerModel::new(ModelConfig::tiny());
        let mut c = churny(u64::MAX, false);
        assert!(fill_cache(&mut c, &model, &[1, 2, 3, 4, 5, 6, 7, 8]));
        assert!(fill_cache(&mut c, &model, &[20, 21, 22, 23, 24, 25, 26, 27]));
        // The older entry is pinned at 5 tokens; the newer one served 3
        // and 6 tokens, so its longest served match is 6.
        let pin = c.pin(&[1, 2, 3, 4, 5, 9]).expect("pin");
        assert_eq!(serve(&mut c, &[20, 21, 22, 9]), 3);
        assert_eq!(serve(&mut c, &[20, 21, 22, 23, 24, 25, 9]), 6);

        assert!(c.reclaim_one());
        let tokens: Vec<Vec<usize>> = c.entries.iter().map(|e| e.tokens.clone()).collect();
        assert_eq!(tokens, [vec![1, 2, 3, 4, 5, 6, 7, 8], vec![20, 21, 22, 23, 24, 25]]);
        assert_eq!(c.entries.iter().map(|e| e.observations.len()).collect::<Vec<_>>(), [8, 6]);
        assert_eq!(c.match_len(&[20, 21, 22, 23, 24, 25, 9]), 6, "never below the served match");

        // Nothing is left to trim: the next step evicts the one unpinned
        // entry whole, and then only the pinned entry remains.
        assert!(c.reclaim_one());
        assert_eq!((c.stats().trims, c.stats().evictions), (1, 1));
        assert!(!c.reclaim_one(), "a pinned entry is never reclaimed");
        assert_eq!(c.entries[0].tokens.len(), 8, "the pinned entry kept its tail");
        c.unpin(pin);
        assert!(c.reclaim_one(), "unpinned, its tail past the pinned match is trimmed");
        assert_eq!(c.entries[0].tokens, [1, 2, 3, 4, 5]);
        assert!(c.stats().entries_conserved());
    }

    #[test]
    fn reclaim_falls_back_to_lru_spill_or_drop_then_stops_at_pins() {
        let model = TransformerModel::new(ModelConfig::tiny());
        for spill in [false, true] {
            let mut c = churny(u64::MAX, spill);
            assert!(fill_cache(&mut c, &model, &[1, 2, 3, 4]));
            c.advance_clock(1);
            assert!(fill_cache(&mut c, &model, &[7, 8, 9, 10]));
            c.advance_clock(2);
            assert!(fill_cache(&mut c, &model, &[11, 12, 13, 14]));
            let pin = c.pin(&[11, 12, 13, 14, 15]).expect("pin");
            let entry_bytes = c.resident_bytes() / 3;

            // No entry has served a hit, so there is no tail to trim:
            // the LRU unpinned entries leave whole, oldest first.
            assert!(c.reclaim_one());
            assert_eq!(c.match_len(&[1, 2, 3, 4, 5]), if spill { 4 } else { 0 }, "spill {spill}");
            assert!(c.entries.iter().all(|e| e.tokens != [1, 2, 3, 4]));
            assert!(c.reclaim_one());
            assert!(!c.reclaim_one(), "only the pinned entry is left");
            let stats = c.stats();
            assert_eq!(stats.entries, 1);
            assert_eq!(stats.trims, 0);
            let transfers = c.take_transfers();
            if spill {
                assert_eq!((stats.spills, stats.host_entries, stats.evictions), (2, 2, 0));
                assert_eq!(
                    transfers.iter().map(|t| (t.kind, t.bytes)).collect::<Vec<_>>(),
                    [(PrefixTransferKind::Spill, entry_bytes), (PrefixTransferKind::Spill, entry_bytes)]
                );
            } else {
                assert_eq!((stats.evictions, stats.host_entries), (2, 0));
                assert!(transfers.is_empty());
            }
            assert!(stats.entries_conserved());
            c.unpin(pin);
        }
    }

    #[test]
    fn below_minimum_prefixes_are_rejected() {
        let model = TransformerModel::new(ModelConfig::tiny());
        let mut c = cache(4, 8);
        assert!(!fill_cache(&mut c, &model, &[1, 2]));
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn insert_rejects_inconsistent_entries() {
        let model = TransformerModel::new(ModelConfig::tiny());
        let (state, obs) = materialize(&model, &[1, 2, 3]);
        cache(2, 8).insert(vec![1, 2, 3, 4], state, obs);
    }
}
