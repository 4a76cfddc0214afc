//! Routing policies: which shard receives each arriving request.
//!
//! A [`crate::Cluster`] consults its [`RouterPolicy`] once per arrival,
//! *before* the request is screened — routing decides which shard's
//! admission control, queue and prefix cache the request meets. The
//! policy sees one [`ShardView`] per shard (load and prefix-affinity
//! snapshots taken at the arrival's tick, in shard order) and returns a
//! shard index; it never sees the prompt itself, so a policy cannot
//! smuggle workload-dependent state past the determinism pins — the same
//! seed and shard count always produce the same routing trace.
//!
//! Three policies ship:
//!
//! * [`RouterKind::RoundRobin`] — rotate through shards in arrival
//!   order, ignoring load. The baseline, and on one shard the
//!   single-engine deployment.
//! * [`RouterKind::LeastLoaded`] — send each request to the shard with
//!   the fewest reserved KV bytes (queue depth, then lowest shard index,
//!   break ties). Balances byte pressure, blind to prefix locality.
//! * [`RouterKind::PrefixAffinity`] — send the request to the shard
//!   whose prefix cache shares the longest prefix with the prompt
//!   (lowest shard index breaks ties); when no shard knows the prefix,
//!   fall back to least-loaded. Keeps a session group's shared system
//!   prompt resident on *one* shard instead of duplicating it N ways —
//!   the cluster-level analogue of the engine's prefix cache, and the
//!   policy `tests/cluster_stack.rs` pins beating round-robin on
//!   shared-prefix traffic at two to four shards.

use std::fmt;
use std::str::FromStr;

use crate::faults::ShardHealth;

/// Per-shard snapshot a [`RouterPolicy`] routes against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardView {
    /// The shard's index within the cluster.
    pub shard: usize,
    /// KV bytes currently reserved by the shard's admission control.
    pub reserved_bytes: u64,
    /// The shard's configured device KV capacity.
    pub capacity_bytes: u64,
    /// Requests waiting in the shard's admission queue.
    pub queue_depth: usize,
    /// Sessions currently prefilling/decoding on the shard.
    pub running: usize,
    /// Longest prefix of the arriving prompt already resident in the
    /// shard's prefix cache, in tokens (`0` when the cache is disabled
    /// or cold).
    pub prefix_match_tokens: usize,
    /// The shard's health: only [`ShardHealth::routable`] shards may be
    /// picked. The cluster guarantees at least one routable view per
    /// call (arrivals with no healthy shard bypass the router entirely
    /// and park in the retry queue).
    pub health: ShardHealth,
}

/// A routing policy: maps each arrival to a shard index.
///
/// Policies may keep internal state (round-robin's cursor); the cluster
/// calls [`RouterPolicy::route`] exactly once per arrival, in global
/// arrival order, which is what makes stateful policies deterministic.
pub trait RouterPolicy {
    /// Which policy this is.
    fn kind(&self) -> RouterKind;

    /// Picks the shard for the next arrival. `shards` holds one view per
    /// shard, indexed by shard id; the returned index must be in range.
    fn route(&mut self, shards: &[ShardView]) -> usize;
}

/// The routing policies shipped with the cluster plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RouterKind {
    /// Rotate through shards in arrival order.
    #[default]
    RoundRobin,
    /// Fewest reserved KV bytes wins (queue depth breaks ties).
    LeastLoaded,
    /// Longest resident prefix match wins; least-loaded fallback.
    PrefixAffinity,
}

impl RouterKind {
    /// Every shipped routing policy, for sweeps.
    pub const ALL: [RouterKind; 3] =
        [RouterKind::RoundRobin, RouterKind::LeastLoaded, RouterKind::PrefixAffinity];

    /// Stable lowercase name (the `--router` flag vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round_robin",
            RouterKind::LeastLoaded => "least_loaded",
            RouterKind::PrefixAffinity => "prefix_affinity",
        }
    }

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn RouterPolicy> {
        match self {
            RouterKind::RoundRobin => Box::new(RoundRobin { cursor: 0 }),
            RouterKind::LeastLoaded => Box::new(LeastLoaded),
            RouterKind::PrefixAffinity => Box::new(PrefixAffinity),
        }
    }
}

impl fmt::Display for RouterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error parsing a [`RouterKind`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRouterKindError(String);

impl fmt::Display for ParseRouterKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown router {:?} (expected one of: round_robin, least_loaded, prefix_affinity)", self.0)
    }
}

impl std::error::Error for ParseRouterKindError {}

impl FromStr for RouterKind {
    type Err = ParseRouterKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized: String =
            s.trim().to_ascii_lowercase().chars().filter(|c| !matches!(c, '-' | '_' | ' ')).collect();
        match normalized.as_str() {
            "roundrobin" | "rr" => Ok(RouterKind::RoundRobin),
            "leastloaded" | "load" => Ok(RouterKind::LeastLoaded),
            "prefixaffinity" | "prefix" => Ok(RouterKind::PrefixAffinity),
            _ => Err(ParseRouterKindError(s.to_string())),
        }
    }
}

/// Comparator key shared by the load-aware policies: fewest reserved
/// bytes, then shallowest queue, then lowest shard index.
fn least_loaded_key(view: &ShardView) -> (u64, usize, usize) {
    (view.reserved_bytes, view.queue_depth, view.shard)
}

struct RoundRobin {
    cursor: usize,
}

impl RouterPolicy for RoundRobin {
    fn kind(&self) -> RouterKind {
        RouterKind::RoundRobin
    }

    fn route(&mut self, shards: &[ShardView]) -> usize {
        // Rotate over the *routable* shards: a down shard leaves the
        // rotation without desynchronizing the cursor, and a recovered
        // shard deterministically rejoins at its index. With every shard
        // alive this is exactly `cursor % shards.len()`.
        let routable: Vec<usize> = shards.iter().filter(|v| v.health.routable()).map(|v| v.shard).collect();
        let pick = routable[self.cursor % routable.len()];
        self.cursor = self.cursor.wrapping_add(1);
        pick
    }
}

struct LeastLoaded;

impl RouterPolicy for LeastLoaded {
    fn kind(&self) -> RouterKind {
        RouterKind::LeastLoaded
    }

    fn route(&mut self, shards: &[ShardView]) -> usize {
        shards
            .iter()
            .filter(|v| v.health.routable())
            .min_by_key(|v| least_loaded_key(v))
            .expect("cluster routes only when a routable shard exists")
            .shard
    }
}

struct PrefixAffinity;

impl RouterPolicy for PrefixAffinity {
    fn kind(&self) -> RouterKind {
        RouterKind::PrefixAffinity
    }

    fn route(&mut self, shards: &[ShardView]) -> usize {
        let best = shards
            .iter()
            .filter(|v| v.health.routable() && v.prefix_match_tokens > 0)
            // max_by_key keeps the *last* max on ties; keying the shard
            // index in reverse makes the winner the lowest-indexed shard
            // with the longest match — deterministic and stable.
            .max_by_key(|v| (v.prefix_match_tokens, std::cmp::Reverse(v.shard)));
        match best {
            Some(v) => v.shard,
            None => {
                shards
                    .iter()
                    .filter(|v| v.health.routable())
                    .min_by_key(|v| least_loaded_key(v))
                    .expect("cluster routes only when a routable shard exists")
                    .shard
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(shard: usize, reserved: u64, queue: usize, prefix: usize) -> ShardView {
        ShardView {
            shard,
            reserved_bytes: reserved,
            capacity_bytes: 1 << 20,
            queue_depth: queue,
            running: 0,
            prefix_match_tokens: prefix,
            health: ShardHealth::Alive,
        }
    }

    fn down(mut v: ShardView) -> ShardView {
        v.health = ShardHealth::Down;
        v
    }

    #[test]
    fn round_robin_rotates() {
        let mut p = RouterKind::RoundRobin.build();
        let shards = [view(0, 0, 0, 0), view(1, 0, 0, 0), view(2, 0, 0, 0)];
        let picks: Vec<usize> = (0..7).map(|_| p.route(&shards)).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn policies_skip_unroutable_shards() {
        // Round-robin rotates over the survivors only...
        let mut p = RouterKind::RoundRobin.build();
        let shards = [view(0, 0, 0, 0), down(view(1, 0, 0, 0)), view(2, 0, 0, 0)];
        let picks: Vec<usize> = (0..4).map(|_| p.route(&shards)).collect();
        assert_eq!(picks, [0, 2, 0, 2]);
        // ...and a recovered shard rejoins the rotation deterministically.
        let healthy = [view(0, 0, 0, 0), view(1, 0, 0, 0), view(2, 0, 0, 0)];
        let picks: Vec<usize> = (0..3).map(|_| p.route(&healthy)).collect();
        assert_eq!(picks, [1, 2, 0], "cursor kept advancing across the outage");
        // Least-loaded never picks a down shard, even the emptiest one.
        let mut p = RouterKind::LeastLoaded.build();
        assert_eq!(p.route(&[down(view(0, 0, 0, 0)), view(1, 999, 9, 0)]), 1);
        // Prefix affinity ignores a down shard's cached prefix.
        let mut p = RouterKind::PrefixAffinity.build();
        assert_eq!(p.route(&[down(view(0, 0, 0, 99)), view(1, 5, 0, 2)]), 1);
    }

    #[test]
    fn least_loaded_prefers_fewest_reserved_bytes_then_queue_then_index() {
        let mut p = RouterKind::LeastLoaded.build();
        assert_eq!(p.route(&[view(0, 100, 0, 0), view(1, 50, 3, 0), view(2, 200, 0, 0)]), 1);
        // Byte tie: shallower queue wins.
        assert_eq!(p.route(&[view(0, 100, 2, 0), view(1, 100, 1, 0)]), 1);
        // Full tie: lowest shard index wins.
        assert_eq!(p.route(&[view(0, 100, 1, 0), view(1, 100, 1, 0)]), 0);
    }

    #[test]
    fn prefix_affinity_follows_the_longest_match() {
        let mut p = RouterKind::PrefixAffinity.build();
        // Shard 2 knows the longest prefix, despite being the most loaded.
        assert_eq!(p.route(&[view(0, 0, 0, 0), view(1, 10, 0, 4), view(2, 999, 9, 12)]), 2);
        // Match-length tie: lowest shard index wins.
        assert_eq!(p.route(&[view(0, 0, 0, 8), view(1, 0, 0, 8)]), 0);
        // No shard knows the prefix: least-loaded fallback.
        assert_eq!(p.route(&[view(0, 100, 0, 0), view(1, 50, 0, 0)]), 1);
    }

    #[test]
    fn router_kind_parses_names_and_aliases() {
        for kind in RouterKind::ALL {
            assert_eq!(kind.as_str().parse::<RouterKind>().unwrap(), kind);
        }
        assert_eq!("rr".parse::<RouterKind>().unwrap(), RouterKind::RoundRobin);
        assert_eq!("Least-Loaded".parse::<RouterKind>().unwrap(), RouterKind::LeastLoaded);
        assert_eq!("prefix".parse::<RouterKind>().unwrap(), RouterKind::PrefixAffinity);
        assert!("random".parse::<RouterKind>().is_err());
    }
}
