//! Routing policies: which shard receives each arriving request.
//!
//! A [`crate::Cluster`] asks its [`RouterKind`] once per arrival,
//! *before* the request is screened — routing decides which shard's
//! admission control, queue and prefix cache the request meets. The
//! policy sees one view per shard (load and prefix-affinity snapshots
//! taken at the arrival's tick, in shard order) and returns a shard
//! index; it never sees the prompt itself, so a policy cannot smuggle
//! workload-dependent state past the determinism pins — the same seed
//! and shard count always produce the same routing trace.
//!
//! Two policies ship:
//!
//! * [`RouterKind::RoundRobin`] — rotate through shards in arrival
//!   order, ignoring load. The baseline, and on one shard the
//!   single-engine deployment.
//! * [`RouterKind::PrefixAffinity`] — send the request to the shard
//!   whose prefix cache shares the longest prefix with the prompt
//!   (lowest shard index breaks ties); when no shard knows the prefix,
//!   send it to the shard with the fewest reserved KV bytes (queue
//!   depth, then lowest shard index, break ties). Keeps a session
//!   group's shared system prompt resident on *one* shard instead of
//!   duplicating it N ways — the cluster-level analogue of the engine's
//!   prefix cache, and the policy `tests/cluster_stack.rs` pins beating
//!   round-robin on shared-prefix traffic at two to four shards.

use std::fmt;
use std::str::FromStr;

use crate::faults::ShardHealth;

/// Per-shard snapshot a [`RouterKind`] routes against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardView {
    /// The shard's index within the cluster.
    pub(crate) shard: usize,
    /// KV bytes currently reserved by the shard's admission control.
    pub(crate) reserved_bytes: u64,
    /// Requests waiting in the shard's admission queue.
    pub(crate) queue_depth: usize,
    /// Longest prefix of the arriving prompt already resident in the
    /// shard's prefix cache, in tokens (`0` when the cache is disabled
    /// or cold).
    pub(crate) prefix_match_tokens: usize,
    /// The shard's health: only [`ShardHealth::routable`] shards may be
    /// picked. The cluster guarantees at least one routable view per
    /// call (arrivals with no healthy shard bypass the router entirely
    /// and park in the retry queue).
    pub(crate) health: ShardHealth,
}

/// The routing policies shipped with the cluster plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RouterKind {
    /// Rotate through shards in arrival order.
    #[default]
    RoundRobin,
    /// Longest resident prefix match wins; fewest reserved KV bytes
    /// when no shard knows the prefix.
    PrefixAffinity,
}

impl RouterKind {
    /// Every shipped routing policy, for sweeps.
    pub const ALL: [RouterKind; 2] = [RouterKind::RoundRobin, RouterKind::PrefixAffinity];

    /// Stable lowercase name (the `--router` flag vocabulary).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round_robin",
            RouterKind::PrefixAffinity => "prefix_affinity",
        }
    }

    /// Picks the shard for the next arrival. `shards` holds one view per
    /// shard, indexed by shard id. `cursor` is the cluster's round-robin
    /// position; the cluster routes exactly once per arrival (and per
    /// retry), in a deterministic order, so the rotation is
    /// deterministic too.
    pub(crate) fn route(self, cursor: &mut usize, shards: &[ShardView]) -> usize {
        match self {
            RouterKind::RoundRobin => {
                // Rotate over the *routable* shards: a down shard leaves
                // the rotation without desynchronizing the cursor, and a
                // recovered shard deterministically rejoins at its index.
                // With every shard alive this is exactly
                // `cursor % shards.len()`.
                let routable: Vec<usize> =
                    shards.iter().filter(|v| v.health.routable()).map(|v| v.shard).collect();
                let pick = routable[*cursor % routable.len()];
                *cursor = cursor.wrapping_add(1);
                pick
            }
            RouterKind::PrefixAffinity => {
                let routable = shards.iter().filter(|v| v.health.routable());
                let best = routable
                    .clone()
                    .filter(|v| v.prefix_match_tokens > 0)
                    // max_by_key keeps the *last* max on ties; keying the
                    // shard index in reverse makes the winner the
                    // lowest-indexed shard with the longest match.
                    .max_by_key(|v| (v.prefix_match_tokens, std::cmp::Reverse(v.shard)))
                    .or_else(|| routable.min_by_key(|v| (v.reserved_bytes, v.queue_depth, v.shard)));
                best.expect("cluster routes only when a routable shard exists").shard
            }
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
        write!(f, "unknown router {:?} (expected one of: round_robin, prefix_affinity)", self.0)
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
            "prefixaffinity" | "prefix" => Ok(RouterKind::PrefixAffinity),
            _ => Err(ParseRouterKindError(s.to_string())),
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
            queue_depth: queue,
            prefix_match_tokens: prefix,
            health: ShardHealth::Alive,
        }
    }

    fn down(mut v: ShardView) -> ShardView {
        v.health = ShardHealth::Down;
        v
    }

    fn affinity(shards: &[ShardView]) -> usize {
        RouterKind::PrefixAffinity.route(&mut 0, shards)
    }

    #[test]
    fn round_robin_rotates() {
        let mut cursor = 0;
        let shards = [view(0, 0, 0, 0), view(1, 0, 0, 0), view(2, 0, 0, 0)];
        let picks: Vec<usize> = (0..7).map(|_| RouterKind::RoundRobin.route(&mut cursor, &shards)).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn policies_skip_unroutable_shards() {
        // Round-robin rotates over the survivors only...
        let mut cursor = 0;
        let shards = [view(0, 0, 0, 0), down(view(1, 0, 0, 0)), view(2, 0, 0, 0)];
        let picks: Vec<usize> = (0..4).map(|_| RouterKind::RoundRobin.route(&mut cursor, &shards)).collect();
        assert_eq!(picks, [0, 2, 0, 2]);
        // ...and a recovered shard rejoins the rotation deterministically.
        let healthy = [view(0, 0, 0, 0), view(1, 0, 0, 0), view(2, 0, 0, 0)];
        let picks: Vec<usize> = (0..3).map(|_| RouterKind::RoundRobin.route(&mut cursor, &healthy)).collect();
        assert_eq!(picks, [1, 2, 0], "cursor kept advancing across the outage");
        // The load fallback never picks a down shard, even the emptiest.
        assert_eq!(affinity(&[down(view(0, 0, 0, 0)), view(1, 999, 9, 0)]), 1);
        // Prefix affinity ignores a down shard's cached prefix.
        assert_eq!(affinity(&[down(view(0, 0, 0, 99)), view(1, 5, 0, 2)]), 1);
    }

    #[test]
    fn prefix_affinity_falls_back_to_fewest_reserved_bytes_then_queue_then_index() {
        assert_eq!(affinity(&[view(0, 100, 0, 0), view(1, 50, 3, 0), view(2, 200, 0, 0)]), 1);
        // Byte tie: shallower queue wins.
        assert_eq!(affinity(&[view(0, 100, 2, 0), view(1, 100, 1, 0)]), 1);
        // Full tie: lowest shard index wins.
        assert_eq!(affinity(&[view(0, 100, 1, 0), view(1, 100, 1, 0)]), 0);
    }

    #[test]
    fn prefix_affinity_follows_the_longest_match() {
        // Shard 2 knows the longest prefix, despite being the most loaded.
        assert_eq!(affinity(&[view(0, 0, 0, 0), view(1, 10, 0, 4), view(2, 999, 9, 12)]), 2);
        // Match-length tie: lowest shard index wins.
        assert_eq!(affinity(&[view(0, 0, 0, 8), view(1, 0, 0, 8)]), 0);
        // No shard knows the prefix: the load fallback.
        assert_eq!(affinity(&[view(0, 100, 0, 0), view(1, 50, 0, 0)]), 1);
    }

    #[test]
    fn router_kind_parses_names_and_aliases() {
        for kind in RouterKind::ALL {
            assert_eq!(kind.as_str().parse::<RouterKind>().unwrap(), kind);
        }
        assert_eq!("rr".parse::<RouterKind>().unwrap(), RouterKind::RoundRobin);
        assert_eq!("Prefix-Affinity".parse::<RouterKind>().unwrap(), RouterKind::PrefixAffinity);
        assert_eq!("prefix".parse::<RouterKind>().unwrap(), RouterKind::PrefixAffinity);
        assert!("random".parse::<RouterKind>().is_err());
    }
}
