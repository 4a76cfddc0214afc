//! The deterministic fault-injection plane: shard failure/recovery,
//! host-link degradation, deadline timeouts with bounded retry, and
//! watermark load-shedding.
//!
//! A [`FaultPlan`] is a *schedule*, not a random process: every fault is
//! pinned to virtual-clock ticks, so the same seed and the same plan
//! reproduce the same crashes, the same retries, and the same token
//! streams — chaos testing with the repo's usual bit-identity
//! discipline. The plan drives three fault classes:
//!
//! * **Fail-stop shard crashes** ([`ShardCrash`]): at tick `at` the
//!   shard's in-flight work is lost — queued entries are orphaned,
//!   admitted sessions are [`veda::Engine::discard`]ed (KV freed, no
//!   finished report) — and every lost request re-enters the cluster
//!   through a retry queue with deterministic exponential backoff
//!   ([`RetryPolicy`]), re-prefilling from its prompt on whichever
//!   healthy shard the router picks (prefix-cache hits make that
//!   re-prefill cheap). An optional `recover_at` returns the shard to
//!   rotation; an optional `drain` window marks it
//!   [`ShardHealth::Draining`] first, so the router stops feeding it
//!   before it dies.
//! * **Host-link degradation** ([`LinkDegradation`]): a bandwidth
//!   fraction applied to one shard's [`veda_mem::HostLink`] over a tick
//!   window, stretching swap-in and migration transfer cycles.
//! * **Deadline timeouts** (configured on [`FaultConfig`], not the plan:
//!   they apply to every request, not scheduled ticks): a request that
//!   misses its TTFT or e2e deadline — measured per *attempt* — is torn
//!   down and retried under the same bounded policy; a request that
//!   exhausts its attempts becomes a terminal **dead letter**.
//!
//! On top of the plan, [`FaultConfig::shed_watermark`] arms the
//! load-shedder: when the cluster-wide queue depth crosses the watermark
//! (a fraction of total queue slots), the lowest-priority, newest queued
//! request is shed — a terminal state, cheaper than letting the whole
//! tail of the queue miss its deadline.
//!
//! **Determinism invariant #9** (pinned by `tests/fault_stack.rs`): an
//! empty [`FaultPlan`] with no deadlines and no watermark is
//! byte-identical to a cluster with no fault plane installed, and the
//! same seed + the same plan is bit-identical at any decode thread
//! count.

use std::collections::VecDeque;

use veda::Request;

use crate::error::ServeError;

/// A shard's health as seen by the router and the migration planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShardHealth {
    /// In rotation: receives routed arrivals and migration landings.
    #[default]
    Alive,
    /// Scheduled to crash shortly: finishes its in-flight work but
    /// receives no new arrivals and no migration landings (it may still
    /// migrate sessions *away*).
    Draining,
    /// Crashed: empty, out of rotation, a no-op on the clock until (and
    /// unless) its recovery tick arrives.
    Down,
}

impl ShardHealth {
    /// Whether the router may send new work here.
    pub fn routable(self) -> bool {
        matches!(self, ShardHealth::Alive)
    }

    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardHealth::Alive => "alive",
            ShardHealth::Draining => "draining",
            ShardHealth::Down => "down",
        }
    }
}

impl std::fmt::Display for ShardHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One scheduled fail-stop crash (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardCrash {
    /// The shard that crashes.
    pub shard: usize,
    /// The tick it goes down (its work is lost at the *start* of this
    /// tick, before arrivals are routed).
    pub at: u64,
    /// The tick it rejoins rotation, or `None` for a permanent failure.
    pub recover_at: Option<u64>,
    /// Ticks of [`ShardHealth::Draining`] before the crash: the shard is
    /// out of rotation from `at - drain` onward.
    pub drain: u64,
}

/// One scheduled host-link bandwidth degradation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegradation {
    /// The shard whose link degrades.
    pub shard: usize,
    /// First degraded tick (inclusive).
    pub from: u64,
    /// First healthy tick again (exclusive end of the window).
    pub until: u64,
    /// Bandwidth multiplier in `(0, 1]` during the window.
    pub bandwidth_fraction: f64,
}

/// Bounded retry with deterministic exponential backoff, in ticks.
///
/// A lost or timed-out request's `n`-th retry (1-based) becomes ready
/// `backoff_base << (n - 1)` ticks after the loss; a request that would
/// need more than `max_attempts` retries is dead-lettered instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries a request may consume before it is dead-lettered.
    pub max_attempts: u32,
    /// Backoff of the first retry, in ticks; doubles per attempt.
    pub backoff_base: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3, backoff_base: 4 }
    }
}

impl RetryPolicy {
    /// Ticks the `attempt`-th retry (1-based) waits before re-routing.
    pub fn backoff(&self, attempt: u32) -> u64 {
        // Cap the shift so a pathological max_attempts cannot overflow;
        // 2^32 ticks is already far beyond any run's horizon.
        self.backoff_base.saturating_mul(1u64 << attempt.saturating_sub(1).min(32))
    }
}

/// A deterministic, virtual-clock-driven fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Scheduled fail-stop crashes.
    pub crashes: Vec<ShardCrash>,
    /// Scheduled host-link degradation windows.
    pub degradations: Vec<LinkDegradation>,
}

impl FaultPlan {
    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.degradations.is_empty()
    }

    /// Parses the `--fault-plan` spec language: `;`-separated clauses,
    /// each either
    ///
    /// * `crash@T:shard=N[:recover=T2][:drain=D]` — shard `N` fails at
    ///   tick `T`, optionally recovering at `T2` after draining for `D`
    ///   ticks beforehand; or
    /// * `degrade@T1-T2:shard=N:bw=F` — shard `N`'s host link runs at
    ///   bandwidth fraction `F` over ticks `[T1, T2)`.
    ///
    /// Example: `crash@40:shard=1:recover=90;degrade@100-200:shard=0:bw=0.25`.
    pub fn parse(spec: &str) -> Result<Self, ServeError> {
        let bad =
            |clause: &str, why: &str| Err(ServeError::InvalidFaultPlan(format!("clause {clause:?}: {why}")));
        let mut plan = FaultPlan::default();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let mut parts = clause.split(':');
            let head = parts.next().expect("split yields at least one part");
            let Some((kind, when)) = head.split_once('@') else {
                return bad(clause, "expected crash@T or degrade@T1-T2");
            };
            let mut shard: Option<usize> = None;
            let mut recover: Option<u64> = None;
            let mut drain: u64 = 0;
            let mut bw: Option<f64> = None;
            for part in parts {
                let Some((key, value)) = part.split_once('=') else {
                    return bad(clause, "expected key=value parts after the @ head");
                };
                match key {
                    "shard" => match value.parse() {
                        Ok(v) => shard = Some(v),
                        Err(_) => return bad(clause, "shard must be an integer"),
                    },
                    "recover" => match value.parse() {
                        Ok(v) => recover = Some(v),
                        Err(_) => return bad(clause, "recover must be a tick"),
                    },
                    "drain" => match value.parse() {
                        Ok(v) => drain = v,
                        Err(_) => return bad(clause, "drain must be a tick count"),
                    },
                    "bw" => match value.parse() {
                        Ok(v) => bw = Some(v),
                        Err(_) => return bad(clause, "bw must be a number"),
                    },
                    _ => return bad(clause, "unknown key (expected shard/recover/drain/bw)"),
                }
            }
            let Some(shard) = shard else { return bad(clause, "missing shard=N") };
            match kind {
                "crash" => {
                    let Ok(at) = when.parse() else { return bad(clause, "crash tick must be an integer") };
                    plan.crashes.push(ShardCrash { shard, at, recover_at: recover, drain });
                }
                "degrade" => {
                    let Some((from, until)) = when.split_once('-') else {
                        return bad(clause, "degrade window must be T1-T2");
                    };
                    let (Ok(from), Ok(until)) = (from.parse(), until.parse()) else {
                        return bad(clause, "degrade window bounds must be integers");
                    };
                    let Some(bw) = bw else { return bad(clause, "missing bw=F") };
                    plan.degradations.push(LinkDegradation { shard, from, until, bandwidth_fraction: bw });
                }
                _ => return bad(clause, "unknown clause kind (expected crash or degrade)"),
            }
        }
        Ok(plan)
    }

    /// Checks the plan against a cluster topology: shard indices in
    /// range, recovery after crash, degradation windows well-formed,
    /// bandwidth fractions in `(0, 1]`, and no two crash windows of the
    /// same shard overlapping (one failure mode per shard at a time).
    pub fn validate(&self, shards: usize) -> Result<(), ServeError> {
        let bad = |why: String| Err(ServeError::InvalidFaultPlan(why));
        for c in &self.crashes {
            if c.shard >= shards {
                return bad(format!("crash@{} names shard {} of a {shards}-shard cluster", c.at, c.shard));
            }
            if let Some(r) = c.recover_at {
                if r <= c.at {
                    return bad(format!("crash@{}: recovery tick {r} is not after the crash", c.at));
                }
            }
            if c.drain > c.at {
                return bad(format!("crash@{}: drain window {} starts before tick 0", c.at, c.drain));
            }
        }
        for (i, a) in self.crashes.iter().enumerate() {
            for b in &self.crashes[i + 1..] {
                if a.shard != b.shard {
                    continue;
                }
                let a_end = a.recover_at.unwrap_or(u64::MAX);
                let b_end = b.recover_at.unwrap_or(u64::MAX);
                if a.at < b_end && b.at < a_end {
                    return bad(format!("shard {} has overlapping crash windows", a.shard));
                }
            }
        }
        for d in &self.degradations {
            if d.shard >= shards {
                return bad(format!(
                    "degrade@{}-{} names shard {} of a {shards}-shard cluster",
                    d.from, d.until, d.shard
                ));
            }
            if d.until <= d.from {
                return bad(format!("degrade@{}-{}: empty window", d.from, d.until));
            }
            if !(d.bandwidth_fraction > 0.0 && d.bandwidth_fraction <= 1.0) {
                return bad(format!("degrade bw={} must be in (0, 1]", d.bandwidth_fraction));
            }
        }
        Ok(())
    }

    /// The shard's health at tick `now`, derived statelessly from the
    /// schedule (`Down` wins over `Draining` on overlap).
    pub(crate) fn health_at(&self, shard: usize, now: u64) -> ShardHealth {
        let mut health = ShardHealth::Alive;
        for c in self.crashes.iter().filter(|c| c.shard == shard) {
            let down = now >= c.at && c.recover_at.is_none_or(|r| now < r);
            if down {
                return ShardHealth::Down;
            }
            if now >= c.at.saturating_sub(c.drain) && now < c.at {
                health = ShardHealth::Draining;
            }
        }
        health
    }

    /// The shard's host-link bandwidth fraction at tick `now` (`1.0`
    /// when healthy; the minimum of overlapping windows otherwise).
    pub(crate) fn link_fraction_at(&self, shard: usize, now: u64) -> f64 {
        self.degradations
            .iter()
            .filter(|d| d.shard == shard && now >= d.from && now < d.until)
            .map(|d| d.bandwidth_fraction)
            // lint:allow(float-reduction): f64::min fold is order-insensitive (no rounding), not a summation
            .fold(1.0, f64::min)
    }

    /// The earliest scheduled health or link transition at or after
    /// `now`, used to bound idle fast-forwarding so no ShardDown/ShardUp
    /// edge is skipped over.
    pub(crate) fn next_transition_at(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            if t >= now {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        for c in &self.crashes {
            consider(c.at.saturating_sub(c.drain));
            consider(c.at);
            if let Some(r) = c.recover_at {
                consider(r);
            }
        }
        for d in &self.degradations {
            consider(d.from);
            consider(d.until);
        }
        next
    }
}

/// The full fault-plane configuration for one cluster run.
///
/// The default value is a **no-op plane**: empty plan, no deadlines, no
/// watermark — and determinism invariant #9 pins that a cluster
/// configured with it is byte-identical to one with no fault plane
/// installed at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// The scheduled fault injections.
    pub plan: FaultPlan,
    /// Retry policy for lost and timed-out requests.
    pub retry: RetryPolicy,
    /// Per-attempt time-to-first-token deadline, in ticks.
    pub ttft_deadline: Option<u64>,
    /// Per-attempt end-to-end deadline, in ticks.
    pub e2e_deadline: Option<u64>,
    /// Load-shedding watermark: when total queued requests exceed this
    /// fraction of total queue slots (shards × max_queue_depth), the
    /// lowest-priority newest queued request is shed until back under.
    /// [`crate::Cluster::try_new`] rejects a value outside `(0, 1]`.
    pub shed_watermark: Option<f64>,
}

impl FaultConfig {
    /// Whether this configuration can never act (the invariant-#9
    /// equivalence class of "no fault plane").
    pub fn is_noop(&self) -> bool {
        self.plan.is_empty()
            && self.ttft_deadline.is_none()
            && self.e2e_deadline.is_none()
            && self.shed_watermark.is_none()
    }
}

/// A request displaced from a shard (crash or deadline teardown),
/// waiting to be retried or dead-lettered. Carries everything needed to
/// re-enter admission from the prompt.
#[derive(Debug)]
pub(crate) struct LostWork {
    /// `(home shard, record index)` of the request's record.
    pub(crate) home: (usize, usize),
    /// Global arrival index (the request's stable trace id).
    pub(crate) arrival: usize,
    /// Priority tier.
    pub(crate) priority: u8,
    /// The original request; a retry re-prefills from this prompt.
    pub(crate) request: Request,
}

/// One parked retry: `work` re-routes once `ready` arrives.
#[derive(Debug)]
pub(crate) struct RetryEntry {
    pub(crate) ready: u64,
    pub(crate) work: LostWork,
}

/// Live fault-plane state inside a running [`crate::Cluster`]. Always
/// present (a cluster without a configured plane runs a no-op default),
/// so the healthy path and the empty-plan path are the same code — the
/// cheapest way to make invariant #9 true by construction.
#[derive(Debug, Default)]
pub(crate) struct FaultRuntime {
    pub(crate) config: FaultConfig,
    /// Cached per-shard health, diffed each tick to detect transitions.
    pub(crate) health: Vec<ShardHealth>,
    /// Tick each currently-down shard went down (for `ShardUp`'s
    /// `down_ticks`).
    pub(crate) down_since: Vec<Option<u64>>,
    /// Parked retries in push order (drained by readiness each tick).
    pub(crate) retry: VecDeque<RetryEntry>,
    pub(crate) lost_sessions: u64,
    pub(crate) retries: u64,
    pub(crate) timeouts: u64,
    pub(crate) dead_letters: u64,
    pub(crate) shed: u64,
    pub(crate) shard_downs: u64,
    pub(crate) shard_ups: u64,
    /// Shard-ticks with the shard not `Down` (numerator of availability).
    pub(crate) alive_shard_ticks: u64,
    /// Total shard-ticks observed (denominator of availability).
    pub(crate) shard_ticks: u64,
}

impl FaultRuntime {
    pub(crate) fn new(config: FaultConfig, shards: usize) -> Self {
        Self {
            config,
            health: vec![ShardHealth::Alive; shards],
            down_since: vec![None; shards],
            ..Self::default()
        }
    }

    /// Earliest tick at or after `now` at which a parked retry becomes
    /// ready.
    pub(crate) fn next_retry_ready(&self) -> Option<u64> {
        self.retry.iter().map(|e| e.ready).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_readme_example() {
        let plan =
            FaultPlan::parse("crash@40:shard=1:recover=90:drain=5; degrade@100-200:shard=0:bw=0.25").unwrap();
        assert_eq!(plan.crashes, vec![ShardCrash { shard: 1, at: 40, recover_at: Some(90), drain: 5 }]);
        assert_eq!(
            plan.degradations,
            vec![LinkDegradation { shard: 0, from: 100, until: 200, bandwidth_fraction: 0.25 }]
        );
        assert!(plan.validate(2).is_ok());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for spec in [
            "crash",
            "crash@x:shard=0",
            "crash@10",
            "crash@10:shard=zero",
            "degrade@5:shard=0:bw=0.5",
            "degrade@5-9:shard=0",
            "reboot@5:shard=0",
            "crash@10:shard=0:color=red",
        ] {
            assert!(
                matches!(FaultPlan::parse(spec), Err(ServeError::InvalidFaultPlan(_))),
                "spec {spec:?} must be rejected"
            );
        }
    }

    #[test]
    fn validate_checks_topology_and_windows() {
        let plan = FaultPlan::parse("crash@10:shard=3").unwrap();
        assert!(plan.validate(2).is_err(), "shard out of range");
        assert!(plan.validate(4).is_ok());
        let plan = FaultPlan::parse("crash@10:shard=0:recover=10").unwrap();
        assert!(plan.validate(1).is_err(), "recovery must follow the crash");
        let plan = FaultPlan::parse("degrade@5-9:shard=0:bw=1.5").unwrap();
        assert!(plan.validate(1).is_err(), "bw fraction above 1");
        let plan = FaultPlan::parse("crash@10:shard=0:recover=20;crash@15:shard=0:recover=30").unwrap();
        assert!(plan.validate(1).is_err(), "overlapping crash windows");
        let plan = FaultPlan::parse("crash@10:shard=0:recover=20;crash@20:shard=0").unwrap();
        assert!(plan.validate(1).is_ok(), "back-to-back windows are fine");
    }

    #[test]
    fn health_follows_the_schedule() {
        let plan = FaultPlan::parse("crash@40:shard=1:recover=90:drain=5").unwrap();
        assert_eq!(plan.health_at(1, 0), ShardHealth::Alive);
        assert_eq!(plan.health_at(1, 34), ShardHealth::Alive);
        assert_eq!(plan.health_at(1, 35), ShardHealth::Draining);
        assert_eq!(plan.health_at(1, 39), ShardHealth::Draining);
        assert_eq!(plan.health_at(1, 40), ShardHealth::Down);
        assert_eq!(plan.health_at(1, 89), ShardHealth::Down);
        assert_eq!(plan.health_at(1, 90), ShardHealth::Alive);
        assert_eq!(plan.health_at(0, 40), ShardHealth::Alive, "other shards unaffected");
        let permanent = FaultPlan::parse("crash@7:shard=0").unwrap();
        assert_eq!(permanent.health_at(0, 1_000_000), ShardHealth::Down);
        assert!(!ShardHealth::Down.routable() && !ShardHealth::Draining.routable());
        assert!(ShardHealth::Alive.routable());
    }

    #[test]
    fn link_fraction_takes_the_window_minimum() {
        let plan = FaultPlan::parse("degrade@10-20:shard=0:bw=0.5;degrade@15-25:shard=0:bw=0.25").unwrap();
        assert_eq!(plan.link_fraction_at(0, 9), 1.0);
        assert_eq!(plan.link_fraction_at(0, 12), 0.5);
        assert_eq!(plan.link_fraction_at(0, 17), 0.25, "overlap takes the minimum");
        assert_eq!(plan.link_fraction_at(0, 24), 0.25);
        assert_eq!(plan.link_fraction_at(0, 25), 1.0);
        assert_eq!(plan.link_fraction_at(1, 17), 1.0, "other shards unaffected");
    }

    #[test]
    fn next_transition_bounds_fast_forward() {
        let plan =
            FaultPlan::parse("crash@40:shard=1:recover=90:drain=5;degrade@100-200:shard=0:bw=0.5").unwrap();
        assert_eq!(plan.next_transition_at(0), Some(35));
        assert_eq!(plan.next_transition_at(36), Some(40));
        assert_eq!(plan.next_transition_at(41), Some(90));
        assert_eq!(plan.next_transition_at(91), Some(100));
        assert_eq!(plan.next_transition_at(150), Some(200));
        assert_eq!(plan.next_transition_at(201), None);
        assert_eq!(FaultPlan::default().next_transition_at(0), None);
    }

    #[test]
    fn backoff_doubles_per_attempt_and_never_overflows() {
        let p = RetryPolicy { max_attempts: 5, backoff_base: 4 };
        assert_eq!(p.backoff(1), 4);
        assert_eq!(p.backoff(2), 8);
        assert_eq!(p.backoff(3), 16);
        let extreme = RetryPolicy { max_attempts: u32::MAX, backoff_base: u64::MAX };
        assert_eq!(extreme.backoff(u32::MAX), u64::MAX, "saturates instead of overflowing");
    }

    #[test]
    fn default_config_is_the_noop_plane() {
        assert!(FaultConfig::default().is_noop());
        let c = FaultConfig { ttft_deadline: Some(100), ..FaultConfig::default() };
        assert!(!c.is_noop());
        let c = FaultConfig { plan: FaultPlan::parse("crash@1:shard=0").unwrap(), ..FaultConfig::default() };
        assert!(!c.is_noop());
    }
}
