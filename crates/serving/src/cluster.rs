//! The cluster plane: N serving shards behind one admission/routing
//! front door, stepped on one virtual clock.
//!
//! A [`Cluster`] is the multi-engine deployment of the serving stack:
//! each [`Shard`] is a full engine + admission controller + queue (the
//! exact machinery a standalone [`crate::Server`] runs), and the cluster
//! adds the things that only exist *between* engines — routing,
//! migration, and the fault plane. One [`Cluster::tick`] is one
//! virtual-clock step:
//!
//! 0. **Fault transitions** (no-ops without a [`FaultConfig`]): scheduled
//!    crashes fail their shard (in-flight work displaced into the retry
//!    queue), recoveries return it to rotation, link-degradation windows
//!    scale host-link bandwidth; then parked retries whose backoff has
//!    elapsed re-route through the healthy shards.
//! 1. **Route + screen**: each arrival due this tick is routed by the
//!    [`RouterPolicy`] (which sees per-shard load, health, and
//!    prefix-affinity snapshots, never the RNG) and screened by the
//!    chosen shard's admission control. The [`crate::Workload`] samples
//!    requests centrally, in global arrival order, so the routing
//!    decision can never perturb what a request *is* — only where it
//!    runs. That is the cluster's RNG-stream discipline, pinned by the
//!    `cluster_stack` tests. When *no* shard is routable the arrival is
//!    registered on a deterministic home shard and parked as a retry.
//!    Then the overload watermark (if armed) sheds the lowest-priority
//!    newest queued requests until the cluster is back under it.
//! 2. **Pre-step**, per shard in index order: swap-in completions,
//!    swap-in starts, scheduler-driven admission.
//! 3. **Migration** (opt-in, [`MigrationConfig`]): if a shard is running
//!    hot, its largest running session is paused, its KV state extracted
//!    (privatizing any shared-prefix span) and costed through *both*
//!    host links ([`veda_mem::TransferKind::Migration`] traffic —
//!    device→host on the source, host→device on the target), and the
//!    session lands in the target's swap-in set: it re-enters the batch
//!    only after the transfer's cycles elapse, exactly like a preempted
//!    session swapping back in. Migration never changes a session's
//!    token stream (pinned), and the request's record stays on the shard
//!    that accepted it.
//! 4. **Step**, per shard in index order: one batched engine tick each,
//!    all against the same virtual tick.
//! 5. **Outbox drain**: record updates for migrated-in sessions are
//!    applied to their home shards, in shard order — cross-shard state
//!    flows through one deterministic channel, never mid-step.
//! 6. **Deadline enforcement** (only with deadlines configured): every
//!    attempt past its TTFT or e2e deadline is torn down and retried or
//!    dead-lettered under the [`crate::RetryPolicy`].
//!
//! Determinism: same seed, same shard count, same policies ⇒
//! bit-identical [`ClusterReport`]. A 1-shard cluster under round-robin
//! routing is bit-identical to [`crate::Server`] on the same seed — the
//! cluster plane is a strict generalization, not a fork. And a cluster
//! whose [`ClusterConfig::faults`] is `None` is byte-identical to one
//! configured with the default (no-op) [`FaultConfig`] — determinism
//! invariant #9, by construction: the fault runtime is always present
//! and every fault step no-ops identically on an empty plan.

use veda::Engine;
use veda_eviction::BudgetController;
use veda_mem::{HostLinkConfig, SwapDirection, TransferKind};
use veda_telemetry::{MetricsRegistry, SinkHandle, StageWaterfall, TraceEvent, TraceEventKind};

use crate::admission::AdmissionConfig;
use crate::error::ServeError;
use crate::faults::{FaultConfig, FaultRuntime, LostWork, RetryEntry, ShardHealth};
use crate::report::{LatencySummary, ServingReport, StageSummaries};
use crate::router::{RouterKind, RouterPolicy};
use crate::scheduler::SchedKind;
use crate::shard::{RecordRef, SessionEntry, Shard, SwapInEntry, WaitKind};
use crate::workload::{ServingRequest, Workload};

/// Opt-in cross-shard migration thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// A shard is migration-eligible (as a source) when its reserved
    /// bytes exceed this fraction of capacity.
    pub hot_fraction: f64,
    /// A shard may receive a migrated session only if the landing
    /// reservation keeps it at or below this fraction of capacity —
    /// the hysteresis gap to `hot_fraction` prevents sessions
    /// ping-ponging between two warm shards.
    pub cold_fraction: f64,
    /// At most this many migrations per virtual tick, cluster-wide.
    pub max_per_tick: usize,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        Self { hot_fraction: 0.85, cold_fraction: 0.6, max_per_tick: 1 }
    }
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shards (must match the engines handed to
    /// [`Cluster::new`]).
    pub shards: usize,
    /// Device KV capacity of each shard's admission control.
    pub per_shard_capacity_bytes: u64,
    /// Per-shard admission queue depth limit.
    pub max_queue_depth: usize,
    /// Routing policy.
    pub router: RouterKind,
    /// Scheduling policy (every shard runs the same one).
    pub sched: SchedKind,
    /// Host-link model (each shard gets its own link).
    pub host_link: HostLinkConfig,
    /// Optional budget-shrink pressure response, per shard (see
    /// [`crate::ServerConfig::shrink`]).
    pub shrink: Option<BudgetController>,
    /// Cross-shard migration; `None` (the default) disables it, leaving
    /// routing as the only load-balancing mechanism.
    pub migration: Option<MigrationConfig>,
    /// Safety valve: the run stops after this many virtual ticks even if
    /// work remains.
    pub max_ticks: u64,
    /// Observation-only trace sink, shared by every shard (the exporter
    /// demuxes shards into separate tracks). `None` (the default) keeps
    /// the run byte-identical to a build without the telemetry plane —
    /// see determinism invariant #8.
    pub trace: Option<SinkHandle>,
    /// The fault plane: scheduled crashes and link degradations, deadline
    /// timeouts, retry policy, and the load-shedding watermark. `None`
    /// (the default) is byte-identical to the default no-op
    /// [`FaultConfig`] — determinism invariant #9.
    pub faults: Option<FaultConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        let admission = AdmissionConfig::default();
        Self {
            shards: 2,
            per_shard_capacity_bytes: admission.capacity_bytes,
            max_queue_depth: admission.max_queue_depth,
            router: RouterKind::RoundRobin,
            sched: SchedKind::Fcfs,
            host_link: HostLinkConfig::default(),
            shrink: None,
            migration: None,
            max_ticks: 1_000_000,
            trace: None,
            faults: None,
        }
    }
}

/// N shards behind one router on one virtual clock (see the
/// [module docs](self)).
pub struct Cluster {
    shards: Vec<Shard>,
    workload: Workload,
    router: Box<dyn RouterPolicy>,
    migration: Option<MigrationConfig>,
    max_ticks: u64,
    now: u64,
    /// Global arrival counter (record indices stay in arrival order
    /// across shards).
    arrivals: usize,
    /// Requests routed to each shard.
    routed: Vec<usize>,
    migrations: u64,
    migration_bytes: u64,
    migration_cycles: u64,
    /// Per-shard reserved-KV-bytes series, sampled after each executed
    /// tick.
    reserved_series: Vec<Vec<u64>>,
    /// Trace sink for cluster-plane events (migration starts); each shard
    /// holds its own clone for shard-plane events.
    trace: Option<SinkHandle>,
    /// The fault plane's live state — always present; a cluster without
    /// a configured plane runs the no-op default (invariant #9).
    faults: FaultRuntime,
}

impl Cluster {
    /// Creates a cluster from one idle engine per shard, panicking on
    /// misconfiguration (the original constructor's contract; see
    /// [`Cluster::try_new`] for the `Result`-returning form).
    ///
    /// # Panics
    ///
    /// Panics on any [`ServeError`] that [`Cluster::try_new`] would
    /// return: engine count mismatch, empty cluster, non-idle engines,
    /// mixed model geometry, bad migration thresholds, an invalid fault
    /// plan, or a shed watermark outside `(0, 1]`.
    pub fn new(engines: Vec<Engine>, workload: Workload, config: ClusterConfig) -> Self {
        Self::try_new(engines, workload, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a cluster from one idle engine per shard, returning a
    /// typed [`ServeError`] instead of panicking on misconfiguration.
    pub fn try_new(
        engines: Vec<Engine>,
        workload: Workload,
        config: ClusterConfig,
    ) -> Result<Self, ServeError> {
        if engines.len() != config.shards {
            return Err(ServeError::EngineCountMismatch { engines: engines.len(), shards: config.shards });
        }
        if engines.is_empty() {
            return Err(ServeError::EmptyCluster);
        }
        if let Some(engine) = engines.iter().position(|e| e.active_sessions() > 0 || e.paused_sessions() > 0)
        {
            return Err(ServeError::EngineNotIdle { engine });
        }
        if !engines.windows(2).all(|w| w[0].model_config() == w[1].model_config()) {
            return Err(ServeError::ModelGeometryMismatch);
        }
        if let Some(m) = &config.migration {
            // cold ≤ hot is the hysteresis that prevents a session from
            // ping-ponging: a landing that pushes the target past the
            // cold threshold is refused, so the target cannot have been
            // made hot by the migration itself.
            if !(m.cold_fraction <= m.hot_fraction && m.hot_fraction <= 1.0 && m.cold_fraction > 0.0) {
                return Err(ServeError::InvalidMigrationThresholds {
                    cold: m.cold_fraction,
                    hot: m.hot_fraction,
                });
            }
        }
        let faults = config.faults.clone().unwrap_or_default();
        faults.plan.validate(engines.len())?;
        if let Some(watermark) = faults.shed_watermark {
            // NaN, 0 and negatives would all make the shed threshold 0;
            // NaN fails both comparisons.
            if !(watermark > 0.0 && watermark <= 1.0) {
                return Err(ServeError::InvalidShedWatermark { watermark });
            }
        }
        let n = engines.len();
        let admission = AdmissionConfig {
            capacity_bytes: config.per_shard_capacity_bytes,
            max_queue_depth: config.max_queue_depth,
        };
        let shards = engines
            .into_iter()
            .enumerate()
            .map(|(id, engine)| {
                let mut shard =
                    Shard::new(id, engine, admission, config.host_link, config.sched, config.shrink);
                if let Some(sink) = &config.trace {
                    shard.install_trace(sink.clone());
                }
                shard
            })
            .collect();
        Ok(Self {
            shards,
            workload,
            router: config.router.build(),
            migration: config.migration,
            max_ticks: config.max_ticks,
            now: 0,
            arrivals: 0,
            routed: vec![0; n],
            migrations: 0,
            migration_bytes: 0,
            migration_cycles: 0,
            reserved_series: vec![Vec::new(); n],
            trace: config.trace,
            faults: FaultRuntime::new(faults, n),
        })
    }

    /// The current virtual-clock tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Requests that have arrived cluster-wide so far.
    pub fn submitted(&self) -> usize {
        self.arrivals
    }

    /// Requests finished cluster-wide so far.
    pub fn completed(&self) -> usize {
        self.shards.iter().map(Shard::completed).sum()
    }

    /// Requests rejected cluster-wide so far.
    pub fn rejected(&self) -> usize {
        self.shards.iter().map(Shard::rejected).sum()
    }

    /// Requests currently queued, running, preempted, or swapping in on
    /// any shard — plus requests parked in the cluster's retry queue
    /// waiting out their backoff.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(Shard::in_flight).sum::<usize>() + self.faults.retry.len()
    }

    /// Cross-shard migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Requests dead-lettered so far (terminal: retry budget exhausted).
    pub fn dead_lettered(&self) -> usize {
        self.faults.dead_letters as usize
    }

    /// Requests shed by the overload watermark so far (terminal).
    pub fn shed(&self) -> usize {
        self.faults.shed as usize
    }

    /// Retry attempts consumed so far (crash losses, deadline teardowns,
    /// and requeue failures).
    pub fn retries(&self) -> u64 {
        self.faults.retries
    }

    /// Deadline violations that tore an attempt down so far.
    pub fn timeouts(&self) -> u64 {
        self.faults.timeouts
    }

    /// Current per-shard health, indexed by shard.
    pub fn health(&self) -> &[ShardHealth] {
        &self.faults.health
    }

    /// Whether all work (arrived and future) is finished.
    pub fn is_done(&self) -> bool {
        self.workload.exhausted() && self.in_flight() == 0
    }

    /// Executes one virtual-clock tick (see the [module docs](self)).
    pub fn tick(&mut self) {
        self.apply_fault_transitions();
        self.drain_retries();
        for arrival in self.workload.take_arrivals(self.now) {
            let global = self.arrivals;
            self.arrivals += 1;
            if self.faults.health.iter().any(|h| h.routable()) {
                let views: Vec<_> = self
                    .shards
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.view(&arrival.request.prompt, self.faults.health[i]))
                    .collect();
                let pick = self.router.route(&views);
                assert!(pick < self.shards.len(), "router returned an out-of-range shard");
                assert!(self.faults.health[pick].routable(), "router picked an unroutable shard");
                self.routed[pick] += 1;
                self.shards[pick].accept(arrival, global, self.now, &mut self.workload);
            } else {
                // Every shard is down or draining: the arrival cannot be
                // routed anywhere. Register its record on a deterministic
                // home shard and park it as a retry attempt (bounded, so
                // a cluster that never recovers dead-letters it).
                let ServingRequest { request, priority } = arrival;
                let home = global % self.shards.len();
                let index = self.shards[home].register_deferred(&request, priority, global, self.now);
                self.retry_or_dead_letter(LostWork {
                    home: (home, index),
                    arrival: global,
                    priority,
                    request,
                });
            }
        }
        self.shed_overload();
        for shard in &mut self.shards {
            shard.begin_tick(self.now);
        }
        if self.migration.is_some() {
            self.migrate();
        }
        for shard in &mut self.shards {
            shard.step_engine(self.now, &mut self.workload);
        }
        // Drain foreign-record updates in shard order: deterministic, and
        // record state is settled before anyone observes end-of-tick
        // counters (the conservation invariant the proptests check).
        for i in 0..self.shards.len() {
            for update in self.shards[i].take_outbox() {
                debug_assert_ne!(update.shard, i, "a shard never posts to its own outbox");
                self.shards[update.shard].apply_record_delta(update.index, update.delta);
            }
        }
        self.enforce_deadlines();
        for (i, shard) in self.shards.iter().enumerate() {
            self.reserved_series[i].push(shard.reserved_bytes());
        }
        self.faults.shard_ticks += self.shards.len() as u64;
        self.faults.alive_shard_ticks +=
            self.faults.health.iter().filter(|h| **h != ShardHealth::Down).count() as u64;

        self.now += 1;
        // Fast-forward idle spans to the next thing that can happen: an
        // arrival, a parked retry coming ready, or a scheduled fault
        // transition (so no ShardDown/ShardUp edge is skipped over). A
        // finished run never jumps — a fault transition past the last
        // completion would only inflate the tick count it is judged by —
        // and no jump passes the `max_ticks` safety valve.
        if !self.is_done() && self.shards.iter().map(Shard::in_flight).sum::<usize>() == 0 {
            let mut next: Option<u64> = None;
            for candidate in [
                self.workload.next_arrival_tick(),
                self.faults.next_retry_ready(),
                self.faults.config.plan.next_transition_at(self.now),
            ]
            .into_iter()
            .flatten()
            {
                next = Some(next.map_or(candidate, |n| n.min(candidate)));
            }
            if let Some(next) = next {
                self.now = self.now.max(next.min(self.max_ticks));
            }
        }
    }

    /// Applies the fault plan's scheduled health and link transitions for
    /// this tick: newly-down shards fail (their work re-enters through
    /// the retry queue), recovered shards rejoin rotation, and each
    /// shard's host-link bandwidth fraction is refreshed. A no-op on an
    /// empty plan (invariant #9).
    fn apply_fault_transitions(&mut self) {
        for s in 0..self.shards.len() {
            let health = self.faults.config.plan.health_at(s, self.now);
            let was_down = self.faults.health[s] == ShardHealth::Down;
            let is_down = health == ShardHealth::Down;
            self.faults.health[s] = health;
            if is_down && !was_down {
                let sessions = (self.shards[s].running.len()
                    + self.shards[s].paused.len()
                    + self.shards[s].swapping.len()) as u64;
                let lost = self.shards[s].fail();
                self.faults.shard_downs += 1;
                self.faults.lost_sessions += sessions;
                self.faults.down_since[s] = Some(self.now);
                // The event's request field carries the shard id: shard
                // transitions are not tied to any one request.
                self.shards[s].emit(
                    self.now,
                    s as u64,
                    TraceEventKind::ShardDown { lost: lost.len() as u32 },
                );
                for work in lost {
                    self.retry_or_dead_letter(work);
                }
            } else if was_down && !is_down {
                self.faults.shard_ups += 1;
                let down_ticks = self.faults.down_since[s].take().map_or(0, |t| self.now.saturating_sub(t));
                self.shards[s].emit(self.now, s as u64, TraceEventKind::ShardUp { down_ticks });
            }
        }
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let fraction = self.faults.config.plan.link_fraction_at(s, self.now);
            if fraction != shard.link.degradation() {
                shard.link.set_degradation(fraction);
            }
        }
    }

    /// Re-routes every parked retry whose backoff has elapsed through the
    /// currently-routable shards; a retry that still cannot land (no
    /// routable shard, or screening failure) consumes another attempt.
    fn drain_retries(&mut self) {
        if self.faults.retry.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.faults.retry);
        let mut parked = std::collections::VecDeque::new();
        for entry in pending {
            if entry.ready > self.now {
                parked.push_back(entry);
            } else {
                self.place_retry(entry.work);
            }
        }
        // place_retry may have parked fresh (backed-off) entries; keep
        // the still-waiting ones first so drain order stays stable.
        let fresh = std::mem::take(&mut self.faults.retry);
        self.faults.retry = parked;
        self.faults.retry.extend(fresh);
    }

    /// Routes one ready retry to a shard queue, or hands it back to the
    /// retry/dead-letter path when nothing can take it.
    fn place_retry(&mut self, work: LostWork) {
        if !self.faults.health.iter().any(|h| h.routable()) {
            self.retry_or_dead_letter(work);
            return;
        }
        let views: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.view(&work.request.prompt, self.faults.health[i]))
            .collect();
        let pick = self.router.route(&views);
        assert!(pick < self.shards.len(), "router returned an out-of-range shard");
        assert!(self.faults.health[pick].routable(), "router picked an unroutable shard");
        self.routed[pick] += 1;
        if let Err((_reason, work)) = self.shards[pick].requeue(work, self.now) {
            self.retry_or_dead_letter(work);
        }
    }

    /// The bounded-retry state machine: resets the record's attempt
    /// state, then either parks the work with its exponential backoff or
    /// — once the retry budget is spent — dead-letters it (terminal,
    /// disposing of the request for closed-loop workloads).
    fn retry_or_dead_letter(&mut self, work: LostWork) {
        let now = self.now;
        let (home, index) = work.home;
        let max_attempts = self.faults.config.retry.max_attempts;
        let (exhausted, attempt) = {
            let record = &mut self.shards[home].records[index];
            record.reset_attempt(now);
            if record.retries >= max_attempts {
                record.dead_letter = Some(now);
                record.lost_at = None;
                (true, record.retries)
            } else {
                record.retries += 1;
                (false, record.retries)
            }
        };
        if exhausted {
            self.faults.dead_letters += 1;
            self.shards[home].emit(
                now,
                work.arrival as u64,
                TraceEventKind::DeadLetter { attempts: attempt },
            );
            self.workload.notify_completion(now);
        } else {
            self.faults.retries += 1;
            self.shards[home].emit(now, work.arrival as u64, TraceEventKind::Retried { attempt });
            let ready = now.saturating_add(self.faults.config.retry.backoff(attempt));
            self.faults.retry.push_back(RetryEntry { ready, work });
        }
    }

    /// Sheds queued requests while the cluster-wide queue depth exceeds
    /// the watermark fraction of total queue slots. Victims are the
    /// lowest-priority tier's newest arrivals — the requests that would
    /// wait longest anyway — and shedding is terminal (no retry): its
    /// point is dropping work *cheaply* under overload.
    fn shed_overload(&mut self) {
        let Some(watermark) = self.faults.config.shed_watermark else { return };
        let slots = self.shards.len() * self.shards[0].admission.config().max_queue_depth;
        let threshold = (watermark * slots as f64) as usize;
        loop {
            let depth: usize = self.shards.iter().map(Shard::queue_len).sum();
            if depth <= threshold {
                break;
            }
            let (_, std::cmp::Reverse(arrival), shard) = self
                .shards
                .iter()
                .flat_map(|s| s.queue.iter().map(move |e| (e.priority, std::cmp::Reverse(e.arrival), s.id)))
                .min()
                .expect("queue depth above threshold implies a non-empty queue");
            let entry =
                self.shards[shard].remove_queued(arrival).expect("victim was just seen in this queue");
            let (home, index) = match entry.record {
                RecordRef::Local(i) => (shard, i),
                RecordRef::Foreign { shard, index } => (shard, index),
            };
            let record = &mut self.shards[home].records[index];
            record.shed = Some(self.now);
            record.lost_at = None;
            self.faults.shed += 1;
            self.shards[home].emit(self.now, arrival as u64, TraceEventKind::Shed);
            self.workload.notify_completion(self.now);
        }
    }

    /// Tears down every attempt past its TTFT or e2e deadline (measured
    /// from the attempt's epoch, not the original submission) and feeds
    /// it to the retry/dead-letter path. A no-op with no deadlines
    /// configured.
    fn enforce_deadlines(&mut self) {
        let ttft = self.faults.config.ttft_deadline;
        let e2e = self.faults.config.e2e_deadline;
        if ttft.is_none() && e2e.is_none() {
            return;
        }
        let now = self.now;
        // Phase 1: scan immutably, in shard order, collecting violations.
        let mut violations: Vec<(usize, usize, &'static str)> = Vec::new();
        for si in 0..self.shards.len() {
            let shard = &self.shards[si];
            let entries = shard
                .queue
                .iter()
                .map(|e| (e.record, e.arrival, e.submitted))
                .chain(shard.running.iter().map(|e| (e.record, e.arrival, e.submitted)))
                .chain(shard.paused.iter().map(|e| (e.record, e.arrival, e.submitted)))
                .chain(shard.swapping.iter().map(|s| (s.entry.record, s.entry.arrival, s.entry.submitted)));
            for (record_ref, arrival, submitted) in entries {
                let (h, idx) = match record_ref {
                    RecordRef::Local(i) => (si, i),
                    RecordRef::Foreign { shard, index } => (shard, index),
                };
                let record = &self.shards[h].records[idx];
                // e2e subsumes ttft: a request past both deadlines is
                // one timeout, labeled with the stricter violation.
                if e2e.is_some_and(|d| now >= submitted + d) && record.finished.is_none() {
                    violations.push((si, arrival, "e2e"));
                } else if ttft.is_some_and(|d| now >= submitted + d) && record.first_token.is_none() {
                    violations.push((si, arrival, "ttft"));
                }
            }
        }
        // Phase 2: tear down in the order collected (deterministic).
        for (si, arrival, deadline) in violations {
            let Some(work) = self.shards[si].remove_timed_out(arrival, deadline, now) else {
                continue;
            };
            let (h, idx) = work.home;
            self.shards[h].records[idx].timeouts += 1;
            self.faults.timeouts += 1;
            self.retry_or_dead_letter(work);
        }
    }

    /// Moves up to [`MigrationConfig::max_per_tick`] sessions from hot
    /// shards to cold ones. A migration pauses the victim on its source,
    /// extracts its KV state (privatizing any shared-prefix span — the
    /// payload is the session's complete state), pays the transfer on
    /// both host links, and parks the session in the target's swap-in
    /// set until the transfer's cycles elapse.
    fn migrate(&mut self) {
        let cfg = self.migration.expect("caller checked");
        for _ in 0..cfg.max_per_tick {
            let Some((src, tgt)) = self.pick_migration(&cfg) else { break };
            self.execute_migration(src, tgt);
        }
    }

    /// Picks (source, target) for one migration, or `None` when no shard
    /// is hot or no candidate can land anywhere.
    fn pick_migration(&self, cfg: &MigrationConfig) -> Option<(usize, usize)> {
        let hot = |s: &Shard| {
            let threshold = (cfg.hot_fraction * s.capacity_bytes() as f64) as u64;
            s.reserved_bytes() > threshold
        };
        // Hottest eligible source; ties go to the lowest shard index
        // (max_by_key keeps the last max, so reverse the index in the
        // key). A Draining shard may still migrate sessions *away* —
        // that is the point of the drain window — but a Down shard has
        // nothing to offer (its running set is empty).
        let src = self
            .shards
            .iter()
            .filter(|s| !s.running.is_empty() && hot(s))
            .max_by_key(|s| (s.reserved_bytes(), std::cmp::Reverse(s.id)))?
            .id;
        // Victim: the largest running session (frees the most source
        // bytes per transfer); ties go to the oldest arrival.
        let victim = self.shards[src]
            .running
            .iter()
            .max_by_key(|e| (e.full_bytes, std::cmp::Reverse(e.arrival)))
            .expect("source has running sessions");
        let need = victim.full_bytes;
        // Coldest *routable* shard that can land the full (undiscounted)
        // payload and stay under the cold-side threshold — down and
        // draining shards receive no landings.
        let tgt = self
            .shards
            .iter()
            .filter(|s| s.id != src && self.faults.health[s.id].routable())
            .filter(|s| {
                let cold_cap = (cfg.cold_fraction * s.capacity_bytes() as f64) as u64;
                s.admission.would_fit(need.saturating_add(s.prefix_overhead()))
                    && s.reserved_bytes().saturating_add(need) <= cold_cap
            })
            .min_by_key(|s| (s.reserved_bytes(), s.queue_len(), s.id))?
            .id;
        Some((src, tgt))
    }

    /// Executes one migration of the source's chosen victim to `tgt`.
    fn execute_migration(&mut self, src: usize, tgt: usize) {
        let (source, target) = two_shards(&mut self.shards, src, tgt);
        let victim_index = source
            .running
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| (e.full_bytes, std::cmp::Reverse(e.arrival)))
            .map(|(i, _)| i)
            .expect("pick_migration found a victim");
        let entry = source.running.remove(victim_index);
        source.engine.pause(entry.session).expect("running entry tracks the engine");
        let migrated = source.engine.extract(entry.session).expect("just paused");
        // Extraction privatized any shared-prefix span, so the payload —
        // and the target-side reservation — is the full session state.
        let payload = migrated.kv_bytes();
        if let Some(sink) = &self.trace {
            sink.record(TraceEvent {
                tick: self.now,
                cycles: source.elapsed_cycles,
                shard: src as u32,
                request: entry.arrival as u64,
                kind: TraceEventKind::MigrationStart { to_shard: tgt as u32, bytes: payload },
            });
        }
        source.admission.release(entry.est_bytes);
        let out_cycles = source.link.transfer_tagged(payload, SwapDirection::Out, TransferKind::Migration);
        let in_cycles = target.link.transfer_tagged(payload, SwapDirection::In, TransferKind::Migration);
        let session = target.engine.adopt(migrated).expect("cluster shards share one model geometry");
        target.admission.reserve(entry.full_bytes);
        // The record stays on its home shard: local entries become
        // foreign references, already-foreign entries keep pointing home —
        // and a session migrating *back* to its home shard becomes local
        // again (otherwise it would post outbox updates to itself).
        let record = match entry.record {
            RecordRef::Local(index) => RecordRef::Foreign { shard: src, index },
            RecordRef::Foreign { shard, index } if shard == tgt => RecordRef::Local(index),
            foreign @ RecordRef::Foreign { .. } => foreign,
        };
        debug_assert!(
            !matches!(record, RecordRef::Foreign { shard, .. } if shard == tgt),
            "a session never migrates to its own home shard as foreign"
        );
        target.swapping.push(SwapInEntry {
            entry: SessionEntry {
                record,
                arrival: entry.arrival,
                submitted: entry.submitted,
                request: entry.request,
                session,
                priority: entry.priority,
                est_bytes: entry.full_bytes,
                full_bytes: entry.full_bytes,
                preemptions: entry.preemptions,
                cap: entry.cap,
                wait_since: Some((WaitKind::Migration { from: src }, self.now)),
            },
            ready_at: target.elapsed_cycles + in_cycles,
        });
        self.migrations += 1;
        self.migration_bytes += payload;
        self.migration_cycles += out_cycles + in_cycles;
    }

    /// Runs the workload to completion (or the `max_ticks` safety valve)
    /// and produces the [`ClusterReport`].
    pub fn run(mut self) -> ClusterReport {
        while !self.is_done() && self.now < self.max_ticks {
            self.tick();
        }
        let arrival = self.workload.kind();
        let router = self.router.kind();
        let shards: Vec<ServingReport> =
            self.shards.into_iter().map(|s| s.into_report(arrival, self.now)).collect();
        ClusterReport {
            router,
            shard_count: shards.len(),
            ticks: self.now,
            routed: self.routed,
            migrations: self.migrations,
            migration_bytes: self.migration_bytes,
            migration_cycles: self.migration_cycles,
            kv_reserved_series: self.reserved_series,
            shard_downs: self.faults.shard_downs,
            shard_ups: self.faults.shard_ups,
            lost_sessions: self.faults.lost_sessions,
            retries: self.faults.retries,
            timeouts: self.faults.timeouts,
            dead_letters: self.faults.dead_letters,
            shed: self.faults.shed,
            alive_shard_ticks: self.faults.alive_shard_ticks,
            shard_ticks: self.faults.shard_ticks,
            shards,
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("now", &self.now)
            .field("shards", &self.shards)
            .field("arrivals", &self.arrivals)
            .field("migrations", &self.migrations)
            .finish()
    }
}

/// Mutably borrows two distinct shards at once.
fn two_shards(shards: &mut [Shard], a: usize, b: usize) -> (&mut Shard, &mut Shard) {
    assert_ne!(a, b, "migration source and target must differ");
    if a < b {
        let (left, right) = shards.split_at_mut(b);
        (&mut left[a], &mut right[0])
    } else {
        let (left, right) = shards.split_at_mut(a);
        (&mut right[0], &mut left[b])
    }
}

/// Aggregate result of one [`Cluster`] run: per-shard [`ServingReport`]s
/// plus the cluster-plane series (routing decisions, migration traffic,
/// per-shard KV-residency over time) and global latency aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// The routing policy that drove the run.
    pub router: RouterKind,
    /// Number of shards.
    pub shard_count: usize,
    /// Virtual-clock ticks the run spanned.
    pub ticks: u64,
    /// Requests routed to each shard, indexed by shard.
    pub routed: Vec<usize>,
    /// Cross-shard migrations performed.
    pub migrations: u64,
    /// KV bytes moved by migrations (counted once per migration; each
    /// migration pays the transfer on both host links).
    pub migration_bytes: u64,
    /// Host-link cycles spent on migration traffic (both directions).
    pub migration_cycles: u64,
    /// Per-shard reserved-KV-bytes series, sampled after each executed
    /// tick, indexed by shard.
    pub kv_reserved_series: Vec<Vec<u64>>,
    /// Fail-stop shard crashes executed by the fault plan.
    pub shard_downs: u64,
    /// Shard recoveries executed by the fault plan.
    pub shard_ups: u64,
    /// Admitted sessions lost to crashes (their KV state was discarded
    /// and their requests re-prefilled on retry).
    pub lost_sessions: u64,
    /// Retry attempts consumed (crash losses, deadline teardowns, and
    /// requeue failures).
    pub retries: u64,
    /// Deadline violations (TTFT or e2e) that tore an attempt down.
    pub timeouts: u64,
    /// Requests dead-lettered after exhausting their retry budget
    /// (terminal).
    pub dead_letters: u64,
    /// Requests shed by the overload watermark (terminal).
    pub shed: u64,
    /// Shard-ticks spent not `Down` (availability numerator; a draining
    /// shard still counts as available — it is serving its queue).
    pub alive_shard_ticks: u64,
    /// Total shard-ticks observed (availability denominator).
    pub shard_ticks: u64,
    /// Per-shard serving reports, indexed by shard. Each request's
    /// record lives in the report of the shard that *accepted* it, even
    /// if the session later migrated.
    pub shards: Vec<ServingReport>,
}

impl ClusterReport {
    /// Requests that arrived cluster-wide.
    pub fn submitted(&self) -> usize {
        self.shards.iter().map(|s| s.submitted).sum()
    }

    /// Requests admitted cluster-wide.
    pub fn admitted(&self) -> usize {
        self.shards.iter().map(|s| s.admitted).sum()
    }

    /// Requests completed cluster-wide.
    pub fn completed(&self) -> usize {
        self.shards.iter().map(|s| s.completed).sum()
    }

    /// Requests rejected cluster-wide.
    pub fn rejected(&self) -> usize {
        self.shards.iter().map(ServingReport::rejected).sum()
    }

    /// Fraction of shard-ticks spent not `Down`, in `[0, 1]` (`1.0` for
    /// a run that never executed a tick).
    pub fn availability(&self) -> f64 {
        if self.shard_ticks == 0 {
            1.0
        } else {
            self.alive_shard_ticks as f64 / self.shard_ticks as f64
        }
    }

    /// Recovery-latency summary (ticks from an attempt's loss to its
    /// re-admission) over every request that survived at least one loss;
    /// `None` when nothing recovered.
    pub fn recovery(&self) -> Option<LatencySummary> {
        LatencySummary::of(
            self.shards
                .iter()
                .flat_map(|s| s.records.iter())
                .filter(|r| r.recovery_wait_ticks > 0)
                .map(|r| r.recovery_wait_ticks)
                .collect(),
        )
    }

    /// Completed requests per tick — the throughput that survives the
    /// fault schedule (timed-out retries, dead letters and shed requests
    /// all fall out of the numerator).
    pub fn goodput(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.completed() as f64 / self.ticks as f64
        }
    }

    /// Tokens generated cluster-wide.
    pub fn generated_tokens(&self) -> u64 {
        self.shards.iter().flat_map(|s| s.records.iter()).map(|r| r.generated_tokens as u64).sum()
    }

    /// Global TTFT summary over every completed request on every shard.
    pub fn ttft(&self) -> Option<LatencySummary> {
        LatencySummary::of(
            self.shards.iter().flat_map(|s| s.records.iter()).filter_map(|r| r.ttft()).collect(),
        )
    }

    /// Global end-to-end latency summary over every completed request.
    pub fn e2e(&self) -> Option<LatencySummary> {
        LatencySummary::of(
            self.shards.iter().flat_map(|s| s.records.iter()).filter_map(|r| r.e2e()).collect(),
        )
    }

    /// Latency waterfalls of every completed request on every shard.
    pub fn waterfalls(&self) -> Vec<StageWaterfall> {
        self.shards.iter().flat_map(ServingReport::waterfalls).collect()
    }

    /// Pooled per-stage latency summaries over every completed request
    /// on every shard; `None` on a zero-completion run.
    pub fn stages(&self) -> Option<StageSummaries> {
        StageSummaries::of(&self.waterfalls())
    }

    /// Folds the run into one [`MetricsRegistry`]: every shard's
    /// registry merged (counters add, histograms merge), plus the
    /// cluster-plane counters that only exist between shards.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        for shard in &self.shards {
            m.merge(&shard.metrics());
        }
        m.counter_add("cluster_migrations", self.migrations);
        m.counter_add("cluster_migration_bytes", self.migration_bytes);
        m.counter_add("cluster_migration_link_cycles", self.migration_cycles);
        m.counter_add("cluster_shard_downs", self.shard_downs);
        m.counter_add("cluster_shard_ups", self.shard_ups);
        m.counter_add("cluster_lost_sessions", self.lost_sessions);
        m.counter_add("cluster_retries", self.retries);
        m.counter_add("cluster_timeouts", self.timeouts);
        m.counter_add("cluster_dead_letters", self.dead_letters);
        m.counter_add("cluster_shed", self.shed);
        m.counter_add("cluster_alive_shard_ticks", self.alive_shard_ticks);
        m.counter_add("cluster_shard_ticks", self.shard_ticks);
        for (i, n) in self.routed.iter().enumerate() {
            m.counter_add(&format!("cluster_routed_shard_{i}"), *n as u64);
        }
        m
    }

    /// Cluster-wide prefix-cache hits.
    pub fn prefix_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.prefix.hits).sum()
    }

    /// Cluster-wide prefix-cache lookups.
    pub fn prefix_lookups(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.prefix.hits + s.engine.prefix.misses).sum()
    }

    /// Cluster-wide prefix-cache hit rate in `[0, 1]` (0 with the cache
    /// disabled). This is the number [`RouterKind::PrefixAffinity`]
    /// exists to raise: routing prefix-sharing prompts to one shard
    /// turns round-robin's cold misses into hits.
    pub fn prefix_hit_rate(&self) -> f64 {
        let lookups = self.prefix_lookups();
        if lookups == 0 {
            0.0
        } else {
            self.prefix_hits() as f64 / lookups as f64
        }
    }

    /// Cluster-wide prefix-cache churn: `(evictions, expiries, spills,
    /// fills)` summed over every shard's cache. All zero under the
    /// default no-churn configuration.
    pub fn prefix_churn(&self) -> (u64, u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0, 0), |acc, s| {
            let p = &s.engine.prefix;
            (acc.0 + p.evictions, acc.1 + p.expiries, acc.2 + p.spills, acc.3 + p.fills)
        })
    }

    /// Cluster-wide bytes spilled device → host by prefix caches.
    pub fn prefix_spill_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.prefix_spill_bytes).sum()
    }

    /// Cluster-wide bytes promoted host → device by prefix caches.
    pub fn prefix_fill_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.prefix_fill_bytes).sum()
    }

    /// Largest per-shard reserved-KV peak, in bytes.
    pub fn kv_reserved_peak_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.kv_reserved_peak_bytes).max().unwrap_or(0)
    }
}

impl std::fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cluster report: {} shards, {} router, {} ticks",
            self.shard_count, self.router, self.ticks
        )?;
        writeln!(
            f,
            "  submitted / completed  : {} / {} ({} admitted, {} rejected)",
            self.submitted(),
            self.completed(),
            self.admitted(),
            self.rejected()
        )?;
        let routed: Vec<String> =
            self.routed.iter().enumerate().map(|(i, n)| format!("shard {i}: {n}")).collect();
        writeln!(f, "  routed                 : {}", routed.join(", "))?;
        writeln!(
            f,
            "  migrations             : {} ({} B, {} link cycles)",
            self.migrations, self.migration_bytes, self.migration_cycles
        )?;
        if self.shard_downs + self.retries + self.timeouts + self.dead_letters + self.shed > 0 {
            writeln!(
                f,
                "  faults                 : {} crashes / {} recoveries, {} sessions lost, \
                 {} retries, {} timeouts, {} dead-lettered, {} shed",
                self.shard_downs,
                self.shard_ups,
                self.lost_sessions,
                self.retries,
                self.timeouts,
                self.dead_letters,
                self.shed
            )?;
            writeln!(f, "  availability           : {:.4}", self.availability())?;
        }
        if self.prefix_lookups() > 0 {
            writeln!(
                f,
                "  prefix cache           : {} hits / {} lookups ({:.0}% hit rate)",
                self.prefix_hits(),
                self.prefix_lookups(),
                100.0 * self.prefix_hit_rate()
            )?;
        }
        let (evictions, expiries, spills, fills) = self.prefix_churn();
        if evictions + expiries + spills + fills > 0 {
            writeln!(
                f,
                "  prefix churn           : {} evicted, {} expired, {} spilled ({} B), {} filled ({} B)",
                evictions,
                expiries,
                spills,
                self.prefix_spill_bytes(),
                fills,
                self.prefix_fill_bytes(),
            )?;
        }
        writeln!(f, "  latency (ticks)        : {:>8} {:>8} {:>8} {:>8}", "p50", "p95", "p99", "max")?;
        let mut row = |name: &str, summary: Option<LatencySummary>| match summary {
            Some(s) => writeln!(f, "    {:<21}: {:>8} {:>8} {:>8} {:>8}", name, s.p50, s.p95, s.p99, s.max),
            None => writeln!(f, "    {name:<21}: (no completed requests)"),
        };
        row("ttft", self.ttft())?;
        row("e2e", self.e2e())?;
        if let Some(recovery) = self.recovery() {
            row("recovery", Some(recovery))?;
        }
        if let Some(stages) = self.stages() {
            row("wf queueing", Some(stages.queueing))?;
            row("wf prefill", Some(stages.prefill))?;
            row("wf decode", Some(stages.decode))?;
            row("wf swap wait", Some(stages.swap_wait))?;
            row("wf migration wait", Some(stages.migration_wait))?;
        }
        for shard in &self.shards {
            writeln!(
                f,
                "  shard {:<2}               : {} submitted, {} completed, {} rejected, {} preemptions, peak {} B of {} B",
                shard.shard_id,
                shard.submitted,
                shard.completed,
                shard.rejected(),
                shard.preemptions,
                shard.kv_reserved_peak_bytes,
                shard.capacity_bytes
            )?;
        }
        Ok(())
    }
}
