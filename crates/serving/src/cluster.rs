//! The cluster plane: N serving shards behind one admission/routing
//! front door, stepped on one virtual clock.
//!
//! A [`Cluster`] is the multi-engine deployment of the serving stack:
//! each [`Shard`] is a full engine + admission controller + queue (see
//! its module docs for the per-shard tick), and the cluster adds the
//! things that only exist *between* engines — routing, migration, and
//! the fault plane. One [`Cluster::tick`] is one virtual-clock step:
//!
//! 0. **Fault transitions** (no-ops without a [`FaultConfig`]): scheduled
//!    crashes fail their shard (in-flight work displaced into the retry
//!    queue), recoveries return it to rotation, link-degradation windows
//!    scale host-link bandwidth; then parked retries whose backoff has
//!    elapsed re-route through the healthy shards.
//! 1. **Route + screen**: each arrival due this tick is routed by the
//!    [`RouterKind`] (which sees per-shard load, health, and
//!    prefix-affinity snapshots, never the RNG) and screened by the
//!    chosen shard's admission control. The [`crate::Workload`] is fixed
//!    at construction, in global arrival order, so the routing decision
//!    can never perturb what a request *is* — only where it runs. That
//!    is the cluster's RNG-stream discipline, pinned by the
//!    `cluster_stack` tests. Every arrival gets a [`RequestRecord`] in
//!    the cluster's record table (indexed by arrival) and a home shard,
//!    whose report will hold the record: the chosen shard, or — when
//!    *no* shard is routable — a deterministic one, and the arrival is
//!    parked as a retry.
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
//!    token stream (pinned), nor the home shard whose report holds the
//!    request's record.
//! 4. **Step**: one batched engine tick per shard, all against the same
//!    virtual tick, in three phases ([`veda::Engine::step`]). Every
//!    shard's engine *plans* its tick in index order on the calling
//!    thread; the planned [`veda::StepWork`]s — the forward passes, which
//!    are ≈ 97 % of a tick's host time — are *computed* on the cluster's
//!    step threads, balanced by planned rows (thread 0 is the caller);
//!    then every shard *commits* in index order on the calling thread:
//!    prefix harvest, trace events, retirement, record updates and
//!    accounting. The cluster spawns `min(available
//!    parallelism, shards) − 1` persistent workers at the first tick on
//!    which two shards step, and joins them when it is dropped. The
//!    compute phase emits nothing and touches only its own work, so
//!    reports, token streams and trace bytes are the same on any number
//!    of threads.
//! 5. **Deadline enforcement** (only with deadlines configured): every
//!    attempt past its TTFT or e2e deadline is torn down and retried or
//!    dead-lettered under the [`crate::RetryPolicy`].
//!
//! Determinism: same seed, same shard count, same policies ⇒
//! bit-identical [`ClusterReport`], whatever the host's core count. And
//! a cluster whose [`ClusterConfig::faults`] is `None` is byte-identical
//! to one configured with the default (no-op) [`FaultConfig`] —
//! determinism invariant #9, by construction: the fault runtime is
//! always present and every fault step no-ops identically on an empty
//! plan.

use std::collections::BTreeMap;

use veda::Engine;
use veda_mem::HostLinkConfig;
use veda_telemetry::{log2_histogram, Json, SinkHandle, StageWaterfall, TraceEventKind};

use crate::admission::AdmissionConfig;
use crate::error::ServeError;
use crate::faults::{FaultConfig, FaultRuntime, LostWork, RetryEntry, ShardHealth};
use crate::report::{
    mean_queue_depth, mean_tpot, LatencySummary, RequestRecord, ServingReport, StageSummaries,
};
use crate::router::RouterKind;
use crate::scheduler::SchedKind;
use crate::shard::Shard;
use crate::stepping::StepPool;
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
    router: RouterKind,
    /// Round-robin position: advanced once per routing decision.
    router_cursor: usize,
    migration: Option<MigrationConfig>,
    max_ticks: u64,
    now: u64,
    /// Every request's record, indexed by global arrival. Shards write
    /// the records of the requests they host through the `&mut` slice
    /// each step call lends them.
    records: Vec<RequestRecord>,
    /// The home shard of each record (the shard the request arrived on,
    /// by arrival): [`Cluster::run`] reports each record there.
    homes: Vec<usize>,
    /// Requests routed to each shard.
    routed: Vec<usize>,
    migrations: u64,
    migration_bytes: u64,
    migration_cycles: u64,
    /// Per-shard reserved-KV-bytes series, sampled after each executed
    /// tick.
    reserved_series: Vec<Vec<u64>>,
    /// Highest sum over the shards of device-resident KV bytes, sampled
    /// after each executed tick beside `reserved_series`.
    resident_peak: u64,
    /// The fault plane's live state — always present; a cluster without
    /// a configured plane runs the no-op default (invariant #9).
    faults: FaultRuntime,
    /// The threads the shards' compute phases run on (none spawned until
    /// two shards step in one tick).
    steppers: StepPool,
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
    /// mixed model geometry, bad migration thresholds, a broken host
    /// link, an invalid fault plan, or a shed watermark outside `(0, 1]`.
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
        config.host_link.validate().map_err(ServeError::InvalidHostLink)?;
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
                let mut shard = Shard::new(id, engine, admission, config.host_link, config.sched);
                if let Some(sink) = &config.trace {
                    shard.install_trace(sink.clone());
                }
                shard
            })
            .collect();
        Ok(Self {
            shards,
            workload,
            router: config.router,
            router_cursor: 0,
            migration: config.migration,
            max_ticks: config.max_ticks,
            now: 0,
            records: Vec::new(),
            homes: Vec::new(),
            routed: vec![0; n],
            migrations: 0,
            migration_bytes: 0,
            migration_cycles: 0,
            reserved_series: vec![Vec::new(); n],
            resident_peak: 0,
            faults: FaultRuntime::new(faults, n),
            steppers: StepPool::default(),
        })
    }

    /// Steps the shards on `threads` threads (the caller's included)
    /// instead of one per available core; only before the first tick.
    #[cfg(test)]
    pub(crate) fn set_step_threads(&mut self, threads: usize) {
        self.steppers = StepPool::with_threads(threads);
    }

    /// Step workers spawned so far.
    #[cfg(test)]
    pub(crate) fn step_workers(&self) -> usize {
        self.steppers.workers()
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
        self.records.len()
    }

    /// Requests finished cluster-wide so far.
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.finished.is_some()).count()
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
            let global = self.records.len();
            let routed = self.route(&arrival.request.prompt);
            // When every shard is down or draining the arrival cannot be
            // routed anywhere, so its home is a deterministic shard.
            let home = routed.unwrap_or(global % self.shards.len());
            self.records.push(RequestRecord::new(global, arrival.priority, self.now));
            self.homes.push(home);
            self.shards[home].emit(
                self.now,
                global as u64,
                TraceEventKind::Submitted {
                    prompt_tokens: arrival.request.prompt.len() as u32,
                    max_new_tokens: arrival.request.max_new_tokens as u32,
                    priority: arrival.priority as u32,
                },
            );
            if routed.is_some() {
                self.shards[home].accept(arrival, &mut self.records[global], self.now);
            } else {
                // Park it as a retry attempt (bounded, so a cluster that
                // never recovers dead-letters it).
                let ServingRequest { request, priority } = arrival;
                self.retry_or_dead_letter(LostWork { arrival: global, priority, request });
            }
        }
        self.shed_overload();
        for shard in &mut self.shards {
            shard.begin_tick(self.now, &mut self.records, &self.homes);
        }
        self.migrate();
        let mut works: Vec<_> = self.shards.iter_mut().map(|shard| shard.engine.plan_step()).collect();
        self.steppers.compute(&mut works);
        for (shard, work) in self.shards.iter_mut().zip(works) {
            shard.commit_step(work, self.now, &mut self.records);
        }
        self.enforce_deadlines();
        for (i, shard) in self.shards.iter().enumerate() {
            self.reserved_series[i].push(shard.reserved_bytes());
        }
        self.resident_peak = self.resident_peak.max(self.shards.iter().map(|s| s.kv_resident_now).sum());
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

    /// Routes one prompt: the router's pick among the routable shards,
    /// counted in `routed`, or `None` when no shard is routable.
    fn route(&mut self, prompt: &[usize]) -> Option<usize> {
        if !self.faults.health.iter().any(|h| h.routable()) {
            return None;
        }
        let views: Vec<_> =
            self.shards.iter().zip(&self.faults.health).map(|(s, &health)| s.view(prompt, health)).collect();
        let pick = self.router.route(&mut self.router_cursor, &views);
        assert!(self.faults.health[pick].routable(), "router picked an unroutable shard");
        self.routed[pick] += 1;
        Some(pick)
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
                let sessions = self.shards[s].sessions() as u64;
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
        let Some(pick) = self.route(&work.request.prompt) else {
            self.retry_or_dead_letter(work);
            return;
        };
        if let Err((_reason, work)) = self.shards[pick].requeue(work, self.now) {
            self.retry_or_dead_letter(work);
        }
    }

    /// The bounded-retry state machine: resets the record's attempt
    /// state, then either parks the work with its exponential backoff or
    /// — once the retry budget is spent — dead-letters it (terminal).
    fn retry_or_dead_letter(&mut self, work: LostWork) {
        let now = self.now;
        let home = self.homes[work.arrival];
        let max_attempts = self.faults.config.retry.max_attempts;
        let (exhausted, attempt) = {
            let record = &mut self.records[work.arrival];
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
        while self.shards.iter().map(Shard::queue_len).sum::<usize>() > threshold {
            let Some((_, std::cmp::Reverse(arrival), shard)) = self
                .shards
                .iter()
                .filter_map(|s| s.shed_candidate().map(|(priority, arrival)| (priority, arrival, s.id)))
                .min()
            else {
                break;
            };
            if self.shards[shard].remove_queued(arrival).is_none() {
                break;
            }
            let record = &mut self.records[arrival];
            record.shed = Some(self.now);
            record.lost_at = None;
            self.faults.shed += 1;
            self.shards[self.homes[arrival]].emit(self.now, arrival as u64, TraceEventKind::Shed);
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
        // Shard by shard, each in its stage order: a teardown touches
        // only its own shard's table and its own request's record.
        for shard in 0..self.shards.len() {
            while let Some(work) = self.shards[shard].take_timed_out(&self.records, ttft, e2e, self.now) {
                self.records[work.arrival].timeouts += 1;
                self.faults.timeouts += 1;
                self.retry_or_dead_letter(work);
            }
        }
    }

    /// Moves up to [`MigrationConfig::max_per_tick`] sessions from hot
    /// shards to cold ones ([`Shard::migrate_to`]); a no-op without a
    /// [`MigrationConfig`].
    fn migrate(&mut self) {
        let Some(cfg) = self.migration else { return };
        for _ in 0..cfg.max_per_tick {
            let Some((src, tgt)) = self.pick_migration(&cfg) else { break };
            let (source, target) = two_shards(&mut self.shards, src, tgt);
            let Some((bytes, cycles)) = source.migrate_to(target, self.now) else { break };
            self.migrations += 1;
            self.migration_bytes += bytes;
            self.migration_cycles += cycles;
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
        // nothing to offer (nothing runs on it). `need` is the source
        // victim's full (undiscounted) payload.
        let (src, need) = self
            .shards
            .iter()
            .filter_map(|s| Some((s, s.migration_bytes()?)))
            .filter(|(s, _)| hot(s))
            .max_by_key(|(s, _)| (s.reserved_bytes(), std::cmp::Reverse(s.id)))
            .map(|(s, need)| (s.id, need))?;
        // Coldest *routable* shard that can land the payload and stay
        // under the cold-side threshold — down and draining shards
        // receive no landings.
        let tgt = self
            .shards
            .iter()
            .filter(|s| s.id != src && self.faults.health[s.id].routable())
            .filter(|s| {
                let cold_cap = (cfg.cold_fraction * s.capacity_bytes() as f64) as u64;
                s.fits(need.saturating_add(s.prefix_overhead()))
                    && s.reserved_bytes().saturating_add(need) <= cold_cap
            })
            .min_by_key(|s| (s.reserved_bytes(), s.queue_len(), s.id))?
            .id;
        Some((src, tgt))
    }

    /// Runs the workload to completion (or the `max_ticks` safety valve)
    /// and produces the [`ClusterReport`].
    pub fn run(mut self) -> ClusterReport {
        while !self.is_done() && self.now < self.max_ticks {
            self.tick();
        }
        let arrival = self.workload.kind();
        let router = self.router;
        let mut by_home: Vec<Vec<RequestRecord>> = vec![Vec::new(); self.shards.len()];
        for (record, home) in self.records.into_iter().zip(self.homes) {
            by_home[home].push(record);
        }
        let shards: Vec<ServingReport> = self
            .shards
            .into_iter()
            .zip(by_home)
            .map(|(s, records)| s.into_report(arrival, self.now, records))
            .collect();
        ClusterReport {
            router,
            shard_count: shards.len(),
            ticks: self.now,
            routed: self.routed,
            migrations: self.migrations,
            migration_bytes: self.migration_bytes,
            migration_cycles: self.migration_cycles,
            kv_reserved_series: self.reserved_series,
            kv_resident_peak_bytes: self.resident_peak,
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
            .field("arrivals", &self.records.len())
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
    /// Highest device-resident KV bytes summed over the shards on any
    /// one tick — the cluster's simultaneous peak, which the sum of each
    /// shard's own peak can overstate when shards peak on different
    /// ticks.
    pub kv_resident_peak_bytes: u64,
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
    pub(crate) fn admitted(&self) -> usize {
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
    pub(crate) fn waterfalls(&self) -> Vec<StageWaterfall> {
        self.shards.iter().flat_map(ServingReport::waterfalls).collect()
    }

    /// Pooled per-stage latency summaries over every completed request
    /// on every shard; `None` on a zero-completion run.
    pub fn stages(&self) -> Option<StageSummaries> {
        StageSummaries::of(&self.waterfalls())
    }

    /// The run's metrics document: `counters` summed over the shards plus
    /// the cluster-plane counters that only exist between shards, three
    /// `gauges` (`prefix_hit_rate`, `queue_depth_mean`, `tpot_mean_ticks`)
    /// computed over the whole cluster, and log2-bucket latency
    /// `histograms` (overall and per waterfall stage) of every shard's
    /// completed requests together. Each section's keys are sorted;
    /// `tpot_mean_ticks` and a histogram with no samples are left out.
    pub fn metrics(&self) -> Json {
        let sum = |f: fn(&ServingReport) -> u64| self.shards.iter().map(f).sum::<u64>();
        let routed = self
            .routed
            .iter()
            .enumerate()
            .map(|(i, &n)| (format!("cluster_routed_shard_{i}"), Json::U64(n as u64)));
        let counters = [
            ("requests_submitted", sum(|s| s.submitted as u64)),
            ("requests_admitted", sum(|s| s.admitted as u64)),
            ("requests_completed", sum(|s| s.completed as u64)),
            ("rejected_never_fits", sum(|s| s.rejected_never_fits as u64)),
            ("rejected_queue_full", sum(|s| s.rejected_queue_full as u64)),
            ("rejected_invalid", sum(|s| s.rejected_invalid as u64)),
            ("preemptions", sum(|s| s.preemptions)),
            ("resumes", sum(|s| s.resumes)),
            ("swap_out_bytes", sum(|s| s.swap_out_bytes)),
            ("swap_in_bytes", sum(|s| s.swap_in_bytes)),
            ("swap_link_cycles", sum(|s| s.swap_cycles)),
            ("swap_wait_ticks", sum(|s| s.swap_wait_ticks)),
            ("requests_dead_lettered", sum(|s| s.dead_lettered() as u64)),
            ("requests_shed", sum(|s| s.shed() as u64)),
            ("request_retries", sum(ServingReport::retries)),
            ("request_timeouts", sum(ServingReport::timeouts)),
            ("ticks", sum(|s| s.ticks)),
            ("decode_ticks", sum(|s| s.decode_ticks)),
            ("generated_tokens", sum(|s| s.engine.total_tokens as u64)),
            ("prefill_tokens", sum(|s| s.engine.prefill_tokens as u64)),
            ("prefix_cache_hits", sum(|s| s.engine.prefix.hits)),
            ("prefix_saved_tokens", sum(ServingReport::prefix_saved_tokens)),
            ("prefix_trims", sum(|s| s.engine.prefix.trims)),
            ("prefix_trimmed_bytes", sum(|s| s.engine.prefix.trimmed_bytes)),
            ("prefix_evictions", sum(|s| s.engine.prefix.evictions)),
            ("prefix_expiries", sum(|s| s.engine.prefix.expiries)),
            ("prefix_spills", sum(|s| s.engine.prefix.spills)),
            ("prefix_fills", sum(|s| s.engine.prefix.fills)),
            ("prefix_spill_bytes", sum(|s| s.prefix_spill_bytes)),
            ("prefix_fill_bytes", sum(|s| s.prefix_fill_bytes)),
            ("prefix_transfer_cycles", sum(|s| s.prefix_transfer_cycles)),
            ("kv_resident_peak_bytes", self.kv_resident_peak_bytes),
            ("kv_reserved_peak_bytes", self.kv_reserved_peak_bytes()),
            ("capacity_bytes", sum(|s| s.capacity_bytes)),
            ("cluster_migrations", self.migrations),
            ("cluster_migration_bytes", self.migration_bytes),
            ("cluster_migration_link_cycles", self.migration_cycles),
            ("cluster_shard_downs", self.shard_downs),
            ("cluster_shard_ups", self.shard_ups),
            ("cluster_lost_sessions", self.lost_sessions),
            ("cluster_retries", self.retries),
            ("cluster_timeouts", self.timeouts),
            ("cluster_dead_letters", self.dead_letters),
            ("cluster_shed", self.shed),
            ("cluster_alive_shard_ticks", self.alive_shard_ticks),
            ("cluster_shard_ticks", self.shard_ticks),
        ]
        .map(|(name, n)| (name.to_string(), Json::U64(n)))
        .into_iter()
        .chain(routed);

        let records = || self.shards.iter().flat_map(|s| &s.records);
        let queue_depth = mean_queue_depth(self.shards.iter().map(|s| s.queue_depth.as_slice()));
        let gauges = [
            ("prefix_hit_rate", Some(self.prefix_hit_rate())),
            ("queue_depth_mean", Some(queue_depth)),
            ("tpot_mean_ticks", mean_tpot(records())),
        ]
        .into_iter()
        .filter_map(|(name, x)| Some((name.to_string(), Json::F64(x?))));

        let waterfalls = self.waterfalls();
        let stage = |f: fn(&StageWaterfall) -> u64| log2_histogram(waterfalls.iter().map(f));
        let histograms = [
            ("ttft_ticks", log2_histogram(records().filter_map(RequestRecord::ttft))),
            ("e2e_ticks", log2_histogram(records().filter_map(RequestRecord::e2e))),
            ("stage_queueing_ticks", stage(|w| w.queueing)),
            ("stage_prefill_ticks", stage(|w| w.prefill)),
            ("stage_decode_ticks", stage(|w| w.decode)),
            ("stage_swap_wait_ticks", stage(|w| w.swap_wait)),
            ("stage_migration_wait_ticks", stage(|w| w.migration_wait)),
        ]
        .into_iter()
        .filter_map(|(name, h)| Some((name.to_string(), h?)));

        fn sorted(fields: impl Iterator<Item = (String, Json)>) -> Json {
            Json::Obj(fields.collect::<BTreeMap<_, _>>().into_iter().collect())
        }
        Json::obj([
            ("counters", sorted(counters)),
            ("gauges", sorted(gauges)),
            ("histograms", sorted(histograms)),
        ])
    }

    /// Highest KV bytes reserved summed over the shards on any one tick
    /// (the simultaneous peak of [`ClusterReport::kv_reserved_series`]).
    fn kv_reserved_peak_bytes(&self) -> u64 {
        let ticks = self.kv_reserved_series.iter().map(Vec::len).max().unwrap_or(0);
        (0..ticks)
            .map(|t| self.kv_reserved_series.iter().filter_map(|series| series.get(t)).sum::<u64>())
            .max()
            .unwrap_or(0)
    }

    /// Cluster-wide prefix-cache hits.
    pub fn prefix_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.prefix.hits).sum()
    }

    /// Cluster-wide prefix-cache lookups.
    pub(crate) fn prefix_lookups(&self) -> u64 {
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
        let trims: u64 = self.shards.iter().map(|s| s.engine.prefix.trims).sum();
        if evictions + expiries + spills + fills + trims > 0 {
            writeln!(
                f,
                "  prefix churn           : {} trimmed, {} evicted, {} expired, {} spilled ({} B), {} filled ({} B)",
                trims,
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
