//! One serving shard: a full [`Engine`] + `AdmissionController` + one
//! request table — one member of a [`crate::Cluster`].
//!
//! A shard owns everything below the arrival stream: screening, the wait
//! queue, scheduler-driven admission, preemption and swap-in
//! serialization over its private [`HostLink`].
//! What it does *not* own is the virtual clock, the [`crate::Workload`]
//! and the [`RequestRecord`]s — those belong to the cluster, which steps
//! every shard on one clock through the crate-internal `accept` →
//! `begin_tick` → `commit_step` sequence and lends each call the record
//! table, so a shard writes the record of every request it hosts
//! directly, wherever that request arrived. A single-engine deployment
//! is a 1-shard cluster.
//!
//! ## One tick on a shard
//!
//! Each virtual-clock tick is aligned with one batched engine tick, and
//! the shard's part of it runs in this order:
//!
//! 1. **Arrivals** routed here this tick are screened (`accept`) —
//!    requests whose peak KV footprint can never fit are rejected
//!    immediately, as are arrivals beyond the queue-depth limit; the rest
//!    wait in the queue. A prompt with a known shared prefix (the
//!    engine's prefix cache already holds a matching entry) is screened
//!    and reserved at its *unshared* peak only — the shared span is
//!    resident once, in the cache entry — so shared-prefix traffic admits
//!    more concurrent sessions under the same capacity. The discount
//!    applies only to eviction-free requests, and the cache's own bytes
//!    are charged against admission headroom (see the
//!    [`crate::admission`] module docs for the soundness argument).
//! 2. **Swap-in completion** (`begin_tick`): preempted sessions whose
//!    host-link swap-in finished (its cycles, accumulated against the
//!    engine's per-tick cycle counts, have elapsed) rejoin the batch.
//!    Swap latency is *serialized into the clock*: a resumed session
//!    re-enters the batch at least one tick after its swap-in starts,
//!    later for large KV states or slow links.
//! 3. **Swap-in start**: preempted sessions whose reservation fits again
//!    — after reclaiming idle prefix-cache bytes if needed — begin their
//!    swap-in transfer, holding their reservation again from here on.
//! 4. **Admission**: the scheduling policy repeatedly names the next
//!    queued candidate; each is admitted if its peak reservation fits,
//!    after reclaiming idle prefix-cache bytes (never-served tails
//!    first, then whole LRU entries) and then preempting victims
//!    (swap-out) if the policy offers any. The first candidate that
//!    still does not fit blocks the queue — no backfill, so a policy's
//!    ordering is exactly what runs. Admission
//!    calls [`veda::Engine::submit`], which only validates, reserves KV
//!    and enqueues the session in its `Prefilling` phase — with a finite
//!    [`veda::EngineBuilder::prefill_chunk`] the prompt is then consumed
//!    on the clock, so TTFT and queueing percentiles measure real
//!    prefill work rather than a fictional instant prefill.
//! 5. **Step** (`commit_step`): the engine advances every decoding
//!    session one token and every prefilling session one prompt chunk;
//!    first-token and completion ticks are recorded per request, and
//!    completed requests leave the table, their reservations with them. The step is the engine's
//!    three phases ([`Engine::step`]): the cluster has the engine plan
//!    its tick, computes the planned [`StepWork`] on one of its step
//!    threads, and `commit_step` hands the work back to the engine and
//!    does the shard's accounting — on the cluster's thread, in shard
//!    order. A shard itself never leaves that thread; only its work
//!    does.
//!
//! ## The request table
//!
//! A shard holds every request in one table, and each entry's stage
//! says what it holds: `Queued` (maybe an admission pin), `Running`,
//! `SwappedOut` or `SwappingIn` (an engine session). Reservations are
//! held exactly in `Running` and `SwappingIn`, and
//! [`Shard::reserved_bytes`] sums them — no counter is kept in step. A
//! stage transition moves the entry to the table's end, so each stage
//! keeps its entry order; every exit (completion, crash, deadline, shed,
//! migration, the `max_ticks` valve) goes through one `take`. The crash
//! hand-back and the deadline scan walk the stages in that order.
//!
//! Idle spans cost nothing to simulate: a tick that steps no session
//! while swap-ins are in flight jumps the shard's cycle counter to the
//! earliest swap-in completion, and when no shard holds work the cluster
//! fast-forwards the clock to the next arrival.

use veda::{Engine, PrefixCache, PrefixPin, PrefixTransferKind, Request, Session, StepWork, TokenEvent};
use veda_mem::{HostLink, HostLinkConfig, SwapDirection, TransferKind};
use veda_telemetry::{SinkHandle, TraceEvent, TraceEventKind, Tracer};

use crate::admission::{AdmissionConfig, AdmissionController, RejectReason};
use crate::faults::LostWork;
use crate::report::{RequestRecord, ServingReport};
use crate::scheduler::{QueuedView, RunningView, SchedKind};
use crate::workload::{ArrivalKind, ServingRequest};

/// Why an admitted session spent ticks off the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitKind {
    /// Preempted and swapped out to the host.
    Swap,
    /// In flight between shards (cross-shard migration).
    Migration {
        /// The source shard it was extracted from.
        from: usize,
    },
}

/// Folds one completed off-device wait interval `[from, to)` into the
/// record's stage accounting. The interval is classified against the
/// first-token tick for the waterfall split: a wait is "before first
/// token" iff the first token had not yet been generated when the wait
/// ended (waits never straddle the first token — a session generating at
/// tick T cannot have been paused at T, so every interval lies entirely
/// on one side).
fn apply_wait(record: &mut RequestRecord, kind: WaitKind, from: u64, to: u64) {
    let ticks = to.saturating_sub(from);
    match kind {
        WaitKind::Swap => record.swap_wait_ticks += ticks,
        WaitKind::Migration { .. } => record.migration_wait_ticks += ticks,
    }
    if record.first_token.is_none_or(|f| f >= to) {
        record.wait_before_first_ticks += ticks;
    }
}

/// What a request on a shard holds, by its stage (see the
/// [module docs](self)). A reservation is held exactly in `Running` and
/// `SwappingIn`.
#[derive(Debug)]
enum Stage {
    /// Waiting for admission, with the admission pin on the prefix entry
    /// whose match discounted `est_bytes`, if any: it keeps churn from
    /// shrinking the match until the submit takes its own seed pin.
    Queued { pin: Option<PrefixPin> },
    /// Prefilling or decoding in the engine's batch.
    Running { session: Session },
    /// Preempted at tick `since`; its KV state is on the host.
    SwappedOut { session: Session, since: u64 },
    /// KV state crossing the host link (a swap-in, a host-tier prefix
    /// fill or a migration landing): rejoins the batch once the cycle
    /// clock reaches `ready_at`, ending its `wait` begun at tick `since`.
    SwappingIn { session: Session, ready_at: u64, since: u64, wait: WaitKind },
}

impl Stage {
    fn holds_reservation(&self) -> bool {
        matches!(self, Stage::Running { .. } | Stage::SwappingIn { .. })
    }

    /// The engine session of an admitted request.
    fn session(&self) -> Option<Session> {
        match *self {
            Stage::Queued { .. } => None,
            Stage::Running { session }
            | Stage::SwappedOut { session, .. }
            | Stage::SwappingIn { session, .. } => Some(session),
        }
    }

    /// The stage's place, 0 to 3, in the walks that cross stages.
    fn rank(&self) -> usize {
        match self {
            Stage::Queued { .. } => 0,
            Stage::Running { .. } => 1,
            Stage::SwappedOut { .. } => 2,
            Stage::SwappingIn { .. } => 3,
        }
    }
}

/// One request on a shard. Fresh arrivals enter on the shard they were
/// routed to; retried and migrated requests can land on any shard.
#[derive(Debug)]
struct Entry {
    /// Global arrival index: the request's trace id and its row in the
    /// cluster's record table.
    arrival: usize,
    /// Tick this *attempt* entered the serving plane: the original
    /// submission for a first attempt, the requeue tick for a retry.
    /// Deadlines and scheduler ordering run against this epoch; the
    /// record keeps the original submission tick for latency metrics.
    submitted: u64,
    /// The original request, kept so a crash or deadline teardown can
    /// re-queue an admitted session from its prompt.
    request: Request,
    priority: u8,
    /// Reserved peak KV bytes (shared-prefix discounted when sound).
    est_bytes: u64,
    /// Undiscounted peak KV bytes — what a migration target must
    /// reserve, since extraction privatizes any shared span.
    full_bytes: u64,
    /// Preemption count (mirrors the record, for scheduler views).
    preemptions: u32,
    stage: Stage,
}

/// One serving shard (see the [module docs](self)). The
/// [`crate::Cluster`] calls, per virtual tick:
/// the crate-internal `accept` for each arrival routed here, then
/// `begin_tick` (swap-in completion/start + admission), then, once the
/// cluster has planned and computed the engine's tick, `commit_step`
/// (the engine's commit + accounting).
pub struct Shard {
    pub(crate) id: usize,
    pub(crate) engine: Engine,
    pub(crate) admission: AdmissionController,
    pub(crate) sched: SchedKind,
    pub(crate) link: HostLink,
    pub(crate) kv_bytes_per_token: u64,
    /// Engine cycles elapsed so far (sum of executed tick batch cycles)
    /// — the clock swap-in completions are timed against.
    pub(crate) elapsed_cycles: u64,
    /// Every request on this shard, whatever its stage. A stage
    /// transition moves the entry to the end, so each stage's entries
    /// stay in the order in which they entered it.
    requests: Vec<Entry>,
    pub(crate) queue_depth: Vec<usize>,
    pub(crate) admitted: usize,
    pub(crate) rejected_never_fits: usize,
    pub(crate) rejected_queue_full: usize,
    pub(crate) rejected_invalid: usize,
    pub(crate) preemptions: u64,
    pub(crate) resumes: u64,
    pub(crate) swap_wait_ticks: u64,
    pub(crate) decode_ticks: u64,
    pub(crate) kv_resident_peak: u64,
    pub(crate) kv_reserved_peak: u64,
    /// Device-resident KV bytes after this tick's step: session-owned
    /// bytes plus the prefix cache's entries. The cluster sums it over
    /// its shards once per tick.
    pub(crate) kv_resident_now: u64,
    /// Observation-only trace sink shared with the engine's tracer
    /// (`None` = telemetry off, zero cost, byte-identical behavior).
    pub(crate) trace: Option<SinkHandle>,
}

impl Shard {
    /// Creates a shard `id` over an idle engine
    /// ([`crate::Cluster::try_new`] has already rejected busy ones).
    pub(crate) fn new(
        id: usize,
        engine: Engine,
        admission: AdmissionConfig,
        host_link: HostLinkConfig,
        sched: SchedKind,
    ) -> Self {
        let kv_bytes_per_token = engine.kv_bytes_per_token();
        Self {
            id,
            engine,
            admission: AdmissionController::new(admission),
            sched,
            link: HostLink::new(host_link),
            kv_bytes_per_token,
            elapsed_cycles: 0,
            requests: Vec::new(),
            queue_depth: Vec::new(),
            admitted: 0,
            rejected_never_fits: 0,
            rejected_queue_full: 0,
            rejected_invalid: 0,
            preemptions: 0,
            resumes: 0,
            swap_wait_ticks: 0,
            decode_ticks: 0,
            kv_resident_peak: 0,
            kv_reserved_peak: 0,
            kv_resident_now: 0,
            trace: None,
        }
    }

    /// Installs an observation-only trace sink on this shard *and* its
    /// engine. Shard-level events (submit/queue/admit/reject, preemption,
    /// swap and migration waits) and engine-level events (prefill chunks,
    /// tokens, finishes) then flow into one stream, stamped with this
    /// shard's id, the virtual tick, and the cycle clock.
    pub(crate) fn install_trace(&mut self, sink: SinkHandle) {
        self.engine.install_tracer(Tracer::new(sink.clone(), self.id as u32));
        self.trace = Some(sink);
    }

    /// Emit one shard-level event (no-op without a sink). The cluster
    /// also calls this to stamp submissions and fault-plane events
    /// (retries, dead letters, sheds) onto a request's home shard.
    pub(crate) fn emit(&self, now: u64, request: u64, kind: TraceEventKind) {
        if let Some(sink) = &self.trace {
            sink.record(TraceEvent {
                tick: now,
                cycles: self.elapsed_cycles,
                shard: self.id as u32,
                request,
                kind,
            });
        }
    }

    /// This shard's index within its cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Requests rejected by this shard so far.
    pub(crate) fn rejected(&self) -> usize {
        self.rejected_never_fits + self.rejected_queue_full + self.rejected_invalid
    }

    /// Requests on this shard, whatever their stage.
    pub(crate) fn in_flight(&self) -> usize {
        self.requests.len()
    }

    /// Entries whose stage satisfies `f`.
    fn count(&self, f: impl Fn(&Stage) -> bool) -> usize {
        self.requests.iter().filter(|e| f(&e.stage)).count()
    }

    /// Requests currently waiting in this shard's admission queue.
    pub(crate) fn queue_len(&self) -> usize {
        self.count(|s| matches!(s, Stage::Queued { .. }))
    }

    /// Admitted sessions on this shard, in any stage.
    pub(crate) fn sessions(&self) -> usize {
        self.count(|s| s.session().is_some())
    }

    /// KV bytes reserved on this shard: the sum of the peak estimates of
    /// the requests whose stage holds a reservation.
    pub fn reserved_bytes(&self) -> u64 {
        self.requests.iter().filter(|e| e.stage.holds_reservation()).map(|e| e.est_bytes).sum()
    }

    /// Whether reserving `bytes` more would stay within capacity.
    pub(crate) fn fits(&self, bytes: u64) -> bool {
        self.admission.would_fit(self.reserved_bytes(), bytes)
    }

    /// This shard's configured device KV capacity.
    pub fn capacity_bytes(&self) -> u64 {
        self.admission.config().capacity_bytes
    }

    /// Snapshot for routing: load, health, plus how much of `prompt`
    /// this shard's prefix cache already holds.
    pub(crate) fn view(
        &self,
        prompt: &[usize],
        health: crate::faults::ShardHealth,
    ) -> crate::router::ShardView {
        crate::router::ShardView {
            shard: self.id,
            reserved_bytes: self.reserved_bytes(),
            queue_depth: self.queue_len(),
            prefix_match_tokens: self.engine.prefix_match_len(prompt),
            health,
        }
    }

    /// Checks a request is one the engine will accept (trace workloads
    /// may carry arbitrary requests; generated mixes always pass).
    fn validate(&self, request: &Request) -> Result<(), RejectReason> {
        let vocab = self.engine.model_config().vocab_size;
        let ok = !request.prompt.is_empty()
            && request.max_new_tokens > 0
            && request.prompt.iter().all(|&t| t < vocab)
            && request.budget.validate().is_ok();
        if ok {
            Ok(())
        } else {
            Err(RejectReason::Invalid)
        }
    }

    /// HBM bytes the engine's prefix cache itself keeps resident (each
    /// entry counted once). Subtracted from admission headroom so cached
    /// prefixes are never free capacity (see `veda_serving::admission`).
    pub(crate) fn prefix_overhead(&self) -> u64 {
        self.engine.prefix_cache().map_or(0, PrefixCache::resident_bytes)
    }

    /// Screens one arrival into the queue or a rejection, stamped on its
    /// freshly created `record`. A prompt with a known shared prefix
    /// reserves only its *unshared* peak bytes — the shared span stays
    /// resident in the engine's prefix cache — provided the discount is
    /// sound for this request: the accept takes a
    /// [`veda::Engine::pin_prefix`] pin on the matched entry (held until
    /// the submit lands, making the entry immune to LRU eviction, host
    /// spill and TTL expiry — the match cannot shrink), only requests
    /// that can never evict ([`veda::Request::never_evicts`]) qualify
    /// (an eviction inside the shared span would privatize it and push
    /// the session past a discounted reservation).
    pub(crate) fn accept(&mut self, arrival: ServingRequest, record: &mut RequestRecord, now: u64) {
        let ServingRequest { request, priority } = arrival;
        let valid = self.validate(&request);
        if let Err((reason, _)) = self.screen_into_queue(record.arrival, request, priority, valid, now) {
            self.reject(record, reason, now);
        }
    }

    /// Turns the request of `record` away for `reason` (terminal).
    fn reject(&mut self, record: &mut RequestRecord, reason: RejectReason, now: u64) {
        self.emit(now, record.arrival as u64, TraceEventKind::Rejected { reason: reason.as_str() });
        record.rejected = Some(reason);
        match reason {
            RejectReason::NeverFits => self.rejected_never_fits += 1,
            RejectReason::QueueFull => self.rejected_queue_full += 1,
            RejectReason::Invalid => self.rejected_invalid += 1,
        }
    }

    /// The screening [`Shard::accept`] and [`Shard::requeue`] share: pin
    /// the prompt's cached prefix when the discount is sound, estimate the
    /// reservation, screen it after `valid` (the request's own check;
    /// `Ok` for a retry), then queue the request. On a rejection the pin
    /// is released and the request handed back with the reason.
    fn screen_into_queue(
        &mut self,
        arrival: usize,
        request: Request,
        priority: u8,
        valid: Result<(), RejectReason>,
        now: u64,
    ) -> Result<(), (RejectReason, Request)> {
        let pin = if request.never_evicts() { self.engine.pin_prefix(&request.prompt) } else { None };
        let shared_tokens = pin.as_ref().map_or(0, PrefixPin::matched);
        let est_bytes =
            AdmissionController::estimate_unshared_bytes(&request, shared_tokens, self.kv_bytes_per_token);
        let full_bytes = AdmissionController::estimate_bytes(&request, self.kv_bytes_per_token);
        match valid.and_then(|()| self.admission.screen(est_bytes, self.queue_len())) {
            Ok(()) => {
                self.emit(now, arrival as u64, TraceEventKind::Queued);
                self.requests.push(Entry {
                    arrival,
                    submitted: now,
                    request,
                    priority,
                    est_bytes,
                    full_bytes,
                    preemptions: 0,
                    stage: Stage::Queued { pin },
                });
                Ok(())
            }
            Err(reason) => {
                if let Some(pin) = pin {
                    self.engine.unpin_prefix(pin);
                }
                Err((reason, request))
            }
        }
    }

    /// The pre-step half of one tick: swap-in completions, swap-in
    /// starts, then scheduler-driven admission (steps 2–4 of the
    /// [module docs](self)). `records` is the cluster's table, indexed
    /// by arrival; `homes[arrival]` is the shard each request arrived
    /// on.
    pub(crate) fn begin_tick(&mut self, now: u64, records: &mut [RequestRecord], homes: &[usize]) {
        // Refresh the tick the engine's tracer stamps onto its events
        // (prefill chunks, tokens, finishes) before any engine call.
        self.engine.set_trace_now(now);
        // TTL expiry runs first so this tick's swap-ins and admissions
        // see post-expiry cache contents (and post-expiry overhead).
        self.engine.advance_prefix_clock(now);
        self.complete_swap_ins(now, records);
        self.start_swap_ins();
        self.admit_from_queue(now, records, homes);
    }

    /// The step half of one tick, after the cluster has planned this
    /// shard's engine tick (`None` when no session was active) and
    /// computed it: the engine commits `work`, then event observation and
    /// cycle/peak/queue-depth accounting — on the cluster's thread.
    pub(crate) fn commit_step(&mut self, work: Option<StepWork>, now: u64, records: &mut [RequestRecord]) {
        let mut stepped_cycles = 0;
        self.kv_resident_now = self.prefix_overhead();
        if let Some(work) = work {
            let tick = self.engine.commit_step(work);
            self.decode_ticks += 1;
            stepped_cycles = tick.batch_cycles;
            // Device-resident KV = session-owned bytes plus the prefix
            // cache's entries (each counted once).
            self.kv_resident_now = tick.kv_bytes_resident + self.prefix_overhead();
            self.kv_resident_peak = self.kv_resident_peak.max(self.kv_resident_now);
            for event in &tick.events {
                self.observe(event, now, records);
            }
            // A chunked-prefill harvest may have inserted a new entry
            // under byte pressure, evicting/spilling cold ones; bill the
            // spill traffic now (harvests never generate fills, so there
            // is no latency to serialize here).
            self.charge_prefix_traffic();
        }
        self.elapsed_cycles += stepped_cycles;
        let swapping_in = self.requests.iter().filter_map(|e| match e.stage {
            Stage::SwappingIn { ready_at, .. } => Some(ready_at),
            _ => None,
        });
        self.swap_wait_ticks += swapping_in.clone().count() as u64;
        if stepped_cycles == 0 {
            // Nothing decoded this tick but swap-ins may be in flight:
            // fast-forward the cycle clock to the earliest completion so
            // the run cannot stall on an otherwise idle engine.
            if let Some(earliest) = swapping_in.min() {
                self.elapsed_cycles = self.elapsed_cycles.max(earliest);
            }
        }
        self.kv_reserved_peak = self.kv_reserved_peak.max(self.reserved_bytes());
        self.queue_depth.push(self.queue_len());
        debug_assert!(
            self.engine.active_sessions() == self.count(|s| matches!(s, Stage::Running { .. }))
                && self.engine.paused_sessions()
                    == self.count(|s| matches!(s, Stage::SwappedOut { .. } | Stage::SwappingIn { .. }))
                && self.reserved_bytes() <= self.capacity_bytes(),
            "shard {}'s request table disagrees with its engine or over-reserves",
            self.id
        );
    }

    /// The first entry at or after index `from` for which `f` returns a
    /// value, with its index.
    fn next_from<T>(&self, from: usize, f: impl Fn(&Entry) -> Option<T>) -> Option<(usize, T)> {
        self.requests.iter().enumerate().skip(from).find_map(|(i, e)| Some((i, f(e)?)))
    }

    /// The same in stage order — every queued entry, then every running,
    /// swapped-out and swapping-in one, each stage in table order.
    fn first_in_stage_order<T>(&self, f: impl Fn(&Entry) -> Option<T>) -> Option<(usize, T)> {
        (0..4).find_map(|rank| self.next_from(0, |e| if e.stage.rank() == rank { f(e) } else { None }))
    }

    /// Moves the entry at `index` into `stage` at the table's end and
    /// returns the stage it left.
    fn enter(&mut self, index: usize, stage: Stage) -> Stage {
        let mut entry = self.requests.remove(index);
        let left = std::mem::replace(&mut entry.stage, stage);
        self.requests.push(entry);
        left
    }

    /// Removes the entry at `index`, the one exit from the table: its
    /// reservation leaves with it and a queued entry's pin is released.
    /// The caller settles an admitted entry's session: retired already
    /// (completion), discarded ([`Shard::abandon`]) or extracted
    /// (migration).
    fn take(&mut self, index: usize) -> Entry {
        let mut entry = self.requests.remove(index);
        if let Stage::Queued { pin } = &mut entry.stage {
            if let Some(pin) = pin.take() {
                self.engine.unpin_prefix(pin);
            }
        }
        entry
    }

    /// Takes the entry at `index` off the shard for good — crash,
    /// deadline, shed or the `max_ticks` valve: an admitted session is
    /// discarded (KV freed, no finished report, partial token stream
    /// lost). Returns the work for a retry or a dead letter.
    fn abandon(&mut self, index: usize) -> LostWork {
        let entry = self.take(index);
        if let Some(session) = entry.stage.session() {
            self.engine.discard(session).expect("an admitted entry tracks the engine");
        }
        LostWork { arrival: entry.arrival, priority: entry.priority, request: entry.request }
    }

    /// Fail-stop: every queued request is orphaned and every admitted
    /// session is discarded — KV freed, no finished report, partial
    /// token streams lost — and the shard's reservations leave with
    /// them. Returns the displaced work in stage order (queued, then
    /// running, swapped-out and swapping-in sessions, each stage in the
    /// order it was entered) for the cluster to retry or dead-letter.
    /// The engine's prefix cache, link traffic counters and elapsed
    /// cycles survive the crash: cache entries own their bytes
    /// independently of sessions, which is exactly what makes
    /// re-prefilling recovered requests cheap.
    pub(crate) fn fail(&mut self) -> Vec<LostWork> {
        let mut lost = Vec::with_capacity(self.requests.len());
        while let Some((index, ())) = self.first_in_stage_order(|_| Some(())) {
            lost.push(self.abandon(index));
        }
        lost
    }

    /// Queues a retried request on this shard (the fault-plane analogue
    /// of [`Shard::accept`]: the record already exists, so only
    /// screening and queueing happen here). On screening failure the
    /// work is handed back for another retry or a dead letter.
    pub(crate) fn requeue(&mut self, work: LostWork, now: u64) -> Result<(), (RejectReason, LostWork)> {
        let LostWork { arrival, priority, request } = work;
        self.screen_into_queue(arrival, request, priority, Ok(()), now)
            .map_err(|(reason, request)| (reason, LostWork { arrival, priority, request }))
    }

    /// Tears down the first attempt, in stage order, that has missed its
    /// TTFT or e2e deadline (`ttft`/`e2e` ticks after its attempt epoch),
    /// emitting `TimedOut` and returning the work for a retry or a dead
    /// letter. An attempt past both deadlines is one timeout, labeled
    /// with the stricter e2e violation.
    pub(crate) fn take_timed_out(
        &mut self,
        records: &[RequestRecord],
        ttft: Option<u64>,
        e2e: Option<u64>,
        now: u64,
    ) -> Option<LostWork> {
        let (index, deadline) = self.first_in_stage_order(|e| {
            let record = records.get(e.arrival)?;
            if e2e.is_some_and(|d| now >= e.submitted + d) && record.finished.is_none() {
                Some("e2e")
            } else if ttft.is_some_and(|d| now >= e.submitted + d) && record.first_token.is_none() {
                Some("ttft")
            } else {
                None
            }
        })?;
        let work = self.abandon(index);
        self.emit(now, work.arrival as u64, TraceEventKind::TimedOut { deadline });
        Some(work)
    }

    /// The load-shedder's pick on this shard: the queued request of the
    /// lowest priority tier, newest arrival first within it.
    pub(crate) fn shed_candidate(&self) -> Option<(u8, std::cmp::Reverse<usize>)> {
        self.requests
            .iter()
            .filter(|e| matches!(e.stage, Stage::Queued { .. }))
            .map(|e| (e.priority, std::cmp::Reverse(e.arrival)))
            .min()
    }

    /// Removes one queued entry by arrival id (the load-shedder's
    /// removal path; its admission pin, if any, is released).
    pub(crate) fn remove_queued(&mut self, arrival: usize) -> Option<LostWork> {
        let index = self
            .requests
            .iter()
            .position(|e| e.arrival == arrival && matches!(e.stage, Stage::Queued { .. }))?;
        Some(self.abandon(index))
    }

    /// Index of the session a migration would move off this shard: the
    /// largest running one (it frees the most source bytes per
    /// transfer), ties to the oldest arrival.
    fn migration_victim(&self) -> Option<usize> {
        self.requests
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.stage, Stage::Running { .. }))
            .max_by_key(|(_, e)| (e.full_bytes, std::cmp::Reverse(e.arrival)))
            .map(|(i, _)| i)
    }

    /// The bytes a target must reserve to land this shard's migration
    /// victim — its full, undiscounted peak — or `None` with nothing
    /// running.
    pub(crate) fn migration_bytes(&self) -> Option<u64> {
        self.requests.get(self.migration_victim()?).map(|e| e.full_bytes)
    }

    /// Moves this shard's migration victim to `target`: pauses and
    /// extracts it (privatizing any shared-prefix span, so the payload is
    /// the session's complete state), pays the transfer on both host
    /// links, and parks it on `target` swapping in until the transfer's
    /// cycles elapse, reserving its full payload there. Returns the
    /// payload bytes and the cycles of both transfers.
    pub(crate) fn migrate_to(&mut self, target: &mut Shard, now: u64) -> Option<(u64, u64)> {
        let index = self.migration_victim()?;
        let session = self.requests.get(index)?.stage.session()?;
        self.engine.pause(session)?;
        let state = self.engine.extract(session)?;
        let entry = self.take(index);
        let bytes = state.kv_bytes();
        self.emit(
            now,
            entry.arrival as u64,
            TraceEventKind::MigrationStart { to_shard: target.id as u32, bytes },
        );
        let out_cycles = self.link.transfer_tagged(bytes, SwapDirection::Out, TransferKind::Migration);
        let in_cycles = target.link.transfer_tagged(bytes, SwapDirection::In, TransferKind::Migration);
        let session = target.engine.adopt(state).expect("cluster shards share one model geometry");
        let (ready_at, wait) = (target.elapsed_cycles + in_cycles, WaitKind::Migration { from: self.id });
        target.requests.push(Entry {
            est_bytes: entry.full_bytes,
            stage: Stage::SwappingIn { session, ready_at, since: now, wait },
            ..entry
        });
        Some((bytes, out_cycles + in_cycles))
    }

    /// Re-admits swapped-in sessions whose host-link transfer has
    /// completed (its cycles have elapsed on the shard's cycle clock),
    /// oldest swap first. The session's bytes were reserved and the
    /// transfer charged when the swap *started*
    /// ([`Shard::start_swap_ins`]) or when the migration landed; this is
    /// where the latency finally releases the session into the batch.
    fn complete_swap_ins(&mut self, now: u64, records: &mut [RequestRecord]) {
        let elapsed = self.elapsed_cycles;
        while let Some((i, (arrival, session, since, wait))) = self.next_from(0, |e| match e.stage {
            Stage::SwappingIn { session, ready_at, since, wait } if ready_at <= elapsed => {
                Some((e.arrival, session, since, wait))
            }
            _ => None,
        }) {
            self.engine.resume(session).expect("a swapping-in entry tracks the engine");
            // The off-device wait ends here: fold `[since, now)` into the
            // record's stage accounting and emit the matching rejoin
            // event.
            apply_wait(&mut records[arrival], wait, since, now);
            let wait_ticks = now.saturating_sub(since);
            let rejoin = match wait {
                WaitKind::Swap => TraceEventKind::SwapInComplete { wait_ticks },
                WaitKind::Migration { from } => {
                    TraceEventKind::MigrationLand { from_shard: from as u32, wait_ticks }
                }
            };
            self.emit(now, arrival as u64, rejoin);
            self.enter(i, Stage::Running { session });
        }
    }

    /// Starts swapping preempted sessions back in while their
    /// reservations fit, oldest preemption first, reclaiming idle
    /// prefix-cache bytes for each one that does not. The reservation is
    /// taken and the host-link transfer charged immediately (the space
    /// must be held for the DMA), but the session only rejoins the batch
    /// once the transfer's cycles have elapsed — swap latency is
    /// serialized into the clock, not instantaneous.
    fn start_swap_ins(&mut self) {
        let mut from = 0;
        while let Some((i, (arrival, est_bytes, session, since))) = self.next_from(from, |e| match e.stage {
            Stage::SwappedOut { session, since } => Some((e.arrival, e.est_bytes, session, since)),
            _ => None,
        }) {
            from = i + 1;
            if self.reclaim_prefix_until_fits(arrival, |s| est_bytes.saturating_add(s.prefix_overhead())) {
                let bytes =
                    self.engine.session_kv_bytes(session).expect("a swapped-out entry tracks the engine");
                let cycles = self.link.transfer_tagged(bytes, SwapDirection::In, TransferKind::Swap);
                self.resumes += 1;
                let ready_at = self.elapsed_cycles + cycles;
                self.enter(i, Stage::SwappingIn { session, ready_at, since, wait: WaitKind::Swap });
                from = i;
            }
        }
    }

    /// Admits scheduler-ordered candidates until one does not fit (even
    /// after any preemption the policy offers).
    fn admit_from_queue(&mut self, now: u64, records: &mut [RequestRecord], homes: &[usize]) {
        loop {
            let views: Vec<QueuedView> = self
                .requests
                .iter()
                .filter(|e| matches!(e.stage, Stage::Queued { .. }))
                .map(|e| QueuedView {
                    arrival: e.arrival,
                    // Scheduler ordering runs on the attempt epoch: a
                    // retried request competes from its requeue tick, not
                    // its original submission (it already consumed its
                    // place in line once).
                    submitted: e.submitted,
                    priority: e.priority,
                    est_bytes: e.est_bytes,
                })
                .collect();
            let Some(&incoming) = self.sched.next_candidate(&views).and_then(|pick| views.get(pick)) else {
                break;
            };
            let candidate = |s: &Self| s.requests.iter().position(|e| e.arrival == incoming.arrival);
            // Admission must fit the reservation *and* the prefix cache's
            // own resident bytes inside capacity — including the bytes a
            // host-tier fill would promote back into device memory for
            // this prompt (otherwise a discounted accept could be
            // bankrupted by its own fill traffic).
            let needed = |s: &Self| {
                let fill_bytes = candidate(s)
                    .and_then(|i| s.requests.get(i))
                    .zip(s.engine.prefix_cache())
                    .map_or(0, |(e, cache)| cache.fill_bytes(&e.request.prompt));
                incoming.est_bytes.saturating_add(s.prefix_overhead()).saturating_add(fill_bytes)
            };
            // Idle prefix bytes go first, before any running session is
            // preempted for the candidate.
            self.reclaim_prefix_until_fits(incoming.arrival, needed);
            let needed = needed(self);
            while !self.fits(needed) {
                let victims = self.running_views();
                let Some(victim) =
                    self.sched.preemption_victim(&incoming, &victims).and_then(|i| victims.get(i))
                else {
                    break;
                };
                self.preempt(victim.arrival, now, records);
            }
            if !self.fits(needed) {
                // Nothing running or swapping in will free a byte, so
                // only the pins queued requests hold can be in the way.
                if self.count(Stage::holds_reservation) == 0 && self.revoke_queued_pins(now, records) {
                    continue;
                }
                break;
            }
            let Some(index) = candidate(self) else { break };
            self.admit(index, now, records, homes);
        }
    }

    fn running_views(&self) -> Vec<RunningView> {
        self.requests
            .iter()
            .filter_map(|e| match e.stage {
                Stage::Running { session } => Some(RunningView {
                    arrival: e.arrival,
                    priority: e.priority,
                    remaining_tokens: self
                        .engine
                        .session_remaining_tokens(session)
                        .expect("a running entry tracks the engine"),
                    preemptions: e.preemptions,
                }),
                _ => None,
            })
            .collect()
    }

    /// Releases the admission pin of every queued request that holds
    /// one, returning its reservation estimate to its full peak; a
    /// request whose full peak exceeds capacity is rejected as
    /// [`RejectReason::NeverFits`], since only the share let it in.
    /// Admission calls this when its candidate does not fit a shard on
    /// which nothing runs or swaps in: pins held by waiting requests can
    /// then keep the candidate out for good, as no completion will ever
    /// free their bytes. Returns whether any pin was released.
    fn revoke_queued_pins(&mut self, now: u64, records: &mut [RequestRecord]) -> bool {
        let (mut revoked, mut from) = (false, 0);
        while let Some((i, pin)) = self.next_from(from, |e| match e.stage {
            Stage::Queued { pin } => pin,
            _ => None,
        }) {
            (revoked, from) = (true, i + 1);
            self.engine.unpin_prefix(pin);
            let Some(entry) = self.requests.get_mut(i) else { break };
            entry.stage = Stage::Queued { pin: None };
            entry.est_bytes = entry.full_bytes;
            if let (Err(reason), Some(record)) =
                (self.admission.screen(entry.full_bytes, 0), records.get_mut(entry.arrival))
            {
                self.reject(record, reason, now);
                self.take(i);
                from = i;
            }
        }
        revoked
    }

    /// Reclaims idle prefix-cache bytes ([`Engine::reclaim_prefix`]:
    /// never-served tails first, then whole LRU entries) until
    /// `needed(self)` fits the admission headroom or only pinned entries
    /// are left, and bills the spills to the host link. `needed` is
    /// recomputed after every step, since both the cache's resident
    /// bytes and a queued prompt's fill bytes move with it. Returns
    /// whether it fits.
    fn reclaim_prefix_until_fits(&mut self, arrival: usize, needed: impl Fn(&Self) -> u64) -> bool {
        let mut fits = self.fits(needed(self));
        while !fits && self.engine.reclaim_prefix(arrival as u64) {
            fits = self.fits(needed(self));
        }
        // Reclaiming only trims, spills and drops: no fill to serialize.
        self.charge_prefix_traffic();
        fits
    }

    /// Pauses the running session of request `arrival` and swaps its KV
    /// state out.
    fn preempt(&mut self, arrival: usize, now: u64, records: &mut [RequestRecord]) {
        let Some((index, entry)) = self.requests.iter_mut().enumerate().find(|(_, e)| e.arrival == arrival)
        else {
            return;
        };
        let Stage::Running { session } = entry.stage else { return };
        entry.preemptions += 1;
        let bytes = self.engine.pause(session).expect("a running entry tracks the engine");
        self.link.transfer_tagged(bytes, SwapDirection::Out, TransferKind::Swap);
        self.enter(index, Stage::SwappedOut { session, since: now });
        records[arrival].preemptions += 1;
        self.preemptions += 1;
        self.emit(now, arrival as u64, TraceEventKind::Preempted);
        self.emit(now, arrival as u64, TraceEventKind::SwapOutStart { bytes });
    }

    /// Submits the queued request at `index` into the engine. The engine
    /// only validates, reserves KV and enqueues the session in its
    /// `Prefilling` phase; with a finite
    /// [`veda::EngineBuilder::prefill_chunk`] the prompt is consumed by
    /// subsequent on-clock ticks (instant prefill consumes it here,
    /// synchronously, as the pre-chunking stack did). The record's
    /// `session` handle is set only on the request's home shard, so a
    /// report looks it up in the engine that reports it.
    fn admit(&mut self, index: usize, now: u64, records: &mut [RequestRecord], homes: &[usize]) {
        let Some(entry) = self.requests.get(index) else { return };
        let (arrival, est_bytes, request) = (entry.arrival, entry.est_bytes, entry.request.clone());
        // The engine stamps this request's global arrival index onto its
        // trace events, so the request keeps one id across shards.
        self.emit(now, arrival as u64, TraceEventKind::Admitted { est_bytes });
        self.engine.set_next_trace_id(arrival as u64);
        let session = self.engine.submit(request).expect("accept() validated the request");
        // A host-tier hit promoted its entry during submit; the fill
        // bytes must cross the host link before the session's shared
        // span is device-resident, so the session waits out the
        // transfer like a swap-in instead of decoding instantly.
        let fill_cycles = self.charge_prefix_traffic();
        self.admitted += 1;
        let record = &mut records[arrival];
        record.admitted = Some(now);
        if homes[arrival] == self.id {
            record.session = Some(session);
        }
        if let Some(lost) = record.lost_at.take() {
            let recovery_ticks = now.saturating_sub(lost);
            record.recovery_wait_ticks += recovery_ticks;
            self.emit(now, arrival as u64, TraceEventKind::Recovered { recovery_ticks });
        }
        debug_assert!(self.engine.is_active(session), "validated requests have max_new_tokens >= 1");
        let stage = if fill_cycles > 0 {
            // Park the session until the fill's cycles elapse on the
            // shard clock — the same serialization path as a swap-in
            // (its wait is accounted as swap wait).
            assert!(self.engine.pause(session).is_some(), "a just-submitted session is always pausable");
            let ready_at = self.elapsed_cycles + fill_cycles;
            Stage::SwappingIn { session, ready_at, since: now, wait: WaitKind::Swap }
        } else {
            Stage::Running { session }
        };
        // The submit took its own seed pin on the matched entry (held
        // until the session retires), so the admission pin can hand off
        // now: the submit-time match is at least the pinned match, so
        // the session's privately owned bytes fit the discounted
        // reservation.
        if let Stage::Queued { pin: Some(pin) } = self.enter(index, stage) {
            self.engine.unpin_prefix(pin);
        }
    }

    /// Drains the engine's prefix spill/fill outbox onto this shard's
    /// host link. Spill traffic leaves the device asynchronously (no
    /// latency on any session's critical path); fill traffic is
    /// returned as cycles for the caller to serialize onto the clock.
    fn charge_prefix_traffic(&mut self) -> u64 {
        let mut fill_cycles = 0;
        for transfer in self.engine.take_prefix_transfers() {
            match transfer.kind {
                PrefixTransferKind::Spill => {
                    self.link.transfer_tagged(transfer.bytes, SwapDirection::Out, TransferKind::PrefixSpill);
                }
                PrefixTransferKind::Fill => {
                    fill_cycles += self.link.transfer_tagged(
                        transfer.bytes,
                        SwapDirection::In,
                        TransferKind::PrefixFill,
                    );
                }
            }
        }
        fill_cycles
    }

    /// Applies one session's tick event to its record. Prefill progress
    /// only moves the clock (the record's first-token tick stays unset —
    /// that is exactly what makes TTFT real under chunked prefill);
    /// generated tokens update the record, and completions release their
    /// reservation.
    fn observe(&mut self, event: &TokenEvent, now: u64, records: &mut [RequestRecord]) {
        let TokenEvent::Generated { session, finished, .. } = *event else {
            return;
        };
        let (index, arrival) = self
            .next_from(0, |e| {
                matches!(e.stage, Stage::Running { session: s } if s == session).then_some(e.arrival)
            })
            .expect("every stepped session has a running entry");
        let record = &mut records[arrival];
        record.generated_tokens += 1;
        if record.first_token.is_none() {
            record.first_token = Some(now);
        }
        if finished {
            record.finished = Some(now);
            self.take(index);
        }
    }

    /// Drains the engine and assembles this shard's [`ServingReport`]
    /// over `records`, the requests that arrived here, in arrival order.
    pub(crate) fn into_report(
        mut self,
        arrival: ArrivalKind,
        ticks: u64,
        records: Vec<RequestRecord>,
    ) -> ServingReport {
        // Safety valve: a run truncated at `max_ticks` drops its unfinished
        // work as a crash would — queued requests release their admission
        // pins, and sessions still on the engine are discarded rather than
        // decoded to the end. Their records stay unfinished, so they add no
        // token, cycle or `Finished` trace event to the report.
        self.fail();
        let engine = self.engine.drain_report();
        ServingReport {
            shard_id: self.id,
            arrival,
            sched: self.sched,
            ticks,
            decode_ticks: self.decode_ticks,
            submitted: records.len(),
            admitted: self.admitted,
            completed: records.iter().filter(|r| r.finished.is_some()).count(),
            rejected_never_fits: self.rejected_never_fits,
            rejected_queue_full: self.rejected_queue_full,
            rejected_invalid: self.rejected_invalid,
            preemptions: self.preemptions,
            resumes: self.resumes,
            swap_out_bytes: self.link.tagged_bytes(TransferKind::Swap, SwapDirection::Out),
            swap_in_bytes: self.link.tagged_bytes(TransferKind::Swap, SwapDirection::In),
            swap_cycles: self.link.kind_total_cycles(TransferKind::Swap),
            prefix_spill_bytes: self.link.tagged_bytes(TransferKind::PrefixSpill, SwapDirection::Out),
            prefix_fill_bytes: self.link.tagged_bytes(TransferKind::PrefixFill, SwapDirection::In),
            prefix_transfer_cycles: self.link.kind_total_cycles(TransferKind::PrefixSpill)
                + self.link.kind_total_cycles(TransferKind::PrefixFill),
            swap_wait_ticks: self.swap_wait_ticks,
            queue_depth: self.queue_depth,
            kv_resident_peak_bytes: self.kv_resident_peak,
            kv_reserved_peak_bytes: self.kv_reserved_peak,
            capacity_bytes: self.admission.config().capacity_bytes,
            records,
            engine,
        }
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard").field("id", &self.id).field("requests", &self.requests.len()).finish()
    }
}
