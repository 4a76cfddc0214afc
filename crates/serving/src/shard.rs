//! One serving shard: a full [`Engine`] + `AdmissionController` +
//! queue/swap machinery — one member of a [`crate::Cluster`].
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
//!    — after reclaiming idle prefix-cache bytes if needed — re-reserve
//!    their bytes and begin their swap-in transfer.
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
//!    completions release their reservations. The step is the engine's
//!    three phases ([`Engine::step`]): the cluster has the engine plan
//!    its tick, computes the planned [`StepWork`] on one of its step
//!    threads, and `commit_step` hands the work back to the engine and
//!    does the shard's accounting — on the cluster's thread, in shard
//!    order. A shard itself never leaves that thread; only its work
//!    does.
//!
//! Idle spans cost nothing to simulate: a tick that steps no session
//! while swap-ins are in flight jumps the shard's cycle counter to the
//! earliest swap-in completion, and when no shard holds work the cluster
//! fast-forwards the clock to the next arrival.

use std::collections::VecDeque;

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
pub(crate) enum WaitKind {
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

/// A request waiting for admission. Fresh arrivals queue on the shard
/// they were routed to; retried requests can land on any shard.
#[derive(Debug)]
pub(crate) struct QueuedEntry {
    /// Global arrival index: the request's trace id and its row in the
    /// cluster's record table.
    pub(crate) arrival: usize,
    /// Tick this *attempt* entered the serving plane: the original
    /// submission for a first attempt, the requeue tick for a retry.
    /// Deadlines and scheduler ordering run against this epoch; the
    /// record keeps the original submission tick for latency metrics.
    pub(crate) submitted: u64,
    pub(crate) request: Request,
    pub(crate) priority: u8,
    /// Reserved peak KV bytes (shared-prefix discounted when sound).
    pub(crate) est_bytes: u64,
    /// Undiscounted peak KV bytes — what a migration target must
    /// reserve, since extraction privatizes any shared span.
    pub(crate) full_bytes: u64,
    /// The admission pin on the prefix entry whose match discounted
    /// `est_bytes` (None when the discount was unsound or nothing
    /// matched). Held while the entry waits so churn cannot shrink the
    /// match under the discounted reservation; released after the
    /// submit takes its own seed pin, and on every queue-exit path.
    pub(crate) prefix_pin: Option<PrefixPin>,
}

/// An admitted session — in the `running` set it is prefilling/decoding,
/// in the `paused` set its KV state lives on the host until resumed, in
/// the `swapping` set its KV state is in flight back over the host link.
#[derive(Debug)]
pub(crate) struct SessionEntry {
    /// Global arrival index (see [`QueuedEntry::arrival`]).
    pub(crate) arrival: usize,
    /// This attempt's epoch tick (see [`QueuedEntry::submitted`]).
    pub(crate) submitted: u64,
    /// The original request, kept so a crash or deadline teardown can
    /// re-queue the session from its prompt.
    pub(crate) request: Request,
    pub(crate) session: Session,
    pub(crate) priority: u8,
    pub(crate) est_bytes: u64,
    pub(crate) full_bytes: u64,
    /// Preemption count (mirrors the record, for scheduler views).
    pub(crate) preemptions: u32,
    /// When the session is off the device (paused or swapping), the wait
    /// kind and the tick the wait began; folded into the record's stage
    /// accounting when the session rejoins the batch.
    pub(crate) wait_since: Option<(WaitKind, u64)>,
}

/// A session whose KV state is moving in over the host link (swap-in or
/// migration); it rejoins the batch once the shard's cycle clock reaches
/// `ready_at`.
#[derive(Debug)]
pub(crate) struct SwapInEntry {
    pub(crate) entry: SessionEntry,
    /// Engine-cycle timestamp at which the transfer completes.
    pub(crate) ready_at: u64,
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
    pub(crate) queue: VecDeque<QueuedEntry>,
    pub(crate) running: Vec<SessionEntry>,
    pub(crate) paused: Vec<SessionEntry>,
    pub(crate) swapping: Vec<SwapInEntry>,
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
            queue: VecDeque::new(),
            running: Vec::new(),
            paused: Vec::new(),
            swapping: Vec::new(),
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

    /// Sessions currently queued, prefilling/decoding, preempted, or
    /// swapping in on this shard — migrated-in sessions included.
    pub(crate) fn in_flight(&self) -> usize {
        self.queue.len() + self.running.len() + self.paused.len() + self.swapping.len()
    }

    /// Requests currently waiting in this shard's admission queue.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// KV bytes currently reserved by this shard's admission control.
    pub fn reserved_bytes(&self) -> u64 {
        self.admission.reserved_bytes()
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
            reserved_bytes: self.admission.reserved_bytes(),
            queue_depth: self.queue.len(),
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
        let prefix_pin = if request.never_evicts() { self.engine.pin_prefix(&request.prompt) } else { None };
        let shared_tokens = prefix_pin.as_ref().map_or(0, PrefixPin::matched);
        let est_bytes =
            AdmissionController::estimate_unshared_bytes(&request, shared_tokens, self.kv_bytes_per_token);
        let full_bytes = AdmissionController::estimate_bytes(&request, self.kv_bytes_per_token);
        match valid.and_then(|()| self.admission.screen(est_bytes, self.queue.len())) {
            Ok(()) => {
                self.emit(now, arrival as u64, TraceEventKind::Queued);
                self.queue.push_back(QueuedEntry {
                    arrival,
                    submitted: now,
                    request,
                    priority,
                    est_bytes,
                    full_bytes,
                    prefix_pin,
                });
                Ok(())
            }
            Err(reason) => {
                if let Some(pin) = prefix_pin {
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
        self.swap_wait_ticks += self.swapping.len() as u64;
        if stepped_cycles == 0 && !self.swapping.is_empty() {
            // Nothing decoded this tick but swap-ins are in flight:
            // fast-forward the cycle clock to the earliest completion so
            // the run cannot stall on an otherwise idle engine.
            let earliest = self.swapping.iter().map(|s| s.ready_at).min().expect("non-empty");
            self.elapsed_cycles = self.elapsed_cycles.max(earliest);
        }
        self.kv_reserved_peak = self.kv_reserved_peak.max(self.admission.reserved_bytes());
        self.queue_depth.push(self.queue.len());
    }

    /// Fail-stop: every queued request is orphaned and every admitted
    /// session is discarded — KV freed, no finished report, partial
    /// token streams lost — and the shard's admission state resets with
    /// them. Returns the displaced work (queue first, then running,
    /// paused and swapping sessions, all in entry order) for the cluster
    /// to retry or dead-letter. The engine's prefix cache, link traffic
    /// counters and elapsed cycles survive the crash: cache entries own
    /// their bytes independently of sessions, which is exactly what
    /// makes re-prefilling recovered requests cheap.
    pub(crate) fn fail(&mut self) -> Vec<LostWork> {
        let mut lost = Vec::new();
        for entry in std::mem::take(&mut self.queue) {
            lost.push(self.release_queued(entry));
        }
        let running: Vec<SessionEntry> = std::mem::take(&mut self.running);
        let paused: Vec<SessionEntry> = std::mem::take(&mut self.paused);
        let swapping: Vec<SwapInEntry> = std::mem::take(&mut self.swapping);
        for entry in running.into_iter().chain(paused).chain(swapping.into_iter().map(|s| s.entry)) {
            self.engine.discard(entry.session).expect("in-flight entry tracks the engine");
            lost.push(LostWork { arrival: entry.arrival, priority: entry.priority, request: entry.request });
        }
        self.admission.reset();
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

    /// Tears down one in-flight attempt that missed its `deadline`
    /// (searched across the queue and the running/paused/swapping sets),
    /// emitting `TimedOut` and returning the work for a retry or a dead
    /// letter. Reservations are released where they are actually held:
    /// running and swapping entries hold one, queued and paused entries
    /// do not.
    pub(crate) fn remove_timed_out(
        &mut self,
        arrival: usize,
        deadline: &'static str,
        now: u64,
    ) -> Option<LostWork> {
        let work = if let Some(e) =
            self.queue.iter().position(|e| e.arrival == arrival).and_then(|pos| self.queue.remove(pos))
        {
            self.release_queued(e)
        } else if let Some(pos) = self.running.iter().position(|e| e.arrival == arrival) {
            let e = self.running.remove(pos);
            self.engine.discard(e.session).expect("running entry tracks the engine");
            self.admission.release(e.est_bytes);
            LostWork { arrival: e.arrival, priority: e.priority, request: e.request }
        } else if let Some(pos) = self.paused.iter().position(|e| e.arrival == arrival) {
            let e = self.paused.remove(pos);
            self.engine.discard(e.session).expect("paused entry tracks the engine");
            LostWork { arrival: e.arrival, priority: e.priority, request: e.request }
        } else if let Some(pos) = self.swapping.iter().position(|e| e.entry.arrival == arrival) {
            let e = self.swapping.remove(pos).entry;
            self.engine.discard(e.session).expect("swapping entry tracks the engine");
            self.admission.release(e.est_bytes);
            LostWork { arrival: e.arrival, priority: e.priority, request: e.request }
        } else {
            return None;
        };
        self.emit(now, work.arrival as u64, TraceEventKind::TimedOut { deadline });
        Some(work)
    }

    /// Removes one queued entry by arrival id (the load-shedder's
    /// removal path; queued entries hold no reservation, but a
    /// discounted one holds a prefix pin, released here).
    pub(crate) fn remove_queued(&mut self, arrival: usize) -> Option<LostWork> {
        let pos = self.queue.iter().position(|e| e.arrival == arrival)?;
        let entry = self.queue.remove(pos)?;
        Some(self.release_queued(entry))
    }

    /// The one exit of a queued entry that leaves the shard (crash,
    /// deadline, shed): releases its admission pin on the prefix entry,
    /// if it took one, and returns its work.
    fn release_queued(&mut self, mut entry: QueuedEntry) -> LostWork {
        if let Some(pin) = entry.prefix_pin.take() {
            self.engine.unpin_prefix(pin);
        }
        LostWork { arrival: entry.arrival, priority: entry.priority, request: entry.request }
    }

    /// Re-admits swapped-in sessions whose host-link transfer has
    /// completed (its cycles have elapsed on the shard's cycle clock),
    /// oldest swap first. The session's bytes were re-reserved and the
    /// transfer charged when the swap *started*
    /// ([`Shard::start_swap_ins`]) or when the migration landed; this is
    /// where the latency finally releases the session into the batch.
    fn complete_swap_ins(&mut self, now: u64, records: &mut [RequestRecord]) {
        let mut i = 0;
        while i < self.swapping.len() {
            if self.swapping[i].ready_at <= self.elapsed_cycles {
                let SwapInEntry { mut entry, .. } = self.swapping.remove(i);
                self.engine.resume(entry.session).expect("swapping entry tracks the engine");
                if let Some((kind, from)) = entry.wait_since.take() {
                    // The off-device wait ends here: fold `[from, now)`
                    // into the record's stage accounting and emit the
                    // matching rejoin event.
                    apply_wait(&mut records[entry.arrival], kind, from, now);
                    let wait_ticks = now.saturating_sub(from);
                    let rejoin = match kind {
                        WaitKind::Swap => TraceEventKind::SwapInComplete { wait_ticks },
                        WaitKind::Migration { from: src } => {
                            TraceEventKind::MigrationLand { from_shard: src as u32, wait_ticks }
                        }
                    };
                    self.emit(now, entry.arrival as u64, rejoin);
                }
                self.running.push(entry);
            } else {
                i += 1;
            }
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
        let mut i = 0;
        while let Some(paused) = self.paused.get(i) {
            let (arrival, est_bytes) = (paused.arrival, paused.est_bytes);
            let needed = |s: &Self| est_bytes.saturating_add(s.prefix_overhead());
            if self.reclaim_prefix_until_fits(arrival, needed) {
                let entry = self.paused.remove(i);
                let bytes =
                    self.engine.session_kv_bytes(entry.session).expect("paused entry tracks the engine");
                let cycles = self.link.transfer_tagged(bytes, SwapDirection::In, TransferKind::Swap);
                self.admission.reserve(entry.est_bytes);
                self.resumes += 1;
                self.swapping.push(SwapInEntry { entry, ready_at: self.elapsed_cycles + cycles });
            } else {
                i += 1;
            }
        }
    }

    fn queued_view(entry: &QueuedEntry) -> QueuedView {
        QueuedView {
            arrival: entry.arrival,
            // Scheduler ordering runs on the attempt epoch: a retried
            // request competes from its requeue tick, not its original
            // submission (it already consumed its place in line once).
            submitted: entry.submitted,
            priority: entry.priority,
            est_bytes: entry.est_bytes,
        }
    }

    fn running_views(&self) -> Vec<RunningView> {
        self.running
            .iter()
            .map(|entry| RunningView {
                arrival: entry.arrival,
                priority: entry.priority,
                remaining_tokens: self
                    .engine
                    .session_remaining_tokens(entry.session)
                    .expect("running entry tracks the engine"),
                preemptions: entry.preemptions,
            })
            .collect()
    }

    /// Admits scheduler-ordered candidates until one does not fit (even
    /// after any preemption the policy offers).
    fn admit_from_queue(&mut self, now: u64, records: &mut [RequestRecord], homes: &[usize]) {
        while !self.queue.is_empty() {
            let views: Vec<QueuedView> = self.queue.iter().map(Self::queued_view).collect();
            let Some(pick) = self.sched.next_candidate(&views) else { break };
            let incoming = views[pick];
            // Admission must fit the reservation *and* the prefix cache's
            // own resident bytes inside capacity — including the bytes a
            // host-tier fill would promote back into device memory for
            // this prompt (otherwise a discounted accept could be
            // bankrupted by its own fill traffic).
            let needed = |s: &Self| {
                let fill_bytes = s
                    .queue
                    .get(pick)
                    .zip(s.engine.prefix_cache())
                    .map_or(0, |(e, cache)| cache.fill_bytes(&e.request.prompt));
                incoming.est_bytes.saturating_add(s.prefix_overhead()).saturating_add(fill_bytes)
            };
            // Idle prefix bytes go first, before any running session is
            // preempted for the candidate.
            self.reclaim_prefix_until_fits(incoming.arrival, needed);
            let needed = needed(self);
            while !self.admission.would_fit(needed) {
                let victims = self.running_views();
                let Some(victim) = self.sched.preemption_victim(&incoming, &victims) else { break };
                self.preempt(victim, now, records);
            }
            if !self.admission.would_fit(needed) {
                // Nothing running or swapping in will free a byte, so
                // only the pins queued requests hold can be in the way.
                if self.running.is_empty()
                    && self.swapping.is_empty()
                    && self.revoke_queued_pins(now, records)
                {
                    continue;
                }
                break;
            }
            let entry = self.queue.remove(pick).expect("pick indexes the queue");
            self.admit(entry, now, records, homes);
        }
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
        let mut revoked = false;
        for mut entry in std::mem::take(&mut self.queue) {
            if let Some(pin) = entry.prefix_pin.take() {
                self.engine.unpin_prefix(pin);
                entry.est_bytes = entry.full_bytes;
                revoked = true;
                if let (Err(reason), Some(record)) =
                    (self.admission.screen(entry.full_bytes, 0), records.get_mut(entry.arrival))
                {
                    self.reject(record, reason, now);
                    continue;
                }
            }
            self.queue.push_back(entry);
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
        let mut fits = self.admission.would_fit(needed(self));
        while !fits && self.engine.reclaim_prefix(arrival as u64) {
            fits = self.admission.would_fit(needed(self));
        }
        // Reclaiming only trims, spills and drops: no fill to serialize.
        self.charge_prefix_traffic();
        fits
    }

    /// Pauses the running session at `index` and swaps its KV state out.
    fn preempt(&mut self, index: usize, now: u64, records: &mut [RequestRecord]) {
        let mut entry = self.running.remove(index);
        let bytes = self.engine.pause(entry.session).expect("running entry tracks the engine");
        self.link.transfer_tagged(bytes, SwapDirection::Out, TransferKind::Swap);
        self.admission.release(entry.est_bytes);
        entry.preemptions += 1;
        entry.wait_since = Some((WaitKind::Swap, now));
        records[entry.arrival].preemptions += 1;
        self.preemptions += 1;
        self.emit(now, entry.arrival as u64, TraceEventKind::Preempted);
        self.emit(now, entry.arrival as u64, TraceEventKind::SwapOutStart { bytes });
        self.paused.push(entry);
    }

    /// Submits a queued request into the engine. The engine only
    /// validates, reserves KV and enqueues the session in its
    /// `Prefilling` phase; with a finite
    /// [`veda::EngineBuilder::prefill_chunk`] the prompt is consumed by
    /// subsequent on-clock ticks (instant prefill consumes it here,
    /// synchronously, as the pre-chunking stack did). The record's
    /// `session` handle is set only on the request's home shard, so a
    /// report looks it up in the engine that reports it.
    fn admit(&mut self, mut entry: QueuedEntry, now: u64, records: &mut [RequestRecord], homes: &[usize]) {
        let request = entry.request.clone();
        let arrival = entry.arrival;
        // The engine stamps this request's global arrival index onto its
        // trace events, so the request keeps one id across shards.
        self.emit(now, arrival as u64, TraceEventKind::Admitted { est_bytes: entry.est_bytes });
        self.engine.set_next_trace_id(arrival as u64);
        let session = self.engine.submit(entry.request).expect("accept() validated the request");
        self.admission.reserve(entry.est_bytes);
        // The submit took its own seed pin on the matched entry (held
        // until the session retires), so the admission pin can hand off
        // now: the submit-time match is at least the pinned match, so
        // the session's privately owned bytes fit the discounted
        // reservation.
        if let Some(pin) = entry.prefix_pin.take() {
            self.engine.unpin_prefix(pin);
        }
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
        let mut session_entry = SessionEntry {
            arrival,
            submitted: entry.submitted,
            request,
            session,
            priority: entry.priority,
            est_bytes: entry.est_bytes,
            full_bytes: entry.full_bytes,
            preemptions: 0,
            wait_since: None,
        };
        if fill_cycles > 0 {
            // Park the session until the fill's cycles elapse on the
            // shard clock — the same serialization path as a swap-in
            // (its wait is accounted as swap wait).
            assert!(self.engine.pause(session).is_some(), "a just-submitted session is always pausable");
            session_entry.wait_since = Some((WaitKind::Swap, now));
            self.swapping
                .push(SwapInEntry { entry: session_entry, ready_at: self.elapsed_cycles + fill_cycles });
        } else {
            self.running.push(session_entry);
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
        let index = self
            .running
            .iter()
            .position(|r| r.session == session)
            .expect("every stepped session has a running entry");
        let record = &mut records[self.running[index].arrival];
        record.generated_tokens += 1;
        if record.first_token.is_none() {
            record.first_token = Some(now);
        }
        if finished {
            record.finished = Some(now);
        }
        if finished {
            let entry = self.running.remove(index);
            self.admission.release(entry.est_bytes);
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
        f.debug_struct("Shard")
            .field("id", &self.id)
            .field("queued", &self.queue.len())
            .field("running", &self.running.len())
            .field("paused", &self.paused.len())
            .field("swapping", &self.swapping.len())
            .finish()
    }
}
