//! Per-request timing records and aggregate serving metrics.

use veda::{EngineReport, Session};
use veda_telemetry::{summarize, MetricsRegistry, StageWaterfall};

use crate::admission::RejectReason;
use crate::scheduler::SchedKind;
use crate::workload::ArrivalKind;

/// Lifecycle timestamps (virtual-clock ticks) and counters of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Global arrival index (submission order).
    pub arrival: usize,
    /// Engine session handle, once admitted.
    pub session: Option<Session>,
    /// Priority tier.
    pub priority: u8,
    /// Tick the request arrived at the server.
    pub submitted: u64,
    /// Tick the request was admitted into the engine (prefill ran).
    pub admitted: Option<u64>,
    /// Tick the first generated token was emitted.
    pub first_token: Option<u64>,
    /// Tick the last token was emitted.
    pub finished: Option<u64>,
    /// Tokens actually generated.
    pub generated_tokens: usize,
    /// Times the session was preempted (paused + swapped out).
    pub preemptions: u32,
    /// Ticks spent swapped out to the host across all preemptions
    /// (each wait counted from the pause to the rejoin tick).
    pub swap_wait_ticks: u64,
    /// Ticks spent in flight between shards across all migrations.
    pub migration_wait_ticks: u64,
    /// Of all off-device wait ticks, those that elapsed before the first
    /// generated token (used to split waits out of the prefill vs decode
    /// stages in [`RequestRecord::waterfall`]).
    pub wait_before_first_ticks: u64,
    /// Why the request was rejected, if it was.
    pub rejected: Option<RejectReason>,
    /// Retries consumed so far (shard-crash losses and deadline
    /// teardowns both count against [`crate::RetryPolicy::max_attempts`]).
    pub retries: u32,
    /// Deadline violations observed across all attempts.
    pub timeouts: u32,
    /// Tick the request was shed by the load-shedder (terminal).
    pub shed: Option<u64>,
    /// Tick the request was dead-lettered after exhausting its retry
    /// budget (terminal).
    pub dead_letter: Option<u64>,
    /// Tick the current loss began (shard crash or deadline teardown);
    /// cleared when the retried request is re-admitted.
    pub lost_at: Option<u64>,
    /// Cumulative ticks spent between losses and the re-admissions that
    /// recovered them (the recovery-latency metric).
    pub recovery_wait_ticks: u64,
}

impl RequestRecord {
    /// Resets the run-state of a lost attempt so the record is ready for
    /// a retry: placement, admission, token progress and wait accounting
    /// all restart from scratch (a retry re-prefills from the prompt),
    /// while the identity fields, the original `submitted` tick, and the
    /// cumulative fault counters survive. Prior attempts therefore fold
    /// into the queueing stage of the eventual waterfall — exactly where
    /// time waiting to be served belongs.
    pub(crate) fn reset_attempt(&mut self, now: u64) {
        self.session = None;
        self.admitted = None;
        self.first_token = None;
        self.generated_tokens = 0;
        self.swap_wait_ticks = 0;
        self.migration_wait_ticks = 0;
        self.wait_before_first_ticks = 0;
        self.lost_at = Some(now);
    }

    /// Whether the request reached a terminal state: finished, rejected,
    /// shed, or dead-lettered.
    pub fn is_terminal(&self) -> bool {
        self.finished.is_some()
            || self.rejected.is_some()
            || self.shed.is_some()
            || self.dead_letter.is_some()
    }

    /// Time to first token in ticks (`first_token − submitted`).
    pub fn ttft(&self) -> Option<u64> {
        Some(self.first_token? - self.submitted)
    }

    /// End-to-end latency in ticks (`finished − submitted`).
    pub fn e2e(&self) -> Option<u64> {
        Some(self.finished? - self.submitted)
    }

    /// Mean time per output token after the first, in ticks.
    pub fn tpot(&self) -> Option<f64> {
        let span = self.finished? - self.first_token?;
        if self.generated_tokens > 1 {
            Some(span as f64 / (self.generated_tokens - 1) as f64)
        } else {
            None
        }
    }

    /// The completed request's latency waterfall: five disjoint stages
    /// that sum exactly to [`RequestRecord::e2e`]. `None` until the
    /// request finishes. Off-device waits are subtracted from whichever
    /// of prefill / decode they interrupted ("prefill" and "decode" are
    /// on-device time), using the before/after-first-token split the
    /// shard accounted at each rejoin.
    pub fn waterfall(&self) -> Option<StageWaterfall> {
        let admitted = self.admitted?;
        let first = self.first_token?;
        let finished = self.finished?;
        let before = self.wait_before_first_ticks;
        let after = (self.swap_wait_ticks + self.migration_wait_ticks).saturating_sub(before);
        let w = StageWaterfall {
            queueing: admitted - self.submitted,
            prefill: (first - admitted).saturating_sub(before),
            decode: (finished - first).saturating_sub(after),
            swap_wait: self.swap_wait_ticks,
            migration_wait: self.migration_wait_ticks,
        };
        debug_assert_eq!(
            w.e2e(),
            finished - self.submitted,
            "stage durations must sum to e2e (arrival {})",
            self.arrival
        );
        Some(w)
    }
}

/// Latency summary of one metric: p50/p95/p99/max over completed requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Median in ticks.
    pub p50: u64,
    /// 95th percentile in ticks.
    pub p95: u64,
    /// 99th percentile in ticks.
    pub p99: u64,
    /// Maximum in ticks.
    pub max: u64,
}

impl LatencySummary {
    /// Summarizes a set of latencies; `None` when the set is empty.
    /// Routes through [`veda_telemetry::summarize`] — the workspace's
    /// single nearest-rank percentile implementation, total by
    /// construction (no caller can panic on a zero-completion run).
    pub fn of(values: Vec<u64>) -> Option<Self> {
        let s = summarize(values)?;
        Some(Self { p50: s.p50, p95: s.p95, p99: s.p99, max: s.max })
    }
}

/// Per-stage latency summaries over all completed requests' waterfalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSummaries {
    /// Queueing stage (submission → admission).
    pub queueing: LatencySummary,
    /// On-device prefill stage (admission → first token, waits removed).
    pub prefill: LatencySummary,
    /// On-device decode stage (first token → finish, waits removed).
    pub decode: LatencySummary,
    /// Swap-wait stage (ticks off-device across preemptions).
    pub swap_wait: LatencySummary,
    /// Migration-wait stage (ticks in flight between shards).
    pub migration_wait: LatencySummary,
}

impl StageSummaries {
    /// Summarizes each stage column of `waterfalls`; `None` when empty.
    pub fn of(waterfalls: &[StageWaterfall]) -> Option<Self> {
        if waterfalls.is_empty() {
            return None;
        }
        let col = |pick: fn(&StageWaterfall) -> u64| {
            LatencySummary::of(waterfalls.iter().map(pick).collect()).expect("non-empty")
        };
        Some(Self {
            queueing: col(|w| w.queueing),
            prefill: col(|w| w.prefill),
            decode: col(|w| w.decode),
            swap_wait: col(|w| w.swap_wait),
            migration_wait: col(|w| w.migration_wait),
        })
    }
}

/// Aggregate result of one [`crate::Server`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Which shard produced this report: `0` for a standalone
    /// [`crate::Server`], the shard's index within a [`crate::Cluster`]
    /// otherwise — so multi-shard output (queue-depth series, per-shard
    /// latency lines) stays attributable after reports are collected.
    pub shard_id: usize,
    /// The arrival process that drove the run.
    pub arrival: ArrivalKind,
    /// The scheduling policy.
    pub sched: SchedKind,
    /// Virtual-clock ticks the run spanned (including idle fast-forwards).
    pub ticks: u64,
    /// Decode ticks the engine executed.
    pub decode_ticks: u64,
    /// Requests that arrived.
    pub submitted: usize,
    /// Requests admitted into the engine.
    pub admitted: usize,
    /// Requests that ran to completion.
    pub completed: usize,
    /// Requests rejected because they can never fit.
    pub rejected_never_fits: usize,
    /// Requests rejected because the queue was full.
    pub rejected_queue_full: usize,
    /// Requests rejected as malformed (trace workloads only).
    pub rejected_invalid: usize,
    /// Preemptions performed (KV swapped out over the host link).
    pub preemptions: u64,
    /// Paused sessions resumed (KV swapped back in).
    pub resumes: u64,
    /// Bytes swapped device → host.
    pub swap_out_bytes: u64,
    /// Bytes swapped host → device.
    pub swap_in_bytes: u64,
    /// Host-link cycles spent on swap traffic.
    pub swap_cycles: u64,
    /// Bytes the prefix cache spilled device → host under byte pressure
    /// (zero unless [`veda::PrefixCacheConfig::spill`] is on).
    pub prefix_spill_bytes: u64,
    /// Bytes promoted host → device when spilled prefix entries were hit
    /// again; each fill's latency was serialized onto the hitting
    /// session's clock like a swap-in.
    pub prefix_fill_bytes: u64,
    /// Host-link cycles spent on prefix spill + fill traffic.
    pub prefix_transfer_cycles: u64,
    /// Ticks sessions spent waiting for an in-flight swap-in transfer to
    /// complete (swap latency serialized into the clock): each tick, each
    /// session parked in the swap-in phase contributes one.
    pub swap_wait_ticks: u64,
    /// Budget-shrink interventions (sessions whose caps were tightened).
    pub budget_shrinks: u64,
    /// Queue depth sampled after each executed tick.
    pub queue_depth: Vec<usize>,
    /// Peak KV bytes resident in device memory.
    pub kv_resident_peak_bytes: u64,
    /// Peak KV bytes reserved by admission control.
    pub kv_reserved_peak_bytes: u64,
    /// Configured device KV capacity.
    pub capacity_bytes: u64,
    /// Per-request lifecycle records, in arrival order.
    pub records: Vec<RequestRecord>,
    /// The engine's batched-decode report for the run.
    pub engine: EngineReport,
}

impl ServingReport {
    /// Requests rejected for any reason.
    pub fn rejected(&self) -> usize {
        self.rejected_never_fits + self.rejected_queue_full + self.rejected_invalid
    }

    /// Requests homed here that were dead-lettered (retry budget
    /// exhausted).
    pub fn dead_lettered(&self) -> usize {
        self.records.iter().filter(|r| r.dead_letter.is_some()).count()
    }

    /// Requests homed here that the load-shedder dropped.
    pub fn shed(&self) -> usize {
        self.records.iter().filter(|r| r.shed.is_some()).count()
    }

    /// Retries consumed by requests homed here.
    pub fn retries(&self) -> u64 {
        self.records.iter().map(|r| r.retries as u64).sum()
    }

    /// Deadline violations observed by requests homed here.
    pub fn timeouts(&self) -> u64 {
        self.records.iter().map(|r| r.timeouts as u64).sum()
    }

    /// Recovery-latency summary (ticks between a loss and the retry's
    /// re-admission) over requests homed here that recovered at least
    /// once; `None` when nothing was ever lost and re-admitted.
    pub fn recovery(&self) -> Option<LatencySummary> {
        LatencySummary::of(
            self.records
                .iter()
                .filter(|r| r.recovery_wait_ticks > 0)
                .map(|r| r.recovery_wait_ticks)
                .collect(),
        )
    }

    /// TTFT summary over completed requests.
    pub fn ttft(&self) -> Option<LatencySummary> {
        LatencySummary::of(self.records.iter().filter_map(RequestRecord::ttft).collect())
    }

    /// End-to-end latency summary over completed requests.
    pub fn e2e(&self) -> Option<LatencySummary> {
        LatencySummary::of(self.records.iter().filter_map(RequestRecord::e2e).collect())
    }

    /// Queueing delay (admitted − submitted) summary.
    pub fn queueing_delay(&self) -> Option<LatencySummary> {
        LatencySummary::of(self.records.iter().filter_map(|r| Some(r.admitted? - r.submitted)).collect())
    }

    /// Mean time per output token across completed requests, in ticks.
    pub fn tpot_mean(&self) -> Option<f64> {
        let tpots: Vec<f64> = self.records.iter().filter_map(RequestRecord::tpot).collect();
        if tpots.is_empty() {
            None
        } else {
            // lint:allow(float-reduction): f64 report aggregate in arrival-order record sequence, off the decode path
            Some(tpots.iter().sum::<f64>() / tpots.len() as f64)
        }
    }

    /// Prefix-cache hit rate over all submitted prompts, in `[0, 1]`
    /// (0 when the engine's prefix cache is disabled). A hit means the
    /// prompt shared a cached prefix: its session skipped that span's
    /// prefill and reserved only unshared KV bytes at admission.
    pub fn prefix_hit_rate(&self) -> f64 {
        self.engine.prefix.hit_rate()
    }

    /// Prompt tokens served from the engine's prefix cache across the run
    /// — prefill forward passes (and, under chunked prefill, on-clock
    /// prefill tokens) the shared-prefix reuse saved.
    pub fn prefix_saved_tokens(&self) -> u64 {
        self.engine.prefix.shared_tokens
    }

    /// Largest sampled queue depth.
    pub fn queue_depth_max(&self) -> usize {
        self.queue_depth.iter().copied().max().unwrap_or(0)
    }

    /// Mean sampled queue depth.
    pub fn queue_depth_mean(&self) -> f64 {
        if self.queue_depth.is_empty() {
            0.0
        } else {
            self.queue_depth.iter().sum::<usize>() as f64 / self.queue_depth.len() as f64
        }
    }

    /// Latency waterfalls of all completed requests, in arrival order.
    pub fn waterfalls(&self) -> Vec<StageWaterfall> {
        self.records.iter().filter_map(RequestRecord::waterfall).collect()
    }

    /// Per-stage latency summaries over completed requests; `None` on a
    /// zero-completion run.
    pub fn stages(&self) -> Option<StageSummaries> {
        StageSummaries::of(&self.waterfalls())
    }

    /// Folds the run into a [`MetricsRegistry`]: lifecycle counters,
    /// pressure gauges, and log2-bucket latency histograms (overall and
    /// per waterfall stage). Deterministic: same report, same registry,
    /// same [`MetricsRegistry::to_json`] bytes.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("requests_submitted", self.submitted as u64);
        m.counter_add("requests_admitted", self.admitted as u64);
        m.counter_add("requests_completed", self.completed as u64);
        m.counter_add("rejected_never_fits", self.rejected_never_fits as u64);
        m.counter_add("rejected_queue_full", self.rejected_queue_full as u64);
        m.counter_add("rejected_invalid", self.rejected_invalid as u64);
        m.counter_add("preemptions", self.preemptions);
        m.counter_add("resumes", self.resumes);
        m.counter_add("swap_out_bytes", self.swap_out_bytes);
        m.counter_add("swap_in_bytes", self.swap_in_bytes);
        m.counter_add("swap_link_cycles", self.swap_cycles);
        m.counter_add("swap_wait_ticks", self.swap_wait_ticks);
        m.counter_add("budget_shrinks", self.budget_shrinks);
        m.counter_add("requests_dead_lettered", self.dead_lettered() as u64);
        m.counter_add("requests_shed", self.shed() as u64);
        m.counter_add("request_retries", self.retries());
        m.counter_add("request_timeouts", self.timeouts());
        m.counter_add("ticks", self.ticks);
        m.counter_add("decode_ticks", self.decode_ticks);
        m.counter_add("generated_tokens", self.engine.total_tokens as u64);
        m.counter_add("prefill_tokens", self.engine.prefill_tokens as u64);
        m.counter_add("prefix_cache_hits", self.engine.prefix.hits);
        m.counter_add("prefix_saved_tokens", self.prefix_saved_tokens());
        m.counter_add("prefix_evictions", self.engine.prefix.evictions);
        m.counter_add("prefix_expiries", self.engine.prefix.expiries);
        m.counter_add("prefix_spills", self.engine.prefix.spills);
        m.counter_add("prefix_fills", self.engine.prefix.fills);
        m.counter_add("prefix_spill_bytes", self.prefix_spill_bytes);
        m.counter_add("prefix_fill_bytes", self.prefix_fill_bytes);
        m.counter_add("prefix_transfer_cycles", self.prefix_transfer_cycles);
        m.counter_add("kv_resident_peak_bytes", self.kv_resident_peak_bytes);
        m.counter_add("kv_reserved_peak_bytes", self.kv_reserved_peak_bytes);
        m.counter_add("capacity_bytes", self.capacity_bytes);
        m.set_gauge("queue_depth_mean", self.queue_depth_mean());
        m.set_gauge("prefix_hit_rate", self.prefix_hit_rate());
        if let Some(tpot) = self.tpot_mean() {
            m.set_gauge("tpot_mean_ticks", tpot);
        }
        for r in &self.records {
            if let Some(v) = r.ttft() {
                m.observe("ttft_ticks", v);
            }
            if let Some(v) = r.e2e() {
                m.observe("e2e_ticks", v);
            }
            if let Some(w) = r.waterfall() {
                m.observe("stage_queueing_ticks", w.queueing);
                m.observe("stage_prefill_ticks", w.prefill);
                m.observe("stage_decode_ticks", w.decode);
                m.observe("stage_swap_wait_ticks", w.swap_wait);
                m.observe("stage_migration_wait_ticks", w.migration_wait);
            }
        }
        m
    }
}

impl std::fmt::Display for ServingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serving report [shard {}]: {} submitted over {} ticks ({} decode), {} arrivals, {} scheduler",
            self.shard_id, self.submitted, self.ticks, self.decode_ticks, self.arrival, self.sched
        )?;
        writeln!(
            f,
            "  admitted / completed   : {} / {} (rejected {}: never_fits {}, queue_full {}, invalid {})",
            self.admitted,
            self.completed,
            self.rejected(),
            self.rejected_never_fits,
            self.rejected_queue_full,
            self.rejected_invalid
        )?;
        writeln!(
            f,
            "  preemptions / resumes  : {} / {} ({} budget shrinks)",
            self.preemptions, self.resumes, self.budget_shrinks
        )?;
        writeln!(
            f,
            "  swap traffic           : {} B out, {} B in, {} link cycles, {} wait ticks",
            self.swap_out_bytes, self.swap_in_bytes, self.swap_cycles, self.swap_wait_ticks
        )?;
        if self.retries() + self.timeouts() > 0 || self.dead_lettered() + self.shed() > 0 {
            writeln!(
                f,
                "  faults                 : {} retries, {} timeouts, {} dead-lettered, {} shed",
                self.retries(),
                self.timeouts(),
                self.dead_lettered(),
                self.shed()
            )?;
        }
        writeln!(
            f,
            "  queue depth            : max {}, mean {:.2}",
            self.queue_depth_max(),
            self.queue_depth_mean()
        )?;
        writeln!(
            f,
            "  kv resident peak       : {} B of {} B capacity ({:.1}%), {} B reserved peak",
            self.kv_resident_peak_bytes,
            self.capacity_bytes,
            100.0 * self.kv_resident_peak_bytes as f64 / self.capacity_bytes.max(1) as f64,
            self.kv_reserved_peak_bytes
        )?;
        if self.engine.prefix.hits + self.engine.prefix.misses > 0 {
            writeln!(
                f,
                "  prefix cache           : {} hits / {} lookups ({:.0}% hit rate), {} prompt tokens saved, {} entries ({} B resident once)",
                self.engine.prefix.hits,
                self.engine.prefix.hits + self.engine.prefix.misses,
                100.0 * self.prefix_hit_rate(),
                self.prefix_saved_tokens(),
                self.engine.prefix.entries,
                self.engine.prefix.resident_bytes,
            )?;
        }
        let p = &self.engine.prefix;
        if p.evictions + p.expiries + p.spills + p.fills > 0 {
            writeln!(
                f,
                "  prefix churn           : {} evicted, {} expired, {} spilled ({} B), {} filled ({} B), {} link cycles, {} host entries ({} B)",
                p.evictions,
                p.expiries,
                p.spills,
                self.prefix_spill_bytes,
                p.fills,
                self.prefix_fill_bytes,
                self.prefix_transfer_cycles,
                p.host_entries,
                p.host_bytes,
            )?;
        }
        writeln!(f, "  latency (ticks)        : {:>8} {:>8} {:>8} {:>8}", "p50", "p95", "p99", "max")?;
        let mut row = |name: &str, summary: Option<LatencySummary>| match summary {
            Some(s) => writeln!(f, "    {:<21}: {:>8} {:>8} {:>8} {:>8}", name, s.p50, s.p95, s.p99, s.max),
            None => writeln!(f, "    {name:<21}: (no completed requests)"),
        };
        row("ttft", self.ttft())?;
        row("queueing delay", self.queueing_delay())?;
        row("e2e", self.e2e())?;
        if let Some(stages) = self.stages() {
            row("wf queueing", Some(stages.queueing))?;
            row("wf prefill", Some(stages.prefill))?;
            row("wf decode", Some(stages.decode))?;
            row("wf swap wait", Some(stages.swap_wait))?;
            row("wf migration wait", Some(stages.migration_wait))?;
        }
        match self.tpot_mean() {
            Some(tpot) => writeln!(f, "  time per output token  : {tpot:.2} ticks")?,
            None => writeln!(f, "  time per output token  : n/a")?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        // LatencySummary routes through veda_telemetry::summarize; the
        // values must stay exactly nearest-rank (no log2 approximation).
        let s = LatencySummary::of((1..=100).collect()).unwrap();
        assert_eq!((s.p50, s.p95, s.p99, s.max), (50, 95, 99, 100));
        let one = LatencySummary::of(vec![7]).unwrap();
        assert_eq!((one.p50, one.p95, one.p99, one.max), (7, 7, 7, 7));
    }

    #[test]
    fn latency_summary_of_empty_is_none() {
        assert!(LatencySummary::of(vec![]).is_none());
        let s = LatencySummary::of(vec![3, 1, 2]).unwrap();
        assert_eq!((s.p50, s.max), (2, 3));
    }

    #[test]
    fn record_derives_metrics() {
        let r = RequestRecord {
            arrival: 0,
            session: None,
            priority: 0,
            submitted: 10,
            admitted: Some(12),
            first_token: Some(15),
            finished: Some(23),
            generated_tokens: 5,
            preemptions: 1,
            swap_wait_ticks: 0,
            migration_wait_ticks: 0,
            wait_before_first_ticks: 0,
            rejected: None,
            retries: 0,
            timeouts: 0,
            shed: None,
            dead_letter: None,
            lost_at: None,
            recovery_wait_ticks: 0,
        };
        assert_eq!(r.ttft(), Some(5));
        assert_eq!(r.e2e(), Some(13));
        assert_eq!(r.tpot(), Some(2.0));
        let w = r.waterfall().unwrap();
        assert_eq!((w.queueing, w.prefill, w.decode), (2, 3, 8));
        assert_eq!(w.e2e(), 13);
    }

    #[test]
    fn waterfall_splits_waits_around_first_token() {
        // 4 wait ticks before the first token (during prefill), 6 after
        // (during decode): the on-device stages shrink by exactly those
        // amounts and the five stages still sum to e2e.
        let r = RequestRecord {
            arrival: 1,
            session: None,
            priority: 0,
            submitted: 0,
            admitted: Some(2),
            first_token: Some(10),
            finished: Some(30),
            generated_tokens: 8,
            preemptions: 2,
            swap_wait_ticks: 7,
            migration_wait_ticks: 3,
            wait_before_first_ticks: 4,
            rejected: None,
            retries: 0,
            timeouts: 0,
            shed: None,
            dead_letter: None,
            lost_at: None,
            recovery_wait_ticks: 0,
        };
        let w = r.waterfall().unwrap();
        assert_eq!(w.queueing, 2);
        assert_eq!(w.prefill, 8 - 4);
        assert_eq!(w.decode, 20 - 6);
        assert_eq!(w.swap_wait, 7);
        assert_eq!(w.migration_wait, 3);
        assert_eq!(w.e2e(), 30);
        let stages = StageSummaries::of(&[w]).unwrap();
        assert_eq!(stages.prefill.p50, 4);
        assert!(StageSummaries::of(&[]).is_none());
    }

    #[test]
    fn unfinished_record_has_no_waterfall() {
        let r = RequestRecord {
            arrival: 2,
            session: None,
            priority: 0,
            submitted: 0,
            admitted: Some(1),
            first_token: Some(2),
            finished: None,
            generated_tokens: 1,
            preemptions: 0,
            swap_wait_ticks: 0,
            migration_wait_ticks: 0,
            wait_before_first_ticks: 0,
            rejected: None,
            retries: 0,
            timeouts: 0,
            shed: None,
            dead_letter: None,
            lost_at: None,
            recovery_wait_ticks: 0,
        };
        assert!(r.waterfall().is_none());
    }
}
