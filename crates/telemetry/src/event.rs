//! Typed lifecycle events, the sink they flow into, and the
//! engine-side [`Tracer`] that stamps them.

use std::fmt;
use std::sync::{Arc, Mutex};

/// What happened to a request at one point in its lifecycle.
///
/// Payload fields are deliberately plain integers / static strings so
/// events are `Copy`-cheap, comparable, and render deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The request arrived at the serving layer.
    Submitted {
        /// Prompt length in tokens.
        prompt_tokens: u32,
        /// Generation cap in tokens.
        max_new_tokens: u32,
        /// Scheduling priority (higher = more urgent).
        priority: u32,
    },
    /// Admission screening passed; the request joined the wait queue.
    Queued,
    /// The request left the queue and was submitted to an engine.
    Admitted {
        /// KV bytes reserved against device capacity at admission.
        est_bytes: u64,
    },
    /// Admission turned the request away for good.
    Rejected {
        /// Stable reason label (`never_fits`, `queue_full`, `invalid`).
        reason: &'static str,
    },
    /// A chunk of on-clock prefill work landed for this request.
    PrefillChunk {
        /// Prompt tokens consumed by this chunk.
        tokens: u32,
        /// Prompt tokens still waiting after this chunk.
        remaining: u32,
    },
    /// The first generated token (end of the prefill stage).
    FirstToken,
    /// A subsequent decode step produced a token.
    DecodeTick {
        /// KV entries evicted while producing this token.
        evictions: u32,
        /// Resident KV cache length after this token.
        cache_len: u32,
    },
    /// The scheduler paused this session to free capacity.
    Preempted,
    /// KV bytes started moving to the host after a preemption.
    SwapOutStart {
        /// Bytes crossing the host link.
        bytes: u64,
    },
    /// A swapped-out session finished its costed swap-in and rejoined.
    SwapInComplete {
        /// Virtual ticks spent off the device (pause → rejoin).
        wait_ticks: u64,
    },
    /// The cluster plane started migrating this session to another shard.
    MigrationStart {
        /// Destination shard id.
        to_shard: u32,
        /// KV bytes crossing both host links.
        bytes: u64,
    },
    /// A migrated session landed and resumed on its destination shard.
    MigrationLand {
        /// Source shard id.
        from_shard: u32,
        /// Virtual ticks spent in flight (extract → resume).
        wait_ticks: u64,
    },
    /// Terminal: the request produced its full token stream.
    Finished {
        /// Total generated tokens.
        generated_tokens: u32,
    },
    /// Engine-level: the session was paused (`Engine::pause`).
    Paused,
    /// Engine-level: the session was resumed (`Engine::resume`).
    Resumed,
    /// Engine-level: the session was extracted for migration
    /// (`Engine::extract`).
    Extracted,
    /// Engine-level: a migrated session was adopted
    /// (`Engine::adopt`).
    Adopted,
    /// Cluster-plane: a shard failed (fail-stop) and left routing; its
    /// in-flight work was lost. The event's `request` field carries the
    /// shard id — there is no single request this event belongs to.
    ShardDown {
        /// In-flight requests purged by the crash (queued + admitted).
        lost: u32,
    },
    /// Cluster-plane: a failed shard recovered and rejoined routing.
    /// The event's `request` field carries the shard id.
    ShardUp {
        /// Virtual ticks the shard spent down.
        down_ticks: u64,
    },
    /// The request missed a deadline and was torn down. Not terminal:
    /// the retry policy decides whether it re-enters admission
    /// (`Retried`) or gives up (`DeadLetter`).
    TimedOut {
        /// Which deadline was missed (`ttft` or `e2e`).
        deadline: &'static str,
    },
    /// The request re-entered the cluster's retry queue after a crash
    /// loss or a deadline timeout, with exponential backoff.
    Retried {
        /// Retry attempt number (1 = first retry).
        attempt: u32,
    },
    /// Terminal: the load-shedder dropped this queued request to keep
    /// the cluster out of overload collapse.
    Shed,
    /// Terminal: the request exhausted its retry budget and was
    /// dead-lettered.
    DeadLetter {
        /// Retry attempts consumed before giving up.
        attempts: u32,
    },
    /// A previously lost request was re-admitted into an engine —
    /// recovery complete; its token stream restarts from the prompt.
    /// Emitted by the shard that re-admitted it, on the admission's tick.
    Recovered {
        /// Ticks from the loss to this re-admission.
        recovery_ticks: u64,
    },
    /// A cold prefix-cache entry left HBM for the host-memory tier
    /// under byte pressure. Stamped with the trace id of the session
    /// whose insertion (or promotion) displaced it. Emitted
    /// coordinator-side only, like every engine event.
    PrefixSpill {
        /// KV bytes crossing the host link, device → host.
        bytes: u64,
    },
    /// A spilled prefix-cache entry was promoted back to the device on
    /// a hit; the serving layer serializes the fill latency onto the
    /// hitting session's clock. Stamped with the hitting session's
    /// trace id.
    PrefixFill {
        /// KV bytes crossing the host link, host → device.
        bytes: u64,
    },
    /// An idle, unpinned prefix-cache entry hit its TTL and was
    /// dropped. No single request owns the event, so its `request`
    /// field carries the cache entry's stable id instead.
    PrefixExpired {
        /// KV bytes the expired entry freed.
        bytes: u64,
    },
}

impl TraceEventKind {
    /// Stable lowercase label for this event kind (used as the metrics
    /// counter key and the Chrome-trace event name).
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::Submitted { .. } => "submitted",
            TraceEventKind::Queued => "queued",
            TraceEventKind::Admitted { .. } => "admitted",
            TraceEventKind::Rejected { .. } => "rejected",
            TraceEventKind::PrefillChunk { .. } => "prefill_chunk",
            TraceEventKind::FirstToken => "first_token",
            TraceEventKind::DecodeTick { .. } => "decode_tick",
            TraceEventKind::Preempted => "preempted",
            TraceEventKind::SwapOutStart { .. } => "swap_out_start",
            TraceEventKind::SwapInComplete { .. } => "swap_in_complete",
            TraceEventKind::MigrationStart { .. } => "migration_start",
            TraceEventKind::MigrationLand { .. } => "migration_land",
            TraceEventKind::Finished { .. } => "finished",
            TraceEventKind::Paused => "paused",
            TraceEventKind::Resumed => "resumed",
            TraceEventKind::Extracted => "extracted",
            TraceEventKind::Adopted => "adopted",
            TraceEventKind::ShardDown { .. } => "shard_down",
            TraceEventKind::ShardUp { .. } => "shard_up",
            TraceEventKind::TimedOut { .. } => "timed_out",
            TraceEventKind::Retried { .. } => "retried",
            TraceEventKind::Shed => "shed",
            TraceEventKind::DeadLetter { .. } => "dead_letter",
            TraceEventKind::Recovered { .. } => "recovered",
            TraceEventKind::PrefixSpill { .. } => "prefix_spill",
            TraceEventKind::PrefixFill { .. } => "prefix_fill",
            TraceEventKind::PrefixExpired { .. } => "prefix_expired",
        }
    }

    /// Whether this event ends a request's lifecycle. Every submitted
    /// request reaches exactly one terminal event on a drained run —
    /// pinned by the event-conservation property test. `TimedOut` is
    /// *not* terminal (the request may retry); `DeadLetter` and `Shed`
    /// are.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            TraceEventKind::Finished { .. }
                | TraceEventKind::Rejected { .. }
                | TraceEventKind::Shed
                | TraceEventKind::DeadLetter { .. }
        )
    }
}

/// One stamped lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual tick of the serving clock when the event fired.
    pub tick: u64,
    /// Engine cycle clock (accumulated batched cycles) at the event.
    pub cycles: u64,
    /// Shard the event fired on (0 on a 1-shard cluster).
    pub shard: u32,
    /// Request id: the global arrival index at the serving layer, so
    /// one request keeps one id across shards, swaps, and migrations.
    /// Three kinds belong to no request and carry another id here:
    /// `ShardDown` and `ShardUp` the shard id, `PrefixExpired` the cache
    /// entry's id.
    pub request: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// A sink that buffers every event in arrival order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecordingSink {
    events: Vec<TraceEvent>,
}

impl RecordingSink {
    /// Drain the recorded events, leaving the sink empty.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// A cloneable, shareable handle to a [`RecordingSink`]. Configs hold
/// this so one sink can observe every shard of a cluster; the `Mutex` is
/// only a sharing formality — emission is single-threaded by
/// construction: a cluster emits only from the thread that ticks it
/// (engine commits included), and its step workers compute without
/// emitting, so events arrive in a deterministic order.
#[derive(Clone)]
pub struct SinkHandle(Arc<Mutex<RecordingSink>>);

impl SinkHandle {
    /// A handle backed by a fresh [`RecordingSink`], plus the shared
    /// buffer so the caller can read the events back after the run.
    pub fn recording() -> (Self, Arc<Mutex<RecordingSink>>) {
        let buffer = Arc::new(Mutex::new(RecordingSink::default()));
        (Self(buffer.clone()), buffer)
    }

    /// Append one event to the sink.
    pub fn record(&self, event: TraceEvent) {
        self.0.lock().expect("trace sink poisoned").events.push(event);
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SinkHandle(..)")
    }
}

/// The per-engine emitter: a sink handle plus the shard id and current
/// virtual tick to stamp events with. The owning layer refreshes the
/// tick each simulation step via [`Tracer::set_now`].
#[derive(Debug, Clone)]
pub struct Tracer {
    sink: SinkHandle,
    shard: u32,
    now: u64,
}

impl Tracer {
    /// A tracer feeding `sink`, stamping events with `shard`.
    pub fn new(sink: SinkHandle, shard: u32) -> Self {
        Self { sink, shard, now: 0 }
    }

    /// Update the virtual tick stamped onto subsequent events.
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    /// Emit one event at the current tick.
    pub fn emit(&self, cycles: u64, request: u64, kind: TraceEventKind) {
        self.sink.record(TraceEvent { tick: self.now, cycles, shard: self.shard, request, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_sink_preserves_order() {
        let (handle, buffer) = SinkHandle::recording();
        let mut tracer = Tracer::new(handle, 3);
        tracer.emit(10, 1, TraceEventKind::Queued);
        tracer.set_now(5);
        tracer.emit(20, 1, TraceEventKind::Admitted { est_bytes: 64 });
        let events = buffer.lock().unwrap().take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].tick, 0);
        assert_eq!(events[0].shard, 3);
        assert_eq!(events[1].tick, 5);
        assert_eq!(events[1].cycles, 20);
        assert_eq!(events[1].kind, TraceEventKind::Admitted { est_bytes: 64 });
    }

    #[test]
    fn terminal_classification() {
        assert!(TraceEventKind::Finished { generated_tokens: 4 }.is_terminal());
        assert!(TraceEventKind::Rejected { reason: "queue_full" }.is_terminal());
        assert!(TraceEventKind::Shed.is_terminal());
        assert!(TraceEventKind::DeadLetter { attempts: 3 }.is_terminal());
        assert!(!TraceEventKind::Queued.is_terminal());
        assert!(!TraceEventKind::Preempted.is_terminal());
        // A timeout may lead to a retry; only the dead letter ends the
        // lifecycle.
        assert!(!TraceEventKind::TimedOut { deadline: "ttft" }.is_terminal());
        assert!(!TraceEventKind::Retried { attempt: 1 }.is_terminal());
        assert!(!TraceEventKind::ShardDown { lost: 2 }.is_terminal());
        assert!(!TraceEventKind::Recovered { recovery_ticks: 9 }.is_terminal());
    }

    #[test]
    fn prefix_labels_are_stable_and_not_terminal() {
        assert_eq!(TraceEventKind::PrefixSpill { bytes: 64 }.label(), "prefix_spill");
        assert_eq!(TraceEventKind::PrefixFill { bytes: 64 }.label(), "prefix_fill");
        assert_eq!(TraceEventKind::PrefixExpired { bytes: 64 }.label(), "prefix_expired");
        assert!(!TraceEventKind::PrefixSpill { bytes: 0 }.is_terminal());
        assert!(!TraceEventKind::PrefixFill { bytes: 0 }.is_terminal());
        assert!(!TraceEventKind::PrefixExpired { bytes: 0 }.is_terminal());
    }

    #[test]
    fn fault_labels_are_stable() {
        assert_eq!(TraceEventKind::ShardDown { lost: 0 }.label(), "shard_down");
        assert_eq!(TraceEventKind::ShardUp { down_ticks: 4 }.label(), "shard_up");
        assert_eq!(TraceEventKind::TimedOut { deadline: "e2e" }.label(), "timed_out");
        assert_eq!(TraceEventKind::Retried { attempt: 2 }.label(), "retried");
        assert_eq!(TraceEventKind::Shed.label(), "shed");
        assert_eq!(TraceEventKind::DeadLetter { attempts: 1 }.label(), "dead_letter");
        assert_eq!(TraceEventKind::Recovered { recovery_ticks: 1 }.label(), "recovered");
    }
}
