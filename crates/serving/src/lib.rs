//! # veda-serving
//!
//! The serving layer over the [`veda::Engine`]: workload generation,
//! admission control, and preemptive scheduling under a virtual clock.
//!
//! The engine answers "how fast does a *batch* decode?"; this crate
//! answers "what happens under *traffic*?" — the regime where VEDA's KV
//! eviction actually pays, because device memory, not compute, decides
//! how many users fit. A request's serving lifecycle is two-phase end to
//! end: `submitted → queued → admitted → prefill ticks → first token →
//! decode ticks → finished`. Admission calls [`veda::Engine::submit`],
//! which only validates, reserves KV and enqueues the session in its
//! `Prefilling` phase; with a finite
//! [`veda::EngineBuilder::prefill_chunk`] the prompt is then consumed by
//! on-clock mixed prefill/decode ticks, so TTFT and queueing percentiles
//! measure real prefill work (under the default instant prefill the
//! prompt is consumed at the admission tick, as the pre-chunking stack
//! did). The stack is:
//!
//! * [`Workload`] — seeded, reproducible timed arrivals, sorted and
//!   fixed at construction: open-loop Poisson over a configurable
//!   [`RequestMix`] of policies, budgets, prompt lengths and priorities,
//!   or deterministic trace replay.
//! * Admission control ([`AdmissionConfig`]) — accounts each admitted
//!   session's peak KV bytes (from [`veda::Request::peak_resident_tokens`],
//!   the same helper the engine's KV pre-allocation derives from) against
//!   the HBM capacity ([`veda_mem::HbmConfig::capacity_bytes`]);
//!   requests that cannot fit now wait in a bounded queue, requests that
//!   can never fit are rejected. With the engine's shared-prefix cache enabled
//!   ([`veda::EngineBuilder::prefix_cache`]), a known-prefix request that
//!   can never evict ([`veda::Request::never_evicts`]) reserves only its
//!   *unshared* peak — the shared span is resident once, in the cache
//!   entry, whose bytes are themselves charged against capacity — so
//!   shared-prefix traffic ([`RequestMix::shared_prefix_len`]) admits
//!   more concurrent sessions under the same capacity, with per-request
//!   token streams unchanged (see the [`admission`] module docs for the
//!   soundness argument).
//! * [`SchedKind`] — FCFS or priority tiers decide which queued request
//!   is admitted next, and (priority only) which running session is
//!   paused and swapped out over the PCIe-style
//!   [`veda_mem::HostLink`] to make room. Preemption never changes a
//!   request's generated tokens — only when they appear. Swap latency is
//!   serialized into the clock: a resumed session re-enters the batch
//!   only after its swap-in transfer's cycles have elapsed.
//! * [`Cluster`] — the virtual-clock loop binding the three to the
//!   engine's mixed prefill/decode ticks: N [`Shard`]s (each one engine
//!   with its own admission controller, queue and host link) behind one
//!   [`RouterKind`] (round-robin or prefix affinity) on one virtual
//!   clock, with opt-in cross-shard session migration
//!   ([`MigrationConfig`]) costed through both shards' host links. A single-engine deployment is a 1-shard cluster. One
//!   shared [`Workload`] fixes every request before the run, so routing
//!   can never perturb the RNG stream. The run yields a
//!   [`ClusterReport`]: per-shard [`ServingReport`]s — per-request
//!   submitted/admitted/first-token/finished timestamps, TTFT, queueing
//!   delay, end-to-end latency percentiles, time-per-output-token, queue
//!   depth over time, and preemption/rejection/swap accounting
//!   (including ticks spent waiting on swap-ins) — plus routing counts,
//!   migration traffic, per-shard KV-residency series, and global
//!   latency aggregates.
//! * **Fault plane** ([`faults`]) — a deterministic, virtual-clock-driven
//!   [`FaultPlan`] injects fail-stop shard crashes (with optional
//!   recovery and pre-crash drain), host-link bandwidth degradation
//!   windows, per-attempt TTFT/e2e deadline timeouts, bounded
//!   exponential-backoff retry ([`RetryPolicy`]) with a terminal
//!   dead-letter state, and watermark load-shedding
//!   ([`FaultConfig::shed_watermark`]). The router only sees healthy
//!   shards ([`ShardHealth`]); recovered shards rejoin rotation
//!   deterministically. An empty plan is byte-identical to a cluster
//!   with no fault plane at all (determinism invariant #9), and
//!   misconfiguration surfaces as a typed [`ServeError`] through
//!   [`Cluster::try_new`].
//! * **Observability** ([`veda_telemetry`], re-exported here) — an
//!   optional [`SinkHandle`] ([`ClusterConfig::trace`]) records every
//!   request's typed lifecycle [`TraceEvent`]s; [`chrome_trace_json`]
//!   renders them as a Perfetto-loadable Chrome trace, [`ServingReport::stages`] splits
//!   each request's latency into a [`StageWaterfall`] (stages sum
//!   exactly to e2e), and [`ClusterReport::metrics`] folds a run into a
//!   deterministic [`Json`] metrics document. Observation-only: no sink means
//!   a byte-identical run, and the trace bytes themselves are
//!   thread-invariant (determinism invariant #8).
//!
//! ## Example
//!
//! ```
//! use veda::EngineBuilder;
//! use veda_serving::{Cluster, ClusterConfig, RequestMix, SchedKind, Workload};
//!
//! let engine = EngineBuilder::new().model(veda_model::ModelConfig::tiny()).build()?;
//! let workload = Workload::poisson(7, 0.5, 16, RequestMix::default());
//! let config = ClusterConfig {
//!     shards: 1,
//!     sched: SchedKind::Priority,
//!     per_shard_capacity_bytes: 64 << 10,
//!     max_queue_depth: 32,
//!     ..ClusterConfig::default()
//! };
//! let report = Cluster::try_new(vec![engine], workload, config)?.run();
//! let shard = &report.shards[0];
//! assert_eq!(shard.submitted, 16);
//! assert_eq!(shard.completed + shard.rejected(), 16);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Crate hygiene, enforced by veda-lint (rule crate-hygiene): no unsafe
// code under the determinism pins, no undocumented public surface.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod cluster;
pub mod error;
pub mod faults;
pub mod report;
pub mod router;
pub mod scheduler;
pub mod shard;
mod stepping;
pub mod workload;

pub use admission::{AdmissionConfig, RejectReason};
pub use cluster::{Cluster, ClusterConfig, ClusterReport, MigrationConfig};
pub use error::ServeError;
pub use faults::{FaultConfig, FaultPlan, LinkDegradation, RetryPolicy, ShardCrash, ShardHealth};
pub use report::{LatencySummary, RequestRecord, ServingReport, StageSummaries};
// The observability plane: re-exported so serving callers can wire a
// sink, export Chrome traces, and read waterfalls without naming the
// telemetry crate.
pub use router::{ParseRouterKindError, RouterKind};
pub use scheduler::{ParseSchedKindError, SchedKind, MAX_PREEMPTIONS};
pub use shard::Shard;
pub use veda_telemetry::{
    chrome_trace_json, Json, RecordingSink, SinkHandle, StageWaterfall, TraceEvent, TraceEventKind,
};
pub use workload::{ArrivalKind, ParseArrivalKindError, RequestMix, ServingRequest, Workload};
