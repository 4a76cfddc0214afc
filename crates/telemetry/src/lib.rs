//! Deterministic tracing + metrics plane for the VEDA serving stack.
//!
//! Every layer of the stack — `Engine`, `Shard`, `Cluster` —
//! can emit typed [`TraceEvent`]s into an installed [`SinkHandle`]. The
//! plane is strictly observation-only:
//!
//! * **Zero-cost when absent.** With no sink installed nothing is
//!   allocated, recorded, or branched on beyond one `Option` check;
//!   every report and token stream is byte-identical to a build without
//!   the plane.
//! * **Deterministic when present.** All emission happens on the
//!   coordinator thread of the virtual-clock simulation, so the same
//!   seed produces the same event stream — and therefore a byte-identical
//!   [Chrome-trace file](chrome_trace_json) — regardless of decode
//!   thread count or shard layout. This is determinism invariant #8 in
//!   `docs/ARCHITECTURE.md`.
//!
//! On top of the raw event stream the crate provides:
//!
//! * [`Json`] — the workspace's one JSON value type: a writer whose
//!   integers print exactly, and a parser.
//! * [`log2_histogram`] — the power-of-two bucket histograms of the
//!   serving metrics document.
//! * [`nearest_rank`] / [`summarize`] — the single, total (never
//!   panicking) nearest-rank percentile implementation shared by every
//!   report type in the workspace.
//! * [`StageWaterfall`] — a per-request latency decomposition
//!   (queueing / prefill / decode / swap wait / migration wait) whose
//!   stages provably sum to the end-to-end latency.
//! * [`chrome_trace_json`] — a Perfetto / `chrome://tracing` loadable
//!   exporter: one process track per shard, one thread track per
//!   request, spans keyed on the virtual clock.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
mod event;
pub mod json;
mod metrics;
mod waterfall;

pub use chrome::chrome_trace_json;
pub use event::{RecordingSink, SinkHandle, TraceEvent, TraceEventKind, Tracer};
pub use json::Json;
pub use metrics::{log2_histogram, nearest_rank, summarize, SampleSummary};
pub use waterfall::StageWaterfall;
