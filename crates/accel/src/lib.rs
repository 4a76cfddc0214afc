//! # veda-accel
//!
//! Cycle-accurate model of the VEDA accelerator (Sections IV–V of the
//! paper) and of the conventional adder-tree baseline used in the ablation.
//!
//! Two layers of modelling live here:
//!
//! * **Functional** — [`pe`]/[`array`](mod@array) implement the runtime-reconfigurable
//!   PE array bit-for-bit: 2-bit mode control, type-A/B PEs, the two-level
//!   (L1/L2) adder tree, inner-product and outer-product configurations.
//!   [`sfu`] implements the element-serial reduction/normalization units
//!   (online softmax, streaming mean/variance), and [`voting`] the hardware
//!   voting engine with its FIFO, 16-bit vote buffer and 12-bit eviction
//!   index. These produce *values* identical (up to FP16 rounding) to the
//!   reference kernels in `veda-tensor` — tested property-style.
//! * **Timing** — [`attention`] and [`schedule`] charge cycles for the
//!   attention process and whole decode/prefill steps under three
//!   architecture variants ([`arch::DataflowVariant`]): the fixed
//!   adder-tree baseline, baseline + flexible product (F), and baseline +
//!   flexible + element-serial scheduling (F+E = VEDA). The paper
//!   cross-validates its own performance model against RTL; this crate is
//!   the analogous model, with every calibration constant documented in
//!   [`arch::BaselineCalibration`].
//!
//! The serving engine's batched tick is costed here too:
//! [`DecodeScheduler::mixed_batch`] charges one tick in which every
//! decode sequence advances a token and every prefilling sequence
//! consumes a [`PrefillChunk`] — linear-layer weights stream from HBM
//! once for the whole tick (the amortization that makes batching pay),
//! while attention is charged per sequence at its own cache length. A
//! chunk's `start_len` is whatever KV is already resident, so a sequence
//! seeded from a shared-prefix cache entry is charged prefill for its
//! unshared suffix only while its attention still covers the full
//! resident span. Everything is a pure function of its inputs — no
//! wall-clock, no randomness — so cycle reports are reproducible by
//! construction.
//!
//! ## Example
//!
//! ```
//! use veda_accel::arch::{ArchConfig, DataflowVariant};
//! use veda_accel::attention::decode_attention_cycles;
//!
//! let arch = ArchConfig::veda();
//! let l = 1024; // cache length
//! let base = decode_attention_cycles(&arch, DataflowVariant::Baseline, l);
//! let veda = decode_attention_cycles(&arch, DataflowVariant::FlexibleElementSerial, l);
//! assert!(veda < base);
//! ```

// Every public item in the accelerator model is documented; rustdoc
// enforces it so the API surface cannot silently rot.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arch;
pub mod array;
pub mod attention;
pub mod pe;
pub mod pipeline;
pub mod report;
pub mod schedule;
pub mod sfu;
pub mod voting;

pub use arch::{ArchConfig, DataflowVariant, ParseDataflowVariantError};
pub use array::{ArrayMode, PeArray};
pub use attention::decode_attention_cycles;
pub use pipeline::AttentionPipeline;
pub use report::CycleReport;
pub use schedule::{DecodeScheduler, LlamaShape, PrefillChunk};
pub use voting::{VotingEngine, VotingEngineError};
