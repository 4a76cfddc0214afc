//! # veda-mem
//!
//! Memory substrates for the VEDA reproduction.
//!
//! The paper evaluates VEDA with a 256 GB/s HBM modelled by Ramulator and
//! on-chip SRAM/FIFO costs from CACTI. This crate provides the equivalent
//! simulation substrates, built from scratch:
//!
//! * [`HbmConfig::cost`] — a burst/row-buffer-level off-chip memory cost
//!   with per-pattern efficiency (sequential streams hit the open row;
//!   strided "transpose-style" access pays row activation and wasted burst
//!   bytes — the *memory access irregularity* of Section I).
//! * [`Fifo`] — a depth-bounded FIFO, modelling the s' FIFO of the voting
//!   engine and the SFU tile FIFO.
//! * [`HostLink`] — a PCIe-style device↔host link for KV cache
//!   swap-out/swap-in when a serving layer preempts sessions under HBM
//!   capacity pressure ([`HbmConfig::capacity_bytes`]), with the ledger of
//!   bytes and cycles per [`TransferKind`] that a serving report reads.
//!
//! ## Capacity is the serving constraint
//!
//! At serving scale, decode is bandwidth-bound but *admission* is
//! capacity-bound: [`HbmConfig::capacity_bytes`] decides how many
//! sessions' KV states fit, and everything above it is preemption, swap
//! traffic ([`HostLink`]) or rejection. The resident-byte accounting
//! that serving layers check against this capacity counts a KV row
//! **once, where it is resident**: a session's privately owned rows
//! count against the session, while a shared prompt-prefix span (the
//! engine's prefix cache) counts once, inside the cache entry,
//! regardless of how many sessions reference it. Note the distinction
//! from *traffic*: attention still streams every resident row it
//! attends over — shared or not — so sharing relieves capacity and
//! prefill work, never the per-step KV bandwidth.
//!
//! ## Example
//!
//! ```
//! use veda_mem::{AccessPattern, HbmConfig};
//!
//! let hbm = HbmConfig::default();
//! // Streaming 1 MiB sequentially is far cheaper than the same bytes strided.
//! let seq = hbm.cost(1 << 20, AccessPattern::Sequential);
//! let strided = hbm.cost(1 << 20, AccessPattern::Strided { stride_bytes: 256, elem_bytes: 2 });
//! assert!(strided > seq);
//! ```

// Every public item in the memory substrates is documented; rustdoc
// enforces it so the API surface cannot silently rot.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fifo;
pub mod hbm;
pub mod hostlink;

pub use fifo::Fifo;
pub use hbm::{AccessPattern, HbmConfig};
pub use hostlink::{HostLink, HostLinkConfig, SwapDirection, TransferKind};
