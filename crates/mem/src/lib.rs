//! # veda-mem
//!
//! Memory substrates for the VEDA reproduction.
//!
//! The paper evaluates VEDA with a 256 GB/s HBM modelled by Ramulator and
//! on-chip SRAM/FIFO costs from CACTI. This crate provides the equivalent
//! simulation substrates, built from scratch:
//!
//! * [`HbmConfig::cost`] — a burst/row-buffer-level off-chip memory cost
//!   of a sequential stream: whole bursts at the derated bandwidth plus one
//!   row activation per row opened. Weights and the `(l, d)` KV layout
//!   both stream sequentially; the baseline's transpose penalty (the
//!   *memory access irregularity* of Section I) is on-chip, in the
//!   accelerator's attention model.
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
//! use veda_mem::HbmConfig;
//!
//! let hbm = HbmConfig::default();
//! // 1 MiB at 256 B/cycle derated to 90 %, plus 512 row activations
//! // spread over 16 banks.
//! assert_eq!(hbm.cost(1 << 20), 4552 + 896);
//! // Twice the bandwidth roughly halves the data cycles.
//! assert!(HbmConfig::with_bandwidth(512.0, 1.0).cost(1 << 20) < 3500);
//! ```

// Every public item in the memory substrates is documented; rustdoc
// enforces it so the API surface cannot silently rot.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fifo;
pub mod hbm;
pub mod hostlink;

pub use fifo::Fifo;
pub use hbm::HbmConfig;
pub use hostlink::{HostLink, HostLinkConfig, SwapDirection, TransferKind};
