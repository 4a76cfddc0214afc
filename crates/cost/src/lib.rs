//! # veda-cost
//!
//! Analytic area / power / energy models for the VEDA reproduction:
//!
//! * [`modules`] — per-module area and power models (PE array, voting
//!   engine, SFU, scheduler, on-chip SRAM), with unit costs calibrated so
//!   the paper's exact configuration reproduces Table I. The SRAM/FIFO
//!   curves play the role CACTI plays in the paper.
//! * [`table1`](mod@table1) — the Table I generator (per-module breakdown + totals),
//!   including the paper's two hardware claims as checkable predicates
//!   (SFU < 3 % of area, voting engine ≈ 6.5 % overhead).
//! * [`scaling`] — DeepScaleTool-style technology scaling between nodes,
//!   used to normalize the related-accelerator comparison.
//! * [`gpu`] — a roofline model of the NVIDIA RTX 4090 for the end-to-end
//!   comparison (decode is bandwidth-bound; single-batch efficiency is an
//!   explicit parameter).
//! * [`table2`](mod@table2) — the Table II generator: Sanger / SpAtten / VEDA plus the
//!   GPU energy-efficiency and throughput comparison.
//! * [`energy`] — per-token energy accounting (core + HBM traffic).
//!
//! ## What energy is charged for
//!
//! [`EnergyModel::token_energy_mj`](energy::EnergyModel::token_energy_mj)
//! charges compute cycles plus the **bytes actually streamed** from HBM
//! for the step: the weight stream and the full resident KV span the
//! token attends over. Both numbers come from one
//! `veda_accel::CycleReport`, whose `hbm_bytes` are the bytes the cycle
//! model charged HBM for, so time and traffic are counted in one place:
//! [`table2`](mod@table2) reads its throughput and bytes from one
//! `decode_token(512)` report, and the serving engine prices every tick
//! from its `mixed_batch` report. Byte *residency* optimizations upstream
//! (the engine's shared-prefix KV reuse, which keeps a common span in
//! memory once) therefore do not change decode energy — every decode
//! step still reads the whole span — they save prefill work and
//! capacity, which this crate's models see as fewer prefill chunks
//! costed and more concurrent sessions, respectively.

// Every public item in the cost models is documented; rustdoc enforces
// it so the API surface cannot silently rot.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod energy;
pub mod gpu;
pub mod modules;
pub mod scaling;
pub mod table1;
pub mod table2;

pub use energy::EnergyModel;
pub use modules::ModuleCost;
pub use scaling::TechNode;
pub use table1::{table1, Table1};
pub use table2::{table2, Table2};
