//! # veda-tensor
//!
//! Dense linear-algebra substrate for the VEDA reproduction.
//!
//! This crate provides the numeric kernels that the rest of the workspace is
//! built on: row-major [`Matrix`] and `&[f32]` vector kernels ([`ops`]),
//! numerically-stable and *online* softmax ([`softmax`], after
//! Milakov–Gimelshein, the same formulation VEDA's element-serial reduction
//! unit implements in hardware), layer/RMS normalization ([`norm`]),
//! activation functions ([`activation`]), an IEEE-754 binary16 emulation used
//! to model the accelerator's FP16 datapath ([`fp16`]), and small statistics
//! helpers ([`stats`]) used by the voting threshold `T(i) = a·mean − b·σ`.
//!
//! Everything is deterministic and seedable, with no global state. The one
//! place that uses threads, [`rng::fill_normal_parts`], gives the same bits
//! on any number of them.
//!
//! ## The summation-order discipline
//!
//! The workspace's central invariant — token streams are **byte-identical**
//! across decode thread counts, prefill chunk sizes and prefix-cache
//! configurations — bottoms out in this crate: f32 addition is not
//! associative, so every kernel here fixes one summation order and every
//! in-place variant (`*_into`, [`softmax::softmax_in_place`]) preserves
//! the exact order of its allocating twin. When adding a kernel, never
//! reorder an accumulation loop for speed without a pinning test; the
//! engine-level equivalence suites will catch it, but the contract lives
//! here.
//!
//! The rule that makes a kernel both fast and exact: **parallelise across
//! independent outputs, never inside one reduction.** A sum's terms are
//! added in one fixed order by one accumulator; speed comes from advancing
//! many such sums side by side — other matrix rows, other sequences of the
//! batch — in registers, SIMD lanes or threads. [`ops::gemm_inner_into`]
//! is the model: 4 matrix rows × up to 8 input rows per tile, every one of
//! the 32 accumulators running [`ops::dot`]'s k-order sum from
//! `Sum for f32`'s identity, pinned bit for bit against `dot` in
//! `tests/properties.rs`. Splitting one dot product into partial sums
//! (the usual SIMD reduction) would be faster still and is exactly what
//! this crate does not do.
//!
//! The causal corollary: **lanes may stop at different rows.** The
//! consecutive rows of a prefill chunk want `q × Kᵀ` over prefixes
//! `l0 + 1, l0 + 2, …` of the *same* key rows, so
//! [`ops::gemm_inner_span_into`] runs them as lanes of that tile in one
//! pass over one head's column span of the keys; a lane stores the sums
//! of its own prefix and drops what the tile computed past it. Masking
//! happens at the store, never inside a sum, so each stored score is
//! still `dot` of its query and key spans; a decode row is one lane
//! over every key row.
//!
//! The outer-product corollary: **block the reduction index only in
//! ascending order through one accumulator per output.** An outer product
//! adds row `i`'s contribution to every output; the outputs are the
//! independent sums, so they may sit in registers while several rows — or
//! all of them — are added, as long as each output still receives rows
//! `0, 1, 2, …` in that order through a single running sum.
//! [`ops::gemm_outer_into`] consumes 4 rows per pass over a wide output
//! (`v = out[j]; v += s0·r0[j]; …; v += s3·r3[j]; out[j] = v`);
//! [`ops::gemv_outer_span_into`] keeps a narrow tile of outputs resident
//! across every row. Both are pinned bit for bit against one
//! [`ops::axpy`] per row. Summing a block of rows first and adding the
//! block's total to the output is the reordering this rule forbids.
//!
//! The row-batching corollary: **input rows are independent outputs
//! too.** `X × W` for many rows of `X` is many outer products that share
//! only their *reads* of `W`, so the loops may be swapped — per block of 4
//! weight rows, every input row's outputs take their 4 adds before the
//! next block is touched — without any output seeing a different sequence
//! of adds. [`ops::gemm_outer_into`] does exactly that, which turns a
//! weight matrix from something streamed from memory once per token into
//! something streamed once per batch (each block read from L1 for every
//! row after the first); [`ops::gemv_outer_into`] is its one-row call, so
//! there is one loop body and a batch of one costs what a GEMV did.
//!
//! The random-stream corollary: **a draw's output is a function of its
//! stream position.** The `k`-th [`rng::standard_normal`] of a generator
//! reads only stream words `2k` and `2k + 1`, so a long fill is many
//! independent outputs, not one reduction. [`rng::fill_normal_parts`]
//! cuts one across cores at element positions and starts each share from
//! the generator advanced ([`rng::skip_standard_normal`]) to its first
//! element's position, so a split never changes a bit; the unit tests in
//! `rng.rs` drive every 2-way cut and 1–8 shares against per-call draws.
//!
//! ## Example
//!
//! ```
//! use veda_tensor::{Matrix, ops, softmax};
//!
//! // q × Kᵀ as the inner-product interpretation used by VEDA:
//! let k = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
//! let q = [2.0, 1.0];
//! let s = ops::gemv_inner(&q, &k);       // one score per cached key
//! assert_eq!(s, vec![2.0, 1.0, 3.0]);
//! let probs = softmax::softmax(&s);
//! assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
//! ```

// Every public item in the numeric substrate is documented; rustdoc
// enforces it so the API surface cannot silently rot.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod activation;
pub mod error;
pub mod fp16;
pub mod matrix;
pub mod norm;
pub mod ops;
pub mod rng;
pub mod softmax;
pub mod stats;

pub use error::{CategoricalError, ShapeError, TensorResult};
pub use fp16::F16;
pub use matrix::Matrix;
pub use softmax::OnlineSoftmax;
