//! The runtime-reconfigurable PE array (Fig. 5 (b)–(d)).
//!
//! Functional model of one 8×8 array tile. In outer-product mode every PE
//! accumulates locally under a broadcast scalar; in inner-product mode the
//! PEs' adders are wired into per-row L1 trees (type-A PEs 1,3,5,7 add
//! their local product to a type-B partner's output) and an L2 tree
//! aggregating the row sums. All arithmetic is FP16-rounded, so results
//! match the hardware datapath, and every operation also returns its cycle
//! count under the temporal/spatial mapping of Section IV-A.

use crate::pe::{Pe, PeKind, PeMode};
use veda_tensor::fp16::quantize_f32;
use veda_tensor::Matrix;

/// The two runtime configurations of the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayMode {
    /// Inner-product: adder tree across PEs, one output element per cycle
    /// (`q × Kᵀ`).
    InnerProduct,
    /// Outer-product: local accumulation under broadcast input
    /// (`s' × V`).
    OuterProduct,
}

/// Result of a GEMV executed on the array.
#[derive(Debug, Clone, PartialEq)]
pub struct GemvResult {
    /// Output vector (FP16-rounded at every step).
    pub values: Vec<f32>,
    /// Cycles consumed under the array mapping.
    pub cycles: u64,
}

/// A functional 8×8 (configurable) PE array tile.
#[derive(Debug, Clone)]
pub struct PeArray {
    rows: usize,
    cols: usize,
    mode: ArrayMode,
    pes: Vec<Pe>,
}

impl PeArray {
    /// Creates an array of `rows × cols` PEs in outer-product mode.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        let pes = (0..rows * cols)
            .map(|i| {
                // Within each row, odd positions (1-indexed 1,3,5,7) are
                // type-A, even positions type-B (Fig. 5 (d)).
                let col = i % cols;
                Pe::new(if col.is_multiple_of(2) { PeKind::TypeA } else { PeKind::TypeB })
            })
            .collect();
        let mut array = Self { rows, cols, mode: ArrayMode::OuterProduct, pes };
        array.configure(ArrayMode::OuterProduct);
        array
    }

    /// The VEDA tile: 8×8.
    pub fn veda_tile() -> Self {
        Self::new(8, 8)
    }

    /// Number of PEs (spatial capacity per cycle).
    pub(crate) fn spatial_capacity(&self) -> usize {
        self.rows * self.cols
    }

    /// Reconfigures every PE's 2-bit mode control (one-cycle broadcast in
    /// hardware).
    pub fn configure(&mut self, mode: ArrayMode) {
        self.mode = mode;
        let pe_mode = match mode {
            ArrayMode::InnerProduct => PeMode::TransmitPartial,
            ArrayMode::OuterProduct => PeMode::AccumulateLocal,
        };
        for pe in &mut self.pes {
            pe.set_mode(pe_mode);
        }
    }

    /// Adder-tree reduction of up to `cols` products following the type-A /
    /// type-B wiring, FP16-rounded at every adder.
    fn tree_sum(products: &[f32]) -> f32 {
        // Pairwise (1+2), (3+4), ... then fold — the L1/L2 wiring of
        // Fig. 5 (d) is exactly a balanced binary tree with fp16 nodes.
        let mut level: Vec<f32> = products.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                let s = if pair.len() == 2 { pair[0] + pair[1] } else { pair[0] };
                next.push(quantize_f32(s));
            }
            level = next;
        }
        level.first().copied().unwrap_or(0.0)
    }

    /// Inner-product GEMV `q × Kᵀ`: one output per key row, the spatial
    /// dimension is `q.len()` (chunked by the array size), the temporal
    /// dimension is the number of rows.
    ///
    /// # Panics
    ///
    /// Panics if the array is not in inner-product mode or `q` width
    /// mismatches `keys`.
    pub fn inner_gemv(&mut self, q: &[f32], keys: &Matrix) -> GemvResult {
        assert_eq!(self.mode, ArrayMode::InnerProduct, "array not configured for inner product");
        assert_eq!(q.len(), keys.cols(), "query width mismatch");
        let cap = self.spatial_capacity();
        let chunks = q.len().div_ceil(cap).max(1);
        let mut values = Vec::with_capacity(keys.rows());
        for r in 0..keys.rows() {
            let row = keys.row(r);
            let mut partials = Vec::with_capacity(chunks);
            for c in 0..chunks {
                let span = c * cap..((c + 1) * cap).min(q.len());
                // Load each PE and collect the FP16 products.
                let products: Vec<f32> = span
                    .clone()
                    .map(|i| {
                        let pe = &mut self.pes[i % cap];
                        pe.load(q[i], row[i]);
                        pe.product()
                    })
                    .collect();
                partials.push(Self::tree_sum(&products));
            }
            values.push(Self::tree_sum(&partials));
        }
        GemvResult { values, cycles: (keys.rows() as u64) * chunks as u64 }
    }

    /// Outer-product GEMV `s' × V`: the temporal dimension is `s.len()`
    /// (one broadcast scalar per cycle), the spatial dimension is the
    /// output width (chunked by the array size).
    ///
    /// # Panics
    ///
    /// Panics if the array is not in outer-product mode or `s` length
    /// mismatches `values.rows()`.
    pub fn outer_gemv(&mut self, s: &[f32], values_matrix: &Matrix) -> GemvResult {
        assert_eq!(self.mode, ArrayMode::OuterProduct, "array not configured for outer product");
        assert_eq!(s.len(), values_matrix.rows(), "scalar stream length mismatch");
        let cap = self.spatial_capacity();
        let width = values_matrix.cols();
        let chunks = width.div_ceil(cap).max(1);
        let mut out = vec![0.0f32; width];
        for c in 0..chunks {
            let span = c * cap..((c + 1) * cap).min(width);
            // Clear accumulators for this chunk.
            for pe in &mut self.pes {
                pe.set_mode(PeMode::Clear);
                pe.step(0.0, 0.0);
                pe.set_mode(PeMode::AccumulateLocal);
            }
            for (r, &scalar) in s.iter().enumerate() {
                let vrow = values_matrix.row(r);
                for (slot, i) in span.clone().enumerate() {
                    let pe = &mut self.pes[slot];
                    pe.load(scalar, vrow[i]);
                    pe.step(0.0, 0.0);
                }
            }
            for (slot, i) in span.clone().enumerate() {
                out[i] = self.pes[slot].acc();
            }
        }
        GemvResult { values: out, cycles: (s.len() as u64) * chunks as u64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veda_tensor::ops;

    fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = veda_tensor::rng::seeded(seed);
        Matrix::from_vec(rows, cols, veda_tensor::rng::normal_vec(&mut rng, rows * cols, 0.5)).unwrap()
    }

    #[test]
    fn inner_gemv_matches_reference_within_fp16() {
        let mut arr = PeArray::veda_tile();
        arr.configure(ArrayMode::InnerProduct);
        let k = matrix(10, 64, 1);
        let mut rng = veda_tensor::rng::seeded(2);
        let q = veda_tensor::rng::normal_vec(&mut rng, 64, 0.5);
        let got = arr.inner_gemv(&q, &k);
        let want = ops::gemv_inner(&q, &k);
        assert!(ops::max_abs_diff(&got.values, &want) < 0.05, "fp16 deviation too large");
        assert_eq!(got.cycles, 10); // 64 fits the 8×8 tile: one row per cycle
    }

    #[test]
    fn inner_gemv_chunks_wide_vectors() {
        let mut arr = PeArray::veda_tile();
        arr.configure(ArrayMode::InnerProduct);
        let k = matrix(5, 130, 3);
        let mut rng = veda_tensor::rng::seeded(4);
        let q = veda_tensor::rng::normal_vec(&mut rng, 130, 0.5);
        let got = arr.inner_gemv(&q, &k);
        assert_eq!(got.cycles, 5 * 3); // ceil(130/64) = 3 chunks per row
        let want = ops::gemv_inner(&q, &k);
        assert!(ops::max_abs_diff(&got.values, &want) < 0.08);
    }

    #[test]
    fn outer_gemv_matches_reference_within_fp16() {
        let mut arr = PeArray::veda_tile();
        let v = matrix(12, 64, 5);
        let mut rng = veda_tensor::rng::seeded(6);
        let s: Vec<f32> = veda_tensor::rng::uniform_vec(&mut rng, 12, 0.0, 0.2);
        let got = arr.outer_gemv(&s, &v);
        let want = ops::gemv_outer(&s, &v);
        assert!(ops::max_abs_diff(&got.values, &want) < 0.05);
        assert_eq!(got.cycles, 12);
    }

    #[test]
    fn outer_gemv_chunks_wide_outputs() {
        let mut arr = PeArray::veda_tile();
        let v = matrix(6, 100, 7);
        let s = vec![0.1f32; 6];
        let got = arr.outer_gemv(&s, &v);
        assert_eq!(got.cycles, 6 * 2); // ceil(100/64) = 2 chunks
    }

    #[test]
    fn sequence_growth_costs_one_cycle_per_token() {
        // The headline flexibility claim: l -> l+1 costs exactly one more
        // cycle in inner-product mode (not a whole extra epoch).
        let mut arr = PeArray::veda_tile();
        arr.configure(ArrayMode::InnerProduct);
        let mut rng = veda_tensor::rng::seeded(8);
        let q = veda_tensor::rng::normal_vec(&mut rng, 64, 0.5);
        let k256 = matrix(256, 64, 9);
        let k257 = matrix(257, 64, 9);
        let c256 = arr.inner_gemv(&q, &k256).cycles;
        let c257 = arr.inner_gemv(&q, &k257).cycles;
        assert_eq!(c257, c256 + 1);
    }

    #[test]
    fn reconfiguration_switches_pe_modes() {
        let mut arr = PeArray::veda_tile();
        arr.configure(ArrayMode::InnerProduct);
        assert_eq!(arr.mode, ArrayMode::InnerProduct);
        arr.configure(ArrayMode::OuterProduct);
        assert_eq!(arr.mode, ArrayMode::OuterProduct);
    }

    #[test]
    #[should_panic(expected = "not configured for inner product")]
    fn inner_gemv_requires_inner_mode() {
        let mut arr = PeArray::veda_tile();
        let k = matrix(2, 8, 1);
        arr.inner_gemv(&[0.0; 8], &k);
    }

    #[test]
    fn tree_sum_handles_odd_and_empty() {
        assert_eq!(PeArray::tree_sum(&[]), 0.0);
        assert_eq!(PeArray::tree_sum(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    fn empty_stream_outer_gemv_is_zero() {
        let mut arr = PeArray::veda_tile();
        let v = Matrix::zeros(0, 16);
        let got = arr.outer_gemv(&[], &v);
        assert_eq!(got.values, vec![0.0; 16]);
        assert_eq!(got.cycles, 0);
    }
}
