//! Vector kernels and the two GEMV interpretations (Fig. 4 of the paper).
//!
//! A matrix-vector product `(1,k) × (k,n) = (1,n)` can be computed two ways:
//!
//! * **inner product** ([`gemv_inner`]): the whole input vector is dotted
//!   against the matrix column by column — the output is produced element by
//!   element. VEDA uses this for `q × Kᵀ`, mapping the sequence length to
//!   time.
//! * **outer product** ([`gemv_outer`]): one input element at a time is
//!   multiplied against a whole matrix row and accumulated into a partial
//!   output vector. VEDA uses this for `s' × V`, again mapping the sequence
//!   length to time and consuming `s'` element-serially.
//!
//! Both produce bit-identical results up to f32 summation order; property
//! tests in this module check they agree within tolerance.
//!
//! Every inner product in this crate — one query or a batch of them — runs
//! through one tiled kernel, [`gemm_inner_into`], which keeps [`dot`]'s
//! exact k-order sum for every output element (see the crate docs'
//! summation-order section).

use crate::matrix::Matrix;

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch {} vs {}", x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place.
pub fn scale(alpha: f32, x: &mut [f32]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Euclidean norm.
pub fn norm2(x: &[f32]) -> f32 {
    x.iter().map(|v| v * v).sum::<f32>().sqrt()
}

/// Element-wise addition, returning a fresh vector.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "add: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise product (Hadamard), returning a fresh vector.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn hadamard(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "hadamard: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).collect()
}

/// Inner-product GEMV against the **rows** of `m`: `out[i] = q · m.row(i)`.
///
/// This computes `q × mᵀ` — exactly the attention-score kernel
/// `q × Kᵀ = s` with `m = K` stored in `(l, d)` format. Each output element
/// consumes one `(1, d)` row of `m`; the row count (sequence length) is free
/// to vary, which is the "flexible" dimension of the inner-product
/// interpretation.
///
/// # Panics
///
/// Panics if `q.len() != m.cols()`.
///
/// ```
/// use veda_tensor::{Matrix, ops::gemv_inner};
/// let k = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 0.5]]);
/// assert_eq!(gemv_inner(&[2.0, 4.0], &k), vec![2.0, 3.0]);
/// ```
pub fn gemv_inner(q: &[f32], m: &Matrix) -> Vec<f32> {
    let mut out = Vec::new();
    gemv_inner_into(q, m, &mut out);
    out
}

/// Outer-product GEMV against the rows of `m`: `out = Σ_i s[i] · m.row(i)`.
///
/// This computes `s × m` — exactly the attention-output kernel
/// `s' × V = o` with `m = V` stored in `(l, d)` format. Each step consumes one
/// scalar of `s` and one `(1, d)` row of `m`, accumulating a partial output of
/// the final size; the row count is again the flexible dimension.
///
/// # Panics
///
/// Panics if `s.len() != m.rows()`.
///
/// ```
/// use veda_tensor::{Matrix, ops::gemv_outer};
/// let v = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// assert_eq!(gemv_outer(&[0.25, 0.75], &v), vec![0.25, 0.75]);
/// ```
pub fn gemv_outer(s: &[f32], m: &Matrix) -> Vec<f32> {
    assert_eq!(s.len(), m.rows(), "gemv_outer: s length {} vs matrix rows {}", s.len(), m.rows());
    let mut out = vec![0.0; m.cols()];
    for (i, &si) in s.iter().enumerate() {
        axpy(si, m.row(i), &mut out);
    }
    out
}

/// In-place variant of [`gemv_inner`]: writes `q × mᵀ` into `out`,
/// reusing its allocation (the vector is cleared and refilled; capacity is
/// retained across calls). The single-row case of [`gemm_inner_into`]:
/// four matrix rows are reduced side by side, each keeping [`dot`]'s
/// summation order.
///
/// This is the allocation-free kernel of the decode hot path
/// (`ForwardScratch` in `veda-model` threads reusable buffers through it).
///
/// # Panics
///
/// Panics if `q.len() != m.cols()`.
pub fn gemv_inner_into(q: &[f32], m: &Matrix, out: &mut Vec<f32>) {
    assert_eq!(q.len(), m.cols(), "gemv_inner: q length {} vs matrix cols {}", q.len(), m.cols());
    // One row is its own lane-major form, so the pack buffer stays unused
    // (and `Vec::new` does not allocate).
    gemm_inner_into(q, m, &mut Vec::new(), out);
}

/// Matrix rows one tile of [`gemm_inner_into`] reduces side by side.
const INNER_TILE_ROWS: usize = 4;

/// Input rows one pass of [`gemm_inner_into`] over the matrix serves.
const INNER_MAX_LANES: usize = 8;

/// Batched inner-product GEMM against the **rows** of `m`:
/// `out[s·n + i] = xs[s·k..(s+1)·k] · m.row(i)` for the `S = xs.len() / k`
/// input rows packed in `xs` (`k = m.cols()`, `n = m.rows()`), i.e.
/// `X × mᵀ` with `X` and `out` row-major. With `m` the tied embedding this
/// is the LM head of `S` sessions that share one stream of the weights.
///
/// Every output element is **bit-identical** to [`dot`] of its input row
/// and matrix row: the kernel is fast because independent outputs advance
/// side by side — 4 matrix rows × up to 8 input rows per tile, the input
/// rows interleaved in `pack` so one load feeds a vector of them — and
/// never because one reduction is split or reordered. More than 8 input
/// rows take one pass over `m` per 8.
///
/// `pack` and `out` are reused: cleared and refilled, capacity retained. A
/// zero-column matrix yields an empty `out`, as [`Matrix::iter_rows`] then
/// yields no rows.
///
/// # Panics
///
/// Panics if `xs.len()` is not a multiple of `m.cols()`.
///
/// ```
/// use veda_tensor::{Matrix, ops::gemm_inner_into};
/// let k = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 0.5]]);
/// let (mut pack, mut out) = (Vec::new(), Vec::new());
/// gemm_inner_into(&[2.0, 4.0, 1.0, 1.0], &k, &mut pack, &mut out);
/// assert_eq!(out, vec![2.0, 3.0, 1.0, 1.0]);
/// ```
pub fn gemm_inner_into(xs: &[f32], m: &Matrix, pack: &mut Vec<f32>, out: &mut Vec<f32>) {
    let (n, k) = (m.rows(), m.cols());
    out.clear();
    if k == 0 {
        return;
    }
    assert_eq!(xs.len() % k, 0, "gemm_inner: input length {} vs matrix cols {k}", xs.len());
    out.resize(xs.len() / k * n, 0.0);
    if n == 0 {
        return;
    }
    for (group, out) in xs.chunks(INNER_MAX_LANES * k).zip(out.chunks_mut(INNER_MAX_LANES * n)) {
        match group.len() / k {
            1 => inner_lanes::<1>(group.as_chunks().0, m, out),
            2 => inner_lanes::<2>(pack_lanes(group, k, pack), m, out),
            3 | 4 => inner_lanes::<4>(pack_lanes(group, k, pack), m, out),
            _ => inner_lanes::<INNER_MAX_LANES>(pack_lanes(group, k, pack), m, out),
        }
    }
}

/// Interleaves up to `L` input rows of `k` features into `pack` as `k`
/// vectors of `L` lanes (`pack[j][l] = rows[l][j]`), unused lanes zero.
fn pack_lanes<'a, const L: usize>(rows: &[f32], k: usize, pack: &'a mut Vec<f32>) -> &'a [[f32; L]] {
    pack.clear();
    pack.resize(k * L, 0.0);
    for (lane, row) in rows.chunks_exact(k).enumerate() {
        for (slot, &x) in pack.iter_mut().skip(lane).step_by(L).zip(row) {
            *slot = x;
        }
    }
    pack.as_chunks().0
}

/// One pass over `m` for up to `L` interleaved input rows `xt`: `out` holds
/// one row of `m.rows()` results per *real* input row, so the zero lanes
/// padding `xt` are computed and dropped.
fn inner_lanes<const L: usize>(xt: &[[f32; L]], m: &Matrix, out: &mut [f32]) {
    let mut out_rows = out.chunks_exact_mut(m.rows());
    let mut cursors: [_; L] =
        std::array::from_fn(|_| out_rows.next().map(|row| row.chunks_mut(INNER_TILE_ROWS)));
    let mut rows = m.iter_rows().peekable();
    while rows.peek().is_some() {
        // The last tile of a row count that is not a multiple of the tile
        // repeats its final row; the repeats' results are never stored.
        let mut last: &[f32] = &[];
        let tile: [&[f32]; INNER_TILE_ROWS] = std::array::from_fn(|_| {
            last = rows.next().unwrap_or(last);
            last
        });
        let acc = inner_tile(xt, tile);
        for (lane, cursor) in cursors.iter_mut().enumerate() {
            let Some(dst) = cursor.as_mut().and_then(Iterator::next) else { continue };
            for (d, row_acc) in dst.iter_mut().zip(&acc) {
                *d = row_acc[lane];
            }
        }
    }
}

/// The register tile: `acc[r][l] = Σ_j xt[j][l] · rows[r][j]`, each sum
/// started from `Sum for f32`'s identity and accumulated in ascending `j`
/// exactly as [`dot`] does. The `INNER_TILE_ROWS × L` accumulators are
/// independent, which is all the instruction-level and SIMD parallelism
/// the kernel has.
#[inline]
fn inner_tile<const L: usize>(
    xt: &[[f32; L]],
    rows: [&[f32]; INNER_TILE_ROWS],
) -> [[f32; L]; INNER_TILE_ROWS] {
    let [r0, r1, r2, r3] = rows;
    let mut acc = [[std::iter::empty::<f32>().sum(); L]; INNER_TILE_ROWS];
    for ((((x, &e0), &e1), &e2), &e3) in xt.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
        for (row_acc, e) in acc.iter_mut().zip([e0, e1, e2, e3]) {
            for (a, &xl) in row_acc.iter_mut().zip(x) {
                *a += xl * e;
            }
        }
    }
    acc
}

/// In-place variant of [`gemv_outer`]: accumulates `Σ_i s[i] · m.row(i)`
/// into `out`, reusing its allocation. Bit-identical to [`gemv_outer`] —
/// rows are accumulated in the same order.
///
/// # Panics
///
/// Panics if `s.len() != m.rows()`.
pub fn gemv_outer_into(s: &[f32], m: &Matrix, out: &mut Vec<f32>) {
    assert_eq!(s.len(), m.rows(), "gemv_outer: s length {} vs matrix rows {}", s.len(), m.rows());
    out.clear();
    out.resize(m.cols(), 0.0);
    for (i, &si) in s.iter().enumerate() {
        axpy(si, m.row(i), out);
    }
}

/// Maximum absolute difference between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known_value() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(0.5, &mut x);
        assert_eq!(x, vec![0.5, -1.0]);
    }

    #[test]
    fn inner_and_outer_agree_on_square() {
        // q × Mᵀ via inner == Mᵀ applied via outer on the transposed matrix.
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let q = [0.5, -1.0];
        let inner = gemv_inner(&q, &m); // q · each row => q × Mᵀ, len 3
        let outer = gemv_outer(&q, &m.transposed()); // q × Mᵀ via outer
        assert!(max_abs_diff(&inner, &outer) < 1e-6);
    }

    #[test]
    fn into_variants_match_allocating_kernels_bit_for_bit() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[3.0, -4.0, 0.25], &[5.0, 6.0, -0.125]]);
        let q = [0.5, -1.0, 2.0];
        let mut out = vec![9.0; 7]; // stale content must be overwritten
        gemv_inner_into(&q, &m, &mut out);
        assert_eq!(out, m.iter_rows().map(|row| dot(&q, row)).collect::<Vec<_>>());
        assert_eq!(out, gemv_inner(&q, &m));
        gemv_outer_into(&q, &m, &mut out);
        assert_eq!(out, gemv_outer(&q, &m));
        // Reuse without reallocation once capacity is warm.
        let cap = out.capacity();
        gemv_outer_into(&q, &m, &mut out);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn norm2_of_pythagorean_triple() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn hadamard_and_add() {
        assert_eq!(hadamard(&[1.0, 2.0], &[3.0, 4.0]), vec![3.0, 8.0]);
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
