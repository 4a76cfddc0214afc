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
//! Every inner product in this crate — one query or a batch of them, whole
//! rows ([`gemm_inner_into`]) or one head's column span of a causal prefix
//! of them ([`gemm_inner_span_into`]) — runs through one register tile,
//! which keeps [`dot`]'s exact k-order sum for every output element. Every outer
//! product keeps its outputs in registers while the rows stream past:
//! [`gemm_outer_into`] (and its one-row call [`gemv_outer_into`]) four
//! matrix rows per pass over every input row's wide output,
//! [`gemv_outer_span_into`] all rows per narrow tile of one (see the crate
//! docs' summation-order section).

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
    let mut out = Vec::new();
    gemv_outer_into(s, m, &mut out);
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

/// Matrix rows one tile of the inner-product kernels reduces side by side.
const INNER_TILE_ROWS: usize = 4;

/// Input rows one pass of [`gemm_inner_into`] or [`gemm_inner_span_into`]
/// over the matrix serves: the widest lane count of the register tile.
pub const INNER_MAX_LANES: usize = 8;

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
        inner_pass(group.chunks_exact(k), group.len() / k, k, pack, m.iter_rows(), out.chunks_exact_mut(n));
    }
}

/// One pass over `rows` for the `lanes ≤ 8` input rows `xs` of `k` features
/// each, dispatched to the narrowest register tile that holds them. One
/// row is its own lane-major form, so it is never packed.
fn inner_pass<'x, 'r, 'o>(
    mut xs: impl Iterator<Item = &'x [f32]>,
    lanes: usize,
    k: usize,
    pack: &mut Vec<f32>,
    rows: impl Iterator<Item = &'r [f32]>,
    outs: impl Iterator<Item = &'o mut [f32]>,
) {
    match lanes {
        1 => inner_lanes::<1>(xs.next().unwrap_or_default().as_chunks().0, rows, outs),
        2 => inner_lanes::<2>(pack_lanes(xs, k, pack), rows, outs),
        3 | 4 => inner_lanes::<4>(pack_lanes(xs, k, pack), rows, outs),
        _ => inner_lanes::<INNER_MAX_LANES>(pack_lanes(xs, k, pack), rows, outs),
    }
}

/// Interleaves up to `L` input rows of `k` features into `pack` as `k`
/// vectors of `L` lanes (`pack[j][l] = rows[l][j]`), unused lanes zero.
fn pack_lanes<'a, 'x, const L: usize>(
    rows: impl Iterator<Item = &'x [f32]>,
    k: usize,
    pack: &'a mut Vec<f32>,
) -> &'a [[f32; L]] {
    pack.clear();
    pack.resize(k * L, 0.0);
    for (lane, row) in rows.enumerate() {
        for (slot, &x) in pack.iter_mut().skip(lane).step_by(L).zip(row) {
            *slot = x;
        }
    }
    pack.as_chunks().0
}

/// One pass over `rows` for up to `L` interleaved input rows `xt`: each
/// *real* input row owns one slice of `outs` and receives its products
/// with the leading rows of `rows`, as many as the slice is long — so the
/// zero lanes padding `xt`, and whatever a lane's tile computes past the
/// end of its slice, are computed and dropped. The pass ends with the
/// longest slice.
fn inner_lanes<'r, 'o, const L: usize>(
    xt: &[[f32; L]],
    mut rows: impl Iterator<Item = &'r [f32]>,
    mut outs: impl Iterator<Item = &'o mut [f32]>,
) {
    let mut longest = 0;
    let mut cursors: [_; L] = std::array::from_fn(|_| {
        outs.next().map(|out| {
            longest = longest.max(out.len());
            out.chunks_mut(INNER_TILE_ROWS)
        })
    });
    for _ in 0..longest.div_ceil(INNER_TILE_ROWS) {
        let acc = inner_tile(xt, next_tile(&mut rows));
        for (lane, cursor) in cursors.iter_mut().enumerate() {
            let Some(dst) = cursor.as_mut().and_then(Iterator::next) else { continue };
            // The lane's results by value, a whole tile in one store: a
            // copy loop out of `acc` itself compiles to a `memcpy` call of
            // at most 16 bytes per tile (measured: one lane 12–25 % slower).
            let column = acc.map(|row_acc| row_acc[lane]);
            match dst.first_chunk_mut() {
                Some(tile) => *tile = column,
                None => dst.iter_mut().zip(column).for_each(|(d, a)| *d = a),
            }
        }
    }
}

/// The next [`INNER_TILE_ROWS`] of `rows`. The last tile of a row count
/// that is not a multiple of the tile repeats its final row; the repeats'
/// results are never stored.
fn next_tile<'a>(rows: &mut impl Iterator<Item = &'a [f32]>) -> [&'a [f32]; INNER_TILE_ROWS] {
    let mut last: &[f32] = &[];
    std::array::from_fn(|_| {
        last = rows.next().unwrap_or(last);
        last
    })
}

/// Inner-product GEMV against one **column span** of the rows of `m`:
/// `out[i] = q · m.row(i)[col..col + q.len()]`, written into a pre-sized
/// `out` of `m.rows()` elements. With `m = K` in `(l, d)` format and the
/// span one head's columns this is that head's `q × Kᵀ` for one query —
/// the one-lane call of [`gemm_inner_span_into`] over every row.
///
/// # Panics
///
/// Panics if the span exceeds the matrix width or `out.len() != m.rows()`.
///
/// ```
/// use veda_tensor::{Matrix, ops::gemv_inner_span_into};
/// let k = Matrix::from_rows(&[&[9.0, 1.0, 0.0], &[9.0, 0.5, 0.5]]);
/// let mut s = [0.0; 2];
/// gemv_inner_span_into(&[2.0, 4.0], &k, 1, &mut s);
/// assert_eq!(s, [2.0, 3.0]);
/// ```
pub fn gemv_inner_span_into(q: &[f32], m: &Matrix, col: usize, out: &mut [f32]) {
    assert_eq!(out.len(), m.rows(), "gemv_inner: out length {} vs matrix rows {}", out.len(), m.rows());
    // One lane is its own lane-major form, so the pack buffer stays unused
    // (and `Vec::new` does not allocate).
    gemm_inner_span_into(&mut [(q, out)], m, col, &mut Vec::new());
}

/// Inner-product GEMM against one **column span** of the leading rows of
/// `m`, one causal prefix per lane: for each lane `(q, out)`,
/// `out[i] = q · m.row(i)[col..col + q.len()]` for `i < out.len()`. With
/// `m = K` in `(l, d)` format, the span one head's columns and the lanes
/// consecutive rows of one prefill chunk — lane `r` attending over the
/// `l0 + r + 1` rows resident when it was appended — this is that head's
/// `q × Kᵀ` of the whole group in **one** pass over the keys: the sequence
/// length streams past `INNER_TILE_ROWS × lanes` accumulators at a time,
/// the queries interleaved in `pack` so one load feeds a vector of them,
/// each accumulator **bit-identical** to [`dot`] of its query and its
/// row's span. A lane stores only its own prefix; what its tile computes
/// past it is dropped, and the pass ends with the longest prefix.
///
/// `pack` is reused: cleared and refilled, capacity retained; one lane —
/// a decode row's `q × Kᵀ` — is its own lane-major form and never touches
/// it. No lanes is no work.
///
/// # Panics
///
/// Panics if there are more than [`INNER_MAX_LANES`] lanes, the queries
/// differ in length, the span exceeds the matrix width or a prefix is
/// longer than `m.rows()`.
///
/// ```
/// use veda_tensor::{Matrix, ops::gemm_inner_span_into};
/// let k = Matrix::from_rows(&[&[9.0, 1.0, 0.0], &[9.0, 0.5, 0.5]]);
/// let (mut first, mut second) = ([0.0; 1], [0.0; 2]);
/// let mut lanes = [(&[2.0, 4.0][..], &mut first[..]), (&[1.0, 1.0][..], &mut second[..])];
/// gemm_inner_span_into(&mut lanes, &k, 1, &mut Vec::new());
/// assert_eq!((first, second), ([2.0], [1.0, 1.0]));
/// ```
pub fn gemm_inner_span_into(lanes: &mut [(&[f32], &mut [f32])], m: &Matrix, col: usize, pack: &mut Vec<f32>) {
    assert!(lanes.len() <= INNER_MAX_LANES, "gemm_inner: {} lanes vs at most {INNER_MAX_LANES}", lanes.len());
    // The queries are copied out so the outputs can be borrowed next.
    let mut qs: [&[f32]; INNER_MAX_LANES] = Default::default();
    for (slot, (q, _)) in qs.iter_mut().zip(lanes.iter()) {
        *slot = q;
    }
    let [first, ..] = qs;
    let width = first.len();
    assert!(col + width <= m.cols(), "gemm_inner: span {col}+{width} vs matrix cols {}", m.cols());
    for (q, out) in lanes.iter() {
        assert_eq!(q.len(), width, "gemm_inner: query length {} vs {width}", q.len());
        assert!(out.len() <= m.rows(), "gemm_inner: prefix {} vs matrix rows {}", out.len(), m.rows());
    }
    let spans = m.iter_rows().map(move |row| row.split_at(col).1.split_at(width).0);
    let queries = qs.into_iter().take(lanes.len());
    inner_pass(queries, lanes.len(), width, pack, spans, lanes.iter_mut().map(|(_, out)| &mut **out));
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

/// Matrix rows one pass of [`gemm_outer_into`] over the outputs consumes.
const OUTER_BLOCK_ROWS: usize = 4;

/// In-place variant of [`gemv_outer`]: accumulates `Σ_i s[i] · m.row(i)`
/// into `out`, reusing its allocation — the one-row call of
/// [`gemm_outer_into`], so every output is the sum
/// `(((0 + s[0]·m[0][j]) + s[1]·m[1][j]) + …)` in ascending `i`, the order
/// of one [`axpy`] per row.
///
/// # Panics
///
/// Panics if `s.len() != m.rows()`.
pub fn gemv_outer_into(s: &[f32], m: &Matrix, out: &mut Vec<f32>) {
    assert_eq!(s.len(), m.rows(), "gemv_outer: s length {} vs matrix rows {}", s.len(), m.rows());
    gemm_outer_into(s, 1, m, out);
}

/// Batched outer-product GEMM against the rows of `m`:
/// `out[r·n + j] = Σ_i xs[r·k + i] · m.row(i)[j]` for the `rows` input rows
/// packed in `xs` (`k = m.rows()`, `n = m.cols()`), i.e. `X × m` with `X`
/// and `out` row-major. With `m` a layer's weight matrix this is a linear
/// layer of `rows` tokens that share one stream of the weights.
///
/// Every output is **bit-identical** to one [`axpy`] per matrix row, in
/// ascending `i`, into a zeroed output row: the matrix is consumed four
/// rows at a time, and per block *every* input row's output row takes its
/// four adds — each output loaded and stored once per block, its running
/// sum in a register in between — before the next block is touched. The
/// block is therefore read from memory once and from L1 for every further
/// input row; no reduction is split or reordered, and input rows never
/// meet.
///
/// The row count is explicit because an empty reduction (`k = 0`) leaves
/// no input elements to count: it yields `rows` rows of `+0.0`, what
/// zeroed outputs that no [`axpy`] touched hold. `out` is reused: cleared
/// and refilled, capacity retained.
///
/// # Panics
///
/// Panics if `xs.len() != rows * m.rows()`.
///
/// ```
/// use veda_tensor::{Matrix, ops::gemm_outer_into};
/// let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
/// let mut out = Vec::new();
/// gemm_outer_into(&[0.25, 0.75, 1.0, 1.0], 2, &w, &mut out);
/// assert_eq!(out, vec![0.25, 1.5, 1.0, 2.0]);
/// ```
pub fn gemm_outer_into(xs: &[f32], rows: usize, m: &Matrix, out: &mut Vec<f32>) {
    let (k, cols) = (m.rows(), m.cols());
    assert_eq!(xs.len(), rows * k, "gemm_outer: input length {} vs {rows} rows of {k}", xs.len());
    out.clear();
    out.resize(rows * cols, 0.0);
    if k == 0 || cols == 0 {
        return;
    }
    let mut blocks = m.as_slice().chunks_exact(OUTER_BLOCK_ROWS * cols);
    let mut done = 0;
    for block in &mut blocks {
        let (r0, block) = block.split_at(cols);
        let (r1, block) = block.split_at(cols);
        let (r2, r3) = block.split_at(cols);
        // Every input row holds `k > done + 3` elements, so `map_while`
        // never stops early.
        let coeffs = xs.chunks_exact(k).map_while(|x| x.split_at(done).1.first_chunk::<OUTER_BLOCK_ROWS>());
        for (&[s0, s1, s2, s3], out_row) in coeffs.zip(out.chunks_exact_mut(cols)) {
            for ((((o, &e0), &e1), &e2), &e3) in out_row.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
                let mut acc = *o;
                acc += s0 * e0;
                acc += s1 * e1;
                acc += s2 * e2;
                acc += s3 * e3;
                *o = acc;
            }
        }
        done += OUTER_BLOCK_ROWS;
    }
    let tail = blocks.remainder();
    for (x, out_row) in xs.chunks_exact(k).zip(out.chunks_exact_mut(cols)) {
        for (&si, row) in x.split_at(done).1.iter().zip(tail.chunks_exact(cols)) {
            axpy(si, row, out_row);
        }
    }
}

/// Outer-product GEMV into one **column span** of the leading rows of `m`:
/// `out[j] = Σ_i s[i] · m.row(i)[col + j]` over `i < s.len()`. With `m = V`
/// in `(l, d)` format and the span one head's columns this is that head's
/// `s' × V` — over a causal prefix of `V` when `s` is shorter than the
/// matrix, as the score vector of a prefill chunk's earlier row is: the
/// span is cut into power-of-two register tiles, widest first, and each
/// tile stays in registers while **all** of those rows stream past it —
/// rows added in ascending order from `+0.0`, so every output is
/// bit-identical to one [`axpy`] per row into a zeroed `out`.
///
/// # Panics
///
/// Panics if `s.len() > m.rows()` or the span exceeds the matrix width.
///
/// ```
/// use veda_tensor::{Matrix, ops::gemv_outer_span_into};
/// let v = Matrix::from_rows(&[&[9.0, 1.0, 0.0], &[9.0, 0.0, 1.0]]);
/// let mut o = [7.0; 2];
/// gemv_outer_span_into(&[0.25, 0.75], &v, 1, &mut o);
/// assert_eq!(o, [0.25, 0.75]);
/// ```
pub fn gemv_outer_span_into(s: &[f32], m: &Matrix, col: usize, out: &mut [f32]) {
    assert!(s.len() <= m.rows(), "gemv_outer: s length {} vs matrix rows {}", s.len(), m.rows());
    assert!(col + out.len() <= m.cols(), "gemv_outer: span {col}+{} vs matrix cols {}", out.len(), m.cols());
    let mut col = col;
    let out = outer_tiles::<32>(s, m, &mut col, out);
    let out = outer_tiles::<16>(s, m, &mut col, out);
    let out = outer_tiles::<8>(s, m, &mut col, out);
    let out = outer_tiles::<4>(s, m, &mut col, out);
    let out = outer_tiles::<2>(s, m, &mut col, out);
    outer_tiles::<1>(s, m, &mut col, out);
}

/// Fills every whole `W`-column tile of `out` with `Σ_i s[i] · m.row(i)`
/// over the columns from `*col` on, advancing `*col` past them, and
/// returns the columns of `out` left over. The `W` accumulators are
/// independent, which is all the parallelism the kernel has: each waits
/// on its own previous row's add, so a tile must be wide enough (16
/// columns, 4 SSE registers, measured) to keep the adder busy meanwhile.
fn outer_tiles<'o, const W: usize>(
    s: &[f32],
    m: &Matrix,
    col: &mut usize,
    out: &'o mut [f32],
) -> &'o mut [f32] {
    let (tiles, rest) = out.as_chunks_mut::<W>();
    for tile in tiles {
        // Every row holds the whole span (checked by the caller), so
        // `map_while` never stops early.
        let spans = m.iter_rows().map_while(|row| row.split_at(*col).1.first_chunk::<W>());
        let mut acc = [0.0f32; W];
        for (&si, span) in s.iter().zip(spans) {
            for (a, &e) in acc.iter_mut().zip(span) {
                *a += si * e;
            }
        }
        *tile = acc;
        *col += W;
    }
    rest
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
        let mut want = vec![0.0; 3];
        for (&qi, row) in q.iter().zip(m.iter_rows()) {
            axpy(qi, row, &mut want);
        }
        assert_eq!(out, want);
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
