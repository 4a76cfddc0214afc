//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use veda_tensor::norm::StreamingMoments;
use veda_tensor::softmax::{log_softmax, softmax};
use veda_tensor::{ops, Matrix, OnlineSoftmax};

fn finite_f32() -> impl Strategy<Value = f32> {
    (-50.0f32..50.0).prop_map(|x| x)
}

fn vec_f32(len: impl Into<proptest::collection::SizeRange>) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(finite_f32(), len)
}

/// Asserts two result vectors are equal bit for bit. Two NaNs count as
/// equal whatever their payloads: which operand's payload an f32 add or
/// multiply propagates is the compiler's choice of operand order, not a
/// property of the sum.
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{what}: output {i} is {got:?}, reference {want:?}",
        );
    }
}

/// Asserts `gemm_inner_into` of the `(S, k)` rows `xs` against `m` equals
/// per-row `ops::dot` bit for bit.
fn assert_gemm_matches_dot(xs: &[f32], m: &Matrix, pack: &mut Vec<f32>, out: &mut Vec<f32>) {
    ops::gemm_inner_into(xs, m, pack, out);
    let want: Vec<f32> =
        xs.chunks_exact(m.cols()).flat_map(|x| m.iter_rows().map(move |row| ops::dot(x, row))).collect();
    assert_same_bits(
        out,
        &want,
        &format!("{} input row(s) x {} matrix row(s)", xs.len() / m.cols(), m.rows()),
    );
}

/// Asserts the two span kernels on columns `col..col + width` of `m` equal
/// references built from `ops::dot` and `ops::axpy` alone: one `dot` per
/// row, and one `axpy` per row, in ascending order, into zeros.
fn assert_span_kernels_match_dot_and_axpy(q: &[f32], s: &[f32], m: &Matrix, col: usize) {
    let width = q.len();
    let what = format!("{} rows, columns {col}..{} of {}", m.rows(), col + width, m.cols());
    let mut scores = vec![7.0; m.rows()]; // stale content must be overwritten
    ops::gemv_inner_span_into(q, m, col, &mut scores);
    let want: Vec<f32> = (0..m.rows()).map(|row| ops::dot(q, &m.row(row)[col..col + width])).collect();
    assert_same_bits(&scores, &want, &format!("inner span, {what}"));

    // Over every row, and over a leading prefix of them (the score vector
    // of a chunk's earlier row): one `axpy` per row of the prefix.
    for prefix in [s.len(), s.len() / 2] {
        let mut out = vec![7.0; width];
        ops::gemv_outer_span_into(&s[..prefix], m, col, &mut out);
        let mut want = vec![0.0; width];
        for (&si, row) in s[..prefix].iter().zip(m.iter_rows()) {
            ops::axpy(si, &row[col..col + width], &mut want);
        }
        assert_same_bits(&out, &want, &format!("outer span over {prefix} leading rows, {what}"));
    }
}

/// Asserts `gemm_inner_span_into` of the queries `qs` (one lane each, lane
/// `i` over the leading `prefixes[i]` rows of `m`) on columns
/// `col..col + width` equals one `ops::dot` per (lane, row) bit for bit,
/// and leaves everything past a lane's prefix alone.
fn assert_lane_spans_match_dot(
    qs: &[Vec<f32>],
    prefixes: &[usize],
    m: &Matrix,
    col: usize,
    pack: &mut Vec<f32>,
) {
    let width = qs.first().map_or(0, Vec::len);
    let mut outs: Vec<Vec<f32>> = prefixes.iter().map(|&l| vec![7.0; l + 2]).collect(); // stale content
    let mut lanes: Vec<(&[f32], &mut [f32])> =
        qs.iter().zip(&mut outs).zip(prefixes).map(|((q, out), &l)| (&q[..], &mut out[..l])).collect();
    ops::gemm_inner_span_into(&mut lanes, m, col, pack);
    for (lane, ((q, out), &l)) in qs.iter().zip(&outs).zip(prefixes).enumerate() {
        let want: Vec<f32> = (0..l).map(|row| ops::dot(q, &m.row(row)[col..col + width])).collect();
        let what = format!(
            "lane {lane} of {prefixes:?} over {} rows, columns {col}..{} of {}",
            m.rows(),
            col + width,
            m.cols()
        );
        assert_same_bits(&out[..l], &want, &what);
        assert_eq!(out[l..], [7.0; 2], "{what}: wrote past its prefix");
    }
}

/// Asserts `gemv_outer_into` (and its allocating wrapper) equals one
/// `ops::axpy` per matrix row, in ascending order, into zeros.
fn assert_gemv_outer_matches_axpy(s: &[f32], m: &Matrix, out: &mut Vec<f32>) {
    ops::gemv_outer_into(s, m, out);
    let mut want = vec![0.0; m.cols()];
    for (&si, row) in s.iter().zip(m.iter_rows()) {
        ops::axpy(si, row, &mut want);
    }
    assert_same_bits(out, &want, &format!("gemv_outer_into {}x{}", m.rows(), m.cols()));
    assert_same_bits(&ops::gemv_outer(s, m), &want, "gemv_outer");
}

/// Asserts `gemm_outer_into` of the `rows` input rows packed in `xs`
/// equals, row by row, one `ops::axpy` per matrix row, in ascending order,
/// into zeros.
fn assert_gemm_outer_matches_axpy(xs: &[f32], rows: usize, m: &Matrix, out: &mut Vec<f32>) {
    ops::gemm_outer_into(xs, rows, m, out);
    let (k, cols) = (m.rows(), m.cols());
    let mut want = vec![0.0; rows * cols];
    for r in 0..rows {
        for (&xi, row) in xs[r * k..(r + 1) * k].iter().zip(m.iter_rows()) {
            ops::axpy(xi, row, &mut want[r * cols..(r + 1) * cols]);
        }
    }
    assert_same_bits(out, &want, &format!("gemm_outer_into {rows} input row(s) x {k}x{cols}"));
}

const SPECIALS: [f32; 7] = [-0.0, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.5, -2.25];

/// `len` normal draws; with `specials: Some(phase)` every fifth element
/// (offset by `phase`) is replaced by the next of [`SPECIALS`].
fn draw(rng: &mut rand::rngs::StdRng, len: usize, specials: Option<usize>) -> Vec<f32> {
    let mut xs = veda_tensor::rng::normal_vec(rng, len, 1.0);
    if let Some(phase) = specials {
        for (i, x) in xs.iter_mut().enumerate().skip(phase % 5).step_by(5) {
            *x = SPECIALS[i % SPECIALS.len()];
        }
    }
    xs
}

#[test]
fn span_kernels_keep_dot_and_axpy_bits_over_every_tile_remainder() {
    // Head widths on both sides of every power-of-two column tile, row
    // counts on both sides of the 4-row tile plus one long stream, every
    // head of 1..=3; the second pass sprinkles ±0.0 / NaN / ±∞ everywhere.
    let mut rng = veda_tensor::rng::seeded(17);
    for specials in [false, true] {
        for width in [2usize, 6, 8, 10, 16, 24, 32] {
            for heads in 1..=3 {
                for l in (0..=13).chain([1003]) {
                    let mut draw = |len, phase| draw(&mut rng, len, specials.then_some(phase));
                    let m = Matrix::from_vec(l, heads * width, draw(l * heads * width, l)).unwrap();
                    let (q, s) = (draw(width, 1), draw(l, 2));
                    for head in 0..heads {
                        assert_span_kernels_match_dot_and_axpy(&q, &s, &m, head * width);
                    }
                }
            }
        }
    }
    // An all-negative-zero reduction stays what `dot` makes of it, and an
    // empty span of a zero-column matrix is `dot` of nothing.
    let zeros = Matrix::from_vec(5, 8, vec![0.0; 40]).unwrap();
    assert_span_kernels_match_dot_and_axpy(&[-0.0; 8], &[-0.0; 5], &zeros, 0);
    assert_span_kernels_match_dot_and_axpy(&[], &[1.0; 4], &Matrix::zeros(4, 0), 0);
}

/// Per-lane prefix lengths over `rows` matrix rows for `lanes` lanes: all
/// empty, all one, all equal at a non-multiple of the 4-row tile, all the
/// whole matrix, the causal stagger `l0 + r + 1` ending on the last row,
/// and a ragged mix whose longest lane is not the last.
fn prefix_shapes(lanes: usize, rows: usize) -> Vec<Vec<usize>> {
    let stagger: Vec<usize> = (0..lanes).map(|r| (rows + r + 1).saturating_sub(lanes)).collect();
    let ragged: Vec<usize> = (0..lanes).map(|r| (r * 5 + 3) % (rows + 1)).collect();
    vec![
        vec![0; lanes],
        vec![1.min(rows); lanes],
        vec![rows.min(6); lanes],
        vec![rows; lanes],
        stagger,
        ragged,
    ]
}

#[test]
fn lane_span_kernel_keeps_dot_bits_for_every_lane_count_and_causal_prefix() {
    // Every lane count of every register tile (1, 2, 3–4, 5–8), head
    // widths on both sides of a vector, every head of 1..=3 as the column
    // offset, row counts on both sides of the 4-row tile plus one long
    // stream; the second pass sprinkles ±0.0 / NaN / ±∞ everywhere.
    let mut rng = veda_tensor::rng::seeded(31);
    let mut pack = vec![7.0; 5]; // stale content must be overwritten
    for specials in [false, true] {
        for width in [2usize, 6, 8, 16, 32] {
            for heads in 1..=3 {
                for l in [0usize, 1, 2, 5, 8, 13, 203] {
                    let mut draw = |len, phase| draw(&mut rng, len, specials.then_some(phase));
                    let m = Matrix::from_vec(l, heads * width, draw(l * heads * width, l)).unwrap();
                    for lanes in 1..=ops::INNER_MAX_LANES {
                        let qs: Vec<Vec<f32>> = (0..lanes).map(|lane| draw(width, lane)).collect();
                        for prefixes in prefix_shapes(lanes, l) {
                            assert_lane_spans_match_dot(&qs, &prefixes, &m, (heads - 1) * width, &mut pack);
                        }
                    }
                }
            }
        }
    }
    // An all-negative-zero reduction stays what `dot` makes of it in every
    // lane width, an empty span of a zero-column matrix is `dot` of
    // nothing, and no lanes is no work.
    let zeros = Matrix::from_vec(5, 8, vec![0.0; 40]).unwrap();
    for lanes in 1..=ops::INNER_MAX_LANES {
        assert_lane_spans_match_dot(&vec![vec![-0.0; 8]; lanes], &vec![5; lanes], &zeros, 0, &mut pack);
        assert_lane_spans_match_dot(
            &vec![vec![]; lanes],
            &vec![4; lanes],
            &Matrix::zeros(4, 0),
            0,
            &mut pack,
        );
    }
    assert_lane_spans_match_dot(&[], &[], &zeros, 3, &mut pack);
    // Reuse without reallocation once the pack buffer is warm; one lane
    // never touches it.
    let m = Matrix::from_vec(9, 16, draw(&mut rng, 9 * 16, None)).unwrap();
    let qs: Vec<Vec<f32>> = (0..8).map(|_| draw(&mut rng, 16, None)).collect();
    assert_lane_spans_match_dot(&qs, &[2, 3, 4, 5, 6, 7, 8, 9], &m, 0, &mut pack);
    let cap = pack.capacity();
    for lanes in [8, 2, 5, 1, 8] {
        assert_lane_spans_match_dot(&qs[..lanes], &[9, 8, 7, 6, 5, 4, 3, 2][..lanes], &m, 0, &mut pack);
    }
    assert_eq!(pack.capacity(), cap, "warm pack buffer must not reallocate");
    let mut untouched = Vec::new();
    assert_lane_spans_match_dot(&qs[..1], &[9], &m, 0, &mut untouched);
    assert_eq!(untouched.capacity(), 0, "one lane is never packed");
}

#[test]
#[should_panic(expected = "gemm_inner: span 5+4 vs matrix cols 8")]
fn lane_span_kernel_rejects_a_span_past_the_matrix() {
    ops::gemm_inner_span_into(&mut [(&[0.0; 4], &mut [0.0; 2])], &Matrix::zeros(3, 8), 5, &mut Vec::new());
}

#[test]
#[should_panic(expected = "gemm_inner: prefix 4 vs matrix rows 3")]
fn lane_span_kernel_rejects_a_prefix_longer_than_the_matrix() {
    let (mut short, mut long) = ([0.0; 3], [0.0; 4]);
    let mut lanes = [(&[0.0; 4][..], &mut short[..]), (&[0.0; 4][..], &mut long[..])];
    ops::gemm_inner_span_into(&mut lanes, &Matrix::zeros(3, 8), 0, &mut Vec::new());
}

#[test]
#[should_panic(expected = "gemm_inner: 9 lanes vs at most 8")]
fn lane_span_kernel_rejects_more_lanes_than_the_tile_holds() {
    let mut outs = [[0.0f32; 1]; 9];
    let mut lanes: Vec<(&[f32], &mut [f32])> =
        outs.iter_mut().map(|out| (&[0.0f32; 2][..], &mut out[..])).collect();
    ops::gemm_inner_span_into(&mut lanes, &Matrix::zeros(3, 2), 0, &mut Vec::new());
}

#[test]
#[should_panic(expected = "gemm_inner: query length 3 vs 4")]
fn lane_span_kernel_rejects_ragged_queries() {
    let (mut a, mut b) = ([0.0; 1], [0.0; 1]);
    let mut lanes = [(&[0.0; 4][..], &mut a[..]), (&[0.0; 3][..], &mut b[..])];
    ops::gemm_inner_span_into(&mut lanes, &Matrix::zeros(3, 8), 0, &mut Vec::new());
}

#[test]
#[should_panic(expected = "gemv_outer: s length 4 vs matrix rows 3")]
fn outer_span_kernel_rejects_more_scores_than_rows() {
    ops::gemv_outer_span_into(&[0.0; 4], &Matrix::zeros(3, 8), 0, &mut [0.0; 2]);
}

#[test]
fn gemv_outer_keeps_axpy_bits_over_every_row_block_remainder() {
    let mut rng = veda_tensor::rng::seeded(23);
    let mut out = vec![7.0; 3]; // stale content must be overwritten
    for specials in [false, true] {
        for rows in 0..=11 {
            for cols in [0usize, 1, 2, 5, 33] {
                let mut draw = |len, phase| draw(&mut rng, len, specials.then_some(phase));
                let m = Matrix::from_vec(rows, cols, draw(rows * cols, rows)).unwrap();
                assert_gemv_outer_matches_axpy(&draw(rows, 1), &m, &mut out);
            }
        }
    }
    // `+0.0 + -0.0·x` keeps the sign the zeroed accumulator started with.
    assert_gemv_outer_matches_axpy(&[-0.0; 6], &Matrix::from_vec(6, 3, vec![1.0; 18]).unwrap(), &mut out);
    // Reuse without reallocation once capacity is warm.
    let m = Matrix::from_vec(7, 33, draw(&mut rng, 7 * 33, None)).unwrap();
    assert_gemv_outer_matches_axpy(&[0.5; 7], &m, &mut out);
    let cap = out.capacity();
    assert_gemv_outer_matches_axpy(&[0.25; 7], &m, &mut out);
    assert_eq!(out.capacity(), cap, "warm buffer must not reallocate");
}

#[test]
fn gemm_outer_keeps_axpy_bits_over_every_row_block_remainder() {
    // Input-row counts from none to past two 4-row groups, reductions on
    // every remainder of the 4-row weight block (the empty one included),
    // outputs narrower and wider than a vector; the second pass sprinkles
    // ±0.0 / NaN / ±∞ over inputs and weights alike.
    let mut rng = veda_tensor::rng::seeded(29);
    let mut out = vec![7.0; 3]; // stale content must be overwritten
    for specials in [false, true] {
        for rows in 0..=9 {
            for k in 0..=11 {
                for cols in [0usize, 1, 2, 5, 33] {
                    let mut draw = |len, phase| draw(&mut rng, len, specials.then_some(phase));
                    let m = Matrix::from_vec(k, cols, draw(k * cols, k)).unwrap();
                    assert_gemm_outer_matches_axpy(&draw(rows * k, rows), rows, &m, &mut out);
                }
            }
        }
    }
    // `+0.0 + -0.0·x` keeps the sign the zeroed accumulator started with,
    // in every input row.
    let ones = Matrix::from_vec(6, 3, vec![1.0; 18]).unwrap();
    assert_gemm_outer_matches_axpy(&[-0.0; 30], 5, &ones, &mut out);
    // Reuse without reallocation once capacity is warm, fewer rows included.
    let m = Matrix::from_vec(7, 33, draw(&mut rng, 7 * 33, None)).unwrap();
    let xs = draw(&mut rng, 9 * 7, None);
    assert_gemm_outer_matches_axpy(&xs, 9, &m, &mut out);
    let cap = out.capacity();
    for rows in [9, 1, 4, 9] {
        assert_gemm_outer_matches_axpy(&xs[..rows * 7], rows, &m, &mut out);
    }
    assert_eq!(out.capacity(), cap, "warm buffer must not reallocate");
}

#[test]
fn gemm_outer_defines_the_empty_reduction_and_the_empty_batch() {
    let mut out = vec![7.0; 5];
    // No weight rows: every input row is an empty sum, `+0.0` per column.
    ops::gemm_outer_into(&[], 3, &Matrix::zeros(0, 4), &mut out);
    assert_eq!(out.len(), 12);
    assert!(out.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
    // No input rows, no columns: empty outputs, no panic.
    let m = Matrix::from_vec(5, 2, vec![1.0; 10]).unwrap();
    ops::gemm_outer_into(&[], 0, &m, &mut out);
    assert!(out.is_empty());
    ops::gemm_outer_into(&[1.0; 6], 2, &Matrix::zeros(3, 0), &mut out);
    assert!(out.is_empty());
    ops::gemm_outer_into(&[], 0, &Matrix::zeros(0, 0), &mut out);
    assert!(out.is_empty());
    // The one-row entry point is the same kernel.
    ops::gemv_outer_into(&[], &Matrix::zeros(0, 4), &mut out);
    assert_eq!(out, [0.0; 4]);
}

#[test]
#[should_panic(expected = "gemm_outer: input length 7 vs 2 rows of 3")]
fn gemm_outer_rejects_a_ragged_batch() {
    ops::gemm_outer_into(&[0.0; 7], 2, &Matrix::zeros(3, 4), &mut Vec::new());
}

#[test]
fn gemm_inner_keeps_dot_bits_on_signed_zero_nan_and_infinity() {
    // Each special value alone in an otherwise zero row, and whole rows of
    // it, against matrix rows that hold specials themselves; 6 matrix rows
    // leave a 2-row tail after the tile, 5 input rows pad the 8-lane pack.
    let k = 7;
    let mut rows: Vec<Vec<f32>> = SPECIALS.iter().map(|&v| vec![v; k]).collect();
    for (j, &v) in SPECIALS.iter().enumerate() {
        let mut row = vec![0.0; k];
        row[j] = v;
        rows.push(row);
    }
    let m = Matrix::from_vec(6, k, rows[..6].concat()).unwrap();
    let (mut pack, mut out) = (Vec::new(), Vec::new());
    for group in rows.chunks(5) {
        assert_gemm_matches_dot(&group.concat(), &m, &mut pack, &mut out);
    }
    // `Sum for f32` starts from its identity, so an all-negative-zero
    // reduction stays negative zero in every lane width.
    for s in 1..=9 {
        ops::gemm_inner_into(
            &vec![-0.0; s * k],
            &Matrix::from_vec(5, k, vec![0.0; 5 * k]).unwrap(),
            &mut pack,
            &mut out,
        );
        assert!(out.iter().all(|v| v.to_bits() == ops::dot(&[-0.0; 7], &[0.0; 7]).to_bits()));
    }
}

#[test]
fn gemm_inner_reuses_capacity_and_handles_empty_shapes() {
    let m = Matrix::from_vec(9, 3, (0..27).map(|i| i as f32 * 0.25 - 3.0).collect()).unwrap();
    let xs: Vec<f32> = (0..8 * 3).map(|i| 1.0 - i as f32 * 0.125).collect();
    let (mut pack, mut out) = (Vec::new(), vec![7.0; 2]); // stale content must be overwritten
    assert_gemm_matches_dot(&xs, &m, &mut pack, &mut out);
    let caps = (pack.capacity(), out.capacity());
    for s in [8, 1, 5, 8] {
        assert_gemm_matches_dot(&xs[..s * 3], &m, &mut pack, &mut out);
    }
    assert_eq!((pack.capacity(), out.capacity()), caps, "warm buffers must not reallocate");

    // The single-row entry point is the same kernel and never packs.
    ops::gemv_inner_into(&xs[..3], &m, &mut out);
    let want: Vec<f32> = m.iter_rows().map(|row| ops::dot(&xs[..3], row)).collect();
    assert_eq!(out, want);
    assert_eq!(ops::gemv_inner(&xs[..3], &m), want);

    // No input rows, no matrix rows, no columns: empty outputs, no panic.
    ops::gemm_inner_into(&[], &m, &mut pack, &mut out);
    assert!(out.is_empty());
    ops::gemm_inner_into(&xs[..6], &Matrix::zeros(0, 3), &mut pack, &mut out);
    assert!(out.is_empty());
    ops::gemm_inner_into(&[], &Matrix::zeros(4, 0), &mut pack, &mut out);
    assert!(out.is_empty());
}

/// Asserts `fill_standard_normal` over `len` elements equals `len`
/// `standard_normal` calls bit for bit and leaves the stream where they do.
fn assert_fill_matches_per_call(seed: u64, len: usize) {
    let mut filled = veda_tensor::rng::seeded(seed);
    let mut got = vec![f32::NAN; len];
    veda_tensor::rng::fill_standard_normal(&mut filled, &mut got);
    let mut serial = veda_tensor::rng::seeded(seed);
    let want: Vec<f32> = (0..len).map(|_| veda_tensor::rng::standard_normal(&mut serial)).collect();
    assert_same_bits(&got, &want, &format!("fill of {len} at seed {seed}"));
    assert_eq!(filled, serial, "fill of {len} at seed {seed}: stream position");
}

#[test]
fn fill_standard_normal_keeps_per_call_bits_around_the_block_size() {
    for len in [0, 1, 63, 64, 65, 1_000] {
        assert_fill_matches_per_call(7, len);
    }
}

#[test]
fn skip_standard_normal_leaves_the_stream_where_the_draws_would() {
    for n in [0, 1, 63, 64, 65, 1_000] {
        let mut skipped = veda_tensor::rng::seeded(11);
        veda_tensor::rng::skip_standard_normal(&mut skipped, n);
        let mut drawn = veda_tensor::rng::seeded(11);
        for _ in 0..n {
            veda_tensor::rng::standard_normal(&mut drawn);
        }
        let next = |rng: &mut rand::rngs::StdRng| -> Vec<f32> {
            (0..16).map(|_| veda_tensor::rng::standard_normal(rng)).collect()
        };
        assert_same_bits(&next(&mut skipped), &next(&mut drawn), &format!("16 draws after skipping {n}"));
    }
}

/// A categorical weight drawn from `code`: a zero, a subnormal, one of two
/// tie values, or a spread-out normal weight.
fn categorical_weight(code: u32) -> f32 {
    match code % 6 {
        0 => 0.0,
        1 => f32::from_bits(1 + code % 0x007f_ffff),
        2 => 0.25,
        3 => 3.0,
        _ => (code % 1_000_000) as f32 * 1.0e-3,
    }
}

proptest! {
    #[test]
    fn fill_standard_normal_is_bit_identical_to_per_call_draws(len in 0usize..300, seed in 0u64..1000) {
        assert_fill_matches_per_call(seed, len);
    }

    #[test]
    fn normal_vec_is_the_per_call_loop_times_std(len in 0usize..300, std in 0.01f32..10.0, seed in 0u64..1000) {
        let got = veda_tensor::rng::normal_vec(&mut veda_tensor::rng::seeded(seed), len, std);
        let mut serial = veda_tensor::rng::seeded(seed);
        let want: Vec<f32> = (0..len).map(|_| veda_tensor::rng::standard_normal(&mut serial) * std).collect();
        assert_same_bits(&got, &want, "normal_vec");
    }

    #[test]
    fn skip_then_draw_equals_draw_then_draw(n in 0usize..300, seed in 0u64..1000) {
        let mut skipped = veda_tensor::rng::seeded(seed);
        veda_tensor::rng::skip_standard_normal(&mut skipped, n);
        let mut drawn = veda_tensor::rng::seeded(seed);
        veda_tensor::rng::fill_standard_normal(&mut drawn, &mut vec![0.0; n]);
        prop_assert_eq!(skipped, drawn);
    }

    #[test]
    fn categorical_table_draws_like_the_one_shot_draw(
        codes in proptest::collection::vec(0u32..u32::MAX, 1..501),
        seed in 0u64..1000,
    ) {
        use veda_tensor::rng::{sample_categorical, seeded, Categorical};
        let weights: Vec<f32> = codes.into_iter().map(categorical_weight).collect();
        let total: f32 = weights.iter().sum();
        match Categorical::new(weights.clone()) {
            Ok(table) => {
                prop_assert_eq!(table.total().to_bits(), total.to_bits());
                let (mut built, mut one_shot) = (seeded(seed), seeded(seed));
                for draw in 0..16 {
                    let got = table.sample(&mut built);
                    prop_assert_eq!(got, sample_categorical(&mut one_shot, &weights), "draw {}", draw);
                    prop_assert!(got < weights.len());
                    prop_assert_eq!(&built, &one_shot, "stream position after draw {}", draw);
                }
            }
            // Only a table of zeros and subnormals is refused.
            Err(err) => prop_assert!(total < f32::MIN_POSITIVE, "{} weights summing to {}: {}", weights.len(), total, err),
        }
    }

    #[test]
    fn softmax_is_a_distribution(xs in vec_f32(1..64)) {
        let p = softmax(&xs);
        prop_assert_eq!(p.len(), xs.len());
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "sum = {}", sum);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
    }

    #[test]
    fn softmax_preserves_order(xs in vec_f32(2..32)) {
        let p = softmax(&xs);
        for i in 0..xs.len() {
            for j in 0..xs.len() {
                if xs[i] > xs[j] {
                    prop_assert!(p[i] >= p[j] - 1e-6);
                }
            }
        }
    }

    #[test]
    fn online_softmax_matches_two_pass(xs in vec_f32(1..128)) {
        let mut os = OnlineSoftmax::new();
        for &x in &xs { os.push(x); }
        let reference = softmax(&xs);
        for (i, &x) in xs.iter().enumerate() {
            prop_assert!((os.normalize(x) - reference[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn log_softmax_exp_sums_to_one(xs in vec_f32(1..64)) {
        let ls = log_softmax(&xs);
        let sum: f32 = ls.iter().map(|&v| v.exp()).sum();
        prop_assert!((sum - 1.0).abs() < 1e-3);
    }

    #[test]
    fn streaming_moments_match_batch(xs in vec_f32(1..256)) {
        let mut m = StreamingMoments::new();
        for &x in &xs { m.push(x); }
        let n = xs.len() as f32;
        let mean = xs.iter().sum::<f32>() / n;
        let var = xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n;
        prop_assert!((m.mean() - mean).abs() < 1e-2 * (1.0 + mean.abs()));
        prop_assert!((m.variance() - var).abs() < 1e-1 * (1.0 + var));
    }

    #[test]
    fn gemv_inner_outer_duality(
        rows in 1usize..12,
        cols in 1usize..12,
        seed in 0u64..1000,
    ) {
        // gemv_inner(q, M) computes q×Mᵀ; gemv_outer(q, Mᵀ) computes the same.
        let mut rng = veda_tensor::rng::seeded(seed);
        let data = veda_tensor::rng::normal_vec(&mut rng, rows * cols, 1.0);
        let m = Matrix::from_vec(rows, cols, data).unwrap();
        let q = veda_tensor::rng::normal_vec(&mut rng, cols, 1.0);
        let inner = ops::gemv_inner(&q, &m);
        let outer = ops::gemv_outer(&q, &m.transposed());
        prop_assert!(ops::max_abs_diff(&inner, &outer) < 1e-3);
    }

    #[test]
    fn gemm_inner_is_bit_identical_to_per_row_dot(
        s in 1usize..10,
        rows in 0usize..23,
        cols in 1usize..40,
        seed in 0u64..1000,
    ) {
        // Every lane width (1, 2, 4, 8 and a second pass for the ninth
        // input row) against row counts on both sides of the 4-row tile.
        let mut rng = veda_tensor::rng::seeded(seed);
        let m = Matrix::from_vec(rows, cols, veda_tensor::rng::normal_vec(&mut rng, rows * cols, 1.0)).unwrap();
        let xs = veda_tensor::rng::normal_vec(&mut rng, s * cols, 1.0);
        assert_gemm_matches_dot(&xs, &m, &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    fn span_kernels_are_bit_identical_to_dot_and_axpy(
        rows in 0usize..40,
        before in 0usize..9,
        width in 0usize..70,
        after in 0usize..9,
        seed in 0u64..1000,
    ) {
        // Any span of any matrix, odd widths and offsets included.
        let mut rng = veda_tensor::rng::seeded(seed);
        let cols = before + width + after;
        let m = Matrix::from_vec(rows, cols, veda_tensor::rng::normal_vec(&mut rng, rows * cols, 1.0)).unwrap();
        let q = veda_tensor::rng::normal_vec(&mut rng, width, 1.0);
        let s = veda_tensor::rng::normal_vec(&mut rng, rows, 1.0);
        assert_span_kernels_match_dot_and_axpy(&q, &s, &m, before);
    }

    #[test]
    fn lane_span_kernel_is_bit_identical_to_per_lane_dot(
        lanes in 1usize..9,
        rows in 0usize..40,
        before in 0usize..9,
        width in 0usize..40,
        after in 0usize..9,
        seed in 0u64..1000,
    ) {
        // Any span of any matrix, any lane count, any prefix per lane.
        let mut rng = veda_tensor::rng::seeded(seed);
        let cols = before + width + after;
        let m = Matrix::from_vec(rows, cols, veda_tensor::rng::normal_vec(&mut rng, rows * cols, 1.0)).unwrap();
        let qs: Vec<Vec<f32>> = (0..lanes).map(|_| veda_tensor::rng::normal_vec(&mut rng, width, 1.0)).collect();
        let prefixes: Vec<usize> = (0..lanes).map(|_| rand::Rng::gen_range(&mut rng, 0..=rows)).collect();
        assert_lane_spans_match_dot(&qs, &prefixes, &m, before, &mut Vec::new());
    }

    #[test]
    fn gemv_outer_is_bit_identical_to_per_row_axpy(
        rows in 0usize..40,
        cols in 0usize..70,
        seed in 0u64..1000,
    ) {
        let mut rng = veda_tensor::rng::seeded(seed);
        let m = Matrix::from_vec(rows, cols, veda_tensor::rng::normal_vec(&mut rng, rows * cols, 1.0)).unwrap();
        let s = veda_tensor::rng::normal_vec(&mut rng, rows, 1.0);
        assert_gemv_outer_matches_axpy(&s, &m, &mut Vec::new());
    }

    #[test]
    fn gemm_outer_is_bit_identical_to_per_row_axpy(
        rows in 0usize..40,
        k in 0usize..40,
        cols in 0usize..70,
        seed in 0u64..1000,
    ) {
        let mut rng = veda_tensor::rng::seeded(seed);
        let m = Matrix::from_vec(k, cols, veda_tensor::rng::normal_vec(&mut rng, k * cols, 1.0)).unwrap();
        let xs = veda_tensor::rng::normal_vec(&mut rng, rows * k, 1.0);
        assert_gemm_outer_matches_axpy(&xs, rows, &m, &mut Vec::new());
    }

    #[test]
    fn matmul_transpose_identity(
        rows in 1usize..8,
        inner in 1usize..8,
        cols in 1usize..8,
        seed in 0u64..1000,
    ) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let mut rng = veda_tensor::rng::seeded(seed);
        let a = Matrix::from_vec(rows, inner, veda_tensor::rng::normal_vec(&mut rng, rows * inner, 1.0)).unwrap();
        let b = Matrix::from_vec(inner, cols, veda_tensor::rng::normal_vec(&mut rng, inner * cols, 1.0)).unwrap();
        let left = a.matmul(&b).unwrap().transposed();
        let right = b.transposed().matmul(&a.transposed()).unwrap();
        prop_assert!(ops::max_abs_diff(left.as_slice(), right.as_slice()) < 1e-3);
    }

    #[test]
    fn fp16_round_trip_is_idempotent(x in -60000.0f32..60000.0) {
        let once = veda_tensor::fp16::quantize_f32(x);
        let twice = veda_tensor::fp16::quantize_f32(once);
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    #[test]
    fn fp16_relative_error_bounded(x in 0.001f32..60000.0) {
        let q = veda_tensor::fp16::quantize_f32(x);
        prop_assert!(((q - x) / x).abs() <= (2.0f32).powi(-11) + 1e-7);
    }

    #[test]
    fn push_remove_row_preserves_other_rows(
        n in 2usize..10,
        victim_seed in 0usize..100,
    ) {
        let mut m = Matrix::default();
        for i in 0..n {
            m.push_row(&[i as f32, (i * i) as f32]).unwrap();
        }
        let victim = victim_seed % n;
        m.remove_row(victim);
        prop_assert_eq!(m.rows(), n - 1);
        let mut expect = 0usize;
        for i in 0..n {
            if i == victim { continue; }
            prop_assert_eq!(m.row(expect)[0], i as f32);
            expect += 1;
        }
    }
}
