//! Rotary position embedding (RoPE), as used by the Llama family.
//!
//! RoPE rotates each even/odd pair of query/key channels by a
//! position-dependent angle; dot products between rotated vectors then
//! depend on the *relative* position, which gives random-weight attention a
//! natural recency structure — one of the ingredients the synthetic model
//! uses to reproduce realistic attention-score distributions.

/// The `(sin, cos)` of channel pair `pair`'s rotation angle at `position`
/// for a head of `head_dim` channels.
fn rotation(pair: usize, head_dim: usize, position: usize, theta: f32) -> (f32, f32) {
    let freq = theta.powf(-2.0 * pair as f32 / head_dim as f32);
    let angle = position as f32 * freq;
    angle.sin_cos()
}

/// Rotates one even/odd channel pair.
fn rotate(pair: &mut [f32; 2], (sin, cos): (f32, f32)) {
    let [a, b] = *pair;
    *pair = [a * cos - b * sin, a * sin + b * cos];
}

/// Applies RoPE in place to a head vector `x` of even length at `position`.
///
/// # Panics
///
/// Panics if `x.len()` is odd.
pub fn apply_rope(x: &mut [f32], position: usize, theta: f32) {
    assert!(x.len().is_multiple_of(2), "RoPE requires an even head dimension, got {}", x.len());
    let head_dim = x.len();
    for (i, pair) in x.as_chunks_mut().0.iter_mut().enumerate() {
        rotate(pair, rotation(i, head_dim, position, theta));
    }
}

/// Appends to `table` the `head_dim / 2` rotations of `position` — the
/// `powf` and `sin_cos` every head of every layer would otherwise repeat
/// for the same token. A batch keeps one such table per row, end to end.
///
/// # Panics
///
/// Panics if `head_dim` is odd.
pub(crate) fn rope_table_extend(head_dim: usize, position: usize, theta: f32, table: &mut Vec<(f32, f32)>) {
    assert!(head_dim.is_multiple_of(2), "RoPE requires an even head dimension, got {head_dim}");
    table.extend((0..head_dim / 2).map(|i| rotation(i, head_dim, position, theta)));
}

/// Applies the rotations of a [`rope_table_extend`] table in place to every
/// head of `x` (consecutive spans of `2 * table.len()` channels), each
/// bit-identical to [`apply_rope`] on that head.
///
/// # Panics
///
/// Panics if the table is empty or `x.len()` is not a whole number of
/// heads.
pub(crate) fn apply_rope_table(x: &mut [f32], table: &[(f32, f32)]) {
    assert!(
        !table.is_empty() && x.len().is_multiple_of(2 * table.len()),
        "RoPE table of {} pairs vs {} channels",
        table.len(),
        x.len()
    );
    for head in x.as_chunks_mut().0.chunks_exact_mut(table.len()) {
        for (pair, &rotation) in head.iter_mut().zip(table) {
            rotate(pair, rotation);
        }
    }
}

/// Returns a rotated copy (convenience for tests and tracing).
#[cfg(test)]
pub(crate) fn roped(x: &[f32], position: usize, theta: f32) -> Vec<f32> {
    let mut out = x.to_vec();
    apply_rope(&mut out, position, theta);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use veda_tensor::ops::{dot, norm2};

    #[test]
    fn position_zero_is_identity() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(roped(&x, 0, 10000.0), x.to_vec());
    }

    #[test]
    fn rotation_preserves_norm() {
        let x = [0.3, -1.2, 2.0, 0.7, -0.1, 0.9];
        for pos in [1, 17, 255, 4095] {
            let r = roped(&x, pos, 10000.0);
            assert!((norm2(&r) - norm2(&x)).abs() < 1e-4, "norm changed at pos {pos}");
        }
    }

    #[test]
    fn dot_product_depends_on_relative_position() {
        // <RoPE(q, m), RoPE(k, n)> is a function of (m - n): shifting both
        // positions by the same offset leaves the dot product unchanged.
        let q = [0.5, -0.2, 0.8, 0.1];
        let k = [-0.3, 0.9, 0.2, 0.4];
        let d1 = dot(&roped(&q, 10, 10000.0), &roped(&k, 7, 10000.0));
        let d2 = dot(&roped(&q, 110, 10000.0), &roped(&k, 107, 10000.0));
        assert!((d1 - d2).abs() < 1e-3, "{d1} vs {d2}");
    }

    #[test]
    fn self_similarity_decays_with_distance_on_average() {
        // For a generic vector, <RoPE(x, 0), RoPE(x, p)> trends downward as
        // p grows (not monotonically — it oscillates — so compare averages).
        let mut rng = veda_tensor::rng::seeded(2);
        let mut near = 0.0;
        let mut far = 0.0;
        for _ in 0..50 {
            let x = veda_tensor::rng::normal_vec(&mut rng, 16, 1.0);
            let base = roped(&x, 0, 10000.0);
            near += dot(&base, &roped(&x, 1, 10000.0));
            far += dot(&base, &roped(&x, 200, 10000.0));
        }
        assert!(near > far, "near {near} vs far {far}");
    }

    /// The loop `apply_rope` ran before the table existed, kept as the
    /// reference both paths must match bit for bit.
    fn historical_rope(x: &mut [f32], position: usize, theta: f32) {
        let half = x.len() / 2;
        for i in 0..half {
            let freq = theta.powf(-2.0 * i as f32 / x.len() as f32);
            let angle = position as f32 * freq;
            let (sin, cos) = angle.sin_cos();
            let a = x[2 * i];
            let b = x[2 * i + 1];
            x[2 * i] = a * cos - b * sin;
            x[2 * i + 1] = a * sin + b * cos;
        }
    }

    #[test]
    fn table_and_per_head_paths_keep_the_historical_bits() {
        let mut rng = veda_tensor::rng::seeded(9);
        let mut table = Vec::new();
        for head_dim in [2, 8, 16, 32, 128] {
            for position in [0, 1, 17, 4095] {
                let x = veda_tensor::rng::normal_vec(&mut rng, 3 * head_dim, 1.0);
                let mut want = x.clone();
                for head in want.chunks_exact_mut(head_dim) {
                    historical_rope(head, position, 10000.0);
                }
                let mut per_head = x.clone();
                for head in per_head.chunks_exact_mut(head_dim) {
                    apply_rope(head, position, 10000.0);
                }
                let mut tabled = x;
                table.clear();
                rope_table_extend(head_dim, position, 10000.0, &mut table);
                assert_eq!(table.len(), head_dim / 2);
                apply_rope_table(&mut tabled, &table);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&per_head), bits(&want), "apply_rope, d_h {head_dim} at {position}");
                assert_eq!(bits(&tabled), bits(&want), "table, d_h {head_dim} at {position}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "RoPE table of 2 pairs vs 6 channels")]
    fn table_rejects_a_partial_head() {
        let mut table = Vec::new();
        rope_table_extend(4, 1, 10000.0, &mut table);
        apply_rope_table(&mut [0.0; 6], &table);
    }

    #[test]
    #[should_panic(expected = "even head dimension")]
    fn odd_dimension_panics() {
        let mut x = [1.0, 2.0, 3.0];
        apply_rope(&mut x, 1, 10000.0);
    }
}
