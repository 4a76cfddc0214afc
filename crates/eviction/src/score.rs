//! Flat, borrowed attention-score observations.
//!
//! The functional model produces per-head post-softmax attention scores for
//! every layer of every decode step. All scores of one step live in a
//! *single* flat buffer, and policies are handed a [`ScoreView`] — a
//! borrowed `(n_heads × len)` window into it. Policies consume slices,
//! nothing is copied, and steady-state decode performs no per-observation
//! heap allocation. It is the only observation format.
//!
//! Layout: head-major, `data[h * len .. (h + 1) * len]` is head `h`'s
//! score vector over the resident cache slots.

/// Borrowed per-head attention scores of one token over one layer's cache:
/// `n_heads` contiguous segments of equal length in a flat slice.
#[derive(Debug, Clone, Copy)]
pub struct ScoreView<'a> {
    data: &'a [f32],
    n_heads: usize,
}

impl<'a> ScoreView<'a> {
    /// Wraps a flat head-major buffer of `n_heads` equal-length segments.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `n_heads`, or if
    /// `n_heads == 0` with non-empty data.
    pub fn new(data: &'a [f32], n_heads: usize) -> Self {
        if n_heads == 0 {
            assert!(data.is_empty(), "ScoreView: 0 heads but {} scores", data.len());
        } else {
            assert_eq!(
                data.len() % n_heads,
                0,
                "ScoreView: {} scores do not split into {} heads",
                data.len(),
                n_heads
            );
        }
        Self { data, n_heads }
    }

    /// A single-head view over one score vector (the hardware voting
    /// engine and several tests observe one head at a time).
    pub fn single(scores: &'a [f32]) -> Self {
        Self { data: scores, n_heads: 1 }
    }

    /// Number of heads.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// Scores per head (the resident cache length at observation time).
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.n_heads).unwrap_or(0)
    }

    /// True when there are no scores (`len() == 0`).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Head `h`'s score vector over the cache slots.
    ///
    /// # Panics
    ///
    /// Panics if `h >= n_heads()`.
    pub fn head(&self, h: usize) -> &'a [f32] {
        assert!(h < self.n_heads, "head {h} out of bounds ({} heads)", self.n_heads);
        let len = self.len();
        &self.data[h * len..(h + 1) * len]
    }

    /// Iterator over the per-head score slices. Always yields exactly
    /// [`ScoreView::n_heads`] slices, matching [`ScoreView::head`] — even
    /// when every head is empty.
    pub fn heads(&self) -> impl Iterator<Item = &'a [f32]> {
        let len = self.len();
        let data = self.data;
        (0..self.n_heads).map(move |h| &data[h * len..(h + 1) * len])
    }

    /// The whole flat buffer (head-major).
    pub fn as_flat(&self) -> &'a [f32] {
        self.data
    }

    /// Averages the heads into `out` (reusing its allocation) — the
    /// layer-wise aggregation VEDA's voting engine performs ("all heads
    /// are aggregated and averaged", Section V). Accumulation is
    /// head-major then scaled by `1 / n_heads`, bit-identical to
    /// [`crate::policy::average_heads`] on the nested representation.
    ///
    /// `out` is left empty when the view has no heads.
    pub(crate) fn average_into(&self, out: &mut Vec<f32>) {
        out.clear();
        if self.n_heads == 0 {
            return;
        }
        out.resize(self.len(), 0.0);
        for head in self.heads() {
            for (o, &s) in out.iter_mut().zip(head) {
                *o += s;
            }
        }
        let inv = 1.0 / self.n_heads as f32;
        for o in out.iter_mut() {
            *o *= inv;
        }
    }

    /// Allocating convenience form of `ScoreView::average_into`.
    pub fn average(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.average_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_splits_flat_buffer_into_heads() {
        let flat = [0.1, 0.2, 0.7, 0.3, 0.3, 0.4];
        let v = ScoreView::new(&flat, 2);
        assert_eq!(v.n_heads(), 2);
        assert_eq!(v.len(), 3);
        assert_eq!(v.head(0), &[0.1, 0.2, 0.7]);
        assert_eq!(v.head(1), &[0.3, 0.3, 0.4]);
        assert_eq!(v.heads().count(), 2);
        assert_eq!(v.as_flat(), &flat);
    }

    #[test]
    fn single_head_view() {
        let v = ScoreView::single(&[0.5, 0.5]);
        assert_eq!(v.n_heads(), 1);
        assert_eq!(v.len(), 2);
        assert_eq!(v.head(0), &[0.5, 0.5]);
    }

    #[test]
    fn empty_views_are_well_formed() {
        let v = ScoreView::new(&[], 0);
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.heads().count(), 0);
        assert!(v.average().is_empty());
        // Heads with zero-length segments: the iterator still agrees with
        // `n_heads()`/`head(h)` and yields empty slices.
        let v = ScoreView::new(&[], 4);
        assert_eq!(v.len(), 0);
        assert!(v.is_empty());
        assert_eq!(v.heads().count(), v.n_heads());
        assert!(v.heads().all(<[f32]>::is_empty));
        assert!(v.head(3).is_empty());
        assert!(v.average().is_empty());
    }

    #[test]
    fn average_matches_nested_average_heads() {
        let nested = vec![vec![1.0, 0.0, 0.5], vec![0.0, 1.0, 0.5]];
        let flat: Vec<f32> = nested.concat();
        let v = ScoreView::new(&flat, 2);
        assert_eq!(v.average(), crate::policy::average_heads(&nested));
    }

    #[test]
    #[should_panic(expected = "do not split")]
    fn ragged_flat_buffer_panics() {
        ScoreView::new(&[1.0, 2.0, 3.0], 2);
    }
}
