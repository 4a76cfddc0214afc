//! Per-layer KV cache in the uniform `(l, d)` storage format.
//!
//! Keys and values are stored row-per-token — exactly the layout VEDA keeps
//! in HBM so that both `q × Kᵀ` (inner product over rows) and `s' × V`
//! (outer product over rows) touch memory sequentially and no transpose is
//! ever materialized.
//!
//! ## Shared prefix spans
//!
//! A cache seeded from a prefix-cache entry ([`LayerKvCache::seed_from`])
//! marks its leading rows as a **shared span**: the bytes are resident in
//! HBM once, inside the cache entry, and this sequence merely references
//! them, so `LayerKvCache::fp16_bytes` (the *privately owned* footprint)
//! excludes them. The span is copy-on-evict: the first eviction that
//! targets a slot inside it privatizes the whole span (models deep-copying
//! the referenced rows before mutating them), flipping its bytes into the
//! owned account. Appends only ever land after the span, so the marker
//! never moves otherwise.

use veda_tensor::Matrix;

/// KV cache of one attention layer: all heads concatenated along the
/// feature dimension (`d_model` columns), one row per resident token.
#[derive(Debug, Clone, Default)]
pub struct LayerKvCache {
    keys: Matrix,
    values: Matrix,
    /// Absolute token position of each resident row.
    positions: Vec<usize>,
    /// Leading rows referenced from a shared prefix-cache entry rather
    /// than privately owned (see the [module docs](self)).
    shared_len: usize,
}

impl LayerKvCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident tokens.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Appends the key/value vectors of the token at absolute `position`.
    ///
    /// # Panics
    ///
    /// Panics if `k`/`v` widths disagree with existing rows.
    pub fn append(&mut self, position: usize, k: &[f32], v: &[f32]) {
        self.keys.push_row(k).expect("key width mismatch");
        self.values.push_row(v).expect("value width mismatch");
        self.positions.push(position);
    }

    /// Removes the resident entry at cache slot `slot`. Evicting inside a
    /// shared prefix span first privatizes it (see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()`.
    pub fn evict(&mut self, slot: usize) {
        assert!(slot < self.len(), "evict slot {slot} out of bounds ({})", self.len());
        if slot < self.shared_len {
            self.shared_len = 0;
        }
        self.keys.remove_row(slot);
        self.values.remove_row(slot);
        self.positions.remove(slot);
    }

    /// Removes several resident entries in one stable compaction pass —
    /// O(l·d) total instead of O(l·d) *per eviction* — used when multiple
    /// evictions land in one tick (a prompt longer than the session's cap
    /// is evicted down to it when its prefill ends). Surviving rows keep
    /// their order, so the result is bit-identical to calling
    /// [`LayerKvCache::evict`] per slot.
    ///
    /// # Panics
    ///
    /// Panics if `sorted_slots` is not strictly ascending or any slot is
    /// out of bounds.
    pub fn evict_many(&mut self, sorted_slots: &[usize]) {
        if sorted_slots.is_empty() {
            return;
        }
        if sorted_slots[0] < self.shared_len {
            // Copy-on-evict: mutating the shared span privatizes it.
            self.shared_len = 0;
        }
        self.keys.remove_rows(sorted_slots);
        self.values.remove_rows(sorted_slots);
        let mut next_victim = 0;
        let mut slot = 0;
        self.positions.retain(|_| {
            let evict = next_victim < sorted_slots.len() && sorted_slots[next_victim] == slot;
            if evict {
                next_victim += 1;
            }
            slot += 1;
            !evict
        });
    }

    /// Reserves storage for `tokens` total resident rows of `width`
    /// features, so [`LayerKvCache::append`] never reallocates while the
    /// cache grows to its working size (wired to prompt length +
    /// generation budget at request admission).
    pub fn reserve(&mut self, tokens: usize, width: usize) {
        self.keys.reserve_rows(tokens, width);
        self.values.reserve_rows(tokens, width);
        if tokens > self.positions.len() {
            self.positions.reserve(tokens - self.positions.len());
        }
    }

    /// The key matrix `(l, d)`.
    pub fn keys(&self) -> &Matrix {
        &self.keys
    }

    /// The value matrix `(l, d)`.
    pub fn values(&self) -> &Matrix {
        &self.values
    }

    /// Absolute token positions of resident rows, oldest first.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Seeds an empty cache with the first `rows` resident rows of
    /// `source`, marking them as a shared span: the bytes stay resident in
    /// `source` (a prefix-cache entry) and this cache references them, so
    /// they are excluded from `LayerKvCache::fp16_bytes` until an
    /// eviction privatizes the span. The row values are copied so the
    /// attention kernels see one contiguous `(l, d)` matrix — the sharing
    /// is an HBM-residency accounting model, not a pointer graph.
    ///
    /// # Panics
    ///
    /// Panics if the cache is non-empty or `rows > source.len()`.
    pub fn seed_from(&mut self, source: &LayerKvCache, rows: usize) {
        assert!(self.is_empty(), "seed_from requires an empty cache");
        assert!(rows <= source.len(), "seed rows {rows} exceed source length {}", source.len());
        // One up-front reservation so the row copies never reallocate
        // (a no-op when the engine already reserved the session's peak).
        self.reserve(rows, source.keys.cols());
        for row in 0..rows {
            self.append(source.positions[row], source.keys.row(row), source.values.row(row));
        }
        self.shared_len = rows;
    }

    /// Leading rows referenced from a shared prefix span (0 when the
    /// cache owns every row).
    pub fn shared_len(&self) -> usize {
        self.shared_len
    }

    /// Converts any shared span into privately owned rows (accounting
    /// only; the row data is already materialized). Used when a seeded
    /// copy becomes a residency root of its own — e.g. a prefix-cache
    /// entry built from a session that itself started from a shorter
    /// cached prefix.
    pub(crate) fn clear_shared_marker(&mut self) {
        self.shared_len = 0;
    }

    /// Bytes this cache *privately owns* in FP16 off-chip storage —
    /// excludes the shared prefix span, whose bytes are resident once in
    /// the prefix-cache entry they came from.
    pub(crate) fn fp16_bytes(&self) -> usize {
        let owned_rows = self.len() - self.shared_len;
        veda_tensor::fp16::fp16_bytes(owned_rows * self.keys.cols() * 2)
    }

    /// FP16 bytes of the shared prefix span this cache references (0 when
    /// nothing is shared).
    #[cfg(test)]
    pub(crate) fn shared_fp16_bytes(&self) -> usize {
        veda_tensor::fp16::fp16_bytes(self.shared_len * self.keys.cols() * 2)
    }

    /// Total FP16 bytes of all resident rows, owned and shared — what the
    /// attention kernels stream per decode step regardless of who owns the
    /// bytes.
    pub(crate) fn total_fp16_bytes(&self) -> usize {
        veda_tensor::fp16::fp16_bytes(self.keys.as_slice().len() + self.values.as_slice().len())
    }

    /// Clears all residents.
    pub(crate) fn clear(&mut self) {
        self.keys = Matrix::default();
        self.values = Matrix::default();
        self.positions.clear();
        self.shared_len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_grows_rows() {
        let mut c = LayerKvCache::new();
        c.append(0, &[1.0, 2.0], &[3.0, 4.0]);
        c.append(1, &[5.0, 6.0], &[7.0, 8.0]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.keys().row(1), &[5.0, 6.0]);
        assert_eq!(c.values().row(0), &[3.0, 4.0]);
        assert_eq!(c.positions(), &[0, 1]);
    }

    #[test]
    fn evict_removes_matching_rows_everywhere() {
        let mut c = LayerKvCache::new();
        for i in 0..4 {
            c.append(i, &[i as f32, 0.0], &[0.0, i as f32]);
        }
        c.evict(1);
        assert_eq!(c.len(), 3);
        assert_eq!(c.positions(), &[0, 2, 3]);
        assert_eq!(c.keys().row(1), &[2.0, 0.0]);
        assert_eq!(c.values().row(1), &[0.0, 2.0]);
    }

    #[test]
    fn evict_many_matches_sequential_evictions() {
        let build = || {
            let mut c = LayerKvCache::new();
            for i in 0..6 {
                c.append(i, &[i as f32, 1.0], &[2.0, i as f32]);
            }
            c
        };
        for victims in [vec![], vec![0], vec![5], vec![1, 3, 4], vec![0, 1, 2, 3, 4, 5]] {
            let mut sequential = build();
            for &v in victims.iter().rev() {
                sequential.evict(v);
            }
            let mut batch = build();
            batch.evict_many(&victims);
            assert_eq!(batch.len(), sequential.len(), "victims {victims:?}");
            assert_eq!(batch.positions(), sequential.positions(), "victims {victims:?}");
            assert_eq!(batch.keys(), sequential.keys(), "victims {victims:?}");
            assert_eq!(batch.values(), sequential.values(), "victims {victims:?}");
        }
    }

    #[test]
    fn reserve_prevents_append_reallocation() {
        let mut c = LayerKvCache::new();
        c.reserve(8, 2);
        let keys_buf = c.keys().as_slice().as_ptr();
        for i in 0..8 {
            c.append(i, &[1.0, 2.0], &[3.0, 4.0]);
        }
        assert_eq!(c.keys().as_slice().as_ptr(), keys_buf, "append must not reallocate");
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn fp16_bytes_counts_keys_and_values() {
        let mut c = LayerKvCache::new();
        c.append(0, &[0.0; 8], &[0.0; 8]);
        assert_eq!(c.fp16_bytes(), 32);
    }

    #[test]
    fn clear_empties() {
        let mut c = LayerKvCache::new();
        c.append(0, &[1.0], &[2.0]);
        c.clear();
        assert!(c.is_empty());
        // Width resets too: a different width may be appended after clear.
        c.append(5, &[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn evict_out_of_bounds_panics() {
        let mut c = LayerKvCache::new();
        c.append(0, &[1.0], &[1.0]);
        c.evict(1);
    }

    fn source(rows: usize) -> LayerKvCache {
        let mut c = LayerKvCache::new();
        for i in 0..rows {
            c.append(i, &[i as f32, 1.0], &[2.0, i as f32]);
        }
        c
    }

    #[test]
    fn seed_from_copies_rows_and_marks_them_shared() {
        let src = source(4);
        let mut c = LayerKvCache::new();
        c.seed_from(&src, 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.shared_len(), 3);
        assert_eq!(c.positions(), &[0, 1, 2]);
        assert_eq!(c.keys().row(2), src.keys().row(2));
        assert_eq!(c.values().row(1), src.values().row(1));
        // Shared rows are excluded from the owned footprint but present in
        // the total (what attention streams).
        assert_eq!(c.fp16_bytes(), 0);
        assert_eq!(c.shared_fp16_bytes(), 3 * 2 * 2 * 2);
        assert_eq!(c.total_fp16_bytes(), c.shared_fp16_bytes());
        // Appends after the span are privately owned.
        c.append(3, &[9.0, 9.0], &[9.0, 9.0]);
        assert_eq!(c.shared_len(), 3);
        assert_eq!(c.fp16_bytes(), 2 * 2 * 2);
        assert_eq!(c.total_fp16_bytes(), c.fp16_bytes() + c.shared_fp16_bytes());
    }

    #[test]
    fn evicting_inside_the_shared_span_privatizes_it() {
        let src = source(4);
        let mut c = LayerKvCache::new();
        c.seed_from(&src, 4);
        c.append(4, &[5.0, 5.0], &[5.0, 5.0]);
        // Evicting past the span leaves the marker alone…
        c.evict(4);
        assert_eq!(c.shared_len(), 4);
        c.append(4, &[5.0, 5.0], &[5.0, 5.0]);
        c.evict_many(&[4]);
        assert_eq!(c.shared_len(), 4);
        // …but the first eviction inside it deep-copies (privatizes) the
        // whole span.
        c.evict(1);
        assert_eq!(c.shared_len(), 0);
        assert_eq!(c.fp16_bytes(), c.total_fp16_bytes());
    }

    #[test]
    fn evict_many_inside_the_shared_span_privatizes_it() {
        let src = source(4);
        let mut c = LayerKvCache::new();
        c.seed_from(&src, 2);
        c.append(2, &[5.0, 5.0], &[5.0, 5.0]);
        c.evict_many(&[0, 2]);
        assert_eq!(c.shared_len(), 0);
        assert_eq!(c.positions(), &[1]);
    }

    #[test]
    fn clear_resets_the_shared_marker() {
        let src = source(2);
        let mut c = LayerKvCache::new();
        c.seed_from(&src, 2);
        c.clear();
        assert_eq!(c.shared_len(), 0);
        assert_eq!(c.shared_fp16_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "empty cache")]
    fn seed_from_rejects_non_empty_caches() {
        let src = source(2);
        let mut c = source(1);
        c.seed_from(&src, 2);
    }
}
