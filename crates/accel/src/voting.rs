//! Hardware model of the voting engine (Fig. 7, right).
//!
//! The engine snoops the softmax result `s'` on its way into the `s'×V`
//! outer product: each head's score vector is pushed through a FIFO while a
//! reduction unit computes its mean and standard deviation; elements are
//! then popped and compared against the threshold, incrementing the
//! layer-wise 16-bit vote-count buffer. During generation the engine also
//! tracks the maximum vote and its index (a 12-bit register, sufficient for
//! the 4096-entry capacity). It operates fully in parallel with the PE
//! array, so it contributes no critical-path cycles — the model verifies
//! that claim by tracking its own busy cycles and comparing against the
//! overlapped compute.
//!
//! Scores are FP16-quantized on ingest (the FIFO is 16-bit) and the
//! algorithm is *exactly* [`veda_eviction::VotingPolicy`]; a differential
//! test keeps hardware and reference in lockstep.

use veda_eviction::{EvictionPolicy, VotingConfig, VotingPolicy};
use veda_mem::Fifo;

/// Error raised when the engine's hardware capacity is exceeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteCapacityError {
    /// Cache length that was requested.
    pub requested: usize,
    /// Hardware capacity (buffer entries).
    pub capacity: usize,
}

impl std::fmt::Display for VoteCapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vote buffer capacity {} exceeded by cache length {}", self.capacity, self.requested)
    }
}

impl std::error::Error for VoteCapacityError {}

/// Why [`VotingEngine::try_new`] refused to build an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VotingEngineError {
    /// The vote buffer needs at least one entry.
    ZeroCapacity,
    /// The capacity does not fit the 12-bit eviction index register.
    CapacityBeyondIndex {
        /// Requested buffer entries.
        capacity: usize,
    },
    /// [`VotingConfig::validate`] rejected the algorithm configuration.
    InvalidConfig(String),
}

impl std::fmt::Display for VotingEngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroCapacity => write!(f, "vote capacity must be positive"),
            Self::CapacityBeyondIndex { capacity } => {
                write!(f, "eviction index register is 12 bits (max 4096 entries), got capacity {capacity}")
            }
            Self::InvalidConfig(msg) => write!(f, "invalid voting config: {msg}"),
        }
    }
}

impl std::error::Error for VotingEngineError {}

/// The hardware voting engine.
#[derive(Debug)]
pub struct VotingEngine {
    policy: VotingPolicy,
    capacity: usize,
    score_fifo: Fifo<u16>,
    busy_cycles: u64,
    heads_processed: u64,
}

impl VotingEngine {
    /// Creates an engine with `capacity` vote-buffer entries (4096 in
    /// Table I) and the given algorithm configuration, panicking where
    /// [`VotingEngine::try_new`] returns an error.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, `capacity` exceeds the 12-bit index
    /// range, or `config` fails [`VotingConfig::validate`].
    pub fn new(capacity: usize, config: VotingConfig) -> Self {
        Self::try_new(capacity, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an engine with `capacity` vote-buffer entries and the given
    /// algorithm configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`VotingEngineError`] if `capacity == 0`, `capacity`
    /// exceeds the 12-bit index range (4096 entries), or `config` fails
    /// [`VotingConfig::validate`] (a non-finite or negative coefficient
    /// would make every round fall back to the minimum vote).
    pub fn try_new(capacity: usize, config: VotingConfig) -> Result<Self, VotingEngineError> {
        if capacity == 0 {
            return Err(VotingEngineError::ZeroCapacity);
        }
        if capacity > 1 << 12 {
            return Err(VotingEngineError::CapacityBeyondIndex { capacity });
        }
        config.validate().map_err(VotingEngineError::InvalidConfig)?;
        Ok(Self {
            policy: VotingPolicy::new(config),
            capacity,
            score_fifo: Fifo::new(capacity),
            busy_cycles: 0,
            heads_processed: 0,
        })
    }

    /// The engine with the paper's capacity and defaults.
    pub fn veda() -> Self {
        Self::new(4096, VotingConfig::default())
    }

    /// Registers a newly appended kv position.
    ///
    /// # Errors
    ///
    /// Returns [`VoteCapacityError`] when the buffer is full.
    pub fn on_append(&mut self) -> Result<(), VoteCapacityError> {
        if self.policy.tracked_len() >= self.capacity {
            return Err(VoteCapacityError {
                requested: self.policy.tracked_len() + 1,
                capacity: self.capacity,
            });
        }
        self.policy.on_append();
        Ok(())
    }

    /// Processes one head's score vector: FIFO ingest, threshold reduction,
    /// vote update. Returns the engine-busy cycles (hidden behind the
    /// `s'×V` outer product, which takes one cycle per element too).
    pub fn process_head(&mut self, scores: &[f32]) -> u64 {
        // FP16 ingest through the 16-bit FIFO.
        let quantized: Vec<f32> = scores
            .iter()
            .map(|&s| {
                let h = veda_tensor::F16::from_f32(s);
                if self.score_fifo.is_full() {
                    self.score_fifo.pop();
                }
                let _ = self.score_fifo.push(h.to_bits());
                h.to_f32()
            })
            .collect();
        self.policy.observe(veda_eviction::ScoreView::single(&quantized));
        self.heads_processed += 1;
        // One cycle per element for ingest+reduce, one for vote update,
        // plus a small constant for the threshold computation.
        let busy = 2 * scores.len() as u64 + 8;
        self.busy_cycles += busy;
        busy
    }

    /// Selects the eviction victim (max vote count, earliest on ties,
    /// reserved prefix protected), compacting the vote buffer.
    pub fn evict(&mut self, cache_len: usize) -> Option<usize> {
        let victim = self.policy.select_victim(cache_len)?;
        debug_assert!(victim < 1 << 12, "eviction index must fit UINT12");
        self.policy.on_evict(victim);
        Some(victim)
    }

    /// The mirrored algorithm state (for differential testing).
    pub fn policy(&self) -> &VotingPolicy {
        &self.policy
    }

    /// Total engine-busy cycles so far.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Heads processed so far.
    pub fn heads_processed(&self) -> u64 {
        self.heads_processed
    }

    /// True when the engine's work for a step is hidden behind the
    /// attention compute of the same step: the engine needs `2l + 8` cycles
    /// per head while `q×Kᵀ` plus `s'×V` provide `2l` PE cycles per head —
    /// so overlap holds whenever `l ≥ 8`.
    pub fn hidden_behind_compute(&self, cache_len: usize) -> bool {
        cache_len >= 8
    }

    /// Resets all state.
    pub fn reset(&mut self) {
        self.policy.reset();
        self.score_fifo.clear();
        self.busy_cycles = 0;
        self.heads_processed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veda_tensor::fp16::quantize_f32;

    fn scores(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = veda_tensor::rng::seeded(seed);
        let raw = veda_tensor::rng::uniform_vec(&mut rng, n, 0.01, 1.0);
        let sum: f32 = raw.iter().sum();
        raw.into_iter().map(|x| x / sum).collect()
    }

    #[test]
    fn engine_matches_software_policy_on_fp16_scores() {
        // Differential test: the engine must agree with a software policy
        // fed the same FP16-quantized scores.
        let mut hw = VotingEngine::new(64, VotingConfig::with_reserved_len(2));
        let mut sw = VotingPolicy::new(VotingConfig::with_reserved_len(2));
        for step in 0..40 {
            hw.on_append().unwrap();
            sw.on_append();
            let len = hw.policy().tracked_len();
            let s = scores(len, step);
            let q: Vec<f32> = s.iter().map(|&x| quantize_f32(x)).collect();
            hw.process_head(&s);
            sw.observe(veda_eviction::ScoreView::single(&q));
            assert_eq!(hw.policy().vote_counts(), sw.vote_counts(), "desync at step {step}");
        }
        let len = hw.policy().tracked_len();
        assert_eq!(hw.evict(len), sw.select_victim(len));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut e = VotingEngine::new(4, VotingConfig::default());
        for _ in 0..4 {
            e.on_append().unwrap();
        }
        assert!(e.on_append().is_err());
    }

    #[test]
    #[should_panic(expected = "12 bits")]
    fn capacity_beyond_uint12_rejected() {
        VotingEngine::new(5000, VotingConfig::default());
    }

    #[test]
    fn try_new_rejects_zero_capacity() {
        let err = VotingEngine::try_new(0, VotingConfig::default()).expect_err("capacity 0");
        assert_eq!(err, VotingEngineError::ZeroCapacity);
        assert!(err.to_string().contains("positive"));
    }

    #[test]
    fn try_new_rejects_capacity_beyond_the_index_register() {
        assert!(VotingEngine::try_new(1 << 12, VotingConfig::default()).is_ok());
        let err = VotingEngine::try_new((1 << 12) + 1, VotingConfig::default()).expect_err("capacity 4097");
        assert_eq!(err, VotingEngineError::CapacityBeyondIndex { capacity: 4097 });
        assert!(err.to_string().contains("12 bits"));
    }

    #[test]
    fn try_new_rejects_a_config_that_validate_rejects() {
        for config in [
            VotingConfig::with_coefficients(f32::NAN, 0.2),
            VotingConfig::with_coefficients(1.0, f32::INFINITY),
            VotingConfig::with_coefficients(-1.0, 0.2),
        ] {
            let err = VotingEngine::try_new(64, config).expect_err("invalid config");
            let expected = config.validate().expect_err("validate rejects it");
            assert_eq!(err, VotingEngineError::InvalidConfig(expected), "{config:?}");
        }
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn new_panics_on_a_nan_coefficient() {
        VotingEngine::new(64, VotingConfig::with_coefficients(f32::NAN, 0.2));
    }

    #[test]
    fn veda_engine_capacity_is_4096() {
        let e = VotingEngine::veda();
        assert_eq!(e.capacity, 4096);
    }

    #[test]
    fn busy_cycles_hidden_behind_compute() {
        let mut e = VotingEngine::veda();
        for _ in 0..512 {
            e.on_append().unwrap();
        }
        let busy = e.process_head(&scores(512, 1));
        // 2l + 8 engine cycles vs 2l compute cycles per head: hidden for
        // realistic lengths.
        assert_eq!(busy, 2 * 512 + 8);
        assert!(e.hidden_behind_compute(512));
        assert!(!e.hidden_behind_compute(4));
    }

    #[test]
    fn reset_clears_counters() {
        let mut e = VotingEngine::veda();
        e.on_append().unwrap();
        e.process_head(&scores(1, 2));
        e.reset();
        assert_eq!(e.busy_cycles(), 0);
        assert_eq!(e.heads_processed(), 0);
        assert_eq!(e.policy().tracked_len(), 0);
    }
}
