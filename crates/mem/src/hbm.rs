//! Burst/row-buffer-level HBM model (Ramulator substitute).
//!
//! The generation phase of LLM inference is memory-bound: every decode step
//! streams the weights and the KV cache once. What the cycle model needs
//! from the memory substrate is therefore (a) sustained sequential bandwidth
//! and (b) the penalty for irregular access — the reason VEDA stores K and V
//! uniformly in `(l, d)` format instead of transposing.
//!
//! [`HbmConfig::cost`] charges each transfer in accelerator-clock cycles:
//!
//! * **data cycles** — `ceil(fetched_bytes / (bytes_per_cycle × eff))`,
//!   where strided patterns fetch whole bursts per element and thus inflate
//!   fetched bytes far beyond the useful payload;
//! * **row cycles** — each opened DRAM row costs an activation; activations
//!   across `banks` proceed in parallel, so their contribution is divided by
//!   the bank count. Sequential streams open one row per `row_bytes`;
//!   wide-strided gathers open (up to) one row per element.

/// How a transfer walks the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Dense unit-stride stream (the `(l, d)` KV layout, weight streaming).
    Sequential,
    /// Fixed-stride gather, e.g. reading a column of a row-major matrix
    /// whose rows are `stride_bytes` long (the transpose access the paper
    /// eliminates). Each useful element is `elem_bytes` long.
    Strided {
        /// Distance in bytes between consecutive useful elements.
        stride_bytes: usize,
        /// Size of each useful element in bytes (2 for one FP16 value).
        elem_bytes: usize,
    },
}

/// HBM configuration.
///
/// Defaults model the paper's setup: 256 GB/s peak bandwidth against a
/// 1 GHz accelerator clock, 64-byte bursts, 2 KiB rows, 16 banks, a 90 %
/// sustained-efficiency derating on streams (refresh, bus turnaround),
/// and an 8 GiB stack capacity for serving-side admission accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmConfig {
    /// Peak bandwidth in bytes per accelerator cycle (256 GB/s at 1 GHz =
    /// 256 B/cycle).
    pub bytes_per_cycle: f64,
    /// Burst (minimum transfer) granularity in bytes.
    pub burst_bytes: usize,
    /// DRAM row size in bytes.
    pub row_bytes: usize,
    /// Cycles to activate a new row (tRP + tRCD at the accelerator clock).
    pub row_activate_cycles: u64,
    /// Number of banks whose activations overlap.
    pub banks: u64,
    /// Sustained-over-peak efficiency for streams, in (0, 1].
    pub sequential_efficiency: f64,
    /// Device memory capacity in bytes (one HBM2 stack: 8 GiB). Serving
    /// layers account resident KV bytes against this when deciding whether
    /// to admit, queue, or preempt sessions.
    pub capacity_bytes: u64,
}

impl Default for HbmConfig {
    fn default() -> Self {
        Self {
            bytes_per_cycle: 256.0,
            burst_bytes: 64,
            row_bytes: 2048,
            row_activate_cycles: 28,
            banks: 16,
            sequential_efficiency: 0.9,
            capacity_bytes: 8 << 30,
        }
    }
}

impl HbmConfig {
    /// Config for a given bandwidth in GB/s at a given accelerator clock in
    /// GHz, other parameters at defaults.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not positive.
    pub fn with_bandwidth(gb_per_s: f64, clock_ghz: f64) -> Self {
        assert!(gb_per_s > 0.0 && clock_ghz > 0.0, "bandwidth and clock must be positive");
        Self { bytes_per_cycle: gb_per_s / clock_ghz, ..Self::default() }
    }

    /// Rejects a config whose transfer cost is not a cycle count: a bad
    /// bandwidth or efficiency saturates (then overflows) or zeroes the
    /// data cycles, and `burst_bytes` and `row_bytes` are divisors.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        check_bandwidth(self.bytes_per_cycle, "sequential_efficiency", self.sequential_efficiency)?;
        for (field, divisor) in [("burst_bytes", self.burst_bytes), ("row_bytes", self.row_bytes)] {
            if divisor == 0 {
                return Err(format!("{field} must be positive"));
            }
        }
        Ok(())
    }

    /// Cycles for one transfer of `bytes` useful bytes walked with
    /// `pattern`.
    pub fn cost(&self, bytes: usize, pattern: AccessPattern) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let fetched = self.fetched_bytes(bytes, pattern);
        let data_cycles =
            (fetched as f64 / (self.bytes_per_cycle * self.sequential_efficiency)).ceil() as u64;
        let rows = self.rows_opened(bytes, pattern);
        let row_cycles = (rows * self.row_activate_cycles).div_ceil(self.banks.max(1));
        data_cycles + row_cycles
    }

    /// Number of DRAM rows a transfer opens.
    fn rows_opened(&self, bytes: usize, pattern: AccessPattern) -> u64 {
        match pattern {
            AccessPattern::Sequential => (bytes as u64).div_ceil(self.row_bytes as u64),
            AccessPattern::Strided { stride_bytes, elem_bytes } => {
                let elements = (bytes as u64).div_ceil(elem_bytes.max(1) as u64);
                if stride_bytes <= self.row_bytes {
                    // Several strided elements still land in one row.
                    let elems_per_row = (self.row_bytes / stride_bytes.max(1)).max(1) as u64;
                    elements.div_ceil(elems_per_row)
                } else {
                    // Every element opens a new row.
                    elements
                }
            }
        }
    }

    /// Bytes a transfer actually fetches (≥ `bytes`: burst waste).
    fn fetched_bytes(&self, bytes: usize, pattern: AccessPattern) -> u64 {
        let burst = self.burst_bytes as u64;
        match pattern {
            AccessPattern::Sequential => (bytes as u64).div_ceil(burst) * burst,
            AccessPattern::Strided { stride_bytes, elem_bytes } => {
                let elem = elem_bytes.max(1) as u64;
                let elements = (bytes as u64).div_ceil(elem);
                if stride_bytes as u64 <= burst {
                    // Dense enough that bursts are mostly useful.
                    (bytes as u64).div_ceil(burst) * burst
                } else {
                    // One whole burst fetched per useful element.
                    elements * elem.div_ceil(burst).max(1) * burst
                }
            }
        }
    }
}

/// Rejects a `bytes_per_cycle` that is not finite and positive, and an
/// efficiency derating (named `field`) outside `(0, 1]`.
pub(crate) fn check_bandwidth(bytes_per_cycle: f64, field: &str, efficiency: f64) -> Result<(), String> {
    // Written so NaN fails too: every comparison with NaN is false.
    if !(bytes_per_cycle.is_finite() && bytes_per_cycle > 0.0) {
        return Err(format!("bytes_per_cycle must be finite and positive, got {bytes_per_cycle}"));
    }
    if !(efficiency > 0.0 && efficiency <= 1.0) {
        return Err(format!("{field} must lie in (0, 1], got {efficiency}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Transpose-style access: one FP16 every `stride` bytes.
    fn fp16_column(stride: usize) -> AccessPattern {
        AccessPattern::Strided { stride_bytes: stride, elem_bytes: 2 }
    }

    #[test]
    fn sequential_cost_tracks_bandwidth() {
        let c = HbmConfig::default().cost(256 * 1024, AccessPattern::Sequential);
        let data = (256.0_f64 * 1024.0 / (256.0 * 0.9)).ceil() as u64;
        let rows = (256u64 * 1024 / 2048) * 28 / 16;
        assert_eq!(c, data + rows);
    }

    #[test]
    fn zero_bytes_cost_nothing() {
        let hbm = HbmConfig::default();
        assert_eq!(hbm.cost(0, AccessPattern::Sequential), 0);
        assert_eq!(hbm.rows_opened(0, AccessPattern::Sequential), 0);
    }

    #[test]
    fn strided_wide_stride_is_much_slower() {
        // Reading a (4096, 128)-FP16 matrix column-wise: one 2-byte element
        // per 256-byte row stride => whole burst per element.
        let hbm = HbmConfig::default();
        let useful = 4096 * 2;
        let seq = hbm.cost(useful, AccessPattern::Sequential);
        let strided = hbm.cost(useful, fp16_column(256));
        assert!(strided > 10 * seq, "strided {strided} vs seq {seq}");
    }

    #[test]
    fn beyond_row_stride_pays_activation_per_element() {
        let rows = HbmConfig::default().rows_opened(1024 * 2, fp16_column(8192));
        assert_eq!(rows, 1024);
    }

    #[test]
    fn narrow_stride_close_to_sequential() {
        let hbm = HbmConfig::default();
        let seq = hbm.cost(64 * 1024, AccessPattern::Sequential);
        let strided = hbm.cost(64 * 1024, AccessPattern::Strided { stride_bytes: 4, elem_bytes: 2 });
        assert!(strided <= seq * 2, "strided {strided} vs seq {seq}");
    }

    #[test]
    fn with_bandwidth_scales_bytes_per_cycle() {
        let cfg = HbmConfig::with_bandwidth(512.0, 2.0);
        assert!((cfg.bytes_per_cycle - 256.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn with_bandwidth_rejects_zero() {
        HbmConfig::with_bandwidth(0.0, 1.0);
    }

    fn rejected(cfg: HbmConfig, field: &str) -> bool {
        cfg.validate().is_err_and(|err| err.starts_with(field))
    }

    #[test]
    fn validate_rejects_non_finite_or_non_positive_bandwidth() {
        for bytes_per_cycle in [0.0, -256.0, f64::NAN, f64::INFINITY] {
            assert!(rejected(HbmConfig { bytes_per_cycle, ..Default::default() }, "bytes_per_cycle"));
        }
    }

    #[test]
    fn validate_rejects_efficiency_outside_unit_interval() {
        for sequential_efficiency in [0.0, 1.5, f64::NAN] {
            let cfg = HbmConfig { sequential_efficiency, ..Default::default() };
            assert!(rejected(cfg, "sequential_efficiency"));
        }
        assert!(HbmConfig { sequential_efficiency: 1.0, ..Default::default() }.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_burst_bytes() {
        assert!(rejected(HbmConfig { burst_bytes: 0, ..Default::default() }, "burst_bytes"));
    }

    #[test]
    fn validate_rejects_zero_row_bytes() {
        assert!(rejected(HbmConfig { row_bytes: 0, ..Default::default() }, "row_bytes"));
    }

    #[test]
    fn fetched_at_least_useful() {
        let hbm = HbmConfig::default();
        assert!(hbm.fetched_bytes(100, AccessPattern::Sequential) >= 100);
        assert!(hbm.fetched_bytes(100, fp16_column(512)) >= 100);
    }

    #[test]
    fn strided_fetch_inflation_is_burst_per_element() {
        // 100 useful bytes of 2-byte elements at 512-byte stride:
        // 50 elements × 64-byte bursts = 3200 fetched bytes.
        assert_eq!(HbmConfig::default().fetched_bytes(100, fp16_column(512)), 3200);
    }
}
