//! Burst/row-buffer-level HBM model (Ramulator substitute).
//!
//! The generation phase of LLM inference is memory-bound: every decode step
//! streams the weights and the KV cache once, and both are stored so that
//! they stream sequentially (VEDA keeps K and V uniformly in `(l, d)`
//! format instead of transposing). What the cycle model needs from the
//! memory substrate is therefore the sustained sequential bandwidth.
//!
//! [`HbmConfig::cost`] charges each stream in accelerator-clock cycles:
//!
//! * **data cycles** — `ceil(fetched_bytes / (bytes_per_cycle × eff))`,
//!   where the fetched bytes are the useful bytes rounded up to whole
//!   bursts;
//! * **row cycles** — one activation per `row_bytes` opened; activations
//!   across `banks` proceed in parallel, so their contribution is divided
//!   by the bank count.

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

    /// Cycles to stream `bytes` bytes sequentially.
    pub fn cost(&self, bytes: u64) -> u64 {
        let burst = self.burst_bytes as u64;
        let fetched = bytes.div_ceil(burst) * burst;
        let data_cycles =
            (fetched as f64 / (self.bytes_per_cycle * self.sequential_efficiency)).ceil() as u64;
        let rows = bytes.div_ceil(self.row_bytes as u64);
        data_cycles + (rows * self.row_activate_cycles).div_ceil(self.banks.max(1))
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

    #[test]
    fn sequential_cost_tracks_bandwidth() {
        let c = HbmConfig::default().cost(256 * 1024);
        let data = (256.0_f64 * 1024.0 / (256.0 * 0.9)).ceil() as u64;
        let rows = (256u64 * 1024 / 2048) * 28 / 16;
        assert_eq!(c, data + rows);
    }

    #[test]
    fn zero_bytes_cost_nothing() {
        assert_eq!(HbmConfig::default().cost(0), 0);
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
        // At one byte per cycle and free activations a stream costs its
        // fetched bytes: whole 64-byte bursts.
        let hbm = HbmConfig {
            bytes_per_cycle: 1.0,
            sequential_efficiency: 1.0,
            row_activate_cycles: 0,
            ..Default::default()
        };
        assert_eq!([100, 128, 129].map(|bytes| hbm.cost(bytes)), [128, 128, 192]);
    }
}
