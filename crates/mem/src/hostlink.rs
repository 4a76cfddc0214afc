//! Host-link (PCIe-style) traffic model for KV cache swap-out/swap-in.
//!
//! When a serving layer preempts a session under HBM capacity pressure, its
//! KV cache moves over the host link to CPU memory and back on resume. The
//! link is an order of magnitude slower than HBM (PCIe 4.0 x16 sustains
//! ~26 GB/s against the paper's 256 GB/s HBM), so swap traffic is the cost
//! that admission control and scheduling policies trade against queueing
//! delay. The model is a configuration in accelerator-clock units plus
//! the one ledger a serving report reads: bytes per transfer kind and
//! direction, and cycles per transfer kind.

/// Direction of a host-link transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwapDirection {
    /// Device → host (preemption: KV cache leaves HBM).
    Out,
    /// Host → device (resume: KV cache returns to HBM).
    In,
}

impl SwapDirection {
    /// Stable label.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            SwapDirection::Out => "swap_out",
            SwapDirection::In => "swap_in",
        }
    }
}

impl std::fmt::Display for SwapDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a host-link transfer moves KV bytes *for* — preemption swap
/// traffic, cross-shard session migration, or prefix-cache spill/fill
/// churn. The physical link is the same in every case (same cost model,
/// same per-direction accumulators); the kind only tags the accounting,
/// so a cluster-level report can attribute interconnect bytes to
/// scheduling churn vs. load balancing vs. cache-tier management.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Preemption swap: KV state parked on the host and brought back to
    /// the *same* device.
    Swap,
    /// Cross-shard migration: KV state leaves one device and lands on
    /// another (charged on both shards' links, one direction each).
    Migration,
    /// Prefix-cache spill: a cold cached prefix entry left HBM for the
    /// host-memory tier under byte pressure (device → host only).
    PrefixSpill,
    /// Prefix-cache fill: a spilled prefix entry was promoted back to
    /// the device on a hit (host → device only); its latency is
    /// serialized onto the hitting session's clock like a swap-in.
    PrefixFill,
}

impl TransferKind {
    /// Stable label.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            TransferKind::Swap => "swap",
            TransferKind::Migration => "migration",
            TransferKind::PrefixSpill => "prefix_spill",
            TransferKind::PrefixFill => "prefix_fill",
        }
    }
}

impl std::fmt::Display for TransferKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Host-link configuration.
///
/// Defaults model a PCIe 4.0 x16 link against a 1 GHz accelerator clock:
/// 32 GB/s peak (32 B/cycle), 85 % sustained efficiency (protocol and DMA
/// overhead), and a 1 µs per-transfer setup latency (1000 cycles at 1 GHz)
/// covering doorbell, descriptor fetch and completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostLinkConfig {
    /// Peak link bandwidth in bytes per accelerator cycle.
    pub bytes_per_cycle: f64,
    /// Sustained-over-peak efficiency in (0, 1].
    pub efficiency: f64,
    /// Fixed setup cycles charged once per transfer.
    pub setup_cycles: u64,
}

impl Default for HostLinkConfig {
    fn default() -> Self {
        Self { bytes_per_cycle: 32.0, efficiency: 0.85, setup_cycles: 1000 }
    }
}

impl HostLinkConfig {
    /// Config for a given link bandwidth in GB/s at a given accelerator
    /// clock in GHz, other parameters at defaults.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not positive.
    pub fn with_bandwidth(gb_per_s: f64, clock_ghz: f64) -> Self {
        assert!(gb_per_s > 0.0 && clock_ghz > 0.0, "bandwidth and clock must be positive");
        Self { bytes_per_cycle: gb_per_s / clock_ghz, ..Self::default() }
    }

    /// Rejects a link whose sustained bandwidth is not a finite positive
    /// number: a zero, negative or non-finite `bytes_per_cycle`, or an
    /// `efficiency` outside `(0, 1]`, would make a transfer's cost
    /// saturate to `u64::MAX` (and overflow when the setup cycles are
    /// added) or collapse to the setup cycles alone (NaN casts to 0).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        crate::hbm::check_bandwidth(self.bytes_per_cycle, "efficiency", self.efficiency)
    }
}

/// Stateful host-link model: a ledger of the traffic charged per
/// transfer kind.
#[derive(Debug, Clone)]
pub struct HostLink {
    config: HostLinkConfig,
    /// Bytes moved, indexed `[kind][direction]`.
    bytes: [[u64; 2]; 4],
    /// Cycles charged, indexed `[kind]`.
    cycles: [u64; 4],
    /// Transient bandwidth multiplier in (0, 1]; `1.0` means healthy.
    degradation: f64,
}

impl HostLink {
    /// Creates a model with the given configuration.
    pub fn new(config: HostLinkConfig) -> Self {
        Self { config, bytes: [[0; 2]; 4], cycles: [0; 4], degradation: 1.0 }
    }

    /// Sets the transient bandwidth multiplier applied to every transfer
    /// — the fault plane's link-degradation hook. A fraction of `0.25`
    /// means transfers see a quarter of the configured sustained bandwidth
    /// (setup latency is unaffected); `1.0` restores the healthy link.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn set_degradation(&mut self, fraction: f64) {
        assert!(fraction > 0.0 && fraction <= 1.0, "degradation fraction must be in (0, 1]");
        self.degradation = fraction;
    }

    /// The current bandwidth multiplier (`1.0` when the link is healthy).
    pub fn degradation(&self) -> f64 {
        self.degradation
    }

    fn idx(direction: SwapDirection) -> usize {
        match direction {
            SwapDirection::Out => 0,
            SwapDirection::In => 1,
        }
    }

    fn kidx(kind: TransferKind) -> usize {
        match kind {
            TransferKind::Swap => 0,
            TransferKind::Migration => 1,
            TransferKind::PrefixSpill => 2,
            TransferKind::PrefixFill => 3,
        }
    }

    /// Cycles to move `bytes` one way at the link's current (possibly
    /// degraded) sustained bandwidth.
    fn cost(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let mut bandwidth = self.config.bytes_per_cycle * self.config.efficiency;
        // Only scale when actually degraded so a healthy link's costs are
        // bit-identical to builds that never touch the fault plane.
        if self.degradation != 1.0 {
            bandwidth *= self.degradation;
        }
        let data = (bytes as f64 / bandwidth).ceil() as u64;
        self.config.setup_cycles + data
    }

    /// Charges one transfer of `bytes` in `direction`, attributed to
    /// `kind`, returning its cycles. State is accumulated.
    pub fn transfer_tagged(&mut self, bytes: u64, direction: SwapDirection, kind: TransferKind) -> u64 {
        let cycles = self.cost(bytes);
        let k = Self::kidx(kind);
        self.bytes[k][Self::idx(direction)] += bytes;
        self.cycles[k] += cycles;
        cycles
    }

    /// Bytes moved so far for `kind` in `direction`.
    pub fn tagged_bytes(&self, kind: TransferKind, direction: SwapDirection) -> u64 {
        self.bytes[Self::kidx(kind)][Self::idx(direction)]
    }

    /// Total cycles charged so far for `kind`, both directions.
    pub fn kind_total_cycles(&self, kind: TransferKind) -> u64 {
        self.cycles[Self::kidx(kind)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_cost_nothing() {
        let link = HostLink::new(HostLinkConfig::default());
        assert_eq!(link.cost(0), 0);
    }

    #[test]
    fn cost_is_setup_plus_bandwidth() {
        let link = HostLink::new(HostLinkConfig::default());
        let c = link.cost(1 << 20);
        let data = ((1u64 << 20) as f64 / (32.0 * 0.85)).ceil() as u64;
        assert_eq!(c, 1000 + data);
    }

    #[test]
    fn directions_accumulate_separately() {
        let mut link = HostLink::new(HostLinkConfig::default());
        let out = link.transfer_tagged(4096, SwapDirection::Out, TransferKind::Swap);
        let back = link.transfer_tagged(4096, SwapDirection::In, TransferKind::Swap);
        assert_eq!(out, back, "symmetric link");
        assert_eq!(link.tagged_bytes(TransferKind::Swap, SwapDirection::Out), 4096);
        assert_eq!(link.tagged_bytes(TransferKind::Swap, SwapDirection::In), 4096);
        assert_eq!(link.kind_total_cycles(TransferKind::Swap), out + back);
    }

    #[test]
    fn swap_is_much_slower_than_hbm_stream() {
        use crate::HbmConfig;
        let link = HostLink::new(HostLinkConfig::default());
        let bytes = 8 << 20;
        assert!(link.cost(bytes) > 5 * HbmConfig::default().cost(bytes));
    }

    #[test]
    fn with_bandwidth_scales_bytes_per_cycle() {
        let cfg = HostLinkConfig::with_bandwidth(64.0, 2.0);
        assert!((cfg.bytes_per_cycle - 32.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn with_bandwidth_rejects_zero() {
        HostLinkConfig::with_bandwidth(32.0, 0.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SwapDirection::Out.to_string(), "swap_out");
        assert_eq!(SwapDirection::In.to_string(), "swap_in");
        assert_eq!(TransferKind::Swap.to_string(), "swap");
        assert_eq!(TransferKind::Migration.to_string(), "migration");
        assert_eq!(TransferKind::PrefixSpill.to_string(), "prefix_spill");
        assert_eq!(TransferKind::PrefixFill.to_string(), "prefix_fill");
    }

    #[test]
    fn prefix_kinds_accumulate_separately_from_swap_traffic() {
        let mut link = HostLink::new(HostLinkConfig::default());
        let spill = link.transfer_tagged(2000, SwapDirection::Out, TransferKind::PrefixSpill);
        let fill = link.transfer_tagged(2000, SwapDirection::In, TransferKind::PrefixFill);
        link.transfer_tagged(500, SwapDirection::Out, TransferKind::Swap);
        assert_eq!(link.tagged_bytes(TransferKind::PrefixSpill, SwapDirection::Out), 2000);
        assert_eq!(link.tagged_bytes(TransferKind::PrefixFill, SwapDirection::In), 2000);
        assert_eq!(link.tagged_bytes(TransferKind::Swap, SwapDirection::Out), 500);
        assert_eq!(link.kind_total_cycles(TransferKind::PrefixSpill), spill);
        assert_eq!(link.kind_total_cycles(TransferKind::PrefixFill), fill);
    }

    #[test]
    fn kinds_accumulate_separately() {
        let mut link = HostLink::new(HostLinkConfig::default());
        let swap = link.transfer_tagged(1000, SwapDirection::Out, TransferKind::Swap);
        let mig = link.transfer_tagged(3000, SwapDirection::Out, TransferKind::Migration);
        assert_eq!(link.tagged_bytes(TransferKind::Swap, SwapDirection::Out), 1000);
        assert_eq!(link.tagged_bytes(TransferKind::Migration, SwapDirection::Out), 3000);
        assert_eq!(link.tagged_bytes(TransferKind::Migration, SwapDirection::In), 0);
        assert_eq!(link.kind_total_cycles(TransferKind::Swap), swap);
        assert_eq!(link.kind_total_cycles(TransferKind::Migration), mig);
    }

    #[test]
    fn degradation_stretches_data_cycles_only() {
        let mut link = HostLink::new(HostLinkConfig::default());
        assert!((link.degradation() - 1.0).abs() < 1e-12);
        let healthy = link.cost(1 << 20);
        link.set_degradation(0.25);
        let degraded = link.cost(1 << 20);
        let data = ((1u64 << 20) as f64 / (32.0 * 0.85 * 0.25)).ceil() as u64;
        assert_eq!(degraded, 1000 + data, "setup cycles are unaffected");
        assert!(degraded > healthy);
        link.set_degradation(1.0);
        assert_eq!(link.cost(1 << 20), healthy, "recovery restores the healthy cost");
    }

    #[test]
    #[should_panic(expected = "degradation fraction")]
    fn degradation_rejects_zero() {
        HostLink::new(HostLinkConfig::default()).set_degradation(0.0);
    }
}
