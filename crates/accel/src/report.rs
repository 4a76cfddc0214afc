//! Cycle accounting reports.

/// Cycle breakdown of a scheduled operation or step.
///
/// `total_cycles` is the critical-path time; compute and memory overlap
/// under double buffering, so `total = Σ max(compute_i, memory_i) + exposed
/// SFU` across components. `hbm_bytes` are the bytes `memory_cycles`
/// stream, the traffic the energy model charges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleReport {
    /// PE-array busy cycles.
    pub compute_cycles: u64,
    /// Off-chip memory cycles.
    pub memory_cycles: u64,
    /// SFU cycles *not* hidden behind compute (0 under element-serial
    /// scheduling except the O(1) drain).
    pub exposed_sfu_cycles: u64,
    /// Critical-path cycles.
    pub total_cycles: u64,
    /// Bytes streamed from HBM.
    pub hbm_bytes: u64,
    /// Contributions to the critical path, one total per component name,
    /// in the order the names were first charged.
    pub components: Vec<(&'static str, u64)>,
}

impl CycleReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a component whose compute and memory overlap: the critical
    /// path grows by `max(compute, memory)`.
    pub(crate) fn add_overlapped(&mut self, name: &'static str, compute: u64, memory: u64) {
        self.compute_cycles += compute;
        self.memory_cycles += memory;
        let contribution = compute.max(memory);
        self.total_cycles += contribution;
        self.add_component(name, contribution);
    }

    /// Adds serial (non-overlappable) SFU cycles to the critical path.
    pub(crate) fn add_exposed_sfu(&mut self, name: &'static str, cycles: u64) {
        self.exposed_sfu_cycles += cycles;
        self.total_cycles += cycles;
        self.add_component(name, cycles);
    }

    /// Adds `cycles` to the entry of `name`, opening it if there is none.
    fn add_component(&mut self, name: &'static str, cycles: u64) {
        match self.components.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += cycles,
            None => self.components.push((name, cycles)),
        }
    }

    /// Turns the report into `times` copies of itself run one after
    /// another (a stack of identical layers): every count scales, and
    /// each component's `max(compute, memory)` with it.
    pub(crate) fn repeat(&mut self, times: u64) {
        let Self { compute_cycles, memory_cycles, exposed_sfu_cycles, total_cycles, hbm_bytes, components } =
            self;
        let counts = [compute_cycles, memory_cycles, exposed_sfu_cycles, total_cycles, hbm_bytes];
        for count in counts.into_iter().chain(components.iter_mut().map(|(_, cycles)| cycles)) {
            *count *= times;
        }
    }

    /// Merges another report (sequential composition).
    pub fn merge(&mut self, other: &CycleReport) {
        self.compute_cycles += other.compute_cycles;
        self.memory_cycles += other.memory_cycles;
        self.exposed_sfu_cycles += other.exposed_sfu_cycles;
        self.total_cycles += other.total_cycles;
        self.hbm_bytes += other.hbm_bytes;
        for &(name, cycles) in &other.components {
            self.add_component(name, cycles);
        }
    }

    /// PE utilization: compute cycles over total.
    pub fn pe_utilization(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.compute_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Memory-boundedness: memory cycles over total.
    pub fn memory_boundedness(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.memory_cycles as f64 / self.total_cycles as f64
        }
    }
}

impl std::fmt::Display for CycleReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "total {} cycles (compute {}, memory {}, exposed SFU {})",
            self.total_cycles, self.compute_cycles, self.memory_cycles, self.exposed_sfu_cycles
        )?;
        for (name, cycles) in &self.components {
            writeln!(f, "  {name:<24} {cycles}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapped_components_take_the_max() {
        let mut r = CycleReport::new();
        r.add_overlapped("qkv", 100, 400);
        r.add_overlapped("attn", 300, 100);
        r.add_overlapped("qkv", 50, 20);
        assert_eq!(r.total_cycles, 400 + 300 + 50);
        assert_eq!(r.compute_cycles, 450);
        assert_eq!(r.memory_cycles, 520);
        // One total per name, in first-charged order.
        assert_eq!(r.components, [("qkv", 450), ("attn", 300)]);
    }

    #[test]
    fn exposed_sfu_is_serial() {
        let mut r = CycleReport::new();
        r.add_overlapped("gemv", 100, 50);
        r.add_exposed_sfu("softmax", 30);
        assert_eq!(r.total_cycles, 130);
        assert_eq!(r.exposed_sfu_cycles, 30);
    }

    #[test]
    fn merge_is_sequential_composition() {
        let mut a = CycleReport::new();
        a.add_overlapped("x", 10, 5);
        let mut b = CycleReport::new();
        b.add_overlapped("y", 20, 30);
        b.add_overlapped("x", 4, 1);
        b.hbm_bytes = 64;
        a.merge(&b);
        assert_eq!(a.total_cycles, 44);
        assert_eq!(a.hbm_bytes, 64);
        assert_eq!(a.components, [("x", 14), ("y", 30)]);
    }

    #[test]
    fn repeat_equals_charging_every_copy() {
        let mut once = CycleReport::new();
        let mut each = CycleReport::new();
        for _ in 0..3 {
            each.add_overlapped("gemv", 100, 250);
            each.add_exposed_sfu("norm", 7);
        }
        once.add_overlapped("gemv", 100, 250);
        once.add_exposed_sfu("norm", 7);
        once.hbm_bytes = 64;
        each.hbm_bytes = 3 * 64;
        once.repeat(3);
        assert_eq!(once, each);
    }

    #[test]
    fn utilization_ratios() {
        let mut r = CycleReport::new();
        r.add_overlapped("m", 50, 100);
        assert!((r.pe_utilization() - 0.5).abs() < 1e-9);
        assert!((r.memory_boundedness() - 1.0).abs() < 1e-9);
        assert_eq!(CycleReport::new().pe_utilization(), 0.0);
    }

    #[test]
    fn display_lists_components() {
        let mut r = CycleReport::new();
        r.add_overlapped("ffn", 10, 2);
        let s = r.to_string();
        assert!(s.contains("ffn"));
        assert!(s.contains("total 10 cycles"));
    }
}
