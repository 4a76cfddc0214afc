//! Per-module area/power models at TSMC 28 nm, 1 GHz, FP16 datapath.
//!
//! Unit costs are calibrated so the paper's exact configuration (8×8×2
//! PEs, 4096-entry voting engine, the Table I SFU inventory, 256 KB SRAM)
//! reproduces Table I to within rounding. Changing the architecture
//! (bigger arrays, deeper FIFOs, more SFU units) moves the estimates the
//! way a CACTI + synthesis flow would to first order.

use veda_accel::arch::ArchConfig;

/// Area (mm²) and power (mW) of one module.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModuleCost {
    /// Silicon area in mm².
    pub area_mm2: f64,
    /// Power in mW at 1 GHz.
    pub power_mw: f64,
}

impl ModuleCost {
    /// Component-wise sum.
    pub(crate) fn plus(self, other: ModuleCost) -> ModuleCost {
        ModuleCost { area_mm2: self.area_mm2 + other.area_mm2, power_mw: self.power_mw + other.power_mw }
    }

    /// Scales both area and power by a factor.
    pub(crate) fn scaled(self, factor: f64) -> ModuleCost {
        ModuleCost { area_mm2: self.area_mm2 * factor, power_mw: self.power_mw * factor }
    }
}

/// Calibrated unit costs at 28 nm / 1 GHz / FP16.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct UnitCosts {
    /// One reconfigurable PE (FP16 multiplier + adder + registers + mode
    /// logic). Calibrated: 128 PEs = 0.493 mm² / 175.64 mW.
    pub pe: ModuleCost,
    /// One KB of single-port SRAM. Calibrated: 256 KB = 0.426 mm² /
    /// 148.82 mW.
    pub sram_per_kb: ModuleCost,
    /// One KB of FIFO storage (dual-ported, pointer logic): SRAM × 1.5.
    pub fifo_per_kb: ModuleCost,
    /// One FP16 exponentiation unit.
    pub exp_unit: ModuleCost,
    /// One FP16 divider.
    pub div_unit: ModuleCost,
    /// One FP16 square-root unit.
    pub sqrt_unit: ModuleCost,
    /// One FP16 multiplier.
    pub mul_unit: ModuleCost,
    /// One FP16 adder.
    pub add_unit: ModuleCost,
    /// Voting-engine comparator/threshold/index logic (fixed).
    pub voting_logic: ModuleCost,
    /// Scheduler / system control / PE-array configuration (fixed).
    pub scheduler: ModuleCost,
}

impl Default for UnitCosts {
    fn default() -> Self {
        let sram_per_kb = ModuleCost { area_mm2: 0.426 / 256.0, power_mw: 148.82 / 256.0 };
        Self {
            pe: ModuleCost { area_mm2: 0.493 / 128.0, power_mw: 175.64 / 128.0 },
            sram_per_kb,
            fifo_per_kb: sram_per_kb.scaled(1.5),
            exp_unit: ModuleCost { area_mm2: 0.0060, power_mw: 2.80 },
            div_unit: ModuleCost { area_mm2: 0.0040, power_mw: 1.90 },
            sqrt_unit: ModuleCost { area_mm2: 0.0030, power_mw: 1.30 },
            mul_unit: ModuleCost { area_mm2: 0.0012, power_mw: 0.55 },
            add_unit: ModuleCost { area_mm2: 0.0006, power_mw: 0.25 },
            voting_logic: ModuleCost { area_mm2: 0.0290, power_mw: 11.90 },
            scheduler: ModuleCost { area_mm2: 0.041, power_mw: 11.20 },
        }
    }
}

impl UnitCosts {
    /// PE array cost for an architecture.
    pub(crate) fn pe_array(&self, arch: &ArchConfig) -> ModuleCost {
        self.pe.scaled(arch.macs() as f64)
    }

    /// Voting engine cost: the s' FIFO (capacity × 16 bit), the vote-count
    /// buffer (capacity × 16 bit), and the fixed comparator/threshold
    /// logic.
    pub(crate) fn voting_engine(&self, arch: &ArchConfig) -> ModuleCost {
        let storage_kb = 2.0 * (arch.vote_capacity as f64 * 2.0) / 1024.0;
        self.fifo_per_kb.scaled(storage_kb).plus(self.voting_logic)
    }

    /// Special Function Unit cost from its resource inventory.
    pub(crate) fn sfu(&self, arch: &ArchConfig) -> ModuleCost {
        let s = &arch.sfu;
        let fifo_kb = (s.fifo_depth as f64 * 2.0) / 1024.0;
        self.exp_unit
            .scaled(s.exp_units as f64)
            .plus(self.div_unit.scaled(s.div_units as f64))
            .plus(self.sqrt_unit.scaled(s.sqrt_units as f64))
            .plus(self.mul_unit.scaled(s.mul_units as f64))
            .plus(self.add_unit.scaled(s.add_units as f64))
            .plus(self.fifo_per_kb.scaled(fifo_kb))
    }

    /// On-chip buffer cost.
    pub(crate) fn sram(&self, arch: &ArchConfig) -> ModuleCost {
        self.sram_per_kb.scaled(arch.sram_bytes as f64 / 1024.0)
    }

    /// Scheduler cost (fixed control logic).
    pub(crate) fn schedule(&self, _arch: &ArchConfig) -> ModuleCost {
        self.scheduler
    }

    /// Total chip cost.
    pub(crate) fn total(&self, arch: &ArchConfig) -> ModuleCost {
        self.pe_array(arch)
            .plus(self.voting_engine(arch))
            .plus(self.sfu(arch))
            .plus(self.sram(arch))
            .plus(self.schedule(arch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn veda() -> ArchConfig {
        ArchConfig::veda()
    }

    #[test]
    fn pe_array_matches_table1() {
        let c = UnitCosts::default().pe_array(&veda());
        assert!((c.area_mm2 - 0.493).abs() < 1e-6);
        assert!((c.power_mw - 175.64).abs() < 1e-6);
    }

    #[test]
    fn sram_matches_table1() {
        let c = UnitCosts::default().sram(&veda());
        assert!((c.area_mm2 - 0.426).abs() < 1e-6);
        assert!((c.power_mw - 148.82).abs() < 1e-6);
    }

    #[test]
    fn voting_engine_near_table1() {
        // Table I: 0.069 mm² / 26.41 mW.
        let c = UnitCosts::default().voting_engine(&veda());
        assert!((c.area_mm2 - 0.069).abs() < 0.005, "area {}", c.area_mm2);
        assert!((c.power_mw - 26.41).abs() < 2.0, "power {}", c.power_mw);
    }

    #[test]
    fn sfu_near_table1() {
        // Table I: 0.029 mm² / 13.19 mW.
        let c = UnitCosts::default().sfu(&veda());
        assert!((c.area_mm2 - 0.029).abs() < 0.003, "area {}", c.area_mm2);
        assert!((c.power_mw - 13.19).abs() < 1.5, "power {}", c.power_mw);
    }

    #[test]
    fn total_near_paper_chip() {
        // Table I: total 1.058 mm² / 375.26 mW.
        let c = UnitCosts::default().total(&veda());
        assert!((c.area_mm2 - 1.058).abs() < 0.01, "area {}", c.area_mm2);
        assert!((c.power_mw - 375.26).abs() < 5.0, "power {}", c.power_mw);
    }

    #[test]
    fn costs_scale_with_architecture() {
        let unit = UnitCosts::default();
        let mut big = veda();
        big.pe_lanes = 4;
        assert!(unit.pe_array(&big).area_mm2 > unit.pe_array(&veda()).area_mm2 * 1.9);
        let mut deep = veda();
        deep.vote_capacity = 2048;
        assert!(unit.voting_engine(&deep).area_mm2 < unit.voting_engine(&veda()).area_mm2);
    }

    #[test]
    fn plus_and_scaled_are_componentwise() {
        let a = ModuleCost { area_mm2: 1.0, power_mw: 2.0 };
        let b = ModuleCost { area_mm2: 0.5, power_mw: 0.25 };
        let s = a.plus(b).scaled(2.0);
        assert!((s.area_mm2 - 3.0).abs() < 1e-12);
        assert!((s.power_mw - 4.5).abs() < 1e-12);
    }
}
