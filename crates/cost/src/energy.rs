//! Per-token energy accounting: core power × time + HBM traffic energy.

use crate::modules::UnitCosts;
use veda_accel::arch::ArchConfig;

/// Energy model of a VEDA-class chip plus its HBM.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Core power in mW (from the module model).
    pub core_power_mw: f64,
    /// HBM access energy in pJ per byte.
    pub hbm_pj_per_byte: f64,
    /// Clock in GHz.
    pub clock_ghz: f64,
}

impl EnergyModel {
    /// Builds the model for an architecture using calibrated unit costs
    /// and an HBM energy of 16 pJ/byte (2 pJ/bit, optimistic HBM2E).
    pub fn for_arch(arch: &ArchConfig) -> Self {
        let total = UnitCosts::default().total(arch);
        Self { core_power_mw: total.power_mw, hbm_pj_per_byte: 16.0, clock_ghz: arch.clock_ghz }
    }

    /// Energy of one token in millijoules given its cycle count and HBM
    /// traffic.
    pub fn token_energy_mj(&self, cycles: u64, hbm_bytes: u64) -> f64 {
        let seconds = cycles as f64 / (self.clock_ghz * 1e9);
        let core_mj = self.core_power_mw * seconds; // mW × s = mJ
        let hbm_mj = hbm_bytes as f64 * self.hbm_pj_per_byte * 1e-9; // pJ → mJ
        core_mj + hbm_mj
    }

    /// Average total power in watts while decoding at `tokens_per_second`
    /// with `hbm_bytes` per token.
    pub(crate) fn average_power_w(&self, tokens_per_second: f64, hbm_bytes: u64) -> f64 {
        let core_w = self.core_power_mw / 1000.0;
        let hbm_w = tokens_per_second * hbm_bytes as f64 * self.hbm_pj_per_byte * 1e-12;
        core_w + hbm_w
    }

    /// Tokens per joule at the given operating point.
    pub(crate) fn tokens_per_joule(&self, tokens_per_second: f64, hbm_bytes: u64) -> f64 {
        tokens_per_second / self.average_power_w(tokens_per_second, hbm_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_power_matches_table1_total() {
        let m = EnergyModel::for_arch(&ArchConfig::veda());
        assert!((m.core_power_mw - 375.26).abs() < 5.0, "core power {}", m.core_power_mw);
    }

    #[test]
    fn token_energy_splits_core_and_hbm() {
        let m = EnergyModel { core_power_mw: 1000.0, hbm_pj_per_byte: 10.0, clock_ghz: 1.0 };
        // 1e9 cycles at 1 GHz = 1 s => 1000 mJ core; 1e9 bytes × 10 pJ = 10 mJ.
        let e = m.token_energy_mj(1_000_000_000, 1_000_000_000);
        assert!((e - 1010.0).abs() < 1e-6);
    }

    #[test]
    fn average_power_includes_traffic() {
        let m = EnergyModel::for_arch(&ArchConfig::veda());
        // 18.6 tokens/s × 13.9 GB/token ≈ 258 GB/s × 16 pJ/B ≈ 4.1 W.
        let p = m.average_power_w(18.6, 13_900_000_000);
        assert!((3.0..6.0).contains(&p), "power {p}");
    }

    #[test]
    fn tokens_per_joule_decreases_with_traffic() {
        let m = EnergyModel::for_arch(&ArchConfig::veda());
        assert!(m.tokens_per_joule(18.6, 1_000_000_000) > m.tokens_per_joule(18.6, 20_000_000_000));
    }
}
