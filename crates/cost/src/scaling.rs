//! DeepScaleTool-style technology scaling.
//!
//! The paper normalizes comparisons across nodes ("it remains true after
//! technology scaling \[13\]"). This module provides per-node energy
//! factors relative to 28 nm, interpolating the published deep-submicron
//! scaling data: energy per operation improves more slowly than the
//! square-law area shrink.

/// A supported technology node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechNode {
    /// 55 nm (Sanger).
    N55,
    /// 40 nm (SpAtten).
    N40,
    /// 28 nm (VEDA).
    N28,
    /// 16 nm.
    N16,
}

impl TechNode {
    /// The node's drawn dimension in nm.
    pub(crate) fn nanometers(self) -> f64 {
        match self {
            TechNode::N55 => 55.0,
            TechNode::N40 => 40.0,
            TechNode::N28 => 28.0,
            TechNode::N16 => 16.0,
        }
    }

    /// Energy-per-op factor relative to 28 nm (> 1 for older nodes):
    /// sub-quadratic — DeepScaleTool reports roughly linear-to-1.5-power
    /// improvement; we use `(node/28)^1.4`.
    pub(crate) fn energy_factor_vs_28(self) -> f64 {
        (self.nanometers() / 28.0).powf(1.4)
    }
}

/// Scales an energy-efficiency (GOPS/W) measured at `from` to its 28 nm
/// equivalent (efficiency improves at newer nodes, so older-node numbers
/// scale *up*).
pub(crate) fn efficiency_to_28nm(gops_per_w: f64, from: TechNode) -> f64 {
    gops_per_w * from.energy_factor_vs_28()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_are_identity_at_28() {
        assert!((TechNode::N28.energy_factor_vs_28() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn older_nodes_are_bigger_and_hungrier() {
        assert!(TechNode::N55.nanometers() > TechNode::N40.nanometers());
        assert!(TechNode::N55.energy_factor_vs_28() > TechNode::N40.energy_factor_vs_28());
        assert!(TechNode::N40.energy_factor_vs_28() > 1.0);
    }

    #[test]
    fn efficiency_scaling_helps_older_designs() {
        let e = efficiency_to_28nm(192.0, TechNode::N55);
        assert!(e > 192.0 && e < 192.0 * 3.0, "efficiency {e}");
    }
}
