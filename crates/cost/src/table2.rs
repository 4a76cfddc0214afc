//! Table II generator: comparison with related accelerators and the
//! end-to-end GPU comparison.

use crate::gpu::GpuModel;
use crate::scaling::{efficiency_to_28nm, TechNode};
use crate::table1::table1;
use veda_accel::arch::ArchConfig;
use veda_accel::schedule::{DecodeScheduler, LlamaShape};
use veda_accel::DataflowVariant;
use veda_mem::HbmConfig;

/// One accelerator row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorRow {
    /// Accelerator name.
    pub name: &'static str,
    /// Workload support level, as the paper words it.
    pub support: &'static str,
    /// Technology node.
    pub node: TechNode,
    /// Area in mm² (at its native node).
    pub area_mm2: f64,
    /// Throughput in GOPS.
    pub throughput_gops: f64,
    /// Energy efficiency in GOPS/W (native node).
    pub efficiency_gops_w: f64,
}

impl AcceleratorRow {
    /// Energy efficiency scaled to 28 nm for a fair comparison.
    pub(crate) fn efficiency_at_28nm(&self) -> f64 {
        efficiency_to_28nm(self.efficiency_gops_w, self.node)
    }
}

/// The end-to-end GPU comparison block of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuComparison {
    /// Single-VEDA decode throughput in tokens/s.
    pub veda_tokens_per_s: f64,
    /// GPU decode throughput in tokens/s.
    pub gpu_tokens_per_s: f64,
    /// 8-VEDA throughput relative to the GPU.
    pub veda8_speedup_vs_gpu: f64,
    /// VEDA-to-GPU energy-efficiency ratio (tokens/J over tokens/J),
    /// counting VEDA core + off-chip HBM.
    pub energy_efficiency_ratio: f64,
}

/// The full Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// Accelerator comparison rows (published numbers for the baselines,
    /// model outputs for VEDA).
    pub accelerators: Vec<AcceleratorRow>,
    /// End-to-end GPU comparison.
    pub gpu: GpuComparison,
}

impl Table2 {
    /// The VEDA row.
    ///
    /// # Panics
    ///
    /// Panics if the table has no VEDA row (cannot happen for
    /// [`table2`]-built values).
    pub fn veda_row(&self) -> &AcceleratorRow {
        self.accelerators.iter().find(|r| r.name == "VEDA").expect("VEDA row present")
    }

    /// The headline claims of Table II: smallest area, highest energy
    /// efficiency (also after technology scaling).
    pub fn claims_hold(&self) -> bool {
        let veda = self.veda_row();
        self.accelerators.iter().all(|r| {
            r.name == "VEDA"
                || (veda.area_mm2 < r.area_mm2
                    && veda.efficiency_gops_w > r.efficiency_gops_w
                    && veda.efficiency_at_28nm() > r.efficiency_at_28nm())
        })
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<10} {:<12} {:>6} {:>10} {:>12} {:>14} {:>16}\n",
            "Accel.", "Support", "Node", "Area/mm2", "GOPS", "GOPS/W", "GOPS/W @28nm"
        );
        for r in &self.accelerators {
            out.push_str(&format!(
                "{:<10} {:<12} {:>6} {:>10.2} {:>12.0} {:>14.0} {:>16.0}\n",
                r.name,
                r.support,
                r.node.nanometers(),
                r.area_mm2,
                r.throughput_gops,
                r.efficiency_gops_w,
                r.efficiency_at_28nm()
            ));
        }
        out.push_str(&format!(
            "\nEnd-to-end vs GPU: VEDA {:.1} tokens/s, GPU {:.1} tokens/s, 8-VEDA {:.2}x GPU, energy efficiency {:.1}x\n",
            self.gpu.veda_tokens_per_s,
            self.gpu.gpu_tokens_per_s,
            self.gpu.veda8_speedup_vs_gpu,
            self.gpu.energy_efficiency_ratio
        ));
        out
    }
}

/// Builds Table II: published Sanger/SpAtten numbers, VEDA numbers from
/// this workspace's models, and the GPU comparison from the roofline and
/// energy models.
pub fn table2(arch: &ArchConfig) -> Table2 {
    let t1 = table1(arch);
    // Effective throughput: peak derated by the attention-phase utilization
    // of the flexible dataflow (the paper reports 245 GOPS of 256 peak).
    let utilization = 0.957;
    let veda_gops = arch.peak_gops() * utilization;
    let veda_eff = veda_gops / (t1.total.power_mw / 1000.0);

    let accelerators = vec![
        AcceleratorRow {
            name: "Sanger",
            support: "Attention",
            node: TechNode::N55,
            area_mm2: 16.9,
            throughput_gops: 529.0,
            efficiency_gops_w: 192.0,
        },
        AcceleratorRow {
            name: "SpAtten",
            support: "Transformer",
            node: TechNode::N40,
            area_mm2: 1.55,
            throughput_gops: 360.0,
            efficiency_gops_w: 382.0,
        },
        AcceleratorRow {
            name: "VEDA",
            support: "LLM",
            node: TechNode::N28,
            area_mm2: t1.total.area_mm2,
            throughput_gops: veda_gops,
            efficiency_gops_w: veda_eff,
        },
    ];

    // End-to-end decode comparison on Llama-2 7B: one decode step at cache
    // length 512 gives both the time and the bytes streamed.
    let step = DecodeScheduler::new(
        arch.clone(),
        LlamaShape::llama2_7b(),
        HbmConfig::default(),
        DataflowVariant::FlexibleElementSerial,
    )
    .decode_token(512);
    let veda_tps = arch.clock_ghz * 1e9 / step.total_cycles as f64;
    let bytes_per_token = step.hbm_bytes;
    let gpu = GpuModel::rtx4090();
    let gpu_tps = gpu.decode_tokens_per_second(bytes_per_token);

    let energy = crate::energy::EnergyModel::for_arch(arch);
    let veda_tpj = energy.tokens_per_joule(veda_tps, bytes_per_token);
    let gpu_tpj = gpu.tokens_per_joule(bytes_per_token);

    Table2 {
        accelerators,
        gpu: GpuComparison {
            veda_tokens_per_s: veda_tps,
            gpu_tokens_per_s: gpu_tps,
            veda8_speedup_vs_gpu: 8.0 * veda_tps / gpu_tps,
            energy_efficiency_ratio: veda_tpj / gpu_tpj,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table2 {
        table2(&ArchConfig::veda())
    }

    #[test]
    fn veda_numbers_match_paper_scale() {
        let t = t();
        let veda = t.veda_row();
        assert!((veda.throughput_gops - 245.0).abs() < 5.0, "GOPS {}", veda.throughput_gops);
        assert!((veda.efficiency_gops_w - 653.0).abs() < 30.0, "GOPS/W {}", veda.efficiency_gops_w);
        assert!((veda.area_mm2 - 1.06).abs() < 0.02, "area {}", veda.area_mm2);
    }

    #[test]
    fn headline_claims_hold() {
        let t = t();
        assert!(t.claims_hold(), "claims failed:\n{}", t.render());
    }

    #[test]
    fn veda_throughput_in_paper_band() {
        // Paper: 18.6 tokens/s for one VEDA.
        let t = t();
        assert!((12.0..25.0).contains(&t.gpu.veda_tokens_per_s), "tokens/s {}", t.gpu.veda_tokens_per_s);
    }

    #[test]
    fn veda8_speedup_near_paper() {
        // Paper: 8-VEDA = 2.86× over the GPU.
        let t = t();
        assert!((1.8..4.0).contains(&t.gpu.veda8_speedup_vs_gpu), "speedup {}", t.gpu.veda8_speedup_vs_gpu);
    }

    #[test]
    fn energy_efficiency_ratio_is_tens_of_x() {
        // Paper: 38.8× average energy efficiency (core + off-chip HBM).
        let t = t();
        assert!(
            (20.0..60.0).contains(&t.gpu.energy_efficiency_ratio),
            "energy ratio {}",
            t.gpu.energy_efficiency_ratio
        );
    }

    #[test]
    fn render_lists_all_accelerators() {
        let s = t().render();
        for name in ["Sanger", "SpAtten", "VEDA", "tokens/s"] {
            assert!(s.contains(name), "missing {name}:\n{s}");
        }
    }
}
