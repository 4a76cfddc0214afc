//! # veda-bench
//!
//! Experiment drivers that regenerate every table and figure of the VEDA
//! paper's evaluation section. Each experiment is a pure function returning
//! structured rows, shared by the report binaries (`fig8_left`,
//! `fig8_center`, `fig8_right`, `table1`, `table2`, `ablation_hparams`,
//! `calibrate_voting`) and the Criterion benches.
//!
//! | artifact | function | binary |
//! |---|---|---|
//! | Fig. 8 left (perplexity vs cache size) | [`fig8_left`] | `fig8_left` |
//! | voting calibration + oracle bound (`docs/FIDELITY.md`) | [`Substrate::voting_sweep`], [`Substrate::score_all`], [`select_voting`] | `calibrate_voting` |
//! | Fig. 8 center (dataflow ablation) | [`fig8_center`] | `fig8_center` |
//! | Fig. 8 right (eviction speedup) | [`fig8_right`] | `fig8_right` |
//! | Table I (area/power breakdown) | [`veda_cost::table1()`] | `table1` |
//! | Table II (accelerator comparison) | [`veda_cost::table2()`] | `table2` |
//! | hyper-parameter ablation (extension) | [`Substrate::voting_sweep`] | `ablation_hparams` |

// Crate hygiene, enforced by veda-lint (rule crate-hygiene): no unsafe
// code under the determinism pins, no undocumented public surface.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod quality;

pub use quality::{
    calibrated_policy, calibration_grid, fig8_left, render_quality, render_sweep, select_voting, Arm,
    Quality, QualityPoint, QualityScale, SampleSet, Substrate, SweepPoint, CALIBRATED_VOTING,
    CALIBRATION_CACHES,
};
use veda_accel::arch::{ArchConfig, DataflowVariant};
use veda_accel::attention::{average_generation_attention_cycles, eviction_speedup};

/// One point of Fig. 8 (center).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationPoint {
    /// Generation length after the 512-token prompt.
    pub gen_len: usize,
    /// Dataflow variant.
    pub variant: DataflowVariant,
    /// Attention latency normalized to the baseline at the same length.
    pub normalized_latency: f64,
}

/// Fig. 8 (center): dataflow ablation — Baseline vs +F vs +F+E, normalized
/// average attention latency, prompt 512, generation 0..1024.
pub fn fig8_center() -> Vec<AblationPoint> {
    let arch = ArchConfig::veda();
    let mut out = Vec::new();
    for gen_len in [0usize, 128, 256, 512, 1024] {
        let base = average_generation_attention_cycles(&arch, DataflowVariant::Baseline, 512, gen_len, None);
        for variant in DataflowVariant::ALL {
            let cycles = average_generation_attention_cycles(&arch, variant, 512, gen_len, None);
            out.push(AblationPoint { gen_len, variant, normalized_latency: cycles / base });
        }
    }
    out
}

/// One point of Fig. 8 (right).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupPoint {
    /// Generation length.
    pub gen_len: usize,
    /// KV compression ratio (cache held at `ratio × 512`).
    pub kv_ratio: f64,
    /// Speedup over VEDA without eviction.
    pub speedup: f64,
}

/// Fig. 8 (right): speedup of voting-based cache eviction at KV ratios
/// 0.5/0.4/0.3/0.2 over generation lengths 128..1024 (prompt 512).
pub fn fig8_right() -> Vec<SpeedupPoint> {
    let arch = ArchConfig::veda();
    let mut out = Vec::new();
    for &ratio in &[0.5, 0.4, 0.3, 0.2] {
        for &gen_len in &[128usize, 256, 512, 1024] {
            out.push(SpeedupPoint {
                gen_len,
                kv_ratio: ratio,
                speedup: eviction_speedup(&arch, 512, gen_len, ratio),
            });
        }
    }
    out
}

/// Renders Fig. 8 (center) rows as an aligned text table.
pub fn render_ablation(points: &[AblationPoint]) -> String {
    let mut out =
        format!("{:<10} {:>10} {:>12} {:>14}\n", "GenLen", "Baseline", "Baseline+F", "Baseline+F+E");
    let mut lens: Vec<usize> = points.iter().map(|p| p.gen_len).collect();
    lens.dedup();
    for len in lens {
        let get = |v: DataflowVariant| {
            points
                .iter()
                .find(|p| p.gen_len == len && p.variant == v)
                .map_or(f64::NAN, |p| p.normalized_latency)
        };
        out.push_str(&format!(
            "{:<10} {:>10.2} {:>12.2} {:>14.2}\n",
            len,
            get(DataflowVariant::Baseline),
            get(DataflowVariant::Flexible),
            get(DataflowVariant::FlexibleElementSerial)
        ));
    }
    out
}

/// Renders Fig. 8 (right) rows as an aligned text table.
pub fn render_speedup(points: &[SpeedupPoint]) -> String {
    let mut out =
        format!("{:<10} {:>10} {:>10} {:>10} {:>10}\n", "GenLen", "0.5KV", "0.4KV", "0.3KV", "0.2KV");
    let mut lens: Vec<usize> = points.iter().map(|p| p.gen_len).collect();
    lens.sort_unstable();
    lens.dedup();
    for len in lens {
        let get = |r: f64| {
            points
                .iter()
                .find(|p| p.gen_len == len && (p.kv_ratio - r).abs() < 1e-9)
                .map_or(f64::NAN, |p| p.speedup)
        };
        out.push_str(&format!(
            "{:<10} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
            len,
            get(0.5),
            get(0.4),
            get(0.3),
            get(0.2)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn center_points_cover_grid() {
        let pts = fig8_center();
        assert_eq!(pts.len(), 5 * 3);
        // Baseline normalizes to 1.0.
        assert!(pts.iter().filter(|p| p.variant == DataflowVariant::Baseline).all(|p| (p
            .normalized_latency
            - 1.0)
            .abs()
            < 1e-12));
    }

    #[test]
    fn center_ordering_holds() {
        for p in fig8_center() {
            match p.variant {
                DataflowVariant::Baseline => {}
                DataflowVariant::Flexible => assert!(p.normalized_latency < 1.0),
                DataflowVariant::FlexibleElementSerial => assert!(p.normalized_latency < 0.75),
            }
        }
    }

    #[test]
    fn right_corners_match_paper() {
        let pts = fig8_right();
        let get = |len: usize, r: f64| {
            pts.iter().find(|p| p.gen_len == len && (p.kv_ratio - r).abs() < 1e-9).unwrap().speedup
        };
        assert!((1.8..2.8).contains(&get(128, 0.5)), "{}", get(128, 0.5));
        assert!((8.0..12.0).contains(&get(1024, 0.2)), "{}", get(1024, 0.2));
    }

    #[test]
    fn renderers_produce_aligned_tables() {
        assert!(render_ablation(&fig8_center()).contains("Baseline+F+E"));
        assert!(render_speedup(&fig8_right()).contains("0.2KV"));
    }
}
