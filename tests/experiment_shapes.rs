//! The paper's headline experimental shapes, asserted end-to-end across
//! crates (fast configurations of the same code paths the report binaries
//! use).

use veda_accel::arch::{ArchConfig, DataflowVariant};
use veda_bench::{Arm, SampleSet, Substrate};
use veda_eviction::{PolicyKind, VotingConfig};

#[test]
fn fig8_center_bands_and_ordering() {
    let points = veda_bench::fig8_center();
    for p in &points {
        match p.variant {
            DataflowVariant::Baseline => assert!((p.normalized_latency - 1.0).abs() < 1e-12),
            DataflowVariant::Flexible => {
                assert!(
                    (0.55..0.85).contains(&p.normalized_latency),
                    "F at gen {}: {}",
                    p.gen_len,
                    p.normalized_latency
                )
            }
            DataflowVariant::FlexibleElementSerial => {
                assert!(
                    (0.40..0.70).contains(&p.normalized_latency),
                    "F+E at gen {}: {}",
                    p.gen_len,
                    p.normalized_latency
                )
            }
        }
    }
    // The F+E curve rises with generation length, as in the paper.
    let fe = |gen: usize| {
        points
            .iter()
            .find(|p| p.gen_len == gen && p.variant == DataflowVariant::FlexibleElementSerial)
            .unwrap()
            .normalized_latency
    };
    assert!(fe(1024) > fe(0));
}

#[test]
fn fig8_right_corners_and_monotonicity() {
    let points = veda_bench::fig8_right();
    let get = |gen: usize, r: f64| {
        points.iter().find(|p| p.gen_len == gen && (p.kv_ratio - r).abs() < 1e-9).unwrap().speedup
    };
    // Paper corners: 2.3x at (128, 0.5KV) and 10.0x at (1024, 0.2KV).
    assert!((1.8..2.8).contains(&get(128, 0.5)), "{}", get(128, 0.5));
    assert!((7.0..12.0).contains(&get(1024, 0.2)), "{}", get(1024, 0.2));
    // Monotone in both axes.
    for &r in &[0.5, 0.4, 0.3, 0.2] {
        assert!(get(1024, r) > get(128, r));
    }
    for &g in &[128usize, 1024] {
        assert!(get(g, 0.2) > get(g, 0.5));
    }
}

#[test]
fn fig8_left_voting_beats_h2o_and_improves_with_cache() {
    // A reduced-scale run of the exact experiment code: the central
    // algorithmic claim (voting-based eviction beats accumulated-attention
    // eviction) must hold at every cache size, and perplexity must shrink
    // as the cache grows.
    let scale = veda_bench::QualityScale { samples: 2, sample_len: 1024, cache_sizes: &[96, 192, 384] };
    let points = veda_bench::fig8_left(scale);
    let get = |k: PolicyKind, c: usize| {
        points.iter().find(|p| p.policy == k && p.cache_size == c).unwrap().quality.perplexity()
    };
    for &c in scale.cache_sizes {
        assert!(
            get(PolicyKind::Voting, c) < get(PolicyKind::H2o, c),
            "cache {c}: voting {} vs h2o {}",
            get(PolicyKind::Voting, c),
            get(PolicyKind::H2o, c)
        );
    }
    for k in [PolicyKind::Voting, PolicyKind::H2o, PolicyKind::SlidingWindow] {
        assert!(get(k, 384) < get(k, 96), "{k} did not improve with cache size");
    }
}

#[test]
fn calibrated_voting_is_no_worse_than_sliding_and_beats_h2o_held_out() {
    // The paper's ordering (Fig. 8 left) at equal cache, with the adaptive
    // threshold actually in force: a run that mostly falls back to one
    // vote for the minimum, or that evicts like a window, is not a test of
    // voting. The samples are the benchmark's, which `calibrate_voting`'s
    // sweep never sees.
    const HELD_OUT: SampleSet = SampleSet::HELD_OUT;
    let substrate = Substrate::default();
    for cache in [128, 256] {
        let voting = substrate.score(HELD_OUT, cache, Arm::Kind(PolicyKind::Voting));
        let sliding = substrate.score(HELD_OUT, cache, Arm::Kind(PolicyKind::SlidingWindow)).perplexity();
        let h2o = substrate.score(HELD_OUT, cache, Arm::Kind(PolicyKind::H2o)).perplexity();
        let ppl = voting.perplexity();
        assert!(ppl <= sliding && sliding < h2o, "cache {cache}: voting {ppl}, sliding {sliding}, h2o {h2o}");
        let fallback = voting.votes.fallback_rate();
        assert!(fallback <= 0.1, "cache {cache}: fallback rate {fallback}");
        let non_oldest = voting.non_oldest_share();
        assert!((0.5..=0.95).contains(&non_oldest), "cache {cache}: non-oldest eviction share {non_oldest}");
    }
}

#[test]
fn voting_for_everything_is_the_sliding_window_bit_for_bit() {
    // `a → ∞`: every slot past the reserved prefix is voted for on every
    // step, so vote counts order the slots by age and the victim is always
    // the oldest evictable one — voting degenerates into a sink plus a
    // recency window, which is why the calibration must be interior in `a`.
    let substrate = Substrate::default();
    let samples = SampleSet { count: 1, ..SampleSet::HELD_OUT };
    let everything = VotingConfig { a: 1.0e6, b: 0.0, reserved_len: 4, per_head_votes: false };
    let voting = substrate.score(samples, 128, Arm::Voting(everything));
    let sliding = substrate.score(samples, 128, Arm::Kind(PolicyKind::SlidingWindow));
    assert_eq!(voting.total_nll.to_bits(), sliding.total_nll.to_bits());
    assert_eq!(voting.non_oldest, 0);
    assert_eq!(voting.votes.fallback_rounds, 0);
}

#[test]
fn table1_reproduces_paper_claims() {
    let t = veda_cost::table1(&ArchConfig::veda());
    assert!((t.total.area_mm2 - 1.058).abs() < 0.01);
    assert!((t.total.power_mw - 375.26).abs() < 5.0);
    assert!(t.claims_hold());
}

#[test]
fn table2_reproduces_paper_claims() {
    let t = veda_cost::table2(&ArchConfig::veda());
    assert!(t.claims_hold());
    let veda = t.veda_row();
    assert!((veda.throughput_gops - 245.0).abs() < 5.0);
    assert!((veda.efficiency_gops_w - 653.0).abs() < 30.0);
    assert!((10.0..30.0).contains(&t.gpu.veda_tokens_per_s));
    assert!((20.0..60.0).contains(&t.gpu.energy_efficiency_ratio));
}

#[test]
fn attention_sparsity_claim_holds_on_synthetic_traces() {
    // Section I: attention sparsity approaching 95 %. At long contexts the
    // synthetic trace generator must reach high sparsity.
    let trace =
        veda_model::SyntheticTraceConfig { steps: 768, ..veda_model::SyntheticTraceConfig::default() }
            .generate();
    let s = trace.sparsity(0.9, 384);
    assert!(s > 0.75, "sparsity {s}");
}
