//! Functional fidelity of the hardware models against the reference
//! kernels, driven by *real* model data (not synthetic unit vectors).

use veda_accel::arch::SfuConfig;
use veda_accel::sfu::SoftmaxUnit;
use veda_accel::voting::VotingEngine;
use veda_accel::{ArrayMode, PeArray};
use veda_eviction::{EvictionPolicy, VotingConfig, VotingPolicy};
use veda_model::{ModelConfig, TransformerModel};
use veda_tensor::ops;

#[test]
fn pe_array_computes_real_attention_scores() {
    // Run the functional transformer, then recompute one head's q×Kᵀ on
    // the PE-array model and compare against the reference kernel.
    let cfg = ModelConfig::tiny();
    let model = TransformerModel::new(cfg.clone());
    let mut state = model.new_state();
    for pos in 0..12 {
        model.forward_in(&mut state, (pos * 7) % cfg.vocab_size, pos);
    }
    let cache = &state.caches()[0];
    let dh = cfg.head_dim();
    // Head 0 slice of the keys.
    let mut keys_h = veda_tensor::Matrix::zeros(cache.len(), dh);
    for r in 0..cache.len() {
        keys_h.row_mut(r).copy_from_slice(&cache.keys().row(r)[..dh]);
    }
    let mut rng = veda_tensor::rng::seeded(9);
    let q = veda_tensor::rng::normal_vec(&mut rng, dh, 0.5);

    let mut array = PeArray::veda_tile();
    array.configure(ArrayMode::InnerProduct);
    let hw = array.inner_gemv(&q, &keys_h);
    let reference = ops::gemv_inner(&q, &keys_h);
    assert!(ops::max_abs_diff(&hw.values, &reference) < 0.05);
    assert_eq!(hw.cycles, cache.len() as u64); // dh=8 fits the tile: 1 row/cycle
}

#[test]
fn element_serial_softmax_matches_reference_on_real_scores() {
    let cfg = ModelConfig::tiny();
    let model = TransformerModel::new(cfg.clone());
    let mut state = model.new_state();
    let mut out = model.forward_in(&mut state, 1, 0);
    for pos in 1..16 {
        out = model.forward_in(&mut state, (pos * 3) % cfg.vocab_size, pos);
    }
    // Re-normalize one head's raw-ish scores through the SFU model.
    let scores = out.scores.layer(0).head(0);
    let mut sm = SoftmaxUnit::new(SfuConfig::default());
    for &s in scores {
        sm.push(s.ln()); // feed logits
    }
    let normalized = sm.finish();
    let reference = veda_tensor::softmax::softmax(&scores.iter().map(|s| s.ln()).collect::<Vec<_>>());
    for (a, b) in normalized.iter().zip(&reference) {
        assert!((a - b).abs() < 1e-4);
    }
}

#[test]
fn voting_engine_tracks_software_policy_on_transformer_scores() {
    // Differential test with real attention distributions: the hardware
    // engine (FP16 score ingest) and the software policy fed the same
    // FP16-quantized scores must agree on every eviction.
    let cfg = ModelConfig::tiny();
    let model = TransformerModel::new(cfg.clone());
    let mut state = model.new_state();
    let mut engine = VotingEngine::new(64, VotingConfig::with_reserved_len(2));
    let mut sw = VotingPolicy::new(VotingConfig::with_reserved_len(2));
    let budget = 10;

    for pos in 0..40 {
        let out = model.forward_in(&mut state, (pos * 5 + 1) % cfg.vocab_size, pos);
        engine.on_append().expect("capacity");
        sw.on_append();
        // Layer 0, averaged across heads (Section V aggregation).
        let avg = out.scores.layer(0).average();
        let quantized: Vec<f32> = avg.iter().map(|&x| veda_tensor::fp16::quantize_f32(x)).collect();
        engine.process_head(&avg);
        sw.observe(veda_eviction::ScoreView::single(&quantized));
        assert_eq!(engine.policy().vote_counts(), sw.vote_counts(), "desync at pos {pos}");

        if state.cache_len() > budget {
            let len = state.cache_len();
            let hw_victim = engine.evict(len);
            let sw_victim = sw.select_victim(len);
            assert_eq!(hw_victim, sw_victim, "victim mismatch at pos {pos}");
            if let Some(slot) = sw_victim {
                sw.on_evict(slot);
                state.evict_all_layers(slot);
            }
        }
    }
    assert!(engine.hidden_behind_compute(budget));
}

#[test]
fn outer_product_attention_matches_reference_on_real_values() {
    let cfg = ModelConfig::tiny();
    let model = TransformerModel::new(cfg.clone());
    let mut state = model.new_state();
    let mut out = model.forward_in(&mut state, 2, 0);
    for pos in 1..10 {
        out = model.forward_in(&mut state, (pos * 9) % cfg.vocab_size, pos);
    }
    let cache = &state.caches()[1];
    let dh = cfg.head_dim();
    let mut values_h = veda_tensor::Matrix::zeros(cache.len(), dh);
    for r in 0..cache.len() {
        values_h.row_mut(r).copy_from_slice(&cache.values().row(r)[..dh]);
    }
    let s = out.scores.layer(1).head(0);

    let mut array = PeArray::veda_tile();
    array.configure(ArrayMode::OuterProduct);
    let hw = array.outer_gemv(s, &values_h);
    let reference = ops::gemv_outer(s, &values_h);
    assert!(ops::max_abs_diff(&hw.values, &reference) < 0.05);
}
