//! Cross-crate integration: full single-request runs across every policy
//! and dataflow variant.

use veda::{Budget, Engine, EngineBuilder, Request, RequestReport};
use veda_accel::DataflowVariant;
use veda_eviction::PolicyKind;
use veda_model::ModelConfig;

fn prompt() -> Vec<usize> {
    (0..48).map(|i| (i * 11) % 60 + 1).collect()
}

fn engine(variant: DataflowVariant) -> Engine {
    EngineBuilder::new().model(ModelConfig::tiny()).variant(variant).build().expect("valid config")
}

/// Runs `request` alone on `engine` to completion.
fn run(engine: &mut Engine, request: Request) -> RequestReport {
    engine.submit(request).expect("valid request");
    engine.run_to_completion().requests.remove(0).report
}

/// Runs `request` alone on a fresh engine with the default dataflow.
fn run_fresh(request: Request) -> RequestReport {
    run(&mut engine(DataflowVariant::FlexibleElementSerial), request)
}

#[test]
fn every_policy_runs_end_to_end() {
    for policy in PolicyKind::ALL {
        let r = run_fresh(Request::new(prompt(), 12).policy(policy).budget(Budget::Ratio(0.5)));
        assert_eq!(r.generated.len(), 12, "{policy}");
        assert!(r.tokens_per_second > 0.0, "{policy}");
        assert!(r.attention_cycles_per_token.iter().all(|&c| c > 0), "{policy}");
    }
}

#[test]
fn every_variant_runs_and_orders() {
    let mut totals = Vec::new();
    for variant in DataflowVariant::ALL {
        let request = Request::new(prompt(), 16).policy(PolicyKind::Full).budget(Budget::Fixed(10_000));
        let r = run(&mut engine(variant), request);
        totals.push((variant, r.total_cycles));
    }
    assert!(totals[0].1 > totals[1].1, "baseline {:?} <= flexible {:?}", totals[0], totals[1]);
    assert!(totals[1].1 > totals[2].1, "flexible {:?} <= element-serial {:?}", totals[1], totals[2]);
}

#[test]
fn eviction_policies_hold_cache_at_budget() {
    for policy in [PolicyKind::SlidingWindow, PolicyKind::H2o, PolicyKind::Voting] {
        let r = run_fresh(Request::new(prompt(), 24).policy(policy).budget(Budget::Ratio(0.25)));
        assert_eq!(r.cache_budget, 12);
        // The voting policy's reserved length (32, the paper's attention
        // sink) lower-bounds the cache: it never shrinks below R.
        let expected = if policy == PolicyKind::Voting { 32 } else { 12 };
        assert_eq!(r.final_cache_len, expected, "{policy} did not hold the budget");
    }
}

#[test]
fn generation_is_reproducible_across_builds() {
    let request = || Request::new(prompt(), 10).policy(PolicyKind::Voting).budget(Budget::Ratio(0.5));
    assert_eq!(run_fresh(request()), run_fresh(request()));
}

#[test]
fn smaller_budget_means_fewer_attention_cycles() {
    let total_attn = |ratio: f64| {
        let r = run_fresh(Request::new(prompt(), 16).policy(PolicyKind::Voting).budget(Budget::Ratio(ratio)));
        r.attention_cycles_per_token.iter().sum::<u64>()
    };
    assert!(total_attn(0.25) < total_attn(0.75));
}
