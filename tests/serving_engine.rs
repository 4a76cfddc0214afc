//! Cross-crate integration of the serving engine: the determinism
//! invariant (batched multi-session decode produces per-request reports
//! identical to each request run alone on a fresh engine) and continuous
//! batching over a mixed request population.

use veda::{Budget, EngineBuilder, Request, RequestReport};
use veda_eviction::PolicyKind;
use veda_model::ModelConfig;

fn prompt(len: usize, salt: usize) -> Vec<usize> {
    (0..len).map(|i| (i * 11 + salt * 17) % 60 + 1).collect()
}

/// Runs `prompt` alone on a fresh engine to completion.
fn solo(policy: PolicyKind, budget: Budget, prompt: &[usize], gen_len: usize) -> RequestReport {
    let mut engine = EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid config");
    engine.submit(Request::new(prompt, gen_len).policy(policy).budget(budget)).expect("valid request");
    engine.run_to_completion().requests.remove(0).report
}

/// The acceptance-criteria invariant: an engine decoding several
/// concurrent sessions of *different* policies and budgets must produce,
/// for every request, a report token-for-token and cycle-for-cycle equal
/// to running that request alone on a fresh engine.
#[test]
fn batched_sessions_match_single_session_runs_exactly() {
    let cases: Vec<(PolicyKind, Budget, Vec<usize>, usize)> = vec![
        (PolicyKind::Voting, Budget::Ratio(0.5), prompt(24, 0), 10),
        (PolicyKind::H2o, Budget::Fixed(8), prompt(16, 1), 14),
        (PolicyKind::SlidingWindow, Budget::Ratio(0.25), prompt(32, 2), 6),
        (PolicyKind::Full, Budget::Unbounded, prompt(12, 3), 8),
    ];

    let mut engine = EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid config");
    let sessions: Vec<_> = cases
        .iter()
        .map(|(policy, budget, prompt, gen_len)| {
            engine
                .submit(Request::new(prompt.clone(), *gen_len).policy(*policy).budget(*budget))
                .expect("valid request")
        })
        .collect();
    let engine_report = engine.run_to_completion();
    assert_eq!(engine_report.requests.len(), cases.len());
    assert_eq!(engine_report.max_concurrency, cases.len());

    for (session, (policy, budget, prompt, gen_len)) in sessions.iter().zip(&cases) {
        let batched = engine_report
            .requests
            .iter()
            .find(|r| r.session == *session)
            .expect("every session finished")
            .report
            .clone();
        let alone = solo(*policy, *budget, prompt, *gen_len);
        assert_eq!(batched.generated, alone.generated, "{policy}: token stream diverged");
        assert_eq!(batched, alone, "{policy}: full report diverged");
    }
}

/// The engine keeps batching correctly as sessions finish at different
/// times (continuous batching): batch size shrinks monotonically with
/// completions, and every session still matches its lone run.
#[test]
fn continuous_batching_handles_stragglers() {
    let mut engine = EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid config");
    let short = engine.submit(Request::new(prompt(16, 5), 2)).expect("valid");
    let long = engine.submit(Request::new(prompt(16, 6), 9)).expect("valid");

    let mut batch_sizes = Vec::new();
    while engine.active_sessions() > 0 {
        batch_sizes.push(engine.step().batch_size);
    }
    assert_eq!(batch_sizes, vec![2, 2, 1, 1, 1, 1, 1, 1, 1]);

    let solo_short = solo(PolicyKind::Voting, Budget::Ratio(0.5), &prompt(16, 5), 2);
    let solo_long = solo(PolicyKind::Voting, Budget::Ratio(0.5), &prompt(16, 6), 9);
    assert_eq!(engine.take_report(short).unwrap(), solo_short);
    assert_eq!(engine.take_report(long).unwrap(), solo_long);
}

/// Submitting mid-flight joins the next tick's batch without disturbing
/// the sessions already decoding.
#[test]
fn late_submissions_join_the_batch() {
    let mut engine = EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid config");
    let early = engine.submit(Request::new(prompt(16, 7), 6)).expect("valid");
    engine.step();
    engine.step();
    let late = engine.submit(Request::new(prompt(16, 8), 3).policy(PolicyKind::H2o)).expect("valid");
    assert_eq!(engine.step().batch_size, 2);
    let report = engine.run_to_completion();
    assert_eq!(report.requests.len(), 2);

    let solo_early = solo(PolicyKind::Voting, Budget::Ratio(0.5), &prompt(16, 7), 6);
    let solo_late = solo(PolicyKind::H2o, Budget::Ratio(0.5), &prompt(16, 8), 3);
    let get = |s| report.requests.iter().find(|r| r.session == s).unwrap().report.clone();
    assert_eq!(get(early), solo_early, "in-flight session disturbed by late join");
    assert_eq!(get(late), solo_late, "late session diverged");
}

/// The serving_sim example's configuration: at least 8 concurrent
/// requests with mixed policies through one engine, batched throughput
/// reported.
#[test]
fn eight_concurrent_mixed_requests_report_batched_throughput() {
    let mut engine = EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid config");
    let policies = [PolicyKind::Voting, PolicyKind::H2o, PolicyKind::SlidingWindow, PolicyKind::Full];
    for i in 0..8 {
        engine
            .submit(
                Request::new(prompt(16 + 4 * (i % 3), i), 8 + i % 4)
                    .policy(policies[i % policies.len()])
                    .budget(if i % 2 == 0 { Budget::Ratio(0.5) } else { Budget::Fixed(10) }),
            )
            .expect("valid request");
    }
    let report = engine.run_to_completion();
    assert_eq!(report.requests.len(), 8);
    assert_eq!(report.max_concurrency, 8);
    assert!(report.batched_tokens_per_second > 0.0);
    assert!(report.batched_total_cycles > 0);
    assert!(
        report.batched_total_cycles < report.sequential_total_cycles,
        "one batched tick per token must beat one-at-a-time serving: {} vs {}",
        report.batched_total_cycles,
        report.sequential_total_cycles
    );
    let policies_seen: std::collections::HashSet<_> = report.requests.iter().map(|r| r.policy).collect();
    assert!(policies_seen.len() >= 4, "mixed policies must survive into the report");
}

/// An engine is reusable across waves of requests: weights are built once,
/// each wave drains cleanly.
#[test]
fn engine_serves_consecutive_waves() {
    let mut engine = EngineBuilder::new().model(ModelConfig::tiny()).build().expect("valid config");
    for wave in 0..3 {
        for i in 0..3 {
            engine.submit(Request::new(prompt(12, wave * 3 + i), 5)).expect("valid request");
        }
        let report = engine.run_to_completion();
        assert_eq!(report.requests.len(), 3, "wave {wave}");
        assert_eq!(report.total_tokens, 15, "wave {wave}");
        assert_eq!(engine.active_sessions(), 0);
    }
}
