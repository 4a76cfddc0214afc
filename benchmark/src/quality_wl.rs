//! `evict_quality`: the eviction layer judged on accuracy.
//!
//! `InductionLm` scores held-out `Corpus` samples at cache 128 under the
//! three calibrated policies; a full-cache reference is scored once per
//! run, outside the timed rounds (it is the accuracy floor the policies
//! are checked against, and at 1536 resident entries it would otherwise
//! be two thirds of every round). No tensor kernels, engine or serving
//! run here; the checked output is perplexity.

use std::time::Instant;

use veda_eviction::{FullCachePolicy, PolicyKind};
use veda_model::{Corpus, CorpusConfig, InductionConfig, InductionLm};

use crate::harness::{self, Args, Checks, Ledger, Outcome, RequestTally};
use crate::host::{Stopwatch, Timed};
use crate::json::Json;
use crate::spans::{Recorder, SpanId, Trace};
use crate::{host, probes};

/// Held-out samples scored per arm. The text is a constant of the
/// catalogue: accuracy depends on content so strongly (swapping two of the
/// eight samples moved voting's perplexity by ±5 %) that seed-picked text
/// would make `evict_ppl_voting` incomparable across seeds. The seed instead
/// draws the attention-score noise the policies observe
/// (`InductionConfig::noise_seed`; the policies were calibrated under the
/// default draw), which is the eviction layer's own input stream.
const SAMPLES: u64 = 8;
const SAMPLE_LEN: usize = 1536;
const CACHE: usize = 128;
/// `calibrate_substrate`, `fig8_left` and `QualityScale::paper()` draw
/// sample indices below 1000, so everything from here up is held out.
const FIRST_HELD_OUT: u64 = 1000;

/// The arms, in evaluation order; the first three make a round. `None` is
/// the full-cache reference (never evicts).
const ARMS: [(Option<PolicyKind>, &str); 4] = [
    (Some(PolicyKind::Voting), "eviction.evaluate.voting"),
    (Some(PolicyKind::H2o), "eviction.evaluate.h2o"),
    (Some(PolicyKind::SlidingWindow), "eviction.evaluate.sliding"),
    (None, "eviction.evaluate.full"),
];
const ROUND_ARMS: usize = 3;
const FULL_ARM: usize = 3;

struct Setup {
    corpus: Corpus,
    lm: InductionLm,
    samples: Vec<Vec<usize>>,
    tiny_ppl: f64,
}

/// Corpus, model, the run's held-out samples, and one tiny scored sample.
fn setup(seed: u64) -> Setup {
    let corpus = Corpus::new(CorpusConfig::default());
    let default = InductionConfig::default();
    let noise_seed = default.noise_seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let lm = InductionLm::new(InductionConfig { noise_seed, ..default }, &corpus);
    let samples = (FIRST_HELD_OUT..FIRST_HELD_OUT + SAMPLES).map(|i| corpus.sample(i, SAMPLE_LEN)).collect();
    let tiny = corpus.sample(FIRST_HELD_OUT + SAMPLES, 64);
    let tiny_ppl = lm.evaluate_sample(&tiny, 64, &mut FullCachePolicy::new(), &corpus).perplexity();
    Setup { corpus, lm, samples, tiny_ppl }
}

#[derive(Debug, Clone, PartialEq)]
struct RoundResult {
    /// Perplexity per round arm, in [`ARMS`] order.
    ppl: [f64; ROUND_ARMS],
    /// Host seconds per arm.
    arm_wall: [f64; ROUND_ARMS],
    tokens: u64,
    evictions: u64,
}

fn evaluate_arm(
    setup: &Setup,
    arm: usize,
    samples: &[Vec<usize>],
    trace: &mut Trace<'_>,
    round: Option<SpanId>,
) -> (f64, u64, u64) {
    let (kind, span_name) = ARMS[arm];
    let (mut nll, mut tokens, mut evictions) = (0.0f64, 0u64, 0u64);
    for (i, sample) in samples.iter().enumerate() {
        let eval = trace.span(span_name, round, Some(i as u64), || match kind {
            Some(kind) => {
                let mut policy = veda_bench::calibrated_policy(kind);
                setup.lm.evaluate_sample(sample, CACHE, policy.as_mut(), &setup.corpus)
            }
            None => {
                setup.lm.evaluate_sample(sample, sample.len(), &mut FullCachePolicy::new(), &setup.corpus)
            }
        });
        nll += eval.total_nll;
        tokens += eval.tokens as u64;
        evictions += eval.evictions as u64;
    }
    ((nll / tokens.max(1) as f64).exp(), tokens, evictions)
}

fn run_round(setup: &Setup, mut trace: Trace<'_>) -> (Timed, RoundResult) {
    let watch = Stopwatch::start();
    let round = trace.open("round", None, None);
    let mut result =
        RoundResult { ppl: [0.0; ROUND_ARMS], arm_wall: [0.0; ROUND_ARMS], tokens: 0, evictions: 0 };
    for arm in 0..ROUND_ARMS {
        let arm_start = Instant::now();
        let (ppl, tokens, evictions) = evaluate_arm(setup, arm, &setup.samples, &mut trace, round);
        result.ppl[arm] = ppl;
        result.arm_wall[arm] = host::secs(arm_start);
        result.tokens += tokens;
        result.evictions += evictions;
    }
    trace.close(round);
    (watch.stop(), result)
}

pub fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let (setup_s, setup) = harness::measure_setup(|| setup(args.seed));
    checks.check(setup.tiny_ppl.is_finite() && setup.tiny_ppl >= 1.0, || {
        format!("tiny sample perplexity {} is not a perplexity", setup.tiny_ppl)
    });

    let mut recorder = args.trace.then(Recorder::new);
    let (rounds, untraced) = harness::run_rounds(
        args,
        |traced| run_round(&setup, Trace(if traced { recorder.as_mut() } else { None })),
        |r, result, first| {
            checks.check(
                result.ppl.map(f64::to_bits) == first.ppl.map(f64::to_bits)
                    && result.evictions == first.evictions,
                || format!("round {r}: perplexities {:?} differ from round 0 {:?}", result.ppl, first.ppl),
            )
        },
    );
    // Read before the full-cache reference and the probes.
    let peak_rss_mib = host::peak_rss_mib();
    let first = rounds.first();
    let [voting, h2o, sliding] = first.ppl;
    let (full, ..) = evaluate_arm(&setup, FULL_ARM, &setup.samples, &mut Trace(None), None);
    for (name, ppl) in [("voting", voting), ("h2o", h2o), ("sliding", sliding)] {
        checks.check(ppl.is_finite() && full <= ppl, || {
            format!("{name} perplexity {ppl} is below the full-cache reference {full} or not finite")
        });
    }
    checks.check(full.is_finite() && full >= 1.0, || format!("full-cache perplexity {full}"));

    // Each scored sample is one attempted operation.
    let requests = RequestTally { attempted: SAMPLES * ARMS.len() as u64, lost: 0 };
    let median_wall = rounds.median_wall();
    let mut notes = rounds.notes();
    notes.extend([
        ("tokens_per_round", Json::Num(first.tokens as f64)),
        ("first_sample_index", Json::Num(FIRST_HELD_OUT as f64)),
    ]);

    let mut metrics = Ledger::default();
    if args.trace {
        let probe_start = Instant::now();
        let heads = setup.lm.config().heads.len();
        let arm_tokens = (first.tokens / ROUND_ARMS as u64) as f64;
        let mut policy_est_ns = 0.0;
        for (kind, observe_name, select_name) in probes::POLICIES {
            let probe = probes::policy(veda_bench::calibrated_policy(kind), heads, CACHE, args.seed);
            metrics.set(observe_name, probe.observe_ns);
            metrics.set(select_name, probe.select_ns);
            policy_est_ns += arm_tokens * (probe.observe_ns + probe.select_ns);
        }
        metrics.set("eviction.evictions", first.evictions as f64);
        metrics.set("eviction.evictions_per_token", first.evictions as f64 / first.tokens as f64);
        metrics.set("eviction.ppl.h2o", h2o);
        metrics.set("eviction.ppl.sliding", sliding);
        metrics.set("eviction.ppl.full", full);

        // Probes and replays are raw clock readings, so they are set against
        // the rounds' raw wall time.
        let traced_wall = rounds.median_raw_wall();
        metrics.set("eviction.share", policy_est_ns / (traced_wall * 1e9));

        // Reconciliation: replay a quarter of the samples per arm and scale
        // to the samples a round scores; the parts must add up to the round.
        const REPLAYED: usize = SAMPLES as usize / 4;
        let mut explained = 0.0;
        for arm in 0..ROUND_ARMS {
            let start = Instant::now();
            std::hint::black_box(evaluate_arm(
                &setup,
                arm,
                &setup.samples[..REPLAYED],
                &mut Trace(None),
                None,
            ));
            explained += host::secs(start) * (SAMPLES as usize / REPLAYED) as f64;
        }
        let residual = (traced_wall - explained).abs() / traced_wall;
        metrics.set("bench.recon_residual_frac", residual);
        checks.warn(residual <= 0.25, || {
            format!("replayed arms leave {:.1}% of the round unexplained", residual * 100.0)
        });

        rounds.record_bench_health(untraced.median_raw_wall(), probe_start, &mut metrics);
        notes.push(("arm_wall_s", Json::Arr(first.arm_wall.iter().map(|w| Json::Num(*w)).collect())));
    } else {
        metrics.set("setup_s", setup_s);
        metrics.set("host_tok_s", first.tokens as f64 / median_wall);
        metrics.set("host_peak_rss_mb", peak_rss_mib.unwrap_or(f64::NAN));
        metrics.set("evict_ppl_voting", voting);
        metrics.set("completed_frac", harness::completed_frac(requests, &checks));
    }
    Outcome { metrics, checks, requests, notes, spans: recorder }
}
