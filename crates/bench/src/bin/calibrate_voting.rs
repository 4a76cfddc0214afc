//! Selects the voting hyper-parameters `calibrated_policy` ships, and
//! bounds what any policy could reach.
//!
//! Sweeps `a × b × R × {layer-wise, per-head}` on samples 0–7 at caches
//! 128 and 256, applies the written rule (`veda_bench::select_voting`) and
//! reports the winner on held-out samples 1000–1007 beside the sliding
//! window, H2O, the paper's defaults, the offline oracle and the full
//! cache. These are the rows of `docs/FIDELITY.md`.
//!
//! Usage: `calibrate_voting [--check]` — `--check` skips the full sweep
//! table and the oracle, and exits 1 unless the committed
//! `CALIBRATED_VOTING` is the sweep's winner, is interior to the grid on
//! `a`, and votes through its threshold (fallback rate ≤ 0.1) held out.
use veda_bench::{Arm, SampleSet, Substrate, CALIBRATED_VOTING, CALIBRATION_CACHES};
use veda_eviction::{PolicyKind, VotingConfig};

/// Highest held-out fallback rate at which the run still tests the paper's
/// adaptive threshold rather than a vote for the minimum.
const MAX_FALLBACK_RATE: f64 = 0.1;

fn main() -> Result<(), String> {
    let check = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--check") => true,
        Some(other) => {
            eprintln!("usage: calibrate_voting [--check] (got {other:?})");
            std::process::exit(2);
        }
    };
    let substrate = Substrate::default();
    let grid = veda_bench::calibration_grid();
    eprintln!(
        "calibrate_voting: {} configurations x caches {CALIBRATION_CACHES:?} on samples 0-7",
        grid.len()
    );
    let sweep = substrate.voting_sweep(&grid, SampleSet::IN_SAMPLE, &CALIBRATION_CACHES)?;
    if !check {
        print!("{}", veda_bench::render_sweep(&sweep));
    }
    let winner = veda_bench::select_voting(&sweep).ok_or("the calibration grid is empty")?;
    println!("selected: {winner:?}");
    println!("committed: {CALIBRATED_VOTING:?}");

    let in_sample = (!check).then_some(("in-sample 0-7", SampleSet::IN_SAMPLE));
    let mut held_out_fallback = 0.0f64;
    for (label, samples) in in_sample.into_iter().chain([("held-out 1000-1007", SampleSet::HELD_OUT)]) {
        println!("\n{label}");
        // Reference rows: (label, cache shown, point scored).
        let mut rows = Vec::new();
        for cache in CALIBRATION_CACHES {
            rows.push(("sliding window", cache, (samples, cache, Arm::Kind(PolicyKind::SlidingWindow))));
            rows.push(("H2O", cache, (samples, cache, Arm::Kind(PolicyKind::H2o))));
            if !check {
                rows.push(("offline oracle", cache, (samples, cache, Arm::Oracle)));
                rows.push(("full cache", cache, (samples, samples.len, Arm::Kind(PolicyKind::Full))));
            }
        }
        let points: Vec<_> = rows.iter().map(|&(_, _, point)| point).collect();
        for ((name, cache, _), quality) in rows.iter().zip(substrate.score_all(&points)) {
            println!("{name:<34} {cache:>6} {:>10.3}", quality.perplexity());
        }
        // The winner, the paper's defaults, and the control for the winner's
        // reserved length: `a → ∞` is a sliding window with that sink.
        let window = VotingConfig { a: 1.0e6, b: 0.0, ..winner };
        let points = substrate.voting_sweep(
            &[winner, VotingConfig::default(), window],
            samples,
            &CALIBRATION_CACHES,
        )?;
        print!("{}", veda_bench::render_sweep(&points));
        if samples == SampleSet::HELD_OUT {
            held_out_fallback = points
                .iter()
                .filter(|p| p.config == winner)
                .map(|p| p.quality.votes.fallback_rate())
                .fold(0.0, f64::max);
        }
    }

    let grid_a = grid.iter().map(|c| c.a);
    let (a_min, a_max) = grid_a.fold((f32::INFINITY, 0.0f32), |(lo, hi), a| (lo.min(a), hi.max(a)));
    let verdicts = [
        (winner == CALIBRATED_VOTING, "the committed constants are the sweep's winner".to_string()),
        (winner.a > a_min && winner.a < a_max, format!("a = {} is interior to [{a_min}, {a_max}]", winner.a)),
        (
            held_out_fallback <= MAX_FALLBACK_RATE,
            format!("held-out fallback rate {held_out_fallback:.3} <= {MAX_FALLBACK_RATE}"),
        ),
    ];
    println!();
    for (ok, what) in &verdicts {
        println!("[{}] {what}", if *ok { "ok" } else { "FAIL" });
    }
    if check && verdicts.iter().any(|(ok, _)| !ok) {
        std::process::exit(1);
    }
    Ok(())
}
