//! Extension ablation: sensitivity of voting to its hyper-parameters at
//! cache 128 on the calibration samples — the threshold
//! `T = a·mean − b·σ` (with `a` past the point where it votes for
//! everything), the reserved length `R` and the aggregation — one axis at a
//! time around the calibrated configuration, with the sliding window as the
//! reference row.
use veda_bench::{Arm, SampleSet, Substrate, CALIBRATED_VOTING};
use veda_eviction::{PolicyKind, VotingConfig};

fn main() -> Result<(), String> {
    let base = CALIBRATED_VOTING;
    let mut grid = vec![base, VotingConfig::default()];
    grid.extend([0.5, 1.0, 1.25, 1.5, 3.0, 4.0, 8.0].map(|a| VotingConfig { a, ..base }));
    grid.extend([0.1, 0.2, 0.4, 0.8, 1.2].map(|b| VotingConfig { b, ..base }));
    grid.extend([4, 16, 32].map(|reserved_len| VotingConfig { reserved_len, ..base }));
    grid.push(VotingConfig { per_head_votes: true, ..base });

    let samples = SampleSet::IN_SAMPLE;
    let substrate = Substrate::default();
    let sliding = substrate.score(samples, 128, Arm::Kind(PolicyKind::SlidingWindow));
    println!("sliding window at cache 128: ppl {:.3}", sliding.perplexity());
    println!("first row: calibrated; second row: paper defaults; then a, b, R and per-head, one at a time");
    print!("{}", veda_bench::render_sweep(&substrate.voting_sweep(&grid, samples, &[128])?));
    Ok(())
}
