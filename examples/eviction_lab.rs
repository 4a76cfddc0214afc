//! Eviction lab: watch the voting algorithm work on a synthetic attention
//! trace with controllable sink / heavy-hitter / outlier structure, and
//! compare which absolute positions each policy keeps resident.
//!
//! ```sh
//! cargo run --release --example eviction_lab
//! ```

use veda_eviction::{CacheSimulator, PolicyKind, ScoreView};
use veda_model::SyntheticTraceConfig;

/// Projects `step`, token `token`'s scores over *every* earlier position,
/// onto the resident positions plus the token itself, renormalising each
/// head to sum to one: softmax over the surviving keys only.
fn project(step: ScoreView<'_>, resident: &[usize], token: usize, out: &mut Vec<f32>) {
    out.clear();
    for head in step.heads() {
        let start = out.len();
        out.extend(resident.iter().chain([&token]).map(|&position| head[position]));
        let kept = &mut out[start..];
        let sum = veda_tensor::stats::sum(kept);
        if sum > 0.0 {
            for v in kept {
                *v /= sum;
            }
        }
    }
}

fn main() {
    // A 256-step trace with a strong sink, 6 % heavy hitters, recency
    // structure and occasional outlier spikes.
    let trace = SyntheticTraceConfig { steps: 256, heads: 4, ..SyntheticTraceConfig::default() }.generate();
    println!(
        "trace sparsity (positions droppable at 90% kept mass): {:.1}%\n",
        trace.sparsity(0.9, 64) * 100.0
    );

    let budget = 48;
    for kind in [PolicyKind::SlidingWindow, PolicyKind::H2o, PolicyKind::Voting] {
        let mut policy = kind.build();
        let mut sim = CacheSimulator::new(policy.as_mut(), budget);
        let mut projected = Vec::new();
        for (token, step) in trace.iter().enumerate() {
            project(step, sim.resident(), token, &mut projected);
            sim.step(Some(ScoreView::new(&projected, step.n_heads())));
        }
        let resident = sim.resident();
        let old = resident.iter().filter(|&&p| p < 128).count();
        println!(
            "{:<16} kept {:>2} positions older than half the trace; stats: {}",
            kind.as_str(),
            old,
            sim.stats()
        );
        println!("    oldest kept: {:?}", &resident[..8.min(resident.len())]);
    }

    println!("\nThe voting policy retains old *heavy-hitter* positions while the");
    println!("sliding window forgets everything outside its window and pure");
    println!("accumulation over-retains early positions.");
}
