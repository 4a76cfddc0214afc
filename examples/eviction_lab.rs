//! Eviction lab: watch the voting algorithm work on a synthetic attention
//! trace with controllable sink / heavy-hitter / outlier structure, and
//! compare which absolute positions each policy keeps resident.
//!
//! ```sh
//! cargo run --release --example eviction_lab
//! ```

use veda_eviction::{CacheSimulator, PolicyKind};
use veda_model::SyntheticTraceConfig;

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
        let mut sim = CacheSimulator::new(kind.build(), budget);
        for (i, step) in trace.iter().enumerate() {
            sim.step_from_full_scores(i, step);
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
