//! Edge-assistant scenario: the workload VEDA's introduction motivates — a
//! private on-device assistant answering over a long document. The prompt
//! is long (the "document"), generation is interactive, and memory is
//! scarce, so the KV cache must be compressed without wrecking accuracy.
//!
//! The example compares eviction policies at several compression ratios on
//! both axes the paper evaluates: attention latency (cycle model) and
//! output distortion versus the full-cache oracle (KL on the real
//! transformer's logits).
//!
//! ```sh
//! cargo run --release --example edge_assistant
//! ```

use veda::{Budget, EngineBuilder, Request};
use veda_eviction::PolicyKind;
use veda_model::{eval::transformer_distortion, ModelConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ModelConfig::tiny();
    // The "document": a long, structured prompt.
    let document: Vec<usize> = (0..96).map(|i| (i * 13 + (i / 7) * 5) % 60 + 1).collect();

    println!("== Edge assistant: 96-token document, 24 generated tokens ==\n");
    println!(
        "{:<16} {:>8} {:>14} {:>16} {:>12}",
        "policy", "ratio", "tokens/s", "attn cycles/tok", "KL vs full"
    );

    let mut engine = EngineBuilder::new().model(model.clone()).build()?;
    for policy in [PolicyKind::Full, PolicyKind::SlidingWindow, PolicyKind::H2o, PolicyKind::Voting] {
        for ratio in [0.5_f64, 0.25] {
            engine.submit(Request::new(document.clone(), 24).policy(policy).budget(Budget::Ratio(ratio)))?;
            let report = engine.run_to_completion().requests.remove(0).report;
            let avg_attn: u64 = report.attention_cycles_per_token.iter().sum::<u64>()
                / report.attention_cycles_per_token.len() as u64;
            let budget = (document.len() as f64 * ratio).round() as usize;
            let distortion = transformer_distortion(&model, &document, policy, budget);
            println!(
                "{:<16} {:>8.2} {:>14.1} {:>16} {:>12.4}",
                policy.as_str(),
                ratio,
                report.tokens_per_second,
                avg_attn,
                distortion
            );
            if policy == PolicyKind::Full {
                break; // ratio is irrelevant without eviction
            }
        }
    }

    println!("\nLower KL at the same ratio = better cache retention;");
    println!("fewer attention cycles = faster generation (the eviction speedup).");
    Ok(())
}
