//! Quickstart: run one end-to-end VEDA simulation — a prompt through the
//! functional transformer with voting-based eviction on the
//! dataflow-flexible accelerator — and print what the system did.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use veda::{Budget, EngineBuilder, Request, RequestReport};
use veda_eviction::PolicyKind;
use veda_model::ModelConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small but real transformer (synthetic structured weights): D=256,
    // 8 heads, 4 layers. The architecture is VEDA's 8x8x2 PE array scaled
    // to this head geometry.
    let mut engine = EngineBuilder::new().model(ModelConfig::small()).build()?;

    let prompt: Vec<usize> = (1..=64).map(|i| (i * 37) % 4000 + 1).collect();
    let session = engine
        .submit(Request::new(prompt.clone(), 32).policy(PolicyKind::Voting).budget(Budget::Ratio(0.5)))?;
    while engine.is_active(session) {
        engine.step();
    }
    let report: RequestReport = engine.take_report(session).ok_or("finished session has a report")?;

    println!("prompt length        : {}", prompt.len());
    println!("generated tokens     : {:?}", &report.generated[..8.min(report.generated.len())]);
    println!("cache budget         : {} (ratio 0.5)", report.cache_budget);
    println!("final cache length   : {}", report.final_cache_len);
    println!("evictions (all layers): {}", report.evictions);
    println!("decode throughput    : {:.1} tokens/s @ 1 GHz", report.tokens_per_second);
    println!("energy per token     : {:.3} mJ (core + HBM)", report.energy_mj_per_token);
    println!(
        "attention cycles/token: first {} ... last {}",
        report.attention_cycles_per_token.first().unwrap(),
        report.attention_cycles_per_token.last().unwrap()
    );
    Ok(())
}
