//! `veda-benchmark`: the VEDA reproduction's benchmark.
//!
//! ```text
//! veda-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! veda-benchmark compare DIR_A DIR_B
//! veda-benchmark list | manifest
//! ```
//!
//! `run` executes one workload in this process — untraced for the
//! end-to-end metrics, traced for the per-layer metrics — verifies its
//! outputs, prints every metric by name with its unit, and prints the
//! result object as its last line. `benchmark/run.sh` builds this binary
//! and is the one command users and the driver call.

mod catalogue;
mod compare;
mod engine_layers;
mod engine_wl;
mod harness;
mod host;
mod input;
mod json;
mod probes;
mod quality_wl;
mod serve_layers;
mod serve_wl;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::Args;

const USAGE: &str =
    "usage: veda-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
       veda-benchmark compare DIR_A DIR_B
       veda-benchmark list | manifest";

fn parse_run(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 6.0,
        trace: false,
        quick: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !catalogue::WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = catalogue::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of: {}", names.join(", ")));
    }
    if args.quick {
        args.seconds = 0.0;
    }
    Ok(args)
}

fn run(args: &Args) -> i32 {
    let outcome = match args.workload.as_str() {
        catalogue::SOLO_STREAM | catalogue::BATCH_MIXED | catalogue::LONG_CONTEXT => engine_wl::run(args),
        catalogue::EVICT_QUALITY => quality_wl::run(args),
        catalogue::SERVE_OPEN | catalogue::SERVE_CHAOS => serve_wl::run(args),
        other => unreachable!("parse_run admitted unknown workload {other}"),
    };
    harness::finish(args, outcome)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let code = match argv.next().as_deref() {
        Some("run") => match parse_run(argv) {
            Ok(args) => run(&args),
            Err(err) => {
                eprintln!("{err}\n{USAGE}");
                2
            }
        },
        Some("compare") => match (argv.next(), argv.next(), argv.next()) {
            (Some(a), Some(b), None) => compare::main(&PathBuf::from(a), &PathBuf::from(b)),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        },
        Some("list") => {
            for w in &catalogue::WORKLOADS {
                println!("{}", w.name);
            }
            0
        }
        Some("manifest") => {
            print!("{}", catalogue::manifest().to_pretty());
            0
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    ExitCode::from(code as u8)
}
