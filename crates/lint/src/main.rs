//! `veda-lint`: the determinism linter CLI.
//!
//! ```text
//! veda-lint [--root PATH] [--write-ratchet]
//! ```
//!
//! * default: one line per violation, exit 1 on any;
//! * `--write-ratchet`: measure the live tree and rewrite
//!   `lint-ratchet.toml` (review the diff before committing);
//! * `--root PATH`: workspace root (default: walk up from the cwd).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use veda_lint::ratchet::{Ratchet, RATCHET_FILE};
use veda_lint::rules::RULES;
use veda_lint::workspace::find_root;
use veda_lint::{lint_files, lint_workspace};

struct Args {
    root: Option<PathBuf>,
    write_ratchet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { root: None, write_ratchet: false };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--write-ratchet" => args.write_ratchet = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a path")?;
                args.root = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn print_help() {
    println!(
        "veda-lint: workspace determinism linter\n\n\
         USAGE: veda-lint [--root PATH] [--write-ratchet]\n\n\
         Enforces the determinism invariants at the source level. Rules:"
    );
    for rule in RULES {
        println!("  {:<26} guards {}", rule.name, rule.invariant);
    }
    println!(
        "\nEscape hatch: // lint:allow(rule-name): reason  (same or next line)\n\
         Ratchet baseline: {RATCHET_FILE} at the workspace root."
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("veda-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match args.root.clone().or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d))) {
        Some(r) => r,
        None => {
            eprintln!("veda-lint: no workspace root found (pass --root)");
            return ExitCode::from(2);
        }
    };

    if args.write_ratchet {
        let lint = match lint_files(&root) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("veda-lint: {e}");
                return ExitCode::from(2);
            }
        };
        let path = root.join(RATCHET_FILE);
        let text = Ratchet::from_counts(&lint.counts).serialize();
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("veda-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "wrote {} ({} crates, {} files scanned) — review the diff before committing",
            path.display(),
            lint.counts.len(),
            lint.files_scanned
        );
        return ExitCode::SUCCESS;
    }

    let lint = match lint_workspace(&root) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("veda-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for v in &lint.violations {
        if v.line > 0 {
            println!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message);
        } else {
            println!("{}: [{}] {}", v.path, v.rule, v.message);
        }
    }
    for note in &lint.improvements {
        eprintln!("note: {note}");
    }
    if lint.is_clean() {
        eprintln!("veda-lint: clean — {} files, {} crates ratcheted", lint.files_scanned, lint.counts.len());
    } else {
        eprintln!(
            "veda-lint: {} violation(s) across {} files (see docs/ARCHITECTURE.md \
             \"Statically enforced invariants\")",
            lint.violations.len(),
            lint.files_scanned
        );
    }
    if lint.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
