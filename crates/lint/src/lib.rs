//! # veda-lint
//!
//! A workspace determinism linter: enforces, at the **source level**, the
//! discipline the nine pinned determinism invariants in
//! `docs/ARCHITECTURE.md` depend on. The test suite pins the invariants'
//! *outcomes* (bit-identical reports across seeds, thread counts, shard
//! counts); this pass pins the *coding discipline* that makes those pins
//! robust, so a violation is a build-time error rather than a flaky
//! repro three PRs later.
//!
//! The pass is offline and zero-dependency: its own lightweight Rust
//! lexer ([`lexer`] — comment-, string- and attribute-aware), its own
//! TOML subset for the ratchet baseline ([`ratchet`]). Rules
//! ([`rules::RULES`]):
//!
//! | rule | guards |
//! |---|---|
//! | `no-hash-collections` | invariants #1/#2 — no `HashMap`/`HashSet` in library code |
//! | `no-wall-clock` | invariant #1 — `Instant`/`SystemTime` only in the measurement scope |
//! | `float-reduction` | invariant #2 — float `.sum()`/`.fold()` only inside `veda-tensor` |
//! | `coordinator-only-tracing` | invariant #8 — no trace emission inside `thread::scope` workers |
//! | `crate-hygiene` | audit surface — `#![forbid(unsafe_code)]` + `#![deny(missing_docs)]` |
//! | `unwrap-ratchet` | invariant #6 — panic surface may shrink, never grow |
//! | `pub-surface` | public items per crate may shrink, never grow |
//! | `allow-hygiene` | escape hatches must be known, explained and live |
//!
//! Escape hatch: `// lint:allow(rule-name): reason` on (or directly
//! above) the excused line. Run it three ways: the `veda-lint` binary,
//! the root integration test (`tests/lint_workspace.rs`, so plain
//! `cargo test` audits the live tree), and the dedicated CI step.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lexer;
pub mod ratchet;
pub mod rules;
pub mod workspace;

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use ratchet::{Ratchet, RatchetOutcome, RATCHET_FILE};
use rules::{lint_source, RatchetCounts, Violation};
use workspace::{discover, FileContext};

/// The result of linting the whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceLint {
    /// Every violation, in deterministic (path, line) order, including
    /// ratchet failures.
    pub violations: Vec<Violation>,
    /// Ratchet shrinkage notes (informational).
    pub improvements: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Measured per-crate ratchet counts (the ratchet input).
    pub counts: BTreeMap<String, RatchetCounts>,
}

impl WorkspaceLint {
    /// Did the pass succeed?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lint every workspace source file under `root` and compare the
/// ratchet counts against the committed `lint-ratchet.toml` (a
/// missing baseline file fails the pass — the ratchet only ratchets if
/// it is committed).
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceLint> {
    let mut out = lint_files(root)?;
    let baseline_path = root.join(RATCHET_FILE);
    match fs::read_to_string(&baseline_path) {
        Ok(text) => match Ratchet::parse(&text) {
            Ok(baseline) => {
                let RatchetOutcome { violations, improvements } = baseline.compare(&out.counts);
                out.violations.extend(violations);
                out.improvements = improvements;
            }
            Err(err) => out.violations.push(Violation {
                rule: rules::UNWRAP_RATCHET,
                path: RATCHET_FILE.into(),
                line: 0,
                message: format!("unparseable baseline: {err}"),
            }),
        },
        Err(_) => out.violations.push(Violation {
            rule: rules::UNWRAP_RATCHET,
            path: RATCHET_FILE.into(),
            line: 0,
            message: format!(
                "missing {RATCHET_FILE} at the workspace root; generate it with \
                 `cargo run -p veda-lint -- --write-ratchet` and commit it"
            ),
        }),
    }
    sort_violations(&mut out.violations);
    Ok(out)
}

/// Lint the files only (no ratchet comparison) — what `--write-ratchet`
/// uses to measure a fresh baseline.
pub fn lint_files(root: &Path) -> std::io::Result<WorkspaceLint> {
    let files = discover(root)?;
    let mut out = WorkspaceLint { files_scanned: files.len(), ..Default::default() };
    for file in &files {
        let source = fs::read_to_string(&file.abs_path)?;
        let lint = lint_source(&source, &file.context);
        out.violations.extend(lint.violations);
        out.counts.entry(file.context.crate_name.clone()).or_default().add(lint.counts);
    }
    sort_violations(&mut out.violations);
    Ok(out)
}

/// Lint one in-memory source with a synthetic context — the hook the
/// fixture suite and the injected-violation tests drive.
pub fn lint_str(source: &str, ctx: &FileContext) -> Vec<Violation> {
    lint_source(source, ctx).violations
}

fn sort_violations(violations: &mut [Violation]) {
    violations.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)).then(a.rule.cmp(b.rule)));
}
