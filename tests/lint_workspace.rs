//! Tier-1 coverage for the determinism linter: plain `cargo test` audits
//! the **live tree**, so a `HashMap` in a library crate, a worker-side
//! trace emission, or a grown panic surface fails the build the same way
//! a broken bit-identity pin would — before CI, on every developer run.

use std::collections::BTreeMap;
use std::path::Path;

use veda_lint::ratchet::{Ratchet, RATCHET_FILE};
use veda_lint::rules::{self, RatchetCounts};
use veda_lint::workspace::FileContext;
use veda_lint::{lint_files, lint_str, lint_workspace};

fn workspace_root() -> &'static Path {
    // The root package's manifest dir *is* the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn live_tree_passes_the_determinism_lint() {
    let lint = lint_workspace(workspace_root()).expect("lint pass runs");
    assert!(lint.files_scanned > 100, "suspiciously few files: {}", lint.files_scanned);
    assert!(
        lint.is_clean(),
        "veda-lint found {} violation(s) in the live tree:\n{}",
        lint.violations.len(),
        lint.violations
            .iter()
            .map(|v| format!("  {}:{}: [{}] {}", v.path, v.line, v.rule, v.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn committed_ratchet_baseline_round_trips_byte_identical() {
    let path = workspace_root().join(RATCHET_FILE);
    let text = std::fs::read_to_string(&path).expect("lint-ratchet.toml is committed");
    let parsed = Ratchet::parse(&text).expect("baseline parses");
    assert_eq!(
        parsed.serialize(),
        text,
        "lint-ratchet.toml is not in canonical form; regenerate with \
         `cargo run -p veda-lint -- --write-ratchet`"
    );
    // And the baseline covers exactly the measured crates (no stale or
    // missing sections).
    let measured = lint_files(workspace_root()).expect("measure");
    let crates: Vec<&String> = measured.counts.keys().collect();
    let baselined: Vec<&String> = parsed.crates.keys().collect();
    assert_eq!(crates, baselined, "baseline sections drifted from workspace members");
}

#[test]
fn committed_ratchet_has_no_stale_slack() {
    // A count the live tree has already beaten must be locked in: slack
    // left in the baseline could later be spent without anyone noticing.
    let text = std::fs::read_to_string(workspace_root().join(RATCHET_FILE)).expect("baseline");
    let baseline = Ratchet::parse(&text).expect("baseline parses");
    let measured = lint_files(workspace_root()).expect("measure");
    let outcome = baseline.compare(&measured.counts);
    assert!(
        outcome.improvements.is_empty(),
        "lint-ratchet.toml is above the live counts; re-baseline with \
         `cargo run -p veda-lint -- --write-ratchet`:\n{}",
        outcome.improvements.join("\n")
    );
}

#[test]
fn injected_hash_map_in_library_code_fails() {
    // Take a real library file, append a HashMap use, and lint it under
    // its real context: the pass must fail.
    let engine = workspace_root().join("crates/core/src/engine/mod.rs");
    let mut source = std::fs::read_to_string(engine).expect("engine source");
    source.push_str("\n/// Injected for the lint test.\npub fn injected() -> std::collections::HashMap<u32, u32> {\n    std::collections::HashMap::new()\n}\n");
    let ctx = FileContext::synthetic_library("veda");
    let violations = lint_str(&source, &ctx);
    assert!(
        violations.iter().any(|v| v.rule == rules::NO_HASH_COLLECTIONS),
        "injected HashMap not caught: {violations:?}"
    );
    // The un-injected file is clean — the injection is what fails.
    let original = std::fs::read_to_string(workspace_root().join("crates/core/src/engine/mod.rs"))
        .expect("engine source");
    assert!(lint_str(&original, &ctx).is_empty());
}

#[test]
fn injected_worker_side_trace_emission_fails() {
    let src = r#"
pub fn step(tracer: &Tracer, sessions: &mut [Session]) {
    std::thread::scope(|scope| {
        for s in sessions.iter_mut() {
            scope.spawn(move || {
                s.advance();
                tracer.emit(0, s.id, TraceEventKind::FirstToken);
            });
        }
    });
}
"#;
    let violations = lint_str(src, &FileContext::synthetic_library("veda"));
    assert!(
        violations.iter().any(|v| v.rule == rules::COORDINATOR_ONLY_TRACING),
        "worker-side emission not caught: {violations:?}"
    );
}

#[test]
fn injected_unwrap_growth_fails_the_ratchet() {
    let text = std::fs::read_to_string(workspace_root().join(RATCHET_FILE)).expect("baseline");
    let baseline = Ratchet::parse(&text).expect("baseline parses");

    // Measure the live tree, then pretend one crate gained an unwrap.
    let measured = lint_files(workspace_root()).expect("measure");
    assert!(baseline.compare(&measured.counts).violations.is_empty(), "tree must start clean");

    let mut grown: BTreeMap<String, RatchetCounts> = measured.counts.clone();
    let entry = grown.get_mut("veda").expect("core crate is ratcheted");
    entry.unwrap += 1;
    let outcome = baseline.compare(&grown);
    assert_eq!(outcome.violations.len(), 1, "{:?}", outcome.violations);
    assert!(outcome.violations[0].message.contains("grew"));

    // Shrinkage is an improvement note, not a violation.
    let mut shrunk: BTreeMap<String, RatchetCounts> = measured.counts.clone();
    if let Some(e) = shrunk.values_mut().find(|c| c.index > 0) {
        e.index -= 1;
    }
    let outcome = baseline.compare(&shrunk);
    assert!(outcome.violations.is_empty());
    assert_eq!(outcome.improvements.len(), 1);
}

#[test]
fn lint_allows_in_the_live_tree_are_all_explained() {
    // `lint_workspace` already rejects unexplained allows via
    // allow-hygiene; this pins the *count* of live escape hatches so a
    // PR that sprinkles allows shows up in review as a diff here.
    let mut allow_lines = 0usize;
    for file in veda_lint::workspace::discover(workspace_root()).expect("discover") {
        let source = std::fs::read_to_string(&file.abs_path).expect("read");
        allow_lines += veda_lint::lexer::lex(&source).allows.len();
    }
    assert_eq!(
        allow_lines, 4,
        "the live tree's lint:allow count changed; if the new allow is \
         justified, update this pin and say why in the PR"
    );
}

#[test]
fn panic_surface_counts_are_deterministic() {
    let a = lint_files(workspace_root()).expect("first pass");
    let b = lint_files(workspace_root()).expect("second pass");
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.files_scanned, b.files_scanned);
}

#[test]
fn lint_source_never_flags_test_targets_for_library_rules() {
    // Integration-test files may use HashMap scratch structures; only
    // the wall-clock rule (and allow hygiene) applies there.
    let src = "use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> { HashMap::new() }\n";
    let mut ctx = FileContext::synthetic_library("veda-repro");
    ctx.role = veda_lint::workspace::FileRole::TestTarget;
    let violations = lint_str(src, &ctx);
    assert!(violations.is_empty(), "{violations:?}");
}
