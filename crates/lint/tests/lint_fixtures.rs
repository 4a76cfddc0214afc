//! Fixture suite: every rule exercised in both directions against the
//! deliberately-violating corpus under `tests/fixtures/` (which the
//! workspace walker skips — directories named `fixtures` are never part
//! of the live audit).
//!
//! Layout: `fixtures/<rule>/{violate,clean,allowed}.rs`. `violate` must
//! fire exactly that rule; `clean` must lint spotless; `allowed` must be
//! silenced by its `lint:allow` directive *without* tripping the
//! `allow-hygiene` meta rule (the directive is explained and live).

use std::path::Path;

use veda_lint::lint_str;
use veda_lint::rules::{self, lint_source, RatchetCounts};
use veda_lint::workspace::FileContext;

/// The rules with a three-way fixture set.
const FIXTURED_RULES: &[&str] = &[
    rules::NO_HASH_COLLECTIONS,
    rules::NO_WALL_CLOCK,
    rules::FLOAT_REDUCTION,
    rules::COORDINATOR_ONLY_TRACING,
    rules::CRATE_HYGIENE,
];

fn fixture(rule: &str, case: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(rule).join(case);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

/// Context matching each fixture's framing: crate-hygiene cases model a
/// crate root, everything else a plain library module.
fn context_for(rule: &str) -> FileContext {
    let mut ctx = FileContext::synthetic_library("veda-fixture");
    if rule == rules::CRATE_HYGIENE {
        ctx.is_crate_root = true;
    }
    ctx
}

#[test]
fn violating_fixtures_fire_exactly_their_rule() {
    for rule in FIXTURED_RULES {
        let violations = lint_str(&fixture(rule, "violate.rs"), &context_for(rule));
        assert!(
            violations.iter().any(|v| v.rule == *rule),
            "{rule}/violate.rs did not fire {rule}: {violations:?}"
        );
        assert!(
            violations.iter().all(|v| v.rule == *rule),
            "{rule}/violate.rs fired unrelated rules: {violations:?}"
        );
    }
}

#[test]
fn clean_fixtures_are_spotless() {
    for rule in FIXTURED_RULES {
        let violations = lint_str(&fixture(rule, "clean.rs"), &context_for(rule));
        assert!(violations.is_empty(), "{rule}/clean.rs is not clean: {violations:?}");
    }
}

#[test]
fn allowed_fixtures_are_silenced_without_meta_violations() {
    for rule in FIXTURED_RULES {
        let violations = lint_str(&fixture(rule, "allowed.rs"), &context_for(rule));
        assert!(
            violations.is_empty(),
            "{rule}/allowed.rs: the lint:allow should silence {rule} and satisfy \
             allow-hygiene, got {violations:?}"
        );
    }
}

#[test]
fn ratchet_fixture_counts_each_panic_kind_once() {
    let ctx = FileContext::synthetic_library("veda-fixture");
    let lint = lint_source(&fixture(rules::UNWRAP_RATCHET, "violate.rs"), &ctx);
    assert_eq!(lint.counts, RatchetCounts { unwrap: 1, expect: 1, index: 1, pub_items: 1 });

    let lint = lint_source(&fixture(rules::UNWRAP_RATCHET, "clean.rs"), &ctx);
    let pub_fn_only = RatchetCounts { pub_items: 1, ..RatchetCounts::default() };
    assert_eq!(lint.counts, pub_fn_only, "test-module unwraps must not count");
}

#[test]
fn allow_hygiene_fixture_flags_unknown_unexplained_and_stale() {
    let ctx = FileContext::synthetic_library("veda-fixture");
    let violations = lint_str(&fixture(rules::ALLOW_HYGIENE, "violate.rs"), &ctx);
    let meta: Vec<_> = violations.iter().filter(|v| v.rule == rules::ALLOW_HYGIENE).collect();
    assert_eq!(meta.len(), 3, "expected unknown + no-reason + stale, got {violations:?}");
    assert!(meta.iter().any(|v| v.message.contains("unknown rule")));
    assert!(meta.iter().any(|v| v.message.contains("without a reason")));
    assert!(meta.iter().any(|v| v.message.contains("stale")));
    // The unexplained allow still suppresses its target: accountability is
    // the meta violation, not a double report.
    assert!(violations.iter().all(|v| v.rule != rules::NO_WALL_CLOCK));

    let clean = lint_str(&fixture(rules::ALLOW_HYGIENE, "clean.rs"), &ctx);
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn crate_hygiene_fixture_reports_both_headers_missing() {
    let violations =
        lint_str(&fixture(rules::CRATE_HYGIENE, "violate.rs"), &context_for(rules::CRATE_HYGIENE));
    for header in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
        assert!(
            violations.iter().any(|v| v.message.contains(header)),
            "{header} not reported: {violations:?}"
        );
    }
}
