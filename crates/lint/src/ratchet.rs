//! The `lint-ratchet.toml` baseline: per-crate panic-surface and
//! public-surface counts that may shrink but never grow.
//!
//! The file is a hand-rolled TOML subset (sections + integer keys +
//! comments) so the linter stays zero-dependency. Serialization is
//! canonical — sorted crates, fixed key order — so regenerating an
//! unchanged baseline is byte-identical (the round-trip test pins this).

use std::collections::BTreeMap;

use crate::rules::{RatchetCounts, Violation, PUB_SURFACE, UNWRAP_RATCHET};

/// File name of the committed baseline, at the workspace root.
pub const RATCHET_FILE: &str = "lint-ratchet.toml";

/// Per-crate baseline, keyed by package name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ratchet {
    /// Crate → allowed counts.
    pub crates: BTreeMap<String, RatchetCounts>,
}

impl Ratchet {
    /// Build a baseline from freshly-measured counts.
    pub fn from_counts(counts: &BTreeMap<String, RatchetCounts>) -> Self {
        Ratchet { crates: counts.clone() }
    }

    /// Parse the committed baseline. Unknown keys and malformed lines are
    /// errors: a baseline that silently drops entries would un-ratchet.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut crates: BTreeMap<String, RatchetCounts> = BTreeMap::new();
        let mut current: Option<String> = None;
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim().trim_matches('"').to_string();
                if crates.contains_key(&name) {
                    return Err(format!("line {}: duplicate crate section `{name}`", n + 1));
                }
                crates.insert(name.clone(), RatchetCounts::default());
                current = Some(name);
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`, got `{line}`", n + 1));
            };
            let Some(crate_name) = &current else {
                return Err(format!("line {}: key outside a [crate] section", n + 1));
            };
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("line {}: `{}` is not an integer", n + 1, value.trim()))?;
            let entry = crates.get_mut(crate_name).unwrap();
            let key = key.trim();
            let Some(slot) = entry.get_mut(key) else {
                return Err(format!("line {}: unknown key `{key}`", n + 1));
            };
            *slot = value;
        }
        Ok(Ratchet { crates })
    }

    /// Canonical serialization (the exact bytes `--write-ratchet` emits).
    pub fn serialize(&self) -> String {
        let mut out = String::from(
            "# Ratchet: per-library-crate counts, in non-test code, of the panic\n\
             # surface (`.unwrap()`, `.expect(` and panicking `x[i]` indexing)\n\
             # and of the public surface (`pub_items`: pub fn, struct, enum,\n\
             # trait, type, const, static and mod).\n\
             # Counts may shrink but never grow. Regenerate after a genuine\n\
             # reduction with: cargo run -p veda-lint -- --write-ratchet\n",
        );
        for (name, c) in &self.crates {
            out.push_str(&format!("\n[{name}]\n"));
            for (key, n) in c.entries() {
                out.push_str(&format!("{key} = {n}\n"));
            }
        }
        out
    }

    /// Compare measured counts against the baseline. Returns ratchet
    /// violations (growth, or a crate missing from or stale in the
    /// baseline) and improvement notes (shrinkage worth re-baselining).
    pub fn compare(&self, measured: &BTreeMap<String, RatchetCounts>) -> RatchetOutcome {
        let stale = self.crates.keys().filter(|name| !measured.contains_key(*name));
        let mut violations: Vec<Violation> = stale
            .map(|name| Violation {
                rule: UNWRAP_RATCHET,
                path: RATCHET_FILE.into(),
                line: 0,
                message: format!(
                    "section `[{name}]` names no workspace crate; remove it with --write-ratchet"
                ),
            })
            .collect();
        let mut improvements = Vec::new();
        for (name, now) in measured {
            let base = self.crates.get(name).copied();
            let Some(base) = base else {
                if now.total() + now.pub_items > 0 {
                    violations.push(Violation {
                        rule: UNWRAP_RATCHET,
                        path: name.clone(),
                        line: 0,
                        message: format!(
                            "crate `{name}` has {} panic sites and {} public items but \
                             no baseline in {RATCHET_FILE}; add it with --write-ratchet \
                             and review the counts in the diff",
                            now.total(),
                            now.pub_items
                        ),
                    });
                }
                continue;
            };
            for ((kind, now_n), (_, base_n)) in now.entries().into_iter().zip(base.entries()) {
                if now_n > base_n {
                    let (rule, message) = if kind == "pub_items" {
                        (
                            PUB_SURFACE,
                            format!(
                                "crate `{name}` grew its public surface: {now_n} items vs. \
                                 baseline {base_n} — narrow the new item's visibility, or \
                                 justify it in CHANGES.md and re-baseline with --write-ratchet",
                            ),
                        )
                    } else {
                        (
                            UNWRAP_RATCHET,
                            format!(
                                "crate `{name}` grew its `{kind}` panic surface: {now_n} \
                                 sites vs. baseline {base_n} — handle the error instead, \
                                 or justify and re-baseline with --write-ratchet",
                            ),
                        )
                    };
                    violations.push(Violation { rule, path: name.clone(), line: 0, message });
                } else if now_n < base_n {
                    improvements
                        .push(format!("{name}: {kind} shrank {base_n} → {now_n} (re-baseline to lock in)"));
                }
            }
        }
        RatchetOutcome { violations, improvements }
    }
}

/// The result of a baseline comparison.
#[derive(Debug, Default)]
pub struct RatchetOutcome {
    /// Growth (or unbaselined crates) — these fail the pass.
    pub violations: Vec<Violation>,
    /// Shrinkage notes — informational, printed as hints.
    pub improvements: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(u: u64, e: u64, i: u64) -> RatchetCounts {
        RatchetCounts { unwrap: u, expect: e, index: i, pub_items: 0 }
    }

    #[test]
    fn round_trip_is_identical() {
        let mut m = BTreeMap::new();
        m.insert("veda".to_string(), counts(3, 1, 40));
        m.insert("veda-model".to_string(), counts(0, 2, 7));
        let r = Ratchet::from_counts(&m);
        let text = r.serialize();
        let back = Ratchet::parse(&text).unwrap();
        assert_eq!(r, back);
        // Canonical: serialize(parse(serialize(x))) == serialize(x).
        assert_eq!(back.serialize(), text);
    }

    #[test]
    fn growth_fails_shrink_notes() {
        let mut base = BTreeMap::new();
        base.insert("a".to_string(), counts(2, 2, 2));
        let ratchet = Ratchet::from_counts(&base);

        let mut grown = BTreeMap::new();
        grown.insert("a".to_string(), counts(3, 2, 1));
        let out = ratchet.compare(&grown);
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        assert!(out.violations[0].message.contains("unwrap"));
        assert_eq!(out.improvements.len(), 1);
    }

    #[test]
    fn pub_item_growth_fails_under_its_own_rule() {
        let base = RatchetCounts { pub_items: 10, ..counts(0, 1, 0) };
        let ratchet = Ratchet::from_counts(&BTreeMap::from([("a".to_string(), base)]));
        let text = ratchet.serialize();
        assert!(text.contains("\npub_items = 10\n"), "{text}");
        assert_eq!(Ratchet::parse(&text).unwrap(), ratchet);

        let grown = BTreeMap::from([("a".to_string(), RatchetCounts { pub_items: 11, ..base })]);
        let out = ratchet.compare(&grown);
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        assert_eq!(out.violations[0].rule, PUB_SURFACE);
        let shrunk = BTreeMap::from([("a".to_string(), RatchetCounts { pub_items: 9, ..base })]);
        let out = ratchet.compare(&shrunk);
        assert!(out.violations.is_empty());
        assert_eq!(out.improvements.len(), 1);
    }

    #[test]
    fn unbaselined_crate_with_sites_fails() {
        let ratchet = Ratchet::default();
        let mut m = BTreeMap::new();
        m.insert("new-crate".to_string(), counts(1, 0, 0));
        let out = ratchet.compare(&m);
        assert_eq!(out.violations.len(), 1);
        m.insert("clean-crate".to_string(), counts(0, 0, 0));
        let out = ratchet.compare(&m);
        assert_eq!(out.violations.len(), 1, "zero-site crates need no baseline");
    }

    #[test]
    fn section_naming_no_crate_fails() {
        let ratchet = Ratchet::from_counts(&BTreeMap::from([("gone".to_string(), counts(0, 0, 0))]));
        let out = ratchet.compare(&BTreeMap::new());
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        assert!(out.violations[0].message.contains("`[gone]`"), "{}", out.violations[0].message);
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(Ratchet::parse("unwrap = 1\n").is_err(), "key outside section");
        assert!(Ratchet::parse("[a]\nunwrap = x\n").is_err(), "non-integer");
        assert!(Ratchet::parse("[a]\nwat = 1\n").is_err(), "unknown key");
        assert!(Ratchet::parse("[a]\n[a]\n").is_err(), "duplicate section");
    }
}
