//! The determinism rules and the per-file rule engine.
//!
//! Each rule maps to one of the pinned determinism invariants in
//! `docs/ARCHITECTURE.md` — see [`RULES`] for the mapping. Rules operate
//! on the [`crate::lexer`] token stream, so comments, strings and doc
//! examples never fire them, and `#[cfg(test)]` regions are carved out by
//! brace matching where a rule only governs shipping library code.

use crate::lexer::{lex, AllowDirective, Lexed, Token, TokenKind};
use crate::workspace::{FileContext, FileRole};

/// Rule R1: nondeterministically-ordered collections in library code.
pub const NO_HASH_COLLECTIONS: &str = "no-hash-collections";
/// Rule R2: wall-clock reads outside the measurement scope.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
/// Rule R3: float reductions outside the blessed kernel crate.
pub const FLOAT_REDUCTION: &str = "float-reduction";
/// Rule R4: trace emission inside worker thread regions (`thread::scope`,
/// `thread::spawn`, `thread::Builder` spawns).
pub const COORDINATOR_ONLY_TRACING: &str = "coordinator-only-tracing";
/// Rule R5: missing crate hygiene headers.
pub const CRATE_HYGIENE: &str = "crate-hygiene";
/// Rule R6: per-crate panic-surface ratchet.
pub const UNWRAP_RATCHET: &str = "unwrap-ratchet";
/// Rule R7: per-crate public-surface ratchet.
pub(crate) const PUB_SURFACE: &str = "pub-surface";
/// Meta rule: every allow must be known, explained, and live.
pub const ALLOW_HYGIENE: &str = "allow-hygiene";

/// Static description of one rule: its name and the invariant it guards
/// (the table in `docs/ARCHITECTURE.md` gives each rule's rationale).
pub struct RuleInfo {
    /// Kebab-case rule name (what `lint:allow(...)` takes).
    pub name: &'static str,
    /// Determinism invariant(s) in `docs/ARCHITECTURE.md` it guards.
    pub invariant: &'static str,
}

/// All rules the pass knows, in R1..R7 + meta order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: NO_HASH_COLLECTIONS,
        invariant: "#1 same seed ⇒ same bytes, #2 thread-count invariance",
    },
    RuleInfo { name: NO_WALL_CLOCK, invariant: "#1 same seed ⇒ same bytes" },
    RuleInfo { name: FLOAT_REDUCTION, invariant: "#2 thread-count invariance (f32 summation order)" },
    RuleInfo { name: COORDINATOR_ONLY_TRACING, invariant: "#8 trace neutrality and trace determinism" },
    RuleInfo { name: CRATE_HYGIENE, invariant: "all (the audit surface itself)" },
    RuleInfo { name: UNWRAP_RATCHET, invariant: "#6 accounting conservation (panics erase in-flight state)" },
    RuleInfo { name: PUB_SURFACE, invariant: "all (every public item earns its keep)" },
    RuleInfo { name: ALLOW_HYGIENE, invariant: "all (escape-hatch accountability)" },
];

/// Does `name` name a rule this pass knows?
pub(crate) fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// One violation found in one file.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired (one of the `RULES` names).
    pub rule: &'static str,
    /// Workspace-relative path (or crate name for ratchet violations).
    pub path: String,
    /// 1-indexed line (0 for file- or crate-scoped violations).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// What the ratchet counts in one file or one crate's non-test library
/// code: the panic surface and the public surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RatchetCounts {
    /// `.unwrap()` calls.
    pub unwrap: u64,
    /// `.expect(...)` calls.
    pub expect: u64,
    /// Panicking index expressions `x[i]`.
    pub index: u64,
    /// Public items: `pub` directly before `fn`, `struct`, `enum`,
    /// `trait`, `type`, `const`, `static` or `mod`. Restricted visibility
    /// (`pub(crate)`), fields and `pub use` re-exports do not count.
    pub pub_items: u64,
}

impl RatchetCounts {
    /// Element-wise accumulate.
    pub(crate) fn add(&mut self, other: RatchetCounts) {
        self.unwrap += other.unwrap;
        self.expect += other.expect;
        self.index += other.index;
        self.pub_items += other.pub_items;
    }

    /// Total panic sites.
    pub(crate) fn total(&self) -> u64 {
        self.unwrap + self.expect + self.index
    }

    /// The count stored under ratchet key `key`.
    pub(crate) fn get_mut(&mut self, key: &str) -> Option<&mut u64> {
        match key {
            "unwrap" => Some(&mut self.unwrap),
            "expect" => Some(&mut self.expect),
            "index" => Some(&mut self.index),
            "pub_items" => Some(&mut self.pub_items),
            _ => None,
        }
    }

    /// Every ratchet key with its count, in `lint-ratchet.toml` order.
    pub(crate) fn entries(&self) -> [(&'static str, u64); 4] {
        [
            ("unwrap", self.unwrap),
            ("expect", self.expect),
            ("index", self.index),
            ("pub_items", self.pub_items),
        ]
    }
}

/// The result of linting one file.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Violations, already filtered through `lint:allow` directives.
    pub violations: Vec<Violation>,
    /// Ratchet counts (only populated for non-test library code — the
    /// ratchet's scope).
    pub counts: RatchetCounts,
}

/// Keywords that can precede `[` without forming an index expression.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "move", "mut", "ref", "as", "box", "break", "continue",
    "where", "unsafe", "dyn", "impl", "for", "while", "loop", "use", "pub", "fn", "struct", "enum", "const",
    "static", "type", "yield", "await", "async",
];

/// Item keywords that make a directly preceding `pub` a public item.
const PUB_ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static", "mod"];

/// Identifiers whose appearance inside a worker region means
/// trace machinery crossed into a worker.
const TRACE_TOKENS: &[&str] = &["Tracer", "TraceEvent", "SinkHandle", "RecordingSink", "tracer"];

/// Method names that emit trace events (flagged inside worker regions
/// when called, i.e. preceded by `.`).
const TRACE_METHODS: &[&str] = &["emit", "record", "set_now"];

/// Lint one source file. `source` is the file text, `ctx` its
/// classification. Applies every rule in scope, then filters through the
/// file's `lint:allow` directives and appends `allow-hygiene` violations
/// for unknown/unexplained/unused allows.
pub fn lint_source(source: &str, ctx: &FileContext) -> FileLint {
    let lexed = lex(source);
    let tokens = &lexed.tokens;
    let test_regions = test_regions(tokens);
    let in_test = |idx: usize| test_regions.iter().any(|&(a, b)| idx >= a && idx <= b);

    let mut raw: Vec<Violation> = Vec::new();
    let mut counts = RatchetCounts::default();

    let library = ctx.role == FileRole::Library;

    // R1 no-hash-collections: non-test library code only.
    if library {
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident || in_test(i) {
                continue;
            }
            let replacement = match t.text.as_str() {
                "HashMap" => Some("BTreeMap"),
                "HashSet" => Some("BTreeSet"),
                "hash_map" => Some("btree_map"),
                "hash_set" => Some("btree_set"),
                _ => None,
            };
            if let Some(to) = replacement {
                raw.push(Violation {
                    rule: NO_HASH_COLLECTIONS,
                    path: ctx.path.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` in library code: iteration order is nondeterministic \
                         (invariants #1/#2); use `{}`",
                        t.text, to
                    ),
                });
            }
        }
    }

    // R2 no-wall-clock: everywhere except the measurement scope (the
    // bench crate, bench targets, examples).
    let wall_clock_exempt =
        ctx.is_bench_crate || matches!(ctx.role, FileRole::Example | FileRole::BenchTarget);
    if !wall_clock_exempt {
        for t in tokens.iter() {
            if t.kind == TokenKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
                raw.push(Violation {
                    rule: NO_WALL_CLOCK,
                    path: ctx.path.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` outside crates/bench / benches/ / examples/: host time must \
                         never reach the virtual-clock planes (invariant #1)",
                        t.text
                    ),
                });
            }
        }
    }

    // R3 float-reduction: non-test library code outside the blessed
    // kernel crate and the measurement scope (the bench crate aggregates
    // wall-clock measurements, not decode-path math). A reduction is
    // `.sum(...)` / `.fold(...)` whose enclosing statement mentions
    // f32/f64.
    if library && ctx.crate_name != "veda-tensor" && !ctx.is_bench_crate {
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident || (t.text != "sum" && t.text != "fold") || in_test(i) {
                continue;
            }
            let is_method = i > 0 && tokens[i - 1].is_punct('.');
            if !is_method || !is_float_reduction(tokens, i) {
                continue;
            }
            raw.push(Violation {
                rule: FLOAT_REDUCTION,
                path: ctx.path.clone(),
                line: t.line,
                message: format!(
                    "float `.{}(...)` outside veda-tensor: summation order is part of \
                     the bit-identity contract (invariant #2); call a veda-tensor \
                     kernel (e.g. `stats::sum`) or justify with lint:allow",
                    t.text
                ),
            });
        }
    }

    // R4 coordinator-only-tracing: non-test library code; forbidden
    // tokens inside worker regions (`thread::scope(...)`,
    // `thread::spawn(...)` and `Builder::...spawn(...)` arguments).
    if library {
        for (start, end) in worker_regions(tokens) {
            for (i, t) in tokens.iter().enumerate().take(end + 1).skip(start) {
                if t.kind != TokenKind::Ident || in_test(i) {
                    continue;
                }
                let is_trace_type = TRACE_TOKENS.contains(&t.text.as_str());
                let is_trace_call =
                    TRACE_METHODS.contains(&t.text.as_str()) && i > 0 && tokens[i - 1].is_punct('.');
                if is_trace_type || is_trace_call {
                    raw.push(Violation {
                        rule: COORDINATOR_ONLY_TRACING,
                        path: ctx.path.clone(),
                        line: t.line,
                        message: format!(
                            "trace token `{}` inside a worker thread region: \
                             emission must stay on the coordinator so trace bytes are \
                             thread-invariant (invariant #8)",
                            t.text
                        ),
                    });
                }
            }
        }
    }

    // R5 crate-hygiene: library crate roots outside shims/.
    if ctx.is_crate_root && !ctx.is_shim {
        for (attr, frag) in [
            ("#![forbid(unsafe_code)]", "forbid(unsafe_code)"),
            ("#![deny(missing_docs)]", "deny(missing_docs)"),
        ] {
            if !has_inner_attr(tokens, frag) {
                raw.push(Violation {
                    rule: CRATE_HYGIENE,
                    path: ctx.path.clone(),
                    line: 0,
                    message: format!("library crate root is missing `{attr}`"),
                });
            }
        }
    }

    // R6 panic-surface and R7 public-surface counting: non-test library
    // code (the ratchet comparison itself happens at workspace level).
    if library {
        for (i, t) in tokens.iter().enumerate() {
            if in_test(i) {
                continue;
            }
            match t.kind {
                TokenKind::Ident if t.text == "unwrap" || t.text == "expect" => {
                    let called = i > 0
                        && tokens[i - 1].is_punct('.')
                        && tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
                    if called {
                        if t.text == "unwrap" {
                            counts.unwrap += 1;
                        } else {
                            counts.expect += 1;
                        }
                    }
                }
                TokenKind::Punct('[') if i > 0 && is_index_base(&tokens[i - 1]) => {
                    counts.index += 1;
                }
                TokenKind::Ident
                    if t.text == "pub"
                        && tokens
                            .get(i + 1)
                            .is_some_and(|n| PUB_ITEM_KEYWORDS.contains(&n.text.as_str())) =>
                {
                    counts.pub_items += 1;
                }
                _ => {}
            }
        }
    }

    // Filter through the allow directives, then audit the allows
    // themselves.
    let violations = apply_allows(raw, &lexed, ctx);
    FileLint { violations, counts }
}

/// `[` forms an index expression when it follows a value-producing token.
fn is_index_base(prev: &Token) -> bool {
    match prev.kind {
        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
        TokenKind::Punct(')') | TokenKind::Punct(']') => true,
        _ => false,
    }
}

/// Token-index ranges covered by `#[cfg(test)]` items (usually
/// `mod tests { … }`), or the whole file when it opens with
/// `#![cfg(test)]` (an out-of-line `mod tests;`).
fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    if has_inner_attr(tokens, "cfg(test)") {
        return vec![(0, tokens.len().saturating_sub(1))];
    }
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let Some(close) = matching(tokens, i + 1, '[', ']') else { break };
        let attr = &tokens[i + 2..close];
        let is_cfg_test = attr.first().is_some_and(|t| t.is_ident("cfg"))
            && attr.iter().any(|t| t.is_ident("test"))
            // `#[cfg(not(test))]` is shipping code, not a test region.
            && !attr.iter().any(|t| t.is_ident("not"));
        if !is_cfg_test {
            i = close + 1;
            continue;
        }
        // Skip any further attributes between the cfg and the item.
        let mut j = close + 1;
        while tokens.get(j).is_some_and(|t| t.is_punct('#'))
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match matching(tokens, j + 1, '[', ']') {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        // The item runs to its first `;` (e.g. `#[cfg(test)] use x;`) or
        // the matching brace of its first `{`.
        let mut k = j;
        let end = loop {
            match tokens.get(k) {
                None => break tokens.len().saturating_sub(1),
                Some(t) if t.is_punct(';') => break k,
                Some(t) if t.is_punct('{') => {
                    break matching(tokens, k, '{', '}').unwrap_or(tokens.len() - 1)
                }
                Some(_) => k += 1,
            }
        };
        regions.push((i, end));
        i = end + 1;
    }
    regions
}

/// Token-index ranges of worker regions: the arguments of a
/// `thread::scope(...)` call (the closures the scope runs live in there),
/// of a `thread::spawn(...)` call, and of the `.spawn(...)` that ends a
/// `Builder::new()...` chain (`std::thread::Builder`) — everything a
/// spawned or scoped thread runs.
fn worker_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let is = |i: usize, text: &str| tokens.get(i).is_some_and(|t| t.is_ident(text));
    let punct = |i: usize, c: char| tokens.get(i).is_some_and(|t| t.is_punct(c));
    let path = |i: usize| punct(i + 1, ':') && punct(i + 2, ':');
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let open = if is(i, "thread")
            && path(i)
            && (is(i + 3, "scope") || is(i + 3, "spawn"))
            && punct(i + 4, '(')
        {
            Some(i + 4)
        } else if is(i, "Builder") && path(i) {
            builder_spawn(tokens, i + 3)
        } else {
            None
        };
        match open {
            Some(open) => {
                let end = matching(tokens, open, '(', ')').unwrap_or(tokens.len() - 1);
                regions.push((open, end));
                i = end + 1;
            }
            None => i += 1,
        }
    }
    regions
}

/// The `(` of the `.spawn(` that ends the method chain starting at
/// `start` (the rest of a `Builder::new()...` expression), if the chain
/// reaches one before its statement ends.
fn builder_spawn(tokens: &[Token], start: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(start) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth = depth.checked_sub(1)?;
        } else if depth == 0 && t.is_punct(';') {
            return None;
        } else if depth == 0 && t.is_punct('.') {
            let mut next = tokens.iter().skip(i + 1);
            if next.next().is_some_and(|t| t.is_ident("spawn"))
                && next.next().is_some_and(|t| t.is_punct('('))
            {
                return Some(i + 2);
            }
        }
    }
    None
}

/// Index of the token matching the opener at `open_idx`.
fn matching(tokens: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Is the `.sum`/`.fold` at `idx` a *float reduction call*? Field
/// accesses (`self.sum as f64`) are not calls; an explicit turbofish
/// names the element type outright (`.sum::<usize>()` is proof of
/// integer math, `.sum::<f64>()` of float math); otherwise fall back to
/// the statement-window heuristic.
fn is_float_reduction(tokens: &[Token], idx: usize) -> bool {
    match tokens.get(idx + 1) {
        Some(t) if t.is_punct('(') => statement_mentions_float(tokens, idx),
        Some(t) if t.is_punct(':') => {
            let turbofish_type = tokens.get(idx + 2).filter(|t| t.is_punct(':')).and_then(|_| {
                tokens.get(idx + 3).filter(|t| t.is_punct('<'))?;
                tokens.get(idx + 4)
            });
            match turbofish_type {
                Some(t) => t.is_ident("f32") || t.is_ident("f64"),
                None => false,
            }
        }
        _ => false,
    }
}

/// Does the statement containing token `idx` mention `f32`/`f64`? The
/// statement window runs from the previous `;`/`{`/`}` to the next
/// `;`/`{`/`}` — it never leaks into a neighboring item, so an integer
/// `.sum()` next to float code stays clean.
fn statement_mentions_float(tokens: &[Token], idx: usize) -> bool {
    let start = (0..idx)
        .rev()
        .find(|&i| matches!(tokens[i].kind, TokenKind::Punct(';' | '{' | '}')))
        .map_or(0, |i| i + 1);
    let end = (idx..tokens.len())
        .find(|&i| matches!(tokens[i].kind, TokenKind::Punct(';' | '{' | '}')))
        .unwrap_or(tokens.len() - 1);
    tokens[start..=end].iter().any(|t| t.kind == TokenKind::Ident && (t.text == "f32" || t.text == "f64"))
}

/// Does the stream contain the inner attribute `#![ … frag … ]` (frag
/// like `forbid(unsafe_code)`)?
fn has_inner_attr(tokens: &[Token], frag: &str) -> bool {
    // frag is `verb(what)`.
    let (verb, what) = frag.split_once('(').unwrap();
    let what = what.trim_end_matches(')');
    let mut i = 0usize;
    while i + 5 < tokens.len() {
        if tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('!')
            && tokens[i + 2].is_punct('[')
            && tokens[i + 3].is_ident(verb)
            && tokens[i + 4].is_punct('(')
            && tokens[i + 5].is_ident(what)
        {
            return true;
        }
        i += 1;
    }
    false
}

/// Filter `raw` through the file's allow directives and audit the
/// directives themselves (`allow-hygiene`).
fn apply_allows(raw: Vec<Violation>, lexed: &Lexed, ctx: &FileContext) -> Vec<Violation> {
    let mut used = vec![false; lexed.allows.len()];
    let mut out: Vec<Violation> = Vec::new();

    for v in raw {
        let mut suppressed = false;
        for (ai, allow) in lexed.allows.iter().enumerate() {
            if !allow.rules.iter().any(|r| r == v.rule) {
                continue;
            }
            // File-scoped rules accept a directive anywhere; line-scoped
            // rules accept same-line (trailing) or previous-line
            // (standalone comment above).
            let in_range = v.line == 0 || v.line == allow.line || v.line == allow.line + 1;
            if in_range {
                used[ai] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(v);
        }
    }

    for (ai, allow) in lexed.allows.iter().enumerate() {
        audit_allow(allow, used[ai], ctx, &mut out);
    }
    out
}

fn audit_allow(allow: &AllowDirective, used: bool, ctx: &FileContext, out: &mut Vec<Violation>) {
    if allow.rules.is_empty() {
        out.push(Violation {
            rule: ALLOW_HYGIENE,
            path: ctx.path.clone(),
            line: allow.line,
            message: "malformed lint:allow directive: expected \
                      `lint:allow(rule-name): reason`"
                .into(),
        });
        return;
    }
    for rule in &allow.rules {
        if !is_known_rule(rule) {
            out.push(Violation {
                rule: ALLOW_HYGIENE,
                path: ctx.path.clone(),
                line: allow.line,
                message: format!("lint:allow names unknown rule `{rule}`"),
            });
        }
    }
    if allow.reason.is_empty() {
        out.push(Violation {
            rule: ALLOW_HYGIENE,
            path: ctx.path.clone(),
            line: allow.line,
            message: "lint:allow without a reason: every escape hatch must \
                      say why (`lint:allow(rule): reason`)"
                .into(),
        });
    }
    if !used && allow.rules.iter().all(|r| is_known_rule(r)) {
        out.push(Violation {
            rule: ALLOW_HYGIENE,
            path: ctx.path.clone(),
            line: allow.line,
            message: format!(
                "stale lint:allow({}): it suppresses nothing on this or the \
                 next line — remove it",
                allow.rules.join(", ")
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx() -> FileContext {
        FileContext::synthetic_library("veda-test")
    }

    fn rules_fired(src: &str, ctx: &FileContext) -> Vec<&'static str> {
        lint_source(src, ctx).violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn hashmap_in_library_fires_r1() {
        assert_eq!(rules_fired("use std::collections::HashMap;\n", &lib_ctx()), vec![NO_HASH_COLLECTIONS]);
    }

    #[test]
    fn hashmap_in_cfg_test_mod_is_exempt() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(rules_fired(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn wall_clock_fires_outside_bench_only() {
        let src = "use std::time::Instant;\n";
        assert_eq!(rules_fired(src, &lib_ctx()), vec![NO_WALL_CLOCK]);
        let mut bench = lib_ctx();
        bench.is_bench_crate = true;
        assert!(rules_fired(src, &bench).is_empty());
        let shim = FileContext { is_shim: true, ..lib_ctx() };
        assert_eq!(rules_fired(src, &shim), vec![NO_WALL_CLOCK]);
    }

    #[test]
    fn float_sum_fires_outside_tensor_but_int_sum_does_not() {
        let float = "fn f(x: &[f32]) -> f32 { let s: f32 = x.iter().sum(); s }\n";
        assert_eq!(rules_fired(float, &lib_ctx()), vec![FLOAT_REDUCTION]);
        let int = "fn f(x: &[u64]) -> u64 { x.iter().sum() }\n";
        assert!(rules_fired(int, &lib_ctx()).is_empty());
        let mut tensor = lib_ctx();
        tensor.crate_name = "veda-tensor".into();
        assert!(rules_fired(float, &tensor).is_empty());
    }

    #[test]
    fn trace_token_in_scope_region_fires_r4() {
        let src =
            "fn f(tr: &Tracer) {\n  std::thread::scope(|s| {\n    s.spawn(|| tr.emit(0, 0, k));\n  });\n}\n";
        let fired = rules_fired(src, &lib_ctx());
        assert!(fired.contains(&COORDINATOR_ONLY_TRACING), "{fired:?}");
        // The same tokens outside a scope region are fine (`Tracer` in
        // the signature does not fire).
        let outside = "fn f(tr: &Tracer) { tr.emit(0, 0, k); }\n";
        assert!(rules_fired(outside, &lib_ctx()).is_empty());
    }

    #[test]
    fn trace_token_in_spawned_thread_fires_r4() {
        // A plain `thread::spawn` closure.
        let spawn = "fn f(tr: Tracer) {\n  std::thread::spawn(move || tr.emit(0, 0, k));\n}\n";
        assert_eq!(rules_fired(spawn, &lib_ctx()), vec![COORDINATOR_ONLY_TRACING]);
        // The closure that ends a `thread::Builder` chain, arguments of
        // the chain's other calls notwithstanding.
        let builder = "fn f(sink: SinkHandle) {\n  let h = std::thread::Builder::new()\n    \
                       .name(format!(\"w{}\", 1))\n    .spawn(move || {\n      sink.record(&ev);\n    });\n}\n";
        let fired = rules_fired(builder, &lib_ctx());
        assert_eq!(fired, vec![COORDINATOR_ONLY_TRACING], "{fired:?}");
        // A worker that only computes is clean, and so is emission after
        // the spawn statement, back on the spawning thread.
        let clean = "fn f(tr: &Tracer, mut w: Work) {\n  let h = std::thread::Builder::new()\n    \
                     .spawn(move || w.compute());\n  tr.emit(0, 0, k);\n}\n";
        assert!(rules_fired(clean, &lib_ctx()).is_empty());
    }

    #[test]
    fn crate_root_without_headers_fires_r5_twice() {
        let mut ctx = lib_ctx();
        ctx.is_crate_root = true;
        let fired = rules_fired("//! docs\npub fn f() {}\n", &ctx);
        assert_eq!(fired, vec![CRATE_HYGIENE, CRATE_HYGIENE]);
        let clean = "//! docs\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n";
        assert!(rules_fired(clean, &ctx).is_empty());
    }

    #[test]
    fn panic_surface_counts_unwrap_expect_index() {
        let src = "fn f(v: &[u32], i: usize) -> u32 {\n  let a = v.first().unwrap();\n  let b: u32 = \"1\".parse().expect(\"x\");\n  v[i] + a + b\n}\n";
        let lint = lint_source(src, &lib_ctx());
        assert_eq!(lint.counts, RatchetCounts { unwrap: 1, expect: 1, index: 1, pub_items: 0 });
    }

    #[test]
    fn pub_items_count_public_items_only() {
        let src = "pub fn a() {}\npub(crate) fn b() {}\npub struct S {\n  pub field: u32,\n}\n\
                   impl S {\n  pub fn method(&self) {}\n  pub const C: u32 = 1;\n}\n\
                   pub use std::fmt;\npub mod m {}\n\
                   #[cfg(test)]\nmod tests {\n  pub fn helper() {}\n}\n";
        // `a`, `S`, `method`, `C` and `m`; not the `pub(crate)` fn, the
        // field, the re-export or the test helper.
        assert_eq!(lint_source(src, &lib_ctx()).counts.pub_items, 5);
        let out_of_line = "//! Tests.\n#![cfg(test)]\npub fn helper() { Some(1).unwrap(); }\n";
        assert_eq!(lint_source(out_of_line, &lib_ctx()).counts, RatchetCounts::default());
    }

    #[test]
    fn array_literals_and_attributes_are_not_indexing() {
        let src = "#[derive(Clone)]\npub struct S;\npub fn f() -> [u32; 2] { [1, 2] }\n";
        let lint = lint_source(src, &lib_ctx());
        assert_eq!(lint.counts.index, 0);
    }

    #[test]
    fn test_code_is_outside_the_ratchet() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { Some(1).unwrap(); }\n}\n";
        let lint = lint_source(src, &lib_ctx());
        assert_eq!(lint.counts.total(), 0);
    }

    #[test]
    fn allow_suppresses_same_and_next_line() {
        let trailing = "use std::collections::HashMap; // lint:allow(no-hash-collections): fixture\n";
        assert!(rules_fired(trailing, &lib_ctx()).is_empty());
        let above = "// lint:allow(no-hash-collections): fixture\nuse std::collections::HashMap;\n";
        assert!(rules_fired(above, &lib_ctx()).is_empty());
        let far = "// lint:allow(no-hash-collections): fixture\n\nuse std::collections::HashMap;\n";
        let fired = rules_fired(far, &lib_ctx());
        // Too far: the violation stands and the allow is stale.
        assert!(fired.contains(&NO_HASH_COLLECTIONS));
        assert!(fired.contains(&ALLOW_HYGIENE));
    }

    #[test]
    fn allow_without_reason_or_with_unknown_rule_is_flagged() {
        let no_reason = "use std::collections::HashMap; // lint:allow(no-hash-collections)\n";
        assert_eq!(rules_fired(no_reason, &lib_ctx()), vec![ALLOW_HYGIENE]);
        let unknown = "// lint:allow(no-such-rule): whatever\nlet x = 1;\n";
        let fired = rules_fired(unknown, &lib_ctx());
        assert!(fired.contains(&ALLOW_HYGIENE));
    }
}
