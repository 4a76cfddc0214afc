//! A lightweight Rust lexer for the lint pass.
//!
//! This is deliberately **not** a full Rust grammar: the rules only need a
//! token stream that is *comment-, string- and attribute-aware*, so that
//! `HashMap` inside a doc comment or a string literal never fires a rule,
//! and `#[cfg(test)]` regions can be carved out by brace matching. The
//! lexer therefore handles exactly the lexical features that matter for
//! correctness of that promise:
//!
//! * line comments (`//`, `///`, `//!`) — scanned for `lint:allow(...)`
//!   escape-hatch directives, otherwise dropped;
//! * nested block comments (`/* /* */ */`);
//! * string, raw-string (`r#"…"#`, any hash depth), byte-string and char
//!   literals, with escapes;
//! * lifetimes vs. char literals (`'a` vs `'a'`);
//! * identifiers (including raw `r#ident`), numbers, and single-char
//!   punctuation.
//!
//! Everything downstream (test-region detection, `thread::scope` regions,
//! statement windows) works on the resulting [`Token`] stream.

/// The coarse classification a lint rule needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `fn`, `r#mod` → `mod`).
    Ident,
    /// A single punctuation character (`.`, `:`, `[`, …).
    Punct(char),
    /// String / char / byte / numeric literal (text is the raw source).
    Literal,
    /// A lifetime such as `'a` (text excludes the quote).
    Lifetime,
}

/// One lexed token with its 1-indexed source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Source text (for [`TokenKind::Punct`] the single character).
    pub text: String,
    /// 1-indexed line the token starts on.
    pub line: u32,
}

impl Token {
    /// Is this an identifier with exactly this text?
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Is this a punctuation token with this character?
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// A `// lint:allow(rule-a, rule-b): reason` escape-hatch directive.
///
/// The directive suppresses matching violations **on its own line** (a
/// trailing comment) and **on the following line** (a standalone comment
/// above the code it excuses). File-scoped rules (crate hygiene) accept a
/// directive anywhere in the file. A directive with no reason, an unknown
/// rule name, or that suppresses nothing is itself a violation of the
/// `allow-hygiene` meta rule — allows must stay explained and live.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// 1-indexed line the comment sits on.
    pub line: u32,
    /// Rule names inside the parentheses.
    pub rules: Vec<String>,
    /// Text after the closing `): ` (trimmed; may be empty — a violation).
    pub reason: String,
}

/// The output of [`lex`]: the token stream plus any allow directives.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// Every `lint:allow` directive found in line comments.
    pub allows: Vec<AllowDirective>,
}

/// Lex `source` into tokens and allow directives. Never fails: unexpected
/// bytes are skipped (the pass lints real, compiling Rust; graceful
/// degradation beats a hard error on an exotic token).
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                // Directives live in plain `//` comments only: doc
                // comments (`///`, `//!`) *describe* the syntax without
                // enacting it.
                let is_doc = matches!(bytes.get(start + 2), Some(b'/') | Some(b'!'));
                if !is_doc {
                    parse_allow(&source[start..i], line, &mut out.allows);
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comment.
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let tok_line = line;
                i = skip_string(bytes, i, &mut line);
                out.tokens.push(Token { kind: TokenKind::Literal, text: String::new(), line: tok_line });
            }
            'r' | 'b' if starts_raw_or_byte_string(bytes, i) => {
                let tok_line = line;
                i = skip_raw_or_byte_string(bytes, i, &mut line);
                out.tokens.push(Token { kind: TokenKind::Literal, text: String::new(), line: tok_line });
            }
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let tok_line = line;
                if is_lifetime(bytes, i) {
                    let start = i + 1;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_alphanumeric()
                        || i < bytes.len() && bytes[i] == b'_'
                    {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: source[start..i].to_string(),
                        line: tok_line,
                    });
                } else {
                    i = skip_char_literal(bytes, i, &mut line);
                    out.tokens.push(Token { kind: TokenKind::Literal, text: String::new(), line: tok_line });
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_alphanumeric() || d == '_' {
                        i += 1;
                    } else if d == '.' && bytes.get(i + 1).is_some_and(|n| n.is_ascii_digit()) {
                        // `1.5` continues the number; `0..n` does not.
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token { kind: TokenKind::Literal, text: source[start..i].to_string(), line });
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut start = i;
                // Raw identifier `r#ident`: token text is the bare name.
                if (c == 'r' || c == 'b')
                    && bytes.get(i + 1) == Some(&b'#')
                    && bytes.get(i + 2).is_some_and(|n| (*n as char).is_alphabetic() || *n == b'_')
                {
                    start = i + 2;
                    i += 2;
                }
                i += 1;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_alphanumeric() || d == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token { kind: TokenKind::Ident, text: source[start..i].to_string(), line });
            }
            c => {
                out.tokens.push(Token { kind: TokenKind::Punct(c), text: c.to_string(), line });
                i += 1;
            }
        }
    }
    out
}

/// Is `'` at `i` a lifetime rather than a char literal? A lifetime's
/// identifier is not followed by a closing quote (`'a'` is a char, `'a,`
/// a lifetime; `'\n'` is always a char).
fn is_lifetime(bytes: &[u8], i: usize) -> bool {
    let Some(&first) = bytes.get(i + 1) else { return false };
    let fc = first as char;
    if fc == '\\' {
        return false;
    }
    if !(fc.is_alphabetic() || fc == '_') {
        return false;
    }
    // Consume the identifier; a trailing `'` makes it a char literal.
    let mut j = i + 2;
    while j < bytes.len() && ((bytes[j] as char).is_alphanumeric() || bytes[j] == b'_') {
        j += 1;
    }
    bytes.get(j) != Some(&b'\'')
}

fn skip_char_literal(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                // A `\<newline>` continuation still advances the line.
                if bytes.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'\'' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn skip_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                if bytes.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Does `r`/`b` at `i` begin a raw string (`r"`, `r#"`, `br"`, …) or byte
/// string (`b"`)? Plain identifiers starting with r/b fall through to the
/// identifier arm.
fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
    }
    bytes.get(j) == Some(&b'"') && j > i
}

fn skip_raw_or_byte_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    if bytes[i] == b'b' {
        i += 1;
    }
    let raw = bytes.get(i) == Some(&b'r');
    if raw {
        i += 1;
    }
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(bytes.get(i), Some(&b'"'));
    i += 1;
    if !raw {
        // Plain byte string: escapes apply.
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => return i + 1,
                b'\n' => {
                    *line += 1;
                    i += 1;
                }
                _ => i += 1,
            }
        }
        return i;
    }
    // Raw string: ends at `"` followed by `hashes` hash marks.
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
    i
}

/// Parse a `lint:allow(rule-a, rule-b): reason` directive out of one line
/// comment (`comment` includes the leading slashes, excludes the newline).
fn parse_allow(comment: &str, line: u32, allows: &mut Vec<AllowDirective>) {
    let Some(pos) = comment.find("lint:allow") else { return };
    let rest = &comment[pos + "lint:allow".len()..];
    let Some(open) = rest.find('(') else {
        // Malformed directive: record it with no rules so allow-hygiene
        // can flag it rather than silently ignoring a typo.
        allows.push(AllowDirective { line, rules: Vec::new(), reason: String::new() });
        return;
    };
    let Some(close) = rest[open..].find(')') else {
        allows.push(AllowDirective { line, rules: Vec::new(), reason: String::new() });
        return;
    };
    let rules: Vec<String> = rest[open + 1..open + close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let after = rest[open + close + 1..].trim_start();
    let reason = after.strip_prefix(':').map(|r| r.trim().to_string()).unwrap_or_default();
    allows.push(AllowDirective { line, rules, reason });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokenKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            // HashMap in a comment
            /* HashMap /* nested */ still comment */
            let s = "HashMap in a string";
            let r = r#"HashMap raw "quoted" string"#;
            let real = BTreeMap::new();
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "HashMap"), "{ids:?}");
        assert!(ids.iter().any(|i| i == "BTreeMap"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let lexed = lex(src);
        assert!(lexed.tokens.iter().any(|t| t.kind == TokenKind::Lifetime && t.text == "a"));
        assert!(lexed.tokens.iter().any(|t| t.kind == TokenKind::Literal));
        // The char literal body never becomes an identifier.
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("x") && t.line == 0));
    }

    #[test]
    fn escaped_quotes_stay_inside_strings() {
        let ids = idents(r#"let s = "quote \" HashMap"; let t = SystemTime;"#);
        assert!(!ids.iter().any(|i| i == "HashMap"));
        assert!(ids.iter().any(|i| i == "SystemTime"));
    }

    #[test]
    fn raw_identifiers_normalize() {
        let ids = idents("let r#mod = 1;");
        assert!(ids.iter().any(|i| i == "mod"));
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "let a = 1;\n/* two\nlines */\nlet b = 2;\n";
        let lexed = lex(src);
        let b = lexed.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn allow_directives_parse() {
        let src = "// lint:allow(no-hash-collections, no-wall-clock): bench-only scratch map\nlet x = 1;";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        let a = &lexed.allows[0];
        assert_eq!(a.line, 1);
        assert_eq!(a.rules, ["no-hash-collections", "no-wall-clock"]);
        assert_eq!(a.reason, "bench-only scratch map");
    }

    #[test]
    fn allow_without_reason_is_recorded_empty() {
        let lexed = lex("// lint:allow(no-wall-clock)\n");
        assert_eq!(lexed.allows.len(), 1);
        assert!(lexed.allows[0].reason.is_empty());
    }
}
