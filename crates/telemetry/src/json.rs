//! The workspace's one JSON value type, with its writer and its parser.
//!
//! There is no serde in the workspace, so every JSON document the crates
//! write — the Chrome trace, the metrics document — is built as a
//! [`Json`] value and printed by its `Display` impl, and [`Json::parse`]
//! reads a document back. Integers are `u64` and print exactly, above
//! 2^53 too; objects keep insertion order, so the writer of a document
//! owns its key order.

use std::fmt::{self, Write as _};

/// A JSON value.
///
/// `{}` prints it on one line with `", "` and `": "` separators; `{:#}`
/// puts each element and field on its own line, two spaces per level.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer: counters, ticks, ids and byte counts. The
    /// parser reads every integer literal that fits a `u64` as one.
    U64(u64),
    /// Any other number, printed in Rust's shortest round-trip form,
    /// which always has a `.` or an exponent (`1.0`, `0.1`, `1e-7`), so
    /// it reads back as `F64`. JSON has no NaN or infinity; those print
    /// as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::U64(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Self {
        Json::U64(n.into())
    }
}

impl Json {
    /// An object with `fields` in the given order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value of field `key` (the first, if repeated); `None` when
    /// absent or when `self` is not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parse exactly one RFC 8259 JSON value (surrounding whitespace
    /// allowed). `Err` names the first violation and its byte offset.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { text: input, pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != input.len() {
            return p.err("trailing data");
        }
        Ok(value)
    }

    /// Write `self`; `indent` is `Some(depth)` when each element and
    /// field goes on its own line.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        let inner = indent.map(|depth| depth + 1);
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(n) => write!(f, "{n}"),
            Json::F64(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    separate(f, i, inner)?;
                    item.write(f, inner)?;
                }
                close(f, ']', !items.is_empty(), indent)
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    separate(f, i, inner)?;
                    write_string(f, key)?;
                    f.write_str(": ")?;
                    value.write(f, inner)?;
                }
                close(f, '}', !fields.is_empty(), indent)
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let indent = f.alternate().then_some(0);
        self.write(f, indent)
    }
}

/// What goes before element `i` of a container: `", "` on one line, or
/// a comma (after the first) and a new line at the element's `depth`.
fn separate(f: &mut fmt::Formatter<'_>, i: usize, depth: Option<usize>) -> fmt::Result {
    match depth {
        None if i > 0 => f.write_str(", "),
        None => Ok(()),
        Some(depth) => {
            f.write_str(if i > 0 { ",\n" } else { "\n" })?;
            (0..depth).try_for_each(|_| f.write_str("  "))
        }
    }
}

/// Close a container opened at `indent`, on a line of its own if it holds
/// anything and is indented.
fn close(f: &mut fmt::Formatter<'_>, bracket: char, filled: bool, indent: Option<usize>) -> fmt::Result {
    if let (Some(depth), true) = (indent, filled) {
        f.write_char('\n')?;
        (0..depth).try_for_each(|_| f.write_str("  "))?;
    }
    f.write_char(bracket)
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Check that `input` is exactly one well-formed JSON value: [`Json::parse`]
/// for callers that need only the verdict.
pub fn validate(input: &str) -> Result<(), String> {
    Json::parse(input).map(drop)
}

/// A recursive-descent reader over RFC 8259's grammar.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn rest(&self) -> &str {
        self.text.get(self.pos..).unwrap_or_default()
    }

    fn peek(&self) -> Option<u8> {
        self.rest().bytes().next()
    }

    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.rest().starts_with(word) {
            return self.err("invalid literal");
        }
        self.pos += word.len();
        Ok(value)
    }

    fn object(&mut self) -> Result<Json, String> {
        let fields = self.sequence(b'}', |p| {
            if p.peek() != Some(b'"') {
                return p.err("expected object key");
            }
            let key = p.string()?;
            p.skip_ws();
            if p.peek() != Some(b':') {
                return p.err("expected ':'");
            }
            p.pos += 1;
            p.skip_ws();
            Ok((key, p.value()?))
        })?;
        Ok(Json::Obj(fields))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.sequence(b']', Self::value).map(Json::Arr)
    }

    /// The comma-separated `item`s of a container whose opening bracket
    /// is at `pos`, through the `close` bracket.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return self.err(&format!("expected ',' or '{}'", char::from(close))),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let run = self.rest();
            let len = run.find(|c: char| c == '"' || c == '\\' || c < ' ').unwrap_or(run.len());
            out.push_str(run.get(..len).unwrap_or_default());
            self.pos += len;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return self.err("unescaped control character"),
                None => return self.err("unterminated string"),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return self.err("invalid escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The four hex digits of a `\u` escape, and a second escape when the
    /// first is a high surrogate.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) {
            if !self.rest().starts_with("\\u") {
                return self.err("unpaired surrogate");
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return self.err("unpaired surrogate");
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code).map_or_else(|| self.err("unpaired surrogate"), Ok)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.rest().get(..4).filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()));
        let Some(code) = digits.and_then(|d| u32::from_str_radix(d, 16).ok()) else {
            return self.err("invalid \\u escape");
        };
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.skip_digits();
            }
            _ => return self.err("invalid number"),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.skip_digits() == 0 {
                return self.err("digit required after '.'");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.skip_digits() == 0 {
                return self.err("digit required in exponent");
            }
        }
        // Only a bare digit run that fits is a u64; the rest is float
        // syntax the grammar above has already checked.
        let literal = self.text.get(start..self.pos).unwrap_or_default();
        match literal.parse::<u64>() {
            Ok(n) => Ok(Json::U64(n)),
            Err(_) => literal.parse::<f64>().map(Json::F64).map_err(|e| format!("{e} at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "null",
            "true",
            "-0.5e+3",
            "\"a \\\"quoted\\\" string\\n\"",
            "[]",
            "{}",
            "[1, 2, [3, {\"k\": null}]]",
            "{\"a\": {\"b\": [1.5, \"x\"]}, \"c\": false}",
        ] {
            Json::parse(ok).unwrap_or_else(|e| panic!("{ok:?} rejected: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": }",
            "{\"a\" 1}",
            "01",
            "1.",
            "\"unterminated",
            "nul",
            "[1] trailing",
            "{'single': 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn written_values_parse_back_unchanged() {
        let value = Json::obj([
            ("escapes", Json::from("tab\there \"quoted\" back\\slash/\nline\r µs 🦀")),
            ("controls", Json::from("\u{0}\u{1}\u{8}\u{c}\u{1f}")),
            ("empty", Json::obj::<&str>([])),
            ("none", Json::Arr(Vec::new())),
            ("big", Json::Arr(vec![Json::U64((1 << 53) + 1), Json::U64(u64::MAX)])),
            (
                "floats",
                Json::Arr(vec![Json::F64(0.1 + 0.2), Json::F64(-17.5), Json::F64(1.25e-9), Json::F64(3.0)]),
            ),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null])),
        ]);
        for text in [value.to_string(), format!("{value:#}")] {
            assert_eq!(Json::parse(&text), Ok(value.clone()), "{text}");
        }
        assert!(!value.to_string().contains('\n'), "the compact form is one line");
        assert!(value.to_string().contains("9007199254740993, 18446744073709551615"));
        assert!(value.to_string().contains(r#""controls": "\u0000\u0001\u0008\u000c\u001f""#));
    }

    #[test]
    fn numbers_print_exactly() {
        assert_eq!(Json::F64(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::F64(1.25e-9).to_string(), "1.25e-9");
        assert_eq!(Json::F64(2000.0).to_string(), "2000.0");
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::parse("18446744073709551616"), Ok(Json::F64(18446744073709551616.0)));
        assert_eq!(Json::parse("-3"), Ok(Json::F64(-3.0)));
        assert_eq!(Json::parse("1.5e3"), Ok(Json::F64(1500.0)));
    }

    #[test]
    fn unicode_escapes_decode_pairs_and_reject_lone_surrogates() {
        assert_eq!(Json::parse(r#""\u00b5\ud83e\udd80""#), Ok(Json::from("µ🦀")));
        for bad in [r#""\ud83e""#, r#""\udd80""#, r#""\ud83eA""#, r#""\u12g4""#] {
            assert!(Json::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn pretty_form_indents_nested_containers() {
        let value = Json::obj([("a", Json::Arr(vec![Json::U64(1), Json::obj::<&str>([])]))]);
        assert_eq!(format!("{value:#}"), "{\n  \"a\": [\n    1,\n    {}\n  ]\n}");
        assert_eq!(value.to_string(), "{\"a\": [1, {}]}");
        assert_eq!(value.get("a"), Some(&Json::Arr(vec![Json::U64(1), Json::obj::<&str>([])])));
        assert_eq!(value.get("b"), None);
    }
}
