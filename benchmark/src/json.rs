//! The benchmark's one JSON writer and reader. The workspace has no serde
//! (offline container), and `veda_telemetry::json` only validates, so the
//! result files, the span dump and `--compare` all go through this value
//! type; the round-trip test below is what keeps the two halves honest.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so written files are stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Compact one-line rendering (the result line the driver reads).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering for files meant to be read.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parses exactly one JSON value.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// Every digit the measurement has: Rust's shortest round-trip rendering,
/// which never uses an exponent. JSON has no NaN or infinity, so those
/// become `null` (and `output::finish` has already failed the run).
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

    fn eat(&mut self, lit: &[u8], value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err("invalid literal")
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.eat(b"true", Json::Bool(true)),
            Some(b'f') => self.eat(b"false", Json::Bool(false)),
            Some(b'n') => self.eat(b"null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5).ok_or("short \\u escape")?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
                                    .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            char::from_u32(code).ok_or("surrogate \\u escapes are not supported")?
                        }
                        _ => return self.err("invalid escape"),
                    };
                    out.extend_from_slice(escaped.encode_utf8(&mut [0; 4]).as_bytes());
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return self.err("expected object key");
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return self.err("expected ':'");
            }
            self.pos += 1;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(2000.0)),
            ("nothing", Json::Null),
            ("name", Json::str("tab\there \"quoted\" back\\slash\nline \u{1} µs")),
            (
                "metrics",
                Json::obj([
                    (
                        "host_tok_s",
                        Json::obj([("value", Json::Num(583.172_940_112_3)), ("unit", Json::str("tok/s"))]),
                    ),
                    ("tiny", Json::Num(1.25e-9)),
                    ("negative", Json::Num(-17.5)),
                ]),
            ),
            ("list", Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![]), Json::obj::<String>([])])),
        ])
    }

    #[test]
    fn writer_output_parses_back_to_the_same_value() {
        let value = sample();
        for text in [value.to_line(), value.to_pretty()] {
            veda_telemetry::json::validate(&text).expect("the workspace's validator accepts our bytes");
            assert_eq!(Json::parse(&text).expect("parses"), value);
        }
        assert!(!value.to_line().contains('\n'), "the result line is one line");
    }

    #[test]
    fn numbers_keep_every_digit_and_integers_stay_integers() {
        assert_eq!(Json::Num(0.1 + 0.2).to_line(), "0.30000000000000004");
        assert_eq!(Json::Num(2000.0).to_line(), "2000");
        assert_eq!(Json::Num(-3.0).to_line(), "-3");
        assert_eq!(Json::Num(1.25e-9).to_line(), "0.00000000125");
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
        assert_eq!(Json::parse("1.5e3").unwrap(), Json::Num(1500.0));
    }

    #[test]
    fn malformed_input_is_rejected_with_an_offset() {
        for bad in ["{\"a\": }", "[1, 2", "{\"a\" 1}", "tru", "\"open", "1 2", ""] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.contains("byte") || err.contains("invalid"), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn lookups_return_none_on_the_wrong_shape() {
        let value = sample();
        assert_eq!(value.get("attempted").and_then(Json::as_f64), Some(2000.0));
        assert_eq!(value.get("missing"), None);
        assert_eq!(value.get("attempted").and_then(Json::as_str), None);
        assert_eq!(Json::Num(1.0).get("x"), None);
    }
}
