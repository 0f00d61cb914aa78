//! Minimal JSON reader/writer for checkpoint files, job specs, and the
//! `bbgnn-serve` wire format.
//!
//! The workspace is dependency-free by design (DESIGN.md §0), so those
//! formats are served by this small, strict JSON subset implementation:
//! objects, arrays, strings, finite numbers, booleans, and null — exactly
//! what `*.checkpoint.json` and `POST /jobs` bodies need. Strings
//! round-trip with standard escaping; numbers are written back verbatim
//! from the parsed text so re-serialization is byte-stable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts
/// (serde_json's default). The parser recurses once per level, so the cap
/// bounds its stack use on hostile input such as a `POST /jobs` body of
/// `[` bytes; the deepest document the workspace writes, a checkpoint,
/// nests 4 levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Object keys are sorted (BTreeMap) so serialization is
/// deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number, kept as its literal text for byte-stable output.
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with sorted keys.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Object constructor from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (String, Json)>) -> Json {
        Json::Object(pairs.into_iter().collect())
    }

    /// String constructor.
    pub fn string(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// Number constructor from a usize.
    pub fn number_usize(v: usize) -> Json {
        Json::Number(v.to_string())
    }

    /// Number constructor from a u64 (seeds, counters).
    pub fn number_u64(v: u64) -> Json {
        Json::Number(v.to_string())
    }

    /// Number constructor from a finite f64 (JSON has no NaN/inf).
    pub fn number_f64(v: f64) -> Json {
        assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
        Json::Number(format!("{v}"))
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number parsed as usize, if this is a number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as u64, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as f64, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline —
    /// deterministic for a given value.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on a single line with no whitespace — the form wire
    /// protocols that frame messages by line need (`bbgnn-serve`'s SSE
    /// `data:` lines). Deterministic for a given value; no trailing
    /// newline.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Number(n) => out.push_str(n),
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Number(n) => out.push_str(n),
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in map.iter().enumerate() {
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (a single value with optional surrounding
    /// whitespace). Returns a message describing the first syntax error,
    /// or the offset where nesting exceeds [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes: Vec<char> = text.chars().collect();
        let mut p = Parser {
            chars: &bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(format!("trailing characters at offset {}", p.pos));
        }
        Ok(v)
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
    chars: &'a [char],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        self.pos += 1;
        c
    }

    fn expect_char(&mut self, c: char) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            got => Err(format!(
                "expected {c:?} at offset {}, got {got:?}",
                self.pos - 1
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for c in word.chars() {
            self.expect_char(c)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ ('{' | '[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at offset {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let nested = if open == '{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            Some('"') => Ok(Json::String(self.string()?)),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('n') => self.literal("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            got => Err(format!("unexpected {got:?} at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_char('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_char(':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Json::Object(map)),
                got => return Err(format!("expected ',' or '}}', got {got:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_char('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Json::Array(items)),
                got => return Err(format!("expected ',' or ']', got {got:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_char('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let c = self.bump().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + c.to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit {c:?}"))?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    got => return Err(format!("bad escape {got:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map_err(|_| format!("bad number {text:?}"))?;
        Ok(Json::Number(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_object() {
        let doc = Json::object([
            ("name".to_string(), Json::string("tables_main")),
            (
                "cells".to_string(),
                Json::object([(
                    "cora/PEEGA/GCN".to_string(),
                    Json::object([
                        ("value".to_string(), Json::string("62.10±1.20")),
                        ("attempts".to_string(), Json::number_usize(1)),
                    ]),
                )]),
            ),
        ]);
        let text = doc.to_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        // Byte-stable: serializing the parse reproduces the text.
        assert_eq!(parsed.to_pretty(), text);
    }

    #[test]
    fn escapes_roundtrip() {
        let doc = Json::object([("k\"ey\n".to_string(), Json::string("a\\b\tc\u{1}"))]);
        let parsed = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn compact_form_is_one_line_and_roundtrips() {
        let doc = Json::object([
            ("id".to_string(), Json::number_u64(3)),
            ("state".to_string(), Json::string("running")),
            (
                "vals".to_string(),
                Json::Array(vec![Json::number_usize(1), Json::Null]),
            ),
            ("note".to_string(), Json::string("line\nbreak")),
            ("empty".to_string(), Json::object([])),
        ]);
        let compact = doc.to_compact();
        assert!(
            !compact.contains('\n'),
            "compact must be single-line: {compact}"
        );
        // Keys serialize sorted (BTreeMap), same as `to_pretty`.
        assert_eq!(
            compact,
            r#"{"empty":{},"id":3,"note":"line\nbreak","state":"running","vals":[1,null]}"#
        );
        assert_eq!(Json::parse(&compact).unwrap(), doc);
    }

    #[test]
    fn parses_arrays_bools_null_numbers() {
        let v = Json::parse(r#"[1, -2.5e3, true, false, null, "x"]"#).unwrap();
        match v {
            Json::Array(items) => {
                assert_eq!(items.len(), 6);
                assert_eq!(items[0].as_usize(), Some(1));
                assert_eq!(items[2], Json::Bool(true));
                assert_eq!(items[4], Json::Null);
                assert_eq!(items[5].as_str(), Some("x"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("offset {MAX_DEPTH}")), "{err}");
        // Objects count toward the same cap as arrays.
        let objects = r#"{"k":"#.repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        // A hostile body must fail cleanly, not overflow the stack.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }
}
