//! The workspace's JSON codec: a dependency-free value type with a
//! parser and a canonical writer.
//!
//! Every JSON document the workspace reads or writes goes through
//! [`Json`]: verifier reports and lints, histograms and metrics
//! snapshots, verdict- and obligation-cache entries, the daemon protocol,
//! LSP frames and exported traces. It lives in this dependency-free crate
//! so each of those shapes can keep its one encoder and one decoder next
//! to its type. Input accepts the full JSON grammar (including `\uXXXX`
//! escapes and surrogate pairs) up to [`MAX_DEPTH`] levels of nesting;
//! output is a canonical single-line rendering (fields in insertion
//! order, no whitespace) whose string escaping is [`json_string`].

use std::fmt::{self, Write as _};

/// The deepest array/object nesting [`Json::parse`] accepts. Deeper
/// input is an `Err`, not a stack overflow: the parser recurses once per
/// level, and request lines and LSP frames come from untrusted peers.
/// The workspace's own documents nest fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Escapes `s` as a JSON string literal (quotes included): `"` and `\`
/// are backslash-escaped, `\n`/`\r`/`\t` use their short forms, other
/// C0 controls become `\u00XX`, and everything else passes through raw
/// (JSON strings are UTF-8).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let _ = write_string(&mut out, s);
    out
}

/// Writes `s` as a JSON string literal, copying each run of characters
/// that needs no escape as one slice.
fn write_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_str(&s[run..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            c => write!(out, "\\u{:04x}", c)?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved (and emitted) as inserted.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a whole number ≥ 0.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_num()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document. The whole input must be consumed (modulo
    /// surrounding whitespace), and arrays and objects may nest at most
    /// [`MAX_DEPTH`] levels deep. Time is linear in the input length.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    /// Canonical single-line rendering (no extra whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    // `{}` on f64 prints shortest-roundtrip: "5" for 5.0,
                    // "1.25" for 1.25 — both valid JSON.
                    write!(f, "{n}")
                } else {
                    f.write_str("null") // JSON has no NaN/inf
                }
            }
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    item.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_string(f, k)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open (bounded by [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_owned())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` as one slice: both
            // are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hi = self.hex4()?;
                    let c = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: require \uXXXX for the low half.
                        if !self.bytes[self.pos..].starts_with(b"\\u") {
                            return Err("lone high surrogate".into());
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err("bad low surrogate".into());
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code).ok_or("bad surrogate pair")?
                    } else {
                        char::from_u32(hi).ok_or("bad \\u escape")?
                    };
                    out.push(c);
                }
                other => return Err(format!("bad escape `\\{}`", other as char)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "non-utf8 \\u escape".to_owned())?;
        self.pos = end;
        u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u escape: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::str("hi"));
        assert_eq!(
            Json::parse("[1, [2], {}]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0)]),
                Json::Obj(vec![]),
            ])
        );
        let obj = Json::parse(r#"{"a": 1, "b": [true, null]}"#).unwrap();
        assert_eq!(obj.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(obj.get("b").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn string_escapes_roundtrip() {
        for s in [
            "plain",
            "quote \" backslash \\ slash /",
            "tab\tnewline\ncr\r",
            "control \u{1} \u{1f}",
            "unicode ü λ 中",
            "emoji 🦀 (surrogate pair in \\u form)",
            // Escapes next to multi-byte characters.
            "中\"",
            "\\é",
            "🦀\n🦀",
            "é\\\"中",
            "",
        ] {
            let rendered = Json::str(s).to_string();
            assert_eq!(Json::parse(&rendered).unwrap(), Json::str(s), "{rendered}");
        }
        // Explicit \u forms, including a surrogate pair.
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\\ud83e\\udd80\"").unwrap(),
            Json::str("Aé🦀")
        );
        assert_eq!(
            Json::parse("\"中\\u00e9🦀\\n\"").unwrap(),
            Json::str("中é🦀\n")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "\"unterminated", "{\"a\" 1}", "nul", "01x",
            "\"\\q\"", "\"\\ud800\"", "[1] trailing",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_escaping_edge_cases() {
        // Every C0 control character must come out escaped; the named
        // short forms win where JSON defines them.
        for c in (0u32..0x20).map(|c| char::from_u32(c).unwrap()) {
            let rendered = json_string(&c.to_string());
            let expected = match c {
                '\n' => "\"\\n\"".to_owned(),
                '\r' => "\"\\r\"".to_owned(),
                '\t' => "\"\\t\"".to_owned(),
                _ => format!("\"\\u{:04x}\"", c as u32),
            };
            assert_eq!(rendered, expected, "control char {:#x}", c as u32);
        }
        // Backslash runs and quote/backslash adjacency do not collapse.
        assert_eq!(json_string("\\\\"), "\"\\\\\\\\\"");
        assert_eq!(json_string("\\\""), "\"\\\\\\\"\"");
        // Non-ASCII passes through raw (JSON strings are UTF-8).
        assert_eq!(json_string("αβ 中 🦀"), "\"αβ 中 🦀\"");
        // DEL (0x7f) is not a C0 control and needs no escape.
        assert_eq!(json_string("\u{7f}"), "\"\u{7f}\"");
    }

    #[test]
    fn nesting_is_bounded_by_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&objects).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // Exactly MAX_DEPTH levels still parse.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any string, built from escapable ASCII, controls and
        /// multi-byte characters in any order, survives `Display` then
        /// `parse` unchanged, as a value and as an object key.
        #[test]
        fn arbitrary_strings_roundtrip(chars in proptest::collection::vec(
            prop_oneof![
                Just(u32::from('"')),
                Just(u32::from('\\')),
                Just(u32::from('/')),
                0u32..0x20,
                0x20u32..0x7f,
                0x80u32..0x800,
                0x800u32..0xd800,
                0xe000u32..0x110000,
            ]
            .prop_map(|c| char::from_u32(c).unwrap()),
            0..40,
        )) {
            let s: String = chars.into_iter().collect();
            let doc = Json::Obj(vec![(s.clone(), Json::Arr(vec![Json::str(&s)]))]);
            prop_assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
        }
    }

    #[test]
    fn display_is_parseable_and_stable() {
        let doc = Json::obj([
            ("name", Json::str("x \"y\"")),
            ("n", Json::Num(3.0)),
            ("t", Json::Num(1.25)),
            ("items", Json::Arr(vec![Json::Null, Json::Bool(false)])),
        ]);
        let text = doc.to_string();
        assert_eq!(text, "{\"name\":\"x \\\"y\\\"\",\"n\":3,\"t\":1.25,\"items\":[null,false]}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }
}
