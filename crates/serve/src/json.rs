//! A minimal JSON layer: recursive-descent parser for request bodies and
//! string escaping for responses.
//!
//! The vendored `serde` is an API-surface stub (see `vendor/README.md`),
//! so the control plane hand-rolls the ~150 lines of JSON it needs. The
//! parser accepts the full value grammar (objects, arrays, strings with
//! escapes, numbers, booleans, null) with a recursion-depth limit, and
//! rejects trailing garbage — a malformed body must produce a clean `400`,
//! never a panic (pinned by `tests/serve_api.rs`). Response bodies are
//! assembled with `format!` plus [`escape`]; the shapes are simple enough
//! that an emitter DOM would be ceremony.

/// A parsed JSON value. Numbers are kept as `f64`: every integer the API
/// accepts (seeds, ticks, sizes) is well under 2^53, so the round-trip is
/// exact where it matters and [`Json::as_u64`] enforces integrality.
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
    /// Parse a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (first match; duplicate keys are a caller bug).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer, or `None` if it is
    /// fractional, negative, or beyond exact `f64` integer range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9_007_199_254_740_992.0 => Some(*n as u64),
            _ => None,
        }
    }
}

const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    /// Always on a char boundary of `text`: every step consumes a whole
    /// ASCII byte or a whole UTF-8 scalar.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
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

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign.
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5).ok_or("truncated \\u escape")?;
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err("bad \\u escape".into());
                            }
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are rejected rather than
                            // recombined; nothing in the API needs them.
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: decode the char at `pos`
                    // (a boundary), not the rest of the input.
                    let c = self.text[self.pos..].chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control character at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let n: f64 = text.parse().map_err(|_| format!("bad number `{text}`"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number `{text}`"));
        }
        Ok(Json::Num(n))
    }
}

/// Escape a string for embedding in a JSON document (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_request_shapes() {
        let body = r#"{"scenario":"epidemic","ticks":20,"seed":42,"conformance":true}"#;
        let v = Json::parse(body).unwrap();
        assert_eq!(v.get("scenario").and_then(Json::as_str), Some("epidemic"));
        assert_eq!(v.get("ticks").and_then(Json::as_u64), Some(20));
        assert_eq!(v.get("conformance").and_then(Json::as_bool), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_nesting_strings_and_numbers() {
        let v = Json::parse(r#"{"a":[1,2.5,-3,1e3],"b":{"c":"he said \"hi\"\n"},"d":null}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-3.0), Json::Num(1000.0)]))
        );
        assert_eq!(v.get("b").unwrap().get("c").and_then(Json::as_str), Some("he said \"hi\"\n"));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn rejects_malformed_documents_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1,}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{\"a\":1}extra",
            "\"\\q\"",
            "[1 2]",
            "{\"a\" 1}",
            "nul",
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should not parse");
        }
        // Depth bomb: errors out instead of blowing the stack.
        let deep = "[".repeat(2000) + &"]".repeat(2000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        let parse_escape = |hex: &str| Json::parse(&format!("\"\\u{hex}\""));
        assert_eq!(parse_escape("00e9"), Ok(Json::Str("\u{e9}".into())));
        assert_eq!(parse_escape("ABcd"), Ok(Json::Str("\u{abcd}".into())));
        for bad in ["+041", "-041", " 041", "041", "004g", "00", ""] {
            assert!(parse_escape(bad).is_err(), "a `\\u` escape of `{bad}` should not parse");
        }
    }

    #[test]
    fn as_u64_enforces_exact_non_negative_integers() {
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line\nbreak \"quote\" back\\slash \t tab \u{1} control";
        // 64 KiB of one-, two-, three- and four-byte scalars: parsing is
        // linear in the string, so this is as quick as the short one.
        let long: String = "aé€😀".repeat(64 * 1024 / 10);
        for input in [nasty, long.as_str()] {
            let doc = format!("\"{}\"", escape(input));
            assert_eq!(Json::parse(&doc).unwrap(), Json::Str(input.into()));
        }
    }
}
