//! A minimal, strict, zero-dependency JSON tree: the value type both
//! sides of the wire protocol build and inspect, a recursive-descent
//! parser hardened for adversarial input (depth-limited, strict
//! UTF-8/escape/number grammar), and a deterministic writer that
//! reuses [`kpa_trace::json_escape`]'s serialization rules — object
//! keys are sorted (`BTreeMap` order), so encoding the same value
//! always yields the same bytes.
//!
//! This module exists because the workspace is hermetic: no `serde`,
//! no `serde_json`. The grammar implemented is RFC 8259 JSON with two
//! deliberate narrowings, both fine for a machine protocol:
//!
//! * numbers are either 64-bit signed integers or finite `f64`s —
//!   integers that overflow `i64` and literals like `1e999` are
//!   rejected rather than silently rounded;
//! * nesting beyond [`MAX_DEPTH`] is rejected, so a fuzzer's
//!   `[[[[[…` cannot overflow the parse stack.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum container nesting the parser accepts. Protocol frames are
/// at most ~4 levels deep; 64 leaves headroom while keeping stack use
/// bounded under fuzzing.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional or exponent part, within `i64`.
    Int(i64),
    /// Any other finite number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` so writing is deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// A convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The `&str` inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The `i64` inside, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The `bool` inside, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The slice inside, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The map inside, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Member `key` of this object (`None` for non-objects too).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|o| o.get(key))
    }

    /// Serialize to compact single-line JSON (no interior newlines —
    /// the framing invariant of the line-delimited protocol).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(x) => {
                // Finite by construction; `{x:?}` keeps a trailing
                // `.0` on integral floats so the value round-trips as
                // a float.
                out.push_str(&format!("{x:?}"));
            }
            Value::Str(s) => out.push_str(&kpa_trace::json_escape(s)),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&kpa_trace::json_escape(k));
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Builds an object value from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Where and why a parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser { src: input, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            // Duplicate keys: last wins (same as most parsers); the
            // protocol never sends duplicates.
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                                // High surrogate: require the paired
                                // low surrogate escape.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u', "expected low surrogate")?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the whole run of plain bytes up to the next
                    // quote, backslash or control byte in one slice.
                    // Those stoppers are ASCII, so both ends of the run
                    // are char boundaries of the `&str` input.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("unterminated \\u escape"))?;
            let nibble = match d {
                b'0'..=b'9' => u32::from(d - b'0'),
                b'a'..=b'f' => u32::from(d - b'a') + 10,
                b'A'..=b'F' => u32::from(d - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v * 16 + nibble;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or a nonzero-led digit run (RFC 8259
        // forbids leading zeros).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        if integral {
            return match text.parse::<i64>() {
                Ok(n) => Ok(Value::Int(n)),
                Err(_) => Err(self.err("integer out of range")),
            };
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            _ => Err(self.err("number out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_protocol_shaped_values() {
        let src = r#"{"v":1,"op":"query","batch":[{"id":7,"kind":"sat","formula":"K{p1} c=h"}],"flag":true,"x":null,"r":0.5}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("v").and_then(Value::as_int), Some(1));
        assert_eq!(v.get("op").and_then(Value::as_str), Some("query"));
        let batch = v.get("batch").and_then(Value::as_arr).unwrap();
        assert_eq!(batch[0].get("id").and_then(Value::as_int), Some(7));
        assert_eq!(v.get("r"), Some(&Value::Float(0.5)));
        // Writing and re-parsing is the identity on the tree.
        let re = parse(&v.to_json()).unwrap();
        assert_eq!(re, v);
        // And the writer is deterministic.
        assert_eq!(v.to_json(), re.to_json());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = parse(r#""a\"b\\c\n\tAé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\n\tAé😀"));
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        assert!(parse(r#""\ud800""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\udc00""#).is_err(), "lone low surrogate");
        assert!(parse("\"\u{1}\"").is_err(), "raw control character");
        assert!(parse(r#""\q""#).is_err(), "unknown escape");
    }

    #[test]
    fn numbers_are_strict() {
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("0.25").unwrap(), Value::Float(0.25));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert!(parse("01").is_err(), "leading zero");
        assert!(parse("1.").is_err(), "dangling decimal point");
        assert!(parse("1e").is_err(), "dangling exponent");
        assert!(parse("99999999999999999999").is_err(), "i64 overflow");
        assert!(parse("1e999").is_err(), "f64 overflow");
        assert!(parse("NaN").is_err());
    }

    #[test]
    fn malformed_input_is_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "}",
            "[",
            "]",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "{,}",
            "tru",
            "nul",
            "\"abc",
            "{\"a\":1,}",
            "1 2",
            "{\"a\":1}x",
            "--1",
            "+1",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
        // Depth bombing hits the limit, not the stack.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn object_builder_sorts_keys() {
        let v = obj([("z", Value::Int(1)), ("a", Value::Bool(false))]);
        assert_eq!(v.to_json(), r#"{"a":false,"z":1}"#);
    }
}
