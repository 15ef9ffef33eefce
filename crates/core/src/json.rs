//! A hand-rolled JSON value codec (recursive descent, zero dependencies) —
//! the workspace's only one. Config files go through it
//! ([`MaxFlowConfig::to_value`](crate::MaxFlowConfig::to_value) /
//! [`from_value`](crate::MaxFlowConfig::from_value)), and so does `flowd`'s
//! wire protocol, which re-exports this module as `service::json`.
//!
//! Scope: full JSON values (objects, arrays, strings with escapes, numbers,
//! booleans, null), bounded nesting depth, strict trailing-garbage rejection.
//! Floats are emitted with Rust's shortest-round-trip `{:?}` formatting, so
//! every finite `f64` survives a serialize → parse round trip bit-exactly —
//! the property the determinism-sensitive protocol tests pin.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`parse`]: deep enough for any frame the
/// protocol emits (≤ 4 levels), shallow enough that hostile input cannot
/// overflow the parser's stack.
const MAX_DEPTH: usize = 64;

/// 2⁵³: every non-negative integer below it is exact in an `f64`, and no
/// integer at or above it can be told apart from its neighbours after parsing.
const EXACT_INTEGER_LIMIT: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; every node index, counter
    /// and seed that travels as one fits `f64` exactly, being below 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Key order is preserved from the document; duplicate keys
    /// are rejected at parse time.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value; `None` for absent keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer below 2⁵³ (the exact-in-`f64`
    /// range), if it is one — the shape of every index and count on the wire.
    ///
    /// 2⁵³ itself is refused: it is also what the document integers 2⁵³ + 1
    /// (and a few more) round to, so it cannot be read back exactly.
    pub fn as_index(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < EXACT_INTEGER_LIMIT => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// Serializes the value to a JSON document.
    ///
    /// Non-finite numbers have no JSON representation; they are emitted as
    /// `null` **never** — constructing a `Value::Num` from a non-finite float
    /// is a caller bug, caught here by returning an error.
    pub fn to_json(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out)?;
        Ok(out)
    }

    fn write(&self, out: &mut String) -> Result<(), JsonError> {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(x) => {
                if !x.is_finite() {
                    return Err(JsonError::at(0, "non-finite number has no JSON form"));
                }
                // Exact small integers print in integer form (integer
                // decoders in many JSON libraries reject "3.0");
                // everything else uses `{:?}`, Rust's shortest
                // representation that parses back to the same bits. `-0.0`
                // stays on the float path to keep its sign bit.
                if x.fract() == 0.0
                    && x.abs() <= EXACT_INTEGER_LIMIT
                    && !(*x == 0.0 && x.is_sign_negative())
                {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x:?}");
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out)?;
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

/// Convenience constructors for building documents.
impl Value {
    /// An object from key–value pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A number from an exact-in-`f64` unsigned integer (below 2⁵³, the
    /// range [`Value::as_index`] reads back).
    pub fn index(x: u64) -> Value {
        debug_assert!(x < 1 << 53, "index exceeds exact f64 range");
        Value::Num(x as f64)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse or emission error with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the document.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (one value, optionally surrounded by
/// whitespace; anything after it is an error).
pub fn parse(doc: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: doc.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::at(p.pos, "trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::at(self.pos, format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at(self.pos, "nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(JsonError::at(self.pos, "unexpected character")),
            None => Err(JsonError::at(self.pos, "unexpected end of document")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Value)> = Vec::new();
        let mut seen: BTreeMap<String, ()> = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key_pos = self.pos;
            let key = self.string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(JsonError::at(key_pos, format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(xs));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::at(self.pos, "unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{08}'),
                        b'f' => s.push('\u{0c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if self.peek() != Some(b'\\') {
                                    return Err(JsonError::at(self.pos, "lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(JsonError::at(self.pos, "invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(combined)
                            } else if (0xdc00..0xe000).contains(&code) {
                                None // lone low surrogate
                            } else {
                                char::from_u32(code)
                            };
                            match c {
                                Some(c) => s.push(c),
                                None => {
                                    return Err(JsonError::at(self.pos, "invalid unicode escape"))
                                }
                            }
                        }
                        _ => return Err(JsonError::at(self.pos - 1, "unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::at(self.pos, "unescaped control character"))
                }
                Some(_) => {
                    // Advance one UTF-8 character (the document is &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..end]).expect("valid utf8"));
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| JsonError::at(self.pos, "expected 4 hex digits"))?;
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one or more digits, no leading zeros before another
        // digit (strict JSON grammar).
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(JsonError::at(self.pos, "leading zero"));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(JsonError::at(self.pos, "expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::at(self.pos, "expected fraction digits"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::at(self.pos, "expected exponent digits"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        let x: f64 = text
            .parse()
            .map_err(|_| JsonError::at(start, "unparseable number"))?;
        if !x.is_finite() {
            return Err(JsonError::at(start, "number overflows f64"));
        }
        Ok(Value::Num(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let doc = r#"{"op":"max_flow","s":3,"t":14,"nested":{"a":[1,2.5,-3e-2],"b":null,"c":true,"d":"x\"y\\z\n"}}"#;
        let v = parse(doc).unwrap();
        let emitted = v.to_json().unwrap();
        assert_eq!(parse(&emitted).unwrap(), v);
        assert_eq!(v.get("op").unwrap().as_str(), Some("max_flow"));
        assert_eq!(v.get("s").unwrap().as_index(), Some(3));
        assert_eq!(
            v.get("nested").unwrap().get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-3e-2)
        );
    }

    #[test]
    fn every_finite_f64_round_trips_bitwise() {
        for x in [
            0.0,
            -0.0,
            1.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            2.2250738585072014e-308,
            0.1 + 0.2,
            std::f64::consts::PI,
            1e300,
            -7.297e-22,
        ] {
            let doc = Value::Num(x).to_json().unwrap();
            let back = parse(&doc).unwrap().as_f64().unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} via {doc}");
        }
    }

    #[test]
    fn integers_read_back_exactly_or_not_at_all() {
        // 2⁵³ + 1 parses to the f64 2⁵³; reading that as 2⁵³ would silently
        // change the number, so only integers below 2⁵³ are indices.
        assert_eq!(parse("9007199254740993").unwrap().as_index(), None);
        assert_eq!(parse("9007199254740992").unwrap().as_index(), None);
        assert_eq!(
            parse("9007199254740991").unwrap().as_index(),
            Some(9_007_199_254_740_991)
        );
    }

    #[test]
    fn non_finite_emission_is_an_error() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(Value::Num(x).to_json().is_err());
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\":1 \"b\":2}",
            "01",
            "1.",
            "1e",
            "\"\\q\"",
            "\"\\ud800\"",
            "nul",
            "truex",
            "{\"a\":1}{",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "\u{1}",
            "[\"unterminated]",
            "1e400",
        ] {
            assert!(parse(bad).is_err(), "document {bad:?} must be rejected");
        }
    }

    #[test]
    fn deep_nesting_is_bounded_not_a_stack_overflow() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn unicode_and_surrogate_pairs() {
        let v = parse(r#""\u00e9\ud83d\ude00 ünïcode""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀 ünïcode"));
        let emitted = v.to_json().unwrap();
        assert_eq!(parse(&emitted).unwrap(), v);
    }
}
