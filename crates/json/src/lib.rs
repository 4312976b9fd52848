//! Minimal, dependency-free JSON for FaST-GShare.
//!
//! The workspace builds in an offline environment, so instead of
//! `serde_json` it uses this small [`Value`] tree with a strict RFC 8259
//! parser and a printer. The API mirrors the `serde_json::Value` surface
//! the codebase relies on: `v["key"]` indexing that yields `Null` for
//! missing members, `as_str`/`as_f64`/`as_u64`/`is_null` accessors, and
//! compact/pretty printing.
//!
//! Numbers are stored as `f64` (like JavaScript); integers round-trip
//! exactly up to 2^53, far beyond anything the platform serializes.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null` (also what indexing a missing member returns).
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object; members are kept sorted for deterministic printing.
    Object(BTreeMap<String, Value>),
}

/// A parse error: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    msg: String,
    offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for JsonError {}

static NULL: Value = Value::Null;

impl Value {
    /// Parses a JSON document (must be a single value with only trailing
    /// whitespace after it).
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // Exact integer-ness test: fract() is exactly 0.0 for integers.
            // fastg-lint: allow(no-float-eq)
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                // In-range integer by the guard above; `as` is exact.
                // fastg-lint: allow(no-lossy-cast)
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Whether this is `null` (including the "missing member" null).
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object member by key, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(o) => o.get(key),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented multi-line rendering.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(a) => write_seq(out, indent, depth, a.is_empty(), ('[', ']'), |out| {
                for (i, v) in a.iter().enumerate() {
                    sep(out, indent, depth + 1, i == 0);
                    v.write(out, indent, depth + 1);
                }
            }),
            Value::Object(o) => write_seq(out, indent, depth, o.is_empty(), ('{', '}'), |out| {
                for (i, (k, v)) in o.iter().enumerate() {
                    sep(out, indent, depth + 1, i == 0);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
            }),
        }
    }
}

fn sep(out: &mut String, indent: Option<usize>, depth: usize, first: bool) {
    if !first {
        out.push(',');
    }
    if let Some(n) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(n * depth));
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    empty: bool,
    brackets: (char, char),
    body: impl FnOnce(&mut String),
) {
    out.push(brackets.0);
    if !empty {
        body(out);
        if let Some(n) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(n * depth));
        }
    }
    out.push(brackets.1);
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; mirror serde_json's lossy `null`.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 { // fastg-lint: allow(no-float-eq) — exact integer-ness test
        // In-range integer by the guard above; `as` is exact.
        // fastg-lint: allow(no-lossy-cast)
        out.push_str(&format!("{}", n as i64));
    } else {
        // `{}` on f64 prints the shortest string that round-trips.
        out.push_str(&format!("{n}"));
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
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<String> for Value {
    type Output = Value;
    fn index(&self, key: String) -> &Value {
        self.get(&key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Num(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(a: Vec<Value>) -> Self {
        Value::Array(a)
    }
}

/// Convenience builder for object values.
#[derive(Debug, Default)]
pub struct ObjectBuilder {
    map: BTreeMap<String, Value>,
}

impl ObjectBuilder {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a member.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.map.insert(key.to_string(), value.into());
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Value {
        Value::Object(self.map)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn require(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("invalid literal (expected `{lit}`)")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.require(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.require(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.require(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.require(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: consume a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs (e.g. emoji) are combined.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let Ok(text) = std::str::from_utf8(&self.bytes[start..self.pos]) else {
            return Err(self.err("invalid number"));
        };
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_manifest_shapes() {
        let v = Value::parse(
            r#"{"kind":"FaSTFunc","metadata":{"name":"f","annotations":{"faasshare/sm_partition":"24"}},"spec":{"model":"rnnt","replicas":2,"slo_ms":500}}"#,
        )
        .unwrap();
        assert_eq!(v["kind"].as_str(), Some("FaSTFunc"));
        assert_eq!(v["metadata"]["name"].as_str(), Some("f"));
        assert_eq!(
            v["metadata"]["annotations"]["faasshare/sm_partition"].as_str(),
            Some("24")
        );
        assert_eq!(v["spec"]["replicas"].as_u64(), Some(2));
        assert!(v["spec"]["missing"].is_null());
        assert!(v["nope"]["deep"].is_null());
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = Value::parse(r#"{"a":[1,2.5,-3],"b":"x\ny","c":null,"d":true}"#).unwrap();
        for rendering in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(Value::parse(&rendering).unwrap(), v);
        }
    }

    #[test]
    fn numbers_round_trip() {
        for n in [0.0, 1.5, -2.25, 1e-9, 123456789.0, 0.3333333333333333] {
            let s = Value::Num(n).to_string_compact();
            assert_eq!(Value::parse(&s).unwrap().as_f64(), Some(n), "{s}");
        }
        assert_eq!(Value::parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("nul").is_err());
        assert!(Value::parse("{} extra").is_err());
        assert!(Value::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v = Value::parse(r#""aéb😀c""#).unwrap();
        assert_eq!(v.as_str(), Some("aéb😀c"));
    }

    #[test]
    fn object_builder() {
        let v = ObjectBuilder::new()
            .field("name", "f")
            .field("rps", 12.5)
            .field("n", 3u64)
            .build();
        assert_eq!(v["name"].as_str(), Some("f"));
        assert_eq!(v["rps"].as_f64(), Some(12.5));
        assert_eq!(v["n"].as_u64(), Some(3));
    }
}
