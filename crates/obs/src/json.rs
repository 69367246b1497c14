//! The workspace's one JSON layer: how every document it persists or
//! exchanges is laid out, read and trusted. The workspace is
//! dependency-free by design, so this stands in for an external JSON
//! crate.
//!
//! - **Writing.** Build a [`Value`] with [`Value::object`],
//!   [`Value::array`], [`Value::hex`] and the `From` impls, then render it
//!   in one of two layouts: `Display` writes one line
//!   (`{"a": 1, "b": [2, 3]}`); [`Value::to_document`] puts each member of
//!   a non-empty container at depth 0 or 1 on its own line, indented two
//!   spaces per level, keeps deeper and empty containers inline, and ends
//!   with a newline.
//! - **Reading.** [`parse`] is a recursive-descent reader for objects,
//!   arrays, strings, integers, booleans and null. No floats: every
//!   numeric field we persist is an integer. [`Fields`] reads one object
//!   strictly: no repeated key, a typed error naming a missing key, and
//!   (through [`Fields::done`]) one naming an unknown key.
//! - **Trusting.** A sealed document carries a format tag and a checksum
//!   over its content. [`check_seal`] compares both and [`DocError`]
//!   separates a *corrupt* document (not one of ours at all) from a
//!   *stale* one (well-formed, but of another version or tampered with).

use std::collections::HashSet;
use std::fmt;

/// A parsed JSON value. Object member order is preserved.
pub enum Value {
    /// `{...}` — members in source order.
    Object(Vec<(String, Value)>),
    /// `[...]`.
    Array(Vec<Value>),
    /// A string literal.
    Str(String),
    /// An integer (`i128` covers every `u64` and `i64` we persist).
    Int(i128),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    /// An object with `members` in the given order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of `items`.
    pub fn array(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Array(items.into_iter().collect())
    }

    /// A 64-bit hash or checksum as a 16-digit lowercase hex string (read
    /// back with [`Value::as_hex`]).
    pub fn hex(n: u64) -> Value {
        Value::Str(format!("{n:016x}"))
    }

    /// The members of an object, or an error naming `what` was expected.
    pub fn as_object(&self, what: &str) -> Result<&Vec<(String, Value)>, String> {
        match self {
            Value::Object(m) => Ok(m),
            _ => Err(format!("{what}: expected an object")),
        }
    }

    /// The items of an array.
    pub fn as_array(&self, what: &str) -> Result<&Vec<Value>, String> {
        match self {
            Value::Array(a) => Ok(a),
            _ => Err(format!("{what}: expected an array")),
        }
    }

    /// A string value.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected a string")),
        }
    }

    /// A boolean value.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("{what}: expected a boolean")),
        }
    }

    /// An unsigned 64-bit integer.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Value::Int(n) => u64::try_from(*n).map_err(|_| format!("{what}: {n} out of u64 range")),
            _ => Err(format!("{what}: expected an integer")),
        }
    }

    /// A signed 64-bit integer.
    pub fn as_i64(&self, what: &str) -> Result<i64, String> {
        match self {
            Value::Int(n) => i64::try_from(*n).map_err(|_| format!("{what}: {n} out of i64 range")),
            _ => Err(format!("{what}: expected an integer")),
        }
    }

    /// A hex string written by [`Value::hex`].
    pub fn as_hex(&self, what: &str) -> Result<u64, String> {
        let s = self.as_str(what)?;
        u64::from_str_radix(s, 16).map_err(|_| format!("{what}: bad hex value '{s}'"))
    }

    /// Renders the document layout: each member of a non-empty object or
    /// array at depth 0 or 1 on its own line, indented two spaces per
    /// level; deeper and empty containers on one line, as `Display` writes
    /// them. Ends with a newline.
    pub fn to_document(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, 2);
        out.push('\n');
        out
    }

    /// The one writer behind both layouts: a non-empty container nested
    /// less than `breaks` deep puts each member on its own line.
    fn write(&self, out: &mut String, depth: usize, breaks: usize) {
        let (open, close, members): (char, char, Vec<(Option<&String>, &Value)>) = match self {
            Value::Object(m) => ('{', '}', m.iter().map(|(k, v)| (Some(k), v)).collect()),
            Value::Array(a) => ('[', ']', a.iter().map(|v| (None, v)).collect()),
            Value::Str(s) => return out.push_str(&escape(s)),
            Value::Int(n) => return out.push_str(&n.to_string()),
            Value::Bool(b) => return out.push_str(&b.to_string()),
            Value::Null => return out.push_str("null"),
        };
        let broken = depth < breaks && !members.is_empty();
        out.push(open);
        for (i, (key, v)) in members.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if broken {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(key) = key {
                out.push_str(&escape(key));
                out.push_str(": ");
            }
            v.write(out, depth + 1, breaks);
        }
        if broken {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

/// The one-line layout: `{"a": 1, "b": [2, 3]}`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0, 0);
        f.write_str(&out)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Int(n as i128)
            }
        }
    )*};
}

from_int!(u16, u32, u64, i64, usize);

/// `None` becomes `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// A strict reader over one JSON object: every lookup names the key, and
/// [`Fields::done`] rejects members nobody asked for.
pub struct Fields<'a> {
    what: &'a str,
    members: &'a [(String, Value)],
    read: Vec<bool>,
}

impl<'a> Fields<'a> {
    /// Reads `value` as an object with no repeated key; `what` names it in
    /// errors.
    pub fn new(value: &'a Value, what: &'a str) -> Result<Fields<'a>, String> {
        let members = value.as_object(what)?;
        let mut keys = HashSet::new();
        if let Some((k, _)) = members.iter().find(|(k, _)| !keys.insert(k)) {
            return Err(format!("{what}: repeated key '{k}'"));
        }
        Ok(Fields {
            what,
            members,
            read: vec![false; members.len()],
        })
    }

    /// Every member, for an object whose keys are data (metric names,
    /// file paths) rather than a schema.
    pub fn members(self) -> &'a [(String, Value)] {
        self.members
    }

    /// The value under `key`, or `None` when it is absent or `null`.
    pub fn opt(&mut self, key: &str) -> Option<&'a Value> {
        let i = self.members.iter().position(|(k, _)| k == key)?;
        self.read[i] = true;
        match &self.members[i].1 {
            Value::Null => None,
            v => Some(v),
        }
    }

    /// The value under `key`; absent or `null` is an error.
    pub fn req(&mut self, key: &str) -> Result<&'a Value, String> {
        self.opt(key)
            .ok_or_else(|| format!("{} missing '{key}'", self.what))
    }

    /// The string under `key`.
    pub fn str(&mut self, key: &str) -> Result<&'a str, String> {
        self.req(key)?.as_str(key)
    }

    /// The string under `key`, or `None` when it is absent or `null`.
    pub fn opt_str(&mut self, key: &str) -> Result<Option<&'a str>, String> {
        self.opt(key).map(|v| v.as_str(key)).transpose()
    }

    /// Fails on the first member no lookup asked for.
    pub fn done(self) -> Result<(), String> {
        match self.read.iter().position(|read| !read) {
            Some(i) => Err(format!("unknown {} key '{}'", self.what, self.members[i].0)),
            None => Ok(()),
        }
    }
}

/// Why a sealed document could not be used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DocError {
    /// The text is not a well-formed document of its kind at all: bad
    /// JSON, or a missing, mistyped, repeated or unknown field. The CLIs
    /// treat this as a usage error (exit 2): the user pointed a flag at the
    /// wrong file.
    Corrupt(String),
    /// The document is well-formed but cannot be trusted: an unknown
    /// format tag or a checksum mismatch. The CLIs warn and fall back to
    /// recomputing what the document would have provided.
    Stale(String),
}

/// A reader error ([`parse`], [`Fields`], the `as_*` accessors) means the
/// document is corrupt.
impl From<String> for DocError {
    fn from(message: String) -> DocError {
        DocError::Corrupt(message)
    }
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::Corrupt(m) => write!(f, "corrupt document: {m}"),
            DocError::Stale(m) => write!(f, "stale document: {m}"),
        }
    }
}

impl std::error::Error for DocError {}

/// Checks a sealed document's seal: the `found_format` tag it carries must
/// be `format`, and its `stored` checksum must equal the `actual` one
/// recomputed from its content. Either mismatch is [`DocError::Stale`].
pub fn check_seal(
    found_format: &str,
    format: &str,
    stored: u64,
    actual: u64,
) -> Result<(), DocError> {
    if found_format != format {
        return Err(DocError::Stale(format!(
            "format '{found_format}' is not '{format}'"
        )));
    }
    if stored != actual {
        return Err(DocError::Stale(format!(
            "checksum mismatch (stored {stored:016x}, computed {actual:016x})"
        )));
    }
    Ok(())
}

/// Parses a complete JSON document (trailing data is an error).
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

/// Escapes a string into a JSON string literal (with quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => Ok(Value::Str(string(b, pos)?)),
        Some(b't') => keyword(b, pos, "true", Value::Bool(true)),
        Some(b'f') => keyword(b, pos, "false", Value::Bool(false)),
        Some(b'n') => keyword(b, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn keyword(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(members));
    }
    loop {
        skip_ws(b, pos);
        let key = string(b, pos)?;
        expect(b, pos, b':')?;
        members.push((key, value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(
                            char::from_u32(code).ok_or_else(|| format!("bad \\u{hex} escape"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe: take the
                // longest prefix str::from_utf8 accepts).
                let rest = &b[*pos..];
                let len = (1..=4.min(rest.len()))
                    .find(|&n| std::str::from_utf8(&rest[..n]).is_ok())
                    .ok_or("invalid utf-8 in string".to_string())?;
                out.push_str(std::str::from_utf8(&rest[..len]).expect("checked"));
                *pos += len;
            }
        }
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("digits are utf-8");
    text.parse::<i128>()
        .map(Value::Int)
        .map_err(|_| format!("bad number '{text}'"))
}
