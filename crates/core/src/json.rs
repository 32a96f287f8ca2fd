//! A small dependency-free JSON layer: a parse-side document tree and a
//! streaming writer for everything this crate emits.
//!
//! The build environment has no crates.io access, so `serde`/`serde_json`
//! cannot be pulled in. Numbers keep their integer/float distinction so that
//! `u64` fields (seeds, cycle counters) round-trip exactly, and floats are
//! rendered with Rust's shortest-round-trip formatting so `f64` fields
//! round-trip exactly too.
//!
//! * [`Json`] is what [`Json::parse`] returns. This crate reads only one
//!   kind of document back, a persisted [`crate::CampaignCache`] (whose
//!   cells are [`crate::RunReport`]s); tools outside the crate also build
//!   their own documents with it and [`Json::render`] them.
//! * The streaming writer, `write_object`/`render_object`, emits
//!   `{"k":v,...}` straight into a `String`, with nested objects and arrays
//!   written through closures, and never builds a tree. Cache keys
//!   (`crate::fingerprint`) and every report's `to_json` are written this
//!   way, each struct by one `write_fields` that destructures it. The writer
//!   checks in debug builds that keys arrive in strictly ascending byte
//!   order, which is the order a [`Json::Obj`] renders in, and both share
//!   one set of scalar formatters. Streaming a document therefore yields
//!   exactly the bytes that rendering the equivalent tree would.
//!
//! [`Json::parse`] accepts arrays and objects nested at most 128 deep and
//! returns an error beyond that, so hostile input cannot overflow the stack.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
pub(crate) const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (no decimal point or exponent in the source).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (`BTreeMap`) so rendering is canonical.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Creates an empty object.
    pub fn object() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Inserts `value` under `key`; panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        match self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value);
            }
            _ => panic!("Json::set called on a non-object"),
        }
        self
    }

    /// Looks up `key`; returns `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(u) => Some(u as f64),
            Json::Int(i) => Some(i as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|u| u32::try_from(u).ok())
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of array elements.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the document as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => write_u64(*u, out),
            Json::Int(i) => write_i64(*i, out),
            Json::Num(n) => write_f64(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    /// Returns a [`JsonError`] describing the first syntax error, or
    /// reporting arrays and objects nested more than 128 deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

/// Writes `u` in decimal without a temporary `String`.
fn write_u64(mut u: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| d as char));
}

fn write_i64(i: i64, out: &mut String) {
    if i < 0 {
        out.push('-');
    }
    write_u64(i.unsigned_abs(), out);
}

/// Writes `n` in shortest round-trip form, with `.0` appended to whole
/// values so they re-parse as floats; non-finite values become `null`.
fn write_f64(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{n}");
    // Keep floats recognisable as floats on re-parse.
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Writes `s` as a quoted JSON string, escaping only what must be escaped.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    out.push_str("\\u00");
                    out.push(HEX[c as usize >> 4] as char);
                    out.push(HEX[c as usize & 0xF] as char);
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// A value the streaming writer can emit. Scalars share their formatting
/// with [`Json::render`]; [`object()`] and [`array()`] wrap closures that write
/// nested documents.
pub(crate) trait WriteJson {
    /// Appends the value's JSON text to `out`.
    fn write_json(self, out: &mut String);
}

impl WriteJson for u64 {
    fn write_json(self, out: &mut String) {
        write_u64(self, out);
    }
}

impl WriteJson for u32 {
    fn write_json(self, out: &mut String) {
        write_u64(self.into(), out);
    }
}

impl WriteJson for usize {
    fn write_json(self, out: &mut String) {
        write_u64(self as u64, out);
    }
}

impl WriteJson for f64 {
    fn write_json(self, out: &mut String) {
        write_f64(self, out);
    }
}

impl WriteJson for &str {
    fn write_json(self, out: &mut String) {
        write_str(self, out);
    }
}

/// `None` is written as `null`.
impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// A nested object whose fields a closure writes; see [`object()`].
pub(crate) struct Object<F>(F);

/// A nested array whose items a closure writes; see [`array()`].
pub(crate) struct Array<F>(F);

/// A nested object value: `fields` writes its fields.
pub(crate) fn object<F: FnOnce(&mut ObjectWriter<'_>)>(fields: F) -> Object<F> {
    Object(fields)
}

/// A nested array value: `items` writes its items.
pub(crate) fn array<F: FnOnce(&mut ArrayWriter<'_>)>(items: F) -> Array<F> {
    Array(items)
}

impl<F: FnOnce(&mut ObjectWriter<'_>)> WriteJson for Object<F> {
    fn write_json(self, out: &mut String) {
        write_object(out, self.0);
    }
}

impl<F: FnOnce(&mut ArrayWriter<'_>)> WriteJson for Array<F> {
    fn write_json(self, out: &mut String) {
        out.push('[');
        (self.0)(&mut ArrayWriter { out, first: true });
        out.push(']');
    }
}

/// Appends the object whose fields `fields` writes to `out`. Fields must be
/// set in strictly ascending key order (checked in debug builds), so the
/// output is byte-identical to rendering the equivalent [`Json::Obj`].
pub(crate) fn write_object(out: &mut String, fields: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    fields(&mut ObjectWriter {
        out,
        first: true,
        #[cfg(debug_assertions)]
        last_key: String::new(),
    });
    out.push('}');
}

/// The object whose fields `fields` writes, streamed into a new `String`.
pub(crate) fn render_object(fields: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, fields);
    out
}

/// Writes the fields of one object in canonical (ascending key) order.
pub(crate) struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
    #[cfg(debug_assertions)]
    last_key: String,
}

impl ObjectWriter<'_> {
    /// Writes the field `key: value`.
    ///
    /// # Panics
    /// In debug builds, panics unless `key` sorts strictly after the
    /// previous key of this object.
    pub(crate) fn set(&mut self, key: &str, value: impl WriteJson) {
        #[cfg(debug_assertions)]
        {
            assert!(
                self.first || self.last_key.as_str() < key,
                "object keys must arrive in strictly ascending order: {key:?} after {:?}",
                self.last_key
            );
            self.last_key.clear();
            self.last_key.push_str(key);
        }
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        write_str(key, self.out);
        self.out.push(':');
        value.write_json(self.out);
    }
}

/// Writes the items of one array in order.
pub(crate) struct ArrayWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl ArrayWriter<'_> {
    /// Appends `value` as the next item.
    pub(crate) fn push(&mut self, value: impl WriteJson) {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        value.write_json(self.out);
    }

    /// Appends one object per item, each written by `write`.
    pub(crate) fn push_objects<T>(
        &mut self,
        items: &[T],
        write: impl Fn(&T, &mut ObjectWriter<'_>),
    ) {
        for item in items {
            self.push(object(|o| write(item, o)));
        }
    }
}

/// A JSON syntax or schema error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset where the error was detected (0 for schema errors).
    pub offset: usize,
}

impl JsonError {
    /// Creates a schema-level error (no source position).
    pub fn schema(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// The value of required field `key` of object `doc`.
fn req<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
    doc.get(key)
        .ok_or_else(|| JsonError::schema(format!("missing field '{key}'")))
}

/// Required string field `key` of `doc`.
pub(crate) fn req_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, JsonError> {
    req(doc, key)?
        .as_str()
        .ok_or_else(|| JsonError::schema(format!("field '{key}' is not a string")))
}

/// Required numeric field `key` of `doc`.
pub(crate) fn req_f64(doc: &Json, key: &str) -> Result<f64, JsonError> {
    req(doc, key)?
        .as_f64()
        .ok_or_else(|| JsonError::schema(format!("field '{key}' is not a number")))
}

/// Required unsigned-integer field `key` of `doc`.
pub(crate) fn req_u64(doc: &Json, key: &str) -> Result<u64, JsonError> {
    req(doc, key)?
        .as_u64()
        .ok_or_else(|| JsonError::schema(format!("field '{key}' is not an unsigned integer")))
}

/// Required 32-bit unsigned-integer field `key` of `doc`.
pub(crate) fn req_u32(doc: &Json, key: &str) -> Result<u32, JsonError> {
    req(doc, key)?
        .as_u32()
        .ok_or_else(|| JsonError::schema(format!("field '{key}' is not a 32-bit unsigned integer")))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses an array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`] so deeply nested input cannot exhaust the stack.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("arrays and objects nest too deeply"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (the `\u` itself already
    /// consumed): exactly four ASCII hex digits, with no sign, which
    /// `u32::from_str_radix` would accept.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let mut code = 0;
        for &b in digits {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            code = code << 4 | digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Decodes one `\u` escape, combining UTF-16 surrogate pairs
    /// (`😀` and friends) into their code point.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        let code = match code {
            0xD800..=0xDBFF => {
                if self.peek() != Some(b'\\') || self.bytes.get(self.pos + 1) != Some(&b'u') {
                    return Err(self.error("unpaired high surrogate in \\u escape"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.error("invalid low surrogate in \\u escape"));
                }
                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => {
                return Err(self.error("unpaired low surrogate in \\u escape"));
            }
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u code point"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        // An overflowing literal parses to infinity, which renders as
        // `null`: reject it rather than load what cannot be written back.
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            Ok(_) => Err(self.error("number out of range")),
            Err(_) => Err(self.error("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_scalars() {
        for (value, text) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::UInt(42), "42"),
            (Json::Int(-7), "-7"),
            (Json::Str("a\"b\n".to_string()), "\"a\\\"b\\n\""),
        ] {
            assert_eq!(value.render(), text);
            assert_eq!(Json::parse(text).unwrap(), value);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 1.0 / 3.0, 123456.789, 1e-30, 2.5e20, f64::MIN_POSITIVE] {
            let rendered = Json::Num(f).render();
            match Json::parse(&rendered).unwrap() {
                Json::Num(back) => assert_eq!(back.to_bits(), f.to_bits(), "{rendered}"),
                other => panic!("{rendered} parsed as {other:?}"),
            }
        }
        // Whole-valued floats keep their float-ness through a round trip.
        assert_eq!(Json::Num(3.0).render(), "3.0");
        assert_eq!(Json::parse("3.0").unwrap(), Json::Num(3.0));
    }

    #[test]
    fn integers_round_trip_exactly() {
        let rendered = Json::UInt(u64::MAX).render();
        assert_eq!(Json::parse(&rendered).unwrap(), Json::UInt(u64::MAX));
    }

    #[test]
    fn objects_and_arrays_nest() {
        let mut obj = Json::object();
        obj.set("xs", Json::Arr(vec![Json::UInt(1), Json::Num(2.5)]));
        obj.set("name", Json::Str("grid".into()));
        let text = obj.render();
        assert_eq!(Json::parse(&text).unwrap(), obj);
    }

    #[test]
    fn parse_errors_carry_positions() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("42 trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        assert_eq!(
            Json::parse("\"\\u00e9\"").unwrap(),
            Json::Str("é".to_string())
        );
        assert!(Json::parse("\"\\ud83d\"").is_err());
        assert!(Json::parse("\"\\ud83d\\u0041\"").is_err());
        assert!(Json::parse("\"\\ude00\"").is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            Json::parse("\"\\u0041\"").unwrap(),
            Json::Str("A".to_string())
        );
        assert!(Json::parse("\"\\u+041\"").is_err());
        assert!(Json::parse("\"\\u-041\"").is_err());
        assert!(Json::parse("\"\\u004\"").is_err());
    }

    #[test]
    fn numbers_that_cannot_render_back_are_rejected() {
        assert!(Json::parse("1e400").is_err());
        assert!(Json::parse("-1e400").is_err());
        assert!(Json::parse(&format!("1{}", "0".repeat(400))).is_err());
        assert_eq!(Json::parse("1e300").unwrap(), Json::Num(1e300));
        assert_eq!(Json::parse("1e-400").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn whitespace_is_tolerated() {
        let doc = " { \"a\" : [ 1 , null , { } ] } ";
        assert!(Json::parse(doc).is_ok());
    }

    /// The object `{"v": value}` streamed through the writer.
    fn streamed(value: impl WriteJson) -> String {
        let mut out = String::new();
        write_object(&mut out, |w| w.set("v", value));
        out
    }

    /// The object `{"v": value}` rendered from a tree.
    fn rendered(value: Json) -> String {
        let mut doc = Json::object();
        doc.set("v", value);
        doc.render()
    }

    #[test]
    fn the_writer_formats_scalars_like_render() {
        for f in [
            0.0,
            -0.0,
            5e-324,
            -2.225_073_858_507_201e-308,
            f64::MIN_POSITIVE,
            1e21,
            1e-7,
            3.0,
            -42.0,
            2.5e20,
            0.1,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(streamed(f), rendered(Json::Num(f)), "{f:?}");
        }
        assert_eq!(streamed(f64::NAN), "{\"v\":null}");
        for u in [0, 9, 10, 1_234_567_890, u64::MAX] {
            assert_eq!(streamed(u), rendered(Json::UInt(u)), "{u}");
        }
        assert_eq!(streamed(u64::MAX), format!("{{\"v\":{}}}", u64::MAX));
        assert_eq!(streamed(u32::MAX), rendered(Json::UInt(u32::MAX.into())));
        for i in [-1, -10, i64::MIN] {
            assert_eq!(rendered(Json::Int(i)), format!("{{\"v\":{i}}}"));
        }
        for text in [
            "",
            "plain",
            "quote \" and backslash \\",
            "tab\tnewline\ncr\r",
            "\u{0}\u{1f}\u{7f}",
            "é 😀",
        ] {
            assert_eq!(
                streamed(text),
                rendered(Json::Str(text.to_string())),
                "{text:?}"
            );
            let back = Json::parse(&streamed(text)).unwrap();
            assert_eq!(back.get("v").and_then(Json::as_str), Some(text));
        }
        assert_eq!(streamed(None::<u64>), rendered(Json::Null));
    }

    #[test]
    fn streamed_documents_match_rendered_trees() {
        let mut out = String::new();
        write_object(&mut out, |w| {
            w.set(
                "a",
                array(|a| {
                    a.push(1u64);
                    a.push(array(|_| {}));
                    a.push(object(|o| o.set("x", 0.5)));
                }),
            );
            w.set("b", object(|_| {}));
            w.set("b_c", "s");
            w.set("bc", Some(2u32));
        });
        let mut inner = Json::object();
        inner.set("x", Json::Num(0.5));
        let mut tree = Json::object();
        tree.set("bc", Json::UInt(2));
        tree.set("b_c", Json::Str("s".into()));
        tree.set("b", Json::object());
        tree.set(
            "a",
            Json::Arr(vec![Json::UInt(1), Json::Arr(vec![]), inner]),
        );
        assert_eq!(out, tree.render());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn out_of_order_keys_trip_the_debug_assertion() {
        let mut out = String::new();
        write_object(&mut out, |w| {
            w.set("b", 1u64);
            w.set("a", 2u64);
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn repeated_keys_trip_the_debug_assertion() {
        let mut out = String::new();
        write_object(&mut out, |w| {
            w.set("a", 1u64);
            w.set("a", 2u64);
        });
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.message.contains("nest"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = "{\"a\":".repeat(1_000_000);
        assert!(Json::parse(&objects).is_err());
        // The limit itself is accepted.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let too_deep = format!("[{deepest}]");
        assert!(Json::parse(&too_deep).is_err());
    }
}
