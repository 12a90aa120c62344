//! A minimal JSON document model with deterministic rendering.
//!
//! The workspace has no JSON serialization dependency, so structured
//! output (NDJSON alerts, `failctl --format json` report sections) is
//! built by hand. This module centralizes the rules so every producer
//! agrees byte for byte:
//!
//! * object keys keep **insertion order** — no hashing, no sorting
//!   surprises, identical output on every run and at every thread
//!   count;
//! * finite numbers render via `f64`'s `Display` (which round-trips);
//!   non-finite values degrade to `null` since JSON has no NaN/Inf;
//! * strings are escaped exactly like [`crate::Alert::to_ndjson`]
//!   lines.

use std::fmt;

/// A JSON document: the value produced by report sections and consumed
/// by `--format json`.
///
/// # Examples
///
/// ```
/// use failtypes::JsonValue;
///
/// let doc = JsonValue::object()
///     .field("name", "tbf")
///     .field("mtbf_hours", 15.3)
///     .field("failures", 897usize)
///     .field("note", JsonValue::Null)
///     .build();
/// assert_eq!(
///     doc.render(),
///     r#"{"name":"tbf","mtbf_hours":15.3,"failures":897,"note":null}"#
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (counts, indices); renders without a decimal point.
    Int(i64),
    /// A floating-point number; non-finite values render as `null`.
    Num(f64),
    /// A string; escaped on render.
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with keys in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Starts building an [`JsonValue::Object`] with ordered keys.
    pub fn object() -> JsonObjectBuilder {
        JsonObjectBuilder { pairs: Vec::new() }
    }

    /// Parses one JSON document (the inverse of [`JsonValue::render`]).
    ///
    /// Numbers without a fraction or exponent that fit an `i64` parse
    /// as [`JsonValue::Int`]; everything else numeric parses as
    /// [`JsonValue::Num`]. Object keys keep input order. Trailing
    /// whitespace is allowed, trailing content is not — a whole NDJSON
    /// line is exactly one document.
    ///
    /// ```
    /// use failtypes::JsonValue;
    ///
    /// let doc = JsonValue::parse(r#"{"v":1,"cmd":"report"}"#).unwrap();
    /// assert_eq!(doc.get("v").and_then(JsonValue::as_i64), Some(1));
    /// assert_eq!(doc.get("cmd").and_then(JsonValue::as_str), Some("report"));
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error, or of the first array or object nested more than
    /// [`JsonValue::MAX_DEPTH`] deep.
    pub fn parse(s: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after the document"));
        }
        Ok(value)
    }

    /// The deepest array/object nesting [`JsonValue::parse`] accepts.
    /// The parser recurses once per level, so the bound keeps a hostile
    /// line (say a megabyte of `[`) from overflowing the stack.
    pub const MAX_DEPTH: usize = 128;

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => {
                pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload: an [`JsonValue::Int`], or a
    /// [`JsonValue::Num`] that is exactly integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            JsonValue::Num(x) if x.fract() == 0.0 && x.abs() < 9e15 => Some(*x as i64),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (ints widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs in input order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Builds a [`JsonValue::Array`] from anything convertible to
    /// values.
    pub fn array<T: Into<JsonValue>>(items: impl IntoIterator<Item = T>) -> JsonValue {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }

    /// Renders the value as compact JSON (no whitespace, single line
    /// for any input free of embedded newlines — and strings escape
    /// theirs).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                use fmt::Write as _;
                let _ = write!(out, "{i}");
            }
            JsonValue::Num(x) => push_json_number(out, *x),
            JsonValue::Str(s) => {
                out.push('"');
                push_json_escaped(out, s);
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    push_json_escaped(out, key);
                    out.push_str("\":");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<i64> for JsonValue {
    fn from(i: i64) -> Self {
        JsonValue::Int(i)
    }
}

impl From<i32> for JsonValue {
    fn from(i: i32) -> Self {
        JsonValue::Int(i64::from(i))
    }
}

impl From<u8> for JsonValue {
    fn from(i: u8) -> Self {
        JsonValue::Int(i64::from(i))
    }
}

impl From<u32> for JsonValue {
    fn from(i: u32) -> Self {
        JsonValue::Int(i64::from(i))
    }
}

impl From<u64> for JsonValue {
    fn from(i: u64) -> Self {
        JsonValue::Int(i as i64)
    }
}

impl From<usize> for JsonValue {
    fn from(i: usize) -> Self {
        JsonValue::Int(i as i64)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Num(x)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(opt: Option<T>) -> Self {
        opt.map_or(JsonValue::Null, Into::into)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(items: Vec<JsonValue>) -> Self {
        JsonValue::Array(items)
    }
}

/// Chainable builder for [`JsonValue::Object`]; keys render in the
/// order `field` was called.
#[derive(Debug, Clone)]
pub struct JsonObjectBuilder {
    pairs: Vec<(String, JsonValue)>,
}

impl JsonObjectBuilder {
    /// Appends one key/value pair.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> Self {
        self.pairs.push((key.into(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> JsonValue {
        JsonValue::Object(self.pairs)
    }
}

/// Error raised by [`JsonValue::parse`]: a description plus the byte
/// offset where parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    message: String,
    offset: usize,
}

impl JsonParseError {
    /// The byte offset in the input where the error was detected.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character `{}`", other as char))),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`JsonValue::MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonParseError>,
    ) -> Result<JsonValue, JsonParseError> {
        if self.depth == JsonValue::MAX_DEPTH {
            return Err(self.err(format!(
                "nesting deeper than {} levels",
                JsonValue::MAX_DEPTH
            )));
        }
        self.depth += 1;
        let value = parse(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
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
                            let unit = self.hex4()?;
                            // Surrogate pairs arrive as two \uXXXX units.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if !(self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u'))
                                {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(
                                self.err(format!("unknown escape `\\{}`", other as char))
                            )
                        }
                    }
                }
                _ => {
                    // Consume one whole UTF-8 scalar (input is &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let unit =
            u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(byte) = self.peek() {
            match byte {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII");
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

/// Writes a finite f64 as a JSON number (`{}` on f64 round-trips);
/// non-finite values degrade to `null` since JSON has no NaN/Inf.
pub(crate) fn push_json_number(out: &mut String, x: f64) {
    if x.is_finite() {
        use fmt::Write as _;
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` with JSON string escaping.
pub(crate) fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::from(true).render(), "true");
        assert_eq!(JsonValue::from(false).render(), "false");
        assert_eq!(JsonValue::from(42usize).render(), "42");
        assert_eq!(JsonValue::from(-7i64).render(), "-7");
        assert_eq!(JsonValue::from(1.5).render(), "1.5");
        assert_eq!(JsonValue::from("hi").render(), "\"hi\"");
    }

    #[test]
    fn floats_round_trip_and_non_finite_is_null() {
        for x in [0.1, 1e-9, 12345.6789, 1e300, -0.0] {
            let rendered = JsonValue::from(x).render();
            assert_eq!(rendered.parse::<f64>().unwrap().to_bits(), x.to_bits());
        }
        assert_eq!(JsonValue::from(f64::NAN).render(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).render(), "null");
        // Integral floats drop the fraction under Display — still a
        // valid JSON number.
        assert_eq!(JsonValue::from(3.0).render(), "3");
    }

    #[test]
    fn options_map_to_null() {
        assert_eq!(JsonValue::from(None::<f64>).render(), "null");
        assert_eq!(JsonValue::from(Some(2.5)).render(), "2.5");
    }

    #[test]
    fn objects_keep_insertion_order() {
        let doc = JsonValue::object()
            .field("z", 1usize)
            .field("a", 2usize)
            .field("m", JsonValue::array([1usize, 2, 3]))
            .build();
        assert_eq!(doc.render(), r#"{"z":1,"a":2,"m":[1,2,3]}"#);
        assert_eq!(doc.to_string(), doc.render());
    }

    #[test]
    fn strings_escape_like_ndjson() {
        let doc = JsonValue::from("a\"b\\c\nd\u{1}e");
        assert_eq!(doc.render(), "\"a\\\"b\\\\c\\nd\\u0001e\"");
    }

    #[test]
    fn nested_arrays_and_objects() {
        let doc = JsonValue::array([
            JsonValue::object().field("k", "v").build(),
            JsonValue::Null,
        ]);
        assert_eq!(doc.render(), r#"[{"k":"v"},null]"#);
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let docs = [
            r#"{"v":1,"id":7,"cmd":"report","sections":["header","metrics"]}"#,
            r#"[1,-2,3.5,true,false,null,"x"]"#,
            r#"{"nested":{"a":[{"b":null}]},"t":"a\"b\\c\nd"}"#,
            "42",
            "\"lone\"",
        ];
        for doc in docs {
            let parsed = JsonValue::parse(doc).unwrap();
            assert_eq!(parsed.render(), doc, "round trip of {doc}");
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_preserves_key_order() {
        let parsed = JsonValue::parse(" { \"z\" : 1 ,\n\t\"a\" : [ 2 , 3 ] } ").unwrap();
        assert_eq!(parsed.render(), r#"{"z":1,"a":[2,3]}"#);
    }

    #[test]
    fn parse_number_types() {
        assert_eq!(JsonValue::parse("12").unwrap(), JsonValue::Int(12));
        assert_eq!(JsonValue::parse("-3").unwrap(), JsonValue::Int(-3));
        assert_eq!(JsonValue::parse("1.5").unwrap(), JsonValue::Num(1.5));
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::Num(1000.0));
        // Too big for i64 falls back to f64 rather than erroring.
        assert!(matches!(
            JsonValue::parse("99999999999999999999").unwrap(),
            JsonValue::Num(_)
        ));
    }

    #[test]
    fn parse_string_escapes() {
        let parsed = JsonValue::parse(r#""a\"b\\c\/d\n\t\r\b\fAé""#).unwrap();
        assert_eq!(
            parsed,
            JsonValue::Str("a\"b\\c/d\n\t\r\u{8}\u{c}A\u{e9}".to_string())
        );
        // Surrogate pair → one astral scalar.
        let pair = JsonValue::parse(r#""😀""#).unwrap();
        assert_eq!(pair, JsonValue::Str("\u{1f600}".to_string()));
    }

    #[test]
    fn parse_accessors() {
        let doc = JsonValue::parse(
            r#"{"v":1,"ok":true,"n":2.5,"rows":[{"id":"header"}],"name":"t2"}"#,
        )
        .unwrap();
        assert_eq!(doc.get("v").and_then(JsonValue::as_i64), Some(1));
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("n").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(doc.get("name").and_then(JsonValue::as_str), Some("t2"));
        let rows = doc.get("rows").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows[0].get("id").and_then(JsonValue::as_str), Some("header"));
        assert!(doc.get("missing").is_none());
        assert!(doc.as_object().is_some());
        assert!(rows[0].as_array().is_none());
    }

    #[test]
    fn parse_errors_carry_offsets() {
        for (doc, what) in [
            ("", "unexpected end"),
            ("{", "expected `\"`"),
            (r#"{"a":1,}"#, "expected `\"`"),
            (r#"{"a" 1}"#, "expected `:`"),
            ("[1 2]", "expected `,` or `]`"),
            ("tru", "expected `true`"),
            ("\"unterminated", "unterminated string"),
            (r#""\q""#, "unknown escape"),
            (r#""\ud800x""#, "unpaired surrogate"),
            ("1 2", "trailing content"),
            ("nullx", "trailing content"),
        ] {
            let err = JsonValue::parse(doc).unwrap_err();
            assert!(
                err.to_string().contains(what),
                "{doc:?} gave {err} (wanted {what})"
            );
            assert!(err.offset() <= doc.len());
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = "[".repeat(1_000_000);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        assert_eq!(err.offset(), JsonValue::MAX_DEPTH);

        let objects = r#"{"a":"#.repeat(1_000_000);
        let err = JsonValue::parse(&objects).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");

        // Exactly at the bound still parses, and round-trips.
        let max = JsonValue::MAX_DEPTH;
        let at = format!("{}{}", "[".repeat(max), "]".repeat(max));
        assert_eq!(JsonValue::parse(&at).expect("at the bound").render(), at);
        let over = format!("[{at}]");
        assert!(JsonValue::parse(&over).is_err());
    }
}
