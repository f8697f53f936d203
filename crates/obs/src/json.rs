//! The workspace's one JSON reader and writer.
//!
//! The workspace deliberately has no external dependencies, so this
//! module provides the small JSON subset its artifacts need:
//!
//! * a writer with deterministic output: [`ToJson`] for values, and
//!   [`object()`]/[`array()`] for containers whose members the caller
//!   writes in a fixed order. The container writers own every
//!   separator; a call site picks one of three byte [`Layout`]s
//!   (compact specs and traces, spaced harness rows, the indented
//!   corpus baselines);
//! * a recursive-descent parser ([`parse`]) for specs, submissions,
//!   baselines, traces and telemetry snapshots.
//!
//! Numbers are kept as their raw source text ([`Value::Num`]) so that
//! full-range `u64` values (seeds, hashes) round-trip exactly instead of
//! being squeezed through an `f64`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as raw text for lossless `u64` round-trips.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value as a `u64`, if it is a number that fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
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

    /// Looks up a field of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    pub fn fields(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (with escaping).
pub fn write_str(out: &mut String, s: &str) {
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

/// How a container separates its members. Every layout writes the
/// same values; only the whitespace differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `,` between members and `:` after keys, no whitespace: specs,
    /// traces, snapshots and wire replies.
    Compact,
    /// `, ` between members and `: ` after keys: the harness rows
    /// under `results/`.
    Spaced,
    /// One member per line, indented two spaces per level, with `: `
    /// after keys: the corpus baselines. Containers opened through
    /// [`Object::array`] and the like nest one level deeper; a value
    /// written through [`ToJson`] stays on its member's line, spaced.
    /// The closing bracket takes its own line even when the container
    /// is empty.
    Indented,
}

/// Types that can render themselves as a JSON value.
pub trait ToJson {
    /// Appends this value's JSON representation to `out`, separating
    /// the members of any container as `layout` says.
    fn write_json(&self, out: &mut String, layout: Layout);
}

/// `value` as a standalone JSON document.
pub fn to_string<T: ToJson + ?Sized>(value: &T, layout: Layout) -> String {
    let mut out = String::new();
    value.write_json(&mut out, layout);
    out
}

impl Layout {
    fn separator(self) -> &'static str {
        if self == Layout::Spaced {
            ", "
        } else {
            ","
        }
    }

    fn colon(self) -> &'static str {
        if self == Layout::Compact {
            ":"
        } else {
            ": "
        }
    }
}

/// Appends one object to `out`; `body` writes its members in order.
pub fn object(out: &mut String, layout: Layout, body: impl FnOnce(&mut Object<'_>)) {
    Object::write(out, layout, 0, body);
}

/// Appends one array to `out`; `body` writes its items in order.
pub fn array(out: &mut String, layout: Layout, body: impl FnOnce(&mut Array<'_>)) {
    Array::write(out, layout, 0, body);
}

/// The separator and indentation state of one open container.
struct Members<'a> {
    out: &'a mut String,
    layout: Layout,
    /// Containers open around this one.
    depth: usize,
    first: bool,
}

impl<'a> Members<'a> {
    fn open(out: &'a mut String, layout: Layout, depth: usize, bracket: char) -> Self {
        out.push(bracket);
        Members {
            out,
            layout,
            depth,
            first: true,
        }
    }

    fn close(mut self, bracket: char) {
        self.newline(self.depth);
        self.out.push(bracket);
    }

    /// Writes what goes before the next member.
    fn next(&mut self) {
        if !self.first {
            self.out.push_str(self.layout.separator());
        }
        self.first = false;
        self.newline(self.depth + 1);
    }

    fn newline(&mut self, depth: usize) {
        if self.layout == Layout::Indented {
            self.out.push('\n');
            for _ in 0..depth {
                self.out.push_str("  ");
            }
        }
    }

    /// The layout of a member written through [`ToJson`].
    fn value_layout(&self) -> Layout {
        match self.layout {
            Layout::Indented => Layout::Spaced,
            layout => layout,
        }
    }
}

/// An open JSON object (see [`object()`]).
pub struct Object<'a>(Members<'a>);

impl<'a> Object<'a> {
    fn write(out: &'a mut String, layout: Layout, depth: usize, body: impl FnOnce(&mut Self)) {
        let mut object = Object(Members::open(out, layout, depth, '{'));
        body(&mut object);
        object.0.close('}');
    }

    /// Writes one `key: value` member.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        self.key(key);
        value.write_json(self.0.out, self.0.value_layout());
        self
    }

    /// Writes one member whose value is an object; `body` writes the
    /// nested object's members.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.key(key);
        Object::write(self.0.out, self.0.layout, self.0.depth + 1, body);
        self
    }

    /// Writes one member whose value is an array; `body` writes the
    /// nested array's items.
    pub fn array(&mut self, key: &str, body: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        self.key(key);
        Array::write(self.0.out, self.0.layout, self.0.depth + 1, body);
        self
    }

    fn key(&mut self, key: &str) {
        self.0.next();
        write_str(self.0.out, key);
        self.0.out.push_str(self.0.layout.colon());
    }
}

/// An open JSON array (see [`array()`]).
pub struct Array<'a>(Members<'a>);

impl<'a> Array<'a> {
    fn write(out: &'a mut String, layout: Layout, depth: usize, body: impl FnOnce(&mut Self)) {
        let mut array = Array(Members::open(out, layout, depth, '['));
        body(&mut array);
        array.0.close(']');
    }

    /// Writes one item.
    pub fn item<T: ToJson + ?Sized>(&mut self, value: &T) -> &mut Self {
        self.0.next();
        value.write_json(self.0.out, self.0.value_layout());
        self
    }

    /// Writes one item that is an object; `body` writes its members.
    pub fn object(&mut self, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        self.0.next();
        Object::write(self.0.out, self.0.layout, self.0.depth + 1, body);
        self
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String, _: Layout) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! int_to_json {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn write_json(&self, out: &mut String, _: Layout) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
int_to_json!(u32, u64, usize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String, _: Layout) {
        if self.is_finite() {
            // `{:?}` round-trips f64 exactly and always includes a
            // decimal point or exponent, so the output stays a JSON
            // number distinguishable from an integer.
            let _ = write!(out, "{self:?}");
        } else {
            out.push_str("null"); // JSON has no NaN/Infinity
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String, _: Layout) {
        write_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String, _: Layout) {
        write_str(out, self);
    }
}

/// `()` is JSON `null`.
impl ToJson for () {
    fn write_json(&self, out: &mut String, _: Layout) {
        out.push_str("null");
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String, layout: Layout) {
        match self {
            Some(v) => v.write_json(out, layout),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String, layout: Layout) {
        (**self).write_json(out, layout);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String, layout: Layout) {
        array(out, layout, |a| {
            for v in self {
                a.item(v);
            }
        });
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, layout: Layout) {
        self.as_slice().write_json(out, layout);
    }
}

/// A string-keyed map is an object with its keys in sorted order.
impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn write_json(&self, out: &mut String, layout: Layout) {
        object(out, layout, |o| {
            for (k, v) in self {
                o.field(k, v);
            }
        });
    }
}

macro_rules! tuple_to_json {
    ($($name:ident : $idx:tt),+) => {
        /// A tuple is an array of its fields.
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn write_json(&self, out: &mut String, layout: Layout) {
                array(out, layout, |a| {
                    $(a.item(&self.$idx);)+
                });
            }
        }
    };
}
tuple_to_json!(A: 0, B: 1);
tuple_to_json!(A: 0, B: 1, C: 2);
tuple_to_json!(A: 0, B: 1, C: 2, D: 3);

/// How deeply arrays and objects may nest. The parser recurses once
/// per level, so a bound keeps a hostile line (say, 20,000 `[`) from
/// overflowing the stack of whichever thread parses it; every document
/// the workspace writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document from `input`. Trailing whitespace is
/// allowed; any other trailing content is an error, as is nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
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

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// One number, held to JSON's grammar: `-? (0 | [1-9][0-9]*)
    /// (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(format!("invalid number at byte {start}: leading zero"));
            }
        } else {
            self.digits(start, "integer part")?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits(start, "fraction")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits(start, "exponent")?;
        }
        Ok(Value::Num(self.src[start..self.pos].to_string()))
    }

    /// Consumes a run of at least one decimal digit, the `part` of the
    /// number starting at byte `start`.
    fn digits(&mut self, start: usize, part: &str) -> Result<(), String> {
        let from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == from {
            return Err(format!(
                "invalid number at byte {start}: no digits in its {part}"
            ));
        }
        Ok(())
    }

    /// The value of the four hex digits at byte `at`, right after the
    /// `\u` of an escape.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        match self.bytes.get(at..at + 4) {
            Some(hex) if hex.iter().all(u8::is_ascii_hexdigit) => {
                Ok(hex.iter().fold(0, |code, &b| {
                    code * 16 + (b as char).to_digit(16).expect("hex digit")
                }))
            }
            _ => Err(format!("bad \\u escape at byte {}", at - 2)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of unescaped characters up to the next quote
            // or backslash in one piece. Both are ASCII, so the run ends
            // on a character boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b) if b < 0x20 => {
                    return Err(format!(
                        "raw control byte 0x{b:02x} in string at byte {}",
                        self.pos
                    ));
                }
                Some(_) => {
                    // A backslash: one escape sequence.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let mut code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // An escaped high surrogate followed by an
                            // escaped low one is one character beyond the
                            // BMP; an unpaired surrogate reads as U+FFFD.
                            if (0xd800..0xdc00).contains(&code)
                                && self.bytes[self.pos + 1..].starts_with(b"\\u")
                            {
                                let low = self.hex4(self.pos + 3)?;
                                if (0xdc00..0xe000).contains(&low) {
                                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                    self.pos += 6;
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("bad escape {:?}", other.map(|c| c as char)));
                        }
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(parse("\"hi\\nthere\"").unwrap().as_str(), Some("hi\nthere"));
    }

    #[test]
    fn u64_round_trips_exactly() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":{}}"#).unwrap();
        let arr = v.get("a").unwrap();
        match arr {
            Value::Arr(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].get("b").unwrap().as_str(), Some("c"));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(v.get("d").unwrap().fields().unwrap().len(), 0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let err = parse(&"{\"a\":".repeat(20_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(parse(&"[".repeat(20_000)).is_err());
    }

    #[test]
    fn unicode_escapes_and_chars() {
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
        assert_eq!(parse("\"héllo\"").unwrap().as_str(), Some("héllo"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let text = "é".repeat(1 << 19);
        let doc = format!("[\"{text}\",\"a\\\"b\"]");
        let v = parse(&doc).unwrap();
        assert_eq!(
            v,
            Value::Arr(vec![Value::Str(text), Value::Str("a\"b".into())])
        );
    }

    #[test]
    fn scalars_and_strings() {
        assert_eq!(to_string(&true, Layout::Spaced), "true");
        assert_eq!(to_string(&42u64, Layout::Spaced), "42");
        assert_eq!(to_string(&1.5f64, Layout::Spaced), "1.5");
        assert_eq!(to_string(&2.0f64, Layout::Spaced), "2.0");
        assert_eq!(to_string(&f64::NAN, Layout::Spaced), "null");
        assert_eq!(to_string("a\"b\\c\nd", Layout::Spaced), r#""a\"b\\c\nd""#);
        assert_eq!(to_string("Det→Det", Layout::Spaced), "\"Det→Det\"");
        assert_eq!(to_string(&(), Layout::Compact), "null");
    }

    #[test]
    fn containers() {
        assert_eq!(to_string(&Option::<u64>::None, Layout::Spaced), "null");
        assert_eq!(to_string(&Some(3usize), Layout::Spaced), "3");
        assert_eq!(to_string(&vec![1u32, 2, 3], Layout::Spaced), "[1, 2, 3]");
        assert_eq!(to_string(&vec![1u32, 2, 3], Layout::Compact), "[1,2,3]");
        assert_eq!(
            to_string(&("x".to_owned(), 1u64, true), Layout::Spaced),
            r#"["x", 1, true]"#
        );
        let map = BTreeMap::from([("b".to_owned(), 2u64), ("a".to_owned(), 1)]);
        assert_eq!(to_string(&map, Layout::Compact), r#"{"a":1,"b":2}"#);
        assert_eq!(to_string(&Vec::<u64>::new(), Layout::Spaced), "[]");
    }

    #[test]
    fn object_fields() {
        let mut s = String::new();
        object(&mut s, Layout::Spaced, |o| {
            o.field("a", &1u64).field("b", "two");
        });
        assert_eq!(s, r#"{"a": 1, "b": "two"}"#);
    }

    #[test]
    fn layouts_place_every_separator() {
        let write = |layout| {
            let mut s = String::new();
            object(&mut s, layout, |o| {
                o.field("n", &1u32)
                    .array("xs", |a| {
                        a.item(&(1u32, "p")).object(|o| {
                            o.field("k", &());
                        });
                    })
                    .object("empty", |_| {});
            });
            s
        };
        assert_eq!(
            write(Layout::Compact),
            r#"{"n":1,"xs":[[1,"p"],{"k":null}],"empty":{}}"#
        );
        assert_eq!(
            write(Layout::Spaced),
            r#"{"n": 1, "xs": [[1, "p"], {"k": null}], "empty": {}}"#
        );
        assert_eq!(
            write(Layout::Indented),
            "{\n  \"n\": 1,\n  \"xs\": [\n    [1, \"p\"],\n    {\n      \"k\": null\n    }\n  ],\n  \"empty\": {\n  }\n}"
        );
        for layout in [Layout::Compact, Layout::Spaced, Layout::Indented] {
            assert_eq!(parse(&write(layout)), parse(&write(Layout::Compact)));
        }
    }

    #[test]
    fn write_str_escapes() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let round = parse(&out).unwrap();
        assert_eq!(round.as_str(), Some("a\"b\\c\nd\u{1}"));
    }
}
