//! Minimal in-tree JSON support (hermetic-build substitute for
//! `serde`/`serde_json`).
//!
//! The build environment has no cargo-registry access, so every result
//! struct the bench harness emits and the one persisted format in the
//! repo (workload traces) use this module instead of serde. It supports
//! exactly what the repo needs:
//!
//! * a [`Json`] value type (null, bool, integer, float, string, array,
//!   ordered object),
//! * compact and pretty emitters ([`Json::dump`] / [`Json::pretty`]),
//! * a [`ToJson`] conversion trait with impls for primitives, `Option`,
//!   slices and `Vec`, plus the [`impl_to_json!`](crate::impl_to_json) /
//!   [`json_obj!`](crate::json_obj) macros for struct ports,
//! * a small strict parser ([`Json::parse`]),
//! * the read half: [`FromJson`], one strict reader per type (`u32`,
//!   `u64`, `usize`, `f64`, `String`, `Vec<T>`), and [`Json::field`],
//!   which reads one required key of an object through it and names the
//!   key in the error. [`impl_json!`](crate::impl_json) states a struct's
//!   field list once and generates both halves from it. Every reader
//!   that must refuse bad input — telemetry trace records, the `qad`
//!   federation config, workload traces — goes through `field`, so what
//!   "missing", "ill-typed" and "exceeds `u32`" mean is decided here,
//!   once. (The fleet-snapshot merge skips what it cannot read instead,
//!   and uses [`Json::get`] and the `as_*` accessors.)
//!
//! It lives in `qa-simnet` because the substrate crate is the one
//! dependency shared by every layer that serializes (workload traces,
//! simulator results, cluster results, bench output); `qa-core` re-exports
//! it as `qa_core::json` for the upper layers.
//!
//! Integers are exact over `i64::MIN ..= u64::MAX`: [`Json::Int`] holds
//! what fits an `i64`, [`Json::UInt`] only the `u64` values above it, so
//! a value has one representation and `==` on trees stays structural.
//!
//! Non-goals: enums and optional fields in the derived read half (the two
//! string-coded enums implement [`FromJson`] by hand; defaults are the
//! caller's — see `FedConfig::parse`), and streaming.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the encoding of non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON numbers without fraction/exponent).
    Int(i64),
    /// An integer above `i64::MAX`. Never holds a value `Int` can.
    UInt(u64),
    /// A float. Non-finite values emit as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key–value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array by converting each element.
    pub fn array<T: ToJson>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(|v| v.to_json()).collect())
    }

    /// Looks up a key in an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Reads the required key `key` of an object as a `T`, strictly: a
    /// missing key and a value `T` does not accept are both errors, and
    /// both name the key.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, String> {
        let value = self
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        T::from_json(value).map_err(|e| format!("field {key:?}: {e}"))
    }

    /// The elements of an array (`None` for non-arrays).
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as `u64` (integers only; rejects negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (accepts both `Int` and `Float`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str` (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The keys of an object, in order (`None` for non-objects).
    pub fn keys(&self) -> Option<Vec<&str>> {
        match self {
            Json::Obj(pairs) => Some(pairs.iter().map(|(k, _)| k.as_str()).collect()),
            _ => None,
        }
    }

    /// Compact serialization.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization (two-space indent, trailing newline).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * level), " ".repeat(w * (level + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    // `{}` on f64 is the shortest representation that
                    // round-trips; integral floats gain a ".0" so they
                    // parse back as floats.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        let _ = write!(out, "{v:.1}");
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict: rejects trailing input, caps
    /// nesting at 128 levels).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
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

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
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
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err("unpaired surrogate".to_string());
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or("invalid code point")?
                            } else {
                                char::from_u32(hi).ok_or("invalid code point")?
                            };
                            out.push(c);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|e| e.to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|e| format!("bad number '{text}': {e}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .or_else(|_| text.parse::<u64>().map(Json::UInt))
                .or_else(|_| {
                    text.parse::<f64>()
                        .map(Json::Float)
                        .map_err(|e| format!("bad number '{text}': {e}"))
                })
        }
    }
}

/// Conversion into a [`Json`] value — the hermetic stand-in for
/// `serde::Serialize` across the workspace.
pub trait ToJson {
    /// This value as JSON.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(f64::from(*self))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

macro_rules! int_to_json {
    ($($ty:ty),+) => {
        $(impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Int(i64::from(*self))
            }
        })+
    };
}
int_to_json!(i8, i16, i32, i64, u8, u16, u32);

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        match i64::try_from(*self) {
            Ok(v) => Json::Int(v),
            Err(_) => Json::UInt(*self),
        }
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        (*self as u64).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

/// Strict conversion back from a [`Json`] value — the read half of
/// [`ToJson`]. An impl accepts exactly what its type's `to_json` writes
/// (an `f64` also accepts an integer, which is how a whole float is
/// written by hand); the error says what was wrong with the value and
/// leaves naming it to the caller ([`Json::field`]).
pub trait FromJson: Sized {
    /// Reads `v` as a `Self`.
    fn from_json(v: &Json) -> Result<Self, String>;
}

impl FromJson for u64 {
    fn from_json(v: &Json) -> Result<u64, String> {
        v.as_u64()
            .ok_or_else(|| "not a non-negative integer".into())
    }
}

impl FromJson for u32 {
    fn from_json(v: &Json) -> Result<u32, String> {
        u32::try_from(u64::from_json(v)?).map_err(|_| "exceeds u32".into())
    }
}

impl FromJson for usize {
    fn from_json(v: &Json) -> Result<usize, String> {
        usize::try_from(u64::from_json(v)?).map_err(|_| "exceeds usize".into())
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<f64, String> {
        v.as_f64().ok_or_else(|| "not a number".into())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<String, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "not a string".into())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>, String> {
        v.as_array()
            .ok_or("not an array")?
            .iter()
            .enumerate()
            .map(|(i, x)| T::from_json(x).map_err(|e| format!("element {i}: {e}")))
            .collect()
    }
}

/// Implements [`ToJson`] for a struct by listing its fields:
///
/// ```
/// struct Point { x: f64, y: f64 }
/// qa_simnet::impl_to_json!(Point { x, y });
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::object([
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field))),+
                ])
            }
        }
    };
}

/// Implements [`ToJson`] and [`FromJson`] for a struct from one list of
/// its fields — [`impl_to_json!`](crate::impl_to_json) plus the read
/// half: every listed field is required and read through its type's
/// [`FromJson`].
///
/// ```
/// use qa_simnet::json::{FromJson, Json, ToJson};
/// #[derive(Debug, PartialEq)]
/// struct Point { x: f64, n: u32 }
/// qa_simnet::impl_json!(Point { x, n });
/// let p = Point { x: 0.5, n: 3 };
/// assert_eq!(Point::from_json(&p.to_json()), Ok(p));
/// assert!(Point::from_json(&Json::parse(r#"{"x":0.5}"#).unwrap()).is_err());
/// ```
#[macro_export]
macro_rules! impl_json {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        $crate::impl_to_json!($ty { $($field),+ });
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                Ok($ty {
                    $($field: v.field(stringify!($field))?),+
                })
            }
        }
    };
}

/// Builds a [`Json`] object literal: `json_obj! { "key": value, ... }`.
/// Values are anything implementing [`ToJson`].
#[macro_export]
macro_rules! json_obj {
    { $($key:literal : $val:expr),* $(,)? } => {
        $crate::json::Json::object([
            $(($key, $crate::json::ToJson::to_json(&$val))),*
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_compact_values() {
        let v = Json::object([
            ("a", Json::Int(1)),
            ("b", Json::Float(2.5)),
            ("c", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("d", Json::Str("x\"y".to_string())),
        ]);
        assert_eq!(v.dump(), r#"{"a":1,"b":2.5,"c":[true,null],"d":"x\"y"}"#);
    }

    #[test]
    fn integral_floats_keep_a_fraction() {
        assert_eq!(Json::Float(3.0).dump(), "3.0");
        assert_eq!(Json::Float(-0.5).dump(), "-0.5");
        assert_eq!(Json::Int(3).dump(), "3");
    }

    #[test]
    fn non_finite_floats_emit_null() {
        assert_eq!(Json::Float(f64::NAN).dump(), "null");
        assert_eq!(Json::Float(f64::INFINITY).dump(), "null");
    }

    #[test]
    fn pretty_printing_indents() {
        let v = json_obj! { "xs": vec![1, 2] };
        assert_eq!(v.pretty(), "{\n  \"xs\": [\n    1,\n    2\n  ]\n}\n");
    }

    #[test]
    fn parses_what_it_emits() {
        let v = Json::object([
            ("n", Json::Null),
            ("i", Json::Int(-42)),
            ("f", Json::Float(1.25e-3)),
            ("s", Json::Str("hé\n\"\\ \u{1}".to_string())),
            ("a", Json::Arr(vec![Json::Int(1), Json::Obj(Vec::new())])),
        ]);
        assert_eq!(Json::parse(&v.dump()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(
            Json::parse(r#""é😀""#).unwrap(),
            Json::Str("é😀".to_string())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{bad json",
            "",
            "[1,]",
            "{\"a\":}",
            "1 2",
            "nul",
            "\"",
            "[1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_runaway_nesting() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn to_json_primitives() {
        assert_eq!(7u32.to_json(), Json::Int(7));
        assert_eq!((u64::MAX).to_json(), Json::UInt(u64::MAX));
        assert_eq!(None::<f64>.to_json(), Json::Null);
        assert_eq!(Some("x").to_json(), Json::Str("x".to_string()));
        assert_eq!(
            vec![1u8, 2].to_json(),
            Json::Arr(vec![Json::Int(1), Json::Int(2)])
        );
    }

    #[test]
    fn integers_are_exact_up_to_u64_max() {
        for v in [0, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let text = v.to_json().dump();
            assert_eq!(text, v.to_string());
            let back = Json::parse(&text).unwrap();
            assert_eq!(back, v.to_json(), "one representation per value");
            assert_eq!(u64::from_json(&back), Ok(v));
        }
        // One past u64::MAX is a float again, and no integer.
        let huge = Json::parse("18446744073709551616").unwrap();
        assert_eq!(huge, Json::Float(18446744073709551616.0));
        assert!(u64::from_json(&huge).is_err());
    }

    #[test]
    fn field_reads_strictly_and_names_the_key() {
        let v =
            Json::parse(r#"{"n":7,"x":2,"s":"a","xs":[1,2.5],"big":4294967296,"neg":-1}"#).unwrap();
        assert_eq!(v.field::<u32>("n"), Ok(7));
        assert_eq!(v.field::<f64>("x"), Ok(2.0));
        assert_eq!(v.field::<String>("s"), Ok("a".to_string()));
        assert_eq!(v.field::<Vec<f64>>("xs"), Ok(vec![1.0, 2.5]));
        assert_eq!(v.field::<u64>("big"), Ok(1 << 32));
        assert_eq!(v.field::<usize>("big"), Ok(1 << 32));
        let refused = |r: Result<u32, String>| r.unwrap_err();
        assert_eq!(refused(v.field("gone")), "missing field \"gone\"");
        assert_eq!(refused(v.field("big")), "field \"big\": exceeds u32");
        assert_eq!(
            refused(v.field("neg")),
            "field \"neg\": not a non-negative integer"
        );
        assert_eq!(
            v.field::<Vec<u64>>("xs").unwrap_err(),
            "field \"xs\": element 1: not a non-negative integer"
        );
        assert_eq!(
            v.field::<f64>("s").unwrap_err(),
            "field \"s\": not a number"
        );
        assert_eq!(
            v.field::<String>("n").unwrap_err(),
            "field \"n\": not a string"
        );
        assert_eq!(
            v.field::<Vec<u64>>("n").unwrap_err(),
            "field \"n\": not an array"
        );
    }

    #[test]
    fn struct_macro_ports_derive_sites() {
        struct Row {
            name: String,
            value: f64,
            count: Option<u64>,
        }
        impl_to_json!(Row { name, value, count });
        let r = Row {
            name: "q1".to_string(),
            value: 1.5,
            count: None,
        };
        assert_eq!(
            r.to_json().dump(),
            r#"{"name":"q1","value":1.5,"count":null}"#
        );
    }
}
