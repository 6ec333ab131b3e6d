//! The workspace's one JSON value, writer and reader.
//!
//! Every document the workspace emits — `pmcf.profile/v1`,
//! `pmcf.critpath/v1`, `pmcf.report/v1`, `pmcf.reportdiff/v1`,
//! `pmcf.events/v1`, `pmcf.trace/v1`, `pmcf.bench/v1` and
//! `pmcf.case/v1` — is built as a [`JsonValue`] and rendered by its
//! `Display` impl (compact, one string escaper, non-finite floats as
//! `null`, finite floats always in `{:e}` form so they read back as
//! floats). Every document it reads back goes through [`parse`], which
//! runs in linear time and rejects nesting deeper than 128 levels.
//!
//! Integers have one form: a value that fits in `i64` is
//! [`JsonValue::Int`], only values above `i64::MAX` are
//! [`JsonValue::UInt`]. The `From` impls and the parser agree on it, so
//! `parse(&v.to_string()) == v` for every value without a non-finite
//! float.

use crate::event::Event;
use std::fmt::{self, Display, Write as _};
use std::path::Path;

/// Deepest array/object nesting [`parse`] accepts. Every document the
/// workspace writes nests at most 13 levels.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer that fits in `i64`.
    Int(i64),
    /// An integer above `i64::MAX`.
    UInt(u64),
    /// A float (non-finite values render as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value under `key` seen through `view` (one of the `as_*`
    /// methods), or an error naming the key when it is missing or of
    /// the wrong type.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        view: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(view)
            .ok_or_else(|| format!("field {key:?} is missing or has the wrong type"))
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Exact non-negative integer view (floats are not integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(v) => u64::try_from(*v).ok(),
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// Exact signed integer view (floats are not integers).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Object view.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(o) => Some(o),
            _ => None,
        }
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        i64::try_from(v).map_or(JsonValue::UInt(v), JsonValue::Int)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::from(v as u64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}
impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}
impl FromIterator<JsonValue> for JsonValue {
    fn from_iter<I: IntoIterator<Item = JsonValue>>(iter: I) -> Self {
        JsonValue::Arr(iter.into_iter().collect())
    }
}

/// The one string escaper: quotes, backslashes and control characters.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    let mut run = 0;
    for (i, c) in s.char_indices() {
        if c != '"' && c != '\\' && c >= ' ' {
            continue;
        }
        f.write_str(&s[run..i])?;
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c => write!(f, "\\u{:04x}", c as u32)?,
        }
        run = i + c.len_utf8();
    }
    f.write_str(&s[run..])?;
    f.write_char('"')
}

impl Display for JsonValue {
    /// Compact JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Int(v) => write!(f, "{v}"),
            JsonValue::UInt(v) => write!(f, "{v}"),
            JsonValue::Float(v) if v.is_finite() => write!(f, "{v:e}"),
            JsonValue::Float(_) => f.write_str("null"),
            JsonValue::Str(s) => write_escaped(f, s),
            JsonValue::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    Display::fmt(v, f)?;
                }
                f.write_char(']')
            }
            JsonValue::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, k)?;
                    f.write_char(':')?;
                    Display::fmt(v, f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Write `doc` and a trailing newline to `path`, creating parent
/// directories.
pub fn write_file(path: &Path, doc: &impl Display) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, format!("{doc}\n"))
}

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse(src: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        src,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
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

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // copy the run of unescaped characters up to the next quote
            // or backslash (both ASCII, so the cut is a char boundary)
            let rest = &self.src[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
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
                    let hex = self
                        .src
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    // the writer never emits surrogates; map lone ones
                    // to the replacement character
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            while let Some(b'0'..=b'9') = p.peek() {
                p.pos += 1;
            }
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            digits(self);
        }
        if let Some(b'e' | b'E') = self.peek() {
            is_float = true;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            digits(self);
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

/// Parse one JSONL event line back into an [`Event`].
pub fn parse_event_line(line: &str) -> Result<Event, String> {
    let v = parse(line)?;
    let obj = v.as_obj().ok_or("event line is not an object")?;
    let mut seq = 0u64;
    let mut kind = String::new();
    let mut fields = Vec::new();
    for (k, val) in obj {
        match (k.as_str(), val) {
            ("seq", v) => seq = v.as_u64().ok_or("seq is not an unsigned integer")?,
            ("kind", JsonValue::Str(s)) => kind = s.clone(),
            (_, JsonValue::Arr(_) | JsonValue::Obj(_)) => {
                return Err(format!("nested value in event field {k:?}"))
            }
            // `null` is how a non-finite float renders: read it back as
            // NaN so monitors see the same stream in process and on replay
            (_, JsonValue::Null) => fields.push((k.clone(), JsonValue::Float(f64::NAN))),
            _ => fields.push((k.clone(), val.clone())),
        }
    }
    if kind.is_empty() {
        return Err("event line missing kind".into());
    }
    Ok(Event { seq, kind, fields })
}

/// Parse a full `pmcf.events/v1` JSONL recording: verifies the header,
/// returns `(events, dropped)`.
pub fn parse_recording(src: &str) -> Result<(Vec<Event>, u64), String> {
    let mut lines = src.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty recording")?;
    let h = parse(header)?;
    match h.get("schema").and_then(JsonValue::as_str) {
        Some(crate::event::SCHEMA) => {}
        other => return Err(format!("bad schema {other:?}")),
    }
    let dropped = h.get("dropped").and_then(JsonValue::as_u64).unwrap_or(0);
    let mut events = Vec::new();
    for (i, line) in lines.enumerate() {
        events.push(parse_event_line(line).map_err(|e| format!("line {}: {e}", i + 2))?);
    }
    Ok((events, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        let v = parse(
            r#"{"a":3,"b":[1.5e0,null,-2],"c":"x\"y","d":true,"e":{"f":18446744073709551615}}"#,
        )
        .unwrap();
        assert_eq!(v.get("a"), Some(&JsonValue::Int(3)));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("d"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            v.get("e").unwrap().get("f"),
            Some(&JsonValue::UInt(u64::MAX))
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("nul").is_err());
        assert!(parse(r#""\u12""#).is_err());
        let deep = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).is_err());
        // far past the limit: an error, not a stack overflow
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn renders_compactly_with_one_number_form() {
        let v = JsonValue::obj([
            ("a", 3u64.into()),
            ("b", JsonValue::Arr(vec![1.5.into(), JsonValue::Null])),
            ("c", "x\"y\n\u{1}é".into()),
            ("d", true.into()),
            ("e", u64::MAX.into()),
            ("f", None::<u64>.into()),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a":3,"b":[1.5e0,null],"c":"x\"y\n\u0001é","d":true,"e":18446744073709551615,"f":null}"#
        );
        assert_eq!(JsonValue::from(7u64), JsonValue::Int(7));
        assert_eq!(JsonValue::from(u64::MAX), JsonValue::UInt(u64::MAX));
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_render_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(JsonValue::Float(x).to_string(), "null");
        }
    }

    #[test]
    fn getters_are_exact_and_name_the_key() {
        let v = parse(r#"{"n":3,"neg":-1,"f":3.9e0,"big":1e19,"ok":true}"#).unwrap();
        assert_eq!(v.field("n", JsonValue::as_u64), Ok(3));
        assert_eq!(v.field("neg", JsonValue::as_i64), Ok(-1));
        assert_eq!(v.field("ok", JsonValue::as_bool), Ok(true));
        for key in ["neg", "f", "big", "missing"] {
            let err = v.field(key, JsonValue::as_u64).unwrap_err();
            assert!(err.contains(&format!("{key:?}")), "{err}");
        }
    }

    #[test]
    fn long_strings_parse() {
        let s = "ab\"c\\é".repeat(100_000);
        let doc = JsonValue::from(s.as_str()).to_string();
        assert_eq!(parse(&doc).unwrap().as_str(), Some(s.as_str()));
    }

    #[test]
    fn event_line_round_trips() {
        let mut e = Event::new(
            "ipm.iter",
            vec![
                ("iteration", 3u64.into()),
                ("mu", 0.125.into()),
                ("engine", "robust".into()),
                ("ok", true.into()),
                ("delta", (-4i64).into()),
            ],
        );
        e.seq = 11;
        let back = parse_event_line(&e.to_json().to_string()).unwrap();
        assert_eq!(back, e);
        assert!(parse_event_line(r#"{"seq":1,"kind":"k","x":[1]}"#).is_err());
    }

    #[test]
    fn recording_round_trips() {
        use crate::recorder::FlightRecorder;
        let mut rec = FlightRecorder::new(2);
        for i in 0..5u64 {
            rec.push(Event::new("e", vec![("i", i.into())]));
        }
        let (events, dropped) = parse_recording(&rec.to_jsonl()).unwrap();
        assert_eq!(dropped, 3);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].num("i"), Some(4.0));
    }
}
