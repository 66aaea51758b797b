//! Zero-dependency JSON writer/parser.
//!
//! The workspace's hermetic-build policy forbids crates-io dependencies, so
//! this module replaces `serde`/`serde_json` for the two jobs the repo
//! actually has: encoding what crosses a boundary (wire payloads, session
//! snapshots, traces and reports), and emitting the bench harness's
//! `BENCH_*.json` files. It is deliberately small:
//!
//! * [`Json`] — a JSON document tree. Numbers keep their parsed flavour
//!   (`UInt`/`Int`/`Milli`/`Float`) so 64-bit seeds round-trip bit-exactly
//!   instead of being squeezed through an `f64`, and a decimal with at
//!   most three fraction digits (`645680.1`, a `Micros` in µs) stays an
//!   exact count of thousandths.
//! * [`Json::parse`] — a recursive-descent parser with full string-escape
//!   handling (including `\uXXXX` surrogate pairs).
//! * `Display` — a compact writer; [`Json::to_pretty_string`] adds a
//!   2-space-indented form for files meant to be read by humans.
//! * [`ToJson`] / [`FromJson`] — conversion traits with impls for the std
//!   primitives, plus the [`crate::impl_json_struct!`] and
//!   [`crate::impl_json_enum!`] macros that give every encoded struct and
//!   enum in the workspace a one-declaration round-trip implementation
//!   (replacing the old `#[derive(Serialize, Deserialize)]`).
//! * [`ToJson::write_json`] — appends a value's compact text without
//!   building its tree; [`to_json_string`] uses it. Its contract: the
//!   bytes are identical to `to_json().to_string()`. The primitive,
//!   `Vec`, `Option`, [`Json`] and `Micros` impls override it, and the
//!   two macros generate both `to_json` and `write_json` from the same
//!   field list, so an encoding is still declared once. Integers and
//!   `Milli` decimals are written by a digit loop into a stack buffer,
//!   byte-identical to `Display` but without the `fmt` machinery.
//!   `EventLog::digest` streams each event's line through it into FNV-1a
//!   without building the JSONL.
//!
//! Float formatting is stable by construction: finite `f64`s are written
//! with Rust's shortest-round-trip `Display`, so `write → parse → write`
//! is a fixpoint and values survive exactly. Non-finite floats serialize
//! as `null` (JSON has no NaN/∞) and parse back as NaN.
//!
//! Enum encodings follow serde's externally-tagged convention: unit
//! variants are `"Name"`, struct variants `{"Name": {...fields...}}`.
//! [`crate::impl_json_enum!`] is the only place that encoding is written.

use std::fmt::{self, Write as _};

mod c1g2_impls;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (fits `u64`).
    UInt(u64),
    /// A negative integer literal (fits `i64`).
    Int(i64),
    /// A non-negative literal with one to three fraction digits, not all
    /// zero, kept exact as a count of thousandths: `645680.1` is
    /// `Milli(645_680_100)`. Decimal microseconds therefore parse back to
    /// whole nanoseconds without passing through an `f64`.
    Milli(u64),
    /// Any other number literal.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved (stable output, no hashing).
    Obj(Vec<(String, Json)>),
}

/// A parse or conversion error, with enough context to find the culprit.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    fn new(msg: impl Into<String>) -> Self {
        JsonError(msg.into())
    }

    fn in_field(self, field: &str) -> Self {
        JsonError(format!("in field '{field}': {}", self.0))
    }

    /// `tag` names no variant of enum `ty` (used by [`crate::impl_json_enum!`]).
    #[doc(hidden)]
    pub fn unknown_variant(ty: &str, tag: &str) -> Self {
        JsonError(format!("unknown {ty} variant '{tag}'"))
    }

    /// Variant `tag` of `ty` came in the other variant kind's form: a unit
    /// tag as an object or a struct tag as a string (used by
    /// [`crate::impl_json_enum!`]).
    #[doc(hidden)]
    pub fn variant_form(ty: &str, tag: &str, unit: bool) -> Self {
        let (kind, form) = if unit {
            ("unit", "an object")
        } else {
            ("struct", "a string")
        };
        JsonError(format!(
            "{ty} variant '{tag}' is a {kind} variant, not {form}"
        ))
    }
}

// ------------------------------------------------------------------ writer

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so runs between them are
    // whole UTF-8 sequences and can be copied in one `push_str`.
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0C => Some("\\f"),
            0x00..=0x1F => None,
            _ => continue,
        };
        out.push_str(&s[start..i]);
        match escape {
            Some(e) => out.push_str(e),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Two ASCII digits per entry, `00` to `99`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends the decimal digits of `v`, byte-identical to `write!(out,
/// "{v}")`: two digits per step into a stack buffer, with no `fmt`
/// machinery on the trace path.
pub(crate) fn write_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

fn write_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    write_u64(out, v.unsigned_abs());
}

/// Appends `thousandths / 1000` as a decimal with its trailing fraction
/// zeros trimmed (`645680.1`, `0.025`, `37`): integer digits only, and
/// [`Json::parse`] reads it back to the same count.
pub(crate) fn write_milli(out: &mut String, thousandths: u64) {
    write_u64(out, thousandths / 1000);
    let frac = thousandths % 1000;
    if frac == 0 {
        return;
    }
    let (digits, width) = match (frac % 100, frac % 10) {
        (0, _) => (frac / 100, 1),
        (_, 0) => (frac / 10, 2),
        _ => (frac, 3),
    };
    out.push('.');
    for place in (0..width).rev() {
        out.push((b'0' + (digits / 10u64.pow(place) % 10) as u8) as char);
    }
}

/// `thousandths / 1000` as the nearest `f64`, the value `parse::<f64>()`
/// gives for the same literal.
fn milli_to_f64(thousandths: u64) -> f64 {
    if thousandths < 1 << 53 {
        // Both operands are exact, so the quotient is correctly rounded.
        thousandths as f64 / 1000.0
    } else {
        let mut text = String::new();
        write_milli(&mut text, thousandths);
        text.parse().expect("decimal literal")
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // Rust's `Display` for f64 is the shortest representation that
        // parses back to the same bits — exactly the stability JSON needs.
        let _ = write!(out, "{x}");
        // "1" would re-parse as an integer; that is fine for consumers
        // (FromJson for f64 accepts integer literals).
    } else {
        out.push_str("null");
    }
}

impl Json {
    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => write_u64(out, *u),
            Json::Int(i) => write_i64(out, *i),
            Json::Milli(t) => write_milli(out, *t),
            Json::Float(x) => write_f64(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        const PAD: &str = "  ";
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&PAD.repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&PAD.repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&PAD.repeat(indent + 1));
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&PAD.repeat(indent));
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    /// The human-oriented, 2-space-indented rendering.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

// ------------------------------------------------------------------ parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > 128 {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => {
                    self.reject_repeated_key(&fields)?;
                    return Ok(Json::Obj(fields));
                }
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
    }

    /// Decoders read the first of a repeated key, so a repeat is rejected
    /// rather than silently ignored. The keys are sorted once when the
    /// object closes: O(k log k), where a scan per key would let one
    /// hostile object of many short keys cost quadratic time.
    fn reject_repeated_key(&self, fields: &[(String, Json)]) -> Result<(), JsonError> {
        if fields.len() < 2 {
            return Ok(());
        }
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        match keys.windows(2).find(|w| w[0] == w[1]) {
            Some(w) => Err(self.err(&format!("object names key \"{}\" twice", w[0]))),
            None => Ok(()),
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = (v << 4) | digit as u16;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: a second \uXXXX must follow.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            0x10000 + (((hi as u32) - 0xD800) << 10) + ((lo as u32) - 0xDC00)
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err(self.err("unpaired low surrogate"));
                        } else {
                            hi as u32
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| self.err("invalid \\u code point"))?,
                        );
                    }
                    _ => return Err(self.err("unknown escape")),
                },
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(c) => {
                    // Reassemble UTF-8: collect continuation bytes.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let len = match c {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            0xF0..=0xF7 => 4,
                            _ => return Err(self.err("invalid UTF-8")),
                        };
                        let end = start + len;
                        let chunk = self
                            .bytes
                            .get(start..end)
                            .ok_or_else(|| self.err("truncated UTF-8"))?;
                        let s =
                            std::str::from_utf8(chunk).map_err(|_| self.err("invalid UTF-8"))?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
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
            .map_err(|_| self.err("invalid number"))?;
        if let Some(exact) = exact_decimal(text) {
            return Ok(exact);
        }
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                // "-0" must stay a float to keep the sign bit.
                if i != 0 {
                    return Ok(Json::Int(i));
                }
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err(&format!("invalid number literal '{text}'")))
    }
}

/// A non-negative `digits.digits` literal with one to three fraction
/// digits, as an exact [`Json::UInt`] (zero fraction) or [`Json::Milli`];
/// `None` for any other shape or past `u64` thousandths.
fn exact_decimal(text: &str) -> Option<Json> {
    let (whole, frac) = text.split_once('.')?;
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if !digits(whole) || !digits(frac) || frac.len() > 3 {
        return None;
    }
    let scale = 10u64.pow(3 - frac.len() as u32);
    let thousandths = whole
        .parse::<u64>()
        .ok()?
        .checked_mul(1000)?
        .checked_add(frac.parse::<u64>().ok()? * scale)?;
    Some(if thousandths % 1000 == 0 {
        Json::UInt(thousandths / 1000)
    } else {
        Json::Milli(thousandths)
    })
}

impl Json {
    /// Parses a JSON document.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::new(format!("expected string, got {other}"))),
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {other}"))),
        }
    }

    /// This value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::UInt(u) => Ok(*u),
            Json::Int(i) if *i >= 0 => Ok(*i as u64),
            Json::Milli(t) if t % 1000 == 0 => Ok(t / 1000),
            Json::Float(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Ok(*x as u64),
            other => Err(JsonError::new(format!(
                "expected unsigned integer, got {other}"
            ))),
        }
    }

    /// This value as an `i64`, if it is an integer.
    pub(crate) fn as_i64(&self) -> Result<i64, JsonError> {
        match self {
            Json::Int(i) => Ok(*i),
            Json::UInt(u) if *u <= i64::MAX as u64 => Ok(*u as i64),
            Json::Milli(t) if t % 1000 == 0 => Ok((t / 1000) as i64),
            Json::Float(x) if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) => Ok(*x as i64),
            other => Err(JsonError::new(format!("expected integer, got {other}"))),
        }
    }

    /// This value as an `f64` (integers widen; `null` reads as NaN, the
    /// writer's encoding of non-finite floats).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Float(x) => Ok(*x),
            Json::Milli(t) => Ok(milli_to_f64(*t)),
            Json::UInt(u) => Ok(*u as f64),
            Json::Int(i) => Ok(*i as f64),
            Json::Null => Ok(f64::NAN),
            other => Err(JsonError::new(format!("expected number, got {other}"))),
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::new(format!("expected array, got {other}"))),
        }
    }

    /// Looks up a key, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Splits an externally-tagged enum value of type `ty` into its tag and,
    /// for the object form, its body (used by [`crate::impl_json_enum!`]).
    #[doc(hidden)]
    pub fn enum_parts(&self, ty: &str) -> Result<(&str, Option<&Json>), JsonError> {
        match self {
            Json::Str(tag) => Ok((tag, None)),
            Json::Obj(fields) if fields.len() == 1 => Ok((&fields[0].0, Some(&fields[0].1))),
            other => Err(JsonError::new(format!("malformed {ty}: {other}"))),
        }
    }

    /// Extracts and converts an object field.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| e.in_field(key)),
            None => Err(JsonError::new(format!("missing field '{key}'"))),
        }
    }
}

// ------------------------------------------------------------------ traits

/// Conversion into a [`Json`] tree, or straight into its compact text.
pub trait ToJson {
    /// This value as a JSON tree.
    fn to_json(&self) -> Json;

    /// Appends this value's compact JSON to `out`, byte-identical to
    /// `self.to_json().to_string()`. The default builds the tree; the
    /// primitive impls and the [`crate::impl_json_struct!`] and
    /// [`crate::impl_json_enum!`] macros write the text directly, with no
    /// tree and no temporary `String`.
    fn write_json(&self, out: &mut String) {
        self.to_json().write_compact(out);
    }
}

/// Conversion from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Reconstructs the value, or explains why the document cannot be it.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

/// Serializes any [`ToJson`] value to a compact JSON string.
pub fn to_json_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Parses a JSON string into any [`FromJson`] value.
pub fn from_json_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(input)?)
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }

    fn write_json(&self, out: &mut String) {
        self.write_compact(out);
    }
}

impl FromJson for Json {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(json.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str().map(str::to_string)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }

    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }

    fn write_json(&self, out: &mut String) {
        write_f64(out, *self);
    }
}

impl FromJson for f64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_f64()
    }
}

macro_rules! impl_json_uint {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> Json {
                    Json::UInt(*self as u64)
                }

                fn write_json(&self, out: &mut String) {
                    write_u64(out, *self as u64);
                }
            }
            impl FromJson for $ty {
                fn from_json(json: &Json) -> Result<Self, JsonError> {
                    let u = json.as_u64()?;
                    <$ty>::try_from(u)
                        .map_err(|_| JsonError::new(format!("{u} out of range for {}", stringify!($ty))))
                }
            }
        )+
    };
}
impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> Json {
                    let v = *self as i64;
                    if v >= 0 { Json::UInt(v as u64) } else { Json::Int(v) }
                }

                fn write_json(&self, out: &mut String) {
                    write_i64(out, *self as i64);
                }
            }
            impl FromJson for $ty {
                fn from_json(json: &Json) -> Result<Self, JsonError> {
                    let i = json.as_i64()?;
                    <$ty>::try_from(i)
                        .map_err(|_| JsonError::new(format!("{i} out of range for {}", stringify!($ty))))
                }
            }
        )+
    };
}
impl_json_int!(i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }

    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

// ------------------------------------------------------------------ macros

/// Implements [`ToJson`]/[`FromJson`] for a struct with named public
/// fields, mirroring what `#[derive(Serialize, Deserialize)]` produced:
/// an object keyed by field name. The generated [`ToJson::write_json`]
/// appends the same bytes as the tree, field by field.
///
/// ```
/// # use rfid_system::impl_json_struct;
/// # use rfid_system::json::{to_json_string, from_json_str};
/// #[derive(Debug, PartialEq)]
/// struct P { x: u64, y: f64 }
/// impl_json_struct!(P { x, y });
/// let p = P { x: 7, y: 2.5 };
/// let back: P = from_json_str(&to_json_string(&p)).unwrap();
/// assert_eq!(back, p);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    // Writes `{"k1":v1,"k2":v2,...}` to `$out`. A key is a Rust
    // identifier, so it never needs escaping.
    (@object $out:ident) => {
        $out.push_str("{}")
    };
    (@object $out:ident $first:ident = $first_value:expr $(, $key:ident = $value:expr)*) => {{
        $out.push_str(concat!("{\"", stringify!($first), "\":"));
        $crate::json::ToJson::write_json($first_value, $out);
        $(
            $out.push_str(concat!(",\"", stringify!($key), "\":"));
            $crate::json::ToJson::write_json($value, $out);
        )*
        $out.push('}');
    }};
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    ),)+
                ])
            }

            fn write_json(&self, out: &mut String) {
                $crate::impl_json_struct!(@object out $($field = &self.$field),+);
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                json: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: json.field(stringify!($field))?,)+
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for an enum of unit and struct
/// variants in serde's externally-tagged encoding: a unit variant is
/// `"Name"`, a struct variant `{"Name": {fields in the listed order}}`.
/// Decoding rejects an unknown tag, a unit tag in object form and a struct
/// tag in string form. The generated [`ToJson::write_json`] appends the
/// same bytes as the tree.
///
/// ```
/// # use rfid_system::impl_json_enum;
/// # use rfid_system::json::{to_json_string, from_json_str};
/// #[derive(Debug, PartialEq)]
/// enum Shape { Dot, Rect { w: u32, h: u32 } }
/// impl_json_enum!(Shape { Dot, Rect { w, h } });
/// assert_eq!(to_json_string(&Shape::Dot), r#""Dot""#);
/// let rect = Shape::Rect { w: 2, h: 3 };
/// assert_eq!(to_json_string(&rect), r#"{"Rect":{"w":2,"h":3}}"#);
/// assert_eq!(from_json_str::<Shape>(r#"{"Rect":{"w":2,"h":3}}"#).unwrap(), rect);
/// assert!(from_json_str::<Shape>(r#"{"Dot":{}}"#).is_err());
/// assert!(from_json_str::<Shape>(r#""Rect""#).is_err());
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    (@encode $variant:ident) => {
        $crate::json::Json::str(stringify!($variant))
    };
    (@encode $variant:ident { $($field:ident),* }) => {
        $crate::json::Json::Obj(vec![(
            stringify!($variant).to_string(),
            $crate::json::Json::Obj(vec![$((
                stringify!($field).to_string(),
                $crate::json::ToJson::to_json($field),
            )),*]),
        )])
    };
    (@write $out:ident, $variant:ident) => {
        $out.push_str(concat!("\"", stringify!($variant), "\""))
    };
    (@write $out:ident, $variant:ident { $($field:ident),* }) => {{
        $out.push_str(concat!("{\"", stringify!($variant), "\":"));
        $crate::impl_json_struct!(@object $out $($field = $field),*);
        $out.push('}');
    }};
    (@decode $ty:ty, $body:ident, $variant:ident) => {
        match $body {
            None => Ok(Self::$variant),
            Some(_) => Err($crate::json::JsonError::variant_form(
                stringify!($ty),
                stringify!($variant),
                true,
            )),
        }
    };
    (@decode $ty:ty, $body:ident, $variant:ident { $($field:ident),* }) => {
        match $body {
            Some(body) => Ok(Self::$variant {
                $($field: body.field(stringify!($field))?,)*
            }),
            None => Err($crate::json::JsonError::variant_form(
                stringify!($ty),
                stringify!($variant),
                false,
            )),
        }
    };
    ($ty:ty { $($variant:ident $({ $($field:ident),* $(,)? })?),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $(Self::$variant $({ $($field),* })? => {
                        $crate::impl_json_enum!(@encode $variant $({ $($field),* })?)
                    })+
                }
            }

            fn write_json(&self, out: &mut String) {
                match self {
                    $(Self::$variant $({ $($field),* })? => {
                        $crate::impl_json_enum!(@write out, $variant $({ $($field),* })?)
                    })+
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                json: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                let (tag, body) = json.enum_parts(stringify!($ty))?;
                $(
                    if tag == stringify!($variant) {
                        return $crate::impl_json_enum!(
                            @decode $ty, body, $variant $({ $($field),* })?
                        );
                    }
                )+
                Err($crate::json::JsonError::unknown_variant(stringify!($ty), tag))
            }
        }
    };
}

// ------------------------------------------------------------------- tests

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(doc: &Json) {
        let text = doc.to_string();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(&back, doc, "compact round-trip of {text}");
        let pretty = doc.to_pretty_string();
        let back = Json::parse(&pretty).expect("parse pretty");
        assert_eq!(&back, doc, "pretty round-trip of {pretty}");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&Json::Null);
        round_trip(&Json::Bool(true));
        round_trip(&Json::Bool(false));
        round_trip(&Json::UInt(0));
        round_trip(&Json::UInt(u64::MAX));
        round_trip(&Json::Int(-1));
        round_trip(&Json::Int(i64::MIN));
        round_trip(&Json::Str(String::new()));
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        // The motivating case: master seeds are full-width u64s that an
        // f64-only number model would corrupt.
        let seed = 0xDEAD_BEEF_F00D_D00Du64; // > 2^53
        let text = to_json_string(&seed);
        assert_eq!(text, format!("{seed}"));
        assert_eq!(from_json_str::<u64>(&text).unwrap(), seed);
    }

    #[test]
    fn float_formatting_is_stable() {
        for &x in &[
            0.0,
            -0.0,
            1.0,
            37.45,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            2.5e-300,
            9_007_199_254_740_993.0,
        ] {
            let once = Json::Float(x).to_string();
            let back = Json::parse(&once).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "value {x}");
            // write → parse → write is a fixpoint.
            assert_eq!(Json::Float(back).to_string(), once);
        }
    }

    #[test]
    fn short_decimals_parse_to_exact_thousandths() {
        for (text, exact) in [
            ("645680.1", Json::Milli(645_680_100)),
            ("0.025", Json::Milli(25)),
            ("37.45", Json::Milli(37_450)),
            ("5.0", Json::UInt(5)),
            ("18446744073709551.615", Json::Milli(u64::MAX)),
        ] {
            let doc = Json::parse(text).unwrap();
            assert_eq!(doc, exact, "{text}");
            assert_eq!(
                doc.as_f64().unwrap().to_bits(),
                text.parse::<f64>().unwrap().to_bits(),
                "{text} as f64"
            );
        }
        assert_eq!(Json::Milli(645_680_100).to_string(), "645680.1");
        assert_eq!(Json::Milli(25).to_string(), "0.025");
        assert_eq!(Json::Milli(u64::MAX).to_string(), "18446744073709551.615");
        // A float written with three or fewer decimals reads back exact.
        assert_eq!(
            Json::parse(&Json::Float(1.5).to_string()).unwrap(),
            Json::Milli(1_500)
        );
        // Anything else keeps the float flavour: more fraction digits, an
        // exponent, a sign, or past `u64` thousandths.
        for text in ["0.0001", "1.2500", "1e3", "-0.5", "18446744073709551.616"] {
            assert!(
                matches!(Json::parse(text).unwrap(), Json::Float(_)),
                "{text}"
            );
        }
    }

    #[test]
    fn digit_loop_matches_display() {
        let mut edges = vec![0, 9, 10, 99, 100, 101, 999, 1_000, u64::MAX, u64::MAX - 1];
        edges.extend((0..20).map(|p| 10u64.pow(p)));
        edges.extend((1..20).map(|p| 10u64.pow(p) - 1));
        for v in edges {
            assert_eq!(to_json_string(&v), v.to_string());
        }
        for v in [0i64, -1, -9, -10, 42, i64::MIN, i64::MAX] {
            assert_eq!(to_json_string(&v), v.to_string());
        }
        rfid_hash::prop::check("digit_loop_matches_display", 512, |g| {
            let v = g.u64() >> g.u64_below(64);
            rfid_hash::prop_assert_eq!(to_json_string(&v), v.to_string());
            let i = v as i64;
            rfid_hash::prop_assert_eq!(to_json_string(&i), i.to_string());
            Ok(())
        });
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
        assert!(from_json_str::<f64>("null").unwrap().is_nan());
    }

    #[test]
    fn string_escaping_round_trips() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nreturn\rtab\t",
            "control \u{01}\u{1F} chars",
            "unicode: µs, 10⁵ tags, 中文, emoji \u{1F600}",
            "backspace\u{08}formfeed\u{0C}",
            "",
        ] {
            round_trip(&Json::str(s));
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""µs 中""#).unwrap(), Json::str("µs 中"));
        // Surrogate pair → astral code point.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::str("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
        assert!(Json::parse(r#""\ude00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn nested_arrays_round_trip() {
        let doc = Json::Arr(vec![
            Json::Arr(vec![Json::UInt(1), Json::UInt(2)]),
            Json::Arr(vec![Json::Arr(vec![Json::Str("deep".into())]), Json::Null]),
            Json::Obj(vec![
                (
                    "xs".into(),
                    Json::Arr(vec![
                        Json::Milli(1_500),
                        Json::Float(0.1 + 0.2),
                        Json::Int(-3),
                    ]),
                ),
                ("empty".into(), Json::Arr(vec![])),
            ]),
        ]);
        round_trip(&doc);
    }

    #[test]
    fn object_field_order_is_preserved() {
        let text = r#"{"zeta": 1, "alpha": 2, "mid": 3}"#;
        let doc = Json::parse(text).unwrap();
        match &doc {
            Json::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, vec!["zeta", "alpha", "mid"]);
            }
            other => panic!("expected object, got {other}"),
        }
        round_trip(&doc);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let doc = Json::parse(" \n\t{ \"a\" : [ 1 , 2 ] , \"b\" : null } \r\n").unwrap();
        assert_eq!(doc.field::<Vec<u64>>("a").unwrap(), vec![1, 2]);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "\"bad \\q escape\"",
            "01x",
            "1.2.3",
            "[1] trailing",
            "{'single': 1}",
            r#"{"TagReply":0,"TagReply":10}"#,
            r#"[{"outer":{"k":null,"k":null}}]"#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn an_object_of_many_keys_is_checked_for_repeats_in_near_linear_time() {
        // 200 000 short distinct keys: a scan per key would make 2e10
        // comparisons; one sort at the close makes about 3.5e6.
        const KEYS: usize = 200_000;
        let mut doc = String::from("{");
        for i in 0..KEYS {
            doc.push_str(&format!("\"{i:x}\":0,"));
        }
        doc.push_str("\"end\":0}");
        let started = std::time::Instant::now();
        let parsed = Json::parse(&doc).expect("distinct keys parse");
        assert!(matches!(parsed, Json::Obj(ref f) if f.len() == KEYS + 1));
        // The same object with its first key repeated at the close.
        doc.truncate(doc.len() - 1);
        doc.push_str(",\"0\":1}");
        assert!(Json::parse(&doc).is_err(), "accepted a repeat at the close");
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(30),
            "two parses of {KEYS} keys took {elapsed:?}"
        );
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn integer_conversions_check_ranges() {
        assert_eq!(from_json_str::<u8>("255").unwrap(), 255);
        assert!(from_json_str::<u8>("256").is_err());
        assert!(from_json_str::<u32>("-1").is_err());
        assert_eq!(from_json_str::<i32>("-40").unwrap(), -40);
        assert!(from_json_str::<i32>("3000000000").is_err());
        // Floats with integral values widen into integers.
        assert_eq!(from_json_str::<u64>("3.0").unwrap(), 3);
        assert!(from_json_str::<u64>("3.5").is_err());
    }

    #[test]
    fn option_encodes_as_null() {
        assert_eq!(to_json_string(&None::<u64>), "null");
        assert_eq!(to_json_string(&Some(5u64)), "5");
        assert_eq!(from_json_str::<Option<u64>>("null").unwrap(), None);
        assert_eq!(from_json_str::<Option<u64>>("5").unwrap(), Some(5));
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        n: u64,
        label: String,
        ratio: f64,
        flags: Vec<bool>,
        cap: Option<u64>,
    }
    impl_json_struct!(Demo {
        n,
        label,
        ratio,
        flags,
        cap
    });

    #[test]
    fn struct_macro_round_trips() {
        let d = Demo {
            n: 100_000,
            label: "fig \"10\"\n".into(),
            ratio: 1.0 / 3.0,
            flags: vec![true, false, true],
            cap: None,
        };
        let back: Demo = from_json_str(&to_json_string(&d)).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn struct_macro_reports_missing_fields() {
        let err = from_json_str::<Demo>(r#"{"n": 1}"#).unwrap_err();
        assert!(err.0.contains("missing field"), "{err}");
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    enum Mode {
        Fast,
        Slow,
    }
    impl_json_enum!(Mode { Fast, Slow });

    #[test]
    fn unit_enum_macro_round_trips() {
        assert_eq!(to_json_string(&Mode::Fast), "\"Fast\"");
        assert_eq!(from_json_str::<Mode>("\"Slow\"").unwrap(), Mode::Slow);
        assert!(from_json_str::<Mode>("\"Medium\"").is_err());
    }
}
