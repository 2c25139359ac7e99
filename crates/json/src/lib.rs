//! # mc-json — a minimal JSON value type with a hand-rolled parser and writer
//!
//! The serve protocol and the trace replayer both speak JSON lines, and
//! the workspace's no-external-crates policy rules out `serde_json` (the
//! `serde` in the tree is an offline marker shim). The grammar needed is
//! small — requests are flat objects, trace events are flat objects,
//! responses are objects of numbers and strings — so one recursive-descent
//! parser serves every reader, with two ways to consume a document:
//!
//! * [`Json::parse`] builds a [`Json`] tree. Object key order is
//!   preserved, which makes the writer deterministic and
//!   golden-transcript-friendly. The serve protocol reads requests this
//!   way.
//! * [`visit_members`] walks the top-level object and hands each member
//!   to a callback as a [`Scalar`] — a number, a string borrowed from the
//!   input, or `Other` — without building anything. The trace readers
//!   use it, so a trace line costs no allocation.
//!
//! Both run on the same scanner, so they accept the same texts and fail
//! with the same [`JsonError`]. The scan is linear. A string is one run
//! of bytes up to its closing `"`, borrowed from the input; only an
//! escape makes it decode into an owned copy. An integer of up to 15
//! digits is converted exactly without the general `f64` parser.
//!
//! Object members take a *flat path* first: an escape-free key, `:`,
//! and an unsigned integer or an escape-free string, with no whitespace,
//! read in one byte scan. Every member of a trace line has that form. At
//! the first byte that does not fit, the general path resumes at that
//! byte with what was read so far, never from the start of the member or
//! the line, so each member is read once and every error is the general
//! path's. The scanner's small methods are `#[inline]`: without it a
//! crate built with the default release profile calls them out of line
//! from its own copy of the generic [`visit_members`].
//!
//! [`Lines`] is the line cursor under [`parse_lines`]: it skips
//! blank and `#` lines and lends each content line out of chunks it
//! reads and checks as UTF-8 whole, in reused buffers, with the lines
//! and errors of `BufRead::read_line`. [`write_num`] is the number
//! writer behind [`Json::render`], public so that writers which skip
//! the tree produce the same bytes.
//!
//! Two safety properties hold by construction:
//!
//! * **Bounded recursion.** Nesting beyond [`MAX_DEPTH`] (or an explicit
//!   limit given to [`Json::parse_with_depth`]) is a *typed* error
//!   ([`JsonErrorKind::TooDeep`]) instead of a stack overflow, so a
//!   hostile or corrupt input line can never take the process down.
//! * **Round-trip stability.** `parse(render(v)) == v` for every finite
//!   value, asserted by a property test over generated values.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::BufRead;

/// Deepest nesting [`Json::parse`] accepts. Far beyond anything the serve
/// protocol or a trace line legitimately contains, far below what
/// overflows a thread stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always stored as f64; the grammar has one number
    /// type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys: last wins).
    Obj(Vec<(String, Json)>),
}

/// What class of parse failure occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Malformed input: bad token, bad escape, trailing characters, …
    Syntax,
    /// The value nests deeper than the configured depth limit. Callers
    /// that treat input as data (the trace parser) surface this as
    /// invalid data rather than a crash.
    TooDeep,
}

/// A parse failure: byte offset, message, and failure class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What was wrong.
    pub message: &'static str,
    /// Failure class (syntax vs. depth limit).
    pub kind: JsonErrorKind,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one JSON document; trailing non-whitespace is an error.
    /// Nesting is bounded by [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Json::parse_with_depth(text, MAX_DEPTH)
    }

    /// Parse with an explicit nesting limit: a value nested more than
    /// `max_depth` containers deep fails with
    /// [`JsonErrorKind::TooDeep`].
    pub fn parse_with_depth(text: &str, max_depth: usize) -> Result<Json, JsonError> {
        Parser::new(text, max_depth).document(Parser::value)
    }

    /// Member lookup on an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a number
    /// holding one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => exact_u64(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render this value as compact JSON (no whitespace), preserving
    /// object member order. Non-finite numbers render as `null` — JSON
    /// has no NaN/inf and a corrupt stream helps nobody.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `n` as JSON: an integer of magnitude at most 2^53 without a
/// fraction, any other finite value in Rust's shortest round-trip form,
/// a non-finite value as `null`. [`Json::render`] writes every number
/// this way; writers that skip the tree call it to stay byte-identical.
pub fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// `n` as a non-negative integer, if it holds one exactly (at most 2^53).
/// In that range the round trip through `i64` truncates exactly, so it is
/// the integer test, and it takes one instruction each way (the `u64`
/// conversions take a dozen).
#[inline]
fn exact_u64(n: f64) -> Option<u64> {
    if (0.0..=(1u64 << 53) as f64).contains(&n) {
        let int = n as i64;
        if int as f64 == n {
            return Some(int as u64);
        }
    }
    None
}

/// One member value as [`visit_members`] hands it over.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// A number.
    Num(f64),
    /// A string: borrowed from the input unless it contains escapes.
    Str(Cow<'a, str>),
    /// `null`, `true`, `false`, an array or an object (already checked,
    /// not built).
    Other,
}

impl Scalar<'_> {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a non-negative integer, with the meaning of
    /// [`Json::as_u64`].
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Num(n) => exact_u64(*n),
            _ => None,
        }
    }
}

/// Walk one JSON document and hand each member of its top-level object
/// to `visit`, in input order and duplicates included, so the last call
/// for a key carries the value [`Json::get`] would return. This runs on
/// the parser behind [`Json::parse_with_depth`] and accepts and rejects
/// exactly the same texts with the same errors, but builds no tree:
/// keys and strings without escapes are borrowed from `text`, nested
/// containers are checked and skipped. A valid document that is not an
/// object visits no members. A failed document may have visited some
/// members before the error.
pub fn visit_members<'a>(
    text: &'a str,
    max_depth: usize,
    mut visit: impl FnMut(Cow<'a, str>, Scalar<'a>),
) -> Result<(), JsonError> {
    Parser::new(text, max_depth).document(|p| {
        if p.peek() == Some(b'{') {
            p.object(|p, key, flat| {
                let value = match flat {
                    Some(leaf) => leaf.into(),
                    None => p.scalar()?,
                };
                visit(key, value);
                Ok(())
            })
        } else {
            p.scalar().map(drop)
        }
    })
}

/// The end of the string run starting at `start`: the first `"`, `\` or
/// control byte at or after it, or the end of input.
#[inline(always)]
fn run_end(bytes: &[u8], start: usize) -> usize {
    let mut end = start;
    while let Some(&b) = bytes.get(end) {
        if b == b'"' || b == b'\\' || b < 0x20 {
            break;
        }
        end += 1;
    }
    end
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Remaining container levels this parse may still open.
    depth_left: usize,
}

/// A value that opens no container.
enum Leaf<'a> {
    Null,
    Bool(bool),
    Num(f64),
    Str(Cow<'a, str>),
}

impl From<Leaf<'_>> for Json {
    #[inline]
    fn from(leaf: Leaf<'_>) -> Json {
        match leaf {
            Leaf::Null => Json::Null,
            Leaf::Bool(b) => Json::Bool(b),
            Leaf::Num(n) => Json::Num(n),
            Leaf::Str(s) => Json::Str(s.into_owned()),
        }
    }
}

impl<'a> From<Leaf<'a>> for Scalar<'a> {
    #[inline]
    fn from(leaf: Leaf<'a>) -> Scalar<'a> {
        match leaf {
            Leaf::Num(n) => Scalar::Num(n),
            Leaf::Str(s) => Scalar::Str(s),
            Leaf::Null | Leaf::Bool(_) => Scalar::Other,
        }
    }
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, max_depth: usize) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth_left: max_depth,
        }
    }

    /// Parse the whole input as one value with `value`; only whitespace
    /// may surround it.
    fn document<T>(
        mut self,
        value: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        self.skip_ws();
        let value = value(&mut self)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(value)
    }

    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
            kind: JsonErrorKind::Syntax,
        }
    }

    /// Account for entering one container level; typed failure when the
    /// budget is spent.
    fn descend(&mut self) -> Result<(), JsonError> {
        if self.depth_left == 0 {
            return Err(JsonError {
                offset: self.pos,
                message: "nesting too deep",
                kind: JsonErrorKind::TooDeep,
            });
        }
        self.depth_left -= 1;
        Ok(())
    }

    fn ascend(&mut self) {
        self.depth_left += 1;
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, value: Leaf<'a>) -> Result<Leaf<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Parse one value into a [`Json`] tree.
    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.object(|p, key, flat| {
                    let value = match flat {
                        Some(leaf) => leaf.into(),
                        None => p.value()?,
                    };
                    members.push((key.into_owned(), value));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            _ => self.leaf().map(Json::from),
        }
    }

    /// Parse one value without building containers: they are checked
    /// and reported as [`Scalar::Other`].
    #[inline]
    fn scalar(&mut self) -> Result<Scalar<'a>, JsonError> {
        Ok(match self.peek() {
            Some(b'{') => {
                self.object(|p, _, flat| match flat {
                    Some(_) => Ok(()),
                    None => p.scalar().map(drop),
                })?;
                Scalar::Other
            }
            Some(b'[') => {
                self.array(|p| p.scalar().map(drop))?;
                Scalar::Other
            }
            _ => self.leaf()?.into(),
        })
    }

    #[inline]
    fn leaf(&mut self) -> Result<Leaf<'a>, JsonError> {
        match self.peek() {
            Some(b'"') => self.string().map(Leaf::Str),
            Some(b't') => self.literal("true", Leaf::Bool(true)),
            Some(b'f') => self.literal("false", Leaf::Bool(false)),
            Some(b'n') => self.literal("null", Leaf::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Leaf::Num),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse an object. `member` gets each key and, when the flat path
    /// of [`member_head`](Self::member_head) has read the value already,
    /// that value; otherwise it parses the value itself.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>, Option<Leaf<'a>>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.descend()?;
        self.expect(b'{', "expected '{'")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.ascend();
            return Ok(());
        }
        loop {
            let (key, flat) = self.member_head()?;
            member(self, key, flat)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.ascend();
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Read one object member up to its value: the key and the `:`, and
    /// the value too when the member is *flat*. A flat member is an
    /// escape-free key, `:` and then either an integer of 1–15 digits
    /// (`0`, or no leading zero) with no `.`, `e`, `E`, `+` or `-` after
    /// it, or an escape-free string, all without whitespace. Every member
    /// of a trace line is flat, and the flat path reads it in one byte
    /// scan, with no detour through [`scalar`](Self::scalar) or
    /// [`value`](Self::value).
    ///
    /// At the first byte the flat form does not allow, the general path
    /// resumes *at that byte* with what is read so far: an escape or a
    /// control byte in the key or the string goes on in
    /// [`string_rest`](Self::string_rest), a longer or non-integer number
    /// in [`number_rest`](Self::number_rest), whitespace or another kind
    /// of value in the general whitespace skip, and the caller then
    /// parses the value (`None`). Nothing is read twice, so each member
    /// is read once, in input order, and an error is the general path's,
    /// with its offset, message and kind.
    #[inline(always)]
    fn member_head(&mut self) -> Result<(Cow<'a, str>, Option<Leaf<'a>>), JsonError> {
        let (text, bytes) = (self.text, self.bytes);
        let at = |i: usize| bytes.get(i).copied();
        let mut i = self.pos;
        if at(i) != Some(b'"') {
            self.skip_ws();
            let key = self.string()?;
            return self.colon(key);
        }
        i += 1;
        let key_start = i;
        i = run_end(bytes, i);
        if at(i) != Some(b'"') {
            self.pos = i;
            let key = self.string_rest(key_start)?;
            return self.colon(key);
        }
        let key = Cow::Borrowed(&text[key_start..i]);
        i += 1;
        if at(i) != Some(b':') {
            self.pos = i;
            return self.colon(key);
        }
        i += 1;
        let value = match at(i) {
            Some(b'"') => {
                i += 1;
                let start = i;
                i = run_end(bytes, i);
                if at(i) != Some(b'"') {
                    self.pos = i;
                    return Ok((key, Some(Leaf::Str(self.string_rest(start)?))));
                }
                i += 1;
                Leaf::Str(Cow::Borrowed(&text[start..i - 1]))
            }
            Some(first @ b'0'..=b'9') => {
                let start = i;
                let mut int = u64::from(first - b'0');
                i += 1;
                if first != b'0' {
                    while let Some(d @ b'0'..=b'9') = at(i) {
                        int = int.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                        i += 1;
                    }
                }
                if i - start > 15
                    || matches!(at(i), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    self.pos = i;
                    return Ok((key, Some(Leaf::Num(self.number_rest(start)?))));
                }
                // At most 15 digits: below 2^53, so the signed conversion
                // (one instruction) is exact.
                Leaf::Num(int as i64 as f64)
            }
            _ => {
                self.pos = i;
                self.skip_ws();
                return Ok((key, None));
            }
        };
        self.pos = i;
        Ok((key, Some(value)))
    }

    /// The general path from just after a member's key: the `:` and the
    /// whitespace around it. The caller parses the value.
    fn colon(&mut self, key: Cow<'a, str>) -> Result<(Cow<'a, str>, Option<Leaf<'a>>), JsonError> {
        self.skip_ws();
        self.expect(b':', "expected ':'")?;
        self.skip_ws();
        Ok((key, None))
    }

    /// Parse an array; `item` parses each element.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.descend()?;
        self.expect(b'[', "expected '['")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.ascend();
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.ascend();
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Parse a string in one linear pass: each run of bytes up to a `"`,
    /// `\` or control byte is taken whole, and a string without escapes
    /// is borrowed from the input.
    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let start = self.pos;
        self.pos = run_end(self.bytes, start);
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        self.string_rest(start)
    }

    /// Finish a string whose first run `start..pos` stopped short of the
    /// closing `"`: at a `\`, a control byte or the end of input.
    fn string_rest(&mut self, start: usize) -> Result<Cow<'a, str>, JsonError> {
        let mut out = String::new();
        let mut start = start;
        loop {
            // A run ends at an ASCII byte or the end of input, so it is
            // a whole UTF-8 slice.
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => {
                    self.pos += 1;
                    return Err(self.err("control character in string"));
                }
                None => return Err(self.err("unterminated string")),
            }
            start = self.pos;
            self.pos = run_end(self.bytes, start);
        }
    }

    /// Decode the escape after a `\` onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let esc = self.text[self.pos..]
            .chars()
            .next()
            .ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += esc.len_utf8();
        match esc {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                self.pos += 4;
                // Surrogate pairs are out of scope for this protocol;
                // lone surrogates map to U+FFFD.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    #[inline]
    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        let mut int = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            int = int.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        // Fast path: a plain integer of at most 15 digits is below 2^53,
        // so it converts exactly and equals what `str::parse` gives.
        let digits = self.pos - digits_start;
        if (1..=15).contains(&digits)
            && !matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            let n = int as i64 as f64;
            return Ok(if negative { -n } else { n });
        }
        self.number_rest(start)
    }

    /// Finish the number that starts at `start`, read up to `pos` so far:
    /// take the rest of its digit and exponent characters and convert
    /// the whole with `str::parse`.
    fn number_rest(&mut self, start: usize) -> Result<f64, JsonError> {
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let n: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            message: "invalid number",
            kind: JsonErrorKind::Syntax,
        })?;
        // str::parse accepts "inf"/"NaN" spellings JSON forbids, but the
        // scanner above only admits digit/exponent characters, so any
        // non-finite here is an overflow like 1e999 — reject it.
        if !n.is_finite() {
            return Err(JsonError {
                offset: start,
                message: "number out of range",
                kind: JsonErrorKind::Syntax,
            });
        }
        Ok(n)
    }
}

/// Why one line of a JSON-lines stream failed.
#[derive(Debug)]
pub enum LineError {
    /// Reading the line from the underlying stream failed.
    Io {
        /// 1-based number of the line being read when the error hit.
        line: usize,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// The line was read but is not a valid JSON document.
    Json {
        /// 1-based line number.
        line: usize,
        /// The underlying parse error (syntax or [`JsonErrorKind::TooDeep`]).
        error: JsonError,
    },
}

impl LineError {
    /// The 1-based line number the error occurred on.
    pub fn line(&self) -> usize {
        match self {
            LineError::Io { line, .. } | LineError::Json { line, .. } => *line,
        }
    }
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineError::Io { line, error } => write!(f, "line {line}: {error}"),
            LineError::Json { line, error } => write!(f, "line {line}: {error}"),
        }
    }
}

impl std::error::Error for LineError {}

/// A cursor over the content lines of a line-oriented stream: each
/// [`next_line`](Lines::next_line) reads forward past blank and `#`
/// comment lines and lends out the next line, trimmed, with its 1-based
/// number. [`ParsedLines`] parses each line as a JSON document; readers
/// with their own line grammar walk the cursor directly.
///
/// The cursor reads the stream in chunks of 16 KiB and checks each
/// chunk's whole lines as UTF-8 at once; a line is then found with
/// `memchr` and lent from the chunk, without a copy or a check of its
/// own. Its two buffers are reused, so memory stays bounded by a chunk
/// plus the longest line. It reads the same lines as `BufRead::read_line`
/// and fails the same way: a line that is not UTF-8 is consumed and
/// answered with `read_line`'s own error, and a failed read loses the
/// part of the line read before it.
pub struct Lines<R> {
    reader: R,
    line: usize,
    /// Whole lines, checked as UTF-8, lent out from `pos` on.
    text: String,
    pos: usize,
    /// Bytes read after `text`: the start of a line not yet complete,
    /// or the lines from the first one that is not UTF-8 on.
    raw: Vec<u8>,
    /// Whether `raw` starts with a line that is not UTF-8.
    bad: bool,
}

/// How much [`Lines`] asks of its reader at a time: twice the default
/// `BufReader` capacity, so a `BufReader` of that capacity hands each
/// read straight to the stream underneath.
const CHUNK: usize = 16 << 10;

impl<R: BufRead> Lines<R> {
    /// Start before the first line of `reader`.
    pub fn new(reader: R) -> Self {
        Lines {
            reader,
            line: 0,
            text: String::new(),
            pos: 0,
            raw: Vec::new(),
            bad: false,
        }
    }

    /// The next content line and its 1-based number, `None` at the end
    /// of the stream. A failed read is [`LineError::Io`]; a later call
    /// reads on from where the stream left off.
    pub fn next_line(&mut self) -> Option<Result<(usize, &str), LineError>> {
        loop {
            if self.pos == self.text.len() {
                match self.refill() {
                    Ok(true) => {}
                    Ok(false) => {
                        // As `read_line`'s empty read takes a number.
                        self.line += 1;
                        return None;
                    }
                    Err(error) => {
                        self.line += 1;
                        return Some(Err(LineError::Io {
                            line: self.line,
                            error,
                        }));
                    }
                }
                continue;
            }
            self.line += 1;
            let rest = &self.text[self.pos..];
            let len = rest.find('\n').map_or(rest.len(), |end| end + 1);
            let start = self.pos;
            self.pos += len;
            let line = &self.text[start..self.pos];
            let end = start + line.trim_end().len();
            let start = end - self.text[start..end].trim_start().len();
            if start < end && self.text.as_bytes()[start] != b'#' {
                return Some(Ok((self.line, &self.text[start..end])));
            }
        }
    }

    /// Refill `text` with the next whole lines: `Ok(false)` at the end
    /// of the stream. A line that is not UTF-8, or a failed read, is an
    /// error for the line being read.
    fn refill(&mut self) -> std::io::Result<bool> {
        if self.bad {
            return Err(self.skip_bad_line());
        }
        // Read until `raw` holds a whole line or the stream ends.
        let mut searched = 0;
        let last_newline = loop {
            if let Some(at) = self.raw[searched..].iter().rposition(|&b| b == b'\n') {
                break Some(searched + at);
            }
            let filled = self.raw.len();
            searched = filled;
            self.raw.resize(filled + CHUNK, 0);
            let read = loop {
                match self.reader.read(&mut self.raw[filled..]) {
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    read => break read,
                }
            };
            match read {
                Ok(0) => {
                    self.raw.truncate(filled);
                    break None;
                }
                Ok(n) => self.raw.truncate(filled + n),
                Err(e) => {
                    self.raw.clear();
                    return Err(e);
                }
            }
        };
        // `raw` splits into whole lines and what follows the last one
        // (at the end of the stream: the last line, if unterminated).
        let whole = match last_newline {
            Some(at) => at + 1,
            None if self.raw.is_empty() => return Ok(false),
            None => self.raw.len(),
        };
        // The whole lines become `text`; the rest moves into the buffer
        // of the old `text`, all lent out by now, which becomes `raw`.
        let mut lines =
            std::mem::replace(&mut self.raw, std::mem::take(&mut self.text).into_bytes());
        self.raw.clear();
        self.raw.extend_from_slice(&lines[whole..]);
        lines.truncate(whole);
        self.pos = 0;
        match String::from_utf8(lines) {
            Ok(text) => self.text = text,
            Err(e) => {
                // Lend the lines before the bad one; keep it and the
                // lines after it in `raw`, ahead of the rest.
                let valid = e.utf8_error().valid_up_to();
                let mut lines = e.into_bytes();
                let good = lines[..valid]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |at| at + 1);
                lines.extend_from_slice(&self.raw);
                self.raw.clear();
                self.raw.extend_from_slice(&lines[good..]);
                lines.truncate(good);
                self.text = String::from_utf8(lines).expect("checked up to the bad line");
                self.bad = true;
            }
        }
        Ok(true)
    }

    /// Drop the line at the start of `raw`, which is not UTF-8, and
    /// return the error `read_line` gives for it.
    fn skip_bad_line(&mut self) -> std::io::Error {
        self.bad = false;
        let end = self
            .raw
            .iter()
            .position(|&b| b == b'\n')
            .map_or(self.raw.len(), |at| at + 1);
        let error = (&self.raw[..end])
            .read_line(&mut String::new())
            .expect_err("the line is not UTF-8");
        self.raw.drain(..end);
        error
    }
}

/// Iterator over the JSON documents of a line-oriented stream; see
/// [`parse_lines`].
pub struct ParsedLines<R> {
    lines: Lines<R>,
    max_depth: usize,
}

impl<R: BufRead> Iterator for ParsedLines<R> {
    type Item = Result<(usize, Json), LineError>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.lines.next_line()?.and_then(|(line, text)| {
            Json::parse_with_depth(text, self.max_depth)
                .map(|v| (line, v))
                .map_err(|error| LineError::Json { line, error })
        }))
    }
}

/// Parse a JSON-lines stream incrementally: one document per line,
/// yielded with its 1-based line number, reading one line at a time so
/// memory stays bounded by the longest line, not the whole input. Blank
/// lines and `#` comment lines are skipped. Errors are per line and
/// typed ([`LineError::Json`] keeps the [`JsonErrorKind`], so depth
/// bombs stay [`JsonErrorKind::TooDeep`]); iteration can continue past
/// a failed line.
pub fn parse_lines<R: BufRead>(reader: R) -> ParsedLines<R> {
    parse_lines_with_depth(reader, MAX_DEPTH)
}

/// [`parse_lines`] with an explicit per-line nesting limit.
pub fn parse_lines_with_depth<R: BufRead>(reader: R, max_depth: usize) -> ParsedLines<R> {
    ParsedLines {
        lines: Lines::new(reader),
        max_depth,
    }
}

/// Convenience: an object builder preserving insertion order.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_request_objects() {
        let j = Json::parse(
            r#"{"op":"predict","platform":"henri","cores":17,"comp_numa":0,"comm_numa":1}"#,
        )
        .unwrap();
        assert_eq!(j.get("op").and_then(Json::as_str), Some("predict"));
        assert_eq!(j.get("cores").and_then(Json::as_u64), Some(17));
        assert_eq!(j.get("comm_numa").and_then(Json::as_u64), Some(1));
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn round_trips_through_render() {
        let cases = [
            r#"{"a":1,"b":[true,false,null],"c":{"d":"x\ny"},"e":-2.5}"#,
            r#"[1,2.25,"three"]"#,
            r#""just a string""#,
            "42",
            "null",
        ];
        for case in cases {
            let j = Json::parse(case).unwrap();
            assert_eq!(j.render(), case);
            assert_eq!(Json::parse(&j.render()).unwrap(), j);
        }
    }

    #[test]
    fn whitespace_and_escapes_are_handled() {
        let j = Json::parse(" { \"k\" : \"a\\\"b\\\\c\\u0041\" , \"n\" : [ ] } ").unwrap();
        assert_eq!(j.get("k").and_then(Json::as_str), Some("a\"b\\cA"));
        assert_eq!(
            j.get("n").and_then(Json::as_array).map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn errors_carry_positions() {
        for (text, offset) in [("{", 1), ("[1,]", 3), ("{\"a\" 1}", 5), ("nul", 0)] {
            let e = Json::parse(text).unwrap_err();
            assert_eq!(e.offset, offset, "{text:?}: {e}");
            assert_eq!(e.kind, JsonErrorKind::Syntax);
        }
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("1e999").is_err(), "overflow is not a value");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(4.0).as_u64(), Some(4));
        assert_eq!(Json::Num(4.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("4".into()).as_u64(), None);
    }

    #[test]
    fn render_integers_without_fraction_and_nonfinite_as_null() {
        assert_eq!(Json::Num(17.0).render(), "17");
        assert_eq!(Json::Num(2.5).render(), "2.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(obj(vec![("a", Json::Bool(true))]).render(), r#"{"a":true}"#);
    }

    #[test]
    fn duplicate_keys_last_wins_on_lookup() {
        let j = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(j.get("a").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn nesting_beyond_the_limit_is_a_typed_error_not_an_overflow() {
        // 1 000 000 open brackets would overflow the stack of a naive
        // recursive parser; here it is a typed error.
        let hostile = "[".repeat(1_000_000);
        let e = Json::parse(&hostile).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
        assert_eq!(e.message, "nesting too deep");
        assert_eq!(e.offset, MAX_DEPTH, "fails exactly at the limit");

        // Same through objects.
        let hostile = "{\"k\":".repeat(1_000_000);
        let e = Json::parse(&hostile).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
    }

    #[test]
    fn parse_lines_yields_numbered_documents() {
        let text = "# header comment\n{\"a\":1}\n\n  {\"b\":2}\n";
        let got: Vec<_> = parse_lines(text.as_bytes()).collect();
        assert_eq!(got.len(), 2);
        let (line, v) = got[0].as_ref().unwrap();
        assert_eq!(*line, 2);
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        let (line, v) = got[1].as_ref().unwrap();
        assert_eq!(*line, 4, "blank lines still count");
        assert_eq!(v.get("b").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn parse_lines_errors_are_per_line_and_typed() {
        let deep = format!("{{\"a\":1}}\n{}\n{{\"b\":2}}\n", "[".repeat(200));
        let got: Vec<_> = parse_lines(deep.as_bytes()).collect();
        assert_eq!(got.len(), 3);
        assert!(got[0].is_ok());
        match &got[1] {
            Err(LineError::Json { line: 2, error }) => {
                assert_eq!(error.kind, JsonErrorKind::TooDeep);
            }
            other => panic!("expected TooDeep at line 2, got {other:?}"),
        }
        // Iteration continues past the failed line.
        let (line, _) = got[2].as_ref().unwrap();
        assert_eq!(*line, 3);

        let bad = "{oops\n";
        match parse_lines(bad.as_bytes()).next() {
            Some(Err(e @ LineError::Json { line: 1, .. })) => {
                assert_eq!(e.line(), 1);
            }
            other => panic!("expected syntax error at line 1, got {other:?}"),
        }
    }

    #[test]
    fn parse_lines_matches_whole_input_parsing() {
        let text = "{\"k\":[1,2]}\n\"str\"\n42\n";
        let streamed: Vec<Json> = parse_lines(text.as_bytes()).map(|r| r.unwrap().1).collect();
        let eager: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(streamed, eager);
    }

    #[test]
    fn integer_fast_path_matches_str_parse_bit_for_bit() {
        let mut rng = proptest::TestRng::new(15);
        let mut cases = vec![
            "0".to_string(),
            "000000000000000".into(),
            "999999999999999".into(),
        ];
        for len in 1..=15 {
            for _ in 0..64 {
                cases.push(
                    (0..len)
                        .map(|_| char::from(b'0' + rng.below(10) as u8))
                        .collect(),
                );
            }
        }
        // Past the fast path: 16+ digits and values above 2^53 round.
        cases.extend(
            [
                "9007199254740993",
                "1234567890123456",
                "18446744073709551616",
            ]
            .map(String::from),
        );
        for digits in cases {
            for text in [digits.clone(), format!("-{digits}")] {
                let want = text.parse::<f64>().unwrap();
                match Json::parse(&text) {
                    Ok(Json::Num(n)) => assert_eq!(n.to_bits(), want.to_bits(), "{text}"),
                    other => panic!("{text}: {other:?}"),
                }
            }
        }
        // A digit run followed by a number character is not an integer.
        for (text, want) in [
            ("1e3", 1000.0),
            ("4.0", 4.0),
            ("-2.5", -2.5),
            ("1E+2", 100.0),
        ] {
            assert_eq!(Json::parse(text).unwrap(), Json::Num(want), "{text}");
        }
        for text in ["1-2", "-", "1e", "--1"] {
            let e = Json::parse(text).unwrap_err();
            assert_eq!((e.offset, e.message), (0, "invalid number"), "{text}");
        }
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut seen = Vec::new();
        visit_members(
            r#"{"plain":"a b","r\u0061nk":"x\ty","":""}"#,
            MAX_DEPTH,
            |k, v| {
                seen.push((k, v));
            },
        )
        .unwrap();
        assert!(matches!(
            &seen[0],
            (Cow::Borrowed("plain"), Scalar::Str(Cow::Borrowed("a b")))
        ));
        assert!(matches!(&seen[1].0, Cow::Owned(k) if k == "rank"));
        assert!(matches!(&seen[1].1, Scalar::Str(Cow::Owned(v)) if v == "x\ty"));
        assert!(matches!(
            &seen[2],
            (Cow::Borrowed(""), Scalar::Str(Cow::Borrowed("")))
        ));
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        for (text, offset, message) in [
            ("\"ab", 3, "unterminated string"),
            ("\"a\u{1}b\"", 3, "control character in string"),
            ("\"é\u{1f}\"", 4, "control character in string"),
            ("\"a\\", 3, "unterminated escape"),
            ("\"a\\q\"", 4, "unknown escape"),
            ("\"a\\é\"", 5, "unknown escape"),
            ("\"a\\u12\"", 4, "bad \\u escape"),
            ("\"a\\u12g4\"", 4, "bad \\u escape"),
        ] {
            let e = Json::parse(text).unwrap_err();
            assert_eq!((e.offset, e.message), (offset, message), "{text:?}");
        }
        assert_eq!(Json::parse("\"\\u+041\"").unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn visitor_sees_members_in_order_and_skips_containers() {
        let text = r#" {"a":1,"b":[{"c":2}],"a":"x","d":null,"e":{}} "#;
        let mut seen = Vec::new();
        visit_members(text, MAX_DEPTH, |k, v| seen.push((k.into_owned(), v))).unwrap();
        let want = [
            ("a", Scalar::Num(1.0)),
            ("b", Scalar::Other),
            ("a", Scalar::Str("x".into())),
            ("d", Scalar::Other),
            ("e", Scalar::Other),
        ];
        assert_eq!(seen.len(), want.len());
        for ((k, v), (wk, wv)) in seen.iter().zip(&want) {
            assert_eq!((k.as_str(), v), (*wk, wv));
        }
        // Non-objects visit nothing; errors are those of the tree parser.
        for text in ["42", "[1,{\"a\":2}]", "\"s\"", "null"] {
            let mut calls = 0;
            visit_members(text, MAX_DEPTH, |_, _| calls += 1).unwrap();
            assert_eq!(calls, 0, "{text}");
        }
        let deep = format!("{{\"a\":{}", "[".repeat(200));
        let e = visit_members(&deep, MAX_DEPTH, |_, _| {}).unwrap_err();
        assert_eq!(e, Json::parse(&deep).unwrap_err());
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
    }

    /// What [`visit_members`] hands over for `text`, as owned pairs, or
    /// its error.
    fn visited(text: &str) -> Result<Vec<(String, Scalar<'_>)>, JsonError> {
        let mut seen = Vec::new();
        visit_members(text, MAX_DEPTH, |k, v| seen.push((k.into_owned(), v)))?;
        Ok(seen)
    }

    #[test]
    fn flat_members_hand_over_to_the_general_path_mid_line() {
        let cases = [
            // Integers at and past the flat path's 15 digits.
            r#"{"rank":3,"bytes":123456789012345,"tag":0}"#,
            r#"{"rank":3,"bytes":1234567890123456,"tag":0}"#,
            r#"{"rank":3,"bytes":9007199254740993,"tag":0}"#,
            r#"{"a":999999999999999}"#,
            // Zero, leading zeros, negatives, fractions and exponents.
            r#"{"a":0,"b":1}"#,
            r#"{"a":01,"b":1}"#,
            r#"{"a":00,"b":1}"#,
            r#"{"a":-0,"b":1}"#,
            r#"{"a":1.0,"b":1}"#,
            r#"{"a":1e2,"b":1}"#,
            r#"{"a":0.5,"b":-3}"#,
            r#"{"a":12x}"#,
            r#"{"a":1-2}"#,
            // Escapes in the middle of an otherwise flat line.
            r#"{"rank":0,"ev\u0065nt":"wait","tag":1}"#,
            r#"{"rank":0,"event":"wa\u0069t","tag":1}"#,
            r#"{"rank":0,"event":"a\"b\\c","tag":1}"#,
            r#"{"rank":0,"\"":1,"tag":1}"#,
            r#"{"a":"\q"}"#,
            // Whitespace before and after `:` and `,`.
            r#"{"a" :1,"b":2}"#,
            r#"{"a": 1,"b":2}"#,
            r#"{"a":1 ,"b":2}"#,
            r#"{"a":1, "b":2}"#,
            r#"{"a":"x" , "b" : "y" }"#,
            "{\"a\":\t1,\n\"b\":2}",
            // Trailing comma, empty object, duplicate keys.
            r#"{"a":1,}"#,
            r#"{}"#,
            r#"{"a":1,"a":"x","a":2,"a":null}"#,
            // Other values between flat members.
            r#"{"a":1,"b":null,"c":[1,{"d":2}],"e":{"f":"g"},"h":true,"i":2}"#,
            // A control byte inside a key or a string.
            "{\"a\":\"x\u{1}y\",\"b\":1}",
            "{\"a\u{1f}\":1}",
            // Cut off inside a key, after it, inside a number or string.
            r#"{"ran"#,
            r#"{"rank""#,
            r#"{"rank":"#,
            r#"{"rank":12"#,
            r#"{"rank":1234567890123456"#,
            r#"{"rank":1,"event":"wa"#,
            r#"{"rank":1,"#,
            r#"{"a":-"#,
            // Not a key where one belongs.
            r#"{"a":1,2}"#,
            r#"{a:1}"#,
            r#"{"a"1}"#,
        ];
        for text in cases {
            let want = Json::parse(text).map(|tree| match tree {
                Json::Obj(members) => members,
                _ => unreachable!("{text}"),
            });
            match (visited(text), want) {
                (Ok(seen), Ok(members)) => {
                    assert_eq!(seen.len(), members.len(), "{text}");
                    for ((k, v), (wk, wv)) in seen.iter().zip(&members) {
                        let wv = match wv {
                            Json::Num(n) => Scalar::Num(*n),
                            Json::Str(s) => Scalar::Str(Cow::Borrowed(s.as_str())),
                            _ => Scalar::Other,
                        };
                        assert_eq!((k, format!("{v:?}")), (wk, format!("{wv:?}")), "{text}");
                    }
                }
                (seen, want) => assert_eq!(seen.err(), want.err(), "{text}"),
            }
        }
        // The flat path reads `01` as the general path does, and `-0`
        // keeps its sign.
        assert_eq!(visited(r#"{"a":01}"#).unwrap()[0].1, Scalar::Num(1.0));
        let zero = visited(r#"{"a":-0}"#).unwrap().remove(0).1;
        assert!(matches!(zero, Scalar::Num(n) if n.to_bits() == (-0.0f64).to_bits()));
        let e = visited(r#"{"rank":12"#).unwrap_err();
        assert_eq!((e.offset, e.message), (10, "expected ',' or '}'"));
    }

    #[test]
    fn line_cursor_lends_trimmed_content_lines() {
        let mut lines = Lines::new(&b"# c\n\n  {\"a\":1}\r\n\xff\n \t#x\nlast"[..]);
        assert_eq!(lines.next_line().unwrap().unwrap(), (3, "{\"a\":1}"));
        match lines.next_line() {
            Some(Err(LineError::Io { line: 4, .. })) => {}
            other => panic!("expected an I/O error on line 4, got {other:?}"),
        }
        assert_eq!(lines.next_line().unwrap().unwrap(), (6, "last"));
        assert!(lines.next_line().is_none());
    }

    #[test]
    fn depth_limit_is_exact() {
        // depth d value: d nested arrays around a scalar.
        let nested = |d: usize| format!("{}1{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse_with_depth(&nested(3), 3).is_ok());
        let e = Json::parse_with_depth(&nested(4), 3).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
        // Scalars never descend: limit 0 still parses them.
        assert_eq!(Json::parse_with_depth("42", 0).unwrap(), Json::Num(42.0));
        // Siblings do not accumulate: the budget is per-path, not global.
        assert!(Json::parse_with_depth("[[1],[2],[3]]", 2).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// Build a random finite JSON value from a seed, with bounded depth
    /// and width (the shim has no recursive strategy combinator, so the
    /// recursion lives here and the strategy supplies entropy).
    fn build(rng: &mut TestRng, depth: usize) -> Json {
        let pick = if depth == 0 {
            rng.below(4) // leaves only
        } else {
            rng.below(6)
        };
        match pick {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 0),
            2 => {
                // Mix integers (render without fraction) and fractions.
                if rng.below(2) == 0 {
                    Json::Num(rng.below(20_001) as f64 - 10_000.0)
                } else {
                    Json::Num((rng.unit_f64() - 0.5) * 1e6)
                }
            }
            3 => {
                let len = rng.below(8);
                let s: String = (0..len)
                    .map(|_| {
                        // Printable ASCII plus the escapes the writer
                        // special-cases.
                        const ALPHABET: &[u8] = b"ab\"\\\n\r\tz 0{}[]:,\x01";
                        ALPHABET[rng.below(ALPHABET.len())] as char
                    })
                    .collect();
                Json::Str(s)
            }
            4 => {
                let len = rng.below(4);
                Json::Arr((0..len).map(|_| build(rng, depth - 1)).collect())
            }
            _ => {
                let len = rng.below(4);
                Json::Obj(
                    (0..len)
                        .map(|i| (format!("k{i}"), build(rng, depth - 1)))
                        .collect(),
                )
            }
        }
    }

    /// The line cursor as it was before it read in chunks: `read_line`
    /// into one reused `String`. [`Lines`] must read every stream as
    /// this does.
    fn read_line_cursor(mut reader: impl BufRead) -> Vec<Result<(usize, String), String>> {
        let (mut out, mut buf, mut line) = (Vec::new(), String::new(), 0);
        loop {
            buf.clear();
            line += 1;
            match reader.read_line(&mut buf) {
                Ok(0) => return out,
                Ok(_) => {}
                Err(e) => {
                    out.push(Err(format!("line {line}: {:?} {e}", e.kind())));
                    continue;
                }
            }
            let end = buf.trim_end().len();
            let start = end - buf[..end].trim_start().len();
            if start < end && buf.as_bytes()[start] != b'#' {
                out.push(Ok((line, buf[start..end].to_string())));
            }
        }
    }

    /// Everything [`Lines`] lends out of `reader`, in the form of
    /// [`read_line_cursor`].
    fn chunked_cursor(reader: impl BufRead) -> Vec<Result<(usize, String), String>> {
        let mut lines = Lines::new(reader);
        let mut out = Vec::new();
        while let Some(next) = lines.next_line() {
            out.push(match next {
                Ok((line, text)) => Ok((line, text.to_string())),
                Err(LineError::Io { line, error }) => {
                    Err(format!("line {line}: {:?} {error}", error.kind()))
                }
                Err(e) => panic!("the cursor parses nothing: {e}"),
            });
        }
        out
    }

    /// A stream that hands out its bytes a few at a time, is now and
    /// then interrupted, as pipes and sockets may be, and may fail once
    /// at a given byte.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        rng: TestRng,
        /// The byte before which one read fails, if any.
        fail_at: Option<usize>,
    }

    impl std::io::Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.rng.below(8) == 0 {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let mut end = self
                .bytes
                .len()
                .min(self.at + 1 + self.rng.below(3 * CHUNK / 2));
            if let Some(fail_at) = self.fail_at.filter(|&f| f >= self.at) {
                if fail_at == self.at {
                    self.fail_at = None;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::BrokenPipe,
                        "pipe broke",
                    ));
                }
                end = end.min(fail_at);
            }
            let n = (end - self.at).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// A stream of lines in bytes: JSON-like content, blanks, comments,
    /// Unicode whitespace at the ends, multi-byte characters, bytes that
    /// are not UTF-8, and now and then a line longer than a chunk.
    fn line_stream(rng: &mut TestRng) -> Vec<u8> {
        const PIECES: &[&[u8]] = &[
            b"{\"rank\":0,\"event\":\"wait\"}",
            b"  ",
            b"\t",
            b"\r",
            b"#",
            b"# comment",
            b"\xc3\xa9",
            b"\xc2\xa0",
            b"\xe2\x80\xa8",
            b"\xff",
            b"\xc3",
            b"\xed\xa0\x80",
            b"x",
            b"\x0b",
        ];
        let mut out = Vec::new();
        for _ in 0..rng.below(40) {
            if rng.below(30) == 0 {
                out.extend(std::iter::repeat_n(b'a', CHUNK + rng.below(CHUNK)));
            }
            for _ in 0..rng.below(6) {
                out.extend_from_slice(PIECES[rng.below(PIECES.len())]);
            }
            if rng.below(10) != 0 {
                out.push(b'\n');
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_render_round_trips(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let value = build(&mut rng, 4);
            let text = value.render();
            let back = Json::parse(&text).unwrap_or_else(|e| {
                panic!("rendered value failed to parse: {e}\n{text}")
            });
            prop_assert_eq!(&back, &value, "render: {}", text);
            // Rendering is a fixed point: render∘parse∘render == render.
            prop_assert_eq!(back.render(), text);
        }

        #[test]
        fn visitor_agrees_with_the_tree_parser(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let value = Json::Obj((0..rng.below(5)).map(|i| (format!("k{}", i % 3), build(&mut rng, 3))).collect());
            let mut text = value.render();
            // Mutate: cut the text or splice in a byte that breaks it.
            match rng.below(4) {
                0 => {}
                1 => text.truncate(rng.below(text.len() + 1)),
                _ => {
                    const BYTES: &[u8] = b"\"\\{}[],:-.e0 \x01";
                    text.insert(rng.below(text.len() + 1), BYTES[rng.below(BYTES.len())] as char);
                }
            }
            let depth = 1 + rng.below(4);
            let mut seen = Vec::new();
            let visited = visit_members(&text, depth, |k, v| seen.push((k.into_owned(), v)));
            match Json::parse_with_depth(&text, depth) {
                Ok(tree) => {
                    prop_assert_eq!(visited, Ok(()));
                    let want: Vec<(String, Scalar<'_>)> = match &tree {
                        Json::Obj(members) => members
                            .iter()
                            .map(|(k, v)| {
                                let v = match v {
                                    Json::Num(n) => Scalar::Num(*n),
                                    Json::Str(s) => Scalar::Str(Cow::Borrowed(s.as_str())),
                                    _ => Scalar::Other,
                                };
                                (k.clone(), v)
                            })
                            .collect(),
                        _ => Vec::new(),
                    };
                    prop_assert_eq!(seen, want, "text: {}", text);
                }
                Err(e) => prop_assert_eq!(visited, Err(e), "text: {}", text),
            }
        }

        #[test]
        fn chunked_lines_read_as_read_line_reads_them(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let bytes = line_stream(&mut rng);
            let fail_at = (rng.below(4) == 0).then(|| rng.below(bytes.len() + 1));
            let capacity = 1 + rng.below(2 * CHUNK);
            let stream = || {
                std::io::BufReader::with_capacity(capacity, Trickle {
                    bytes: bytes.clone(),
                    at: 0,
                    rng: TestRng::new(seed),
                    fail_at,
                })
            };
            // Whole, and a few bytes at a time with a failure.
            prop_assert_eq!(chunked_cursor(&bytes[..]), read_line_cursor(&bytes[..]));
            prop_assert_eq!(chunked_cursor(stream()), read_line_cursor(stream()));
        }
    }
}
