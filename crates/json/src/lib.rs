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
//!   use it for the lines they do not decode themselves, so such a line
//!   costs no allocation.
//!
//! Both run on the same scanner, so they accept the same texts and fail
//! with the same [`JsonError`]. The scan is linear, and an object member
//! has one way through it: whitespace, the key, whitespace, `:`,
//! whitespace, the value. A string is one run of bytes up to its closing
//! `"`, borrowed from the input; only an escape makes it decode into an
//! owned copy. An integer of up to 15 digits is converted exactly
//! without the general `f64` parser. The scanner's small methods are
//! `#[inline]`: without it a crate built with the default release
//! profile calls them out of line from its own copy of the generic
//! [`visit_members`].
//!
//! [`Lines`] is the line cursor under [`parse_lines`]: it skips
//! blank and `#` lines and lends each content line where it lies in one
//! reused buffer, with the lines and errors of `BufRead::read_line`. A
//! reader with a fixed line form decodes the buffered bytes in place
//! through [`Lines::next_line_with`]; only a line it declines is checked
//! as UTF-8 and trimmed. [`write_num`] is the number
//! writer behind [`Json::render`], public so that writers which skip
//! the tree produce the same bytes.
//!
//! Two safety properties hold by construction:
//!
//! * **Bounded recursion.** Nesting beyond [`MAX_DEPTH`] is a *typed*
//!   error ([`JsonErrorKind::TooDeep`]) instead of a stack overflow, so a
//!   hostile or corrupt input line can never take the process down.
//! * **Round-trip stability.** `parse(render(v)) == v` for every finite
//!   value, asserted by a property test over generated values.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::BufRead;

/// Deepest nesting every parser in this crate accepts. Far beyond anything the serve
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
    /// A value nested more than [`MAX_DEPTH`] containers deep fails with
    /// [`JsonErrorKind::TooDeep`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Parser::new(text).document(Parser::value)
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
/// the parser behind [`Json::parse`] and accepts and rejects
/// exactly the same texts with the same errors, but builds no tree:
/// keys and strings without escapes are borrowed from `text`, nested
/// containers are checked and skipped. A valid document that is not an
/// object visits no members. A failed document may have visited some
/// members before the error.
pub fn visit_members<'a>(
    text: &'a str,
    visit: impl FnMut(Cow<'a, str>, Scalar<'a>),
) -> Result<(), JsonError> {
    Parser::new(text).members(visit)
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
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth_left: MAX_DEPTH,
        }
    }

    /// A parser whose nesting limit is `depth`, for tests of the limit.
    #[cfg(test)]
    fn with_depth(text: &'a str, depth: usize) -> Self {
        Parser {
            depth_left: depth,
            ..Parser::new(text)
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

    /// The whole input as [`visit_members`] walks it.
    fn members(self, mut visit: impl FnMut(Cow<'a, str>, Scalar<'a>)) -> Result<(), JsonError> {
        self.document(|p| {
            if p.peek() == Some(b'{') {
                p.object(|p, key| {
                    let value = p.scalar()?;
                    visit(key, value);
                    Ok(())
                })
            } else {
                p.scalar().map(drop)
            }
        })
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
                self.object(|p, key| {
                    let value = p.value()?;
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
                self.object(|p, _| p.scalar().map(drop))?;
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

    /// Parse an object; `member` gets each key and parses its value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
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
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            member(self, key)?;
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
        let mut start = self.pos;
        self.pos = run_end(self.bytes, start);
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::new();
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
        // Any other number: take the rest of its digit and exponent
        // characters and convert the whole with `str::parse`.
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

/// A cursor over the content lines of a line-oriented stream: each call
/// reads forward past blank and `#` comment lines and lends out the next
/// line with its 1-based number. [`ParsedLines`] parses each line as a
/// JSON document; readers with their own line grammar walk the cursor
/// directly.
///
/// The cursor reads the stream at least 16 KiB at a time into one reused
/// buffer and lends lines where they lie, so memory stays bounded by a
/// chunk plus the longest line. A reader that knows its lines' exact form
/// decodes them there with [`next_line_with`](Lines::next_line_with): a
/// line its decoder takes costs no newline search, trim or UTF-8 check.
/// Any other line is found with `memchr`, checked as UTF-8 on its own
/// and lent trimmed. Either way the cursor reads the same lines as
/// `BufRead::read_line` and fails the same way: a line that is not UTF-8
/// is consumed and answered with `read_line`'s own error, and a failed
/// read loses the part of the line read before it.
pub struct Lines<R> {
    reader: R,
    line: usize,
    /// Bytes read from the stream, `buf[pos..end]` not yet lent out. A
    /// refill reads over the bytes lent before, so only growth is
    /// zero-filled.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    /// Bytes searched for a line end or moved to the front of the
    /// buffer, which a test bounds.
    #[cfg(test)]
    touched: usize,
}

/// How much [`Lines`] asks of its reader at least: twice the default
/// `BufReader` capacity, so a `BufReader` of that capacity hands each
/// read straight to the stream underneath.
const CHUNK: usize = 16 << 10;

impl<R: BufRead> Lines<R> {
    /// Start before the first line of `reader`.
    pub fn new(reader: R) -> Self {
        Lines {
            reader,
            line: 0,
            buf: Vec::new(),
            pos: 0,
            end: 0,
            #[cfg(test)]
            touched: 0,
        }
    }

    /// The next content line, trimmed, and its 1-based number; `None` at
    /// the end of the stream. A failed read is [`LineError::Io`]; a later
    /// call reads on from where the stream left off.
    pub fn next_line(&mut self) -> Option<Result<(usize, &str), LineError>> {
        let next = self.next_line_with(|_| None::<(std::convert::Infallible, usize)>)?;
        Some(next.map(|(line, text)| {
            let Err(text) = text;
            (line, text)
        }))
    }

    /// [`next_line`](Lines::next_line), offering each line to `decode`
    /// first. `decode` sees the buffered bytes from the start of the line
    /// on and answers `Some((value, len))` when it reads the line in its
    /// first `len` bytes. If a line end follows them (`\n`, `\r\n`, or
    /// the end of the stream), the line is `Ok(value)`, taken without a
    /// newline search, a trim or a UTF-8 check. So `decode` may claim
    /// only bytes that `next_line` would lend as a whole line: ASCII, no
    /// line end, no whitespace at either end, no leading `#`. A line that
    /// `decode` declines, or whose claimed bytes a line end does not
    /// follow, is `Err(text)`: lent exactly as `next_line` lends it.
    /// `decode` may see a line more than once, cut short by the end of
    /// the buffered bytes, until a read completes it; so that a long line
    /// read in many pieces costs time in its length, not in its length
    /// times the reads, `decode` should read no more than a bounded
    /// prefix before it answers.
    #[allow(clippy::type_complexity)]
    pub fn next_line_with<T>(
        &mut self,
        mut decode: impl FnMut(&[u8]) -> Option<(T, usize)>,
    ) -> Option<Result<(usize, Result<T, &str>), LineError>> {
        // Whether the stream ended during this call.
        let mut ended = false;
        // How many bytes from `pos` on are known to hold no `\n`: a read
        // only adds bytes after them, so each byte is searched once.
        let mut searched = 0;
        // The loop keeps only offsets: a line lent from inside it would
        // keep the buffer borrowed across the next refill.
        let (start, end) = loop {
            let rest = &self.buf[self.pos..self.end];
            if let Some((value, len)) = decode(rest) {
                let taken = match rest.get(len..) {
                    Some([b'\n', ..]) => Some(len + 1),
                    Some([b'\r', b'\n', ..]) => Some(len + 2),
                    Some([]) if ended => Some(len),
                    _ => None,
                };
                if let Some(taken) = taken {
                    self.pos += taken;
                    self.line += 1;
                    return Some(Ok((self.line, Ok(value))));
                }
            }
            let mut unsearched = &rest[searched..];
            let found = unsearched
                .skip_until(b'\n')
                .expect("a slice reads without error");
            let len = searched + found;
            let whole = rest[..len].ends_with(b"\n");
            #[cfg(test)]
            {
                self.touched += found;
            }
            if !ended && !whole {
                // No whole line is buffered.
                searched = len;
                match self.refill() {
                    Ok(read) => ended = !read,
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
            if len == 0 {
                // As `read_line`'s empty read takes a number.
                return None;
            }
            let start = self.pos;
            self.pos += len;
            match skipped(&self.buf[start..self.pos]) {
                Ok(true) => searched = 0,
                Ok(false) => break (start, self.pos),
                Err(error) => {
                    return Some(Err(LineError::Io {
                        line: self.line,
                        error,
                    }))
                }
            }
        };
        let line = &self.buf[start..end];
        Some(match std::str::from_utf8(line) {
            Ok(text) => Ok((self.line, Err(text.trim()))),
            Err(_) => Err(LineError::Io {
                line: self.line,
                error: not_utf8(line),
            }),
        })
    }

    /// Read on after the bytes not yet lent, which move to the front of
    /// the buffer unless they are there already: `Ok(false)` at the end
    /// of the stream. A failed read drops those bytes, the start of the
    /// line being read.
    fn refill(&mut self) -> std::io::Result<bool> {
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            #[cfg(test)]
            {
                self.touched += self.end - self.pos;
            }
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.buf.len() < self.end + CHUNK {
            self.buf.resize(self.end + CHUNK, 0);
        }
        loop {
            match self.reader.read(&mut self.buf[self.end..]) {
                Ok(read) => {
                    self.end += read;
                    return Ok(read > 0);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.end = 0;
                    return Err(e);
                }
            }
        }
    }
}

/// Whether `line` is blank or a `#` comment, which [`Lines`] skips. A
/// line that starts, after ASCII whitespace, with any other ASCII byte
/// is neither, and is checked as UTF-8 only when it is lent; any other
/// line is checked here.
fn skipped(line: &[u8]) -> std::io::Result<bool> {
    match line.iter().find(|b| !matches!(b, b'\t'..=b'\r' | b' ')) {
        Some(&b) if b.is_ascii() && b != b'#' => Ok(false),
        _ => match std::str::from_utf8(line) {
            Ok(text) => {
                let text = text.trim_start();
                Ok(text.is_empty() || text.starts_with('#'))
            }
            Err(_) => Err(not_utf8(line)),
        },
    }
}

/// The error `read_line` gives for `line`, which is not UTF-8.
fn not_utf8(mut line: &[u8]) -> std::io::Error {
    line.read_line(&mut String::new())
        .expect_err("the line is not UTF-8")
}

/// Iterator over the JSON documents of a line-oriented stream; see
/// [`parse_lines`].
pub struct ParsedLines<R> {
    lines: Lines<R>,
}

impl<R: BufRead> Iterator for ParsedLines<R> {
    type Item = Result<(usize, Json), LineError>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.lines.next_line()?.and_then(|(line, text)| {
            Json::parse(text)
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
    ParsedLines {
        lines: Lines::new(reader),
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
        visit_members(r#"{"plain":"a b","r\u0061nk":"x\ty","":""}"#, |k, v| {
            seen.push((k, v));
        })
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
        visit_members(text, |k, v| seen.push((k.into_owned(), v))).unwrap();
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
            visit_members(text, |_, _| calls += 1).unwrap();
            assert_eq!(calls, 0, "{text}");
        }
        let deep = format!("{{\"a\":{}", "[".repeat(200));
        let e = visit_members(&deep, |_, _| {}).unwrap_err();
        assert_eq!(e, Json::parse(&deep).unwrap_err());
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
    }

    /// What [`visit_members`] hands over for `text`, as owned pairs, or
    /// its error.
    fn visited(text: &str) -> Result<Vec<(String, Scalar<'_>)>, JsonError> {
        let mut seen = Vec::new();
        visit_members(text, |k, v| seen.push((k.into_owned(), v)))?;
        Ok(seen)
    }

    #[test]
    fn flat_members_hand_over_to_the_general_path_mid_line() {
        // Trace-like lines with one member in another form, probing the
        // points where a member leaves the written form: the visitor must
        // hand over what the tree parser builds, or fail with its error.
        let cases = [
            // Integers at and past the integer fast path's 15 digits.
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
            // Escapes in the middle of an otherwise plain line.
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
            // Other values between plain members.
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
        // `01` reads as 1, and `-0` keeps its sign.
        assert_eq!(visited(r#"{"a":01}"#).unwrap()[0].1, Scalar::Num(1.0));
        let zero = visited(r#"{"a":-0}"#).unwrap().remove(0).1;
        assert!(matches!(zero, Scalar::Num(n) if n.to_bits() == (-0.0f64).to_bits()));
        let e = visited(r#"{"rank":12"#).unwrap_err();
        assert_eq!((e.offset, e.message), (10, "expected ',' or '}'"));
    }

    #[test]
    fn line_cursor_lends_trimmed_content_lines() {
        let text = b"# c\n\n  {\"a\":1}\r\n\xff\n{\"b\":\"\xff\"}\n \t#x\nlast";
        let mut lines = Lines::new(&text[..]);
        assert_eq!(lines.next_line().unwrap().unwrap(), (3, "{\"a\":1}"));
        for bad in [4, 5] {
            match lines.next_line() {
                Some(Err(LineError::Io { line, .. })) if line == bad => {}
                other => panic!("expected an I/O error on line {bad}, got {other:?}"),
            }
        }
        assert_eq!(lines.next_line().unwrap().unwrap(), (7, "last"));
        assert!(lines.next_line().is_none());
    }

    /// Every line [`Lines::next_line_with`] lends out of `reader` with a
    /// decoder that claims `{a}` at the start of any line.
    fn claiming_braces(reader: impl BufRead) -> Vec<(usize, Result<(), String>)> {
        let mut lines = Lines::new(reader);
        let mut lent = Vec::new();
        while let Some(next) =
            lines.next_line_with(|rest| rest.starts_with(b"{a}").then_some(((), 3)))
        {
            let (line, value) = next.unwrap();
            lent.push((line, value.map_err(str::to_string)));
        }
        lent
    }

    #[test]
    fn a_decoded_line_is_taken_only_before_a_line_end() {
        let text = b"{a}x\n{a}\r\n{a}\r{a}\n\n{a}\n  {a}\n{a}";
        let text_line = |line, text: &str| (line, Err(text.to_string()));
        assert_eq!(
            claiming_braces(&text[..]),
            [
                text_line(1, "{a}x"),
                (2, Ok(())),
                text_line(3, "{a}\r{a}"),
                (5, Ok(())),
                text_line(6, "{a}"),
                (7, Ok(())),
            ]
        );
        // A read that ends right after the claimed bytes decides nothing:
        // the next one does.
        let split = std::io::Read::chain(&b"{a}"[..], &b"x\n{a}"[..]);
        assert_eq!(claiming_braces(split), [text_line(1, "{a}x"), (2, Ok(()))]);
    }

    /// A stream that hands out at most `.1` bytes per read.
    struct Drip<'a>(&'a [u8], usize);

    impl std::io::Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.1.min(buf.len()).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_long_line_read_in_small_pieces_is_searched_and_moved_once() {
        // Lines of 1 MiB and 2 MiB, in 61-byte reads (a `BufReader` hands
        // a read larger than its capacity straight through): a search
        // or a move per read over the whole line so far would touch
        // about 4.5 * 10^10 bytes.
        let long = "a".repeat(1 << 20);
        let longer = format!("{{a}}{}", "b".repeat(2 << 20));
        let text = format!("x\n{long}\r\n{longer}\n{{a}}");
        let reader = std::io::BufReader::new(Drip(text.as_bytes(), 61));
        let mut lines = Lines::new(reader);
        let mut lent = Vec::new();
        while let Some(next) =
            lines.next_line_with(|rest| rest.starts_with(b"{a}").then_some(((), 3)))
        {
            let (line, value) = next.unwrap();
            lent.push((line, value.map_err(str::len)));
        }
        assert_eq!(
            lent,
            [
                (1, Err(1)),
                (2, Err(long.len())),
                (3, Err(longer.len())),
                (4, Ok(()))
            ]
        );
        assert!(
            lines.touched <= 2 * text.len(),
            "{} bytes touched for {} read",
            lines.touched,
            text.len()
        );
    }

    #[test]
    fn depth_limit_is_exact() {
        // depth d value: d nested arrays around a scalar.
        let nested = |d: usize| format!("{}1{}", "[".repeat(d), "]".repeat(d));
        let parse = |text: &str, depth| Parser::with_depth(text, depth).document(Parser::value);
        assert!(parse(&nested(3), 3).is_ok());
        let e = parse(&nested(4), 3).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
        // Scalars never descend: limit 0 still parses them.
        assert_eq!(parse("42", 0).unwrap(), Json::Num(42.0));
        // Siblings do not accumulate: the budget is per-path, not global.
        assert!(parse("[[1],[2],[3]]", 2).is_ok());
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

    /// Everything [`Lines::next_line_with`] lends out of `reader` under
    /// [`toy_decoder`], in the form of [`read_line_cursor`].
    fn decoding_cursor(reader: impl BufRead, seed: u64) -> Vec<Result<(usize, String), String>> {
        let mut rng = TestRng::new(seed);
        let mut lines = Lines::new(reader);
        let mut out = Vec::new();
        while let Some(next) = lines.next_line_with(|rest| toy_decoder(rest, &mut rng)) {
            out.push(match next {
                Ok((line, Ok(claimed))) => Ok((line, claimed)),
                Ok((line, Err(text))) => Ok((line, text.to_string())),
                Err(LineError::Io { line, error }) => {
                    Err(format!("line {line}: {:?} {error}", error.kind()))
                }
                Err(e) => panic!("the cursor parses nothing: {e}"),
            });
        }
        out
    }

    /// A decoder that claims, at random, nothing, the content of the
    /// line that starts `rest`, a prefix of the line up to its end, or
    /// more bytes than `rest` holds, and holds the claimed bytes as its
    /// value. It keeps [`Lines::next_line_with`]'s contract and claims
    /// no bytes a whole line could not be: none that are not ASCII, no
    /// line end, no whitespace at either end, no leading `#`. So a claim
    /// short of the line's end, or of one that is buffered, must not be
    /// taken, and a claim past the buffered bytes never.
    fn toy_decoder(rest: &[u8], rng: &mut TestRng) -> Option<(String, usize)> {
        let end = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        let len = match rng.below(4) {
            0 => return None,
            1 => end - usize::from(rest[..end].ends_with(b"\r")),
            2 => rng.below(end + 1),
            _ => return Some((String::new(), rest.len() + 1 + rng.below(3))),
        };
        let claimed = &rest[..len];
        let whitespace = |b: &u8| b.is_ascii_whitespace() || *b == b'\x0b';
        let fits = claimed.is_ascii()
            && claimed
                .first()
                .is_some_and(|b| !whitespace(b) && *b != b'#')
            && claimed.last().is_some_and(|b| !whitespace(b));
        fits.then(|| (String::from_utf8(claimed.to_vec()).unwrap(), len))
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
            let visited =
                Parser::with_depth(&text, depth).members(|k, v| seen.push((k.into_owned(), v)));
            match Parser::with_depth(&text, depth).document(Parser::value) {
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
            // Whole, and a few bytes at a time with a failure; then with
            // a decoder that claims lines, parts of lines and more.
            prop_assert_eq!(chunked_cursor(&bytes[..]), read_line_cursor(&bytes[..]));
            prop_assert_eq!(chunked_cursor(stream()), read_line_cursor(stream()));
            prop_assert_eq!(decoding_cursor(&bytes[..], seed), read_line_cursor(&bytes[..]));
            prop_assert_eq!(decoding_cursor(stream(), seed), read_line_cursor(stream()));
        }
    }
}
