//! Trace ingest against a tree-building reference.
//!
//! `Trace::from_json_lines` and `TraceReader` read trace lines without
//! building a `Json` tree. The reference below is the tree path they
//! replaced, kept verbatim but for the core ceiling added to the grammar
//! since: a recursive-descent parser into `Json` (per-character string
//! decoding, every number through `str::parse`), then the schema read off
//! the tree with `Json::get`. Both readers must
//! return exactly what the reference returns, events and errors alike,
//! down to line numbers, JSON error kinds and byte offsets:
//!
//! * on generated traces of every event kind with shuffled members,
//!   whitespace, duplicate and escaped keys, nested extra members past
//!   the depth limit, non-object lines, odd numbers, trailing commas and
//!   lines cut off inside a key or a number;
//! * on lines exactly as `write_event_line` writes them, which both
//!   readers decode in one pass, with values at and around every schema
//!   ceiling, and on such lines with one byte edit, which send the line
//!   back to the general path;
//! * on a deterministic fuzz pass over the committed golden trace and a
//!   generator-written file: seeded byte flips, truncations, inserted
//!   `\`, `"`, control bytes and invalid UTF-8. Every input ends in `Ok`
//!   or a typed `TraceError`, never a panic.

use std::collections::VecDeque;
use std::io::BufRead;

use mc_json::{Json, JsonError, JsonErrorKind, MAX_DEPTH};
use mc_replay::generate::{GenParams, LazyGen};
use mc_replay::trace::write_event_line;
use mc_replay::{CollectiveOp, EventKind, EventSource, Trace, TraceError, TraceReader};
use mc_topology::NumaId;
use proptest::prelude::*;
use proptest::TestRng;

/// The tree path: JSON parser, schema functions and both readers.
mod reference {
    use super::*;

    /// Recursive-descent parser into a `Json` tree.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth_left: MAX_DEPTH,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        depth_left: usize,
    }

    impl Parser<'_> {
        fn err(&self, message: &'static str) -> JsonError {
            JsonError {
                offset: self.pos,
                message,
                kind: JsonErrorKind::Syntax,
            }
        }

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

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(message))
            }
        }

        fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.err("invalid literal"))
            }
        }

        fn value(&mut self) -> Result<Json, JsonError> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                Some(_) => Err(self.err("unexpected character")),
                None => Err(self.err("unexpected end of input")),
            }
        }

        fn object(&mut self) -> Result<Json, JsonError> {
            self.descend()?;
            self.expect(b'{', "expected '{'")?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                self.depth_left += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':', "expected ':'")?;
                self.skip_ws();
                let value = self.value()?;
                members.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        self.depth_left += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }

        fn array(&mut self) -> Result<Json, JsonError> {
            self.descend()?;
            self.expect(b'[', "expected '['")?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                self.depth_left += 1;
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
                        self.depth_left += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }

        fn string(&mut self) -> Result<String, JsonError> {
            self.expect(b'"', "expected '\"'")?;
            let mut out = String::new();
            loop {
                let rest = std::str::from_utf8(&self.bytes[self.pos..])
                    .map_err(|_| self.err("invalid UTF-8"))?;
                let mut chars = rest.chars();
                let c = chars
                    .next()
                    .ok_or_else(|| self.err("unterminated string"))?;
                self.pos += c.len_utf8();
                match c {
                    '"' => return Ok(out),
                    '\\' => {
                        let esc = chars
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
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                self.pos += 4;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(self.err("unknown escape")),
                        }
                    }
                    c if (c as u32) < 0x20 => return Err(self.err("control character in string")),
                    c => out.push(c),
                }
            }
        }

        fn number(&mut self) -> Result<Json, JsonError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
            let n: f64 = text.parse().map_err(|_| JsonError {
                offset: start,
                message: "invalid number",
                kind: JsonErrorKind::Syntax,
            })?;
            if !n.is_finite() {
                return Err(JsonError {
                    offset: start,
                    message: "number out of range",
                    kind: JsonErrorKind::Syntax,
                });
            }
            Ok(Json::Num(n))
        }
    }

    fn schema(line: usize, message: impl Into<String>) -> TraceError {
        TraceError::Schema {
            line,
            message: message.into(),
        }
    }

    fn member_u64(v: &Json, key: &str, line: usize) -> Result<u64, TraceError> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| schema(line, format!("missing or non-integer `{key}`")))
    }

    fn member_numa(v: &Json, line: usize) -> Result<NumaId, TraceError> {
        let n = member_u64(v, "numa", line)?;
        u16::try_from(n)
            .map(NumaId::new)
            .map_err(|_| schema(line, format!("`numa` {n} out of range")))
    }

    /// The header's rank count, with the rank-count ceiling both readers
    /// enforce.
    fn header_ranks(v: &Json, line: usize) -> Result<Option<usize>, TraceError> {
        if v.get("event").is_some() || v.get("rank").is_some() {
            return Ok(None);
        }
        match v.get("ranks").and_then(Json::as_u64) {
            Some(n) if n > 1 << 20 => Err(schema(
                line,
                format!("implausible rank count {n} (at most {})", 1 << 20),
            )),
            n => Ok(n.map(|n| n as usize)),
        }
    }

    fn parse_event_line(v: &Json, line: usize) -> Result<(usize, EventKind), TraceError> {
        let rank = member_u64(v, "rank", line)? as usize;
        if rank >= 1 << 20 {
            return Err(schema(line, format!("implausible rank {rank}")));
        }
        let event = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| schema(line, "missing or non-string `event`"))?;
        let kind = match event {
            "compute" => {
                let cores = member_u64(v, "cores", line)? as usize;
                if cores == 0 {
                    return Err(schema(line, "`cores` must be >= 1"));
                }
                if cores > 1 << 10 {
                    return Err(schema(
                        line,
                        format!("`cores` must be at most 2^10 (1024) cores, got {cores}"),
                    ));
                }
                EventKind::Compute {
                    numa: member_numa(v, line)?,
                    cores,
                    bytes: member_u64(v, "bytes", line)?,
                }
            }
            "send" | "recv" => {
                let peer = member_u64(v, "peer", line)? as usize;
                if peer == rank {
                    return Err(schema(line, format!("rank {rank} messages itself")));
                }
                let numa = member_numa(v, line)?;
                let bytes = member_u64(v, "bytes", line)?;
                let tag = u32::try_from(member_u64(v, "tag", line)?)
                    .map_err(|_| schema(line, "`tag` out of u32 range"))?;
                if event == "send" {
                    EventKind::Send {
                        peer,
                        numa,
                        bytes,
                        tag,
                    }
                } else {
                    EventKind::Recv {
                        peer,
                        numa,
                        bytes,
                        tag,
                    }
                }
            }
            "collective" => {
                let op_name = v
                    .get("op")
                    .and_then(Json::as_str)
                    .ok_or_else(|| schema(line, "missing or non-string `op`"))?;
                let op = CollectiveOp::from_name(op_name).ok_or_else(|| {
                    schema(
                        line,
                        format!(
                            "unknown collective `{op_name}` \
                             (expected barrier|allreduce|allgather|broadcast)"
                        ),
                    )
                })?;
                EventKind::Collective {
                    op,
                    numa: member_numa(v, line)?,
                    bytes: member_u64(v, "bytes", line)?,
                }
            }
            "wait" => EventKind::Wait,
            other => {
                return Err(schema(
                    line,
                    format!(
                        "unknown event `{other}` \
                         (expected compute|send|recv|collective|wait)"
                    ),
                ))
            }
        };
        Ok((rank, kind))
    }

    /// The eager reader: whole text, optional header.
    pub fn from_json_lines(text: &str) -> Result<Trace, TraceError> {
        let mut per_rank: Vec<Vec<EventKind>> = Vec::new();
        let mut any = false;
        let mut first = true;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let v = parse(trimmed).map_err(|error| TraceError::Json { line, error })?;
            if first {
                first = false;
                if let Some(ranks) = header_ranks(&v, line)? {
                    per_rank.resize_with(ranks.max(per_rank.len()), Vec::new);
                    continue;
                }
            }
            let (rank, kind) = parse_event_line(&v, line)?;
            if per_rank.len() <= rank {
                per_rank.resize_with(rank + 1, Vec::new);
            }
            per_rank[rank].push(kind);
            any = true;
        }
        if !any {
            return Err(TraceError::Empty);
        }
        let trace = Trace { events: per_rank };
        trace.validate()?;
        Ok(trace)
    }

    /// `(line number, tree)` for each non-blank, non-comment line.
    struct TreeLines<R> {
        reader: R,
        line: usize,
        buf: String,
    }

    impl<R: BufRead> Iterator for TreeLines<R> {
        type Item = Result<(usize, Json), TraceError>;

        fn next(&mut self) -> Option<Self::Item> {
            loop {
                self.buf.clear();
                self.line += 1;
                let line = self.line;
                match self.reader.read_line(&mut self.buf) {
                    Ok(0) => return None,
                    Ok(_) => {}
                    Err(error) => {
                        return Some(Err(TraceError::Io {
                            line,
                            message: error.to_string(),
                        }))
                    }
                }
                let trimmed = self.buf.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                return Some(
                    parse(trimmed)
                        .map(|v| (line, v))
                        .map_err(|error| TraceError::Json { line, error }),
                );
            }
        }
    }

    /// The streaming reader: trees line by line, mandatory header.
    pub struct Reader<R> {
        lines: TreeLines<R>,
        ranks: usize,
        queues: Vec<VecDeque<EventKind>>,
        eof: bool,
    }

    impl<R: BufRead> Reader<R> {
        pub fn new(reader: R) -> Result<Self, TraceError> {
            let mut lines = TreeLines {
                reader,
                line: 0,
                buf: String::new(),
            };
            let (line, v) = match lines.next() {
                None => return Err(TraceError::Empty),
                Some(r) => r?,
            };
            let ranks = header_ranks(&v, line)?.ok_or_else(|| TraceError::Schema {
                line,
                message: "streaming replay needs a {\"ranks\":N} header as the first line \
                          (regenerate the trace with --stream, or replay without --stream)"
                    .into(),
            })?;
            if ranks < 2 {
                return Err(TraceError::TooFewRanks(ranks));
            }
            Ok(Reader {
                lines,
                ranks,
                queues: (0..ranks).map(|_| VecDeque::new()).collect(),
                eof: false,
            })
        }

        fn fill(&mut self, rank: usize) -> Result<(), TraceError> {
            while self.queues[rank].is_empty() && !self.eof {
                let (line, v) = match self.lines.next() {
                    None => {
                        self.eof = true;
                        return Ok(());
                    }
                    Some(r) => r?,
                };
                let (r, ev) = parse_event_line(&v, line)?;
                if r >= self.ranks {
                    return Err(TraceError::Schema {
                        line,
                        message: format!(
                            "rank {r} outside the header's declared 0..{}",
                            self.ranks
                        ),
                    });
                }
                if let EventKind::Send { peer, .. } | EventKind::Recv { peer, .. } = ev {
                    if peer >= self.ranks {
                        return Err(TraceError::PeerOutOfRange {
                            rank: r,
                            peer,
                            ranks: self.ranks,
                        });
                    }
                }
                self.queues[r].push_back(ev);
            }
            Ok(())
        }
    }

    impl<R: BufRead> EventSource for Reader<R> {
        fn ranks(&self) -> usize {
            self.ranks
        }

        fn peek(&mut self, rank: usize) -> Result<Option<EventKind>, TraceError> {
            self.fill(rank)?;
            Ok(self.queues[rank].front().copied())
        }

        fn advance(&mut self, rank: usize) {
            self.queues[rank].pop_front();
        }
    }
}

type Drained = Result<Vec<Vec<EventKind>>, TraceError>;

/// Drain a source round-robin, one event per rank per sweep: the order
/// the replay engine's first pass roughly follows, and the one that
/// makes the streaming reader buffer.
fn drain<S: EventSource>(source: Result<S, TraceError>) -> Drained {
    let mut src = source?;
    let mut out = vec![Vec::new(); src.ranks()];
    loop {
        let mut any = false;
        for (r, events) in out.iter_mut().enumerate() {
            if let Some(ev) = src.peek(r)? {
                events.push(ev);
                src.advance(r);
                any = true;
            }
        }
        if !any {
            return Ok(out);
        }
    }
}

/// Both readers on `bytes`, each checked against the reference.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let streamed = drain(TraceReader::new(bytes));
    prop_assert_eq!(&streamed, &drain(reference::Reader::new(bytes)));
    // The eager reader takes text; invalid UTF-8 becomes U+FFFD.
    let text = String::from_utf8_lossy(bytes);
    let eager = Trace::from_json_lines(&text);
    prop_assert_eq!(&eager, &reference::from_json_lines(&text));
    for e in [streamed.err(), eager.err()].into_iter().flatten() {
        prop_assert_eq!(e.category(), mc_model::ErrorCategory::InvalidData);
    }
    Ok(())
}

fn chance(rng: &mut TestRng, percent: usize) -> bool {
    rng.below(100) < percent
}

fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len())]
}

/// Number and non-number spellings a numeric member may take instead of
/// a plain integer. Those around the written form's bounds (15 and 16
/// digits, zeros, fractions, exponents, a control byte in a string) send
/// a line that is written-form up to them to the general parser.
const ODD_VALUES: &[&str] = &[
    "123456789012345",
    "0",
    "01",
    "1.0",
    "1e2",
    "\"a\u{1}b\"",
    "4.0",
    "1e3",
    "2E1",
    "-0",
    "007",
    "4.5",
    "-3",
    "1234567890123456",
    "9007199254740992",
    "9007199254740993",
    "18446744073709551616",
    "4294967296",
    "65536",
    "1024",
    "1025",
    "1e999",
    "0.",
    "-",
    "null",
    "true",
    "\"4\"",
    "[]",
    "{}",
];

/// `s` with one character spelled as a `\u` escape.
fn escape_one(rng: &mut TestRng, s: &str) -> String {
    if s.is_empty() {
        return String::new();
    }
    let at = rng.below(s.len());
    s.char_indices()
        .map(|(i, c)| {
            if i == at {
                format!("\\u{:04x}", c as u32)
            } else {
                c.to_string()
            }
        })
        .collect()
}

/// A value nested `depth` containers deep.
fn nested(rng: &mut TestRng, depth: usize) -> String {
    let mut s = String::from("1");
    for _ in 0..depth {
        s = if chance(rng, 50) {
            format!("[{s}]")
        } else {
            format!("{{\"n\":{s}}}")
        };
    }
    s
}

fn ws(rng: &mut TestRng) -> &'static str {
    pick(rng, &["", "", "", " ", "\t", "  "])
}

/// One event line of `ranks` ranks, with each mutation applied at
/// `rate` percent.
fn event_line(rng: &mut TestRng, ranks: usize, rate: usize) -> String {
    let rank = rng.below(ranks);
    let peer = (rank + 1 + rng.below(ranks - 1)) % ranks;
    let num = |n: usize| n.to_string();
    let string = |s: &str| format!("\"{s}\"");
    let mut members: Vec<(String, String)> = vec![("rank".into(), num(rank))];
    let event = pick(rng, &["compute", "send", "recv", "collective", "wait"]);
    members.push(("event".into(), string(event)));
    let numa = num(rng.below(3));
    let bytes = num(rng.below(1 << 20));
    match event {
        "compute" => {
            members.push(("numa".into(), numa));
            members.push(("cores".into(), num(rng.below(5))));
            members.push(("bytes".into(), bytes));
        }
        "send" | "recv" => {
            members.push(("peer".into(), num(peer)));
            members.push(("numa".into(), numa));
            members.push(("bytes".into(), bytes));
            members.push(("tag".into(), num(rng.below(4))));
        }
        "collective" => {
            let op = pick(
                rng,
                &["barrier", "allreduce", "allgather", "broadcast", "alltoall"],
            );
            members.push(("op".into(), string(op)));
            members.push(("numa".into(), numa));
            members.push(("bytes".into(), bytes));
        }
        _ => {}
    }
    for (key, value) in members.iter_mut() {
        if chance(rng, rate) {
            *value = pick(rng, ODD_VALUES).to_string();
        }
        if chance(rng, rate) {
            *key = escape_one(rng, key);
        }
        if chance(rng, rate) && value.starts_with('"') {
            *value = format!("\"{}\"", escape_one(rng, &value[1..value.len() - 1]));
        }
    }
    if chance(rng, rate) {
        members.remove(rng.below(members.len()));
    }
    if chance(rng, rate) && !members.is_empty() {
        // A duplicate before or after the original: the last one wins.
        let key = members[rng.below(members.len())].0.clone();
        let at = rng.below(members.len() + 1);
        members.insert(at, (key, pick(rng, ODD_VALUES).to_string()));
    }
    if chance(rng, rate) {
        let depth = [1, 3, MAX_DEPTH - 2, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 5][rng.below(6)];
        let at = rng.below(members.len() + 1);
        members.insert(at, ("extra".into(), nested(rng, depth)));
    }
    if chance(rng, rate) {
        members.push(("note".into(), string("a \\\"quoted\\\" é \\\\ note")));
    }
    // Shuffle member order.
    for i in (1..members.len()).rev() {
        members.swap(i, rng.below(i + 1));
    }
    let mut line = format!("{}{{", ws(rng));
    // Where each key and each number starts and ends, for cuts inside
    // them.
    let mut spans = Vec::new();
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(ws(rng));
        line.push('"');
        spans.push((line.len(), line.len() + key.len()));
        line.push_str(&format!("{key}\"{}:{}", ws(rng), ws(rng)));
        if value.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
            spans.push((line.len(), line.len() + value.len()));
        }
        line.push_str(value);
        line.push_str(ws(rng));
    }
    if chance(rng, rate) && !members.is_empty() {
        line.push(',');
    }
    line.push('}');
    line.push_str(ws(rng));
    if chance(rng, rate) && !spans.is_empty() {
        // Cut off inside a key or a number.
        let (start, end) = spans[rng.below(spans.len())];
        let mut at = start + rng.below(end - start + 1);
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        line.truncate(at);
    } else if chance(rng, rate) {
        let mut at = rng.below(line.len() + 1);
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        line.truncate(at);
    }
    line
}

/// Values at and around the ceilings a written line's integers meet:
/// `MAX_CORES` ± 1, the `u16` and `u32` limits, `MAX_RANKS`, 15 and 16
/// digits, and a 16-digit value that `f64` cannot hold.
const CEILINGS: &[&str] = &[
    "0",
    "1023",
    "1024",
    "1025",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "1048576",
    "999999999999999",
    "1000000000000000",
    "9007199254740993",
];

/// One event line of `ranks` ranks exactly as `write_event_line` writes
/// it, every kind and collective op among them; at `rate` percent one
/// integer member is set to a ceiling value, or a peer to its own rank.
fn written_line(rng: &mut TestRng, ranks: usize, rate: usize) -> String {
    let rank = rng.below(ranks);
    let peer = (rank + 1 + rng.below(ranks - 1)) % ranks;
    let numa = NumaId::new(rng.below(3) as u16);
    let bytes = rng.below(1 << 20) as u64;
    let tag = rng.below(4) as u32;
    let ev = match rng.below(5) {
        0 => EventKind::Compute {
            numa,
            cores: 1 + rng.below(4),
            bytes,
        },
        1 => EventKind::Send {
            peer,
            numa,
            bytes,
            tag,
        },
        2 => EventKind::Recv {
            peer,
            numa,
            bytes,
            tag,
        },
        3 => EventKind::Collective {
            op: [
                CollectiveOp::Barrier,
                CollectiveOp::Allreduce,
                CollectiveOp::Allgather,
                CollectiveOp::Broadcast,
            ][rng.below(4)],
            numa,
            bytes,
        },
        _ => EventKind::Wait,
    };
    let mut line = String::new();
    write_event_line(&mut line, rank, &ev);
    if chance(rng, rate) {
        let key = pick(rng, &["rank", "numa", "cores", "bytes", "peer", "tag"]);
        let rank = rank.to_string();
        let value = if key == "peer" && chance(rng, 30) {
            &rank
        } else {
            pick(rng, CEILINGS)
        };
        let head = format!("\"{key}\":");
        if let Some(start) = line.find(&head).map(|at| at + head.len()) {
            let end = start + line[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
            line.replace_range(start..end, value);
        }
    }
    line
}

/// `line` with one byte edit: a digit swapped for a non-digit, a byte
/// deleted or duplicated, a space inserted, a number grown to 16
/// digits, or the closing `}` dropped or followed by a byte.
fn edit_one(rng: &mut TestRng, line: &str) -> String {
    let mut bytes = line.as_bytes().to_vec();
    let at = rng.below(bytes.len());
    let digits: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit())
        .collect();
    match rng.below(6) {
        0 if !digits.is_empty() => {
            bytes[digits[rng.below(digits.len())]] = b".a- e"[rng.below(5)];
        }
        1 => {
            bytes.remove(at);
        }
        2 => bytes.insert(at, bytes[at]),
        3 => bytes.insert(rng.below(bytes.len() + 1), b' '),
        4 if !digits.is_empty() => {
            let start = digits[rng.below(digits.len())];
            let end = (start..bytes.len())
                .find(|&i| !bytes[i].is_ascii_digit())
                .unwrap();
            let grown = 16usize.saturating_sub(end - start).max(1);
            bytes.splice(end..end, std::iter::repeat_n(b'7', grown));
        }
        _ => {
            bytes.pop();
            if chance(rng, 50) {
                bytes.push(b'}');
                bytes.push(b"x},0 "[rng.below(5)]);
            }
        }
    }
    String::from_utf8(bytes).expect("every edit keeps an ASCII line ASCII")
}

/// A small trace text: usually a header, then event lines among blank,
/// comment and non-object lines. About 30 % of the event lines are
/// written lines, 14 % written lines with one byte edit, and the rest
/// shuffled.
fn trace_text(rng: &mut TestRng) -> String {
    let ranks = 2 + rng.below(3);
    let rate = [0, 2, 5, 15][rng.below(4)];
    let mut text = String::new();
    if chance(rng, 80) {
        let value = if chance(rng, rate) {
            pick(
                rng,
                &[
                    "4000000000000",
                    "1048577",
                    "1048576",
                    "1",
                    "0",
                    "2.5",
                    "null",
                ],
            )
            .to_string()
        } else {
            ranks.to_string()
        };
        let key = if chance(rng, rate) {
            "r\\u0061nks"
        } else {
            "ranks"
        };
        text.push_str(&format!("{{\"{key}\":{value}}}\n"));
    }
    for _ in 0..1 + rng.below(12) {
        if chance(rng, 8) {
            text.push_str(pick(rng, &["", "# comment", "   ", "\t# indented comment"]));
        } else if chance(rng, rate) {
            text.push_str(pick(
                rng,
                &["[1]", "42", "\"wait\"", "null", "{}", "{\"ranks\":2}"],
            ));
        } else if chance(rng, 30) {
            text.push_str(&written_line(rng, ranks, rate.max(5)));
        } else if chance(rng, 20) {
            let line = written_line(rng, ranks, rate);
            text.push_str(&edit_one(rng, &line));
        } else {
            text.push_str(&event_line(rng, ranks, rate));
        }
        text.push('\n');
    }
    text
}

/// One mutation of `bytes`: a bit flip, a truncation, or an inserted
/// `\`, `"`, control byte or invalid UTF-8 byte.
fn mutate(rng: &mut TestRng, bytes: &mut Vec<u8>) {
    let at = rng.below(bytes.len() + 1);
    match rng.below(6) {
        0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
        1 => bytes.truncate(at),
        2 => bytes.insert(at, b'\\'),
        3 => bytes.insert(at, b'"'),
        4 => bytes.insert(at, rng.below(0x20) as u8),
        _ => bytes.insert(at, [0xff, 0xc3, 0x80, 0xed][rng.below(4)]),
    }
}

fn golden_trace() -> Vec<u8> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/halo2d_2x2.trace.jsonl"
    );
    std::fs::read(path).expect("golden trace is committed")
}

fn generated_file() -> Vec<u8> {
    let params = GenParams {
        ranks: 4,
        iters: 2,
        ..GenParams::default()
    };
    let mut bytes = Vec::new();
    LazyGen::new("halo2d", &params)
        .unwrap()
        .write_interleaved(&mut bytes)
        .unwrap();
    bytes
}

#[test]
fn unmutated_inputs_read_identically() {
    for bytes in [golden_trace(), generated_file()] {
        check(&bytes).unwrap();
    }
    let golden = String::from_utf8(golden_trace()).unwrap();
    let trace = Trace::from_json_lines(&golden).unwrap();
    assert_eq!(
        trace.to_json_lines(),
        golden,
        "the golden trace round-trips"
    );
}

#[test]
fn a_huge_header_is_a_schema_error_in_both_readers() {
    let text = "{\"ranks\":4000000000000}\n{\"rank\":0,\"event\":\"wait\"}\n";
    let eager = Trace::from_json_lines(text).unwrap_err();
    let streamed = TraceReader::new(text.as_bytes()).map(|_| ()).unwrap_err();
    for e in [eager, streamed] {
        assert!(matches!(e, TraceError::Schema { line: 1, .. }), "{e}");
        assert!(e.to_string().contains("implausible rank count"), "{e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn generated_traces_read_as_the_tree_path_reads_them(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        check(trace_text(&mut rng).as_bytes())?;
    }

    #[test]
    fn fuzzed_golden_and_generated_files_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let mut bytes = if chance(&mut rng, 50) { golden_trace() } else { generated_file() };
        for _ in 0..1 + rng.below(4) {
            mutate(&mut rng, &mut bytes);
        }
        check(&bytes)?;
    }
}
