//! The trace schema: a per-rank event program in JSON lines.
//!
//! A trace is the replayer's input language — one JSON object per line,
//! each describing one event of one rank:
//!
//! ```text
//! {"rank":0,"event":"compute","numa":0,"cores":4,"bytes":268435456}
//! {"rank":0,"event":"send","peer":1,"numa":1,"bytes":8388608,"tag":7}
//! {"rank":1,"event":"recv","peer":0,"numa":1,"bytes":8388608,"tag":7}
//! {"rank":0,"event":"collective","op":"allreduce","numa":0,"bytes":33554432}
//! {"rank":0,"event":"wait"}
//! ```
//!
//! Within a rank, events execute in file order; `compute`, `send` and
//! `recv` are *posted* asynchronously and only a `wait` (or the end of the
//! trace) blocks until everything outstanding on that rank has finished.
//! `collective` is collective: every rank must reach one with identical
//! `{op, numa, bytes}` for the program to progress.
//!
//! Parsing is strict and typed: any malformed line reports its 1-based
//! line number via [`TraceError`], which maps to the CLI's *invalid data*
//! exit code. [`Trace::to_json_lines`] writes the same grammar back out,
//! rank-major, and round-trips through [`Trace::from_json_lines`]
//! byte-for-byte modulo line order.

use std::borrow::Cow;
use std::fmt;

use mc_json::{visit_members, write_num, JsonError, LineError, Lines, Scalar, MAX_DEPTH};
use mc_model::ErrorCategory;
use mc_topology::NumaId;

/// A collective operation a trace line may request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveOp {
    /// Dissemination barrier (ignores `bytes`).
    Barrier,
    /// Ring allreduce of `bytes` per rank.
    Allreduce,
    /// Ring allgather of `bytes` contributed per rank.
    Allgather,
    /// Binomial broadcast of `bytes` from rank 0.
    Broadcast,
}

impl CollectiveOp {
    /// Every operation.
    pub const ALL: [CollectiveOp; 4] = [
        CollectiveOp::Barrier,
        CollectiveOp::Allreduce,
        CollectiveOp::Allgather,
        CollectiveOp::Broadcast,
    ];

    /// The JSON spelling of this operation.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveOp::Barrier => "barrier",
            CollectiveOp::Allreduce => "allreduce",
            CollectiveOp::Allgather => "allgather",
            CollectiveOp::Broadcast => "broadcast",
        }
    }

    /// Parse the JSON spelling.
    pub fn from_name(name: &str) -> Option<CollectiveOp> {
        match name {
            "barrier" => Some(CollectiveOp::Barrier),
            "allreduce" => Some(CollectiveOp::Allreduce),
            "allgather" => Some(CollectiveOp::Allgather),
            "broadcast" => Some(CollectiveOp::Broadcast),
            _ => None,
        }
    }
}

/// One event of one rank's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Start a compute phase: `cores` cores streaming `bytes` in total
    /// through `numa`.
    Compute {
        /// NUMA node holding the computation's data.
        numa: NumaId,
        /// Cores the phase runs on.
        cores: usize,
        /// Total bytes the phase moves through memory (split evenly
        /// across cores).
        bytes: u64,
    },
    /// Post a non-blocking send to `peer`.
    Send {
        /// Destination rank.
        peer: usize,
        /// NUMA node holding the send buffer.
        numa: NumaId,
        /// Message size.
        bytes: u64,
        /// Match tag.
        tag: u32,
    },
    /// Post a non-blocking receive from `peer`.
    Recv {
        /// Source rank.
        peer: usize,
        /// NUMA node holding the receive buffer.
        numa: NumaId,
        /// Buffer size.
        bytes: u64,
        /// Match tag.
        tag: u32,
    },
    /// Join a collective; all ranks must issue an identical one.
    Collective {
        /// Which collective.
        op: CollectiveOp,
        /// NUMA node holding the collective's buffers.
        numa: NumaId,
        /// Payload size (per the operation's convention).
        bytes: u64,
    },
    /// Block until everything this rank has posted so far completes.
    Wait,
}

impl EventKind {
    /// Short kind label (`compute`, `send`, `recv`, `collective`,
    /// `wait`) — the value of the JSON `event` member and of the
    /// `event` metric tag.
    pub fn kind_name(&self) -> &'static str {
        match self {
            EventKind::Compute { .. } => "compute",
            EventKind::Send { .. } => "send",
            EventKind::Recv { .. } => "recv",
            EventKind::Collective { .. } => "collective",
            EventKind::Wait => "wait",
        }
    }
}

/// A whole-application trace: one event program per rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// `events[r]` is rank `r`'s program, in execution order.
    pub events: Vec<Vec<EventKind>>,
}

/// Why a trace failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// A line was not valid JSON (including nesting past the depth
    /// limit).
    Json {
        /// 1-based line number.
        line: usize,
        /// The underlying parse error.
        error: JsonError,
    },
    /// A line parsed as JSON but violated the trace schema.
    Schema {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// Reading the trace from its stream failed (streaming ingestion
    /// only; whole-file parsing surfaces I/O failures before parsing
    /// starts).
    Io {
        /// 1-based line number being read when the failure hit.
        line: usize,
        /// The I/O error, rendered (kept as text so the error stays
        /// comparable and cloneable).
        message: String,
    },
    /// The trace contains no events at all.
    Empty,
    /// The trace names fewer than two ranks (a world needs ≥ 2).
    TooFewRanks(usize),
    /// A send/recv names a peer outside the trace's rank set.
    PeerOutOfRange {
        /// Rank whose event is invalid.
        rank: usize,
        /// The out-of-range peer.
        peer: usize,
        /// Number of ranks the trace defines.
        ranks: usize,
    },
}

impl TraceError {
    /// Coarse failure class — always invalid data; the CLI maps this to
    /// exit code 3.
    pub fn category(&self) -> ErrorCategory {
        ErrorCategory::InvalidData
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Json { line, error } => {
                write!(f, "trace line {line}: {error}")
            }
            TraceError::Schema { line, message } => {
                write!(f, "trace line {line}: {message}")
            }
            TraceError::Io { line, message } => {
                write!(f, "trace line {line}: read failed: {message}")
            }
            TraceError::Empty => write!(f, "trace has no events"),
            TraceError::TooFewRanks(n) => {
                write!(f, "trace defines {n} rank(s); a replay needs at least 2")
            }
            TraceError::PeerOutOfRange { rank, peer, ranks } => {
                write!(
                    f,
                    "rank {rank} names peer {peer}, but the trace defines ranks 0..{ranks}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

fn schema(line: usize, message: impl Into<String>) -> TraceError {
    TraceError::Schema {
        line,
        message: message.into(),
    }
}

/// Rank-count ceiling: a header may declare at most this many ranks, and
/// an event line naming a rank at or above it is implausible. It keeps a
/// hostile header from sizing per-rank state beyond memory. Generated
/// traces share the ceiling (see [`crate::generate::LazyGen::new`]).
pub(crate) const MAX_RANKS: usize = 1 << 20;

/// A failed line read, as the trace error it surfaces as.
pub(crate) fn line_error(e: LineError) -> TraceError {
    match e {
        LineError::Io { line, error } => TraceError::Io {
            line,
            message: error.to_string(),
        },
        LineError::Json { line, error } => TraceError::Json { line, error },
    }
}

/// The trace-line schema, read straight off the JSON text: the members
/// the schema knows are collected by [`mc_json::visit_members`] without
/// building a tree, the last of duplicate keys winning as with
/// [`mc_json::Json::get`]; unknown members are ignored. Each slot keeps
/// what the schema reads of its member: an integer slot the exact
/// non-negative integer (`None` if the member is missing or holds
/// anything else), a text slot the string, borrowed from the line unless
/// the JSON escapes it. Shared by the whole-file parser and the
/// streaming [`crate::stream::TraceReader`].
#[derive(Default)]
pub(crate) struct TraceLine<'a> {
    line: usize,
    /// Whether the line has a `rank` or an `event` member of any type,
    /// which a header does not.
    rank_or_event: bool,
    rank: Option<u64>,
    ranks: Option<u64>,
    event: Option<Cow<'a, str>>,
    op: Option<Cow<'a, str>>,
    numa: Option<u64>,
    cores: Option<u64>,
    bytes: Option<u64>,
    peer: Option<u64>,
    tag: Option<u64>,
}

impl<'a> TraceLine<'a> {
    /// Collect the members of line number `line`; only JSON errors fail
    /// here, the schema is checked by [`header`](Self::header) and
    /// [`event`](Self::event).
    #[inline]
    pub(crate) fn parse(text: &'a str, line: usize) -> Result<Self, TraceError> {
        let mut m = TraceLine {
            line,
            ..TraceLine::default()
        };
        visit_members(text, MAX_DEPTH, |key, value| match key.as_bytes() {
            b"rank" => {
                m.rank_or_event = true;
                m.rank = value.as_u64();
            }
            b"event" => {
                m.rank_or_event = true;
                m.event = string(value);
            }
            b"ranks" => m.ranks = value.as_u64(),
            b"op" => m.op = string(value),
            b"numa" => m.numa = value.as_u64(),
            b"cores" => m.cores = value.as_u64(),
            b"bytes" => m.bytes = value.as_u64(),
            b"peer" => m.peer = value.as_u64(),
            b"tag" => m.tag = value.as_u64(),
            _ => {}
        })
        .map_err(|error| TraceError::Json { line, error })?;
        Ok(m)
    }

    /// Is this line the optional `{"ranks":N}` stream header (an object
    /// declaring the rank count, with no `event` or `rank` member)? A
    /// header declaring more than [`MAX_RANKS`] is a schema error.
    pub(crate) fn header(&self) -> Result<Option<usize>, TraceError> {
        if self.rank_or_event {
            return Ok(None);
        }
        match self.ranks {
            Some(n) if n > MAX_RANKS as u64 => Err(schema(
                self.line,
                format!("implausible rank count {n} (at most {MAX_RANKS})"),
            )),
            n => Ok(n.map(|n| n as usize)),
        }
    }

    /// The line as one rank's event, enforcing the per-line schema.
    #[inline]
    pub(crate) fn event(&self) -> Result<(usize, EventKind), TraceError> {
        let rank = self.int(self.rank, "rank")? as usize;
        if rank >= MAX_RANKS {
            return Err(schema(self.line, format!("implausible rank {rank}")));
        }
        let event = self.text(&self.event, "event")?;
        let kind = match event.as_bytes() {
            b"compute" => {
                let cores = self.int(self.cores, "cores")? as usize;
                if cores == 0 {
                    return Err(schema(self.line, "`cores` must be >= 1"));
                }
                mc_model::core_count(cores)
                    .map_err(|e| schema(self.line, format!("`cores` {e}")))?;
                EventKind::Compute {
                    numa: self.numa()?,
                    cores,
                    bytes: self.int(self.bytes, "bytes")?,
                }
            }
            name @ (b"send" | b"recv") => {
                let peer = self.int(self.peer, "peer")? as usize;
                if peer == rank {
                    return Err(schema(self.line, format!("rank {rank} messages itself")));
                }
                let numa = self.numa()?;
                let bytes = self.int(self.bytes, "bytes")?;
                let tag = u32::try_from(self.int(self.tag, "tag")?)
                    .map_err(|_| schema(self.line, "`tag` out of u32 range"))?;
                if name == b"send" {
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
            b"collective" => {
                let op_name = self.text(&self.op, "op")?;
                let op = CollectiveOp::from_name(op_name).ok_or_else(|| {
                    schema(
                        self.line,
                        format!(
                            "unknown collective `{op_name}` \
                             (expected barrier|allreduce|allgather|broadcast)"
                        ),
                    )
                })?;
                EventKind::Collective {
                    op,
                    numa: self.numa()?,
                    bytes: self.int(self.bytes, "bytes")?,
                }
            }
            b"wait" => EventKind::Wait,
            _ => {
                return Err(schema(
                    self.line,
                    format!(
                        "unknown event `{event}` \
                         (expected compute|send|recv|collective|wait)"
                    ),
                ))
            }
        };
        Ok((rank, kind))
    }

    #[inline]
    fn int(&self, value: Option<u64>, key: &str) -> Result<u64, TraceError> {
        value.ok_or_else(|| schema(self.line, format!("missing or non-integer `{key}`")))
    }

    #[inline]
    fn text<'s>(&self, value: &'s Option<Cow<'_, str>>, key: &str) -> Result<&'s str, TraceError> {
        value
            .as_deref()
            .ok_or_else(|| schema(self.line, format!("missing or non-string `{key}`")))
    }

    #[inline]
    fn numa(&self) -> Result<NumaId, TraceError> {
        let n = self.int(self.numa, "numa")?;
        u16::try_from(n)
            .map(NumaId::new)
            .map_err(|_| schema(self.line, format!("`numa` {n} out of range")))
    }
}

/// The inverse of [`write_event_line`]: one forward scan of the bytes
/// of a line in exactly the writer's form (its member order, no
/// whitespace, each integer of 1–15 digits with no leading zero),
/// checked against every rule [`TraceLine::event`] applies, and the
/// number of bytes read through the closing `}`. Whether the line ends
/// there is the caller's to check. Any other byte, and any line the
/// schema rejects, answers `None`, never an error: the caller then reads
/// the line on the general path, which stays the one definition of what
/// a trace accepts and how it fails. Integers of at most 15 digits are
/// below 2^53, so each reads here as exactly the value the general
/// path's `f64` holds. The form is ASCII, so the bytes read are UTF-8.
/// It reads at most a bounded prefix of any line, so [`Lines`] may offer
/// it a long line once per read.
///
/// Both readers offer it every line through [`Lines::next_line_with`],
/// and read each line it declines with [`TraceLine`].
#[inline]
pub(crate) fn decode_written(bytes: &[u8]) -> Option<((usize, EventKind), usize)> {
    let mut s = Written(bytes);
    s.lit(b"{\"rank\":")?;
    let rank = s.int()? as usize;
    if rank >= MAX_RANKS {
        return None;
    }
    s.lit(b",\"event\":\"")?;
    let kind = if s.lit(b"compute\",\"numa\":").is_some() {
        let numa = s.numa()?;
        s.lit(b",\"cores\":")?;
        let cores = s.int()? as usize;
        if cores == 0 || mc_model::core_count(cores).is_err() {
            return None;
        }
        s.lit(b",\"bytes\":")?;
        let bytes = s.int()?;
        EventKind::Compute { numa, cores, bytes }
    } else if s.lit(b"collective\",\"op\":\"").is_some() {
        // No name is a prefix of another.
        let op = CollectiveOp::ALL
            .into_iter()
            .find(|op| s.lit(op.name().as_bytes()).is_some())?;
        s.lit(b"\",\"numa\":")?;
        let numa = s.numa()?;
        s.lit(b",\"bytes\":")?;
        let bytes = s.int()?;
        EventKind::Collective { op, numa, bytes }
    } else if s.lit(b"wait\"").is_some() {
        EventKind::Wait
    } else {
        let send = s.lit(b"send\",\"peer\":").is_some();
        if !send {
            s.lit(b"recv\",\"peer\":")?;
        }
        let peer = s.int()? as usize;
        if peer == rank {
            return None;
        }
        s.lit(b",\"numa\":")?;
        let numa = s.numa()?;
        s.lit(b",\"bytes\":")?;
        let bytes = s.int()?;
        s.lit(b",\"tag\":")?;
        let tag = u32::try_from(s.int()?).ok()?;
        if send {
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
    };
    s.lit(b"}")?;
    Some(((rank, kind), bytes.len() - s.0.len()))
}

/// The bytes of a written line not yet decoded.
struct Written<'a>(&'a [u8]);

impl Written<'_> {
    /// Step past `lit`, if the rest starts with it.
    #[inline]
    fn lit(&mut self, lit: &[u8]) -> Option<()> {
        self.0 = self.0.strip_prefix(lit)?;
        Some(())
    }

    /// Step past an integer of 1–15 digits, `0` or with no leading zero.
    /// Always inlined: as a call it cost about 15 % of a reader pass.
    #[inline(always)]
    fn int(&mut self) -> Option<u64> {
        let bytes = self.0;
        let mut n = 0;
        let mut digits = 0;
        while let Some(&b) = bytes.get(digits).filter(|b| b.is_ascii_digit()) {
            if digits == 15 {
                return None;
            }
            n = n * 10 + u64::from(b - b'0');
            digits += 1;
        }
        if digits == 0 || (digits > 1 && bytes[0] == b'0') {
            return None;
        }
        self.0 = &bytes[digits..];
        Some(n)
    }

    #[inline]
    fn numa(&mut self) -> Option<NumaId> {
        u16::try_from(self.int()?).ok().map(NumaId::new)
    }
}

/// The string a member holds, if it holds one.
fn string(value: Scalar<'_>) -> Option<Cow<'_, str>> {
    match value {
        Scalar::Str(s) => Some(s),
        _ => None,
    }
}

/// Append one event's JSON trace line (no trailing newline) to `out`.
/// The member order is fixed, so output is byte-stable;
/// [`Trace::to_json_lines`] and the streaming generator writer share
/// these bytes. Members are written straight into the output, numbers
/// through [`write_num`], so the bytes are those of a rendered
/// [`mc_json::Json`] object with the same members.
pub fn write_event_line(out: &mut String, rank: usize, ev: &EventKind) {
    fn num(out: &mut String, key: &str, n: f64) {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        write_num(out, n);
    }
    out.push_str("{\"rank\":");
    write_num(out, rank as f64);
    out.push_str(",\"event\":\"");
    out.push_str(ev.kind_name());
    out.push('"');
    match *ev {
        EventKind::Compute { numa, cores, bytes } => {
            num(out, "numa", numa.index() as f64);
            num(out, "cores", cores as f64);
            num(out, "bytes", bytes as f64);
        }
        EventKind::Send {
            peer,
            numa,
            bytes,
            tag,
        }
        | EventKind::Recv {
            peer,
            numa,
            bytes,
            tag,
        } => {
            num(out, "peer", peer as f64);
            num(out, "numa", numa.index() as f64);
            num(out, "bytes", bytes as f64);
            num(out, "tag", f64::from(tag));
        }
        EventKind::Collective { op, numa, bytes } => {
            out.push_str(",\"op\":\"");
            out.push_str(op.name());
            out.push('"');
            num(out, "numa", numa.index() as f64);
            num(out, "bytes", bytes as f64);
        }
        EventKind::Wait => {}
    }
    out.push('}');
}

impl Trace {
    /// Number of ranks (highest rank mentioned, plus one).
    pub fn ranks(&self) -> usize {
        self.events.len()
    }

    /// Total number of events across all ranks.
    pub fn event_count(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }

    /// Parse a JSON-lines trace. Blank lines and lines starting with `#`
    /// are skipped; an optional leading `{"ranks":N}` header (written by
    /// the streaming generators) declares the rank count; everything
    /// else must be one schema-conforming object.
    pub fn from_json_lines(text: &str) -> Result<Trace, TraceError> {
        let mut lines = Lines::new(text.as_bytes());
        let mut per_rank: Vec<Vec<EventKind>> = Vec::new();
        let mut any = false;
        let mut first = true;
        while let Some(next) = lines.next_line_with(decode_written) {
            let (line, event) = next.map_err(line_error)?;
            let may_be_header = std::mem::replace(&mut first, false);
            let (rank, kind) = match event {
                Ok(event) => event,
                Err(text) => {
                    let members = TraceLine::parse(text, line)?;
                    if may_be_header {
                        if let Some(ranks) = members.header()? {
                            // The header pre-declares ranks so a trailing
                            // rank with no events still counts toward the
                            // world size.
                            per_rank.resize_with(ranks, Vec::new);
                            continue;
                        }
                    }
                    members.event()?
                }
            };
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

    /// Check cross-line invariants: at least two ranks, every peer inside
    /// the rank set.
    pub fn validate(&self) -> Result<(), TraceError> {
        let ranks = self.ranks();
        if ranks < 2 {
            return Err(TraceError::TooFewRanks(ranks));
        }
        for (rank, program) in self.events.iter().enumerate() {
            for ev in program {
                if let EventKind::Send { peer, .. } | EventKind::Recv { peer, .. } = ev {
                    if *peer >= ranks {
                        return Err(TraceError::PeerOutOfRange {
                            rank,
                            peer: *peer,
                            ranks,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Render the trace back to JSON lines, rank-major (all of rank 0's
    /// events, then rank 1's, …). Deterministic: member order is fixed,
    /// so the output is byte-stable.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (rank, program) in self.events.iter().enumerate() {
            for ev in program {
                write_event_line(&mut out, rank, ev);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NumaId {
        NumaId::new(i)
    }

    #[test]
    fn parses_every_event_kind() {
        let text = r#"
            {"rank":0,"event":"compute","numa":0,"cores":4,"bytes":1024}
            {"rank":0,"event":"send","peer":1,"numa":1,"bytes":64,"tag":7}
            {"rank":1,"event":"recv","peer":0,"numa":1,"bytes":64,"tag":7}
            {"rank":0,"event":"collective","op":"barrier","numa":0,"bytes":0}
            {"rank":1,"event":"collective","op":"barrier","numa":0,"bytes":0}
            {"rank":0,"event":"wait"}
        "#;
        let t = Trace::from_json_lines(text).unwrap();
        assert_eq!(t.ranks(), 2);
        assert_eq!(t.event_count(), 6);
        assert_eq!(
            t.events[0][0],
            EventKind::Compute {
                numa: n(0),
                cores: 4,
                bytes: 1024
            }
        );
        assert_eq!(
            t.events[1][1],
            EventKind::Collective {
                op: CollectiveOp::Barrier,
                numa: n(0),
                bytes: 0
            }
        );
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text =
            "# a halo trace\n\n{\"rank\":0,\"event\":\"wait\"}\n{\"rank\":1,\"event\":\"wait\"}\n";
        assert_eq!(Trace::from_json_lines(text).unwrap().event_count(), 2);
    }

    #[test]
    fn bad_json_reports_the_line_number() {
        let text = "{\"rank\":0,\"event\":\"wait\"}\n{oops\n";
        match Trace::from_json_lines(text) {
            Err(TraceError::Json { line: 2, .. }) => {}
            other => panic!("expected Json error at line 2, got {other:?}"),
        }
    }

    #[test]
    fn unknown_event_and_unknown_collective_are_schema_errors() {
        let bad_event = "{\"rank\":0,\"event\":\"sleep\"}";
        assert!(matches!(
            Trace::from_json_lines(bad_event),
            Err(TraceError::Schema { line: 1, .. })
        ));
        let bad_op =
            "{\"rank\":0,\"event\":\"collective\",\"op\":\"alltoall\",\"numa\":0,\"bytes\":1}";
        let err = Trace::from_json_lines(bad_op).unwrap_err();
        assert!(err.to_string().contains("alltoall"), "{err}");
    }

    #[test]
    fn self_message_and_bad_peer_are_rejected() {
        let self_msg =
            "{\"rank\":0,\"event\":\"send\",\"peer\":0,\"numa\":0,\"bytes\":1,\"tag\":0}";
        assert!(matches!(
            Trace::from_json_lines(self_msg),
            Err(TraceError::Schema { .. })
        ));
        let bad_peer =
            "{\"rank\":0,\"event\":\"send\",\"peer\":9,\"numa\":0,\"bytes\":1,\"tag\":0}\n\
                        {\"rank\":1,\"event\":\"wait\"}";
        assert_eq!(
            Trace::from_json_lines(bad_peer),
            Err(TraceError::PeerOutOfRange {
                rank: 0,
                peer: 9,
                ranks: 2
            })
        );
    }

    #[test]
    fn single_rank_traces_are_rejected() {
        let text = "{\"rank\":0,\"event\":\"wait\"}";
        assert_eq!(
            Trace::from_json_lines(text),
            Err(TraceError::TooFewRanks(1))
        );
        assert_eq!(Trace::from_json_lines(""), Err(TraceError::Empty));
    }

    #[test]
    fn json_lines_round_trip() {
        let t = Trace {
            events: vec![
                vec![
                    EventKind::Compute {
                        numa: n(0),
                        cores: 3,
                        bytes: 999,
                    },
                    EventKind::Send {
                        peer: 1,
                        numa: n(1),
                        bytes: 4096,
                        tag: 42,
                    },
                    EventKind::Wait,
                ],
                vec![
                    EventKind::Recv {
                        peer: 0,
                        numa: n(1),
                        bytes: 4096,
                        tag: 42,
                    },
                    EventKind::Collective {
                        op: CollectiveOp::Allreduce,
                        numa: n(0),
                        bytes: 1 << 20,
                    },
                    EventKind::Wait,
                ],
            ],
        };
        let text = t.to_json_lines();
        let back = Trace::from_json_lines(&text).unwrap();
        assert_eq!(back, t);
        // And the writer is byte-stable.
        assert_eq!(back.to_json_lines(), text);
    }

    #[test]
    fn ranks_header_is_tolerated_and_declares_trailing_ranks() {
        let text =
            "{\"ranks\":2}\n{\"rank\":0,\"event\":\"wait\"}\n{\"rank\":1,\"event\":\"wait\"}\n";
        let t = Trace::from_json_lines(text).unwrap();
        assert_eq!(t.ranks(), 2);
        assert_eq!(t.event_count(), 2);
        // A header can declare more ranks than the events mention; the
        // extra ranks exist with empty programs.
        let text =
            "{\"ranks\":3}\n{\"rank\":0,\"event\":\"wait\"}\n{\"rank\":1,\"event\":\"wait\"}\n";
        let t = Trace::from_json_lines(text).unwrap();
        assert_eq!(t.ranks(), 3);
        assert!(t.events[2].is_empty());
        // Only the first non-comment line can be a header.
        let text = "{\"rank\":0,\"event\":\"wait\"}\n{\"ranks\":2}\n";
        assert!(matches!(
            Trace::from_json_lines(text),
            Err(TraceError::Schema { line: 2, .. })
        ));
    }

    #[test]
    fn a_header_above_the_rank_ceiling_is_rejected() {
        for ranks in [MAX_RANKS as u64 + 1, 4_000_000_000_000] {
            let text = format!("{{\"ranks\":{ranks}}}\n{{\"rank\":0,\"event\":\"wait\"}}\n");
            match Trace::from_json_lines(&text) {
                Err(TraceError::Schema { line: 1, message }) => {
                    assert!(message.contains("implausible rank count"), "{message}");
                }
                other => panic!("expected a schema error on line 1, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_compute_line_above_the_core_ceiling_is_rejected() {
        let line = |cores: u64| {
            format!(
                "{{\"ranks\":2}}\n\
                 {{\"rank\":0,\"event\":\"compute\",\"numa\":0,\"cores\":{cores},\"bytes\":1000000}}\n"
            )
        };
        assert!(Trace::from_json_lines(&line(mc_model::MAX_CORES as u64)).is_ok());
        for cores in [mc_model::MAX_CORES as u64 + 1, 10_000_000_000] {
            match Trace::from_json_lines(&line(cores)) {
                Err(TraceError::Schema { line: 2, message }) => {
                    assert!(message.contains("2^10"), "{message}");
                }
                other => panic!("expected a schema error on line 2, got {other:?}"),
            }
        }
    }

    /// The tree rendering the direct writer replaced.
    fn tree_line(rank: usize, ev: &EventKind) -> String {
        use mc_json::{obj, Json};
        let r = ("rank", Json::Num(rank as f64));
        let json = match ev {
            EventKind::Compute { numa, cores, bytes } => obj(vec![
                r,
                ("event", Json::Str("compute".into())),
                ("numa", Json::Num(numa.index() as f64)),
                ("cores", Json::Num(*cores as f64)),
                ("bytes", Json::Num(*bytes as f64)),
            ]),
            EventKind::Send {
                peer,
                numa,
                bytes,
                tag,
            }
            | EventKind::Recv {
                peer,
                numa,
                bytes,
                tag,
            } => obj(vec![
                r,
                ("event", Json::Str(ev.kind_name().into())),
                ("peer", Json::Num(*peer as f64)),
                ("numa", Json::Num(numa.index() as f64)),
                ("bytes", Json::Num(*bytes as f64)),
                ("tag", Json::Num(*tag as f64)),
            ]),
            EventKind::Collective { op, numa, bytes } => obj(vec![
                r,
                ("event", Json::Str("collective".into())),
                ("op", Json::Str(op.name().into())),
                ("numa", Json::Num(numa.index() as f64)),
                ("bytes", Json::Num(*bytes as f64)),
            ]),
            EventKind::Wait => obj(vec![r, ("event", Json::Str("wait".into()))]),
        };
        json.render()
    }

    #[test]
    fn direct_writer_matches_the_tree_rendering_at_boundaries() {
        let counts = [0, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX];
        let numas = [n(0), n(u16::MAX)];
        let tags = [0, u32::MAX];
        let mut events = vec![EventKind::Wait];
        for &bytes in &counts {
            let wide = bytes as usize;
            for &numa in &numas {
                events.push(EventKind::Compute {
                    numa,
                    cores: wide.max(1),
                    bytes,
                });
                for op in [
                    CollectiveOp::Barrier,
                    CollectiveOp::Allreduce,
                    CollectiveOp::Allgather,
                    CollectiveOp::Broadcast,
                ] {
                    events.push(EventKind::Collective { op, numa, bytes });
                }
                for &tag in &tags {
                    events.push(EventKind::Send {
                        peer: wide,
                        numa,
                        bytes,
                        tag,
                    });
                    events.push(EventKind::Recv {
                        peer: wide,
                        numa,
                        bytes,
                        tag,
                    });
                }
            }
        }
        for rank in counts.map(|c| c as usize) {
            for ev in &events {
                let mut line = String::new();
                write_event_line(&mut line, rank, ev);
                assert_eq!(line, tree_line(rank, ev), "{ev:?}");
            }
        }
    }

    /// The general path on one event line.
    fn general(line: &str) -> Result<(usize, EventKind), TraceError> {
        TraceLine::parse(line, 1)?.event()
    }

    /// Each line of a trace as both readers read it: decoded in place by
    /// the line cursor, or lent as text to the general path.
    fn read(text: &str) -> Vec<Result<(usize, EventKind), TraceError>> {
        let mut lines = Lines::new(text.as_bytes());
        let mut read = Vec::new();
        while let Some(next) = lines.next_line_with(decode_written) {
            let (line, event) = next.unwrap();
            read.push(event.or_else(|text| TraceLine::parse(text, line)?.event()));
        }
        read
    }

    /// One valid event of each kind, every collective op among them.
    fn one_of_each_kind() -> Vec<EventKind> {
        let mut events = vec![
            EventKind::Compute {
                numa: n(1),
                cores: 4,
                bytes: 1024,
            },
            EventKind::Send {
                peer: 3,
                numa: n(0),
                bytes: 64,
                tag: 7,
            },
            EventKind::Recv {
                peer: 0,
                numa: n(1),
                bytes: 64,
                tag: 7,
            },
            EventKind::Wait,
        ];
        for op in CollectiveOp::ALL {
            events.push(EventKind::Collective {
                op,
                numa: n(2),
                bytes: 1 << 20,
            });
        }
        events
    }

    /// `line` with the integer of member `key` spelled `value`.
    fn with_member(line: &str, key: &str, value: &str) -> Option<String> {
        let head = format!("\"{key}\":");
        let start = line.find(&head)? + head.len();
        let end = start + line[start..].find(|c: char| !c.is_ascii_digit())?;
        Some(format!("{}{value}{}", &line[..start], &line[end..]))
    }

    /// Each kind's line as [`write_event_line`] writes it for rank 2,
    /// then with each integer member in turn at and around every ceiling
    /// the schema checks: `MAX_RANKS`, `MAX_CORES` ± 1, the `u16` and
    /// `u32` limits, 15 and 16 digits, a value `f64` cannot hold, and a
    /// peer equal to the rank.
    fn written_lines() -> Vec<String> {
        const VALUES: &[&str] = &[
            "0",
            "1",
            "2",
            "1023",
            "1024",
            "1025",
            "65535",
            "65536",
            "1048575",
            "1048576",
            "4294967295",
            "4294967296",
            "999999999999999",
            "1000000000000000",
            "9007199254740993",
        ];
        let mut lines = Vec::new();
        for ev in one_of_each_kind() {
            let mut line = String::new();
            write_event_line(&mut line, 2, &ev);
            for key in ["rank", "numa", "cores", "bytes", "peer", "tag"] {
                lines.extend(VALUES.iter().filter_map(|v| with_member(&line, key, v)));
            }
            lines.push(line);
        }
        lines
    }

    /// `line` with one byte edit: each byte deleted, duplicated or
    /// preceded by another byte, each digit swapped for a non-digit, and
    /// bytes after the closing `}`.
    fn one_byte_edits(line: &str) -> Vec<String> {
        let mut edits = Vec::new();
        for at in 0..=line.len() {
            for byte in [" ", "0", "7", "x", "}", ",", "\""] {
                edits.push(format!("{}{byte}{}", &line[..at], &line[at..]));
            }
            if at < line.len() {
                let (head, tail) = (&line[..at], &line[at + 1..]);
                let byte = &line[at..at + 1];
                edits.push(format!("{head}{tail}"));
                edits.push(format!("{head}{byte}{byte}{tail}"));
                if byte.as_bytes()[0].is_ascii_digit() {
                    edits.push(format!("{head}.{tail}"));
                    edits.push(format!("{head}a{tail}"));
                }
            }
        }
        edits
    }

    #[test]
    fn the_decoder_answers_as_the_general_path_on_written_lines() {
        // Every event line a generator writes is taken.
        let p = crate::generate::GenParams {
            ranks: 6,
            iters: 2,
            ..Default::default()
        };
        for name in crate::generate::names() {
            let mut bytes = Vec::new();
            let lazy = crate::generate::LazyGen::new(name, &p).unwrap();
            lazy.write_interleaved(&mut bytes).unwrap();
            for line in String::from_utf8(bytes).unwrap().lines().skip(1) {
                let whole = Some((general(line).unwrap(), line.len()));
                assert_eq!(decode_written(line.as_bytes()), whole, "{line}");
            }
        }

        // On each kind's written line, and on it with a value at each
        // ceiling, the decoder takes exactly the lines the general path
        // accepts whose integers have at most 15 digits, and reads each
        // as the general path does.
        let written = written_lines();
        for line in &written {
            let short = line
                .split(|c: char| !c.is_ascii_digit())
                .all(|digits| digits.len() <= 15);
            let expected = general(line).ok().filter(|_| short);
            let taken = decode_written(line.as_bytes()).map(|(event, len)| {
                assert_eq!(len, line.len(), "{line}");
                event
            });
            assert_eq!(taken, expected, "{line}");
        }

        // Whatever the decoder takes off an edited line, the general
        // path reads the same, and the readers read every edited line as
        // the general path does: bytes after the `}` are not taken.
        let mut edited = 0;
        for line in &written {
            let edits = one_byte_edits(line);
            for edit in &edits {
                if let Some((event, len)) = decode_written(edit.as_bytes()) {
                    assert_eq!(general(&edit[..len]), Ok(event), "{edit}");
                    edited += 1;
                }
            }
            let read = read(&edits.join("\n"));
            assert_eq!(read.len(), edits.len());
            for (at, (edit, read)) in edits.iter().zip(read).enumerate() {
                let general = TraceLine::parse(edit.trim(), at + 1).and_then(|l| l.event());
                assert_eq!(read, general, "{edit}");
            }
        }
        // Some edits stay in the written form (a digit doubled, say).
        assert!(edited > 0);
    }

    #[test]
    fn deep_nesting_in_a_trace_line_is_a_typed_error() {
        let mut line = String::from("{\"rank\":0,\"event\":\"wait\",\"x\":");
        line.push_str(&"[".repeat(10_000));
        match Trace::from_json_lines(&line) {
            Err(TraceError::Json { line: 1, error }) => {
                assert_eq!(error.kind, mc_json::JsonErrorKind::TooDeep);
            }
            other => panic!("expected TooDeep at line 1, got {other:?}"),
        }
    }
}
