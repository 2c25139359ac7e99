//! Streaming trace ingestion: event sources that feed the replay
//! engine one event at a time, so peak memory is bounded by the number
//! of *ranks*, not by the total number of events in the trace.
//!
//! The replay engine consumes events through the [`EventSource`]
//! abstraction — a per-rank peek/advance cursor. Three implementations
//! exist:
//!
//! * [`TraceSource`] — cursors over an in-memory [`Trace`] (the legacy
//!   path; [`crate::run_once`] wraps it);
//! * [`TraceReader`] — incremental JSON-lines parsing over any
//!   [`BufRead`], holding only the events read ahead of the engine's
//!   cursors (bounded for iteration-interleaved traces such as those
//!   the lazy generators write);
//! * [`crate::generate::GenSource`] — lazy synthetic generators that
//!   never materialize a trace at all.
//!
//! ## Stream grammar
//!
//! A streamed trace is the JSON-lines trace grammar of [`crate::trace`]
//! prefixed by one mandatory header line declaring the world size:
//!
//! ```text
//! {"ranks":4}
//! {"rank":0,"event":"compute","numa":0,"cores":4,"bytes":268435456}
//! ...
//! ```
//!
//! The header is required because a streaming reader cannot learn the
//! rank count by scanning the whole file first. [`Trace::from_json_lines`]
//! tolerates the same header, so streamed files remain valid eager
//! inputs.
//!
//! Both readers decode an event line in one pass when it is in the exact
//! form [`crate::trace::write_event_line`] writes; any other line, and
//! any line the schema rejects, is read again from its first byte by the
//! general JSON path, which alone decides what is accepted and how a
//! line fails.

use std::collections::VecDeque;
use std::io::BufRead;

use mc_json::Lines;

use crate::trace::{line_error, read_event, EventKind, Trace, TraceError, TraceLine};

/// A per-rank cursor over an event program, the replay engine's input
/// abstraction. `peek` returns rank `r`'s next event without consuming
/// it (`None` once `r`'s program is exhausted); `advance` consumes it.
/// The engine always advances the event it last peeked, so sources need
/// only one event of lookahead per rank.
pub trait EventSource {
    /// Number of ranks in the world this source describes (≥ 2).
    fn ranks(&self) -> usize;

    /// The next event of `rank`'s program, or `None` when the program
    /// is exhausted. Streaming sources may fail here with a parse or
    /// I/O error attributed to the offending line.
    fn peek(&mut self, rank: usize) -> Result<Option<EventKind>, TraceError>;

    /// Consume the event last returned by [`peek`](EventSource::peek).
    fn advance(&mut self, rank: usize);
}

/// [`EventSource`] over an in-memory [`Trace`]: one integer cursor per
/// rank.
pub struct TraceSource<'a> {
    trace: &'a Trace,
    cursors: Vec<usize>,
}

impl<'a> TraceSource<'a> {
    /// Wrap a trace. The trace should already be
    /// [validated](Trace::validate).
    pub fn new(trace: &'a Trace) -> Self {
        TraceSource {
            trace,
            cursors: vec![0; trace.ranks()],
        }
    }
}

impl EventSource for TraceSource<'_> {
    fn ranks(&self) -> usize {
        self.trace.ranks()
    }

    fn peek(&mut self, rank: usize) -> Result<Option<EventKind>, TraceError> {
        Ok(self.trace.events[rank].get(self.cursors[rank]).copied())
    }

    fn advance(&mut self, rank: usize) {
        self.cursors[rank] += 1;
    }
}

/// Streaming [`EventSource`] over a JSON-lines trace on any [`BufRead`]
/// (a file, a pipe, a decompressor). Events are parsed line by line;
/// each rank has a compact queue holding only the events read ahead of
/// the engine's cursor for that rank. For iteration-interleaved traces
/// (what [`crate::generate::LazyGen::write_interleaved`] emits) the
/// read-ahead stays bounded by one iteration per rank; a rank-major
/// file still replays correctly but buffers up to the whole program of
/// later ranks — [`peak_buffered`](TraceReader::peak_buffered) reports
/// the high-water mark so tests and benches can assert boundedness.
pub struct TraceReader<R> {
    lines: Lines<R>,
    ranks: usize,
    queues: Vec<VecDeque<EventKind>>,
    eof: bool,
    buffered: usize,
    peak_buffered: usize,
    events_seen: usize,
}

impl<R: BufRead> TraceReader<R> {
    /// Open a streamed trace: reads and checks the mandatory
    /// `{"ranks":N}` header line (comments and blank lines may precede
    /// it).
    pub fn new(reader: R) -> Result<Self, TraceError> {
        let mut lines = Lines::new(reader);
        let (line, text) = match lines.next_line() {
            None => return Err(TraceError::Empty),
            Some(r) => r.map_err(line_error)?,
        };
        let ranks = TraceLine::parse(text, line)?
            .header()?
            .ok_or_else(|| TraceError::Schema {
                line,
                message: "streaming replay needs a {\"ranks\":N} header as the first line \
                          (regenerate the trace with --stream, or replay without --stream)"
                    .into(),
            })?;
        if ranks < 2 {
            return Err(TraceError::TooFewRanks(ranks));
        }
        Ok(TraceReader {
            lines,
            ranks,
            queues: (0..ranks).map(|_| VecDeque::new()).collect(),
            eof: false,
            buffered: 0,
            peak_buffered: 0,
            events_seen: 0,
        })
    }

    /// High-water mark of events buffered ahead of the engine's cursors
    /// — the reader's memory footprint in events.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Total events parsed so far.
    pub fn events_seen(&self) -> usize {
        self.events_seen
    }

    /// Read lines until `rank`'s queue is non-empty or the stream ends.
    fn fill(&mut self, rank: usize) -> Result<(), TraceError> {
        while self.queues[rank].is_empty() && !self.eof {
            let (line, text) = match self.lines.next_line() {
                None => {
                    self.eof = true;
                    return Ok(());
                }
                Some(r) => r.map_err(line_error)?,
            };
            let (r, ev) = read_event(text, line)?;
            if r >= self.ranks {
                return Err(TraceError::Schema {
                    line,
                    message: format!("rank {r} outside the header's declared 0..{}", self.ranks),
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
            self.events_seen += 1;
            self.buffered += 1;
            self.peak_buffered = self.peak_buffered.max(self.buffered);
        }
        Ok(())
    }
}

impl<R: BufRead> EventSource for TraceReader<R> {
    fn ranks(&self) -> usize {
        self.ranks
    }

    fn peek(&mut self, rank: usize) -> Result<Option<EventKind>, TraceError> {
        self.fill(rank)?;
        Ok(self.queues[rank].front().copied())
    }

    fn advance(&mut self, rank: usize) {
        if self.queues[rank].pop_front().is_some() {
            self.buffered -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{self, GenParams};

    fn drain_round_robin<S: EventSource>(src: &mut S) -> Vec<Vec<EventKind>> {
        let mut out = vec![Vec::new(); src.ranks()];
        loop {
            let mut any = false;
            for (r, events) in out.iter_mut().enumerate() {
                if let Some(ev) = src.peek(r).unwrap() {
                    events.push(ev);
                    src.advance(r);
                    any = true;
                }
            }
            if !any {
                return out;
            }
        }
    }

    #[test]
    fn trace_source_walks_the_trace() {
        let trace = generate::halo2d(&GenParams::default());
        let mut src = TraceSource::new(&trace);
        assert_eq!(src.ranks(), trace.ranks());
        assert_eq!(drain_round_robin(&mut src), trace.events);
        // Exhausted cursors stay exhausted.
        assert_eq!(src.peek(0).unwrap(), None);
    }

    #[test]
    fn trace_reader_streams_a_headered_file() {
        let trace = generate::pipeline(&GenParams {
            ranks: 3,
            iters: 2,
            ..GenParams::default()
        });
        let text = format!("{{\"ranks\":3}}\n{}", trace.to_json_lines());
        let mut src = TraceReader::new(text.as_bytes()).unwrap();
        assert_eq!(src.ranks(), 3);
        assert_eq!(drain_round_robin(&mut src), trace.events);
        assert_eq!(src.events_seen(), trace.event_count());
    }

    #[test]
    fn trace_reader_requires_the_header() {
        let open = |bytes: &'static [u8]| TraceReader::new(bytes).map(|_| ()).unwrap_err();
        let e = open(b"{\"rank\":0,\"event\":\"wait\"}\n");
        assert!(matches!(e, TraceError::Schema { line: 1, .. }), "{e}");
        assert!(e.to_string().contains("header"), "{e}");
        assert_eq!(open(b""), TraceError::Empty);
        assert_eq!(open(b"{\"ranks\":1}\n"), TraceError::TooFewRanks(1));
        // A hostile rank count is a schema error, not an allocation.
        let e = open(b"{\"ranks\":4000000000000}\n{\"rank\":0,\"event\":\"wait\"}\n");
        assert!(matches!(e, TraceError::Schema { line: 1, .. }), "{e}");
        assert!(e.to_string().contains("implausible rank count"), "{e}");
    }

    #[test]
    fn trace_reader_validates_ranks_and_peers_per_line() {
        let text = "{\"ranks\":2}\n{\"rank\":5,\"event\":\"wait\"}\n";
        let mut src = TraceReader::new(text.as_bytes()).unwrap();
        let e = src.peek(0).unwrap_err();
        assert!(matches!(e, TraceError::Schema { line: 2, .. }), "{e}");

        let text =
            "{\"ranks\":2}\n{\"rank\":0,\"event\":\"send\",\"peer\":7,\"numa\":0,\"bytes\":1,\"tag\":0}\n";
        let mut src = TraceReader::new(text.as_bytes()).unwrap();
        assert_eq!(
            src.peek(0).unwrap_err(),
            TraceError::PeerOutOfRange {
                rank: 0,
                peer: 7,
                ranks: 2
            }
        );
    }

    #[test]
    fn interleaved_input_keeps_readahead_bounded() {
        // An iteration-interleaved stream drained round-robin buffers at
        // most ~one iteration block per rank, regardless of iters.
        let p = GenParams {
            ranks: 8,
            iters: 50,
            ..GenParams::default()
        };
        let lazy = generate::LazyGen::new("halo2d", &p).unwrap();
        let mut bytes = Vec::new();
        lazy.write_interleaved(&mut bytes).unwrap();
        let mut src = TraceReader::new(&bytes[..]).unwrap();
        let events = drain_round_robin(&mut src);
        let total: usize = events.iter().map(Vec::len).sum();
        assert_eq!(total, lazy.event_count());
        // 50 iterations × 8 ranks × 10 events = 4000 events; round-robin
        // draining holds well under one full iteration of all ranks.
        assert!(
            src.peak_buffered() <= 8 * 10,
            "peak readahead {} should be bounded by one iteration",
            src.peak_buffered()
        );
    }
}
