//! Synthetic trace generators for the communication patterns that
//! dominate HPC and distributed-training workloads: a 2D halo exchange,
//! a data-parallel training step (compute + ring allreduce), and a
//! pipeline of stages streaming microbatches. All generators are pure
//! functions of their parameters — the same [`GenParams`] always yields
//! the same byte-identical trace.
//!
//! Every pattern is defined *lazily* ([`LazyGen`]): a per-rank
//! iteration block plus a tag schedule, from which events are produced
//! on demand. The eager functions ([`halo2d`], [`allreduce_step`],
//! [`pipeline`]) collect the lazy form into a [`Trace`];
//! [`LazyGen::source`] feeds the replay engine directly and
//! [`LazyGen::write_interleaved`] streams the trace to disk — both in
//! memory bounded by ranks × events-per-iteration, independent of the
//! iteration count.
//!
//! Parameters come from users, so they obey the trace grammar's
//! ceilings: at most 2^20 ranks (the grammar's `MAX_RANKS`), at most 2^10
//! cores per compute phase (`mc_model::MAX_CORES`), and at most 2^24
//! events in a materialised trace. All are checked before anything is
//! allocated; a streamed trace has no event cap.

use std::fmt;
use std::io::{self, Write};

use mc_model::MAX_CORES;
use mc_topology::NumaId;

use crate::stream::EventSource;
use crate::trace::{write_event_line, CollectiveOp, EventKind, Trace, TraceError, MAX_RANKS};

/// Most events a materialised generated trace ([`by_name`],
/// [`LazyGen::try_collect`]) may hold. It sits far above every trace the
/// tests, CI and the benchmark generate.
const MAX_EVENTS: usize = 1 << 24;

/// Why a generator refused its parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// The name is not one of [`names`].
    UnknownPattern(String),
    /// The rank count lies outside `2..=MAX_RANKS`.
    Ranks(usize),
    /// A materialised trace would hold more than 2^24 events.
    TooManyEvents(usize),
    /// The per-phase core count lies outside `1..=MAX_CORES`.
    Cores(usize),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::UnknownPattern(p) => write!(
                f,
                "unknown pattern '{p}' (expected one of: {})",
                names().join(", ")
            ),
            GenError::Ranks(n) => write!(f, "ranks must be in 2..={MAX_RANKS}, got {n}"),
            GenError::Cores(n) => write!(f, "cores must be in 1..={MAX_CORES}, got {n}"),
            GenError::TooManyEvents(n) => write!(
                f,
                "the generated trace would hold {n} events, more than the {MAX_EVENTS} \
                 a materialised trace may hold"
            ),
        }
    }
}

impl std::error::Error for GenError {}

/// Knobs shared by every generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenParams {
    /// Number of ranks (≥ 2).
    pub ranks: usize,
    /// Iterations (halo steps, training steps, or microbatches).
    pub iters: usize,
    /// Cores per compute phase.
    pub cores: usize,
    /// Total bytes each compute phase moves through memory.
    pub compute_bytes: u64,
    /// Bytes per message (halo face, gradient buffer, or activation).
    pub comm_bytes: u64,
    /// NUMA node holding computation data.
    pub comp_numa: NumaId,
    /// NUMA node holding communication buffers.
    pub comm_numa: NumaId,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            ranks: 4,
            iters: 2,
            cores: 4,
            compute_bytes: 256 << 20,
            comm_bytes: 8 << 20,
            comp_numa: NumaId::new(0),
            comm_numa: NumaId::new(0),
        }
    }
}

/// The generator names accepted by [`by_name`] (and the CLI's
/// `--generate`).
pub fn names() -> &'static [&'static str] {
    &["halo2d", "allreduce", "pipeline"]
}

/// Look a generator up by name and materialise its trace.
pub fn by_name(name: &str, p: &GenParams) -> Result<Trace, GenError> {
    LazyGen::new(name, p)?.try_collect()
}

/// How a pattern's tags evolve across iterations (the iteration block
/// itself is tag-templated at iteration 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TagSchedule {
    /// Tags advance by a fixed stride per iteration (halo2d: 4
    /// directions per step).
    Stride(u32),
    /// The tag *is* the iteration index (pipeline microbatches).
    Iteration,
    /// Tags are unused (allreduce: collectives carry no tags).
    None,
}

/// A lazily-evaluated synthetic trace: one iteration block per rank
/// (the events of iteration 0) plus a [`TagSchedule`] mapping the block
/// onto later iterations. Holds ranks × block-size events, independent
/// of the iteration count — the memory form the streaming replay path
/// and [`write_interleaved`](LazyGen::write_interleaved) rely on.
pub struct LazyGen {
    iters: usize,
    schedule: TagSchedule,
    /// `blocks[r]` is rank `r`'s iteration-0 event block.
    blocks: Vec<Vec<EventKind>>,
}

impl LazyGen {
    /// Build the lazy form of pattern `name` (see [`names`]). Fails on
    /// an unknown name, a rank count outside `2..=MAX_RANKS` or a core
    /// count outside `1..=MAX_CORES`.
    pub fn new(name: &str, p: &GenParams) -> Result<LazyGen, GenError> {
        type Blocks = fn(&GenParams) -> Vec<Vec<EventKind>>;
        let (schedule, blocks): (TagSchedule, Blocks) = match name {
            "halo2d" => (TagSchedule::Stride(4), halo2d_blocks),
            "allreduce" => (TagSchedule::None, allreduce_blocks),
            "pipeline" => (TagSchedule::Iteration, pipeline_blocks),
            _ => return Err(GenError::UnknownPattern(name.to_string())),
        };
        if !(2..=MAX_RANKS).contains(&p.ranks) {
            return Err(GenError::Ranks(p.ranks));
        }
        if !(1..=MAX_CORES).contains(&p.cores) {
            return Err(GenError::Cores(p.cores));
        }
        Ok(LazyGen {
            iters: p.iters,
            schedule,
            blocks: blocks(p),
        })
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of events the full trace contains (saturating at
    /// `usize::MAX`).
    pub fn event_count(&self) -> usize {
        self.iters
            .saturating_mul(self.blocks.iter().map(Vec::len).sum::<usize>())
    }

    /// The `pos`-th event of rank `rank`'s `iter`-th iteration.
    fn event(&self, rank: usize, iter: usize, pos: usize) -> EventKind {
        let ev = self.blocks[rank][pos];
        match (self.schedule, ev) {
            (
                TagSchedule::Stride(stride),
                EventKind::Send {
                    peer,
                    numa,
                    bytes,
                    tag,
                },
            ) => EventKind::Send {
                peer,
                numa,
                bytes,
                tag: tag + stride * iter as u32,
            },
            (
                TagSchedule::Stride(stride),
                EventKind::Recv {
                    peer,
                    numa,
                    bytes,
                    tag,
                },
            ) => EventKind::Recv {
                peer,
                numa,
                bytes,
                tag: tag + stride * iter as u32,
            },
            (
                TagSchedule::Iteration,
                EventKind::Send {
                    peer, numa, bytes, ..
                },
            ) => EventKind::Send {
                peer,
                numa,
                bytes,
                tag: iter as u32,
            },
            (
                TagSchedule::Iteration,
                EventKind::Recv {
                    peer, numa, bytes, ..
                },
            ) => EventKind::Recv {
                peer,
                numa,
                bytes,
                tag: iter as u32,
            },
            (_, ev) => ev,
        }
    }

    /// Materialize the full trace, unless it would hold more than 2^24
    /// events.
    pub fn try_collect(&self) -> Result<Trace, GenError> {
        match self.event_count() {
            n if n > MAX_EVENTS => Err(GenError::TooManyEvents(n)),
            _ => Ok(self.collect()),
        }
    }

    /// Materialize the full trace with no event cap (the eager
    /// generators, for parameters that do not come from users).
    pub fn collect(&self) -> Trace {
        let events = (0..self.ranks())
            .map(|rank| {
                let block = self.blocks[rank].len();
                (0..self.iters)
                    .flat_map(|iter| (0..block).map(move |pos| (iter, pos)))
                    .map(|(iter, pos)| self.event(rank, iter, pos))
                    .collect()
            })
            .collect();
        Trace { events }
    }

    /// An [`EventSource`] over this pattern for the streaming replay
    /// path: per-rank `(iteration, position)` cursors, no trace ever
    /// materialized.
    pub fn source(&self) -> GenSource<'_> {
        GenSource {
            gen: self,
            cursors: vec![(0, 0); self.ranks()],
        }
    }

    /// Stream the trace as JSON lines: the `{"ranks":N}` header, then
    /// all ranks' events iteration-major (every rank's iteration 0,
    /// then iteration 1, …). Interleaving by iteration keeps a
    /// [`crate::stream::TraceReader`] replaying the file to bounded
    /// read-ahead. Returns the number of event lines written.
    pub fn write_interleaved<W: Write>(&self, out: &mut W) -> io::Result<usize> {
        writeln!(out, "{{\"ranks\":{}}}", self.ranks())?;
        let mut line = String::new();
        let mut written = 0;
        for iter in 0..self.iters {
            for rank in 0..self.ranks() {
                for pos in 0..self.blocks[rank].len() {
                    line.clear();
                    write_event_line(&mut line, rank, &self.event(rank, iter, pos));
                    line.push('\n');
                    out.write_all(line.as_bytes())?;
                    written += 1;
                }
            }
        }
        Ok(written)
    }
}

/// Lazy [`EventSource`] over a [`LazyGen`] — see [`LazyGen::source`].
pub struct GenSource<'a> {
    gen: &'a LazyGen,
    /// Per-rank `(iteration, position-in-block)` cursor.
    cursors: Vec<(usize, usize)>,
}

impl EventSource for GenSource<'_> {
    fn ranks(&self) -> usize {
        self.gen.ranks()
    }

    fn peek(&mut self, rank: usize) -> Result<Option<EventKind>, TraceError> {
        let (iter, pos) = self.cursors[rank];
        if iter >= self.gen.iters || self.gen.blocks[rank].is_empty() {
            return Ok(None);
        }
        Ok(Some(self.gen.event(rank, iter, pos)))
    }

    fn advance(&mut self, rank: usize) {
        let (iter, pos) = self.cursors[rank];
        self.cursors[rank] = if pos + 1 < self.gen.blocks[rank].len() {
            (iter, pos + 1)
        } else {
            (iter + 1, 0)
        };
    }
}

/// Largest divisor of `n` that is ≤ √n — the x-extent of the most
/// square process grid.
fn grid_x(n: usize) -> usize {
    let mut best = 1;
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            best = d;
        }
        d += 1;
    }
    best
}

/// 2D halo exchange on a `px × py` torus (the most square factorisation
/// of `ranks`). Each iteration: a compute phase, then a receive and a
/// send per grid neighbour, then a wait. Tags encode `(iteration,
/// direction of travel)` so the four messages crossing a rank never
/// mismatch, even on 2-wide axes where both neighbours are the same
/// rank. Axes of extent 1 are skipped (no self-messages).
pub fn halo2d(p: &GenParams) -> Trace {
    LazyGen::new("halo2d", p)
        .expect("valid generator parameters")
        .collect()
}

/// One halo iteration per rank, tagged for iteration 0 (the tag *is*
/// the direction of travel; later iterations stride by 4).
fn halo2d_blocks(p: &GenParams) -> Vec<Vec<EventKind>> {
    let px = grid_x(p.ranks);
    let py = p.ranks / px;
    let mut blocks: Vec<Vec<EventKind>> = vec![Vec::new(); p.ranks];
    for (rank, ev) in blocks.iter_mut().enumerate() {
        let (x, y) = (rank % px, rank / px);
        let east = y * px + (x + 1) % px;
        let west = y * px + (x + px - 1) % px;
        let north = ((y + 1) % py) * px + x;
        let south = ((y + py - 1) % py) * px + x;
        ev.push(EventKind::Compute {
            numa: p.comp_numa,
            cores: p.cores,
            bytes: p.compute_bytes,
        });
        // Directions of travel: 0 = eastward, 1 = westward,
        // 2 = northward, 3 = southward. A rank receives the eastward
        // message from its west neighbour, and so on.
        if px > 1 {
            ev.push(EventKind::Recv {
                peer: west,
                numa: p.comm_numa,
                bytes: p.comm_bytes,
                tag: 0,
            });
            ev.push(EventKind::Recv {
                peer: east,
                numa: p.comm_numa,
                bytes: p.comm_bytes,
                tag: 1,
            });
        }
        if py > 1 {
            ev.push(EventKind::Recv {
                peer: south,
                numa: p.comm_numa,
                bytes: p.comm_bytes,
                tag: 2,
            });
            ev.push(EventKind::Recv {
                peer: north,
                numa: p.comm_numa,
                bytes: p.comm_bytes,
                tag: 3,
            });
        }
        if px > 1 {
            ev.push(EventKind::Send {
                peer: east,
                numa: p.comm_numa,
                bytes: p.comm_bytes,
                tag: 0,
            });
            ev.push(EventKind::Send {
                peer: west,
                numa: p.comm_numa,
                bytes: p.comm_bytes,
                tag: 1,
            });
        }
        if py > 1 {
            ev.push(EventKind::Send {
                peer: north,
                numa: p.comm_numa,
                bytes: p.comm_bytes,
                tag: 2,
            });
            ev.push(EventKind::Send {
                peer: south,
                numa: p.comm_numa,
                bytes: p.comm_bytes,
                tag: 3,
            });
        }
        ev.push(EventKind::Wait);
    }
    blocks
}

/// Data-parallel training step: each iteration is a compute phase (the
/// forward/backward pass) followed by a ring allreduce of the gradient
/// buffer, then a wait.
pub fn allreduce_step(p: &GenParams) -> Trace {
    LazyGen::new("allreduce", p)
        .expect("valid generator parameters")
        .collect()
}

/// One training iteration per rank; every rank's block is identical and
/// tag-free (collectives match by program order, not tag).
fn allreduce_blocks(p: &GenParams) -> Vec<Vec<EventKind>> {
    let block = vec![
        EventKind::Compute {
            numa: p.comp_numa,
            cores: p.cores,
            bytes: p.compute_bytes,
        },
        EventKind::Collective {
            op: CollectiveOp::Allreduce,
            numa: p.comm_numa,
            bytes: p.comm_bytes,
        },
        EventKind::Wait,
    ];
    vec![block; p.ranks]
}

/// Pipeline of `ranks` stages streaming `iters` microbatches: each
/// stage receives an activation from its predecessor, computes, and
/// sends to its successor. The trace expresses the data dependencies
/// with waits — a stage's compute starts only after its receive
/// completed, and its send only after the compute — while the send
/// itself overlaps the next microbatch (drained by the next wait).
/// Tags carry the microbatch index so the stream never mismatches.
pub fn pipeline(p: &GenParams) -> Trace {
    LazyGen::new("pipeline", p)
        .expect("valid generator parameters")
        .collect()
}

/// One microbatch per stage, tagged for microbatch 0 (the
/// [`TagSchedule::Iteration`] schedule stamps later microbatches).
fn pipeline_blocks(p: &GenParams) -> Vec<Vec<EventKind>> {
    let last = p.ranks - 1;
    let mut blocks: Vec<Vec<EventKind>> = vec![Vec::new(); p.ranks];
    for (rank, program) in blocks.iter_mut().enumerate() {
        if rank > 0 {
            program.push(EventKind::Recv {
                peer: rank - 1,
                numa: p.comm_numa,
                bytes: p.comm_bytes,
                tag: 0,
            });
            program.push(EventKind::Wait);
        }
        program.push(EventKind::Compute {
            numa: p.comp_numa,
            cores: p.cores,
            bytes: p.compute_bytes,
        });
        program.push(EventKind::Wait);
        if rank < last {
            program.push(EventKind::Send {
                peer: rank + 1,
                numa: p.comm_numa,
                bytes: p.comm_bytes,
                tag: 0,
            });
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_factorisation_is_most_square() {
        assert_eq!(grid_x(4), 2);
        assert_eq!(grid_x(6), 2);
        assert_eq!(grid_x(9), 3);
        assert_eq!(grid_x(12), 3);
        assert_eq!(grid_x(7), 1); // prime: degenerate 1×7 ring
        assert_eq!(grid_x(2), 1);
    }

    #[test]
    fn generated_traces_validate() {
        for ranks in [2usize, 3, 4, 6, 8] {
            let p = GenParams {
                ranks,
                ..GenParams::default()
            };
            for name in names() {
                let t = by_name(name, &p).unwrap();
                t.validate()
                    .unwrap_or_else(|e| panic!("{name} ranks={ranks}: {e}"));
                assert_eq!(t.ranks(), ranks, "{name}");
            }
        }
        assert!(by_name("nope", &GenParams::default()).is_err());
    }

    #[test]
    fn halo_sends_and_recvs_pair_up() {
        // For every (src, dst, tag) send there must be exactly one
        // matching (dst, src, tag) recv.
        let t = halo2d(&GenParams {
            ranks: 6,
            iters: 3,
            ..GenParams::default()
        });
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for (rank, program) in t.events.iter().enumerate() {
            for ev in program {
                match ev {
                    EventKind::Send { peer, tag, .. } => sends.push((rank, *peer, *tag)),
                    EventKind::Recv { peer, tag, .. } => recvs.push((*peer, rank, *tag)),
                    _ => {}
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        assert_eq!(sends, recvs);
        assert!(!sends.is_empty());
    }

    #[test]
    fn prime_rank_counts_skip_the_degenerate_axis() {
        // 1×5 grid: only the y axis carries messages; no self-sends.
        let t = halo2d(&GenParams {
            ranks: 5,
            iters: 1,
            ..GenParams::default()
        });
        for (rank, program) in t.events.iter().enumerate() {
            for ev in program {
                if let EventKind::Send { peer, .. } | EventKind::Recv { peer, .. } = ev {
                    assert_ne!(*peer, rank);
                }
            }
        }
    }

    #[test]
    fn pipeline_endpoints_have_one_sided_traffic() {
        let t = pipeline(&GenParams {
            ranks: 3,
            iters: 2,
            ..GenParams::default()
        });
        // Stage 0 never receives; the last stage never sends.
        assert!(!t.events[0]
            .iter()
            .any(|e| matches!(e, EventKind::Recv { .. })));
        assert!(!t.events[2]
            .iter()
            .any(|e| matches!(e, EventKind::Send { .. })));
        // Interior stages do both.
        assert!(t.events[1]
            .iter()
            .any(|e| matches!(e, EventKind::Send { .. })));
        assert!(t.events[1]
            .iter()
            .any(|e| matches!(e, EventKind::Recv { .. })));
    }

    #[test]
    fn lazy_source_matches_the_collected_trace() {
        let p = GenParams {
            ranks: 6,
            iters: 3,
            ..GenParams::default()
        };
        for name in names() {
            let lazy = LazyGen::new(name, &p).unwrap();
            let trace = lazy.collect();
            assert_eq!(lazy.event_count(), trace.event_count(), "{name}");
            let mut src = lazy.source();
            assert_eq!(src.ranks(), trace.ranks(), "{name}");
            for (rank, program) in trace.events.iter().enumerate() {
                for ev in program {
                    assert_eq!(src.peek(rank).unwrap(), Some(*ev), "{name}");
                    src.advance(rank);
                }
                assert_eq!(src.peek(rank).unwrap(), None, "{name}");
            }
        }
    }

    #[test]
    fn write_interleaved_round_trips_through_the_eager_parser() {
        let p = GenParams {
            ranks: 4,
            iters: 3,
            ..GenParams::default()
        };
        for name in names() {
            let lazy = LazyGen::new(name, &p).unwrap();
            let mut bytes = Vec::new();
            let written = lazy.write_interleaved(&mut bytes).unwrap();
            assert_eq!(written, lazy.event_count(), "{name}");
            let text = String::from_utf8(bytes).unwrap();
            let parsed = Trace::from_json_lines(&text).unwrap();
            assert_eq!(parsed.events, lazy.collect().events, "{name}");
        }
    }

    #[test]
    fn parameters_obey_the_trace_grammar_ceilings() {
        let p = |ranks, iters| GenParams {
            ranks,
            iters,
            ..GenParams::default()
        };
        for name in names() {
            for ranks in [0, 1, MAX_RANKS + 1, 1_000_000_000_000] {
                let e = LazyGen::new(name, &p(ranks, 1)).err();
                assert_eq!(e, Some(GenError::Ranks(ranks)), "{name}");
            }
            let cores = |cores| GenParams { cores, ..p(4, 1) };
            for n in [0, MAX_CORES + 1, 10_000_000_000] {
                let e = LazyGen::new(name, &cores(n)).err();
                assert_eq!(e, Some(GenError::Cores(n)), "{name}");
            }
            assert!(LazyGen::new(name, &cores(MAX_CORES)).is_ok(), "{name}");
            // A huge iteration count streams, but does not materialise.
            let gen = LazyGen::new(name, &p(4, 1_000_000_000_000)).unwrap();
            assert!(gen.source().peek(0).unwrap().is_some(), "{name}");
            assert!(matches!(
                gen.try_collect(),
                Err(GenError::TooManyEvents(n)) if n > MAX_EVENTS
            ));
            assert_eq!(
                by_name(name, &p(4, usize::MAX)).err(),
                Some(GenError::TooManyEvents(usize::MAX)),
                "{name}"
            );
        }
        let e = by_name("zzz", &p(4, 1)).unwrap_err();
        assert_eq!(e, GenError::UnknownPattern("zzz".into()));
        assert!(e.to_string().contains("halo2d"), "{e}");
    }

    #[test]
    fn generators_are_deterministic() {
        let p = GenParams::default();
        for name in names() {
            let a = by_name(name, &p).unwrap().to_json_lines();
            let b = by_name(name, &p).unwrap().to_json_lines();
            assert_eq!(a, b, "{name}");
        }
    }
}
