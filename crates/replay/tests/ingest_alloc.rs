//! Trace ingest allocates per rank, never per line.
//!
//! A counting global allocator tallies the allocations of a whole
//! `TraceReader` pass over an iteration-interleaved halo2d file. The
//! reader's buffers (the line buffer, the per-rank queues) are sized by
//! the longest line and by one iteration per rank, so a file eight times
//! as long must cost exactly as many allocations. A line that allocated
//! (a key or string copied out of the line, a tree built for it) would
//! add one per line and fail the comparison.
//!
//! This file holds a single test, so no other test thread allocates
//! while a pass is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mc_replay::generate::{GenParams, LazyGen};
use mc_replay::{EventSource, TraceReader};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only an atomic and allocates
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const RANKS: usize = 1024;

/// An interleaved halo2d file of `iters` iterations, written before any
/// allocation is counted.
fn halo2d_file(iters: usize) -> Vec<u8> {
    let params = GenParams {
        ranks: RANKS,
        iters,
        ..GenParams::default()
    };
    let mut bytes = Vec::new();
    LazyGen::new("halo2d", &params)
        .unwrap()
        .write_interleaved(&mut bytes)
        .unwrap();
    bytes
}

/// Allocations made by one pass over `bytes`, drained one event per
/// rank per sweep, and the number of events read.
fn allocations_of_a_pass(bytes: &[u8]) -> (usize, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut src = TraceReader::new(bytes).unwrap();
    let mut events = 0;
    loop {
        let mut any = false;
        for rank in 0..src.ranks() {
            if src.peek(rank).unwrap().is_some() {
                src.advance(rank);
                events += 1;
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    drop(src);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, events)
}

#[test]
fn a_pass_allocates_the_same_at_one_and_eight_iterations() {
    let (short, long) = (halo2d_file(1), halo2d_file(8));
    let (at_one, events_one) = allocations_of_a_pass(&short);
    let (at_eight, events_eight) = allocations_of_a_pass(&long);
    assert_eq!(events_eight, 8 * events_one);
    assert_eq!(
        at_one, at_eight,
        "{events_one} events cost {at_one} allocations, {events_eight} cost {at_eight}"
    );
    // A few per rank: round-robin draining lets each queue grow to one
    // iteration's events.
    assert!(at_one < 4 * RANKS, "{at_one} allocations for {RANKS} ranks");
}
