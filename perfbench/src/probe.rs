//! The frozen host probe behind drift correction.
//!
//! On a shared host the same code can run 40–80 % slower from one set of
//! runs to the next, because neighbours compete for cores, caches and
//! memory bandwidth. The probe is a fixed amount of work whose only
//! purpose is to measure how fast the host is *right now*. It has two
//! parts, timed together: allocation and ordered-map churn with a little
//! float math (60,000 inserts into a `BTreeMap` of at most 20,000
//! four-float vectors, a third of them followed by a removal), then
//! xorshift random read-modify-write over a 4 MiB buffer, four passes —
//! about 10 ms and 7 ms on a 2-vCPU cloud host. The simulators allocate,
//! chase pointers through maps and stream through memory, and the two
//! parts together slow as much as their ops do: timing the probe just
//! before each measured op and scaling the op by `probe_ref_s / probe_s`
//! reports every op in reference-host seconds, which cancels most of the
//! host's drift.
//!
//! **Frozen code.** The probe's code, sizes, pass count and seed must
//! never change: `probe_ref_s` in `reference.json` was measured with
//! exactly this code (and this toolchain's `BTreeMap` and allocator), and
//! every committed number is scaled by it. Changing the probe is a change
//! to the benchmark itself and requires re-measuring it and every
//! baseline.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Size of the probe buffer. Allocated and touched once, before any
/// set-up, so it is part of every workload's peak RSS in equal measure.
pub const PROBE_BYTES: usize = 4 << 20;

const WORDS: usize = PROBE_BYTES / std::mem::size_of::<u64>();
const PASSES: usize = 4;
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
/// Inserts of the churn part.
const INSERTS: u64 = 60_000;
/// Distinct keys of the churn part: the map's size bound.
const KEYS: u64 = 20_000;

/// The probe's buffer; [`Probe::run`] is the measurement.
pub struct Probe {
    buf: Vec<u64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Probe {
    /// Allocate and touch the buffer.
    pub fn new() -> Probe {
        Probe {
            buf: (0..WORDS as u64).collect(),
        }
    }

    /// Run the probe once and return its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = SEED;
        let mut map = BTreeMap::new();
        let mut acc = 0.0f64;
        for k in 0..INSERTS {
            let r = xorshift(&mut x);
            let v = vec![(r % 1000) as f64 * 1e-3; 4];
            acc += v.iter().sum::<f64>().sqrt();
            map.insert(r % KEYS, v);
            if k % 3 == 0 {
                map.remove(&(r.rotate_left(7) % KEYS));
            }
        }
        black_box((acc, map.len()));
        drop(map);
        let mask = WORDS - 1;
        let mut x = SEED;
        for _ in 0..PASSES * WORDS {
            let i = xorshift(&mut x) as usize & mask;
            self.buf[i] = self.buf[i].wrapping_add(x);
        }
        black_box(&self.buf);
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_is_a_power_of_two_words() {
        assert!(WORDS.is_power_of_two());
        assert_eq!(Probe::new().buf.len() * 8, PROBE_BYTES);
    }

    #[test]
    fn probe_takes_measurable_time() {
        let mut p = Probe::new();
        assert!(p.run() > 0.0);
    }
}
