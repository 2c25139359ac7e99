//! A fast, non-keyed hasher for the simulators' hot point-query maps.
//!
//! [`FxHasher`] is the multiply-rotate word hash rustc uses for its own
//! tables: each word is xor-ed into the rotated state, then multiplied
//! by an odd constant. Sequential ids land in distinct buckets and the
//! multiply spreads them into the top bits that `HashMap` groups on.
//! Unlike std's SipHash `RandomState` it is neither seeded nor resistant
//! to crafted collisions, so [`FxMap`] is for keys the simulator assigns
//! (canonical stream multisets, sweep parameters), never for keys that
//! come from outside the program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The word-at-a-time multiply-rotate hasher behind [`FxMap`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    /// `HashMap` filters probes by the top 7 hash bits; an identity hash
    /// would put every small id in group 0.
    #[test]
    fn sequential_ids_spread_evenly_over_the_top_seven_bits() {
        let mut groups = [0u32; 128];
        for id in 0u64..1024 {
            groups[(fx(id) >> 57) as usize] += 1;
        }
        assert!(groups.iter().all(|g| (4..=12).contains(g)), "{groups:?}");
    }

    /// Unseeded, unlike `RandomState`: every hasher instance agrees.
    #[test]
    fn hashes_are_unseeded_and_see_every_word() {
        assert_eq!(fx((3usize, 7usize)), fx((3usize, 7usize)));
        assert_ne!(fx((3usize, 7usize)), fx((7usize, 3usize)));
        // The ninth byte falls in a partial trailing chunk.
        assert_ne!(fx(b"nine byte".as_slice()), fx(b"nine bytf".as_slice()));
    }
}
