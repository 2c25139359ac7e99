//! Deterministic measurement noise.
//!
//! Real benchmark runs show small run-to-run variability. We reproduce it
//! with a *stateless* generator: the multiplier for a sample is a pure
//! function of `(seed, tags…)`, so results are identical regardless of the
//! order in which sweep points are evaluated (important: the parallel sweep
//! driver in `mc-membench` evaluates points concurrently).

use serde::{Deserialize, Serialize};

/// SplitMix64 step — a tiny, high-quality 64-bit mixer.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stateless deterministic noise source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Noise {
    seed: u64,
}

impl Noise {
    /// Create a source with a base seed (typically the platform's
    /// [`mc_topology::NoiseSpec::seed`]).
    pub fn new(seed: u64) -> Self {
        Noise { seed }
    }

    /// A uniform value in `[0, 1)` for the given tag tuple.
    pub fn uniform(&self, tags: &[u64]) -> f64 {
        let mut h = splitmix64(self.seed ^ 0xA076_1D64_78BD_642F);
        for &t in tags {
            h = splitmix64(h ^ t);
        }
        // 53 high bits → [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A standard-normal value (Box–Muller, clamped to ±3) for the tag
    /// tuple.
    pub fn gaussian(&self, tags: &[u64]) -> f64 {
        let mut t1 = tags.to_vec();
        t1.push(1);
        let mut t2 = tags.to_vec();
        t2.push(2);
        let u1 = self.uniform(&t1).max(1e-12);
        let u2 = self.uniform(&t2);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        z.clamp(-3.0, 3.0)
    }

    /// A multiplicative jitter `1 + sigma·z`, floored at 0.01 so a noisy
    /// measurement can never become zero or negative.
    pub fn multiplier(&self, sigma: f64, tags: &[u64]) -> f64 {
        (1.0 + sigma * self.gaussian(tags)).max(0.01)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        let n = Noise::new(42);
        assert_eq!(n.uniform(&[1, 2, 3]), n.uniform(&[1, 2, 3]));
        assert_eq!(n.gaussian(&[7]), n.gaussian(&[7]));
    }

    #[test]
    fn different_tags_give_different_values() {
        let n = Noise::new(42);
        assert_ne!(n.uniform(&[1]), n.uniform(&[2]));
        assert_ne!(n.uniform(&[1, 0]), n.uniform(&[0, 1]));
    }

    #[test]
    fn different_seeds_give_different_values() {
        assert_ne!(Noise::new(1).uniform(&[5]), Noise::new(2).uniform(&[5]));
    }

    #[test]
    fn uniform_in_unit_interval() {
        let n = Noise::new(123);
        for i in 0..1000 {
            let u = n.uniform(&[i]);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let n = Noise::new(99);
        let samples: Vec<f64> = (0..20_000).map(|i| n.gaussian(&[i])).collect();
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gaussian_is_clamped() {
        let n = Noise::new(7);
        for i in 0..50_000 {
            let z = n.gaussian(&[i]);
            assert!((-3.0..=3.0).contains(&z));
        }
    }

    #[test]
    fn multiplier_never_nonpositive() {
        let n = Noise::new(5);
        for i in 0..1000 {
            assert!(n.multiplier(0.5, &[i]) > 0.0);
        }
    }
}
