//! Optional last-level-cache model.
//!
//! The paper deliberately bypasses the LLC with non-temporal stores
//! (§II-C) because modelling the cache is a separate problem; taking the
//! cache into account is listed as future work (§VI). This module provides
//! the minimal LLC model needed to *explore* that future work: a shared
//! capacity cache whose hit ratio follows the classic capacity rule —
//! everything hits while the aggregate working set fits, and the hit ratio
//! decays proportionally beyond.
//!
//! Cache hits never reach the memory controllers, so the effective memory
//! traffic of a cacheable kernel is scaled by the *miss* ratio.

/// A shared last-level cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlcSpec {
    /// Usable capacity in bytes (e.g. 24.75 MiB for a Xeon Gold 6140).
    pub size_bytes: f64,
}

impl LlcSpec {
    /// A cache of `mib` mebibytes.
    pub fn mib(mib: f64) -> Self {
        LlcSpec {
            size_bytes: mib * 1024.0 * 1024.0,
        }
    }

    /// Hit ratio for `n_accessors` cores each streaming over
    /// `working_set_per_core` bytes. The cache is shared: while the
    /// aggregate working set fits, every access hits; beyond that the hit
    /// ratio is the fraction of the working set the cache can hold.
    pub fn hit_ratio(&self, n_accessors: usize, working_set_per_core: f64) -> f64 {
        let total = n_accessors as f64 * working_set_per_core;
        if total <= 0.0 {
            return 1.0;
        }
        (self.size_bytes / total).clamp(0.0, 1.0)
    }

    /// Miss ratio — the fraction of accesses that become memory traffic.
    pub fn miss_ratio(&self, n_accessors: usize, working_set_per_core: f64) -> f64 {
        1.0 - self.hit_ratio(n_accessors, working_set_per_core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitting_working_set_always_hits() {
        let llc = LlcSpec::mib(32.0);
        assert_eq!(llc.hit_ratio(4, 1024.0 * 1024.0), 1.0);
        assert_eq!(llc.miss_ratio(4, 1024.0 * 1024.0), 0.0);
    }

    #[test]
    fn oversized_working_set_mostly_misses() {
        let llc = LlcSpec::mib(32.0);
        // 16 cores × 256 MiB ≫ 32 MiB → hit ratio 32/4096 < 1 %.
        let hr = llc.hit_ratio(16, 256.0 * 1024.0 * 1024.0);
        assert!(hr < 0.01, "{hr}");
    }

    #[test]
    fn hit_ratio_decreases_with_more_accessors() {
        let llc = LlcSpec::mib(32.0);
        let ws = 8.0 * 1024.0 * 1024.0;
        assert!(llc.hit_ratio(2, ws) >= llc.hit_ratio(8, ws));
    }

    #[test]
    fn zero_working_set_hits() {
        let llc = LlcSpec::mib(32.0);
        assert_eq!(llc.hit_ratio(0, 0.0), 1.0);
    }

    #[test]
    fn ratios_are_complementary() {
        let llc = LlcSpec::mib(24.75);
        for &(n, ws) in &[(1usize, 1e6), (8, 1e7), (32, 1e9)] {
            let sum = llc.hit_ratio(n, ws) + llc.miss_ratio(n, ws);
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }
}
