//! Compute kernels and communication patterns — the knobs of the paper's
//! future work (§VI: "similar computing kernels (e.g. copying an array into
//! another instead of just initializing an array with a single value)" and
//! "communications with bidirectional data movements (i.e. ping-pongs
//! instead of only pongs)").
//!
//! The model's validity is explicitly scoped to "the computation kernels
//! executed by computing cores and the message size used by communications"
//! (§IV-C1): changing the kernel or pattern changes the parameters, and the
//! model must be recalibrated — which the extension tests do.

use serde::{Deserialize, Serialize};

use mc_memsim::fabric::StreamSpec;
use mc_topology::NumaId;

/// Kernel families available to the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelFamily {
    /// Non-temporal `memset` (the paper's kernel).
    MemsetNt,
    /// Non-temporal array copy.
    CopyNt,
    /// Non-temporal STREAM triad.
    TriadNt,
    /// Cacheable `memset`.
    MemsetCacheable,
    /// Kernel with non-trivial arithmetic intensity.
    ComputeBound,
}

impl KernelFamily {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            KernelFamily::MemsetNt => "memset-nt",
            KernelFamily::CopyNt => "copy-nt",
            KernelFamily::TriadNt => "triad-nt",
            KernelFamily::MemsetCacheable => "memset",
            KernelFamily::ComputeBound => "compute-bound",
        }
    }
}

/// A compute kernel, characterised by how much memory traffic it issues
/// relative to the paper's non-temporal `memset`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeKernel {
    /// Kernel family (display/dispatch).
    pub family: KernelFamily,
    /// Memory traffic per core relative to a non-temporal memset at the
    /// same element rate: a copy kernel reads one stream and writes
    /// another (≈ 1.15× the pressure of a pure store stream at NT-store
    /// rates), a compute-bound kernel issues far less.
    pub traffic_scale: f64,
    /// Whether the kernel's accesses bypass the last-level cache
    /// (non-temporal stores do; regular loads/stores do not).
    pub bypasses_llc: bool,
}

impl ComputeKernel {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        self.family.name()
    }

    /// The paper's kernel: `memset` with non-temporal stores.
    pub const fn memset_nt() -> Self {
        ComputeKernel {
            family: KernelFamily::MemsetNt,
            traffic_scale: 1.0,
            bypasses_llc: true,
        }
    }

    /// Copy an array into another with non-temporal stores: one read
    /// stream plus one write stream per core (future work, §VI).
    pub const fn copy_nt() -> Self {
        ComputeKernel {
            family: KernelFamily::CopyNt,
            traffic_scale: 1.15,
            bypasses_llc: true,
        }
    }

    /// STREAM-triad-like kernel: two read streams, one write stream.
    pub const fn triad_nt() -> Self {
        ComputeKernel {
            family: KernelFamily::TriadNt,
            traffic_scale: 1.25,
            bypasses_llc: true,
        }
    }

    /// Regular (cacheable) store kernel — same traffic as `memset_nt` when
    /// it misses, but the LLC can absorb it if the working set fits.
    pub const fn memset_cacheable() -> Self {
        ComputeKernel {
            family: KernelFamily::MemsetCacheable,
            traffic_scale: 1.0,
            bypasses_llc: false,
        }
    }

    /// A kernel with arithmetic intensity `flops_per_byte`: the memory
    /// traffic it can issue shrinks as the cores spend time computing.
    /// The paper observed (via its ICPP'21 companion study) that
    /// contention fades as arithmetic intensity grows.
    pub fn compute_bound(flops_per_byte: f64) -> Self {
        assert!(flops_per_byte >= 0.0, "negative arithmetic intensity");
        ComputeKernel {
            family: KernelFamily::ComputeBound,
            traffic_scale: 1.0 / (1.0 + flops_per_byte),
            bypasses_llc: true,
        }
    }
}

impl Default for ComputeKernel {
    fn default() -> Self {
        ComputeKernel::memset_nt()
    }
}

/// The communication pattern of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CommPattern {
    /// The paper's pattern: this node only receives ("pongs").
    #[default]
    RecvOnly,
    /// This node only sends (NIC reads from memory).
    SendOnly,
    /// Bidirectional ping-pong: simultaneous send and receive streams
    /// (future work, §VI).
    PingPong,
}

impl CommPattern {
    /// The DMA streams this pattern puts on the fabric, all using the
    /// communication buffer on `numa`.
    pub fn streams(self, numa: NumaId) -> Vec<StreamSpec> {
        match self {
            CommPattern::RecvOnly => vec![StreamSpec::DmaRecv { numa }],
            CommPattern::SendOnly => vec![StreamSpec::DmaSend { numa }],
            CommPattern::PingPong => {
                vec![StreamSpec::DmaRecv { numa }, StreamSpec::DmaSend { numa }]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memset_is_the_reference() {
        let k = ComputeKernel::default();
        assert_eq!(k.name(), "memset-nt");
        assert_eq!(k.traffic_scale, 1.0);
        assert!(k.bypasses_llc);
    }

    #[test]
    fn kernels_are_ordered_by_traffic() {
        assert!(ComputeKernel::copy_nt().traffic_scale > ComputeKernel::memset_nt().traffic_scale);
        assert!(ComputeKernel::triad_nt().traffic_scale > ComputeKernel::copy_nt().traffic_scale);
    }

    #[test]
    fn arithmetic_intensity_shrinks_traffic() {
        assert_eq!(ComputeKernel::compute_bound(0.0).traffic_scale, 1.0);
        assert!((ComputeKernel::compute_bound(4.0).traffic_scale - 0.2).abs() < 1e-12);
        assert!(
            ComputeKernel::compute_bound(10.0).traffic_scale
                < ComputeKernel::compute_bound(1.0).traffic_scale
        );
    }

    #[test]
    #[should_panic(expected = "negative arithmetic intensity")]
    fn negative_intensity_panics() {
        ComputeKernel::compute_bound(-1.0);
    }

    #[test]
    fn patterns_produce_the_right_streams() {
        let numa = NumaId::new(1);
        assert_eq!(CommPattern::RecvOnly.streams(numa).len(), 1);
        assert_eq!(CommPattern::SendOnly.streams(numa).len(), 1);
        let pp = CommPattern::PingPong.streams(numa);
        assert_eq!(pp.len(), 2);
        assert!(pp.iter().all(|s| s.is_dma()));
    }

    #[test]
    fn default_pattern_is_the_papers() {
        assert_eq!(CommPattern::default(), CommPattern::RecvOnly);
    }
}
