//! Benchmark configuration.

use mc_memsim::cache::LlcSpec;

use crate::kernel::{CommPattern, ComputeKernel};

/// How bandwidths are obtained from the simulated hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Steady-state rates straight from the tiered max-min solver, with
    /// protocol overheads folded in analytically. Fast — used by the test
    /// suite and the model-calibration path.
    Analytic,
    /// Full discrete-event runs of the `mc-memsim` engine: kernel passes,
    /// rendezvous handshakes and message gaps are simulated, bandwidths are
    /// integrated over a measurement window. Slower, more faithful — used
    /// by the reproduction harness for figures.
    EventDriven,
}

/// Parameters of the benchmark suite, mirroring the paper's choices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchConfig {
    /// Message size in bytes; the paper uses 64 MB receives.
    pub msg_bytes: u64,
    /// Bytes each computing core writes per kernel pass (weak scaling:
    /// "each computing core always work on the same amount of data").
    pub bytes_per_pass: u64,
    /// Per-pass loop overhead in seconds.
    pub pass_overhead: f64,
    /// Warm-up portion of event-driven runs, seconds of simulated time.
    pub warmup: f64,
    /// Measurement window of event-driven runs, seconds of simulated time.
    pub window: f64,
    /// Simulation backend.
    pub backend: Backend,
    /// Whether to apply the platform's deterministic measurement noise.
    pub noisy: bool,
    /// Compute kernel run by the computing cores.
    pub kernel: ComputeKernel,
    /// Communication pattern (the paper receives only).
    pub comm_pattern: CommPattern,
    /// Optional last-level-cache model; `None` reproduces the paper's
    /// setup (non-temporal accesses bypass the cache anyway).
    pub llc: Option<LlcSpec>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            msg_bytes: 64 << 20,
            bytes_per_pass: 256 << 20,
            pass_overhead: 2e-6,
            warmup: 0.05,
            window: 0.25,
            backend: Backend::Analytic,
            noisy: true,
            kernel: ComputeKernel::memset_nt(),
            comm_pattern: CommPattern::RecvOnly,
            llc: None,
        }
    }
}

impl BenchConfig {
    /// Analytic, noise-free configuration — useful for tests that compare
    /// against exact solver output.
    pub fn exact() -> Self {
        BenchConfig {
            noisy: false,
            ..BenchConfig::default()
        }
    }

    /// Event-driven configuration with default windows.
    pub fn event_driven() -> Self {
        BenchConfig {
            backend: Backend::EventDriven,
            ..BenchConfig::default()
        }
    }

    /// Same configuration with a different compute kernel.
    pub fn with_kernel(mut self, kernel: ComputeKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Same configuration with a different communication pattern.
    pub fn with_pattern(mut self, pattern: CommPattern) -> Self {
        self.comm_pattern = pattern;
        self
    }

    /// Same configuration with a last-level-cache model.
    pub fn with_llc(mut self, llc: LlcSpec) -> Self {
        self.llc = Some(llc);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_64mb_messages() {
        let c = BenchConfig::default();
        assert_eq!(c.msg_bytes, 64 << 20);
        assert_eq!(c.backend, Backend::Analytic);
        assert!(c.noisy);
    }

    #[test]
    fn exact_is_noise_free() {
        assert!(!BenchConfig::exact().noisy);
    }

    #[test]
    fn event_driven_switches_backend() {
        assert_eq!(BenchConfig::event_driven().backend, Backend::EventDriven);
    }
}
