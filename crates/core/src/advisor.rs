//! Placement advisor — the application of the model the paper's conclusion
//! sketches as future work: "runtime systems could better know on which
//! NUMA node store data and how many computing cores should be used to
//! avoid memory contention."
//!
//! Given a calibrated model and an application phase (so many bytes of
//! memory-bound computation, so many bytes to receive from the network),
//! the advisor scores every `(n, m_comp, m_comm)` choice by a **two-phase
//! makespan**: both streams progress at the *contended* bandwidths the
//! model predicts until the shorter one finishes, after which the survivor
//! speeds up to its *alone* bandwidth — the transient Langguth et al. \[13\]
//! model and the paper's §V discussion describe. The configuration with
//! the smallest makespan wins.

use mc_topology::NumaId;

use crate::placement::ContentionModel;

/// An application phase to place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseProfile {
    /// Bytes the computation must move through memory.
    pub compute_bytes: f64,
    /// Bytes to receive from the network.
    pub comm_bytes: f64,
    /// Largest core count available for computing.
    pub max_cores: usize,
}

/// Largest byte count a size input may give: 2^53, the largest integer
/// an `f64` holds exactly. The trace grammar already rejects a larger
/// `bytes` value as non-integer, and past it a simulator's 1-byte retire
/// threshold is below one ulp of the bytes left, so a phase never ends.
const MAX_SIZE_BYTES: f64 = 9_007_199_254_740_992.0;

/// The one rule for sizes users give in GB or MB: `value` units of
/// `unit` bytes (1e9 for GB, 2^20 for MB) as a byte count, if `value` is
/// finite and ≥ 0 and the count is at most 2^53. The error
/// states the rule; callers prefix the field's name.
pub fn size_bytes(value: f64, unit: f64) -> Result<f64, String> {
    let bytes = value * unit;
    if value.is_finite() && value >= 0.0 && bytes <= MAX_SIZE_BYTES {
        Ok(bytes)
    } else {
        Err(format!(
            "must be finite and >= 0 with at most 2^53 bytes, got {value:?}"
        ))
    }
}

/// Most cores one compute phase may use: 2^10, far above any platform's
/// socket. The simulators run one stream per core and the advisor scores
/// every count up to a phase's budget, so past this a typed count keeps
/// them busy for as long as the count is large.
pub const MAX_CORES: usize = 1 << 10;

/// The one rule for core counts users give: at most [`MAX_CORES`] per
/// compute phase. Zero stays each caller's own check. The error states
/// the rule; callers prefix the field's name.
pub fn core_count(n: usize) -> Result<usize, String> {
    if n <= MAX_CORES {
        Ok(n)
    } else {
        Err(format!("must be at most 2^10 ({MAX_CORES}) cores, got {n}"))
    }
}

/// One scored configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// Computing cores to use.
    pub n_cores: usize,
    /// NUMA node for computation data.
    pub m_comp: NumaId,
    /// NUMA node for communication buffers.
    pub m_comm: NumaId,
    /// Predicted computation bandwidth under overlap, GB/s.
    pub comp_bw: f64,
    /// Predicted communication bandwidth under overlap, GB/s.
    pub comm_bw: f64,
    /// Estimated phase makespan, seconds (two-phase overlapped execution:
    /// contended rates while both streams run, alone rate for the
    /// survivor's remainder).
    pub makespan: f64,
}

/// Two-phase makespan: contended rates until the shorter stream finishes,
/// then the survivor continues at its alone rate. All bandwidths in GB/s,
/// bytes in bytes, result in seconds.
pub fn two_phase_makespan(
    par: crate::instantiation::Prediction,
    alone: crate::instantiation::Prediction,
    compute_bytes: f64,
    comm_bytes: f64,
) -> f64 {
    let t_comp = compute_bytes / (par.comp * 1e9);
    let t_comm = comm_bytes / (par.comm * 1e9);
    if t_comp <= t_comm {
        let remaining = (comm_bytes - t_comp * par.comm * 1e9).max(0.0);
        t_comp + remaining / (alone.comm * 1e9)
    } else {
        let remaining = (compute_bytes - t_comm * par.comp * 1e9).max(0.0);
        t_comm + remaining / (alone.comp * 1e9)
    }
}

/// Score every configuration and return them sorted by makespan
/// (best first). Ties break towards fewer cores (cheaper) and lower NUMA
/// indexes (deterministic output). A phase with `max_cores == 0` has no
/// feasible configuration and ranks to an empty list (callers that treat
/// zero cores as a usage error should validate before ranking, as the CLI
/// does).
pub fn rank(model: &ContentionModel, phase: &PhaseProfile) -> Vec<Recommendation> {
    let mut out = Vec::new();
    for (m_comp, m_comm) in model.placements() {
        for n in 1..=phase.max_cores {
            let pred = model.predict(n, m_comp, m_comm);
            if pred.comp <= 0.0 || pred.comm <= 0.0 {
                continue;
            }
            let alone = model.predict_alone(n, m_comp, m_comm);
            out.push(Recommendation {
                n_cores: n,
                m_comp,
                m_comm,
                comp_bw: pred.comp,
                comm_bw: pred.comm,
                makespan: two_phase_makespan(pred, alone, phase.compute_bytes, phase.comm_bytes),
            });
        }
    }
    out.sort_by(|a, b| {
        a.makespan
            .total_cmp(&b.makespan)
            .then(a.n_cores.cmp(&b.n_cores))
            .then(a.m_comp.cmp(&b.m_comp))
            .then(a.m_comm.cmp(&b.m_comm))
    });
    out
}

/// The single best configuration.
pub fn recommend(model: &ContentionModel, phase: &PhaseProfile) -> Option<Recommendation> {
    rank(model, phase).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_membench::{calibration_sweeps, BenchConfig};
    use mc_topology::platforms;

    fn model_for(p: &mc_topology::Platform) -> ContentionModel {
        let (local, remote) = calibration_sweeps(p, BenchConfig::exact());
        ContentionModel::calibrate(&p.topology, &local, &remote).unwrap()
    }

    #[test]
    fn recommends_separated_placements_for_balanced_phases() {
        let p = platforms::henri_subnuma();
        let m = model_for(&p);
        let phase = PhaseProfile {
            compute_bytes: 40e9,
            comm_bytes: 10e9,
            max_cores: 17,
        };
        let best = recommend(&m, &phase).unwrap();
        // With heavy streams on both sides, the recommendation must beat
        // the naive choice of piling everything on node 0 with all cores.
        let naive = m.predict(17, NumaId::new(0), NumaId::new(0));
        let naive_makespan =
            (phase.compute_bytes / (naive.comp * 1e9)).max(phase.comm_bytes / (naive.comm * 1e9));
        assert!(
            best.makespan < naive_makespan * 0.95,
            "best {} vs naive {naive_makespan}",
            best.makespan
        );
    }

    #[test]
    fn makespan_bounded_by_steady_state_and_lone_stream() {
        let p = platforms::henri();
        let m = model_for(&p);
        let phase = PhaseProfile {
            compute_bytes: 10e9,
            comm_bytes: 1e9,
            max_cores: 4,
        };
        for r in rank(&m, &phase) {
            let t_comp = phase.compute_bytes / (r.comp_bw * 1e9);
            let t_comm = phase.comm_bytes / (r.comm_bw * 1e9);
            // Two-phase makespan is at most the steady-state bound and at
            // least the longer contended stream's own work at alone speed.
            assert!(r.makespan <= t_comp.max(t_comm) + 1e-12);
            assert!(r.makespan >= t_comp.min(t_comm) - 1e-12);
        }
    }

    #[test]
    fn two_phase_makespan_handles_both_orders() {
        use crate::instantiation::Prediction;
        let par = Prediction {
            comp: 10.0,
            comm: 2.0,
        };
        let alone = Prediction {
            comp: 20.0,
            comm: 10.0,
        };
        // Compute finishes first: 10 GB / 10 GB/s = 1 s; comm has moved
        // 2 GB, 8 GB left at 10 GB/s -> 0.8 s more.
        let t = two_phase_makespan(par, alone, 10e9, 10e9);
        assert!((t - 1.8).abs() < 1e-9, "{t}");
        // Comm finishes first: comm 2 GB at 2 GB/s = 1 s; compute moved
        // 10 GB, 30 GB left at 20 GB/s -> 1.5 s more.
        let t = two_phase_makespan(par, alone, 40e9, 2e9);
        assert!((t - 2.5).abs() < 1e-9, "{t}");
    }

    #[test]
    fn ranking_is_sorted_and_exhaustive() {
        let p = platforms::henri();
        let m = model_for(&p);
        let phase = PhaseProfile {
            compute_bytes: 1e9,
            comm_bytes: 1e9,
            max_cores: 17,
        };
        let ranked = rank(&m, &phase);
        assert_eq!(ranked.len(), 4 * 17);
        for w in ranked.windows(2) {
            assert!(w[0].makespan <= w[1].makespan + 1e-15);
        }
    }

    #[test]
    fn more_cores_help_compute_heavy_phases() {
        let p = platforms::henri();
        let m = model_for(&p);
        let phase = PhaseProfile {
            compute_bytes: 100e9,
            comm_bytes: 0.1e9,
            max_cores: 17,
        };
        let best = recommend(&m, &phase).unwrap();
        assert!(best.n_cores >= 10, "compute-heavy phase wants many cores");
    }

    #[test]
    fn sizes_are_finite_non_negative_and_exact() {
        assert_eq!(size_bytes(1.5, 1e9), Ok(1.5e9));
        assert_eq!(size_bytes(0.0, 1e9), Ok(0.0));
        // 2^33 MiB is exactly 2^53 bytes, the largest size accepted.
        let mib = (1u64 << 20) as f64;
        assert_eq!(size_bytes((1u64 << 33) as f64, mib), Ok(MAX_SIZE_BYTES));
        for bad in [
            -1.0,
            f64::NAN,
            f64::INFINITY,
            1e308,
            (1u64 << 33) as f64 + 1.0,
        ] {
            let e = size_bytes(bad, mib).unwrap_err();
            assert!(e.contains("2^53"), "{e}");
        }
    }

    #[test]
    fn core_counts_stop_at_the_ceiling() {
        assert_eq!(core_count(17), Ok(17));
        assert_eq!(core_count(MAX_CORES), Ok(1024));
        for bad in [MAX_CORES + 1, 10_000_000_000] {
            let e = core_count(bad).unwrap_err();
            assert!(e.contains("2^10"), "{e}");
        }
    }

    #[test]
    fn zero_cores_ranks_to_nothing() {
        let p = platforms::henri();
        let m = model_for(&p);
        let phase = PhaseProfile {
            compute_bytes: 1.0,
            comm_bytes: 1.0,
            max_cores: 0,
        };
        assert!(rank(&m, &phase).is_empty());
        assert_eq!(recommend(&m, &phase), None);
    }
}
