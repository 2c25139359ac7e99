//! Sparse calibration — the paper's footnote 2 optimisation.
//!
//! "This process can be optimized: once the maxima of bandwidth `Tmax_par`
//! and `Tmax_seq` are found, one can skip executions with number of
//! computing cores greater than `Nmax_seq`, except the execution with all
//! cores of the first socket, required to compute `δr`."
//!
//! This module implements that protocol: an adaptive driver that measures
//! core counts upward only until both peaks are confirmed, then jumps to
//! the last core count — and a validator showing the sparse parameters
//! match the full-sweep ones.

use mc_membench::record::{PlacementSweep, SweepPoint};
use mc_membench::runner::BenchRunner;
use mc_topology::NumaId;

use crate::calibrate::{calibrate, CalibrationError};
use crate::params::ModelParams;

/// How many non-improving core counts confirm that a peak has passed
/// (measurement noise can dent a single point).
const PEAK_CONFIRM: usize = 2;

/// Outcome of a sparse calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCalibration {
    /// The extracted parameters.
    pub params: ModelParams,
    /// The measured points (for inspection); strictly fewer than a full
    /// sweep whenever the peaks occur before the end of the socket.
    pub sweep: PlacementSweep,
    /// Core counts that were measured.
    pub measured_cores: Vec<usize>,
    /// Core counts a full sweep would have measured.
    pub full_cores: usize,
}

impl SparseCalibration {
    /// Fraction of the full sweep that was skipped. A degenerate platform
    /// reporting zero compute cores has nothing to skip: the savings are
    /// 0.0, not `NaN` from the 0/0 division.
    pub fn savings(&self) -> f64 {
        if self.full_cores == 0 {
            return 0.0;
        }
        1.0 - self.measured_cores.len() as f64 / self.full_cores as f64
    }
}

/// Run the adaptive calibration protocol for one placement.
///
/// Measures `n = 1, 2, …` until both the compute-alone and the stacked
/// parallel bandwidth have declined for two consecutive points
/// (`PEAK_CONFIRM`), then measures only the final core count (needed for
/// `δr`).
pub fn calibrate_sparse(
    runner: &BenchRunner,
    m_comp: NumaId,
    m_comm: NumaId,
) -> Result<SparseCalibration, CalibrationError> {
    let full_cores = runner.platform().max_compute_cores();
    let mut points: Vec<SweepPoint> = Vec::new();
    let mut measured: Vec<usize> = Vec::new();

    let mut best_seq = f64::MIN;
    let mut best_par = f64::MIN;
    let mut seq_decline = 0usize;
    let mut par_decline = 0usize;

    let mut n = 1;
    while n <= full_cores {
        let point = runner.measure_point(n, m_comp, m_comm);
        measured.push(n);
        if point.comp_alone > best_seq {
            best_seq = point.comp_alone;
            seq_decline = 0;
        } else {
            seq_decline += 1;
        }
        let total = point.total_par();
        if total > best_par {
            best_par = total;
            par_decline = 0;
        } else {
            par_decline += 1;
        }
        points.push(point);
        if seq_decline >= PEAK_CONFIRM && par_decline >= PEAK_CONFIRM && n < full_cores {
            // Both peaks passed: jump to the last core count for δr.
            let last = runner.measure_point(full_cores, m_comp, m_comm);
            measured.push(full_cores);
            points.push(last);
            break;
        }
        n += 1;
    }

    let sweep = PlacementSweep {
        m_comp,
        m_comm,
        points,
    };
    let params = calibrate(&sweep)?;
    Ok(SparseCalibration {
        params,
        sweep,
        measured_cores: measured,
        full_cores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_membench::BenchConfig;
    use mc_topology::platforms;

    fn n0() -> NumaId {
        NumaId::new(0)
    }

    #[test]
    fn sparse_skips_a_chunk_of_the_sweep_on_henri_subnuma() {
        // henri-subnuma saturates one sub-NUMA controller with ~8 of its
        // 17 cores: the adaptive driver must stop early and skip a large
        // part of the sweep.
        let p = platforms::henri_subnuma();
        let runner = BenchRunner::new(&p, BenchConfig::default());
        let sparse = calibrate_sparse(&runner, n0(), n0()).unwrap();
        assert!(
            sparse.measured_cores.len() < sparse.full_cores,
            "measured {:?}",
            sparse.measured_cores
        );
        assert!(sparse.savings() > 0.25, "savings {}", sparse.savings());
        // The final core count is always present (needed for δr).
        assert_eq!(*sparse.measured_cores.last().unwrap(), 17);
    }

    #[test]
    fn sparse_parameters_match_full_sweep_parameters() {
        let p = platforms::henri_subnuma();
        let runner = BenchRunner::new(&p, BenchConfig::default());
        let sparse = calibrate_sparse(&runner, n0(), n0()).unwrap();
        let full = calibrate(&runner.run_placement(n0(), n0())).unwrap();
        // Deterministic noise means identical points at identical n, so
        // every parameter derived from the measured region matches within
        // the resolution the missing points could shift an argmax by.
        assert!((sparse.params.b_comp_seq - full.b_comp_seq).abs() < 1e-9);
        assert!((sparse.params.t_max_seq - full.t_max_seq).abs() / full.t_max_seq < 0.02);
        assert!((sparse.params.t_max_par - full.t_max_par).abs() / full.t_max_par < 0.02);
        assert!((sparse.params.alpha - full.alpha).abs() < 0.05);
        assert!((sparse.params.delta_r - full.delta_r).abs() < 0.3);
        assert!(sparse.params.n_max_seq.abs_diff(full.n_max_seq) <= 1);
    }

    #[test]
    fn sparse_runs_to_the_end_when_there_is_no_early_peak() {
        // diablo's compute-alone curve rises essentially to the last core:
        // nothing can be skipped and the driver must degrade gracefully to
        // a full sweep.
        let p = platforms::diablo();
        let runner = BenchRunner::new(&p, BenchConfig::default());
        let sparse = calibrate_sparse(&runner, n0(), n0()).unwrap();
        assert!(
            sparse.measured_cores.len() as f64 >= 0.8 * sparse.full_cores as f64,
            "measured {:?}",
            sparse.measured_cores
        );
    }

    #[test]
    fn savings_is_zero_not_nan_for_zero_core_platforms() {
        // Regression: a SparseCalibration carrying full_cores == 0 (a
        // platform reporting no compute cores) used to yield NaN from the
        // 0/0 division; it must report zero savings instead.
        let p = platforms::henri();
        let runner = BenchRunner::new(&p, BenchConfig::default());
        let mut sparse = calibrate_sparse(&runner, n0(), n0()).unwrap();
        sparse.full_cores = 0;
        sparse.measured_cores.clear();
        assert!(!sparse.savings().is_nan());
        assert_eq!(sparse.savings(), 0.0);
    }

    #[test]
    fn savings_formula() {
        let p = platforms::henri_subnuma();
        let runner = BenchRunner::new(&p, BenchConfig::default());
        let sparse = calibrate_sparse(&runner, n0(), n0()).unwrap();
        let expected = 1.0 - sparse.measured_cores.len() as f64 / 17.0;
        assert!((sparse.savings() - expected).abs() < 1e-12);
    }
}
