//! Calibration robustness: how stable are the extracted parameters under
//! measurement noise — and under injected faults?
//!
//! The paper notes that "higher prediction errors come most often from
//! unstable input data" (§IV-C). This module quantifies that two ways:
//!
//! 1. **Noise spread** — calibrate the same platform across many noise
//!    realisations and report the spread of every parameter
//!    ([`param_spread`]). Users can then decide whether one calibration
//!    run is enough for their machine or whether to average several
//!    ([`average_params`]).
//! 2. **Fault spread** — perturb one sweep with the
//!    [`mc_membench::faults`] injector across many seeds, calibrate each
//!    perturbed copy, and report how many survived, how the surviving
//!    parameters spread, and which typed error rejected each casualty
//!    ([`fault_spread`]). Survivable faults must stay within a bounded
//!    spread; poisoning faults must be *rejected*, never absorbed.

use serde::{Deserialize, Serialize};

use mc_membench::faults::{Fault, FaultInjector};
use mc_membench::record::PlacementSweep;

use crate::calibrate::{calibrate, CalibrationError};
use crate::params::ModelParams;

/// Errors from the robustness aggregations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobustnessError {
    /// An aggregation was asked for with zero calibrations.
    NoCalibrations,
}

impl std::fmt::Display for RobustnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RobustnessError::NoCalibrations => {
                write!(f, "need at least one calibration to aggregate")
            }
        }
    }
}

impl std::error::Error for RobustnessError {}

/// Mean and standard deviation of one quantity across calibration runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Spread {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator).
    pub std: f64,
}

impl Spread {
    /// Spread of a sample; `None` for an empty one (a mean over zero
    /// values would be a silent NaN).
    pub fn of(values: &[f64]) -> Option<Spread> {
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = if values.len() > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Some(Spread {
            mean,
            std: var.sqrt(),
        })
    }

    /// Coefficient of variation (std / mean), 0 for a zero mean.
    pub fn cv(&self) -> f64 {
        if self.mean.abs() < 1e-12 {
            0.0
        } else {
            self.std / self.mean.abs()
        }
    }
}

/// Parameter spreads across calibration runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParamSpread {
    /// Number of calibrations aggregated.
    pub runs: usize,
    /// Spread of `Tmax_par`.
    pub t_max_par: Spread,
    /// Spread of `Tmax_seq`.
    pub t_max_seq: Spread,
    /// Spread of `Bcomp_seq`.
    pub b_comp_seq: Spread,
    /// Spread of `Bcomm_seq`.
    pub b_comm_seq: Spread,
    /// Spread of `α`.
    pub alpha: Spread,
    /// Spread of `Nmax_seq` (as a real number: argmax jitter).
    pub n_max_seq: Spread,
}

/// Aggregate parameter sets extracted from repeated calibrations.
pub fn param_spread(params: &[ModelParams]) -> Result<ParamSpread, RobustnessError> {
    if params.is_empty() {
        return Err(RobustnessError::NoCalibrations);
    }
    let pick = |f: &dyn Fn(&ModelParams) -> f64| -> Spread {
        // Non-empty by the guard above.
        Spread::of(&params.iter().map(f).collect::<Vec<_>>()).unwrap_or(Spread {
            mean: 0.0,
            std: 0.0,
        })
    };
    Ok(ParamSpread {
        runs: params.len(),
        t_max_par: pick(&|p| p.t_max_par),
        t_max_seq: pick(&|p| p.t_max_seq),
        b_comp_seq: pick(&|p| p.b_comp_seq),
        b_comm_seq: pick(&|p| p.b_comm_seq),
        alpha: pick(&|p| p.alpha),
        n_max_seq: pick(&|p| p.n_max_seq as f64),
    })
}

/// Calibrate each sweep and aggregate; sweeps that fail to calibrate are
/// reported as errors.
pub fn calibrate_all(sweeps: &[PlacementSweep]) -> Result<Vec<ModelParams>, CalibrationError> {
    sweeps.iter().map(calibrate).collect()
}

/// Average several parameter sets into one (the "average of several runs"
/// mitigation for unstable machines). Peak core counts are rounded to the
/// nearest integer of their mean.
pub fn average_params(params: &[ModelParams]) -> Result<ModelParams, RobustnessError> {
    if params.is_empty() {
        return Err(RobustnessError::NoCalibrations);
    }
    let n = params.len() as f64;
    let avg = |f: &dyn Fn(&ModelParams) -> f64| params.iter().map(f).sum::<f64>() / n;
    let mut out = ModelParams {
        n_max_par: avg(&|p| p.n_max_par as f64).round() as usize,
        t_max_par: avg(&|p| p.t_max_par),
        n_max_seq: avg(&|p| p.n_max_seq as f64).round() as usize,
        t_max_seq: avg(&|p| p.t_max_seq),
        t_max2_par: avg(&|p| p.t_max2_par),
        delta_l: avg(&|p| p.delta_l),
        delta_r: avg(&|p| p.delta_r),
        b_comp_seq: avg(&|p| p.b_comp_seq),
        b_comm_seq: avg(&|p| p.b_comm_seq),
        alpha: avg(&|p| p.alpha),
    };
    // Rounding can break the peak ordering in pathological mixes; repair.
    out.n_max_par = out.n_max_par.min(out.n_max_seq);
    Ok(out)
}

/// Outcome of calibrating one sweep under many fault seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpreadReport {
    /// Seeds attempted.
    pub attempted: usize,
    /// Parameters of the runs that calibrated.
    pub params: Vec<ModelParams>,
    /// `(seed, error)` of the runs that were rejected.
    pub failures: Vec<(u64, CalibrationError)>,
    /// Spread of the surviving parameters (`None` if none survived).
    pub spread: Option<ParamSpread>,
}

impl FaultSpreadReport {
    /// Fraction of seeds whose perturbed sweep still calibrated.
    pub fn survival_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.params.len() as f64 / self.attempted as f64
    }
}

/// Quantify calibration stability under injected faults: perturb `sweep`
/// with `faults` under seeds `0..runs`, calibrate each perturbed copy, and
/// aggregate. Rejected runs are collected with their typed error — a
/// perturbation must never panic the calibration path.
pub fn fault_spread(sweep: &PlacementSweep, faults: &[Fault], runs: usize) -> FaultSpreadReport {
    let mut params = Vec::new();
    let mut failures = Vec::new();
    for seed in 0..runs as u64 {
        let perturbed = FaultInjector::new(seed).perturbed(sweep, faults);
        match calibrate(&perturbed) {
            Ok(p) => params.push(p),
            Err(e) => failures.push((seed, e)),
        }
    }
    let spread = param_spread(&params).ok();
    FaultSpreadReport {
        attempted: runs,
        params,
        failures,
        spread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_membench::record::SweepColumn;
    use mc_membench::{BenchConfig, BenchRunner};
    use mc_topology::{platforms, NumaId};

    /// henri local sweeps under `k` different noise seeds.
    fn noisy_sweeps(k: u64) -> Vec<PlacementSweep> {
        (0..k)
            .map(|seed| {
                let mut p = platforms::henri();
                p.behavior.noise.seed = 1000 + seed;
                BenchRunner::new(&p, BenchConfig::default())
                    .run_placement(NumaId::new(0), NumaId::new(0))
            })
            .collect()
    }

    fn henri_sweep() -> PlacementSweep {
        noisy_sweeps(1).pop().unwrap()
    }

    #[test]
    fn spread_statistics_are_correct() {
        let s = Spread::of(&[1.0, 2.0, 3.0]).unwrap();
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - 1.0).abs() < 1e-12);
        assert!((s.cv() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_run_has_zero_std() {
        let s = Spread::of(&[5.0]).unwrap();
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn empty_spread_is_none_not_nan() {
        assert_eq!(Spread::of(&[]), None);
    }

    #[test]
    fn empty_aggregations_error_instead_of_panicking() {
        assert_eq!(param_spread(&[]), Err(RobustnessError::NoCalibrations));
        assert_eq!(average_params(&[]), Err(RobustnessError::NoCalibrations));
    }

    #[test]
    fn henri_parameters_are_stable_across_seeds() {
        let params = calibrate_all(&noisy_sweeps(12)).unwrap();
        let spread = param_spread(&params).unwrap();
        assert_eq!(spread.runs, 12);
        // 1 % measurement noise keeps every bandwidth parameter within a
        // few percent run-to-run ("the run-to-run variability is very
        // low", §IV-B).
        assert!(spread.b_comp_seq.cv() < 0.03, "{:?}", spread.b_comp_seq);
        assert!(spread.b_comm_seq.cv() < 0.03, "{:?}", spread.b_comm_seq);
        assert!(spread.t_max_par.cv() < 0.03, "{:?}", spread.t_max_par);
        assert!(spread.alpha.cv() < 0.10, "{:?}", spread.alpha);
        // The saturation core count jitters by at most about one core.
        assert!(spread.n_max_seq.std < 1.5, "{:?}", spread.n_max_seq);
    }

    #[test]
    fn averaging_reduces_parameter_noise() {
        let params = calibrate_all(&noisy_sweeps(10)).unwrap();
        let averaged = average_params(&params).unwrap();
        averaged.validate().unwrap();
        let single = params[0];
        let spread = param_spread(&params).unwrap();
        // The averaged Bcomm_seq sits closer to the run-mean than a
        // typical single run does (by construction, but verify end-to-end).
        assert!(
            (averaged.b_comm_seq - spread.b_comm_seq.mean).abs()
                <= (single.b_comm_seq - spread.b_comm_seq.mean).abs() + 1e-9
        );
    }

    #[test]
    fn survivable_faults_keep_calibration_spread_bounded() {
        // Dropped interior points plus a mild spike: every seed must still
        // calibrate, and the surviving parameters must stay within a
        // bounded spread of each other.
        let faults = [
            Fault::DropPoints { fraction: 0.25 },
            Fault::OutlierSpike {
                column: SweepColumn::CompPar,
                factor: 1.10,
            },
        ];
        let report = fault_spread(&henri_sweep(), &faults, 24);
        assert_eq!(report.attempted, 24);
        assert!(
            report.failures.is_empty(),
            "survivable faults must not reject: {:?}",
            report.failures
        );
        assert!((report.survival_rate() - 1.0).abs() < 1e-12);
        let spread = report.spread.unwrap();
        assert!(spread.b_comp_seq.cv() < 0.01, "{:?}", spread.b_comp_seq);
        assert!(spread.b_comm_seq.cv() < 0.02, "{:?}", spread.b_comm_seq);
        assert!(spread.t_max_par.cv() < 0.05, "{:?}", spread.t_max_par);
        assert!(spread.t_max_seq.cv() < 0.05, "{:?}", spread.t_max_seq);
        assert!(spread.n_max_seq.std < 2.0, "{:?}", spread.n_max_seq);
    }

    #[test]
    fn poisoning_faults_are_rejected_with_typed_errors() {
        let report = fault_spread(
            &henri_sweep(),
            &[Fault::NanPoison {
                column: SweepColumn::CommPar,
            }],
            8,
        );
        assert!(report.params.is_empty());
        assert_eq!(report.failures.len(), 8);
        assert!(report
            .failures
            .iter()
            .all(|(_, e)| matches!(e, CalibrationError::NonFinite { .. })));
        assert_eq!(report.spread, None);
        assert_eq!(report.survival_rate(), 0.0);
    }

    #[test]
    fn zeroed_comm_column_is_rejected_across_all_seeds() {
        let report = fault_spread(
            &henri_sweep(),
            &[Fault::ZeroColumn {
                column: SweepColumn::CommAlone,
            }],
            4,
        );
        assert!(report
            .failures
            .iter()
            .all(|(_, e)| matches!(e, CalibrationError::NoCommBandwidth { .. })));
        assert_eq!(report.failures.len(), 4);
    }

    #[test]
    fn shuffled_sweeps_calibrate_identically() {
        // Out-of-order points are a *repaired* degeneracy: the shuffle
        // fault must not change the extracted parameters at all.
        let sweep = henri_sweep();
        let clean = calibrate(&sweep).unwrap();
        let report = fault_spread(&sweep, &[Fault::ShufflePoints], 6);
        assert!(report.failures.is_empty());
        assert!(report.params.iter().all(|p| *p == clean));
    }
}
