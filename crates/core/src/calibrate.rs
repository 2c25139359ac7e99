//! Parameter extraction from benchmark sweeps (§IV-A2).
//!
//! "Once the performance metrics […] are extracted from benchmark outputs,
//! the evolution of the bandwidths over the number of computing cores is
//! analyzed (it mostly looks for minima and maxima) and the parameters of
//! the model […] are computed."

use mc_membench::record::{PlacementSweep, SweepColumn};
use mc_obs::tags;

use crate::params::{ModelParams, ParamError};

/// Floor applied to the extracted `α` when the parallel communication
/// bandwidth measured as (numerically) zero: the model stays valid and
/// predicts a starved-but-alive NIC instead of rejecting the sweep.
/// Documented fallback — see DESIGN.md §9.
const ALPHA_FLOOR: f64 = 1e-6;

/// Errors during calibration. Every degenerate-sweep shape maps to its own
/// variant so callers (and CLI users) can tell *which* way the input data
/// was broken.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibrationError {
    /// The sweep has no points.
    EmptySweep,
    /// The sweep has fewer than two distinct core counts — no slope or
    /// peak structure can be extracted.
    TooFewPoints {
        /// Distinct core counts present.
        got: usize,
    },
    /// The sweep lacks the single-core measurement needed for `Bcomp_seq`.
    MissingSingleCore,
    /// A measurement is NaN or infinite.
    NonFinite {
        /// The offending bandwidth column.
        column: SweepColumn,
        /// Core count of the offending point.
        n_cores: usize,
    },
    /// The communications-alone column averages to a non-positive
    /// bandwidth (`Bcomm_seq <= 0`), so `α = comm_par / Bcomm_seq` is
    /// undefined.
    NoCommBandwidth {
        /// The degenerate mean.
        b_comm_seq: f64,
    },
    /// Two points share a core count but disagree on the measured values.
    DuplicateCores {
        /// The conflicting core count.
        n_cores: usize,
    },
    /// The extracted parameters are structurally invalid.
    Invalid(ParamError),
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationError::EmptySweep => write!(f, "cannot calibrate from an empty sweep"),
            CalibrationError::TooFewPoints { got } => write!(
                f,
                "sweep has only {got} distinct core count(s); calibration needs at least 2"
            ),
            CalibrationError::MissingSingleCore => {
                write!(f, "sweep lacks the n = 1 point needed for Bcomp_seq")
            }
            CalibrationError::NonFinite { column, n_cores } => {
                write!(f, "non-finite {column} measurement at n = {n_cores} cores")
            }
            CalibrationError::NoCommBandwidth { b_comm_seq } => write!(
                f,
                "communications-alone bandwidth is degenerate (Bcomm_seq = {b_comm_seq}); \
                 alpha would be undefined"
            ),
            CalibrationError::DuplicateCores { n_cores } => write!(
                f,
                "conflicting duplicate measurements at n = {n_cores} cores"
            ),
            CalibrationError::Invalid(e) => write!(f, "extracted parameters invalid: {e}"),
        }
    }
}

impl CalibrationError {
    /// Stable machine-readable reason, used as the `reason` tag on the
    /// `calibrate.rejects` counter.
    pub fn reason(&self) -> &'static str {
        match self {
            CalibrationError::EmptySweep => "empty-sweep",
            CalibrationError::TooFewPoints { .. } => "too-few-points",
            CalibrationError::MissingSingleCore => "missing-single-core",
            CalibrationError::NonFinite { .. } => "non-finite",
            CalibrationError::NoCommBandwidth { .. } => "no-comm-bandwidth",
            CalibrationError::DuplicateCores { .. } => "duplicate-cores",
            CalibrationError::Invalid(_) => "invalid-params",
        }
    }
}

impl std::error::Error for CalibrationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CalibrationError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

/// Which documented repairs [`checked_points`] applied to a sweep.
#[derive(Debug, Clone, Copy, Default)]
struct Repairs {
    /// Points arrived out of core-count order and were sorted.
    unsorted: bool,
    /// Identical duplicate points collapsed to one.
    duplicates_collapsed: u64,
}

/// Validate and normalise a sweep's points for calibration.
///
/// Repairs (documented fallbacks):
/// - out-of-order points are sorted by core count (producers may emit rows
///   in any order);
/// - *identical* duplicate points are collapsed to one.
///
/// Rejections: empty sweeps, NaN/infinite measurements, conflicting
/// duplicates, and fewer than two distinct core counts.
fn checked_points(
    sweep: &PlacementSweep,
) -> Result<(Vec<mc_membench::record::SweepPoint>, Repairs), CalibrationError> {
    let mut repairs = Repairs::default();
    if sweep.points.is_empty() {
        return Err(CalibrationError::EmptySweep);
    }
    for p in &sweep.points {
        for column in SweepColumn::ALL {
            if !column.get(p).is_finite() {
                return Err(CalibrationError::NonFinite {
                    column,
                    n_cores: p.n_cores,
                });
            }
        }
    }
    repairs.unsorted = sweep.points.windows(2).any(|w| w[0].n_cores > w[1].n_cores);
    let mut points = sweep.points.clone();
    points.sort_by_key(|p| p.n_cores);
    let mut deduped: Vec<mc_membench::record::SweepPoint> = Vec::with_capacity(points.len());
    for p in points {
        match deduped.last() {
            Some(prev) if prev.n_cores == p.n_cores => {
                if *prev != p {
                    return Err(CalibrationError::DuplicateCores { n_cores: p.n_cores });
                }
                // Identical duplicate: keep one copy.
                repairs.duplicates_collapsed += 1;
            }
            _ => deduped.push(p),
        }
    }
    if deduped.len() < 2 {
        return Err(CalibrationError::TooFewPoints { got: deduped.len() });
    }
    Ok((deduped, repairs))
}

/// Extract the model parameters from one placement sweep (the placement
/// must be one of the two calibration configurations — both buffers on the
/// same NUMA node — for the parameters to mean what the model expects).
pub fn calibrate(sweep: &PlacementSweep) -> Result<ModelParams, CalibrationError> {
    let tags = [
        (tags::M_COMP, mc_obs::TagValue::U64(sweep.m_comp.0 as u64)),
        (tags::M_COMM, mc_obs::TagValue::U64(sweep.m_comm.0 as u64)),
    ];
    let _span = mc_obs::span("calibrate", &tags);
    let result = calibrate_inner(sweep);
    if let Some(rec) = mc_obs::recorder() {
        if let Err(e) = &result {
            rec.add(
                "calibrate.rejects",
                &[(tags::REASON, mc_obs::TagValue::Str(e.reason()))],
                1,
            );
        }
    }
    result
}

fn calibrate_inner(sweep: &PlacementSweep) -> Result<ModelParams, CalibrationError> {
    let (points, repairs) = checked_points(sweep)?;
    if let Some(rec) = mc_obs::recorder() {
        if repairs.unsorted {
            rec.add(
                "calibrate.repairs",
                &[(tags::RULE, mc_obs::TagValue::Str("unsorted"))],
                1,
            );
        }
        if repairs.duplicates_collapsed > 0 {
            rec.add(
                "calibrate.repairs",
                &[(tags::RULE, mc_obs::TagValue::Str("duplicate-collapsed"))],
                repairs.duplicates_collapsed,
            );
        }
    }

    let b_comp_seq = points
        .iter()
        .find(|p| p.n_cores == 1)
        .ok_or(CalibrationError::MissingSingleCore)?
        .comp_alone;

    // (Nmax_seq, Tmax_seq): peak of the compute-alone curve.
    let (n_max_seq, t_max_seq) = points.iter().map(|p| (p.n_cores, p.comp_alone)).fold(
        (1usize, f64::MIN),
        |best, (n, v)| {
            if v > best.1 {
                (n, v)
            } else {
                best
            }
        },
    );

    // (Nmax_par, Tmax_par): peak of the stacked parallel curve, constrained
    // to the left of Nmax_seq (the model's shape assumes the parallel peak
    // is reached with fewer cores; measurement noise can move the raw
    // argmax past it).
    let (mut n_max_par, mut t_max_par) = points.iter().map(|p| (p.n_cores, p.total_par())).fold(
        (1usize, f64::MIN),
        |best, (n, v)| {
            if v > best.1 {
                (n, v)
            } else {
                best
            }
        },
    );
    if n_max_par > n_max_seq {
        n_max_par = n_max_seq;
        t_max_par = points
            .iter()
            .find(|p| p.n_cores == n_max_seq)
            .map(|p| p.total_par())
            .unwrap_or(t_max_par);
    }

    // Tmax2_par: total parallel bandwidth at Nmax_seq cores.
    let t_max2_par = points
        .iter()
        .find(|p| p.n_cores == n_max_seq)
        .map(|p| p.total_par())
        .unwrap_or(t_max_par)
        .min(t_max_par);

    // Slopes.
    let delta_l = if n_max_seq > n_max_par {
        ((t_max_par - t_max2_par) / (n_max_seq - n_max_par) as f64).max(0.0)
    } else {
        0.0
    };
    let last = points[points.len() - 1];
    let delta_r = if last.n_cores > n_max_seq {
        ((t_max2_par - last.total_par()) / (last.n_cores - n_max_seq) as f64).max(0.0)
    } else {
        0.0
    };

    // Nominal and worst-case communication bandwidth. `Bcomm_seq` must be
    // strictly positive before `alpha = comm_par / Bcomm_seq` is formed:
    // a zeroed comm_alone column would otherwise yield NaN/∞ ratios that
    // the clamp silently masks.
    let b_comm_seq = points.iter().map(|p| p.comm_alone).sum::<f64>() / points.len() as f64;
    // (NaN means were rejected by the finiteness scan above.)
    if b_comm_seq <= 0.0 {
        return Err(CalibrationError::NoCommBandwidth { b_comm_seq });
    }
    let alpha = points
        .iter()
        .map(|p| p.comm_par / b_comm_seq)
        .fold(f64::INFINITY, f64::min)
        .clamp(ALPHA_FLOOR, 1.0);

    let params = ModelParams {
        n_max_par,
        t_max_par,
        n_max_seq,
        t_max_seq,
        t_max2_par,
        delta_l,
        delta_r,
        b_comp_seq,
        b_comm_seq,
        alpha,
    };
    params.validate().map_err(CalibrationError::Invalid)?;
    Ok(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instantiation::InstantiatedModel;
    use crate::params::reference_params;
    use mc_membench::record::SweepPoint;
    use mc_membench::{BenchConfig, BenchRunner};
    use mc_topology::{platforms, NumaId};

    /// Generate a noiseless sweep from a known model; calibration must
    /// recover the original parameters.
    fn synthetic_sweep(params: crate::params::ModelParams, n_max: usize) -> PlacementSweep {
        let m = InstantiatedModel::new(params);
        PlacementSweep {
            m_comp: NumaId::new(0),
            m_comm: NumaId::new(0),
            points: (1..=n_max)
                .map(|n| {
                    let par = m.predict_parallel(n);
                    SweepPoint {
                        n_cores: n,
                        comp_alone: m.comp_alone(n),
                        comm_alone: m.comm_alone(),
                        comp_par: par.comp,
                        comm_par: par.comm,
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn round_trips_model_generated_curves() {
        let truth = reference_params();
        let sweep = synthetic_sweep(truth, 17);
        let got = calibrate(&sweep).unwrap();
        // Equation (8) clamps comp_alone by T(n), so the recovered peak can
        // land one core later than the generating parameter; values must
        // agree within a slope step.
        assert!(got.n_max_seq.abs_diff(truth.n_max_seq) <= 1);
        assert!((got.t_max_seq - truth.t_max_seq).abs() < truth.delta_l + 1e-9);
        assert!((got.b_comp_seq - truth.b_comp_seq).abs() < 1e-9);
        assert!((got.b_comm_seq - truth.b_comm_seq).abs() < 1e-9);
        assert!((got.alpha - truth.alpha).abs() < 1e-9);
        assert!((got.t_max2_par - truth.t_max2_par).abs() < truth.delta_r + 1e-9);
        // Tmax_par is a *capacity*: the generated curve only realises it up
        // to the comm demand, so the recovered peak may sit slightly below.
        assert!(got.t_max_par <= truth.t_max_par + 1e-9);
        assert!(got.t_max_par > truth.t_max_par - 1.0);
        assert!((got.delta_r - truth.delta_r).abs() < 0.2);
    }

    #[test]
    fn calibration_is_idempotent() {
        // calibrate ∘ generate must be a fixed point: predicting curves
        // from calibrated parameters and re-calibrating yields the same
        // parameters.
        let once = calibrate(&synthetic_sweep(reference_params(), 17)).unwrap();
        let twice = calibrate(&synthetic_sweep(once, 17)).unwrap();
        let thrice = calibrate(&synthetic_sweep(twice, 17)).unwrap();
        assert_eq!(twice, thrice);
    }

    #[test]
    fn calibrates_henri_local_sensibly() {
        let p = platforms::henri();
        let runner = BenchRunner::new(&p, BenchConfig::exact());
        let sweep = runner.run_placement(NumaId::new(0), NumaId::new(0));
        let params = calibrate(&sweep).unwrap();
        assert!((params.b_comp_seq - 5.6).abs() < 1e-6);
        assert!(
            (10.5..12.0).contains(&params.b_comm_seq),
            "{}",
            params.b_comm_seq
        );
        assert!((params.alpha - 0.25).abs() < 0.02, "{}", params.alpha);
        assert!(params.n_max_par <= params.n_max_seq);
        assert!(params.t_max_par <= 81.0);
    }

    #[test]
    fn noisy_calibration_stays_close_to_exact() {
        let p = platforms::henri();
        let exact = calibrate(
            &BenchRunner::new(&p, BenchConfig::exact())
                .run_placement(NumaId::new(0), NumaId::new(0)),
        )
        .unwrap();
        let noisy = calibrate(
            &BenchRunner::new(&p, BenchConfig::default())
                .run_placement(NumaId::new(0), NumaId::new(0)),
        )
        .unwrap();
        assert!((noisy.b_comp_seq - exact.b_comp_seq).abs() / exact.b_comp_seq < 0.05);
        assert!((noisy.b_comm_seq - exact.b_comm_seq).abs() / exact.b_comm_seq < 0.05);
        assert!((noisy.t_max_par - exact.t_max_par).abs() / exact.t_max_par < 0.05);
    }

    #[test]
    fn empty_sweep_is_rejected() {
        let sweep = PlacementSweep {
            m_comp: NumaId::new(0),
            m_comm: NumaId::new(0),
            points: vec![],
        };
        assert_eq!(calibrate(&sweep), Err(CalibrationError::EmptySweep));
    }

    #[test]
    fn missing_single_core_is_rejected() {
        let mut sweep = synthetic_sweep(reference_params(), 6);
        sweep.points.retain(|p| p.n_cores != 1);
        assert_eq!(calibrate(&sweep), Err(CalibrationError::MissingSingleCore));
    }

    #[test]
    fn unsorted_points_are_handled() {
        let mut sweep = synthetic_sweep(reference_params(), 17);
        let sorted = calibrate(&sweep).unwrap();
        sweep.points.reverse();
        let got = calibrate(&sweep).unwrap();
        assert_eq!(got, sorted);
    }

    #[test]
    fn single_point_sweep_is_rejected() {
        let mut sweep = synthetic_sweep(reference_params(), 17);
        sweep.points.truncate(1);
        assert_eq!(
            calibrate(&sweep),
            Err(CalibrationError::TooFewPoints { got: 1 })
        );
    }

    #[test]
    fn nan_poisoned_sweep_is_rejected_with_location() {
        let mut sweep = synthetic_sweep(reference_params(), 17);
        sweep.points[4].comp_par = f64::NAN;
        assert_eq!(
            calibrate(&sweep),
            Err(CalibrationError::NonFinite {
                column: mc_membench::SweepColumn::CompPar,
                n_cores: 5,
            })
        );
        let mut sweep = synthetic_sweep(reference_params(), 17);
        sweep.points[0].comm_alone = f64::INFINITY;
        assert_eq!(
            calibrate(&sweep),
            Err(CalibrationError::NonFinite {
                column: mc_membench::SweepColumn::CommAlone,
                n_cores: 1,
            })
        );
    }

    #[test]
    fn all_nan_compute_column_is_rejected_not_folded() {
        // Before the finiteness scan, an all-NaN comp_alone column slid
        // through the f64::MIN fold and produced garbage peaks.
        let mut sweep = synthetic_sweep(reference_params(), 17);
        for p in &mut sweep.points {
            p.comp_alone = f64::NAN;
        }
        assert!(matches!(
            calibrate(&sweep),
            Err(CalibrationError::NonFinite {
                column: mc_membench::SweepColumn::CompAlone,
                ..
            })
        ));
    }

    #[test]
    fn zeroed_comm_column_is_rejected_before_alpha() {
        let mut sweep = synthetic_sweep(reference_params(), 17);
        for p in &mut sweep.points {
            p.comm_alone = 0.0;
        }
        assert_eq!(
            calibrate(&sweep),
            Err(CalibrationError::NoCommBandwidth { b_comm_seq: 0.0 })
        );
    }

    #[test]
    fn zeroed_compute_column_yields_invalid_params() {
        let mut sweep = synthetic_sweep(reference_params(), 17);
        for p in &mut sweep.points {
            p.comp_alone = 0.0;
        }
        assert!(matches!(
            calibrate(&sweep),
            Err(CalibrationError::Invalid(_))
        ));
    }

    #[test]
    fn conflicting_duplicates_are_rejected() {
        let mut sweep = synthetic_sweep(reference_params(), 17);
        let mut dup = sweep.points[5];
        dup.comp_alone *= 1.5;
        sweep.points.push(dup);
        assert_eq!(
            calibrate(&sweep),
            Err(CalibrationError::DuplicateCores { n_cores: 6 })
        );
    }

    #[test]
    fn identical_duplicates_are_collapsed() {
        let clean = synthetic_sweep(reference_params(), 17);
        let expected = calibrate(&clean).unwrap();
        let mut sweep = clean.clone();
        sweep.points.push(sweep.points[5]);
        sweep.points.push(sweep.points[9]);
        assert_eq!(calibrate(&sweep), Ok(expected));
    }

    #[test]
    fn every_degenerate_error_has_a_distinct_message() {
        let errors = [
            CalibrationError::EmptySweep,
            CalibrationError::TooFewPoints { got: 1 },
            CalibrationError::MissingSingleCore,
            CalibrationError::NonFinite {
                column: mc_membench::SweepColumn::CompPar,
                n_cores: 5,
            },
            CalibrationError::NoCommBandwidth { b_comm_seq: 0.0 },
            CalibrationError::DuplicateCores { n_cores: 6 },
            CalibrationError::Invalid(crate::params::ParamError::NonPositive("t_max_seq")),
        ];
        let messages: std::collections::BTreeSet<String> =
            errors.iter().map(|e| e.to_string()).collect();
        assert_eq!(messages.len(), errors.len());
    }

    #[test]
    fn occigen_alpha_is_one() {
        // DMA is never throttled on occigen → worst-case comm share ≈ 1.
        let p = platforms::occigen();
        let runner = BenchRunner::new(&p, BenchConfig::exact());
        let sweep = runner.run_placement(NumaId::new(0), NumaId::new(0));
        let params = calibrate(&sweep).unwrap();
        assert!(params.alpha > 0.99, "{}", params.alpha);
    }
}
