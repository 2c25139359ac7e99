//! Prediction-error evaluation (Table II).
//!
//! The paper scores the model with the mean absolute percentage error
//! (MAPE), `100/n · Σ |a_k − p_k| / a_k`, separately for communications and
//! computations, and separately for the two placement configurations used
//! to instantiate the model ("samples") versus all others ("non-samples").

use mc_membench::record::PlatformSweep;
use mc_obs::tags;
use mc_topology::NumaId;

use crate::predictor::BandwidthPredictor;

/// Streaming MAPE accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Mape {
    sum: f64,
    count: usize,
    skipped: usize,
}

impl Mape {
    /// Add one (actual, predicted) pair. Pairs with a non-positive actual
    /// value are skipped (a percentage error is undefined there) — and
    /// *counted* as skipped, so an evaluation dominated by zero-bandwidth
    /// cells cannot silently report a confident error over almost no data.
    pub fn add(&mut self, actual: f64, predicted: f64) {
        if actual > 0.0 {
            self.sum += ((actual - predicted) / actual).abs();
            self.count += 1;
        } else {
            self.skipped += 1;
        }
    }

    /// Merge another accumulator.
    pub fn merge(&mut self, other: Mape) {
        self.sum += other.sum;
        self.count += other.count;
        self.skipped += other.skipped;
    }

    /// The error in percent; `None` if no pairs were added (an empty
    /// accumulator has no error, not a perfect score of 0 %).
    pub fn percent(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(100.0 * self.sum / self.count as f64)
        }
    }

    /// Like [`Mape::percent`], with NaN marking the empty accumulator —
    /// for table cells, where NaN is rendered as "n/a" (see
    /// [`format_percent`]).
    pub fn percent_or_nan(&self) -> f64 {
        self.percent().unwrap_or(f64::NAN)
    }

    /// Number of pairs accumulated.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of pairs dropped because their actual value was
    /// non-positive (a percentage error is undefined there).
    pub fn skipped(&self) -> usize {
        self.skipped
    }
}

/// Render a percentage cell: `{value:>width$.2}`, with NaN (an empty MAPE
/// bucket) shown as `n/a` so a missing measurement can never masquerade as
/// a 0.00 % error.
pub fn format_percent(value: f64, width: usize) -> String {
    if value.is_nan() {
        format!("{:>width$}", "n/a")
    } else {
        format!("{value:>width$.2}")
    }
}

/// One platform's row of Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBreakdown {
    /// Communication error on sample placements, percent.
    pub comm_samples: f64,
    /// Communication error on non-sample placements, percent.
    pub comm_non_samples: f64,
    /// Communication error on all placements, percent.
    pub comm_all: f64,
    /// Computation error on sample placements, percent.
    pub comp_samples: f64,
    /// Computation error on non-sample placements, percent.
    pub comp_non_samples: f64,
    /// Computation error on all placements, percent.
    pub comp_all: f64,
    /// Mean of the communication and computation all-placements errors
    /// (the paper's "Average" column).
    pub average: f64,
    /// Pairs dropped across both streams and every placement because the
    /// measured value was non-positive — a non-zero count means the
    /// percentages above are computed over fewer cells than the sweep has.
    pub skipped: usize,
}

/// Evaluate a predictor against measured parallel-phase bandwidths.
///
/// `samples` lists the placements used to instantiate the predictor (the
/// paper's two calibration configurations).
pub fn evaluate(
    predictor: &dyn BandwidthPredictor,
    sweep: &PlatformSweep,
    samples: &[(NumaId, NumaId)],
) -> ErrorBreakdown {
    let _span = mc_obs::span(
        "evaluate",
        &[
            (tags::PLATFORM, mc_obs::TagValue::Str(&sweep.platform)),
            (tags::PREDICTOR, mc_obs::TagValue::Str(predictor.name())),
        ],
    );
    let rec = mc_obs::recorder();
    let mut comm_s = Mape::default();
    let mut comm_ns = Mape::default();
    let mut comp_s = Mape::default();
    let mut comp_ns = Mape::default();

    for placement in &sweep.sweeps {
        let is_sample = samples.contains(&(placement.m_comp, placement.m_comm));
        // Per-placement accumulators are kept separate from the global
        // ones (instead of merging into them) so the observability layer
        // never changes the float summation order of the reported errors.
        let mut comm_here = Mape::default();
        let mut comp_here = Mape::default();
        for point in &placement.points {
            let pred =
                predictor.predict_parallel_bw(point.n_cores, placement.m_comp, placement.m_comm);
            let (comm, comp) = if is_sample {
                (&mut comm_s, &mut comp_s)
            } else {
                (&mut comm_ns, &mut comp_ns)
            };
            comm.add(point.comm_par, pred.comm);
            comp.add(point.comp_par, pred.comp);
            if rec.is_some() {
                comm_here.add(point.comm_par, pred.comm);
                comp_here.add(point.comp_par, pred.comp);
            }
        }
        if let Some(rec) = &rec {
            let tags = [
                (
                    tags::M_COMP,
                    mc_obs::TagValue::U64(placement.m_comp.0 as u64),
                ),
                (
                    tags::M_COMM,
                    mc_obs::TagValue::U64(placement.m_comm.0 as u64),
                ),
            ];
            // Empty buckets carry no error (not a perfect 0 %): skip them
            // rather than export NaN.
            if let Some(pct) = comm_here.percent() {
                rec.observe("evaluate.mape_comm_pct", &tags, pct);
            }
            if let Some(pct) = comp_here.percent() {
                rec.observe("evaluate.mape_comp_pct", &tags, pct);
            }
        }
    }

    let mut comm_all = comm_s;
    comm_all.merge(comm_ns);
    let mut comp_all = comp_s;
    comp_all.merge(comp_ns);

    let skipped = comm_all.skipped() + comp_all.skipped();
    if skipped > 0 {
        if let Some(rec) = &rec {
            rec.add(
                "evaluate.skipped_pairs",
                &[(tags::PLATFORM, mc_obs::TagValue::Str(&sweep.platform))],
                skipped as u64,
            );
        }
    }

    ErrorBreakdown {
        comm_samples: comm_s.percent_or_nan(),
        comm_non_samples: comm_ns.percent_or_nan(),
        comm_all: comm_all.percent_or_nan(),
        comp_samples: comp_s.percent_or_nan(),
        comp_non_samples: comp_ns.percent_or_nan(),
        comp_all: comp_all.percent_or_nan(),
        average: (comm_all.percent_or_nan() + comp_all.percent_or_nan()) / 2.0,
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instantiation::Prediction;
    use mc_membench::record::{PlacementSweep, SweepPoint};

    struct Perfect(f64, f64);
    impl BandwidthPredictor for Perfect {
        fn name(&self) -> &'static str {
            "perfect"
        }
        fn predict_parallel_bw(&self, _: usize, _: NumaId, _: NumaId) -> Prediction {
            Prediction {
                comp: self.0,
                comm: self.1,
            }
        }
    }

    fn flat_sweep(comp: f64, comm: f64) -> PlatformSweep {
        PlatformSweep {
            platform: "synthetic".into(),
            sweeps: vec![
                PlacementSweep {
                    m_comp: NumaId::new(0),
                    m_comm: NumaId::new(0),
                    points: (1..=4)
                        .map(|n| SweepPoint {
                            n_cores: n,
                            comp_alone: comp,
                            comm_alone: comm,
                            comp_par: comp,
                            comm_par: comm,
                        })
                        .collect(),
                },
                PlacementSweep {
                    m_comp: NumaId::new(1),
                    m_comm: NumaId::new(0),
                    points: (1..=4)
                        .map(|n| SweepPoint {
                            n_cores: n,
                            comp_alone: comp,
                            comm_alone: comm,
                            comp_par: comp,
                            comm_par: comm,
                        })
                        .collect(),
                },
            ],
        }
    }

    #[test]
    fn perfect_predictor_scores_zero() {
        let sweep = flat_sweep(10.0, 5.0);
        let e = evaluate(
            &Perfect(10.0, 5.0),
            &sweep,
            &[(NumaId::new(0), NumaId::new(0))],
        );
        assert_eq!(e.comm_all, 0.0);
        assert_eq!(e.comp_all, 0.0);
        assert_eq!(e.average, 0.0);
    }

    #[test]
    fn ten_percent_off_scores_ten() {
        let sweep = flat_sweep(10.0, 5.0);
        let e = evaluate(
            &Perfect(9.0, 4.5),
            &sweep,
            &[(NumaId::new(0), NumaId::new(0))],
        );
        assert!((e.comp_all - 10.0).abs() < 1e-9);
        assert!((e.comm_all - 10.0).abs() < 1e-9);
        assert!((e.average - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sample_split_respects_membership() {
        let sweep = flat_sweep(10.0, 5.0);
        // Only the (0,0) placement is a sample; predict badly there only is
        // impossible with a constant predictor, so check the counts via an
        // asymmetric check: declare no samples — sample buckets are empty
        // and report n/a (NaN), never a fake perfect 0 %.
        let e = evaluate(&Perfect(9.0, 5.0), &sweep, &[]);
        assert!(e.comp_samples.is_nan());
        assert!(e.comm_samples.is_nan());
        assert!((e.comp_non_samples - 10.0).abs() < 1e-9);
        // The all-placements buckets are non-empty, so the average is real.
        assert!(!e.average.is_nan());
    }

    #[test]
    fn mape_skips_zero_actuals() {
        let mut m = Mape::default();
        m.add(0.0, 5.0);
        assert_eq!(m.count(), 0);
        assert_eq!(m.skipped(), 1);
        assert_eq!(m.percent(), None);
        m.add(10.0, 5.0);
        assert_eq!(m.count(), 1);
        assert_eq!(m.skipped(), 1);
        assert!((m.percent().unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn merge_carries_skipped_counts() {
        let mut a = Mape::default();
        a.add(-1.0, 2.0);
        let mut b = Mape::default();
        b.add(0.0, 2.0);
        b.add(4.0, 2.0);
        a.merge(b);
        assert_eq!(a.skipped(), 2);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn evaluate_reports_skipped_pairs() {
        // A sweep where half the measured communication bandwidths are
        // zero: the breakdown must say how many cells were dropped rather
        // than quietly scoring over the remainder.
        let mut sweep = flat_sweep(10.0, 5.0);
        for point in &mut sweep.sweeps[0].points {
            point.comm_par = 0.0;
        }
        let e = evaluate(
            &Perfect(10.0, 5.0),
            &sweep,
            &[(NumaId::new(0), NumaId::new(0))],
        );
        assert_eq!(e.skipped, 4);
        // The untouched sweep reports zero skipped.
        let clean = evaluate(
            &Perfect(10.0, 5.0),
            &flat_sweep(10.0, 5.0),
            &[(NumaId::new(0), NumaId::new(0))],
        );
        assert_eq!(clean.skipped, 0);
    }

    #[test]
    fn empty_mape_is_not_a_perfect_score() {
        let m = Mape::default();
        assert_eq!(m.percent(), None);
        assert!(m.percent_or_nan().is_nan());
    }

    #[test]
    fn format_percent_renders_nan_as_na() {
        assert_eq!(format_percent(f64::NAN, 6), "   n/a");
        assert_eq!(format_percent(12.345, 6), " 12.35");
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Mape::default();
        a.add(10.0, 9.0);
        let mut b = Mape::default();
        b.add(10.0, 7.0);
        a.merge(b);
        assert_eq!(a.count(), 2);
        assert!((a.percent().unwrap() - 20.0).abs() < 1e-9);
    }
}
