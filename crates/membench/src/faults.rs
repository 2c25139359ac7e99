//! Fault injection for benchmark sweeps.
//!
//! The paper attributes its worst prediction errors to "unstable input
//! data" (§IV-C): real calibration sweeps suffer dropped measurements,
//! outlier spikes from background activity, and occasionally whole broken
//! columns (a misconfigured counter reporting zeros or NaN). This module
//! produces those pathologies *on demand and deterministically*, so the
//! calibration pipeline's behaviour under each of them can be quantified
//! and asserted in tests:
//!
//! - *survivable* faults ([`Fault::DropPoints`], [`Fault::OutlierSpike`])
//!   leave a sweep that must still calibrate, with a bounded parameter
//!   shift (see `mc_model::robustness::fault_spread`);
//! - *poisoning* faults ([`Fault::ZeroColumn`], [`Fault::NanPoison`])
//!   leave a sweep that must be **rejected with a typed error**, never a
//!   panic or a silently wrong model.
//!
//! All randomness comes from a splitmix64 generator seeded per injector,
//! so every perturbation is reproducible from `(seed, fault list)` alone.

use mc_memsim::noise::splitmix64;

use crate::record::{PlacementSweep, SweepColumn};

/// A deterministic splitmix64 stream over `mc_memsim::noise::splitmix64`.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (`bound` must be non-zero).
    fn index(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// One way to corrupt a [`PlacementSweep`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Drop roughly `fraction` of the *interior* points. The `n = 1` point
    /// (needed for `Bcomp_seq`) and the last point (needed for `δr`) are
    /// never dropped: this fault models an incomplete sweep, not an
    /// unusable one.
    DropPoints {
        /// Fraction of interior points to drop, in `[0, 1]`.
        fraction: f64,
    },
    /// Multiply one randomly chosen point's `column` by `factor` — a
    /// transient interference spike (factor > 1) or dip (factor < 1).
    OutlierSpike {
        /// The column to perturb.
        column: SweepColumn,
        /// Multiplicative factor applied to the chosen point.
        factor: f64,
    },
    /// Zero an entire column — a dead performance counter.
    ZeroColumn {
        /// The column to zero.
        column: SweepColumn,
    },
    /// Poison one randomly chosen point's `column` with NaN — a failed
    /// individual measurement that was recorded anyway.
    NanPoison {
        /// The column to poison.
        column: SweepColumn,
    },
    /// Shuffle the order of the points (the sweep's *content* is intact
    /// but the producer emitted rows out of order).
    ShufflePoints,
    /// Duplicate one randomly chosen point with its `comp_alone` value
    /// perturbed by `factor` — two conflicting measurements for the same
    /// core count.
    ConflictingDuplicate {
        /// Multiplicative factor applied to the duplicate's `comp_alone`.
        factor: f64,
    },
}

/// Applies [`Fault`]s to sweeps, deterministically per seed.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
}

impl FaultInjector {
    /// An injector whose random choices are a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        FaultInjector { seed }
    }

    /// Apply every fault in order to a copy of `sweep` and return it.
    pub fn perturbed(&self, sweep: &PlacementSweep, faults: &[Fault]) -> PlacementSweep {
        let mut out = sweep.clone();
        // Mix the seed once; fault order then advances the stream, so two
        // faults of the same kind in one list make different choices.
        let mut rng = Rng(self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed);
        for fault in faults {
            Self::apply(&mut rng, &mut out, fault);
        }
        out
    }

    fn apply(rng: &mut Rng, sweep: &mut PlacementSweep, fault: &Fault) {
        if sweep.points.is_empty() {
            return;
        }
        let len = sweep.points.len();
        match *fault {
            Fault::DropPoints { fraction } => {
                let last_n = sweep.max_cores();
                sweep.points.retain(|p| {
                    p.n_cores == 1 || p.n_cores == last_n || rng.next_f64() >= fraction
                });
            }
            Fault::OutlierSpike { column, factor } => {
                let p = &mut sweep.points[rng.index(len)];
                column.set(p, column.get(p) * factor);
            }
            Fault::ZeroColumn { column } => {
                for p in &mut sweep.points {
                    column.set(p, 0.0);
                }
            }
            Fault::NanPoison { column } => {
                column.set(&mut sweep.points[rng.index(len)], f64::NAN);
            }
            Fault::ShufflePoints => {
                // Fisher–Yates with the injector's stream.
                for i in (1..len).rev() {
                    sweep.points.swap(i, rng.index(i + 1));
                }
            }
            Fault::ConflictingDuplicate { factor } => {
                let mut dup = sweep.points[rng.index(len)];
                dup.comp_alone *= factor;
                sweep.points.push(dup);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BenchConfig;
    use crate::runner::BenchRunner;
    use mc_topology::{platforms, NumaId};

    fn henri_sweep() -> PlacementSweep {
        let p = platforms::henri();
        BenchRunner::new(&p, BenchConfig::default()).run_placement(NumaId::new(0), NumaId::new(0))
    }

    #[test]
    fn perturbation_is_deterministic_per_seed() {
        let sweep = henri_sweep();
        let faults = [
            Fault::DropPoints { fraction: 0.3 },
            Fault::OutlierSpike {
                column: SweepColumn::CompPar,
                factor: 1.5,
            },
        ];
        let a = FaultInjector::new(7).perturbed(&sweep, &faults);
        let b = FaultInjector::new(7).perturbed(&sweep, &faults);
        let c = FaultInjector::new(8).perturbed(&sweep, &faults);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stream_is_pinned() {
        // Values from the hand-rolled generator this stream replaced: the
        // raw draws, then the draws as `perturbed` consumes them.
        let mut rng = Rng(7u64.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed);
        let raw = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
        assert_eq!(
            raw,
            [
                0xd24b_7d9a_e62b_bb33,
                0x0fdf_95b3_3c1a_b810,
                0x90e2_9fe5_a9a8_d103
            ]
        );
        let sweep = henri_sweep();
        let cores = |s: PlacementSweep| s.points.iter().map(|p| p.n_cores).collect::<Vec<_>>();
        let shuffled = FaultInjector::new(11).perturbed(&sweep, &[Fault::ShufflePoints]);
        assert_eq!(
            cores(shuffled),
            [14, 7, 9, 8, 2, 11, 5, 17, 3, 10, 15, 13, 1, 16, 12, 6, 4]
        );
        let dropped =
            FaultInjector::new(7).perturbed(&sweep, &[Fault::DropPoints { fraction: 0.5 }]);
        assert_eq!(cores(dropped), [1, 2, 4, 7, 10, 12, 14, 15, 16, 17]);
    }

    #[test]
    fn drop_points_preserves_anchor_points() {
        let sweep = henri_sweep();
        let last = sweep.max_cores();
        for seed in 0..20 {
            let got =
                FaultInjector::new(seed).perturbed(&sweep, &[Fault::DropPoints { fraction: 0.9 }]);
            assert!(got.at(1).is_some(), "n = 1 must survive");
            assert!(got.at(last).is_some(), "last core count must survive");
        }
    }

    #[test]
    fn zero_column_zeroes_every_point() {
        let got = FaultInjector::new(0).perturbed(
            &henri_sweep(),
            &[Fault::ZeroColumn {
                column: SweepColumn::CommAlone,
            }],
        );
        assert!(got.points.iter().all(|p| p.comm_alone == 0.0));
        assert!(got.points.iter().all(|p| p.comp_alone > 0.0));
    }

    #[test]
    fn nan_poison_hits_exactly_one_point() {
        let got = FaultInjector::new(3).perturbed(
            &henri_sweep(),
            &[Fault::NanPoison {
                column: SweepColumn::CompPar,
            }],
        );
        let poisoned = got.points.iter().filter(|p| p.comp_par.is_nan()).count();
        assert_eq!(poisoned, 1);
    }

    #[test]
    fn shuffle_keeps_the_multiset_of_points() {
        let sweep = henri_sweep();
        let got = FaultInjector::new(11).perturbed(&sweep, &[Fault::ShufflePoints]);
        assert_ne!(
            got.points, sweep.points,
            "a 17-point shuffle must move something"
        );
        let mut sorted = got.points.clone();
        sorted.sort_by_key(|p| p.n_cores);
        assert_eq!(sorted, sweep.points);
    }

    #[test]
    fn conflicting_duplicate_adds_a_clashing_core_count() {
        let sweep = henri_sweep();
        let got =
            FaultInjector::new(5).perturbed(&sweep, &[Fault::ConflictingDuplicate { factor: 2.0 }]);
        assert_eq!(got.points.len(), sweep.points.len() + 1);
        let dup = got.points.last().unwrap();
        let original = sweep.at(dup.n_cores).unwrap();
        assert!((dup.comp_alone - 2.0 * original.comp_alone).abs() < 1e-9);
    }

    #[test]
    fn empty_sweep_is_left_alone() {
        let empty = PlacementSweep {
            m_comp: NumaId::new(0),
            m_comm: NumaId::new(0),
            points: vec![],
        };
        let got = FaultInjector::new(0).perturbed(
            &empty,
            &[Fault::NanPoison {
                column: SweepColumn::CompAlone,
            }],
        );
        assert!(got.points.is_empty());
    }
}
