//! One model instantiation: equations (1)–(5) and (8) of the paper.
//!
//! An [`InstantiatedModel`] predicts, for a given number of computing cores
//! `n` on one socket, the memory bandwidth available to computations and to
//! communications when both run in parallel — under the locality class
//! (local or remote) its parameters were calibrated for.
//!
//! Prediction happens in two steps (§III-B): first the total bandwidth
//! `T(n)` the memory system can support is estimated (eq. 1), then that
//! total is split between computations and communications (eqs. 3–5).

use crate::params::ModelParams;

/// Predicted bandwidths for one core count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Memory bandwidth for computations, GB/s.
    pub comp: f64,
    /// Network bandwidth for communications, GB/s.
    pub comm: f64,
}

impl Prediction {
    /// Stacked total.
    pub fn total(&self) -> f64 {
        self.comp + self.comm
    }
}

/// A calibrated single-locality model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstantiatedModel {
    params: ModelParams,
}

impl InstantiatedModel {
    /// Wrap a validated parameter set.
    pub fn new(params: ModelParams) -> Self {
        InstantiatedModel { params }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Equation (1): the total bandwidth `T(n)` the memory system can
    /// support with `n` computing cores — flat at `Tmax_par` up to
    /// `Nmax_par`, then decreasing by `δl` per core up to `Nmax_seq`, then
    /// by `δr` per core.
    ///
    /// The linear extrapolation is clamped at zero: the paper only ever
    /// evaluates `n` up to the socket's core count, but the library keeps
    /// the function total for any `n`.
    pub fn total_capacity(&self, n: usize) -> f64 {
        let p = &self.params;
        let t = if n <= p.n_max_par {
            p.t_max_par
        } else if n <= p.n_max_seq {
            p.t_max_par - p.delta_l * (n - p.n_max_par) as f64
        } else {
            p.t_max2_par - p.delta_r * (n - p.n_max_seq) as f64
        };
        t.max(0.0)
    }

    /// Equation (2): the bandwidth required to satisfy `n` computing cores
    /// plus the assured minimum for communications.
    pub fn requested(&self, n: usize) -> f64 {
        let p = &self.params;
        n as f64 * p.b_comp_seq + p.alpha * p.b_comm_seq
    }

    /// Is the memory system below its capacity threshold at `n` cores
    /// (`R(n) < T(n)`)?
    pub fn is_unsaturated(&self, n: usize) -> bool {
        self.requested(n) < self.total_capacity(n)
    }

    /// `i = max{ j | R(j) < T(j) }` — the largest core count that still
    /// fits under the threshold (used as the left anchor of the α(n)
    /// interpolation in eq. 5). `None` if even one core saturates the bus.
    pub fn last_unsaturated(&self) -> Option<usize> {
        // R is increasing in n and T non-increasing, so scan up from 1.
        let mut found = None;
        for j in 1..=self.params.n_max_seq.max(1) {
            if self.is_unsaturated(j) {
                found = Some(j);
            }
        }
        found
    }

    /// Communication share in the unsaturated regime: what is left of the
    /// total after computations took their demand, capped at the nominal
    /// network bandwidth (first branch of eq. 4).
    fn comm_unsaturated(&self, n: usize) -> f64 {
        let p = &self.params;
        (self.total_capacity(n) - n as f64 * p.b_comp_seq)
            .min(p.b_comm_seq)
            .max(0.0)
    }

    /// Equation (5): the communication impact factor α(n). In the
    /// saturated regime the bandwidth for communications does not drop
    /// abruptly to `α·Bcomm_seq`; between the last unsaturated core count
    /// `i` and `Nmax_seq` the factor is interpolated linearly.
    pub fn alpha_n(&self, n: usize) -> f64 {
        let p = &self.params;
        if p.n_max_seq.saturating_sub(p.n_max_par) > 1 && n < p.n_max_seq {
            if let Some(i) = self.last_unsaturated() {
                if n > i && p.n_max_seq > i {
                    let c_i = self.comm_unsaturated(i) / p.b_comm_seq;
                    let slope = (c_i - p.alpha) / (p.n_max_seq - i) as f64;
                    return (c_i - slope * (n - i) as f64)
                        .clamp(p.alpha.min(c_i), c_i.max(p.alpha));
                }
            }
        }
        p.alpha
    }

    /// Equations (3)–(5): predicted bandwidths with computations and
    /// communications in parallel.
    pub fn predict_parallel(&self, n: usize) -> Prediction {
        let p = &self.params;
        let t = self.total_capacity(n);
        if self.is_unsaturated(n) {
            let comp = n as f64 * p.b_comp_seq;
            Prediction {
                comp,
                comm: self.comm_unsaturated(n),
            }
        } else {
            // The guaranteed floor cannot exceed the capacity itself (only
            // reachable far beyond the calibrated core range, where the
            // extrapolated T(n) approaches zero).
            let comm = (self.alpha_n(n) * p.b_comm_seq).min(t);
            Prediction {
                comp: (t - comm).max(0.0),
                comm,
            }
        }
    }

    /// Equation (8): computations executed alone — perfect scaling limited
    /// by the bus capacity and by the compute-alone maximum.
    pub fn comp_alone(&self, n: usize) -> f64 {
        let p = &self.params;
        (n as f64 * p.b_comp_seq)
            .min(self.total_capacity(n))
            .min(p.t_max_seq)
    }

    /// Communications executed alone: the nominal network bandwidth.
    pub fn comm_alone(&self) -> f64 {
        self.params.b_comm_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::reference_params;

    fn model() -> InstantiatedModel {
        InstantiatedModel::new(reference_params())
    }

    #[test]
    fn total_capacity_is_flat_then_two_slopes() {
        let m = model();
        assert_eq!(m.total_capacity(1), 80.0);
        assert_eq!(m.total_capacity(12), 80.0);
        // δl region: 80 - 0.5·(n-12)
        assert!((m.total_capacity(13) - 79.5).abs() < 1e-12);
        assert!((m.total_capacity(14) - 79.0).abs() < 1e-12);
        // δr region anchored at t_max2_par: 79 - 0.55·(n-14)
        assert!((m.total_capacity(16) - (79.0 - 1.1)).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_continuous_at_the_kink() {
        // T(Nmax_seq) from the δl branch must equal Tmax2_par when the
        // calibration is self-consistent (δl derived from the same points).
        let m = model();
        let left = m.params().t_max_par
            - m.params().delta_l * (m.params().n_max_seq - m.params().n_max_par) as f64;
        assert!((left - m.params().t_max2_par).abs() < 1e-9);
        assert!((m.total_capacity(14) - 79.0).abs() < 1e-12);
    }

    #[test]
    fn requested_grows_linearly() {
        let m = model();
        let r1 = m.requested(1);
        let r2 = m.requested(2);
        assert!((r2 - r1 - 5.6).abs() < 1e-12);
        assert!((r1 - (5.6 + 0.25 * 11.3)).abs() < 1e-12);
    }

    #[test]
    fn unsaturated_regime_gives_perfect_scaling_and_full_comm() {
        let m = model();
        // R(4) = 22.4 + 2.825 < 80.
        let pred = m.predict_parallel(4);
        assert!((pred.comp - 22.4).abs() < 1e-12);
        assert!((pred.comm - 11.3).abs() < 1e-12);
    }

    #[test]
    fn comm_tapers_when_leftover_shrinks() {
        let m = model();
        // At n = 13: T = 79.5, comp = 72.8, leftover = 6.7 < Bcomm.
        // R(13) = 72.8 + 2.825 = 75.625 < 79.5 → unsaturated branch.
        let pred = m.predict_parallel(13);
        assert!((pred.comp - 72.8).abs() < 1e-12);
        assert!((pred.comm - 6.7).abs() < 1e-9);
    }

    #[test]
    fn saturated_regime_drops_comm_to_alpha() {
        let m = model();
        // n = 16 > Nmax_seq → α(n) = α.
        let pred = m.predict_parallel(16);
        assert!((pred.comm - 0.25 * 11.3).abs() < 1e-12);
        let t = m.total_capacity(16);
        assert!((pred.comp - (t - pred.comm)).abs() < 1e-12);
    }

    #[test]
    fn prediction_total_never_exceeds_capacity() {
        let m = model();
        for n in 1..=17 {
            let pred = m.predict_parallel(n);
            assert!(
                pred.total() <= m.total_capacity(n) + 1e-9,
                "n={n}: {} > {}",
                pred.total(),
                m.total_capacity(n)
            );
        }
    }

    #[test]
    fn comm_prediction_is_monotonically_non_increasing() {
        let m = model();
        let mut last = f64::INFINITY;
        for n in 1..=17 {
            let c = m.predict_parallel(n).comm;
            assert!(c <= last + 1e-9, "n={n}");
            last = c;
        }
    }

    #[test]
    fn alpha_n_interpolates_between_anchor_and_alpha() {
        let m = model();
        let i = m.last_unsaturated().unwrap();
        // At the anchor the factor equals the unsaturated comm share.
        let c_i = m.predict_parallel(i).comm / m.params().b_comm_seq;
        assert!(m.alpha_n(i + 1) <= c_i + 1e-9);
        assert!(m.alpha_n(m.params().n_max_seq) >= m.params().alpha - 1e-9);
        // Beyond Nmax_seq, exactly alpha.
        assert_eq!(m.alpha_n(m.params().n_max_seq + 1), m.params().alpha);
    }

    #[test]
    fn comp_alone_scales_then_clamps() {
        let m = model();
        assert!((m.comp_alone(4) - 22.4).abs() < 1e-12);
        // 15 cores would demand 84 > both T(15) and Tmax_seq = 80.
        assert!(m.comp_alone(15) <= 80.0);
    }

    #[test]
    fn comm_alone_is_nominal() {
        assert_eq!(model().comm_alone(), 11.3);
    }

    #[test]
    fn degenerate_no_gap_model_skips_interpolation() {
        // n_max_seq - n_max_par <= 1 → α(n) = α everywhere saturated.
        let mut p = reference_params();
        p.n_max_par = 14;
        p.t_max2_par = p.t_max_par;
        p.delta_l = 0.0;
        let m = InstantiatedModel::new(p);
        assert_eq!(m.alpha_n(13), p.alpha);
    }
}
