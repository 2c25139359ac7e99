//! Model parameters (§III-A).
//!
//! One [`ModelParams`] set characterises the behaviour of the machine for
//! one locality class (local or remote accesses). The paper's notation maps
//! to fields as follows:
//!
//! | Paper            | Field          |
//! |------------------|----------------|
//! | `Nmax_par`       | `n_max_par`    |
//! | `Tmax_par`       | `t_max_par`    |
//! | `Nmax_seq`       | `n_max_seq`    |
//! | `Tmax_seq`       | `t_max_seq`    |
//! | `Tmax2_par`      | `t_max2_par`   |
//! | `δl`             | `delta_l`      |
//! | `δr`             | `delta_r`      |
//! | `Bcomp_seq`      | `b_comp_seq`   |
//! | `Bcomm_seq`      | `b_comm_seq`   |
//! | `α`              | `alpha`        |

use std::fmt;

/// Parameters of one model instantiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Core count at which the maximum total parallel bandwidth is reached.
    pub n_max_par: usize,
    /// Maximum total memory bandwidth with computations and communications
    /// executed simultaneously, GB/s.
    pub t_max_par: f64,
    /// Core count at which the maximum compute-alone bandwidth is reached.
    pub n_max_seq: usize,
    /// Maximum memory bandwidth with computations alone, GB/s.
    pub t_max_seq: f64,
    /// Total parallel bandwidth when `n_max_seq` cores compute, GB/s.
    pub t_max2_par: f64,
    /// Total-bandwidth loss per extra core between `n_max_par` and
    /// `n_max_seq`, GB/s.
    pub delta_l: f64,
    /// Total-bandwidth loss per extra core beyond `n_max_seq`, GB/s.
    pub delta_r: f64,
    /// Memory bandwidth of a single computing core, GB/s.
    pub b_comp_seq: f64,
    /// Communication bandwidth with communications alone, GB/s.
    pub b_comm_seq: f64,
    /// Worst-case ratio of parallel communication bandwidth to
    /// `b_comm_seq` (the guaranteed minimum share).
    pub alpha: f64,
}

/// Validation errors for a parameter set.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// A bandwidth or slope that must be positive/non-negative is not.
    NonPositive(&'static str),
    /// `n_max_par` exceeds `n_max_seq`, violating the model's shape.
    InvertedPeaks {
        /// Offending `n_max_par`.
        n_max_par: usize,
        /// Offending `n_max_seq`.
        n_max_seq: usize,
    },
    /// `alpha` outside `(0, 1]`.
    AlphaOutOfRange(f64),
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::NonPositive(what) => write!(f, "{what} must be positive"),
            ParamError::InvertedPeaks {
                n_max_par,
                n_max_seq,
            } => write!(
                f,
                "n_max_par ({n_max_par}) must not exceed n_max_seq ({n_max_seq})"
            ),
            ParamError::AlphaOutOfRange(a) => write!(f, "alpha {a} outside (0, 1]"),
        }
    }
}

impl std::error::Error for ParamError {}

impl ModelParams {
    /// Check the structural invariants the prediction equations rely on.
    pub fn validate(&self) -> Result<(), ParamError> {
        for (v, name) in [
            (self.t_max_par, "t_max_par"),
            (self.t_max_seq, "t_max_seq"),
            (self.t_max2_par, "t_max2_par"),
            (self.b_comp_seq, "b_comp_seq"),
            (self.b_comm_seq, "b_comm_seq"),
        ] {
            if v <= 0.0 || v.is_nan() {
                return Err(ParamError::NonPositive(name));
            }
        }
        if self.delta_l < 0.0 {
            return Err(ParamError::NonPositive("delta_l"));
        }
        if self.delta_r < 0.0 {
            return Err(ParamError::NonPositive("delta_r"));
        }
        if self.n_max_par > self.n_max_seq {
            return Err(ParamError::InvertedPeaks {
                n_max_par: self.n_max_par,
                n_max_seq: self.n_max_seq,
            });
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0 + 1e-9) {
            return Err(ParamError::AlphaOutOfRange(self.alpha));
        }
        Ok(())
    }

    /// Replace the nominal communication bandwidth — the substitution the
    /// paper writes `Mlocal ⊓ Bcomm_seq(Mremote)` in eq. 6, used when
    /// communications follow the local contention behaviour but their
    /// nominal performance is that of remote data.
    pub fn with_b_comm_seq(mut self, b_comm_seq: f64) -> Self {
        self.b_comm_seq = b_comm_seq;
        self
    }
}

impl fmt::Display for ModelParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Nmax_par={} Tmax_par={:.2} Nmax_seq={} Tmax_seq={:.2} Tmax2_par={:.2} \
             δl={:.3} δr={:.3} Bcomp_seq={:.2} Bcomm_seq={:.2} α={:.3}",
            self.n_max_par,
            self.t_max_par,
            self.n_max_seq,
            self.t_max_seq,
            self.t_max2_par,
            self.delta_l,
            self.delta_r,
            self.b_comp_seq,
            self.b_comm_seq,
            self.alpha
        )
    }
}

#[cfg(test)]
pub(crate) fn reference_params() -> ModelParams {
    // Shaped after henri's local configuration.
    ModelParams {
        n_max_par: 12,
        t_max_par: 80.0,
        n_max_seq: 14,
        t_max_seq: 78.4,
        t_max2_par: 79.0,
        delta_l: 0.5,
        delta_r: 0.55,
        b_comp_seq: 5.6,
        b_comm_seq: 11.3,
        alpha: 0.25,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_validates() {
        reference_params().validate().unwrap();
    }

    #[test]
    fn rejects_zero_bandwidth() {
        let mut p = reference_params();
        p.b_comm_seq = 0.0;
        assert_eq!(p.validate(), Err(ParamError::NonPositive("b_comm_seq")));
    }

    #[test]
    fn rejects_inverted_peaks() {
        let mut p = reference_params();
        p.n_max_par = 15;
        assert!(matches!(
            p.validate(),
            Err(ParamError::InvertedPeaks { .. })
        ));
    }

    #[test]
    fn rejects_bad_alpha() {
        let mut p = reference_params();
        p.alpha = 0.0;
        assert!(matches!(p.validate(), Err(ParamError::AlphaOutOfRange(_))));
        p.alpha = 1.5;
        assert!(matches!(p.validate(), Err(ParamError::AlphaOutOfRange(_))));
    }

    #[test]
    fn rejects_negative_slopes() {
        let mut p = reference_params();
        p.delta_r = -0.1;
        assert_eq!(p.validate(), Err(ParamError::NonPositive("delta_r")));
    }

    #[test]
    fn with_b_comm_seq_substitutes() {
        let p = reference_params().with_b_comm_seq(22.4);
        assert_eq!(p.b_comm_seq, 22.4);
        assert_eq!(p.alpha, reference_params().alpha);
    }

    #[test]
    fn display_mentions_notation() {
        let s = reference_params().to_string();
        assert!(s.contains("Nmax_par=12"));
        assert!(s.contains("α=0.250"));
    }
}
