//! Acquisition functions over a GP posterior.
//!
//! Ribbon uses **Expected Improvement** (EI): "For each unexplored configuration, EI uses its
//! GP mean and variance as input and calculates the expected improvement over the best
//! explored configuration." Probability of Improvement and Upper Confidence Bound are also
//! provided for the ablation benchmarks.

use ribbon_gp::Posterior;
use ribbon_linalg::stats::{normal_cdf, normal_pdf};

/// Which acquisition function the optimizer should maximize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquisition {
    /// Expected improvement over the incumbent (Ribbon's default). The field is the
    /// exploration jitter ξ ≥ 0 subtracted from the improvement.
    ExpectedImprovement {
        /// Exploration jitter ξ.
        xi: f64,
    },
    /// Probability of improving on the incumbent by at least ξ.
    ProbabilityOfImprovement {
        /// Exploration jitter ξ.
        xi: f64,
    },
    /// Upper confidence bound μ + κσ.
    UpperConfidenceBound {
        /// Exploration weight κ ≥ 0.
        kappa: f64,
    },
}

impl Default for Acquisition {
    fn default() -> Self {
        Acquisition::ExpectedImprovement { xi: 0.01 }
    }
}

impl Acquisition {
    /// Evaluates the acquisition value of a posterior given the incumbent best objective
    /// value (for maximization).
    pub fn score(&self, posterior: &Posterior, best: f64) -> f64 {
        match *self {
            Acquisition::ExpectedImprovement { xi } => expected_improvement(posterior, best, xi),
            Acquisition::ProbabilityOfImprovement { xi } => {
                probability_of_improvement(posterior, best, xi)
            }
            Acquisition::UpperConfidenceBound { kappa } => upper_confidence_bound(posterior, kappa),
        }
    }

    /// `true` when [`Acquisition::score_upper_bound`] can bound the score from the mean
    /// and an upper bound on the variance: EI, and UCB with a finite `κ ≥ 0`. PI is not
    /// monotone in the variance (it falls with σ once the mean beats the incumbent).
    pub(crate) fn bounds_by_variance(&self) -> bool {
        match *self {
            Acquisition::ExpectedImprovement { .. } => true,
            Acquisition::ProbabilityOfImprovement { .. } => false,
            Acquisition::UpperConfidenceBound { kappa } => kappa.is_finite() && kappa >= 0.0,
        }
    }

    /// An upper bound on the computed `score(&Posterior { mean, variance }, best)` over
    /// every mean in `[mean_lo, mean_hi]` and every variance in `[0, variance_bound]`;
    /// `+∞` when [`Acquisition::bounds_by_variance`] is `false`.
    ///
    /// * UCB: `μ + κ·√v` is built from monotone IEEE operations, so its value at the
    ///   corner `(mean_hi, variance_bound)` is itself a bound.
    /// * EI: mathematically EI grows with both μ and σ, but the computed score uses the
    ///   Abramowitz & Stegun `erf` (absolute error below 1.5e-7, so below 0.75e-7 in Φ),
    ///   which can move it by up to `|μ − best − ξ|·0.75e-7` either way. The bound is the
    ///   score at the corner plus that error at the corner and at the largest
    ///   `|μ − best − ξ|` of the range, plus a rounding term.
    pub(crate) fn score_upper_bound(
        &self,
        mean_lo: f64,
        mean_hi: f64,
        variance_bound: f64,
        best: f64,
    ) -> f64 {
        let corner = Posterior {
            mean: mean_hi,
            variance: variance_bound,
        };
        match *self {
            Acquisition::ExpectedImprovement { xi } => {
                let at_corner = (mean_hi - best - xi).abs();
                let widest = at_corner.max((mean_lo - best - xi).abs());
                expected_improvement(&corner, best, xi)
                    + 0.75e-7 * (at_corner + widest)
                    + 1e-12 * (widest + corner.std_dev())
            }
            Acquisition::UpperConfidenceBound { kappa } if self.bounds_by_variance() => {
                upper_confidence_bound(&corner, kappa)
            }
            _ => f64::INFINITY,
        }
    }
}

/// Expected improvement of a Gaussian posterior over incumbent `best` (maximization form):
///
/// `EI = (μ − best − ξ) Φ(z) + σ φ(z)` with `z = (μ − best − ξ)/σ`.
///
/// Returns `max(μ − best − ξ, 0)` when the posterior variance is (numerically) zero.
pub fn expected_improvement(posterior: &Posterior, best: f64, xi: f64) -> f64 {
    let sigma = posterior.std_dev();
    let improvement = posterior.mean - best - xi;
    if sigma < 1e-12 {
        return improvement.max(0.0);
    }
    let z = improvement / sigma;
    (improvement * normal_cdf(z) + sigma * normal_pdf(z)).max(0.0)
}

/// Probability that the point improves on `best` by at least `xi`.
pub fn probability_of_improvement(posterior: &Posterior, best: f64, xi: f64) -> f64 {
    let sigma = posterior.std_dev();
    let improvement = posterior.mean - best - xi;
    if sigma < 1e-12 {
        return if improvement > 0.0 { 1.0 } else { 0.0 };
    }
    normal_cdf(improvement / sigma)
}

/// Upper confidence bound `μ + κσ`.
pub fn upper_confidence_bound(posterior: &Posterior, kappa: f64) -> f64 {
    posterior.mean + kappa * posterior.std_dev()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn post(mean: f64, variance: f64) -> Posterior {
        Posterior { mean, variance }
    }

    #[test]
    fn ei_is_nonnegative() {
        assert!(expected_improvement(&post(-10.0, 0.01), 0.0, 0.0) >= 0.0);
        assert!(expected_improvement(&post(0.0, 0.0), 5.0, 0.0) >= 0.0);
    }

    #[test]
    fn ei_zero_variance_reduces_to_plain_improvement() {
        assert_eq!(expected_improvement(&post(1.5, 0.0), 1.0, 0.0), 0.5);
        assert_eq!(expected_improvement(&post(0.5, 0.0), 1.0, 0.0), 0.0);
    }

    #[test]
    fn ei_increases_with_mean() {
        let best = 0.5;
        let lo = expected_improvement(&post(0.4, 0.04), best, 0.0);
        let hi = expected_improvement(&post(0.9, 0.04), best, 0.0);
        assert!(hi > lo);
    }

    #[test]
    fn ei_increases_with_variance_when_mean_below_best() {
        // Exploration: when the mean is below the incumbent, more uncertainty means more EI.
        let best = 1.0;
        let lo = expected_improvement(&post(0.5, 0.01), best, 0.0);
        let hi = expected_improvement(&post(0.5, 1.0), best, 0.0);
        assert!(hi > lo);
    }

    #[test]
    fn ei_known_value_at_z_zero() {
        // When μ = best and ξ = 0, EI = σ φ(0) = σ * 0.39894...
        let sigma = 2.0;
        let ei = expected_improvement(&post(1.0, sigma * sigma), 1.0, 0.0);
        assert!((ei - sigma * 0.3989422804014327).abs() < 1e-9);
    }

    #[test]
    fn xi_reduces_ei() {
        let p = post(1.0, 0.25);
        assert!(expected_improvement(&p, 0.5, 0.2) < expected_improvement(&p, 0.5, 0.0));
    }

    #[test]
    fn poi_bounds() {
        let p = post(0.7, 0.09);
        let v = probability_of_improvement(&p, 0.5, 0.0);
        assert!(v > 0.0 && v < 1.0);
        assert_eq!(probability_of_improvement(&post(2.0, 0.0), 1.0, 0.0), 1.0);
        assert_eq!(probability_of_improvement(&post(0.0, 0.0), 1.0, 0.0), 0.0);
    }

    #[test]
    fn poi_half_when_mean_equals_best() {
        let v = probability_of_improvement(&post(1.0, 0.5), 1.0, 0.0);
        assert!((v - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ucb_is_mean_plus_scaled_std() {
        let p = post(2.0, 4.0);
        assert_eq!(upper_confidence_bound(&p, 0.0), 2.0);
        assert_eq!(upper_confidence_bound(&p, 1.5), 2.0 + 3.0);
    }

    #[test]
    fn acquisition_enum_dispatch_matches_functions() {
        let p = post(0.8, 0.2);
        let best = 0.6;
        assert_eq!(
            Acquisition::ExpectedImprovement { xi: 0.01 }.score(&p, best),
            expected_improvement(&p, best, 0.01)
        );
        assert_eq!(
            Acquisition::ProbabilityOfImprovement { xi: 0.0 }.score(&p, best),
            probability_of_improvement(&p, best, 0.0)
        );
        assert_eq!(
            Acquisition::UpperConfidenceBound { kappa: 2.0 }.score(&p, best),
            upper_confidence_bound(&p, 2.0)
        );
    }

    #[test]
    fn default_acquisition_is_ei() {
        assert!(matches!(
            Acquisition::default(),
            Acquisition::ExpectedImprovement { .. }
        ));
    }

    proptest! {
        #[test]
        fn prop_ei_nonnegative_and_finite(mean in -10.0f64..10.0, var in 0.0f64..25.0, best in -10.0f64..10.0) {
            let v = expected_improvement(&post(mean, var), best, 0.01);
            prop_assert!(v >= 0.0);
            prop_assert!(v.is_finite());
        }

        #[test]
        fn prop_poi_in_unit_interval(mean in -10.0f64..10.0, var in 0.0f64..25.0, best in -10.0f64..10.0) {
            let v = probability_of_improvement(&post(mean, var), best, 0.0);
            prop_assert!((0.0..=1.0).contains(&v));
        }

        #[test]
        fn prop_score_upper_bound_covers_the_box(
            lo in -2.0f64..2.0, width in 0.0f64..1.0, t in 0.0f64..1.0,
            bound in 0.0f64..1.0, v in 0.0f64..1.0, best in -2.0f64..2.0,
        ) {
            let hi = lo + width;
            let mean = lo + t * width;
            let variance = bound * v;
            for acq in [
                Acquisition::ExpectedImprovement { xi: 0.01 },
                Acquisition::UpperConfidenceBound { kappa: 1.5 },
            ] {
                let score = acq.score(&post(mean, variance), best);
                prop_assert!(score <= acq.score_upper_bound(lo, hi, bound, best));
            }
            let pi = Acquisition::ProbabilityOfImprovement { xi: 0.0 };
            prop_assert!(!pi.bounds_by_variance());
            prop_assert_eq!(pi.score_upper_bound(lo, hi, bound, best), f64::INFINITY);
        }

        #[test]
        fn prop_ei_monotone_in_best(mean in -5.0f64..5.0, var in 0.01f64..4.0, b1 in -5.0f64..5.0, b2 in -5.0f64..5.0) {
            // A higher incumbent can only reduce the expected improvement.
            let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
            let p = post(mean, var);
            prop_assert!(expected_improvement(&p, hi, 0.0) <= expected_improvement(&p, lo, 0.0) + 1e-9);
        }
    }
}
