//! Privacy accounting: converting between mechanism parameters and
//! `(ε, δ)` guarantees, and composing losses across queries.
//!
//! The conversions for the paper's randomized-variance Gaussian mechanism
//! follow the proof of Theorem 4.8: conditioned on the sampled variance
//! `y = δ_s²`, the mechanism is `e^{Δ²/(2y)}`-DP for the pair at distance
//! `Δ`; requiring `Δ²/(2y) ≤ ε` with probability at least `1 − δ` over
//! `y ~ Exp(λ₂)` yields `exp(−λ₂·Δ²/(2ε)) ≥ 1 − δ`.

use crate::LdpError;

/// An `(ε, δ)` privacy loss.
///
/// # Example
///
/// ```
/// use dptd_ldp::PrivacyLoss;
///
/// let a = PrivacyLoss::new(0.5, 0.01).unwrap();
/// let b = PrivacyLoss::new(0.25, 0.0).unwrap();
/// let c = a.compose(&b);
/// assert!((c.epsilon() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyLoss {
    epsilon: f64,
    delta: f64,
}

impl PrivacyLoss {
    /// Create a privacy loss with `ε ≥ 0` and `δ ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`LdpError::InvalidParameter`] on out-of-domain values.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self, LdpError> {
        if !(epsilon.is_finite() && epsilon >= 0.0) {
            return Err(LdpError::InvalidParameter {
                name: "epsilon",
                value: epsilon,
                constraint: "must be finite and >= 0",
            });
        }
        if !(0.0..=1.0).contains(&delta) {
            return Err(LdpError::InvalidParameter {
                name: "delta",
                value: delta,
                constraint: "must be in [0, 1]",
            });
        }
        Ok(Self { epsilon, delta })
    }

    /// The ε component.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The δ component.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Basic sequential composition: `(ε₁+ε₂, δ₁+δ₂)` (δ capped at 1).
    pub fn compose(&self, other: &PrivacyLoss) -> PrivacyLoss {
        PrivacyLoss {
            epsilon: self.epsilon + other.epsilon,
            delta: (self.delta + other.delta).min(1.0),
        }
    }

    /// `k`-fold basic composition of this loss with itself.
    pub fn compose_k(&self, k: u32) -> PrivacyLoss {
        PrivacyLoss {
            epsilon: self.epsilon * k as f64,
            delta: (self.delta * k as f64).min(1.0),
        }
    }

    /// Whether this loss is at least as strong (no weaker in both
    /// coordinates) as a required `(ε, δ)` target.
    pub fn satisfies(&self, target: &PrivacyLoss) -> bool {
        self.epsilon <= target.epsilon && self.delta <= target.delta
    }
}

/// The δ achieved by the randomized-variance Gaussian mechanism at privacy
/// level `ε` for record distance `Δ` and variance rate `λ₂`:
/// `δ = 1 − exp(−λ₂·Δ²/(2ε))` (Theorem 4.8's proof, solved for δ).
///
/// # Errors
///
/// Returns [`LdpError::InvalidParameter`] unless `λ₂ > 0`, `Δ ≥ 0`, `ε > 0`.
pub fn randomized_gaussian_delta(
    lambda2: f64,
    sensitivity: f64,
    epsilon: f64,
) -> Result<f64, LdpError> {
    validate_rate(lambda2)?;
    validate_sensitivity(sensitivity)?;
    validate_epsilon(epsilon)?;
    Ok(1.0 - (-lambda2 * sensitivity * sensitivity / (2.0 * epsilon)).exp())
}

/// The largest variance rate `λ₂` (i.e. the *least* noise) for which the
/// randomized-variance Gaussian mechanism is `(ε, δ)`-LDP at record
/// distance `Δ`: `λ₂ ≤ 2ε·ln(1/(1−δ))/Δ²`.
///
/// # Errors
///
/// Returns [`LdpError::InvalidParameter`] unless `Δ > 0`, `ε > 0` and
/// `δ ∈ (0, 1)`.
pub fn randomized_gaussian_max_lambda2(
    sensitivity: f64,
    epsilon: f64,
    delta: f64,
) -> Result<f64, LdpError> {
    if !(sensitivity > 0.0 && sensitivity.is_finite()) {
        return Err(LdpError::InvalidParameter {
            name: "sensitivity",
            value: sensitivity,
            constraint: "must be finite and > 0",
        });
    }
    validate_epsilon(epsilon)?;
    if !(delta > 0.0 && delta < 1.0) {
        return Err(LdpError::InvalidParameter {
            name: "delta",
            value: delta,
            constraint: "must be in (0, 1)",
        });
    }
    Ok(2.0 * epsilon * (1.0 / (1.0 - delta)).ln() / (sensitivity * sensitivity))
}

/// The ε of a Laplace mechanism with noise scale `b` at record distance
/// `Δ`: `ε = Δ/b`.
///
/// # Errors
///
/// Returns [`LdpError::InvalidParameter`] unless `b > 0` and `Δ ≥ 0`.
pub fn laplace_epsilon(scale: f64, sensitivity: f64) -> Result<f64, LdpError> {
    if !(scale.is_finite() && scale > 0.0) {
        return Err(LdpError::InvalidParameter {
            name: "scale",
            value: scale,
            constraint: "must be finite and > 0",
        });
    }
    validate_sensitivity(sensitivity)?;
    Ok(sensitivity / scale)
}

fn validate_rate(lambda2: f64) -> Result<(), LdpError> {
    if !(lambda2.is_finite() && lambda2 > 0.0) {
        return Err(LdpError::InvalidParameter {
            name: "lambda2",
            value: lambda2,
            constraint: "must be finite and > 0",
        });
    }
    Ok(())
}

fn validate_sensitivity(sensitivity: f64) -> Result<(), LdpError> {
    if !(sensitivity.is_finite() && sensitivity >= 0.0) {
        return Err(LdpError::InvalidParameter {
            name: "sensitivity",
            value: sensitivity,
            constraint: "must be finite and >= 0",
        });
    }
    Ok(())
}

fn validate_epsilon(epsilon: f64) -> Result<(), LdpError> {
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(LdpError::InvalidParameter {
            name: "epsilon",
            value: epsilon,
            constraint: "must be finite and > 0",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privacy_loss_validates() {
        assert!(PrivacyLoss::new(-0.1, 0.0).is_err());
        assert!(PrivacyLoss::new(1.0, -0.1).is_err());
        assert!(PrivacyLoss::new(1.0, 1.1).is_err());
        assert!(PrivacyLoss::new(f64::INFINITY, 0.0).is_err());
    }

    #[test]
    fn composition_adds() {
        let a = PrivacyLoss::new(0.3, 0.01).unwrap();
        let c = a.compose_k(3);
        assert!((c.epsilon() - 0.9).abs() < 1e-12);
        assert!((c.delta() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn composition_caps_delta() {
        let a = PrivacyLoss::new(0.3, 0.6).unwrap();
        let c = a.compose(&a);
        assert_eq!(c.delta(), 1.0);
    }

    #[test]
    fn satisfies_ordering() {
        let strong = PrivacyLoss::new(0.1, 0.001).unwrap();
        let weak = PrivacyLoss::new(1.0, 0.05).unwrap();
        assert!(strong.satisfies(&weak));
        assert!(!weak.satisfies(&strong));
    }

    #[test]
    fn delta_and_lambda2_are_inverse() {
        // Round-trip: choose (ε, δ), compute max λ₂, recompute δ — equal.
        let (eps, delta, sens) = (0.8, 0.2, 1.5);
        let l2 = randomized_gaussian_max_lambda2(sens, eps, delta).unwrap();
        let d2 = randomized_gaussian_delta(l2, sens, eps).unwrap();
        assert!((d2 - delta).abs() < 1e-12);
    }

    #[test]
    fn more_noise_means_smaller_delta() {
        // Smaller λ₂ (= bigger expected variance) → smaller failure δ.
        let d_big_noise = randomized_gaussian_delta(0.1, 1.0, 0.5).unwrap();
        let d_small_noise = randomized_gaussian_delta(10.0, 1.0, 0.5).unwrap();
        assert!(d_big_noise < d_small_noise);
    }

    #[test]
    fn laplace_epsilon_formula() {
        assert!((laplace_epsilon(2.0, 1.0).unwrap() - 0.5).abs() < 1e-15);
        assert!(laplace_epsilon(0.0, 1.0).is_err());
    }

    #[test]
    fn empirical_conditional_epsilon_respects_bound() {
        // Conditioned on variance y, the privacy loss for records Δ apart
        // at output x is |ln p₁(x)/p₂(x)| ≤ Δ²/(2y) + |Δ·(x-mid)|/y — at
        // the midpoint the loss is exactly 0 and the worst case over a
        // bounded output interval is attained at the ends. Verify the
        // likelihood-ratio bound used in the Theorem 4.8 proof: y ≥
        // Δ²/(2ε) ⟹ ratio at distance ≤ Δ/2 from the midpoint ≤ e^ε.
        use dptd_stats::dist::{Continuous, Normal};
        let (x1, x2) = (0.0, 1.0);
        let delta_sens = x2 - x1;
        let eps = 0.7;
        let y = delta_sens * delta_sens / (2.0 * eps);
        let m1 = Normal::from_variance(x1, y).unwrap();
        let m2 = Normal::from_variance(x2, y).unwrap();
        // Outputs between the two records: the proof's inequality holds.
        for t in 0..=10 {
            let x = x1 + (x2 - x1) * t as f64 / 10.0;
            let ratio = (m1.ln_pdf(x) - m2.ln_pdf(x)).abs();
            // ln ratio = |Δ·(x - mid)|/y ≤ Δ²/(2y) = ε for x within the gap.
            assert!(ratio <= eps + 1e-9, "x = {x}, ratio = {ratio}");
        }
    }
}
