//! Perturbation mechanisms that run on the user's device.
//!
//! The central abstraction is a per-**report** perturbation: a crowd-sensing
//! user holds a vector of `N` continuous values (one per object/micro-task)
//! and perturbs the whole vector before submission. This matches
//! Algorithm 2 of the paper, where a user samples **one** private noise
//! variance `δ_s² ~ Exp(λ₂)` and then adds i.i.d. `N(0, δ_s²)` noise to each
//! of his `N` values.

use rand::Rng;

use dptd_stats::dist::{Continuous, Exponential, Laplace, Normal};

use crate::LdpError;

/// A local perturbation mechanism over vectors of continuous values.
///
/// Implementations must be *non-interactive* and *per-user*: a single call
/// perturbs a user's full report using only local randomness, with no
/// coordination across users (the deployment property the paper's §3.2
/// highlights).
///
/// # Example
///
/// ```
/// use dptd_ldp::{Mechanism, RandomizedVarianceGaussian};
///
/// # fn main() -> Result<(), dptd_ldp::LdpError> {
/// let m = RandomizedVarianceGaussian::new(4.0)?;
/// let mut rng = dptd_stats::seeded_rng(5);
/// let report = m.perturb_report(&[10.0, 20.0, 30.0], &mut rng);
/// assert_eq!(report.len(), 3);
/// # Ok(())
/// # }
/// ```
pub trait Mechanism {
    /// Perturb a user's report of `N` continuous values.
    fn perturb_report<R: Rng + ?Sized>(&self, values: &[f64], rng: &mut R) -> Vec<f64>;

    /// Perturb a single value (a report of length one).
    fn perturb_value<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        self.perturb_report(std::slice::from_ref(&value), rng)[0]
    }
}

/// The paper's mechanism `M` (Algorithm 2, steps 3–4): sample a private
/// noise variance `δ_s² ~ Exp(rate λ₂)`, then add i.i.d. `N(0, δ_s²)` noise
/// to every value in the report.
///
/// The variance is resampled on **every** `perturb_report` call, modelling a
/// fresh user; the distribution of the variance (`λ₂`) is public but the
/// realised variance is known only to the user.
///
/// Privacy: satisfies `(ε, δ)`-LDP when
/// `c = λ₁/λ₂ ≥ γ_s²/(2·ε·λ₁·ln(1/(1−δ)))` (Theorem 4.8; see
/// `dptd_core::theory::privacy` for the bound and the note about the ε
/// factor that the paper's theorem statement drops).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomizedVarianceGaussian {
    lambda2: f64,
}

impl RandomizedVarianceGaussian {
    /// Create the mechanism with variance-distribution rate `λ₂ > 0`
    /// (expected noise variance `1/λ₂`).
    ///
    /// # Errors
    ///
    /// Returns [`LdpError::InvalidParameter`] if `λ₂` is not finite and
    /// strictly positive.
    pub fn new(lambda2: f64) -> Result<Self, LdpError> {
        if !(lambda2.is_finite() && lambda2 > 0.0) {
            return Err(LdpError::InvalidParameter {
                name: "lambda2",
                value: lambda2,
                constraint: "must be finite and > 0",
            });
        }
        Ok(Self { lambda2 })
    }

    /// The rate `λ₂` of the exponential distribution over noise variances.
    pub fn lambda2(&self) -> f64 {
        self.lambda2
    }

    /// Expected *absolute* noise magnitude `E[|ξ|]`.
    ///
    /// With `ξ | δ² ~ N(0, δ²)` and `δ² ~ Exp(λ₂)`:
    /// `E[|ξ|] = E[δ]·√(2/π)` and `E[δ] = √π/(2√λ₂)`, so
    /// `E[|ξ|] = 1/√(2λ₂)` — the "average of added noise" axis of
    /// Figures 2b–6b.
    pub fn expected_abs_noise(&self) -> f64 {
        1.0 / (2.0 * self.lambda2).sqrt()
    }

    /// Sample one private noise variance `δ_s² ~ Exp(λ₂)`.
    pub fn sample_noise_variance<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        Exponential::new(self.lambda2)
            .expect("validated at construction")
            .sample(rng)
    }

    /// Perturb a report with an explicit, caller-chosen noise variance.
    ///
    /// Exposed for tests and for the weight-comparison experiment (Fig. 7)
    /// where a specific user's variance must be pinned.
    pub fn perturb_report_with_variance<R: Rng + ?Sized>(
        &self,
        values: &[f64],
        noise_variance: f64,
        rng: &mut R,
    ) -> Vec<f64> {
        if noise_variance <= 0.0 {
            return values.to_vec();
        }
        let noise = Normal::from_variance(0.0, noise_variance).expect("positive variance");
        values.iter().map(|&x| x + noise.sample(rng)).collect()
    }
}

impl Mechanism for RandomizedVarianceGaussian {
    fn perturb_report<R: Rng + ?Sized>(&self, values: &[f64], rng: &mut R) -> Vec<f64> {
        let variance = self.sample_noise_variance(rng);
        self.perturb_report_with_variance(values, variance, rng)
    }
}

/// The classic pure-ε Laplace mechanism: adds i.i.d. `Lap(Δ/ε)` noise to
/// every value.
///
/// Baseline for the ablation benches: it achieves ε-LDP per value but does
/// not have the *private noise level* property of the paper's mechanism (the
/// noise scale is public), and its per-report ε grows linearly in `N`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceMechanism {
    sensitivity: f64,
    epsilon: f64,
}

impl LaplaceMechanism {
    /// Create a Laplace mechanism for values with sensitivity `Δ > 0` at
    /// privacy level `ε > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`LdpError::InvalidParameter`] if either parameter is not
    /// finite and strictly positive.
    pub fn new(sensitivity: f64, epsilon: f64) -> Result<Self, LdpError> {
        if !(sensitivity.is_finite() && sensitivity > 0.0) {
            return Err(LdpError::InvalidParameter {
                name: "sensitivity",
                value: sensitivity,
                constraint: "must be finite and > 0",
            });
        }
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(LdpError::InvalidParameter {
                name: "epsilon",
                value: epsilon,
                constraint: "must be finite and > 0",
            });
        }
        Ok(Self {
            sensitivity,
            epsilon,
        })
    }

    /// The noise scale `b = Δ/ε`.
    pub fn scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }

    /// The per-value privacy level ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Mechanism for LaplaceMechanism {
    fn perturb_report<R: Rng + ?Sized>(&self, values: &[f64], rng: &mut R) -> Vec<f64> {
        let noise = Laplace::new(0.0, self.scale()).expect("validated at construction");
        values.iter().map(|&x| x + noise.sample(rng)).collect()
    }
}

/// The classic `(ε, δ)` Gaussian mechanism with a **public, fixed** noise
/// standard deviation `σ = Δ·√(2 ln(1.25/δ))/ε`.
///
/// This is the ablation partner for [`RandomizedVarianceGaussian`]: the same
/// noise family, but with a deterministic variance known to the adversary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedGaussianMechanism {
    sigma: f64,
    epsilon: f64,
    delta: f64,
}

impl FixedGaussianMechanism {
    /// Create the mechanism from sensitivity `Δ` and target `(ε, δ)`.
    ///
    /// Uses the standard calibration `σ = Δ·√(2 ln(1.25/δ))/ε`, valid for
    /// `ε ≤ 1`; for larger ε it remains a conservative choice.
    ///
    /// # Errors
    ///
    /// Returns [`LdpError::InvalidParameter`] unless `Δ > 0`, `ε > 0`, and
    /// `δ ∈ (0, 1)`.
    pub fn new(sensitivity: f64, epsilon: f64, delta: f64) -> Result<Self, LdpError> {
        if !(sensitivity.is_finite() && sensitivity > 0.0) {
            return Err(LdpError::InvalidParameter {
                name: "sensitivity",
                value: sensitivity,
                constraint: "must be finite and > 0",
            });
        }
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(LdpError::InvalidParameter {
                name: "epsilon",
                value: epsilon,
                constraint: "must be finite and > 0",
            });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(LdpError::InvalidParameter {
                name: "delta",
                value: delta,
                constraint: "must be in (0, 1)",
            });
        }
        let sigma = sensitivity * (2.0 * (1.25 / delta).ln()).sqrt() / epsilon;
        Ok(Self {
            sigma,
            epsilon,
            delta,
        })
    }

    /// Create the mechanism directly from a noise standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`LdpError::InvalidParameter`] if `σ` is not finite and
    /// strictly positive.
    pub fn from_sigma(sigma: f64) -> Result<Self, LdpError> {
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(LdpError::InvalidParameter {
                name: "sigma",
                value: sigma,
                constraint: "must be finite and > 0",
            });
        }
        Ok(Self {
            sigma,
            epsilon: f64::NAN,
            delta: f64::NAN,
        })
    }

    /// The fixed noise standard deviation σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The calibrated ε (NaN when constructed via
    /// [`from_sigma`](Self::from_sigma)).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The calibrated δ (NaN when constructed via
    /// [`from_sigma`](Self::from_sigma)).
    pub fn delta(&self) -> f64 {
        self.delta
    }
}

impl Mechanism for FixedGaussianMechanism {
    fn perturb_report<R: Rng + ?Sized>(&self, values: &[f64], rng: &mut R) -> Vec<f64> {
        let noise = Normal::new(0.0, self.sigma).expect("validated at construction");
        values.iter().map(|&x| x + noise.sample(rng)).collect()
    }
}

/// A pass-through mechanism adding no noise (ε = ∞).
///
/// Used by ablation benches to run the identical pipeline without privacy,
/// and by the protocol runtime when privacy is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdentityMechanism;

impl IdentityMechanism {
    /// Create the identity mechanism.
    pub fn new() -> Self {
        Self
    }
}

impl Mechanism for IdentityMechanism {
    fn perturb_report<R: Rng + ?Sized>(&self, values: &[f64], _rng: &mut R) -> Vec<f64> {
        values.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_stats::summary::Summary;

    #[test]
    fn randomized_variance_validates() {
        assert!(RandomizedVarianceGaussian::new(0.0).is_err());
        assert!(RandomizedVarianceGaussian::new(-1.0).is_err());
        assert!(RandomizedVarianceGaussian::new(f64::NAN).is_err());
    }

    #[test]
    fn randomized_variance_expected_abs_noise_formula() {
        // Monte-Carlo check of E[|ξ|] = 1/√(2λ₂).
        let m = RandomizedVarianceGaussian::new(2.5).unwrap();
        let mut rng = dptd_stats::seeded_rng(53);
        let mut acc = 0.0;
        let trials = 200_000;
        for _ in 0..trials {
            acc += m.perturb_value(0.0, &mut rng).abs();
        }
        let emp = acc / trials as f64;
        assert!(
            (emp - m.expected_abs_noise()).abs() < 0.01,
            "emp {emp} vs analytic {}",
            m.expected_abs_noise()
        );
    }

    #[test]
    fn randomized_variance_shares_variance_within_report() {
        // One call = one user = one sampled variance. With a pinned tiny
        // variance the report must stay close to the input; with a pinned
        // huge variance it must not.
        let m = RandomizedVarianceGaussian::new(1.0).unwrap();
        let mut rng = dptd_stats::seeded_rng(59);
        let xs = [1.0, 2.0, 3.0];
        let small = m.perturb_report_with_variance(&xs, 1e-12, &mut rng);
        for (a, b) in xs.iter().zip(&small) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn randomized_variance_zero_variance_passthrough() {
        let m = RandomizedVarianceGaussian::new(1.0).unwrap();
        let mut rng = dptd_stats::seeded_rng(61);
        let xs = [4.0, 5.0];
        assert_eq!(m.perturb_report_with_variance(&xs, 0.0, &mut rng), xs);
    }

    #[test]
    fn laplace_mechanism_noise_scale() {
        let m = LaplaceMechanism::new(2.0, 0.5).unwrap();
        assert_eq!(m.scale(), 4.0);
        let mut rng = dptd_stats::seeded_rng(67);
        let noise: Vec<f64> = (0..100_000)
            .map(|_| m.perturb_value(0.0, &mut rng))
            .collect();
        let s = Summary::of(&noise).unwrap();
        // Var(Lap(b)) = 2b² = 32.
        assert!((s.variance - 32.0).abs() < 1.0, "variance {}", s.variance);
        assert!(s.mean.abs() < 0.1);
    }

    #[test]
    fn fixed_gaussian_calibration() {
        let m = FixedGaussianMechanism::new(1.0, 1.0, 0.05).unwrap();
        let want = (2.0 * (1.25f64 / 0.05).ln()).sqrt();
        assert!((m.sigma() - want).abs() < 1e-12);
    }

    #[test]
    fn fixed_gaussian_validates() {
        assert!(FixedGaussianMechanism::new(1.0, 0.0, 0.1).is_err());
        assert!(FixedGaussianMechanism::new(1.0, 1.0, 0.0).is_err());
        assert!(FixedGaussianMechanism::new(1.0, 1.0, 1.0).is_err());
        assert!(FixedGaussianMechanism::new(0.0, 1.0, 0.1).is_err());
        assert!(FixedGaussianMechanism::from_sigma(-1.0).is_err());
    }

    #[test]
    fn identity_is_exact() {
        let m = IdentityMechanism::new();
        let mut rng = dptd_stats::seeded_rng(71);
        let xs = [1.0, -2.0, 3.5];
        assert_eq!(m.perturb_report(&xs, &mut rng), xs);
        assert_eq!(m.perturb_value(9.0, &mut rng), 9.0);
    }

    #[test]
    fn perturbed_report_preserves_length() {
        let m = RandomizedVarianceGaussian::new(3.0).unwrap();
        let mut rng = dptd_stats::seeded_rng(73);
        for n in [0, 1, 5, 100] {
            let xs = vec![1.0; n];
            assert_eq!(m.perturb_report(&xs, &mut rng).len(), n);
        }
    }

    #[test]
    fn mechanisms_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RandomizedVarianceGaussian>();
        assert_send_sync::<LaplaceMechanism>();
        assert_send_sync::<FixedGaussianMechanism>();
        assert_send_sync::<IdentityMechanism>();
    }
}
