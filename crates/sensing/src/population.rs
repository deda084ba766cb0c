//! User populations with heterogeneous quality.
//!
//! The paper's quality model (Assumption 4.1's counterpart for data): each
//! user's error variance `σ_s²` is drawn from `Exp(λ₁)`, so most users are
//! decent and a tail is unreliable — the premise that makes weighted
//! aggregation worthwhile.

use rand::Rng;

use dptd_stats::dist::{Continuous, Exponential};

use crate::SensingError;

/// A population of `S` crowd-sensing users, each with a private error
/// variance.
///
/// # Example
///
/// ```
/// use dptd_sensing::Population;
///
/// # fn main() -> Result<(), dptd_sensing::SensingError> {
/// let mut rng = dptd_stats::seeded_rng(1);
/// let pop = Population::sample(150, 2.0, &mut rng)?;
/// assert_eq!(pop.len(), 150);
/// // Mean error variance ≈ 1/λ₁ = 0.5.
/// let mean: f64 = pop.error_variances().iter().sum::<f64>() / 150.0;
/// assert!((mean - 0.5).abs() < 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    error_variances: Vec<f64>,
    lambda1: f64,
}

impl Population {
    /// Sample a population of `num_users` with `σ_s² ~ Exp(λ₁)`.
    ///
    /// # Errors
    ///
    /// Returns [`SensingError::InvalidParameter`] if `num_users == 0` or
    /// `λ₁` is not finite and positive.
    pub fn sample<R: Rng + ?Sized>(
        num_users: usize,
        lambda1: f64,
        rng: &mut R,
    ) -> Result<Self, SensingError> {
        if num_users == 0 {
            return Err(SensingError::InvalidParameter {
                name: "num_users",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        let dist = Exponential::new(lambda1).map_err(SensingError::from)?;
        Ok(Self {
            error_variances: dist.sample_n(rng, num_users),
            lambda1,
        })
    }

    /// Build a population from explicit error variances (for tests and the
    /// weight-comparison experiment).
    ///
    /// # Errors
    ///
    /// Returns [`SensingError::InvalidParameter`] if the list is empty or
    /// any variance is not finite and positive.
    pub fn from_variances(error_variances: Vec<f64>) -> Result<Self, SensingError> {
        if error_variances.is_empty() {
            return Err(SensingError::InvalidParameter {
                name: "error_variances",
                value: 0.0,
                constraint: "must not be empty",
            });
        }
        for &v in &error_variances {
            if !(v.is_finite() && v > 0.0) {
                return Err(SensingError::InvalidParameter {
                    name: "error_variance",
                    value: v,
                    constraint: "must be finite and > 0",
                });
            }
        }
        Ok(Self {
            error_variances,
            lambda1: f64::NAN,
        })
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.error_variances.len()
    }

    /// Whether the population is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.error_variances.is_empty()
    }

    /// Per-user error variances `σ_s²`.
    pub fn error_variances(&self) -> &[f64] {
        &self.error_variances
    }

    /// The quality rate `λ₁` used to sample this population (NaN when
    /// built from explicit variances).
    pub fn lambda1(&self) -> f64 {
        self.lambda1
    }

    /// Indices of users sorted from most to least reliable (ascending
    /// error variance).
    pub fn reliability_ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by(|&a, &b| {
            self.error_variances[a]
                .partial_cmp(&self.error_variances[b])
                .expect("variances are finite")
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_validates() {
        let mut rng = dptd_stats::seeded_rng(139);
        assert!(Population::sample(0, 1.0, &mut rng).is_err());
        assert!(Population::sample(10, 0.0, &mut rng).is_err());
    }

    #[test]
    fn from_variances_validates() {
        assert!(Population::from_variances(vec![]).is_err());
        assert!(Population::from_variances(vec![1.0, -1.0]).is_err());
        assert!(Population::from_variances(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn variances_positive() {
        let mut rng = dptd_stats::seeded_rng(149);
        let pop = Population::sample(500, 3.0, &mut rng).unwrap();
        assert!(pop.error_variances().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn larger_lambda1_means_better_quality() {
        let mut rng = dptd_stats::seeded_rng(151);
        let low_quality = Population::sample(2000, 0.5, &mut rng).unwrap();
        let high_quality = Population::sample(2000, 5.0, &mut rng).unwrap();
        let mean = |p: &Population| p.error_variances().iter().sum::<f64>() / p.len() as f64;
        assert!(mean(&high_quality) < mean(&low_quality));
    }

    #[test]
    fn ranking_sorts_by_variance() {
        let pop = Population::from_variances(vec![0.5, 0.1, 0.9]).unwrap();
        assert_eq!(pop.reliability_ranking(), vec![1, 0, 2]);
    }
}
