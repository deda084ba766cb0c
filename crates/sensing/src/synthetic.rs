//! Synthetic dataset generator (§5.1 of the paper).
//!
//! *"We simulate 150 users with various qualities by setting different
//! σ_s², and generate their provided information for 30 objects based on
//! both the ground truth information and the sampled error."*

use rand::Rng;

use dptd_stats::dist::{Continuous, Normal, Uniform};
use dptd_truth::ObservationMatrix;

use crate::{Population, SensingDataset, SensingError};

/// Configuration for the synthetic world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Number of users `S` (paper: 150).
    pub num_users: usize,
    /// Number of objects `N` (paper: 30).
    pub num_objects: usize,
    /// Quality rate `λ₁` for `σ_s² ~ Exp(λ₁)`.
    pub lambda1: f64,
    /// Ground truths are drawn uniformly from this range.
    pub truth_low: f64,
    /// Upper edge of the ground-truth range.
    pub truth_high: f64,
}

impl Default for SyntheticConfig {
    /// The paper's §5.1 setting: 150 users, 30 objects, λ₁ = 2, truths in
    /// `[0, 10)`.
    fn default() -> Self {
        Self {
            num_users: 150,
            num_objects: 30,
            lambda1: 2.0,
            truth_low: 0.0,
            truth_high: 10.0,
        }
    }
}

impl SyntheticConfig {
    /// Generate a dataset: truths ~ U[truth_low, truth_high), population
    /// `σ_s² ~ Exp(λ₁)`, observations `x^s_n = truth_n + N(0, σ_s²)`.
    ///
    /// # Errors
    ///
    /// Returns [`SensingError::InvalidParameter`] for bad dimensions/rates
    /// and propagates distribution construction failures.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<SensingDataset, SensingError> {
        if self.num_objects == 0 {
            return Err(SensingError::InvalidParameter {
                name: "num_objects",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        let truth_dist = Uniform::new(self.truth_low, self.truth_high)?;
        let ground_truths = truth_dist.sample_n(rng, self.num_objects);
        let population = Population::sample(self.num_users, self.lambda1, rng)?;
        let observations = observe(&ground_truths, &population, rng)?;
        Ok(SensingDataset {
            ground_truths,
            population,
            observations,
        })
    }

    /// Generate a dataset with *fixed* ground truths (used by experiments
    /// that sweep a parameter while holding the world constant).
    ///
    /// # Errors
    ///
    /// As for [`generate`](Self::generate); additionally requires
    /// `ground_truths` to be non-empty.
    pub fn generate_with_truths<R: Rng + ?Sized>(
        &self,
        ground_truths: &[f64],
        rng: &mut R,
    ) -> Result<SensingDataset, SensingError> {
        if ground_truths.is_empty() {
            return Err(SensingError::InvalidParameter {
                name: "ground_truths",
                value: 0.0,
                constraint: "must not be empty",
            });
        }
        let population = Population::sample(self.num_users, self.lambda1, rng)?;
        let observations = observe(ground_truths, &population, rng)?;
        Ok(SensingDataset {
            ground_truths: ground_truths.to_vec(),
            population,
            observations,
        })
    }
}

/// Draw the full observation matrix for a population over known truths.
pub(crate) fn observe<R: Rng + ?Sized>(
    ground_truths: &[f64],
    population: &Population,
    rng: &mut R,
) -> Result<ObservationMatrix, SensingError> {
    let mut m = ObservationMatrix::with_dims(population.len(), ground_truths.len())?;
    for (s, &var) in population.error_variances().iter().enumerate() {
        let err = Normal::from_variance(0.0, var)?;
        for (n, &truth) in ground_truths.iter().enumerate() {
            m.insert(s, n, truth + err.sample(rng))?;
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_truth::{crh::Crh, TruthDiscoverer};

    #[test]
    fn default_matches_paper_dimensions() {
        let cfg = SyntheticConfig::default();
        assert_eq!(cfg.num_users, 150);
        assert_eq!(cfg.num_objects, 30);
    }

    #[test]
    fn generates_full_matrix() {
        let mut rng = dptd_stats::seeded_rng(157);
        let ds = SyntheticConfig::default().generate(&mut rng).unwrap();
        assert_eq!(ds.num_users(), 150);
        assert_eq!(ds.num_objects(), 30);
        assert_eq!(ds.observations.num_observations(), 150 * 30);
        assert!(ds.observations.validate_coverage().is_ok());
    }

    #[test]
    fn validates_dimensions() {
        let mut rng = dptd_stats::seeded_rng(163);
        let cfg = SyntheticConfig {
            num_objects: 0,
            ..SyntheticConfig::default()
        };
        assert!(cfg.generate(&mut rng).is_err());
        let cfg = SyntheticConfig {
            num_users: 0,
            ..SyntheticConfig::default()
        };
        assert!(cfg.generate(&mut rng).is_err());
    }

    #[test]
    fn crh_recovers_synthetic_truths() {
        // End-to-end sanity: on clean synthetic data CRH should land close
        // to ground truth (errors have zero mean).
        let mut rng = dptd_stats::seeded_rng(167);
        let ds = SyntheticConfig::default().generate(&mut rng).unwrap();
        let out = Crh::default().discover(&ds.observations).unwrap();
        let mae = ds.mae_to_truth(&out.truths);
        assert!(mae < 0.1, "clean-data MAE {mae}");
    }

    #[test]
    fn fixed_truths_are_respected() {
        let mut rng = dptd_stats::seeded_rng(173);
        let truths = vec![5.0, 7.0, 9.0];
        let ds = SyntheticConfig::default()
            .generate_with_truths(&truths, &mut rng)
            .unwrap();
        assert_eq!(ds.ground_truths, truths);
        assert_eq!(ds.num_objects(), 3);
    }

    #[test]
    fn reliable_users_observe_more_accurately() {
        let mut rng = dptd_stats::seeded_rng(179);
        let ds = SyntheticConfig {
            num_users: 60,
            num_objects: 200,
            ..SyntheticConfig::default()
        }
        .generate(&mut rng)
        .unwrap();
        let ranking = ds.population.reliability_ranking();
        let (best, worst) = (ranking[0], ranking[ranking.len() - 1]);
        let mean_err = |s: usize| {
            ds.observations
                .observations_of_user(s)
                .map(|(n, v)| (v - ds.ground_truths[n]).abs())
                .sum::<f64>()
                / ds.num_objects() as f64
        };
        assert!(mean_err(best) < mean_err(worst));
    }
}
