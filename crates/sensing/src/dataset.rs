//! The bundle a sensing simulation produces: ground truth, user quality,
//! and the observation matrix.

use dptd_truth::ObservationMatrix;

use crate::Population;

/// A generated crowd-sensing dataset.
///
/// `ground_truths[n]` is the true value of object `n`; `observations` holds
/// what each user actually reported (before any privacy perturbation).
#[derive(Debug, Clone, PartialEq)]
pub struct SensingDataset {
    /// True value per object.
    pub ground_truths: Vec<f64>,
    /// The user population (quality model) that produced the data.
    pub population: Population,
    /// The user × object observation matrix.
    pub observations: ObservationMatrix,
}

impl SensingDataset {
    /// Number of users `S`.
    pub fn num_users(&self) -> usize {
        self.observations.num_users()
    }

    /// Number of objects `N`.
    pub fn num_objects(&self) -> usize {
        self.observations.num_objects()
    }

    /// Mean absolute error of an estimate vector against ground truth.
    ///
    /// # Panics
    ///
    /// Panics if `estimates` has a different length than the ground truth
    /// (estimates always come from the same matrix).
    pub fn mae_to_truth(&self, estimates: &[f64]) -> f64 {
        dptd_stats::summary::mae(estimates, &self.ground_truths)
            .expect("estimates align with ground truth")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Population;

    #[test]
    fn accessors_and_mae() {
        let observations = ObservationMatrix::from_dense(&[&[1.0, 2.0][..], &[3.0, 4.0]]).unwrap();
        let ds = SensingDataset {
            ground_truths: vec![1.0, 2.0],
            population: Population::from_variances(vec![0.1, 0.2]).unwrap(),
            observations,
        };
        assert_eq!(ds.num_users(), 2);
        assert_eq!(ds.num_objects(), 2);
        assert_eq!(ds.mae_to_truth(&[1.0, 2.0]), 0.0);
        assert_eq!(ds.mae_to_truth(&[2.0, 2.0]), 0.5);
    }
}
