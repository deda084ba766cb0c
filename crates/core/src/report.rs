//! Experiment reporting: per-run metrics and the Fig. 7 weight
//! comparison.

use dptd_sensing::SensingDataset;
use dptd_truth::crh::Crh;
use dptd_truth::ObservationMatrix;

use crate::mechanism::PrivateRun;
use crate::CoreError;

/// The metrics every figure of the paper is built from, for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// MAE between aggregates on original vs perturbed data (the paper's
    /// utility axis).
    pub utility_mae: f64,
    /// Mean absolute added noise (the paper's noise axis).
    pub mean_abs_noise: f64,
    /// MAE of the *perturbed* aggregate against ground truth (when known).
    pub truth_mae_perturbed: Option<f64>,
    /// MAE of the *unperturbed* aggregate against ground truth.
    pub truth_mae_unperturbed: Option<f64>,
    /// Iterations the perturbed run took (Fig. 8's driver).
    pub iterations_perturbed: usize,
    /// Iterations the unperturbed run took.
    pub iterations_unperturbed: usize,
}

impl RunMetrics {
    /// Extract metrics from a [`PrivateRun`], optionally scoring against
    /// ground truth.
    ///
    /// # Errors
    ///
    /// Propagates metric computation failures (length mismatches cannot
    /// occur for runs produced by the pipeline).
    pub fn from_run(run: &PrivateRun, ground_truth: Option<&[f64]>) -> Result<Self, CoreError> {
        let (truth_mae_perturbed, truth_mae_unperturbed) = match ground_truth {
            Some(t) => (
                Some(dptd_stats::summary::mae(&run.perturbed.truths, t)?),
                Some(dptd_stats::summary::mae(&run.unperturbed.truths, t)?),
            ),
            None => (None, None),
        };
        Ok(Self {
            utility_mae: run.utility_mae()?,
            mean_abs_noise: run.noise.mean_abs_noise,
            truth_mae_perturbed,
            truth_mae_unperturbed,
            iterations_perturbed: run.perturbed.iterations,
            iterations_unperturbed: run.unperturbed.iterations,
        })
    }
}

/// The Fig. 7 artefact: per-user true weights (computed against ground
/// truth with the CRH weight formula) versus the weights CRH estimated,
/// on both original and perturbed data.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightComparison {
    /// Weight each user *deserves* on the original data (CRH weight
    /// formula evaluated against ground truth).
    pub true_weights_original: Vec<f64>,
    /// Weight CRH estimated on the original data.
    pub estimated_weights_original: Vec<f64>,
    /// Weight each user deserves on the perturbed data.
    pub true_weights_perturbed: Vec<f64>,
    /// Weight CRH estimated on the perturbed data.
    pub estimated_weights_perturbed: Vec<f64>,
}

impl WeightComparison {
    /// Build the comparison for a dataset with known ground truth.
    ///
    /// `run` must have been produced from `dataset.observations`.
    ///
    /// # Errors
    ///
    /// Propagates truth-discovery errors from the weight evaluations.
    pub fn compute(
        dataset: &SensingDataset,
        run: &PrivateRun,
        crh: &Crh,
    ) -> Result<Self, CoreError> {
        let true_orig = true_weights(crh, &dataset.observations, &dataset.ground_truths);
        let true_pert = true_weights(crh, &run.perturbed_matrix, &dataset.ground_truths);
        Ok(Self {
            true_weights_original: true_orig,
            estimated_weights_original: run.unperturbed.weights.clone(),
            true_weights_perturbed: true_pert,
            estimated_weights_perturbed: run.perturbed.weights.clone(),
        })
    }

    /// Spearman rank correlation between true and estimated weights on the
    /// original data — the "mostly consistent" claim of Fig. 7a.
    pub fn rank_correlation_original(&self) -> f64 {
        spearman(
            &self.true_weights_original,
            &self.estimated_weights_original,
        )
    }

    /// Spearman rank correlation on the perturbed data (Fig. 7b).
    pub fn rank_correlation_perturbed(&self) -> f64 {
        spearman(
            &self.true_weights_perturbed,
            &self.estimated_weights_perturbed,
        )
    }
}

/// The CRH weight formula (Eq. 3) evaluated against a *known* truth
/// vector — the paper's "true weight" reference in Fig. 7.
fn true_weights(crh: &Crh, data: &ObservationMatrix, truths: &[f64]) -> Vec<f64> {
    crh.estimate_weights(data, truths, &data.object_std_devs())
}

/// Spearman rank correlation (ties broken by index, adequate for
/// continuous weights).
fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "weight vectors must align");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let rank = |xs: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&i, &j| xs[i].partial_cmp(&xs[j]).expect("finite weights"));
        let mut ranks = vec![0.0; xs.len()];
        for (r, &i) in idx.iter().enumerate() {
            ranks[i] = r as f64;
        }
        ranks
    };
    let ra = rank(a);
    let rb = rank(b);
    let d2: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - y) * (x - y)).sum();
    let n = n as f64;
    1.0 - 6.0 * d2 / (n * (n * n - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::PrivatePipeline;
    use dptd_sensing::synthetic::SyntheticConfig;
    use dptd_truth::TruthDiscoverer;

    fn dataset() -> SensingDataset {
        let mut rng = dptd_stats::seeded_rng(311);
        SyntheticConfig {
            num_users: 40,
            num_objects: 25,
            ..Default::default()
        }
        .generate(&mut rng)
        .unwrap()
    }

    #[test]
    fn metrics_from_run() {
        let ds = dataset();
        let p = PrivatePipeline::new(Crh::default(), 2.0).unwrap();
        let mut rng = dptd_stats::seeded_rng(313);
        let run = p.run(&ds.observations, &mut rng).unwrap();
        let m = RunMetrics::from_run(&run, Some(&ds.ground_truths)).unwrap();
        assert!(m.utility_mae >= 0.0);
        assert!(m.mean_abs_noise > 0.0);
        assert!(m.truth_mae_perturbed.unwrap() >= 0.0);
        assert!(m.iterations_perturbed >= 1);

        let without_truth = RunMetrics::from_run(&run, None).unwrap();
        assert_eq!(without_truth.truth_mae_perturbed, None);
    }

    #[test]
    fn weight_comparison_ranks_correlate() {
        // Fig. 7's claim: estimated weights track true weights.
        let ds = dataset();
        let crh = Crh::default();
        let p = PrivatePipeline::new(crh, 5.0).unwrap();
        let mut rng = dptd_stats::seeded_rng(317);
        let run = p.run(&ds.observations, &mut rng).unwrap();
        let cmp = WeightComparison::compute(&ds, &run, &crh).unwrap();
        assert!(
            cmp.rank_correlation_original() > 0.8,
            "original rank corr {}",
            cmp.rank_correlation_original()
        );
        assert!(
            cmp.rank_correlation_perturbed() > 0.6,
            "perturbed rank corr {}",
            cmp.rank_correlation_perturbed()
        );
    }

    #[test]
    fn heavily_perturbed_user_weight_drops() {
        // The Fig. 7b phenomenon: pin a huge noise variance on one good
        // user; their *true weight on perturbed data* must drop relative
        // to their true weight on original data.
        let ds = dataset();
        let crh = Crh::default();
        let p = PrivatePipeline::new(crh, 2.0).unwrap();
        let mut rng = dptd_stats::seeded_rng(331);

        // Manually perturb: user 0 gets variance 9, everyone else 1e-9.
        let mut perturbed = ds.observations.clone();
        for s in 0..ds.num_users() {
            let var = if s == 0 { 9.0 } else { 1e-9 };
            let orig: Vec<f64> = ds
                .observations
                .observations_of_user(s)
                .map(|(_, v)| v)
                .collect();
            let noisy = p
                .mechanism()
                .perturb_report_with_variance(&orig, var, &mut rng);
            perturbed.replace_user_observations(s, &noisy);
        }
        let stds_orig = ds.observations.object_std_devs();
        let stds_pert = perturbed.object_std_devs();
        let w_orig = crh.estimate_weights(&ds.observations, &ds.ground_truths, &stds_orig);
        let w_pert = crh.estimate_weights(&perturbed, &ds.ground_truths, &stds_pert);
        // Rank of user 0 among all users must fall after perturbation.
        let rank = |ws: &[f64], s: usize| ws.iter().filter(|&&w| w < ws[s]).count();
        assert!(
            rank(&w_pert, 0) < rank(&w_orig, 0),
            "user 0 rank should drop: orig rank {} pert rank {}",
            rank(&w_orig, 0),
            rank(&w_pert, 0)
        );
        let _ = crh.discover(&perturbed).unwrap();
    }

    #[test]
    fn spearman_reference_values() {
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]) + 1.0).abs() < 1e-12);
    }
}
