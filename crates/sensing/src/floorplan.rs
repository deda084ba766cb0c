//! Indoor floor-plan construction simulator (§5.2 of the paper).
//!
//! The paper's real crowd-sensing system estimates hallway-segment lengths
//! from smartphone users: *"we obtain the distance each user has traveled
//! on each hallway segment by multiplying user step size by step count.
//! Due to different walking patterns and in-phone sensor quality, the
//! distances obtained by different users on the same segment can be quite
//! different."* The trace data (247 users, 129 segments, collected via an
//! Android app at SUNY Buffalo) was never released, so this module
//! simulates the generating process:
//!
//! * each hallway segment has a ground-truth length (uniform in a
//!   building-realistic range);
//! * each user has a **persistent step-length calibration ratio** (their
//!   app-configured step size over their true stride) — the dominant,
//!   user-specific multiplicative error source;
//! * each walk adds **step-count noise** (miscounted steps, relative) and
//!   additive **sensor jitter**;
//! * users only walk a (configurable) subset of segments — the matrix is
//!   sparse like real traces.
//!
//! A user's reported distance for segment `n` of length `L_n` is
//! `L_n · ratio_s · (1 + count_noise) + jitter`, so user quality is stable
//! across segments (good for weight estimation) while segment difficulty
//! scales with length — the same structure the paper exploits.

use rand::Rng;

use dptd_stats::dist::{Continuous, Normal, Uniform};
use dptd_truth::ObservationMatrix;

use crate::{Population, SensingDataset, SensingError};

/// Configuration for the floor-plan walk simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloorplanConfig {
    /// Number of hallway segments (paper: 129).
    pub num_segments: usize,
    /// Number of smartphone users (paper: 247).
    pub num_users: usize,
    /// Shortest segment length in metres.
    pub min_segment_len: f64,
    /// Longest segment length in metres.
    pub max_segment_len: f64,
    /// Standard deviation of the per-user step-length calibration ratio
    /// around 1.0 (persistent multiplicative bias).
    pub stride_bias_std: f64,
    /// Standard deviation of the per-walk relative step-count noise.
    pub count_noise_std: f64,
    /// Standard deviation of additive sensor jitter in metres.
    pub jitter_std: f64,
    /// Probability that a given user walked a given segment.
    pub coverage: f64,
}

impl Default for FloorplanConfig {
    /// The paper's scale: 129 segments, 247 users; hallway segments
    /// 5–40 m; ~60% coverage so the matrix is realistically sparse.
    fn default() -> Self {
        Self {
            num_segments: 129,
            num_users: 247,
            min_segment_len: 5.0,
            max_segment_len: 40.0,
            stride_bias_std: 0.05,
            count_noise_std: 0.03,
            jitter_std: 0.3,
            coverage: 0.6,
        }
    }
}

impl FloorplanConfig {
    /// Simulate the walks and assemble a [`SensingDataset`].
    ///
    /// The effective per-user error variance recorded in the population is
    /// the analytic per-walk variance at the mean segment length, so
    /// downstream weight comparisons (Fig. 7) have a ground-truth quality
    /// reference.
    ///
    /// # Errors
    ///
    /// Returns [`SensingError::InvalidParameter`] for empty dimensions,
    /// non-positive lengths, a coverage outside `(0, 1]`, or negative noise
    /// scales.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<SensingDataset, SensingError> {
        self.validate()?;
        let length_dist = Uniform::new(self.min_segment_len, self.max_segment_len)?;
        let ground_truths = length_dist.sample_n(rng, self.num_segments);

        // Persistent per-user calibration ratios around 1.
        let ratio_dist = Normal::new(1.0, self.stride_bias_std)?;
        let ratios: Vec<f64> = (0..self.num_users)
            .map(|_| ratio_dist.sample(rng).max(0.5))
            .collect();

        let count_noise = Normal::new(0.0, self.count_noise_std)?;
        let jitter = Normal::new(0.0, self.jitter_std)?;

        let mut observations = ObservationMatrix::with_dims(self.num_users, self.num_segments)?;
        for (s, &ratio) in ratios.iter().enumerate() {
            for (n, &len) in ground_truths.iter().enumerate() {
                if rng.gen::<f64>() > self.coverage {
                    continue;
                }
                let walked = len * ratio * (1.0 + count_noise.sample(rng)) + jitter.sample(rng);
                observations.insert(s, n, walked.max(0.0))?;
            }
        }

        // Guarantee coverage: every segment needs at least one walk, and
        // every user must have walked somewhere. Deterministically assign
        // stragglers (mirrors how a real campaign would re-task users).
        for (n, &len) in ground_truths.iter().enumerate() {
            if observations.observations_of_object(n).next().is_none() {
                let s = n % self.num_users;
                let walked = len * ratios[s] * (1.0 + count_noise.sample(rng)) + jitter.sample(rng);
                observations.insert(s, n, walked.max(0.0))?;
            }
        }
        for (s, &ratio) in ratios.iter().enumerate() {
            if observations.observations_of_user(s).next().is_none() {
                let n = s % self.num_segments;
                let len = ground_truths[n];
                let walked = len * ratio * (1.0 + count_noise.sample(rng)) + jitter.sample(rng);
                if observations.value(s, n).is_none() {
                    observations.insert(s, n, walked.max(0.0))?;
                }
            }
        }

        // Analytic per-user quality at the mean segment length: variance of
        // L·r·(1+c) + j around L for fixed ratio r is
        // L²·((r−1)² + r²·σ_c²) + σ_j² (treating the persistent bias as
        // squared error contribution).
        let mean_len = 0.5 * (self.min_segment_len + self.max_segment_len);
        let variances: Vec<f64> = ratios
            .iter()
            .map(|&r| {
                let bias = (r - 1.0) * mean_len;
                (bias * bias
                    + mean_len * mean_len * r * r * self.count_noise_std * self.count_noise_std
                    + self.jitter_std * self.jitter_std)
                    .max(1e-9)
            })
            .collect();

        Ok(SensingDataset {
            ground_truths,
            population: Population::from_variances(variances)?,
            observations,
        })
    }

    fn validate(&self) -> Result<(), SensingError> {
        if self.num_segments == 0 {
            return Err(SensingError::InvalidParameter {
                name: "num_segments",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        if self.num_users == 0 {
            return Err(SensingError::InvalidParameter {
                name: "num_users",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        if !(self.min_segment_len > 0.0 && self.max_segment_len > self.min_segment_len) {
            return Err(SensingError::InvalidParameter {
                name: "segment_len",
                value: self.max_segment_len,
                constraint: "need 0 < min_segment_len < max_segment_len",
            });
        }
        if !(self.coverage > 0.0 && self.coverage <= 1.0) {
            return Err(SensingError::InvalidParameter {
                name: "coverage",
                value: self.coverage,
                constraint: "must be in (0, 1]",
            });
        }
        for (name, v) in [
            ("stride_bias_std", self.stride_bias_std),
            ("count_noise_std", self.count_noise_std),
            ("jitter_std", self.jitter_std),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(SensingError::InvalidParameter {
                    name,
                    value: v,
                    constraint: "must be finite and > 0",
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_truth::{crh::Crh, TruthDiscoverer};

    #[test]
    fn default_matches_paper_scale() {
        let cfg = FloorplanConfig::default();
        assert_eq!(cfg.num_segments, 129);
        assert_eq!(cfg.num_users, 247);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut rng = dptd_stats::seeded_rng(181);
        for cfg in [
            FloorplanConfig {
                num_segments: 0,
                ..FloorplanConfig::default()
            },
            FloorplanConfig {
                num_users: 0,
                ..FloorplanConfig::default()
            },
            FloorplanConfig {
                min_segment_len: -1.0,
                ..FloorplanConfig::default()
            },
            FloorplanConfig {
                coverage: 0.0,
                ..FloorplanConfig::default()
            },
            FloorplanConfig {
                jitter_std: 0.0,
                ..FloorplanConfig::default()
            },
        ] {
            assert!(cfg.generate(&mut rng).is_err(), "cfg {cfg:?} accepted");
        }
    }

    #[test]
    fn full_coverage_yields_dense_matrix() {
        let mut rng = dptd_stats::seeded_rng(191);
        let cfg = FloorplanConfig {
            num_segments: 10,
            num_users: 5,
            coverage: 1.0,
            ..FloorplanConfig::default()
        };
        let ds = cfg.generate(&mut rng).unwrap();
        assert_eq!(ds.observations.num_observations(), 50);
    }

    #[test]
    fn sparse_matrix_still_covered() {
        let mut rng = dptd_stats::seeded_rng(193);
        let cfg = FloorplanConfig {
            coverage: 0.05,
            ..FloorplanConfig::default()
        };
        let ds = cfg.generate(&mut rng).unwrap();
        assert!(ds.observations.validate_coverage().is_ok());
        // Every user walked at least one segment.
        for s in 0..ds.num_users() {
            assert!(ds.observations.observations_of_user(s).next().is_some());
        }
        // And the matrix is genuinely sparse.
        assert!(
            ds.observations.num_observations() < 247 * 129 / 4,
            "matrix unexpectedly dense: {}",
            ds.observations.num_observations()
        );
    }

    #[test]
    fn distances_are_near_segment_lengths() {
        let mut rng = dptd_stats::seeded_rng(197);
        let ds = FloorplanConfig::default().generate(&mut rng).unwrap();
        for n in 0..ds.num_objects() {
            let truth = ds.ground_truths[n];
            for (_, v) in ds.observations.observations_of_object(n) {
                assert!(
                    (v - truth).abs() < 0.5 * truth + 3.0,
                    "claim {v} wildly off truth {truth}"
                );
            }
        }
    }

    #[test]
    fn crh_reconstructs_floorplan() {
        let mut rng = dptd_stats::seeded_rng(199);
        let ds = FloorplanConfig::default().generate(&mut rng).unwrap();
        let out = Crh::default().discover(&ds.observations).unwrap();
        let mae = ds.mae_to_truth(&out.truths);
        // Segment lengths are 5-40 m; reconstruction should be sub-metre.
        assert!(mae < 1.0, "floorplan MAE {mae}");
    }

    #[test]
    fn calibration_bias_drives_user_quality() {
        let mut rng = dptd_stats::seeded_rng(211);
        let ds = FloorplanConfig {
            coverage: 1.0,
            num_users: 40,
            num_segments: 60,
            ..FloorplanConfig::default()
        }
        .generate(&mut rng)
        .unwrap();
        // The user the population ranks worst must have larger average
        // claim error than the best-ranked user.
        let ranking = ds.population.reliability_ranking();
        let err = |s: usize| {
            ds.observations
                .observations_of_user(s)
                .map(|(n, v)| (v - ds.ground_truths[n]).abs())
                .sum::<f64>()
                / ds.num_objects() as f64
        };
        assert!(err(ranking[0]) < err(ranking[ranking.len() - 1]));
    }
}
