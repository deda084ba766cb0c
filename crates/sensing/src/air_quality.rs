//! Air-quality monitoring scenario (one of the paper's §1 motivating
//! applications, citing Meng et al., SenSys'15).
//!
//! A city grid of monitoring cells with **spatially correlated** ground
//! truth (pollution varies smoothly plus hot spots), sensed by mobile
//! users who each cover a contiguous neighbourhood of cells. This differs
//! from the synthetic world in two ways that stress truth discovery:
//!
//! * coverage is *local* — each user only observes cells near their
//!   route, so the observation matrix is block-sparse; and
//! * per-user error combines a calibration **bias** (cheap sensors read
//!   systematically high/low) with proportional noise.

use rand::Rng;

use dptd_stats::dist::{Continuous, Normal, Uniform};
use dptd_truth::ObservationMatrix;

use crate::{Population, SensingDataset, SensingError};

/// Configuration for the air-quality grid world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirQualityConfig {
    /// Grid side length; the world has `side × side` cells (objects).
    pub side: usize,
    /// Number of mobile users.
    pub num_users: usize,
    /// Baseline pollution level (e.g. PM2.5 µg/m³).
    pub base_level: f64,
    /// Amplitude of the smooth spatial field.
    pub field_amplitude: f64,
    /// Number of pollution hot spots.
    pub hotspots: usize,
    /// Peak added by each hot spot.
    pub hotspot_peak: f64,
    /// Radius (in cells) a user covers around their route anchor.
    pub coverage_radius: usize,
    /// Standard deviation of the per-user calibration bias.
    pub bias_std: f64,
    /// Relative (proportional) noise per reading.
    pub relative_noise: f64,
}

impl Default for AirQualityConfig {
    /// A 12×12 grid (144 cells), 200 users, PM2.5-like levels.
    fn default() -> Self {
        Self {
            side: 12,
            num_users: 200,
            base_level: 35.0,
            field_amplitude: 15.0,
            hotspots: 3,
            hotspot_peak: 40.0,
            coverage_radius: 3,
            bias_std: 2.0,
            relative_noise: 0.05,
        }
    }
}

impl AirQualityConfig {
    /// Generate the grid world and user readings.
    ///
    /// # Errors
    ///
    /// Returns [`SensingError::InvalidParameter`] for empty dimensions or
    /// non-positive noise scales.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<SensingDataset, SensingError> {
        self.validate()?;
        let n_cells = self.side * self.side;

        // Smooth field: sum of a few random low-frequency sinusoids.
        let phase = Uniform::new(0.0, std::f64::consts::TAU)?;
        let (px, py) = (phase.sample(rng), phase.sample(rng));
        let mut truths: Vec<f64> = (0..n_cells)
            .map(|i| {
                let (x, y) = (
                    (i % self.side) as f64 / self.side as f64,
                    (i / self.side) as f64 / self.side as f64,
                );
                self.base_level
                    + self.field_amplitude
                        * 0.5
                        * ((std::f64::consts::TAU * x + px).sin()
                            + (std::f64::consts::TAU * y + py).sin())
            })
            .collect();

        // Hot spots: Gaussian bumps at random cells.
        for _ in 0..self.hotspots {
            let cx = rng.gen_range(0..self.side) as f64;
            let cy = rng.gen_range(0..self.side) as f64;
            for (i, t) in truths.iter_mut().enumerate() {
                let dx = (i % self.side) as f64 - cx;
                let dy = (i / self.side) as f64 - cy;
                *t += self.hotspot_peak * (-(dx * dx + dy * dy) / 4.0).exp();
            }
        }

        // Users: anchor cell + coverage disc + calibration bias.
        let bias_dist = Normal::new(0.0, self.bias_std)?;
        let mut observations = ObservationMatrix::with_dims(self.num_users, n_cells)?;
        let mut biases = Vec::with_capacity(self.num_users);
        for s in 0..self.num_users {
            let bias = bias_dist.sample(rng);
            biases.push(bias);
            let ax = rng.gen_range(0..self.side) as i64;
            let ay = rng.gen_range(0..self.side) as i64;
            let r = self.coverage_radius as i64;
            for dy in -r..=r {
                for dx in -r..=r {
                    let (x, y) = (ax + dx, ay + dy);
                    if x < 0 || y < 0 || x >= self.side as i64 || y >= self.side as i64 {
                        continue;
                    }
                    if dx * dx + dy * dy > r * r {
                        continue;
                    }
                    let cell = (y as usize) * self.side + x as usize;
                    let truth = truths[cell];
                    let noise =
                        Normal::new(0.0, (self.relative_noise * truth).max(1e-6))?.sample(rng);
                    let reading = (truth + bias + noise).max(0.0);
                    observations.insert(s, cell, reading)?;
                }
            }
        }

        // Re-task to guarantee coverage of every cell.
        for (cell, &truth) in truths.iter().enumerate() {
            if observations.observations_of_object(cell).next().is_none() {
                let s = cell % self.num_users;
                let noise = Normal::new(0.0, (self.relative_noise * truth).max(1e-6))?.sample(rng);
                observations.insert(s, cell, (truth + biases[s] + noise).max(0.0))?;
            }
        }

        // Effective per-user variance: bias² + (rel·mean level)².
        let mean_level = truths.iter().sum::<f64>() / n_cells as f64;
        let variances: Vec<f64> = biases
            .iter()
            .map(|b| (b * b + (self.relative_noise * mean_level).powi(2)).max(1e-9))
            .collect();

        Ok(SensingDataset {
            ground_truths: truths,
            population: Population::from_variances(variances)?,
            observations,
        })
    }

    fn validate(&self) -> Result<(), SensingError> {
        if self.side == 0 {
            return Err(SensingError::InvalidParameter {
                name: "side",
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
        for (name, v) in [
            ("bias_std", self.bias_std),
            ("relative_noise", self.relative_noise),
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
    fn validation() {
        let mut rng = dptd_stats::seeded_rng(941);
        for cfg in [
            AirQualityConfig {
                side: 0,
                ..Default::default()
            },
            AirQualityConfig {
                num_users: 0,
                ..Default::default()
            },
            AirQualityConfig {
                bias_std: 0.0,
                ..Default::default()
            },
            AirQualityConfig {
                relative_noise: -1.0,
                ..Default::default()
            },
        ] {
            assert!(cfg.generate(&mut rng).is_err());
        }
    }

    #[test]
    fn grid_world_is_covered_and_positive() {
        let mut rng = dptd_stats::seeded_rng(947);
        let ds = AirQualityConfig::default().generate(&mut rng).unwrap();
        assert_eq!(ds.num_objects(), 144);
        assert!(ds.observations.validate_coverage().is_ok());
        assert!(ds.ground_truths.iter().all(|&t| t > 0.0));
        for n in 0..ds.num_objects() {
            for (_, v) in ds.observations.observations_of_object(n) {
                assert!(v >= 0.0);
            }
        }
    }

    #[test]
    fn field_is_spatially_smooth_away_from_hotspots() {
        // Without hot spots, neighbouring cells differ much less than the
        // field amplitude.
        let mut rng = dptd_stats::seeded_rng(953);
        let cfg = AirQualityConfig {
            hotspots: 0,
            ..Default::default()
        };
        let ds = cfg.generate(&mut rng).unwrap();
        let side = cfg.side;
        for y in 0..side {
            for x in 0..side - 1 {
                let a = ds.ground_truths[y * side + x];
                let b = ds.ground_truths[y * side + x + 1];
                assert!(
                    (a - b).abs() < cfg.field_amplitude,
                    "rough field at ({x},{y}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn crh_reconstructs_pollution_map() {
        let mut rng = dptd_stats::seeded_rng(959);
        let ds = AirQualityConfig::default().generate(&mut rng).unwrap();
        let out = Crh::default().discover(&ds.observations).unwrap();
        let mae = ds.mae_to_truth(&out.truths);
        // Levels are ~20-90 µg/m³; the map should be within ~1.
        assert!(mae < 1.5, "air-quality MAE {mae}");
    }

    #[test]
    fn biased_sensors_rank_low() {
        let mut rng = dptd_stats::seeded_rng(967);
        let ds = AirQualityConfig {
            num_users: 50,
            coverage_radius: 6,
            ..Default::default()
        }
        .generate(&mut rng)
        .unwrap();
        let ranking = ds.population.reliability_ranking();
        let err = |s: usize| {
            let obs: Vec<(usize, f64)> = ds.observations.observations_of_user(s).collect();
            obs.iter()
                .map(|&(n, v)| (v - ds.ground_truths[n]).abs())
                .sum::<f64>()
                / obs.len().max(1) as f64
        };
        assert!(err(ranking[0]) < err(ranking[ranking.len() - 1]));
    }
}
