//! The server/user role split of Algorithm 2 as a typed API.
//!
//! `dptd-protocol` drives these same types over a simulated network; the
//! split makes the trust boundary explicit in the type system: the server
//! only ever sees [`PerturbedReport`]s, never raw values, and the noise
//! variance a user sampled never leaves [`User::respond`].

use rand::Rng;

use dptd_ldp::RandomizedVarianceGaussian;
use dptd_truth::{ObservationMatrix, TruthDiscoverer, TruthDiscoveryResult};

use crate::CoreError;

/// The public hyper-parameter the server broadcasts (step 1/3 of
/// Algorithm 2). Only `λ₂` — the *distribution* of noise variances — is
/// public; realised variances stay on-device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperParameter {
    /// Rate of the exponential distribution users draw noise variances
    /// from.
    pub lambda2: f64,
}

/// A task assignment: which objects a user is asked to observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskAssignment {
    /// Object indices assigned to the user.
    pub objects: Vec<usize>,
}

/// One user's perturbed submission (step 5 of Algorithm 2).
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbedReport {
    /// The submitting user's index.
    pub user: usize,
    /// `(object, perturbed value)` pairs.
    pub values: Vec<(usize, f64)>,
}

/// A crowd-sensing participant.
///
/// # Example
///
/// ```
/// use dptd_core::roles::{HyperParameter, User};
///
/// # fn main() -> Result<(), dptd_core::CoreError> {
/// let user = User::new(3);
/// let mut rng = dptd_stats::seeded_rng(1);
/// let report = user.respond(
///     &[(0, 12.5), (4, 9.0)],
///     HyperParameter { lambda2: 2.0 },
///     &mut rng,
/// )?;
/// assert_eq!(report.user, 3);
/// assert_eq!(report.values.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct User {
    id: usize,
}

impl User {
    /// Create a user with the given index.
    pub fn new(id: usize) -> Self {
        Self { id }
    }

    /// This user's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Steps 2–5 of Algorithm 2: given raw `(object, value)` measurements
    /// and the server's hyper-parameter, sample a private noise variance
    /// and return the perturbed report.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ldp`] if the hyper-parameter is invalid.
    pub fn respond<R: Rng + ?Sized>(
        &self,
        measurements: &[(usize, f64)],
        hyper: HyperParameter,
        rng: &mut R,
    ) -> Result<PerturbedReport, CoreError> {
        let mechanism = RandomizedVarianceGaussian::new(hyper.lambda2)?;
        let raw: Vec<f64> = measurements.iter().map(|&(_, v)| v).collect();
        let variance = mechanism.sample_noise_variance(rng);
        let noisy = mechanism.perturb_report_with_variance(&raw, variance, rng);
        Ok(PerturbedReport {
            user: self.id,
            values: measurements.iter().map(|&(n, _)| n).zip(noisy).collect(),
        })
    }
}

/// The (untrusted) aggregation server.
#[derive(Debug, Clone)]
pub struct Server<A> {
    algorithm: A,
    hyper: HyperParameter,
    num_objects: usize,
}

impl<A: TruthDiscoverer> Server<A> {
    /// Create a server that will collect reports about `num_objects`
    /// objects and aggregate with `algorithm`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `λ₂` is not finite and
    /// positive or `num_objects` is zero.
    pub fn new(algorithm: A, lambda2: f64, num_objects: usize) -> Result<Self, CoreError> {
        if !(lambda2.is_finite() && lambda2 > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "lambda2",
                value: lambda2,
                constraint: "must be finite and > 0",
            });
        }
        if num_objects == 0 {
            return Err(CoreError::InvalidParameter {
                name: "num_objects",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        Ok(Self {
            algorithm,
            hyper: HyperParameter { lambda2 },
            num_objects,
        })
    }

    /// The hyper-parameter broadcast to users (step 3 of Algorithm 2).
    pub fn announce(&self) -> HyperParameter {
        self.hyper
    }

    /// Number of objects in the current campaign.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Step 6 of Algorithm 2: assemble the collected reports into an
    /// observation matrix and run truth discovery.
    ///
    /// Reports are indexed densely by their position in `reports`
    /// (user ids inside the reports are preserved for audit but the matrix
    /// row is the report's position, so missing users simply don't occupy
    /// a row).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when no reports were
    /// collected, and propagates matrix/algorithm errors (duplicate
    /// observations, uncovered objects, …).
    pub fn aggregate(
        &self,
        reports: &[PerturbedReport],
    ) -> Result<TruthDiscoveryResult, CoreError> {
        if reports.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "reports",
                value: 0.0,
                constraint: "need at least one report to aggregate",
            });
        }
        let rows: Vec<Vec<(usize, f64)>> = reports.iter().map(|r| r.values.clone()).collect();
        let matrix = ObservationMatrix::from_sparse_rows(self.num_objects, &rows)?;
        Ok(self.algorithm.discover(&matrix)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dptd_truth::crh::Crh;

    #[test]
    fn server_validates() {
        assert!(Server::new(Crh::default(), 0.0, 5).is_err());
        assert!(Server::new(Crh::default(), 1.0, 0).is_err());
    }

    #[test]
    fn respond_perturbs_all_values() {
        let user = User::new(0);
        let mut rng = dptd_stats::seeded_rng(277);
        let report = user
            .respond(
                &[(0, 1.0), (1, 2.0)],
                HyperParameter { lambda2: 0.5 },
                &mut rng,
            )
            .unwrap();
        assert_eq!(report.values.len(), 2);
        assert_eq!(report.values[0].0, 0);
        assert_eq!(report.values[1].0, 1);
    }

    #[test]
    fn respond_rejects_bad_hyper() {
        let user = User::new(0);
        let mut rng = dptd_stats::seeded_rng(281);
        assert!(user
            .respond(&[(0, 1.0)], HyperParameter { lambda2: -1.0 }, &mut rng)
            .is_err());
    }

    #[test]
    fn end_to_end_rounds_match_pipeline_semantics() {
        // Three users, two objects, tiny noise: server recovers claims.
        let server = Server::new(Crh::default(), 1e9, 2).unwrap();
        let hyper = server.announce();
        let mut rng = dptd_stats::seeded_rng(283);
        let raw = [
            vec![(0usize, 5.0), (1usize, 8.0)],
            vec![(0, 5.1), (1, 8.1)],
            vec![(0, 4.9), (1, 7.9)],
        ];
        let reports: Vec<PerturbedReport> = raw
            .iter()
            .enumerate()
            .map(|(i, m)| User::new(i).respond(m, hyper, &mut rng).unwrap())
            .collect();
        let result = server.aggregate(&reports).unwrap();
        assert!((result.truths[0] - 5.0).abs() < 0.05);
        assert!((result.truths[1] - 8.0).abs() < 0.05);
    }

    #[test]
    fn aggregate_requires_reports_and_coverage() {
        let server = Server::new(Crh::default(), 1.0, 2).unwrap();
        assert!(server.aggregate(&[]).is_err());
        // One report covering only object 0 → object 1 uncovered.
        let r = PerturbedReport {
            user: 0,
            values: vec![(0, 1.0)],
        };
        assert!(server.aggregate(&[r]).is_err());
    }

    #[test]
    fn partial_participation_is_tolerated() {
        // Users may drop out; the server aggregates whoever submitted, as
        // long as every object is covered.
        let server = Server::new(Crh::default(), 1e9, 2).unwrap();
        let reports = vec![
            PerturbedReport {
                user: 7,
                values: vec![(0, 3.0), (1, 6.0)],
            },
            PerturbedReport {
                user: 42,
                values: vec![(0, 3.2)],
            },
        ];
        let result = server.aggregate(&reports).unwrap();
        assert_eq!(result.truths.len(), 2);
        assert!((result.truths[1] - 6.0).abs() < 1e-9);
    }
}
