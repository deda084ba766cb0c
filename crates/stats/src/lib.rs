//! Statistics substrate for the `dptd` workspace.
//!
//! The offline dependency set contains [`rand`] but not `rand_distr` or any
//! special-function crate, so everything the paper's mechanism and theory
//! need is implemented here from scratch:
//!
//! * [`special`] — error function, log-gamma, regularized incomplete gamma,
//!   and the standard-normal CDF/quantile built on top of them.
//! * [`dist`] — continuous probability distributions (normal, exponential,
//!   gamma, Laplace, uniform) with sampling, densities, CDFs and quantiles.
//! * [`summary`] — streaming (Welford) and batch summaries, error metrics
//!   (MAE/RMSE), and quantile estimation.
//! * [`gof`] — goodness-of-fit tests (Kolmogorov–Smirnov, chi-square);
//!   its own tests use them to check the [`dist`] samplers.
//! * [`histogram`] — fixed-width binning used by the empirical LDP checks.
//! * [`digest`] — deterministic FNV-1a fingerprints for reproducibility
//!   checks (golden stream digests, backend-equivalence diffing).
//!
//! # Example
//!
//! ```
//! use dptd_stats::dist::{Continuous, Exponential, Normal};
//!
//! # fn main() -> Result<(), dptd_stats::StatsError> {
//! let mut rng = dptd_stats::seeded_rng(7);
//! // The paper's noise model: variance ~ Exp(rate λ₂), noise ~ N(0, variance).
//! let variance = Exponential::new(2.0)?.sample(&mut rng);
//! let noise = Normal::new(0.0, variance.sqrt())?.sample(&mut rng);
//! assert!(noise.is_finite());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod digest;
pub mod dist;
pub mod gof;
pub mod histogram;
pub mod special;
pub mod summary;

mod error;

pub use error::StatsError;

/// Convenience constructor for a deterministic, seedable RNG.
///
/// All simulations in the workspace accept a seed so experiments are exactly
/// reproducible; this wraps `StdRng::seed_from_u64`.
///
/// ```
/// let mut a = dptd_stats::seeded_rng(42);
/// let mut b = dptd_stats::seeded_rng(42);
/// use rand::Rng;
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
