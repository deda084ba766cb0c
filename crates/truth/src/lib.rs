//! Truth-discovery algorithms for crowd sensing.
//!
//! *Truth discovery* aggregates conflicting observations from many users by
//! jointly estimating per-user reliability **weights** and per-object
//! **truths** (Algorithm 1 of the paper):
//!
//! 1. **Aggregation** (Eq. 1): `x*_n = Σ_s w_s·x^s_n / Σ_s w_s`;
//! 2. **Weight estimation** (Eq. 2): `w_s = f(Σ_n d(x^s_n, x*_n))` for a
//!    monotonically decreasing `f`;
//!
//! iterated to convergence. This crate provides:
//!
//! * [`matrix::ObservationMatrix`] — the (possibly sparse) user × object
//!   observation table all algorithms consume.
//! * [`crh::Crh`] — the CRH algorithm (Li et al., SIGMOD'14), the method
//!   used throughout the paper's experiments, with pluggable losses.
//! * [`gtm::Gtm`] — GTM (Zhao & Han, QDB'12), the second continuous-data
//!   method the paper evaluates (Fig. 5).
//! * [`catd::Catd`] — CATD (Li et al., VLDB'15), a confidence-aware
//!   method for long-tail claim counts; an extra generality check for the
//!   algorithm-agnostic mechanism.
//! * [`baselines`] — mean/median aggregation, the paper's §3.2 strawmen.
//! * [`streaming`] — an incremental truth-discovery wrapper for batched
//!   arrival of objects.
//!
//! # Quickstart
//!
//! ```
//! use dptd_truth::matrix::ObservationMatrix;
//! use dptd_truth::crh::Crh;
//! use dptd_truth::TruthDiscoverer;
//!
//! # fn main() -> Result<(), dptd_truth::TruthError> {
//! // Three users observe two objects; user 2 is unreliable.
//! let data = ObservationMatrix::from_dense(&[
//!     &[10.1, 20.2][..],
//!     &[9.9, 19.8],
//!     &[15.0, 3.0],
//! ])?;
//! let result = Crh::default().discover(&data)?;
//! assert!((result.truths[0] - 10.0).abs() < 0.5);
//! assert!(result.weights[2] < result.weights[0]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod baselines;
pub mod catd;
pub mod columnar;
pub mod convergence;
pub mod crh;
pub mod gtm;
pub mod loss;
pub mod matrix;
pub mod streaming;

mod error;

pub use convergence::Convergence;
pub use error::TruthError;
pub use loss::Loss;
pub use matrix::ObservationMatrix;

/// The outcome of a truth-discovery run.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthDiscoveryResult {
    /// Estimated truth per object (`x*_n`, length = number of objects).
    pub truths: Vec<f64>,
    /// Estimated reliability weight per user (length = number of users).
    /// Scales are algorithm-specific; only relative order is meaningful.
    pub weights: Vec<f64>,
    /// Number of aggregation/weight-estimation iterations performed.
    pub iterations: usize,
    /// Whether the convergence criterion was met (as opposed to hitting the
    /// iteration cap).
    pub converged: bool,
}

/// A truth-discovery algorithm over continuous observations.
///
/// Implementors follow the two-step iterative template of Algorithm 1; the
/// crate ships [`crh::Crh`], [`gtm::Gtm`] and the naive
/// [`baselines`]. The paper's perturbation mechanism is deliberately
/// algorithm-agnostic (§3.1: *"it can work with any truth discovery method
/// that can handle continuous data"*), which this trait encodes.
pub trait TruthDiscoverer {
    /// Run truth discovery over the observation matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError`] if the matrix is malformed (e.g. an object
    /// with no observations) or the algorithm degenerates numerically.
    fn discover(&self, data: &ObservationMatrix) -> Result<TruthDiscoveryResult, TruthError>;
}
