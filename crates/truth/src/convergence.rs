//! Convergence criteria for the iterative truth-discovery loop.
//!
//! The paper (§5.3) terminates when *"the change in aggregated results is
//! smaller than a threshold"*, with a cap on iteration count; this module
//! encodes exactly that rule.

use crate::TruthError;

/// Convergence policy: stop when the mean absolute change in truths between
/// consecutive iterations drops below `tolerance`, or after `max_iterations`.
///
/// # Example
///
/// ```
/// use dptd_truth::Convergence;
///
/// # fn main() -> Result<(), dptd_truth::TruthError> {
/// let c = Convergence::new(1e-6, 100)?;
/// assert!(c.is_converged(&[1.0, 2.0], &[1.0, 2.0 + 1e-9]));
/// assert!(!c.is_converged(&[1.0, 2.0], &[1.5, 2.0]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Convergence {
    tolerance: f64,
    max_iterations: usize,
}

impl Convergence {
    /// Create a convergence policy.
    ///
    /// # Errors
    ///
    /// Returns [`TruthError::InvalidParameter`] if `tolerance` is not
    /// finite and non-negative, or `max_iterations` is zero.
    pub fn new(tolerance: f64, max_iterations: usize) -> Result<Self, TruthError> {
        if !(tolerance.is_finite() && tolerance >= 0.0) {
            return Err(TruthError::InvalidParameter {
                name: "tolerance",
                value: tolerance,
                constraint: "must be finite and >= 0",
            });
        }
        if max_iterations == 0 {
            return Err(TruthError::InvalidParameter {
                name: "max_iterations",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        Ok(Self {
            tolerance,
            max_iterations,
        })
    }

    /// The mean-absolute-change threshold.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The iteration cap.
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// Mean absolute change between two truth vectors.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths (they always come from
    /// the same matrix inside the algorithms).
    pub fn change(previous: &[f64], current: &[f64]) -> f64 {
        assert_eq!(previous.len(), current.len(), "truth vectors must align");
        if previous.is_empty() {
            return 0.0;
        }
        previous
            .iter()
            .zip(current)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / previous.len() as f64
    }

    /// Whether the change between two consecutive truth vectors is within
    /// tolerance.
    pub fn is_converged(&self, previous: &[f64], current: &[f64]) -> bool {
        Self::change(previous, current) <= self.tolerance
    }
}

impl Default for Convergence {
    /// `tolerance = 1e-6`, `max_iterations = 100` — the settings used by
    /// the experiment harness unless a figure says otherwise.
    fn default() -> Self {
        Self {
            tolerance: 1e-6,
            max_iterations: 100,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_parameters() {
        assert!(Convergence::new(-1.0, 10).is_err());
        assert!(Convergence::new(f64::NAN, 10).is_err());
        assert!(Convergence::new(1e-6, 0).is_err());
    }

    #[test]
    fn change_is_mean_l1() {
        let c = Convergence::change(&[0.0, 0.0], &[1.0, 3.0]);
        assert_eq!(c, 2.0);
        assert_eq!(Convergence::change(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn change_rejects_mismatched() {
        Convergence::change(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn zero_tolerance_requires_exact() {
        let c = Convergence::new(0.0, 5).unwrap();
        assert!(c.is_converged(&[1.0], &[1.0]));
        assert!(!c.is_converged(&[1.0], &[1.0 + 1e-12]));
    }

    #[test]
    fn default_sane() {
        let c = Convergence::default();
        assert!(c.tolerance() > 0.0);
        assert!(c.max_iterations() >= 10);
    }
}
