//! Loss functions `d(x, x*)` for weight estimation (Eq. 2).
//!
//! Different truth-discovery methods plug different distance functions into
//! the weight-estimation step. CRH's original formulation normalises the
//! squared loss by the per-object spread so objects on different scales
//! contribute comparably.

/// The distance function used in weight estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Loss {
    /// Squared distance `(x − x*)²`.
    Squared,
    /// Absolute distance `|x − x*|`.
    Absolute,
    /// Squared distance divided by the per-object standard deviation of the
    /// claims — CRH's continuous loss (scale-invariant across objects).
    #[default]
    NormalizedSquared,
}

impl Loss {
    /// Evaluate the loss of claim `x` against truth estimate `truth` for an
    /// object whose claims have standard deviation `object_std`.
    ///
    /// `object_std` is ignored by the non-normalised variants.
    pub fn distance(&self, x: f64, truth: f64, object_std: f64) -> f64 {
        let d = x - truth;
        match self {
            Loss::Squared => d * d,
            Loss::Absolute => d.abs(),
            Loss::NormalizedSquared => d * d / object_std.max(1e-12),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_and_absolute() {
        assert_eq!(Loss::Squared.distance(3.0, 1.0, 9.9), 4.0);
        assert_eq!(Loss::Absolute.distance(3.0, 1.0, 9.9), 2.0);
        assert_eq!(Loss::Absolute.distance(-3.0, 1.0, 9.9), 4.0);
    }

    #[test]
    fn normalized_uses_std() {
        assert_eq!(Loss::NormalizedSquared.distance(3.0, 1.0, 2.0), 2.0);
        // Degenerate std falls back without dividing by zero.
        assert!(Loss::NormalizedSquared.distance(3.0, 1.0, 0.0).is_finite());
    }

    #[test]
    fn losses_are_nonnegative_and_zero_at_truth() {
        for loss in [Loss::Squared, Loss::Absolute, Loss::NormalizedSquared] {
            assert_eq!(loss.distance(5.0, 5.0, 1.0), 0.0);
            assert!(loss.distance(4.0, 5.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn default_is_normalized() {
        assert_eq!(Loss::default(), Loss::NormalizedSquared);
    }
}
