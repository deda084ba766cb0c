use std::fmt;

/// Error type for truth-discovery algorithms and data structures.
#[derive(Debug, Clone, PartialEq)]
pub enum TruthError {
    /// The observation matrix would be empty (zero users or objects).
    EmptyMatrix,
    /// An object index was out of range while building a matrix.
    ObjectOutOfRange {
        /// The offending object index.
        object: usize,
        /// Declared number of objects.
        num_objects: usize,
    },
    /// A user index was outside the fixed population (sharded streaming
    /// ingestion over a known population size).
    UserOutOfRange {
        /// The offending user index.
        user: usize,
        /// Declared population size.
        num_users: usize,
    },
    /// An object has no observations from any user, so no truth can be
    /// estimated for it.
    UnobservedObject {
        /// The object with no observations.
        object: usize,
    },
    /// A user observed the same object twice in one matrix.
    DuplicateObservation {
        /// User index.
        user: usize,
        /// Object index.
        object: usize,
    },
    /// An observation was not finite.
    NonFiniteObservation {
        /// User index.
        user: usize,
        /// Object index.
        object: usize,
        /// The offending value.
        value: f64,
    },
    /// A finite observation larger in magnitude than
    /// [`crate::columnar::MAX_CLAIM_MAGNITUDE`], which could overflow a
    /// user's cumulative loss.
    ObservationOutOfBounds {
        /// User index.
        user: usize,
        /// Object index.
        object: usize,
        /// The offending value.
        value: f64,
    },
    /// An algorithm parameter was outside its domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Rejected value.
        value: f64,
        /// The constraint that failed.
        constraint: &'static str,
    },
    /// The iteration degenerated (all weights collapsed to zero or NaN).
    Degenerate {
        /// Human-readable description of the degeneracy.
        reason: &'static str,
    },
}

impl fmt::Display for TruthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TruthError::EmptyMatrix => write!(f, "observation matrix has no users or no objects"),
            TruthError::ObjectOutOfRange {
                object,
                num_objects,
            } => write!(
                f,
                "object index {object} out of range for {num_objects} objects"
            ),
            TruthError::UserOutOfRange { user, num_users } => write!(
                f,
                "user index {user} out of range for a population of {num_users} users"
            ),
            TruthError::UnobservedObject { object } => {
                write!(f, "object {object} has no observations")
            }
            TruthError::DuplicateObservation { user, object } => {
                write!(f, "user {user} observed object {object} more than once")
            }
            TruthError::NonFiniteObservation {
                user,
                object,
                value,
            } => write!(
                f,
                "non-finite observation {value} from user {user} on object {object}"
            ),
            TruthError::ObservationOutOfBounds {
                user,
                object,
                value,
            } => write!(
                f,
                "observation {value:e} from user {user} on object {object} exceeds the claim \
                 magnitude bound {:e}",
                crate::columnar::MAX_CLAIM_MAGNITUDE
            ),
            TruthError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "invalid parameter {name} = {value}: {constraint}"),
            TruthError::Degenerate { reason } => write!(f, "degenerate iteration: {reason}"),
        }
    }
}

impl std::error::Error for TruthError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_indices() {
        let e = TruthError::UnobservedObject { object: 4 };
        assert!(e.to_string().contains('4'));
        let e = TruthError::DuplicateObservation { user: 2, object: 9 };
        assert!(e.to_string().contains('2') && e.to_string().contains('9'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TruthError>();
    }
}
