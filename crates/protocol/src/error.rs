use std::fmt;

/// Error type for the protocol layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// A runtime parameter was outside its domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Rejected value.
        value: f64,
        /// The constraint that failed.
        constraint: &'static str,
    },
    /// The round deadline passed without enough coverage to aggregate
    /// (every object needs at least one surviving report).
    InsufficientCoverage {
        /// The first object with no report.
        object: usize,
        /// How many reports did arrive.
        reports_received: usize,
    },
    /// A campaign round backend failed outside the protocol's own error
    /// domain (e.g. the streaming engine's ingestion layer).
    Backend {
        /// Which backend failed (`"sim"`, `"engine"`, …).
        backend: &'static str,
        /// Human-readable failure description.
        message: String,
    },
    /// An error from the core pipeline.
    Core(dptd_core::CoreError),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "invalid parameter {name} = {value}: {constraint}"),
            ProtocolError::InsufficientCoverage {
                object,
                reports_received,
            } => write!(
                f,
                "object {object} received no reports before the deadline ({reports_received} total reports arrived)"
            ),
            ProtocolError::Backend { backend, message } => {
                write!(f, "{backend} backend failed: {message}")
            }
            ProtocolError::Core(e) => write!(f, "pipeline error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dptd_core::CoreError> for ProtocolError {
    fn from(e: dptd_core::CoreError) -> Self {
        ProtocolError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = ProtocolError::InsufficientCoverage {
            object: 3,
            reports_received: 7,
        };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProtocolError>();
    }
}
