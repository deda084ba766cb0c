use std::fmt;

/// Error type for the LDP substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum LdpError {
    /// A mechanism or accounting parameter was outside its domain.
    InvalidParameter {
        /// Parameter name (e.g. `"epsilon"`).
        name: &'static str,
        /// Rejected value.
        value: f64,
        /// The constraint that failed.
        constraint: &'static str,
    },
    /// An underlying statistics error (invalid distribution parameters).
    Stats(dptd_stats::StatsError),
}

impl fmt::Display for LdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdpError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "invalid parameter {name} = {value}: {constraint}"),
            LdpError::Stats(e) => write!(f, "statistics error: {e}"),
        }
    }
}

impl std::error::Error for LdpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LdpError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dptd_stats::StatsError> for LdpError {
    fn from(e: dptd_stats::StatsError) -> Self {
        LdpError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = LdpError::Stats(dptd_stats::StatsError::NotEnoughData {
            required: 2,
            actual: 0,
        });
        assert!(e.to_string().contains("statistics error"));
        assert!(e.source().is_some());

        let e = LdpError::InvalidParameter {
            name: "epsilon",
            value: 7.0,
            constraint: "must be positive",
        };
        assert!(e.to_string().contains('7'));
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LdpError>();
    }
}
