use std::error::Error;
use std::fmt;

/// Error type for statistical computations.
///
/// Every fallible public function in this crate returns
/// `Result<T, StatsError>`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StatsError {
    /// The input slice was empty but the statistic requires at least one
    /// observation.
    EmptyInput,
    /// The input had fewer observations than the statistic requires.
    InsufficientData {
        /// Minimum number of observations required.
        required: usize,
        /// Number of observations actually supplied.
        actual: usize,
    },
    /// Two paired samples had different lengths.
    LengthMismatch {
        /// Length of the first sample.
        left: usize,
        /// Length of the second sample.
        right: usize,
    },
    /// A parameter was outside its valid domain (e.g. a non-positive Weibull
    /// shape, or a probability outside `[0, 1]`).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value that was supplied.
        value: f64,
    },
    /// An observation was outside the support of the distribution or
    /// statistic (e.g. a negative value passed to a Weibull fit).
    OutOfDomain {
        /// Description of the expected domain.
        expected: &'static str,
        /// Value that was supplied.
        value: f64,
    },
    /// The input contained a NaN or infinite value.
    NonFinite,
    /// An iterative algorithm failed to converge.
    NoConvergence {
        /// Name of the algorithm that failed.
        algorithm: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The sample was degenerate for the requested statistic (e.g. zero
    /// variance in a correlation).
    DegenerateSample(&'static str),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "input sample is empty"),
            StatsError::InsufficientData { required, actual } => write!(
                f,
                "insufficient data: required at least {required} observations, got {actual}"
            ),
            StatsError::LengthMismatch { left, right } => write!(
                f,
                "paired samples have mismatched lengths ({left} vs {right})"
            ),
            StatsError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter `{name}`: {value}")
            }
            StatsError::OutOfDomain { expected, value } => {
                write!(f, "value {value} outside expected domain ({expected})")
            }
            StatsError::NonFinite => write!(f, "input contains NaN or infinite values"),
            StatsError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} failed to converge after {iterations} iterations"
            ),
            StatsError::DegenerateSample(what) => {
                write!(f, "degenerate sample: {what}")
            }
        }
    }
}

impl Error for StatsError {}

/// Validates that every value in `xs` is finite.
pub(crate) fn ensure_finite(xs: &[f64]) -> Result<(), StatsError> {
    if xs.iter().any(|x| !x.is_finite()) {
        Err(StatsError::NonFinite)
    } else {
        Ok(())
    }
}

/// Validates that `xs` is non-empty and finite.
pub(crate) fn ensure_nonempty_finite(xs: &[f64]) -> Result<(), StatsError> {
    if xs.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    ensure_finite(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_period() {
        let msgs = [
            StatsError::EmptyInput.to_string(),
            StatsError::InsufficientData {
                required: 3,
                actual: 1,
            }
            .to_string(),
            StatsError::LengthMismatch { left: 2, right: 5 }.to_string(),
            StatsError::InvalidParameter {
                name: "shape",
                value: -1.0,
            }
            .to_string(),
            StatsError::NonFinite.to_string(),
        ];
        for m in msgs {
            assert!(!m.ends_with('.'), "message ends with period: {m}");
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StatsError>();
    }

    #[test]
    fn ensure_finite_rejects_nan() {
        assert_eq!(ensure_finite(&[1.0, f64::NAN]), Err(StatsError::NonFinite));
        assert_eq!(
            ensure_finite(&[1.0, f64::INFINITY]),
            Err(StatsError::NonFinite)
        );
        assert!(ensure_finite(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn ensure_nonempty_finite_rejects_empty() {
        assert_eq!(ensure_nonempty_finite(&[]), Err(StatsError::EmptyInput));
    }
}
