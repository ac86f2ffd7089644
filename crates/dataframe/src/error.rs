use std::error::Error;
use std::fmt;

/// Error type for dataframe operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FrameError {
    /// A column name appears more than once.
    DuplicateColumn(String),
    /// Columns within a frame have different lengths.
    ColumnLengthMismatch {
        /// Name of the offending column.
        column: String,
        /// Its length.
        actual: usize,
        /// The frame's row count.
        expected: usize,
    },
    /// A value had the wrong type for the column or operation.
    TypeMismatch {
        /// What was expected.
        expected: &'static str,
        /// What was found.
        found: &'static str,
    },
    /// A row had the wrong number of fields.
    RowLengthMismatch {
        /// Expected number of fields (number of columns).
        expected: usize,
        /// Fields supplied.
        actual: usize,
    },
    /// A row index was out of bounds.
    RowOutOfBounds {
        /// The offending index.
        index: usize,
        /// Number of rows.
        len: usize,
    },
    /// An I/O error occurred (CSV file write).
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::DuplicateColumn(name) => write!(f, "duplicate column `{name}`"),
            FrameError::ColumnLengthMismatch {
                column,
                actual,
                expected,
            } => write!(
                f,
                "column `{column}` has {actual} rows but the frame has {expected}"
            ),
            FrameError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            FrameError::RowLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "row has {actual} fields but the frame has {expected} columns"
                )
            }
            FrameError::RowOutOfBounds { index, len } => {
                write!(f, "row index {index} out of bounds for {len} rows")
            }
            FrameError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(err: std::io::Error) -> FrameError {
        FrameError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            FrameError::DuplicateColumn("x".into()).to_string(),
            "duplicate column `x`"
        );
        assert!(FrameError::RowOutOfBounds { index: 5, len: 2 }
            .to_string()
            .contains("5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrameError>();
    }

    #[test]
    fn io_error_converts() {
        let e: FrameError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, FrameError::Io(_)));
    }
}
