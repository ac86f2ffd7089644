use std::error::Error;
use std::fmt;

/// Error type for dataframe operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FrameError {
    /// A referenced column does not exist.
    UnknownColumn(String),
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
    /// CSV parsing failed.
    CsvParse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A CSV cell could not be converted to its column's type.
    CsvCell {
        /// 1-based line number (header is line 1).
        line: usize,
        /// Name of the column the cell belongs to.
        column: String,
        /// Description of the problem.
        message: String,
    },
    /// An operation that requires rows was applied to an empty frame.
    Empty(&'static str),
    /// An I/O error occurred (CSV file read/write).
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
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
                write!(f, "row has {actual} fields but the frame has {expected} columns")
            }
            FrameError::RowOutOfBounds { index, len } => {
                write!(f, "row index {index} out of bounds for {len} rows")
            }
            FrameError::CsvParse { line, message } => {
                write!(f, "csv parse error at line {line}: {message}")
            }
            FrameError::CsvCell {
                line,
                column,
                message,
            } => write!(f, "csv cell error at line {line}, column `{column}`: {message}"),
            FrameError::Empty(op) => write!(f, "operation `{op}` requires a non-empty frame"),
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
            FrameError::UnknownColumn("x".into()).to_string(),
            "unknown column `x`"
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
