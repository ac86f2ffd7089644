use std::error::Error;
use std::fmt;

/// Error type for report parsing and normalization.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ReportError {
    /// A date string could not be parsed or was out of range.
    InvalidDate(String),
    /// A raw report line did not match the manufacturer's format.
    MalformedLine {
        /// Manufacturer whose format was expected.
        manufacturer: &'static str,
        /// 1-based line number within the document.
        line: usize,
        /// Why parsing failed.
        message: String,
    },
    /// An unknown manufacturer name was encountered.
    UnknownManufacturer(String),
    /// A field value was invalid (e.g. negative miles).
    InvalidField {
        /// Field name.
        field: &'static str,
        /// Offending value, rendered.
        value: String,
    },
    /// A record referenced data the database does not contain.
    MissingData(String),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::InvalidDate(s) => write!(f, "invalid date `{s}`"),
            ReportError::MalformedLine {
                manufacturer,
                line,
                message,
            } => write!(f, "malformed {manufacturer} report line {line}: {message}"),
            ReportError::UnknownManufacturer(s) => write!(f, "unknown manufacturer `{s}`"),
            ReportError::InvalidField { field, value } => {
                write!(f, "invalid value `{value}` for field `{field}`")
            }
            ReportError::MissingData(what) => write!(f, "missing data: {what}"),
        }
    }
}

impl Error for ReportError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            ReportError::InvalidDate("32/1/16".into()).to_string(),
            "invalid date `32/1/16`"
        );
        let e = ReportError::MalformedLine {
            manufacturer: "Nissan",
            line: 3,
            message: "missing separator".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ReportError>();
    }
}
