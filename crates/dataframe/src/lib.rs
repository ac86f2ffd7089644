//! A small, typed, columnar dataframe — the analysis substrate for the
//! `disengage` toolkit.
//!
//! The paper's Stage IV is pandas-style tabular analysis whose results
//! are tables (Tables I–VIII) and CSV interchange. The Rust ecosystem's
//! dataframe tooling being immature, this crate implements the subset
//! the reproduction needs from scratch:
//!
//! * typed, null-aware columns ([`Column`], [`Value`], [`DType`]),
//! * a schema-checked frame ([`DataFrame`]) with row and column append,
//!   row access, and a plain-text rendering,
//! * a CSV writer ([`csv`]) with RFC-4180-style quoting.
//!
//! # Examples
//!
//! ```
//! use disengage_dataframe::{csv, Column, DType, DataFrame, Value};
//!
//! # fn main() -> Result<(), disengage_dataframe::FrameError> {
//! let mut df = DataFrame::new(vec![
//!     ("maker", Column::empty(DType::Str)),
//!     ("miles", Column::empty(DType::Float)),
//! ])?;
//! df.push_row(vec![Value::from("waymo"), Value::Float(100.0)])?;
//! df.push_row(vec![Value::from("bosch, inc"), Value::Null])?;
//! assert_eq!(csv::write_str(&df), "maker,miles\nwaymo,100.0\n\"bosch, inc\",\n");
//! # Ok(())
//! # }
//! ```

pub mod column;
pub mod csv;
mod error;
pub mod frame;
pub mod value;

pub use column::Column;
pub use error::FrameError;
pub use frame::DataFrame;
pub use value::{DType, Value};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, FrameError>;
