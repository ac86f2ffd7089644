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
//!   cell access, and a plain-text rendering,
//! * CSV read/write ([`csv`]) with quoting and type inference.
//!
//! # Examples
//!
//! ```
//! use disengage_dataframe::{csv, Column, DataFrame, Value};
//!
//! # fn main() -> Result<(), disengage_dataframe::FrameError> {
//! let df = DataFrame::new(vec![
//!     ("maker", Column::from_strs(&["waymo", "bosch", "waymo"])),
//!     ("miles", Column::from_f64s(&[100.0, 20.5, 300.0])),
//! ])?;
//! let back = csv::read_str(&csv::write_str(&df))?;
//! assert_eq!(back, df);
//! assert_eq!(back.get(1, "miles")?, Value::Float(20.5));
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
