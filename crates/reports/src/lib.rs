//! Report schema, parsing, and normalization (Stage II of the paper's
//! pipeline).
//!
//! The CA DMV does not enforce a data-format specification, so every
//! manufacturer files disengagement reports in its own layout, and the
//! layouts drift between the 2016 and 2017 releases. This crate provides:
//!
//! * the **uniform schema** the paper normalizes everything into
//!   ([`record::DisengagementRecord`], [`record::AccidentRecord`],
//!   [`record::MonthlyMileage`]),
//! * the domain vocabulary ([`types::Manufacturer`], [`types::RoadType`],
//!   [`types::Weather`], [`types::Modality`], [`types::ReportYear`]),
//! * a small validated calendar date ([`date::Date`]) able to parse the
//!   formats seen in the reports (`1/4/16`, `May-16`, `11/12/14`),
//! * one **parser per manufacturer raw format** ([`formats`]), exercising
//!   the fragmented-schema reality the paper describes,
//! * a normalizer from parsed raw lines to the uniform schema
//!   ([`normalize`]),
//! * the consolidated [`database::FailureDatabase`] that Stage IV analyses
//!   query.

pub mod database;
pub mod date;
mod error;
pub mod formats;
pub mod normalize;
pub mod record;
mod scan;
pub mod types;

pub use database::FailureDatabase;
pub use date::Date;
pub use error::ReportError;
pub use record::{AccidentRecord, DisengagementRecord, MonthlyMileage};
pub use types::{Manufacturer, Modality, ReportYear, RoadType, Weather};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ReportError>;
