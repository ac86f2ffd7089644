//! Statistics substrate for the `disengage` toolkit.
//!
//! This crate implements, from scratch, every statistical primitive used by
//! Stage IV of the paper *"Hands Off the Wheel in Autonomous Vehicles?"*
//! (Banerjee et al., DSN 2018):
//!
//! * quantiles, R type 7 as in numpy/pandas ([`quantile`]),
//! * five-number box-plot summaries with notches (Figs. 4, 7, 10) ([`boxplot`]),
//! * ordinary least-squares linear regression with inference (Figs. 5, 9)
//!   ([`regression`]),
//! * Pearson correlation with p-values (Fig. 8, §V-A4) ([`correlation`]),
//! * parametric distributions — Exponential, Weibull, Exponentiated
//!   Weibull — with maximum-likelihood fitting (Figs. 11, 12) ([`dist`],
//!   [`fit`]),
//! * the one-sample Kolmogorov–Smirnov goodness-of-fit test ([`ks`]),
//! * chi-square tests of independence ([`chi_square`]),
//! * the Kalra–Paddock "driving to safety" reliability-demonstration model
//!   used by the paper for significance of accident rates ([`kalra_paddock`]).
//!
//! # Examples
//!
//! ```
//! use disengage_stats::correlation::pearson;
//!
//! # fn main() -> Result<(), disengage_stats::StatsError> {
//! let x = [1.0, 2.0, 3.0, 4.0, 5.0];
//! let y = [2.1, 3.9, 6.2, 8.1, 9.8];
//! let r = pearson(&x, &y)?;
//! assert!(r.r > 0.99);
//! assert!(r.p_value < 0.01);
//! # Ok(())
//! # }
//! ```

pub mod boxplot;
pub mod chi_square;
pub mod correlation;
pub mod dist;
mod error;
pub mod fit;
pub mod kalra_paddock;
pub mod ks;
pub mod optimize;
pub mod quantile;
pub mod regression;
pub mod special;

pub use error::StatsError;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StatsError>;
