//! The paper's end-to-end pipeline and Stage IV analyses.
//!
//! This crate wires the substrates into the four-stage pipeline of Fig. 1
//! and implements every analysis in Section V:
//!
//! * [`session`] — [`RunSession`], the one driver of Stage I (corpus +
//!   optional simulated OCR), Stage II (parse/filter/normalize) and
//!   Stage III (NLP tagging); [`pipeline`] holds its outcome type.
//! * [`analyze`] — Stage IV as one list of artifacts: each table,
//!   figure, question and section rendered as `repro` prints it, the
//!   `stage_iv_*` spans, and the degradation ledger. `repro`,
//!   `disengage summary` and `disengage export` all go through it.
//! * [`metrics`] — disengagements per mile, aggregate and per car, and
//!   the monthly and cumulative series behind Figs. 5 and 9.
//! * [`questions`] — the paper's five research questions as typed
//!   analyses (Q1 technology assessment … Q5 human comparison).
//! * [`tables`] — Tables I–VIII as dataframes.
//! * [`figures`] — the data series behind Figs. 4–12.
//! * [`constants`] — the literature baselines the paper cites (human
//!   APM, airline/surgical-robot rates, trip length, human reaction
//!   time).
//! * [`report`] — plain-text renderers of tables, figures and questions,
//!   which [`analyze`] prints.
//! * [`telemetry`] — Stage IV span helper, the cross-stage counter
//!   reconciliation check the `repro` harness enforces, and the
//!   Chrome-trace and flight-dump views of the pool's task timeline.
//!
//! # Examples
//!
//! ```
//! use disengage_core::{RunConfig, RunSession};
//! use disengage_corpus::CorpusConfig;
//!
//! # fn main() -> Result<(), disengage_core::CoreError> {
//! // A small corpus for the doctest.
//! let config = RunConfig::new().with_corpus(CorpusConfig { scale: 0.05, ..Default::default() });
//! let outcome = RunSession::new(config).run()?;
//! assert!(outcome.database.disengagements().len() > 100);
//! assert_eq!(outcome.tagged.len(), outcome.database.disengagements().len());
//! # Ok(())
//! # }
//! ```

pub mod analyze;
pub mod args;
pub mod artifact;
pub mod constants;
mod error;
pub mod export;
pub mod exposure;
pub mod figures;
pub mod metrics;
pub mod pipeline;
pub mod questions;
pub mod report;
pub mod session;
pub mod tables;
pub mod tagging;
pub mod telemetry;
pub mod whatif;

pub use error::{degrade, CoreError, Quarantined};
pub use pipeline::PipelineOutcome;
pub use session::{RunConfig, RunDigest, RunSession, Stage, StageKeys};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
