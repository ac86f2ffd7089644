//! # disengage
//!
//! A toolkit reproducing *"Hands Off the Wheel in Autonomous Vehicles? A
//! Systems Perspective on over a Million Miles of Field Data"* (Banerjee et
//! al., DSN 2018): an end-to-end pipeline for collecting, digitizing,
//! normalizing, NLP-tagging, and statistically analyzing autonomous-vehicle
//! disengagement and accident reports.
//!
//! This facade crate re-exports the subsystem crates:
//!
//! * [`dataframe`] — columnar typed dataframe substrate.
//! * [`stats`] — statistics: quantiles, regression, correlation,
//!   distribution fitting, KS tests, Kalra–Paddock reliability model.
//! * [`corpus`] — calibrated synthetic CA DMV report corpus (Stage I).
//! * [`ocr`] — simulated scanned-document OCR engine (Stage I).
//! * [`nlp`] — failure dictionary + keyword-voting fault classifier
//!   (Stage III).
//! * [`reports`] — uniform report schema and per-manufacturer parsers
//!   (Stage II).
//! * [`stpa`] — STPA hierarchical control-structure model of the AV.
//! * [`chaos`] — seeded fault injection + outcome auditing (the
//!   `repro --chaos` resilience campaign).
//! * [`obs`] — zero-dependency tracing/metrics substrate (spans,
//!   counters, histograms, exporters) threaded through the pipeline.
//! * [`cache`] — content-addressed stage artifact store (FNV-1a
//!   fingerprints, checksummed frames) behind `--cache-dir=`.
//! * [`par`] — zero-dependency chunked work-stealing thread pool with
//!   a deterministic, order-preserving parallel map (Stages I–III run
//!   on it; output is byte-identical at any `--jobs` count).
//! * [`core`] — the wired pipeline plus every table/figure reproduction
//!   (Stage IV).
//!
//! # Quickstart
//!
//! ```
//! use disengage::core::{RunConfig, RunSession};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let outcome = RunSession::new(RunConfig::new()).run()?;
//! let db = &outcome.database;
//! println!("disengagements: {}", db.disengagements().len());
//! println!("accidents:      {}", db.accidents().len());
//! # Ok(())
//! # }
//! ```

pub use disengage_cache as cache;
pub use disengage_chaos as chaos;
pub use disengage_core as core;
pub use disengage_corpus as corpus;
pub use disengage_dataframe as dataframe;
pub use disengage_nlp as nlp;
pub use disengage_obs as obs;
pub use disengage_ocr as ocr;
pub use disengage_par as par;
pub use disengage_reports as reports;
pub use disengage_stats as stats;
pub use disengage_stpa as stpa;
