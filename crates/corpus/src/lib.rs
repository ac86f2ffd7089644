//! Calibrated synthetic CA DMV corpus (the Stage I data source).
//!
//! The paper's raw inputs — scanned disengagement and accident filings
//! from the CA DMV's 2016 and 2017 releases — are not redistributable, so
//! this crate generates a synthetic corpus **calibrated to every
//! aggregate the paper publishes**:
//!
//! * Table I's per-manufacturer, per-release fleet sizes, autonomous
//!   miles, disengagement counts, and accident counts ([`profile`]),
//! * Table IV's failure-category mixes and Table V's modality mixes,
//! * Table VI's accident attribution (25 Waymo / 14 GM Cruise / 1 each
//!   Delphi, Nissan, Uber),
//! * Fig. 10/11's reaction-time distributions (≈0.85 s mean, long tail,
//!   one ~4 h Volkswagen outlier),
//! * Fig. 12's low-speed, intersection-adjacent accident profile,
//! * the temporal dynamics behind Figs. 5 and 7–9 (monthly mileage ramp,
//!   DPM declining with cumulative miles).
//!
//! Generation is seeded and deterministic. Records are emitted both as
//! typed [`disengage_reports`] records (ground truth) and as rendered
//! [`disengage_reports::formats::RawDocument`]s in each manufacturer's
//! idiosyncratic raw format ([`rawdoc`]), ready for the OCR + parsing
//! stages.
//!
//! # Examples
//!
//! ```
//! use disengage_corpus::generator::{CorpusGenerator, CorpusConfig};
//!
//! let corpus = CorpusGenerator::new(CorpusConfig { seed: 7, scale: 0.05 }).generate();
//! assert!(corpus.truth.disengagements().len() > 100);
//! assert!(!corpus.documents.is_empty());
//! ```

pub mod allocation;
pub mod generator;
pub mod profile;
pub mod rawdoc;
pub mod shard;
pub mod templates;

pub use generator::{Corpus, CorpusConfig, CorpusGenerator};
pub use profile::{standard_profiles, ManufacturerProfile, YearProfile};
pub use shard::{shard_label, stable_shard_id, ShardSpec};
