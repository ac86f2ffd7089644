//! Simulated scanned-document OCR (Stage I of the paper's pipeline).
//!
//! The paper digitizes scanned DMV filings with Google Tesseract, falling
//! back to manual transcription where OCR fails on low-resolution scans.
//! This crate reproduces that stage end-to-end on synthetic documents:
//!
//! * [`font`] — a 5×7 bitmap font covering the report character set,
//! * [`raster`] — render one line of document text onto a monochrome
//!   bitmap strip on a fixed character grid (a line of a "printed
//!   page"),
//! * [`noise`] — a scanner-noise model (salt-and-pepper speckle, ink
//!   erosion, toner smear) with configurable severity,
//! * [`engine`] — a template-matching recognizer: segment a strip's
//!   fixed grid, correlate each cell against every glyph, emit the best
//!   match with a confidence score. The hot path is bit-packed (one
//!   `u64` per 5×7 glyph, AND + popcount scoring),
//! * [`stream`] — the digitizer: rasterize → degrade → recognize a
//!   document one strip (text line) at a time, never holding the whole
//!   page. It is the only page path, and it is pinned bit for bit to a
//!   scalar whole-page reference kept in the `packed_equivalence` test
//!   suite,
//! * [`correct`] — dictionary post-correction (bounded edit-distance
//!   repair against a vocabulary),
//! * [`metrics`] — the character error rate, for measuring the
//!   noise → accuracy relationship.
//!
//! The crucial property for the reproduction: noise level drives a
//! measurable character-error rate, and recognition errors propagate into
//! Stage II parsing exactly the way real OCR errors would — some lines
//! fail to parse and land in the manual-review queue.
//!
//! # Examples
//!
//! ```
//! use disengage_ocr::stream::StreamTimings;
//! use disengage_ocr::{digitize_streamed, NoiseModel, OcrEngine, StreamScratch};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let out = digitize_streamed(
//!     "WATCHDOG ERROR 42",
//!     &NoiseModel::clean(),
//!     &OcrEngine::new(),
//!     &mut StreamScratch::default(),
//!     &mut StdRng::seed_from_u64(7),
//!     &mut StreamTimings::default(),
//! );
//! assert_eq!(out.text, "WATCHDOG ERROR 42");
//! ```

pub mod correct;
pub mod engine;
pub mod font;
pub mod metrics;
pub mod noise;
pub mod raster;
pub mod stream;

pub use correct::{Corrector, TokenRepair};
pub use engine::{LeanOcrOutput, OcrEngine, OcrScratch};
pub use noise::NoiseModel;
pub use raster::Bitmap;
pub use stream::{digitize_streamed, StreamScratch};
