//! Simulated scanned-document OCR (Stage I of the paper's pipeline).
//!
//! The paper digitizes scanned DMV filings with Google Tesseract, falling
//! back to manual transcription where OCR fails on low-resolution scans.
//! This crate reproduces that stage end-to-end on synthetic documents:
//!
//! * [`font`] — a 5×7 bitmap font covering the report character set,
//! * [`raster`] — render document text onto a monochrome bitmap on a
//!   fixed character grid (a "printed page"),
//! * [`noise`] — a scanner-noise model (salt-and-pepper speckle, ink
//!   erosion) with configurable severity,
//! * [`engine`] — a template-matching recognizer: segment the fixed grid,
//!   correlate each cell against every glyph, emit the best match with a
//!   confidence score. The hot path is bit-packed (one `u64` per 5×7
//!   glyph, AND + popcount scoring) and pinned bit-for-bit to a scalar
//!   per-pixel reference kept in the `packed_equivalence` test suite,
//! * [`correct`] — dictionary post-correction (edit-distance-1 repair
//!   against a vocabulary),
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
//! use disengage_ocr::{raster::rasterize, engine::OcrEngine};
//!
//! let page = rasterize("WATCHDOG ERROR 42");
//! let engine = OcrEngine::new();
//! let out = engine.recognize(&page);
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
pub use engine::{LeanOcrOutput, OcrEngine, OcrOutput, OcrScratch};
pub use noise::NoiseModel;
pub use raster::{rasterize, rasterize_into, Bitmap};
pub use stream::{digitize_streamed, StreamScratch};
