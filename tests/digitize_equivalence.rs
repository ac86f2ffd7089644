//! Pins the streamed digitizer to the scalar whole-page reference on
//! every filing the generator renders.
//!
//! `packed_equivalence` (in `crates/ocr/tests/`) pins
//! [`digitize_streamed`] to the reference chain on hand-written pages
//! and corner cases. This suite runs both on the corpus: every filing,
//! seeded per document as Stage I seeds it, goes through
//! [`digitize_streamed`] and through the test-support module
//! [`scalar`] (whole-page rasterize → whole-page noise pass → scalar
//! recognition), and the two must return the same text, the same bits
//! of the confidence sum and the same character count. Any divergence
//! would move the digitized text, `ocr.confidence`, and every
//! fingerprint downstream of them.
//!
//! The default run covers every filing at scale 0.05 under light
//! noise; the full grid (scale 0.25, corpus seeds `0x5EED` and 42;
//! clean, light, heavy, erosion-only and salt-only noise) is
//! `#[ignore]`d and runs in release from `scripts/verify.sh`.

#[path = "../crates/ocr/tests/scalar/mod.rs"]
#[allow(dead_code)] // the packed_equivalence suite uses the rest
mod scalar;

use disengage::core::RunConfig;
use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::ocr::stream::StreamTimings;
use disengage::ocr::{digitize_streamed, NoiseModel, OcrEngine, StreamScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scalar::ScalarEngine;

/// Digitizes every filing the generator renders at `(seed, scale)`
/// under `noise`, through production and through the reference, and
/// asserts they agree.
fn check_filings(seed: u64, scale: f64, noise: NoiseModel, label: &str) {
    let ocr_seed = RunConfig::new().ocr_seed;
    let engine = OcrEngine::new();
    let reference = ScalarEngine::new();
    let mut scratch = StreamScratch::default();
    let docs = CorpusGenerator::new(CorpusConfig { seed, scale })
        .generate()
        .documents;
    for (i, doc) in docs.iter().enumerate() {
        let doc_seed = rand::derive_seed(ocr_seed, i as u64);
        let got = digitize_streamed(
            &doc.text,
            &noise,
            &engine,
            &mut scratch,
            &mut StdRng::seed_from_u64(doc_seed),
            &mut StreamTimings::default(),
        );
        let mut page = scalar::rasterize(&doc.text);
        scalar::degrade(&mut page, &noise, &mut StdRng::seed_from_u64(doc_seed));
        let (want, confidences) = reference.recognize(&page);
        let mut want_sum = 0.0f64;
        for &c in &confidences {
            want_sum += c;
        }
        let what = format!("{label} noise, corpus seed {seed:#x}, scale {scale}, filing {i}");
        assert_eq!(got.text, want, "text diverged: {what}");
        assert_eq!(
            got.conf_sum.to_bits(),
            want_sum.to_bits(),
            "confidence-sum bits diverged: {what}"
        );
        assert_eq!(got.chars, confidences.len(), "char count diverged: {what}");
    }
    assert!(!docs.is_empty(), "no filings at scale {scale}");
}

#[test]
fn every_filing_agrees_at_small_scale_under_light_noise() {
    check_filings(0x5EED, 0.05, NoiseModel::light(), "light");
}

#[test]
#[ignore = "full grid: run in release by scripts/verify.sh"]
fn every_filing_agrees_on_the_full_grid() {
    let noises = [
        ("clean", NoiseModel::clean()),
        ("light", NoiseModel::light()),
        ("heavy", NoiseModel::heavy()),
        ("erosion-only", NoiseModel::new(0.0, 0.06)),
        ("salt-only", NoiseModel::new(0.01, 0.0)),
    ];
    for seed in [0x5EED, 42] {
        for (label, noise) in noises {
            check_filings(seed, 0.25, noise, label);
        }
    }
}
