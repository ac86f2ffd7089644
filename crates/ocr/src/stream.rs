//! Strip-streamed digitization: rasterize → degrade → recognize a page
//! one text line at a time. This is the only page path (Stage I under
//! simulated OCR runs it for every document).
//!
//! Its specification is a whole-page pipeline, kept as the scalar
//! reference in the crate's test support (`tests/scalar/`): rasterize
//! the page, apply the scanner-noise pass to the whole page, then
//! recognize it cell by cell. That materializes the whole page bitmap,
//! so its peak memory would scale with the *document* — and the sharded
//! pipeline's peak memory is exactly its largest document's transients.
//! This module produces bit-identical output (pinned by the
//! `packed_equivalence` suite) while holding only a single
//! [`CELL_H`]-row strip (one text line) at a time, so the digitizer's
//! footprint scales with the page *width*.
//!
//! # Why the noise stream survives the restructuring
//!
//! The whole-page noise pass consumes its RNG in two strict row-major
//! passes over the page: first every smear draw (one Bernoulli per
//! ink-pixel-with-white-right-neighbor, reading pristine ink), then
//! every flip draw (erosion on ink, salt on background). Smear bleeds
//! only horizontally and flips are pixel-local, so neither pass couples
//! pixel rows across a strip boundary. Replaying pass one over strips
//! in order, recording which bleeds fired, and then replaying pass two
//! over re-rasterized strips (bleeds re-applied first, as the whole-page
//! pass does before its flip pass reads ink) draws the same Bernoullis
//! in the same order against the same pixel states — the degraded page
//! is reproduced strip for strip, bit for bit.

use crate::engine::{LeanOcrOutput, OcrEngine, OcrScratch};
use crate::noise::NoiseModel;
use crate::raster::{rasterize_line_into, Bitmap, CELL_H, CELL_W};
use rand::Rng;

/// Reusable buffers for [`digitize_streamed`] — one strip bitmap, the
/// engine's row scratch, and the recorded smear bleeds.
pub struct StreamScratch {
    strip: Bitmap,
    ocr: OcrScratch,
    /// `(strip, x, y)` pixels the smear pass bled ink into, in draw
    /// order (`y` is strip-local).
    bleed: Vec<(usize, usize, usize)>,
}

impl Default for StreamScratch {
    fn default() -> Self {
        StreamScratch {
            strip: Bitmap::blank(0, 0),
            ocr: OcrScratch::default(),
            bleed: Vec::new(),
        }
    }
}

/// Wall-clock spent in each sub-step of [`digitize_streamed`],
/// accumulated across strips — the streamed path interleaves the
/// classic rasterize → degrade → recognize stages per line, so callers
/// that report per-phase profiles sum the slices instead of wrapping
/// each stage in one guard.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamTimings {
    /// Strip rasterization (both passes).
    pub rasterize: std::time::Duration,
    /// Smear scan, bleed replay, and pixel flips.
    pub degrade: std::time::Duration,
    /// Glyph matching and line assembly.
    pub correlate: std::time::Duration,
}

/// Digitizes `text` — rasterize, degrade with `noise`, recognize with
/// `engine` — line by line, returning exactly what the whole-page
/// reference returns for the same `rng` stream, without ever allocating
/// the full page. Per-phase wall-clock is added to `timings` (not
/// reset, so one `StreamTimings` can span a batch).
pub fn digitize_streamed<R: Rng + ?Sized>(
    text: &str,
    noise: &NoiseModel,
    engine: &OcrEngine,
    scratch: &mut StreamScratch,
    rng: &mut R,
    timings: &mut StreamTimings,
) -> LeanOcrOutput {
    // Page geometry: width from the longest line, one blank strip for
    // an empty document.
    let cols = text
        .lines()
        .map(|l| l.chars().count())
        .max()
        .unwrap_or(0)
        .max(1);
    let width = cols * CELL_W;
    let strips = text.lines().count().max(1);
    // `lines()` yields nothing for an empty document; the page still
    // has one (blank) strip.
    let strip_lines = || {
        text.lines()
            .chain(std::iter::repeat("").take(usize::from(text.is_empty())))
    };

    // Pass one — the smear scan. The whole-page noise pass draws every
    // smear Bernoulli (against pristine ink) before any flip draw, so
    // the streamed version must finish this pass over all strips before
    // pass two starts consuming the RNG.
    scratch.bleed.clear();
    if noise.smear > 0.0 {
        for (k, line) in strip_lines().enumerate() {
            let t0 = std::time::Instant::now();
            rasterize_line_into(line, width, &mut scratch.strip);
            let t1 = std::time::Instant::now();
            timings.rasterize += t1 - t0;
            for y in 0..CELL_H {
                for x in 0..width {
                    if scratch.strip.get(x, y)
                        && !scratch.strip.get(x + 1, y)
                        && rng.gen_bool(noise.smear)
                    {
                        scratch.bleed.push((k, x + 1, y));
                    }
                }
            }
            timings.degrade += t1.elapsed();
        }
    }

    // Pass two — re-rasterize each strip, re-apply its bleeds (the
    // flip pass must read post-smear ink), flip, and recognize the
    // strip as one text row.
    let flips = noise.salt > 0.0 || noise.erosion > 0.0;
    let mut out = String::new();
    let mut conf_sum = 0.0f64;
    let mut chars = 0usize;
    let mut bleed_next = 0;
    for (k, line) in strip_lines().enumerate() {
        let t0 = std::time::Instant::now();
        rasterize_line_into(line, width, &mut scratch.strip);
        let t1 = std::time::Instant::now();
        timings.rasterize += t1 - t0;
        while bleed_next < scratch.bleed.len() && scratch.bleed[bleed_next].0 == k {
            let (_, x, y) = scratch.bleed[bleed_next];
            scratch.strip.set(x, y, true);
            bleed_next += 1;
        }
        if flips {
            for y in 0..CELL_H {
                for x in 0..width {
                    let ink = scratch.strip.get(x, y);
                    if ink {
                        if noise.erosion > 0.0 && rng.gen_bool(noise.erosion) {
                            scratch.strip.set(x, y, false);
                        }
                    } else if noise.salt > 0.0 && rng.gen_bool(noise.salt) {
                        scratch.strip.set(x, y, true);
                    }
                }
            }
        }
        let t2 = std::time::Instant::now();
        timings.degrade += t2 - t1;
        engine.recognize_row_into(&scratch.strip, 0, cols, &mut scratch.ocr);
        out.push_str(scratch.ocr.line());
        for &c in scratch.ocr.line_conf() {
            conf_sum += c;
        }
        chars += scratch.ocr.line_conf().len();
        if k + 1 < strips {
            out.push('\n');
        }
        timings.correlate += t2.elapsed();
    }
    // Trim trailing blank lines.
    while out.ends_with('\n') {
        out.pop();
    }
    LeanOcrOutput {
        text: out,
        conf_sum,
        chars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Scratch reuse across documents must not leak state between them.
    /// (Bit-for-bit agreement with the whole-page reference is pinned by
    /// the `packed_equivalence` suite, where the reference lives.)
    #[test]
    fn scratch_reuse_is_stateless() {
        let engine = OcrEngine::new();
        let noise = NoiseModel::heavy();
        let mut scratch = StreamScratch::default();
        let mut read = |text: &str, seed: u64| {
            digitize_streamed(
                text,
                &noise,
                &engine,
                &mut scratch,
                &mut StdRng::seed_from_u64(seed),
                &mut StreamTimings::default(),
            )
        };
        let first = read("AAAA BBBB CCCC\nDDDD", 9);
        let _ = read("completely different page\nwith more\nlines", 10);
        let again = read("AAAA BBBB CCCC\nDDDD", 9);
        assert_eq!(first.text, again.text);
        assert_eq!(first.conf_sum.to_bits(), again.conf_sum.to_bits());
    }

    /// Timings are added to, not reset, so one `StreamTimings` can span
    /// a batch.
    #[test]
    fn timings_accumulate() {
        let hour = std::time::Duration::from_secs(3600);
        let mut timings = StreamTimings {
            rasterize: hour,
            degrade: hour,
            correlate: hour,
        };
        digitize_streamed(
            "ONE PAGE",
            &NoiseModel::heavy(),
            &OcrEngine::new(),
            &mut StreamScratch::default(),
            &mut StdRng::seed_from_u64(3),
            &mut timings,
        );
        assert!(timings.rasterize >= hour && timings.degrade >= hour && timings.correlate >= hour);
    }
}
