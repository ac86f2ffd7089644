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
//! `packed_equivalence` suite, and on the whole corpus by the root
//! `digitize_equivalence` suite) while holding only a single
//! [`CELL_H`](crate::raster::CELL_H)-row strip (one text line) at a
//! time, so the digitizer's footprint scales with the page *width*.
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
//!
//! # Why a word at a time draws the same stream
//!
//! Both passes run on the strip's packed words, 64 pixels per step,
//! and make exactly the per-pixel scan's draws:
//!
//! * **Smear.** A word's candidates are `ink & !((ink >> 1) | (next <<
//!   63))`, `next` being the row's following word (none after the
//!   last, whose padding bits are zero, so the last pixel sees white).
//!   The draws run over the set bits in ascending `x`, the per-pixel
//!   scan's order.
//! * **Flips.** Still one draw per pixel, row-major, each against its
//!   own class's threshold; the word's flip mask is XORed in. With only
//!   one of salt and erosion positive, the draws run over that class's
//!   bits alone, as the per-pixel scan skips the other class.
//! * **The draw.** `next_u64() >> 11 < bernoulli_threshold(p)` is
//!   exactly `gen_bool(p)` (see `disengage_prng::bernoulli_threshold`).
//!   The threshold is computed at the first draw at `p`, so an
//!   out-of-range `p` panics then, as `gen_bool` would, and only then.

use crate::engine::{LeanOcrOutput, OcrEngine, OcrScratch};
use crate::noise::NoiseModel;
use crate::raster::{rasterize_line_into, Bitmap, CELL_W};
use rand::rngs::StdRng;
use rand::{bernoulli_threshold, Rng};

/// Reusable buffers for [`digitize_streamed`] — one strip bitmap, the
/// engine's row scratch, and the recorded smear bleeds.
pub struct StreamScratch {
    strip: Bitmap,
    ocr: OcrScratch,
    /// `(strip, word, bits)`: ink the smear pass bled into word `word`
    /// of strip `strip` (its index in [`Bitmap::words`]), in draw order.
    bleed: Vec<(usize, usize, u64)>,
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

/// The draws of one noise probability, in [`Rng::gen_bool`]'s integer
/// form: a draw fires when `next_u64() >> 11` is below the threshold,
/// exactly when `gen_bool(p)` would. The threshold, and with it
/// `gen_bool`'s range check, is computed at the first draw, so an
/// out-of-range probability panics when a draw is made at it, and only
/// then.
struct Bernoulli {
    p: f64,
    threshold: Option<u64>,
}

impl Bernoulli {
    fn new(p: f64) -> Bernoulli {
        Bernoulli { p, threshold: None }
    }

    fn threshold(&mut self) -> u64 {
        let p = self.p;
        *self.threshold.get_or_insert_with(|| bernoulli_threshold(p))
    }

    /// One draw per set bit of `at`, in ascending bit order (ascending
    /// `x`); returns the bits whose draw fired.
    fn fire<R: Rng + ?Sized>(&mut self, rng: &mut R, mut at: u64) -> u64 {
        if at == 0 {
            return 0;
        }
        let threshold = self.threshold();
        let mut fired = 0;
        while at != 0 {
            let bit = at & at.wrapping_neg();
            if rng.next_u64() >> 11 < threshold {
                fired |= bit;
            }
            at ^= bit;
        }
        fired
    }
}

/// The bits of word `w` that hold pixels of a `width`-pixel row: all
/// but the last word's padding.
fn valid_bits(width: usize, w: usize) -> u64 {
    let end = width - 64 * w;
    if end >= 64 {
        !0
    } else {
        (1 << end) - 1
    }
}

/// The smear scan of one rasterized strip: one draw per ink pixel
/// whose right neighbour is white, row-major, ascending `x` — the
/// order of a per-pixel scan. A fired draw bleeds ink into the pixel
/// to its right; the bleeds are recorded in `bleed` against strip `k`.
/// The pixel at `width − 1` reads white to its right (padding bits are
/// zero, and a row's last word has no next word), and its bleed falls
/// off the page.
fn smear_strip<R: Rng + ?Sized>(
    strip: &Bitmap,
    k: usize,
    width: usize,
    smear: &mut Bernoulli,
    rng: &mut R,
    bleed: &mut Vec<(usize, usize, u64)>,
) {
    let wpr = strip.words_per_row();
    for (y, row) in strip.words().chunks_exact(wpr).enumerate() {
        for (w, &ink) in row.iter().enumerate() {
            let next = row.get(w + 1).copied().unwrap_or(0);
            let fired = smear.fire(rng, ink & !(ink >> 1 | next << 63));
            if fired == 0 {
                continue;
            }
            let at = y * wpr + w;
            let here = fired << 1 & valid_bits(width, w);
            if here != 0 {
                bleed.push((k, at, here));
            }
            if fired >> 63 == 1 && w + 1 < wpr {
                bleed.push((k, at + 1, 1));
            }
        }
    }
}

/// The flip pass of one strip: one draw per pixel, row-major —
/// erosion on ink, salt on background. A probability that is zero
/// draws nothing, so with only one of them positive the draws run over
/// that class's pixels alone.
fn flip_strip<R: Rng + ?Sized>(
    strip: &mut Bitmap,
    width: usize,
    erosion: &mut Bernoulli,
    salt: &mut Bernoulli,
    rng: &mut R,
) {
    let (erode, speckle) = (erosion.p > 0.0, salt.p > 0.0);
    let wpr = strip.words_per_row();
    for row in strip.words_mut().chunks_exact_mut(wpr) {
        for (w, word) in row.iter_mut().enumerate() {
            let ink = *word;
            let valid = valid_bits(width, w);
            let flip = match (erode, speckle) {
                (true, true) => {
                    // Every pixel draws, against its own class's
                    // threshold (each class's is fetched only if the
                    // word holds a pixel of it).
                    let te = if ink != 0 { erosion.threshold() } else { 0 };
                    let ts = if !ink & valid != 0 {
                        salt.threshold()
                    } else {
                        0
                    };
                    let mut flip = 0;
                    for i in 0..valid.count_ones() {
                        let t = if ink >> i & 1 == 1 { te } else { ts };
                        flip |= u64::from(rng.next_u64() >> 11 < t) << i;
                    }
                    flip
                }
                (true, false) => erosion.fire(rng, ink),
                (false, true) => salt.fire(rng, !ink & valid),
                (false, false) => 0,
            };
            *word = ink ^ flip;
        }
    }
}

/// Digitizes `text` — rasterize, degrade with `noise`, recognize with
/// `engine` — line by line, returning exactly what the whole-page
/// reference returns for the same `rng` stream, without ever allocating
/// the full page. Per-phase wall-clock is added to `timings` (not
/// reset, so one `StreamTimings` can span a batch).
pub fn digitize_streamed(
    text: &str,
    noise: &NoiseModel,
    engine: &OcrEngine,
    scratch: &mut StreamScratch,
    rng: &mut StdRng,
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
        let mut smear = Bernoulli::new(noise.smear);
        for (k, line) in strip_lines().enumerate() {
            let t0 = std::time::Instant::now();
            rasterize_line_into(line, width, &mut scratch.strip);
            let t1 = std::time::Instant::now();
            timings.rasterize += t1 - t0;
            smear_strip(
                &scratch.strip,
                k,
                width,
                &mut smear,
                rng,
                &mut scratch.bleed,
            );
            timings.degrade += t1.elapsed();
        }
    }

    // Pass two — re-rasterize each strip, re-apply its bleeds (the
    // flip pass must read post-smear ink), flip, and recognize the
    // strip as one text row.
    let flips = noise.salt > 0.0 || noise.erosion > 0.0;
    let mut erosion = Bernoulli::new(noise.erosion);
    let mut salt = Bernoulli::new(noise.salt);
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
            let (_, at, bits) = scratch.bleed[bleed_next];
            scratch.strip.words_mut()[at] |= bits;
            bleed_next += 1;
        }
        if flips {
            flip_strip(&mut scratch.strip, width, &mut erosion, &mut salt, rng);
        }
        let t2 = std::time::Instant::now();
        timings.degrade += t2 - t1;
        chars += engine.recognize_row_into(
            &scratch.strip,
            0,
            cols,
            &mut scratch.ocr,
            &mut out,
            &mut conf_sum,
        );
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

    /// Counts its draws. At probability 1 every draw fires, whatever
    /// it returns.
    struct CountDraws(usize);

    impl Rng for CountDraws {
        fn next_u64(&mut self) -> u64 {
            self.0 += 1;
            0
        }
    }

    /// A row's last word has no next word, and a bleed past the width
    /// falls off the page. No page reaches either branch (its last
    /// pixel column is glyph-gap white), so hand-built strips pin both
    /// to the per-pixel rule, with every smear candidate firing: one
    /// draw per ink pixel whose right neighbour is white (the pixel at
    /// `width − 1` reads white), and a bleed into that neighbour when
    /// it lies on the page, in the same row.
    #[test]
    fn smear_at_a_rows_end_reads_white_and_never_bleeds_off_the_row() {
        let strips: [(usize, &[(usize, usize)]); 2] = [
            // Rows 0 and 1 end in ink at x = 127, the top bit of their
            // last word, and the rows after them start with ink.
            (
                128,
                &[
                    (62, 0),
                    (63, 0),
                    (127, 0),
                    (0, 1),
                    (5, 1),
                    (6, 1),
                    (63, 1),
                    (64, 1),
                    (127, 1),
                    (0, 2),
                    (1, 2),
                ],
            ),
            // The ink at x = 99 sits inside its row's last word.
            (100, &[(98, 0), (99, 0), (0, 1), (63, 1), (99, 1), (0, 2)]),
        ];
        for (width, ink) in strips {
            let mut strip = Bitmap::blank(width, 3);
            for &(x, y) in ink {
                strip.set(x, y, true);
            }
            let mut candidates = 0;
            let mut want = Vec::new();
            for y in 0..3 {
                for x in 0..width {
                    if strip.get(x, y) && !strip.get(x + 1, y) {
                        candidates += 1;
                        if x + 1 < width {
                            want.push((x + 1, y));
                        }
                    }
                }
            }
            let (mut rng, mut bleed) = (CountDraws(0), Vec::new());
            smear_strip(
                &strip,
                7,
                width,
                &mut Bernoulli::new(1.0),
                &mut rng,
                &mut bleed,
            );
            let wpr = strip.words_per_row();
            let mut got = Vec::new();
            for &(k, at, bits) in &bleed {
                assert_eq!(k, 7);
                for b in (0..64).filter(|b| bits >> b & 1 == 1) {
                    got.push((64 * (at % wpr) + b, at / wpr));
                }
            }
            assert_eq!(rng.0, candidates, "smear draws at width {width}");
            assert_eq!(got, want, "bleeds at width {width}");
        }
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
