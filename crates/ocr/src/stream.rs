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
//! [`CELL_H`]-row strip (one text line) at a
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
//!
//! # Why the flip draws can be made ahead, four lanes at a time
//!
//! With salt and erosion both positive (light and heavy noise), every
//! pixel draws once, whatever its ink, so the page's flip draws are
//! `width × CELL_H × strips` in number and nothing but the flip pass
//! draws in pass two. Their outcomes can therefore be drawn before the
//! pixels are read: [`StdRng::bernoulli_planes`] draws up to a round at
//! a time, never past the page, into two bit planes, one per class's
//! threshold, and a word of pixels takes its next `valid.count_ones()`
//! bits of each: `flip = ink & E | !ink & valid & S`. Draw `k` is still
//! compared against pixel `k`'s own class, and the generator ends the
//! page where the per-pixel loop left it. The planes are built from the
//! thresholds that are in range (an out-of-range one draws against 0),
//! and each word still asks its classes' `Bernoulli::threshold`, so an
//! out-of-range probability panics at the first pixel of its class, as
//! before, and only then.

use crate::engine::{LeanOcrOutput, OcrEngine, OcrScratch};
use crate::noise::NoiseModel;
use crate::raster::{rasterize_line_into, Bitmap, CELL_H, CELL_W};
use rand::rngs::StdRng;
use rand::{bernoulli_threshold, Rng, ROUND_DRAWS};

/// Reusable buffers for [`digitize_streamed`] — one strip bitmap, the
/// engine's row scratch, the recorded smear bleeds, and the flip
/// pass's bit planes.
pub struct StreamScratch {
    strip: Bitmap,
    ocr: OcrScratch,
    /// `(strip, word, bits)`: ink the smear pass bled into word `word`
    /// of strip `strip` (its index in [`Bitmap::words`]), in draw order.
    bleed: Vec<(usize, usize, u64)>,
    flips: FlipPlanes,
}

impl Default for StreamScratch {
    fn default() -> Self {
        StreamScratch {
            strip: Bitmap::blank(0, 0),
            ocr: OcrScratch::default(),
            bleed: Vec::new(),
            flips: FlipPlanes::default(),
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

    /// The threshold the flip planes draw against: [`Self::threshold`]
    /// when `p` is in range, else 0. It makes no range check, since the
    /// planes are drawn before the pixels that read them.
    fn plane_threshold(&self) -> u64 {
        if (0.0..=1.0).contains(&self.p) {
            bernoulli_threshold(self.p)
        } else {
            0
        }
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

/// Words in a flip plane: one round of draws.
const PLANE_WORDS: usize = ROUND_DRAWS / 64;

/// The page's flip draws when every pixel draws, made a round ahead of
/// the pixels that read them: bit `k` of `erode` (`salt`) is set when
/// the `k`th unread draw fires at erosion's (salt's) threshold.
struct FlipPlanes {
    erode: Vec<u64>,
    salt: Vec<u64>,
    /// The next unread bit of the planes.
    pos: usize,
    /// Bits the planes hold.
    len: usize,
    /// The page's flip draws not yet made.
    left: usize,
    thresholds: [u64; 2],
}

impl Default for FlipPlanes {
    fn default() -> Self {
        FlipPlanes {
            erode: vec![0; PLANE_WORDS],
            salt: vec![0; PLANE_WORDS],
            pos: 0,
            len: 0,
            left: 0,
            thresholds: [0; 2],
        }
    }
}

impl FlipPlanes {
    /// Starts a page of `draws` flip draws at `[erosion, salt]`
    /// thresholds.
    fn start(&mut self, draws: usize, thresholds: [u64; 2]) {
        (self.pos, self.len, self.left, self.thresholds) = (0, 0, draws, thresholds);
    }

    /// Bits `pos..pos + 64` of each plane; those at `len` and past it
    /// are stale.
    fn read(&self, pos: usize) -> (u64, u64) {
        let (w, off) = (pos / 64, pos % 64);
        let word = |plane: &[u64]| {
            let next = plane.get(w + 1).copied().unwrap_or(0);
            plane[w] >> off | next << 1 << (63 - off)
        };
        (word(&self.erode), word(&self.salt))
    }

    /// The next `n` draws (`n ≤ 64`) of each plane in the low `n` bits;
    /// the bits above them are those of later draws, or stale. Draws the
    /// next round, at most the page's remaining draws, when the planes
    /// run out.
    #[inline]
    fn take(&mut self, n: usize, rng: &mut StdRng) -> (u64, u64) {
        if self.pos + n <= self.len {
            let bits = self.read(self.pos);
            self.pos += n;
            return bits;
        }
        let have = self.len - self.pos;
        let round = self.left.min(ROUND_DRAWS);
        assert!(have + round >= n, "flip draws past the page");
        // Only a whole round leaves bits unread here (a shorter one is
        // the page's last), and its last word ends the planes, so `read`
        // shifts in zeros above the `have` bits left.
        let (e0, s0) = if have > 0 {
            self.read(self.pos)
        } else {
            (0, 0)
        };
        rng.bernoulli_planes(round, self.thresholds, [&mut self.erode, &mut self.salt]);
        (self.pos, self.len, self.left) = (n - have, round, self.left - round);
        let (e1, s1) = self.read(0);
        (e0 | e1 << have, s0 | s1 << have)
    }
}

/// The flip pass of one strip: one draw per pixel, row-major —
/// erosion on ink, salt on background. A probability that is zero
/// draws nothing, so with only one of them positive the draws run over
/// that class's pixels alone. With both positive the draws come from
/// `planes`, started for the page.
fn flip_strip(
    strip: &mut Bitmap,
    width: usize,
    erosion: &mut Bernoulli,
    salt: &mut Bernoulli,
    planes: &mut FlipPlanes,
    rng: &mut StdRng,
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
                    // threshold. Each class's range check runs only if
                    // the word holds a pixel of it.
                    if ink != 0 {
                        erosion.threshold();
                    }
                    if !ink & valid != 0 {
                        salt.threshold();
                    }
                    let (e, s) = planes.take(valid.count_ones() as usize, rng);
                    ink & e | !ink & valid & s
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
    if noise.salt > 0.0 && noise.erosion > 0.0 {
        let draws = width * CELL_H * strips;
        let thresholds = [erosion.plane_threshold(), salt.plane_threshold()];
        scratch.flips.start(draws, thresholds);
    }
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
            flip_strip(
                &mut scratch.strip,
                width,
                &mut erosion,
                &mut salt,
                &mut scratch.flips,
                rng,
            );
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

    /// Erosion out of range, salt in range: every pixel draws, from
    /// the flip planes, yet erosion's range check runs only at an ink
    /// pixel, as the per-pixel draw made it.
    const BAD_EROSION: NoiseModel = NoiseModel {
        salt: 0.002,
        erosion: 1.5,
        smear: 0.0,
    };

    /// `text` digitized under `noise`, and the generator after it.
    fn digitize_at(text: &str, noise: &NoiseModel) -> (LeanOcrOutput, StdRng) {
        let mut rng = StdRng::seed_from_u64(5);
        let out = digitize_streamed(
            text,
            noise,
            &OcrEngine::new(),
            &mut StreamScratch::default(),
            &mut rng,
            &mut StreamTimings::default(),
        );
        (out, rng)
    }

    #[test]
    fn a_probability_no_pixel_draws_at_may_be_out_of_range() {
        // All background, over more than a round of flip draws: no
        // draw is made at erosion, so the page reads as it does at an
        // in-range erosion.
        let blank = vec![" ".repeat(40); 100].join("\n");
        let (got, got_rng) = digitize_at(&blank, &BAD_EROSION);
        let (want, want_rng) = digitize_at(&blank, &NoiseModel::new(0.002, 0.01));
        assert_eq!(got.text, want.text);
        assert_eq!(got.conf_sum.to_bits(), want.conf_sum.to_bits());
        assert_eq!(got_rng, want_rng);
    }

    #[test]
    #[should_panic(expected = "p = 1.5 outside [0, 1]")]
    fn an_out_of_range_probability_panics_at_its_first_draw() {
        digitize_at("INK", &BAD_EROSION);
    }

    /// At probability 1 every pixel flips, and the flip planes carry
    /// draws past a row's last pixel: the padding bits must stay white.
    #[test]
    fn flips_leave_the_padding_white() {
        // 100 px: a row's second word holds 36 pixels and 28 padding bits.
        let (width, rows) = (100, 3);
        let mut strip = Bitmap::blank(width, rows);
        strip.set(99, 1, true);
        let (mut erosion, mut salt) = (Bernoulli::new(1.0), Bernoulli::new(1.0));
        let mut planes = FlipPlanes::default();
        planes.start(
            width * rows,
            [erosion.plane_threshold(), salt.plane_threshold()],
        );
        let mut rng = StdRng::seed_from_u64(1);
        flip_strip(
            &mut strip,
            width,
            &mut erosion,
            &mut salt,
            &mut planes,
            &mut rng,
        );
        for y in 0..rows {
            for x in 0..width {
                assert_eq!(strip.get(x, y), (x, y) != (99, 1), "pixel ({x}, {y})");
            }
        }
        assert!(strip.words().chunks(2).all(|row| row[1] >> 36 == 0));
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
