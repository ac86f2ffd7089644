//! The template-matching recognizer.
//!
//! Segments the page's fixed character grid and matches every cell
//! against every font glyph by pixel agreement. Cells with too little ink
//! read as spaces; cells whose best match is weak are flagged
//! low-confidence (the manual-review signal).
//!
//! The engine recognizes one text row at a time
//! ([`OcrEngine::recognize_row_into`]); the strip-streamed digitizer
//! ([`crate::stream`]) feeds it one row per strip. The hot path is
//! bit-packed: every 5×7 glyph is packed into one `u64` at engine
//! construction, cells are extracted as packed words a text row at a
//! time, and the F1-style agreement is scored with AND + popcount. The
//! scores are the scalar per-pixel reference's fractions (kept in the
//! crate's test support) on exactly the same integers — same overlap,
//! same ink counts — compared exactly by integer cross-multiplication,
//! with ties going to the earlier glyph in font order, the reference's
//! scan order. Only the winner's score is divided, with the
//! reference's own expression. Glyphs are scanned by ink, outwards
//! from the cell's, and the scan stops where no glyph left can reach
//! the best score. So recognized text, confidences, and tie-breaks are
//! bit-identical to the reference (pinned by the `packed_equivalence`
//! suite), which divides once per glyph.
//!
//! A match is a pure function of the 35-bit cell, so each worker's
//! [`OcrScratch`] memoizes it in a direct-mapped table keyed by the
//! whole cell (128 slots, 3 KiB): a hit returns the stored char and
//! score bits, exactly what [`OcrEngine::match_packed`] returns. Under
//! light noise most cells are pristine glyphs, so most lookups hit.

use crate::font::{all_glyphs, Glyph, GLYPH_H, GLYPH_W};
use crate::raster::{pack_cell_row, Bitmap};

/// Configuration for the recognizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Cells with fewer inked pixels than this read as spaces.
    pub min_ink: usize,
    /// Best-match agreement below which a cell reads as a (noise) space
    /// rather than a glyph. Salt speckle in blank regions produces cells
    /// with a few random pixels; their agreement with every glyph is low,
    /// and this threshold suppresses them.
    pub min_score: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            min_ink: 2,
            min_score: 0.6,
        }
    }
}

/// Bits in one packed cell (or glyph): the 5×7 window.
const CELL_BITS: usize = GLYPH_W * GLYPH_H;

/// One font glyph prepared for packed matching.
#[derive(Debug, Clone, Copy)]
struct PackedGlyph {
    ch: char,
    bits: u64,
    ink: u32,
    /// The glyph's position in [`all_glyphs`] order: the reference's
    /// scan order, which breaks ties.
    rank: u32,
}

/// The best match so far: the exact score `2·overlap / d` as its
/// fraction, and the glyph's font rank.
#[derive(Debug, Clone, Copy)]
struct Incumbent {
    ch: char,
    rank: u32,
    overlap: u32,
    d: u32,
}

impl Incumbent {
    /// Below every glyph: score 0 at the last rank, so any glyph's
    /// score, at least 0 over a positive denominator, beats it.
    const NONE: Incumbent = Incumbent {
        ch: ' ',
        rank: u32::MAX,
        overlap: 0,
        d: 1,
    };

    /// Whether glyph `g`, with `overlap` over denominator `d`, is the
    /// better match: a larger fraction, or an equal one at an earlier
    /// rank.
    fn beaten_by(&self, g: &PackedGlyph, overlap: u32, d: u32) -> bool {
        let (new, old) = (overlap * self.d, self.overlap * d);
        new > old || (new == old && g.rank < self.rank)
    }
}

/// Slots of the cell-match memo: a power of two, 24 bytes a slot, so
/// the memo is 3 KiB per scratch.
const MEMO_SLOTS: usize = 128;

/// An empty memo slot: no cell has bits past its 35th set.
const MEMO_EMPTY: (u64, char, f64) = (u64::MAX, ' ', 0.0);

/// The memo slot of a packed cell: Fibonacci hashing of all its bits.
fn memo_slot(cell: u64) -> usize {
    (cell.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
}

/// Reusable buffers for [`OcrEngine::recognize_row_into`]: the packed
/// cells of the current text row and a memo of cell matches. One
/// scratch per worker thread turns per-row allocations into amortized
/// reuse across every document that worker digitizes.
#[derive(Debug, Clone)]
pub struct OcrScratch {
    cells: Vec<u64>,
    /// A direct-mapped memo of [`OcrEngine::match_packed`], keyed by
    /// the whole cell: `(cell, char, score)` per slot. A
    /// match is a pure function of the cell, and every engine matches
    /// against the same built-in font ([`EngineConfig`] only thresholds
    /// the result), so a hit is exactly what the call would return,
    /// whichever engine the scratch serves. Under light noise most
    /// cells are pristine glyphs, so most lookups hit.
    memo: Vec<(u64, char, f64)>,
}

impl Default for OcrScratch {
    fn default() -> Self {
        OcrScratch {
            cells: Vec::new(),
            memo: vec![MEMO_EMPTY; MEMO_SLOTS],
        }
    }
}

/// A template-matching OCR engine over the built-in font.
#[derive(Debug, Clone)]
pub struct OcrEngine {
    /// The font's glyphs ordered by ink, in font order within an ink.
    /// Every glyph has ink, so a score's denominator `cell_ink + ink`
    /// is never zero.
    glyphs: Vec<PackedGlyph>,
    /// `glyphs[by_ink[k]..by_ink[k + 1]]` holds the glyphs of ink `k`.
    by_ink: [usize; CELL_BITS + 2],
    config: EngineConfig,
}

/// Result of recognizing one page: the text, and the per-character
/// confidences reduced to their mean's ingredients, so no page-sized
/// confidence vector is ever allocated (the digitizer's peak memory
/// budget is per-shard).
#[derive(Debug, Clone, PartialEq)]
pub struct LeanOcrOutput {
    /// Recognized text, one string with `\n` between page lines.
    pub text: String,
    /// Sum of the per-character confidences, each in `[0, 1]`,
    /// accumulated left to right in page order.
    pub conf_sum: f64,
    /// Recognized (non-newline) character count.
    pub chars: usize,
}

impl LeanOcrOutput {
    /// Mean confidence across all recognized characters (1.0 for an
    /// empty page).
    pub fn mean_confidence(&self) -> f64 {
        if self.chars == 0 {
            1.0
        } else {
            self.conf_sum / self.chars as f64
        }
    }
}

impl Default for OcrEngine {
    fn default() -> Self {
        OcrEngine::new()
    }
}

impl OcrEngine {
    /// Builds an engine with the default configuration.
    pub fn new() -> OcrEngine {
        OcrEngine::with_config(EngineConfig::default())
    }

    /// Builds an engine with an explicit configuration. Every glyph is
    /// bit-packed here, once, so recognition never touches the pixel
    /// grids again.
    pub fn with_config(config: EngineConfig) -> OcrEngine {
        let mut glyphs: Vec<PackedGlyph> = all_glyphs()
            .into_iter()
            .enumerate()
            .map(|(rank, g): (usize, Glyph)| PackedGlyph {
                ch: g.ch,
                bits: g.packed(),
                ink: g.ink() as u32,
                rank: rank as u32,
            })
            .collect();
        assert!(
            glyphs.iter().all(|g| g.ink > 0),
            "every glyph of the font has ink"
        );
        glyphs.sort_by_key(|g| g.ink);
        let mut by_ink = [0; CELL_BITS + 2];
        for (k, start) in by_ink.iter_mut().enumerate() {
            *start = glyphs.partition_point(|g| (g.ink as usize) < k);
        }
        OcrEngine {
            glyphs,
            by_ink,
            config,
        }
    }

    /// Recognizes text row `row` of `page` and appends it to `text`,
    /// trailing grid-padding spaces trimmed. Adds each kept char's
    /// confidence to `conf_sum`, left to right, and returns how many
    /// chars it kept. The strip-streamed digitizer ([`crate::stream`])
    /// calls it once per strip.
    ///
    /// Every cell is appended with its confidence added; after each
    /// char other than a space, the text length, the sum and the char
    /// count are noted, and the row ends by returning to the last note.
    /// The kept confidences are thus added onto `conf_sum` in the same
    /// order as a sum over the trimmed row would add them, so the sum
    /// has the same bits.
    pub fn recognize_row_into(
        &self,
        page: &Bitmap,
        row: usize,
        cols: usize,
        scratch: &mut OcrScratch,
        text: &mut String,
        conf_sum: &mut f64,
    ) -> usize {
        let OcrScratch { cells, memo } = scratch;
        pack_cell_row(page, row, cols, cells);
        let (mut sum, mut chars) = (*conf_sum, 0);
        let mut kept = (text.len(), sum, chars);
        for &cell in cells.iter() {
            let ink = cell.count_ones();
            let (ch, conf) = if (ink as usize) < self.config.min_ink {
                (' ', 1.0)
            } else {
                match self.match_memoized(memo, cell, ink) {
                    // Too weak a match for any glyph: treat as speckle.
                    (_, score) if score < self.config.min_score => (' ', score),
                    matched => matched,
                }
            };
            text.push(ch);
            sum += conf;
            chars += 1;
            if ch != ' ' {
                kept = (text.len(), sum, chars);
            }
        }
        let (len, sum, chars) = kept;
        text.truncate(len);
        *conf_sum = sum;
        chars
    }

    /// [`OcrEngine::match_packed`] through `memo` (see
    /// [`OcrScratch`]): a hit returns the stored char and score bits, a
    /// miss calls the matcher and stores its result in the cell's slot.
    fn match_memoized(
        &self,
        memo: &mut [(u64, char, f64)],
        cell: u64,
        cell_ink: u32,
    ) -> (char, f64) {
        let slot = &mut memo[memo_slot(cell)];
        if slot.0 != cell {
            let (ch, score) = self.match_packed(cell, cell_ink);
            *slot = (cell, ch, score);
        }
        (slot.1, slot.2)
    }

    /// Best glyph for a bit-packed cell with `cell_ink` inked pixels
    /// (its popcount, at most 35).
    ///
    /// A glyph's score is the F1-style agreement `2·overlap /
    /// (cell_ink + ink)`, the overlap one AND + popcount. The result is
    /// the scalar reference's: the glyph with the highest score, the
    /// first in font order among equals, and its score with the
    /// reference's bits.
    ///
    /// * **Exact fractions.** Scores are compared as fractions, by
    ///   integer cross-multiplication, and only the winner's is
    ///   divided, with the reference's `2.0 * overlap as f64 / d as
    ///   f64`. Numerators and denominators are at most 70, so two
    ///   different fractions are at least 1/4900 apart and round to
    ///   different `f64`s, while equal fractions round alike: the
    ///   reference's `f64` comparisons order the glyphs the same way.
    /// * **Glyphs by ink.** A glyph of ink `k` scores at most its cap
    ///   `2·min(cell_ink, k) / (cell_ink + k)`. The caps peak at `k =
    ///   cell_ink` and fall on both sides of it, so the glyphs are
    ///   scanned one ink at a time outwards from `cell_ink`, and a side
    ///   stops at the first ink whose cap is below the best score so
    ///   far: no glyph past it can reach that score. Since the scan
    ///   leaves font order, an equal score wins only at an earlier font
    ///   rank, and a cap equal to the best score keeps its side going.
    pub fn match_packed(&self, cell: u64, cell_ink: u32) -> (char, f64) {
        let mut best = Incumbent::NONE;
        // Scans the glyphs of ink `k` if their cap reaches `best`;
        // false once it does not.
        let scan = |k: usize, best: &mut Incumbent| {
            let (cap, d) = (cell_ink.min(k as u32), cell_ink + k as u32);
            if cap * best.d < best.overlap * d {
                return false;
            }
            for g in &self.glyphs[self.by_ink[k]..self.by_ink[k + 1]] {
                let overlap = (cell & g.bits).count_ones();
                if best.beaten_by(g, overlap, d) {
                    *best = Incumbent {
                        ch: g.ch,
                        rank: g.rank,
                        overlap,
                        d,
                    };
                }
            }
            true
        };
        let centre = (cell_ink as usize).min(CELL_BITS);
        let (mut down, mut up) = (Some(centre), centre + 1);
        while down.is_some() || up <= CELL_BITS {
            down = down
                .filter(|&k| scan(k, &mut best))
                .and_then(|k| k.checked_sub(1));
            up = if up <= CELL_BITS && scan(up, &mut best) {
                up + 1
            } else {
                CELL_BITS + 1
            };
        }
        if best.rank == u32::MAX {
            return (' ', f64::MIN);
        }
        (best.ch, 2.0 * best.overlap as f64 / best.d as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseModel;
    use crate::stream::{digitize_streamed, StreamScratch, StreamTimings};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Digitizes `text` under `noise` through the production path.
    fn read(text: &str, noise: NoiseModel, seed: u64) -> LeanOcrOutput {
        digitize_streamed(
            text,
            &noise,
            &OcrEngine::new(),
            &mut StreamScratch::default(),
            &mut StdRng::seed_from_u64(seed),
            &mut StreamTimings::default(),
        )
    }

    #[test]
    fn memo_slot_sharers_match_exactly_like_the_matcher() {
        use rand::Rng;
        // Cells that share a slot, fed alternately, evict each other on
        // every lookup; repeats hit. Either way every char and score
        // bit must be the matcher's. The cells are pristine glyphs,
        // eroded glyphs, random speckle and a solid cell, grouped by
        // slot.
        let engine = OcrEngine::new();
        let mut rng = StdRng::seed_from_u64(0x3E30);
        let mut cells: Vec<u64> = all_glyphs().iter().map(Glyph::packed).collect();
        for g in all_glyphs() {
            for _ in 0..8 {
                cells.push(g.packed() & rng.gen::<u64>());
            }
        }
        cells.extend((0..4000).map(|_| rng.gen::<u64>() & ((1 << CELL_BITS) - 1)));
        cells.push((1 << CELL_BITS) - 1);
        let mut by_slot: Vec<Vec<u64>> = vec![Vec::new(); MEMO_SLOTS];
        for cell in cells {
            if !by_slot[memo_slot(cell)].contains(&cell) {
                by_slot[memo_slot(cell)].push(cell);
            }
        }
        let shared = by_slot.iter().filter(|s| s.len() >= 2).count();
        assert!(shared > MEMO_SLOTS / 2, "only {shared} slots are shared");
        let mut memo = OcrScratch::default().memo;
        for sharers in &by_slot {
            for round in 0..3 {
                for &cell in sharers.iter().chain(sharers.iter().rev()) {
                    let ink = cell.count_ones();
                    let (ch, score) = engine.match_memoized(&mut memo, cell, ink);
                    let (want_ch, want_score) = engine.match_packed(cell, ink);
                    assert_eq!(ch, want_ch, "cell {cell:#x}, round {round}");
                    assert_eq!(
                        score.to_bits(),
                        want_score.to_bits(),
                        "cell {cell:#x}, round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn clean_page_is_exact() {
        let samples = [
            "THE QUICK BROWN FOX JUMPS OVER THE LAZY DOG 0123456789",
            "the quick brown fox jumps over the lazy dog",
            "1/4/16 — 1:25 PM — Leaf #1 (Alfa) — Software froze",
            "MILEAGE\ncar-0 2016-05 1034.2",
            "a=b; [reaction: 0.85s] | 50% \"quoted\"",
        ];
        for s in samples {
            let out = read(s, NoiseModel::clean(), 1);
            assert_eq!(out.text, s, "mismatch for {s:?}");
            assert!(out.mean_confidence() > 0.99);
        }
    }

    #[test]
    fn light_noise_mostly_recovered() {
        let text = "Planned test on 5/12/16 (car 2): sensor failed to localize [road=highway; weather=rain]";
        let out = read(text, NoiseModel::light(), 42);
        // Most characters survive light noise.
        let correct = out
            .text
            .chars()
            .zip(text.chars())
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            correct as f64 / text.len() as f64 > 0.9,
            "only {correct}/{} correct: {}",
            text.len(),
            out.text
        );
    }

    #[test]
    fn heavy_noise_lowers_confidence() {
        let text = "WATCHDOG ERROR WATCHDOG ERROR WATCHDOG ERROR";
        let clean = read(text, NoiseModel::clean(), 7);
        let noisy = read(text, NoiseModel::heavy(), 7);
        assert!(noisy.mean_confidence() < clean.mean_confidence());
    }

    #[test]
    fn empty_page_empty_text() {
        let out = read("", NoiseModel::clean(), 1);
        assert_eq!(out.text, "");
        assert_eq!(out.chars, 0);
        assert_eq!(out.mean_confidence(), 1.0);
    }

    #[test]
    fn multiline_structure_preserved() {
        let text = "LINE ONE\nLINE TWO\nLINE THREE";
        let out = read(text, NoiseModel::clean(), 1);
        assert_eq!(out.text.lines().count(), 3);
        assert_eq!(out.text, text);
    }

    #[test]
    fn confidences_align_with_characters() {
        let out = read("AB CD", NoiseModel::clean(), 1);
        assert_eq!(out.chars, out.text.chars().filter(|&c| c != '\n').count());
    }

    #[test]
    fn confidences_align_on_non_ascii_lines_with_trailing_spaces() {
        // Line 0 ends in multi-byte glyphs and is shorter than line 1,
        // so the grid pads it with trailing blank cells the recognizer
        // must trim. A byte-counted trim keeps phantom trailing-space
        // confidences (— is 3 bytes but 1 char) and misaligns the
        // count; the trim must count chars.
        let samples = [
            "1/4/16 — 1:25 PM —\nTHE LONGEST LINE SETS THE GRID WIDTH",
            "——— A\nLONGER LINE HERE",
            "a — b  \nWIDE LINE BELOW THE DASHES",
        ];
        for text in samples {
            let out = read(text, NoiseModel::clean(), 1);
            let non_newline = out.text.chars().filter(|&c| c != '\n').count();
            assert_eq!(
                out.chars, non_newline,
                "confidences misaligned for {text:?}"
            );
        }
    }
}
