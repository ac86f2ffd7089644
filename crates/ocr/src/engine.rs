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
//! arithmetic is carried out on exactly the same integers as the scalar
//! per-pixel reference kept in the crate's test support — same overlap,
//! same ink counts, same `f64` divisions in the same order — so
//! recognized text, confidences, and tie-breaks are bit-identical to it
//! (pinned by the `packed_equivalence` suite).
//!
//! A match is a pure function of the 35-bit cell, so each worker's
//! [`OcrScratch`] memoizes it in a direct-mapped table keyed by the
//! whole cell (128 slots, 3 KiB): a hit returns the stored char and
//! score bits, exactly what [`OcrEngine::match_packed`] returns. Under
//! light noise most cells are pristine glyphs, so most lookups hit.

use crate::font::{all_glyphs, Glyph, GLYPH_H, GLYPH_W};
use crate::raster::{pack_cell_row, Bitmap};

/// Bits in one packed cell (or glyph): the 5×7 window.
const CELL_BITS: usize = GLYPH_W * GLYPH_H;

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

/// One font glyph prepared for packed matching.
#[derive(Debug, Clone, Copy)]
struct PackedGlyph {
    ch: char,
    bits: u64,
    ink: u32,
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
/// cells of the current text row, the line being assembled, and a memo
/// of cell matches. One scratch per worker thread turns per-cell and
/// per-line allocations into amortized reuse across every document
/// that worker digitizes.
#[derive(Debug, Clone)]
pub struct OcrScratch {
    cells: Vec<u64>,
    line: String,
    line_conf: Vec<f64>,
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
            line: String::new(),
            line_conf: Vec::new(),
            memo: vec![MEMO_EMPTY; MEMO_SLOTS],
        }
    }
}

impl OcrScratch {
    /// The row recognized by the last [`OcrEngine::recognize_row_into`]
    /// (trailing grid padding trimmed).
    pub fn line(&self) -> &str {
        &self.line
    }

    /// Per-character confidences aligned with [`OcrScratch::line`].
    pub fn line_conf(&self) -> &[f64] {
        &self.line_conf
    }
}

/// A template-matching OCR engine over the built-in font.
#[derive(Debug, Clone)]
pub struct OcrEngine {
    glyphs: Vec<PackedGlyph>,
    /// `caps[g][ci]` = the highest score glyph `g` can reach against a
    /// cell with `ci` inked pixels: `2·min(ci, ink_g) / (ci + ink_g)`,
    /// computed with the same `f64` operations as a real score. Scores
    /// are monotone in the overlap, so a glyph whose cap cannot beat
    /// the incumbent best is skipped without changing the result.
    caps: Vec<[f64; CELL_BITS + 1]>,
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
        let glyphs: Vec<PackedGlyph> = all_glyphs()
            .into_iter()
            .map(|g: Glyph| PackedGlyph {
                ch: g.ch,
                bits: g.packed(),
                ink: g.ink() as u32,
            })
            .collect();
        let caps = glyphs
            .iter()
            .map(|g| {
                let mut row = [0.0f64; CELL_BITS + 1];
                for (ci, cap) in row.iter_mut().enumerate() {
                    *cap = 2.0 * (ci as u32).min(g.ink) as f64 / (ci as u32 + g.ink) as f64;
                }
                row
            })
            .collect();
        OcrEngine {
            glyphs,
            caps,
            config,
        }
    }

    /// Recognizes text row `row` of `page` into `scratch.line` /
    /// `scratch.line_conf` (trailing grid-padding spaces trimmed, with
    /// their confidences). The strip-streamed digitizer
    /// ([`crate::stream`]) calls it once per strip.
    pub fn recognize_row_into(
        &self,
        page: &Bitmap,
        row: usize,
        cols: usize,
        scratch: &mut OcrScratch,
    ) {
        let OcrScratch {
            cells,
            line,
            line_conf,
            memo,
        } = scratch;
        pack_cell_row(page, row, cols, cells);
        line.clear();
        line_conf.clear();
        for &cell in cells.iter() {
            let ink = cell.count_ones();
            if (ink as usize) < self.config.min_ink {
                line.push(' ');
                line_conf.push(1.0);
                continue;
            }
            let (ch, score) = self.match_memoized(memo, cell, ink);
            if score < self.config.min_score {
                // Too weak a match for any glyph: treat as speckle.
                line.push(' ');
                line_conf.push(score);
            } else {
                line.push(ch);
                line_conf.push(score);
            }
        }
        // Trim trailing spaces (grid padding), along with their
        // confidences. Confidences align with *characters*, so the
        // truncation count is chars of the trimmed line — its byte
        // length over-counts as soon as the line holds a multi-byte
        // glyph like `—`.
        let trimmed = line.trim_end();
        let keep_chars = trimmed.chars().count();
        let keep_bytes = trimmed.len();
        line_conf.truncate(keep_chars);
        line.truncate(keep_bytes);
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

    /// Best glyph for a bit-packed cell with `cell_ink` inked pixels.
    ///
    /// The overlap is one AND + popcount per glyph and the score is the
    /// same `2.0 · overlap / (cell_ink + glyph_ink)` division the
    /// scalar reference performs on the same integers, in the same
    /// glyph order with the same strict `>` tie-break — so the result
    /// (char *and* score bits) is identical. The precomputed cap table
    /// only skips glyphs that provably cannot beat the incumbent.
    pub fn match_packed(&self, cell: u64, cell_ink: u32) -> (char, f64) {
        let mut best = (' ', f64::MIN);
        for (g, caps) in self.glyphs.iter().zip(&self.caps) {
            if caps[cell_ink as usize] <= best.1 {
                continue;
            }
            let overlap = (cell & g.bits).count_ones();
            let score = 2.0 * overlap as f64 / (cell_ink + g.ink) as f64;
            if score > best.1 {
                best = (g.ch, score);
            }
        }
        best
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
