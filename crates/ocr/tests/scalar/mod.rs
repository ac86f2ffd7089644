//! The scalar reference recognizer the packed engine is pinned to.
//!
//! This is the original per-pixel implementation — flat `Vec<bool>`
//! cells, `zip`/`filter` overlap counting — kept as an executable
//! specification. The `packed_equivalence` suite asserts that
//! [`disengage_ocr::OcrEngine`] produces bit-identical `(char, score)`
//! matches, text, and confidence vectors. It lives in test code because
//! no production path runs it.

use disengage_ocr::engine::{EngineConfig, OcrOutput};
use disengage_ocr::font::{all_glyphs, Glyph, GLYPH_H, GLYPH_W};
use disengage_ocr::raster::{cell_pixels, grid_dims, Bitmap};

/// The pre-bit-packing engine, scalar per pixel.
#[derive(Debug, Clone)]
pub struct ScalarEngine {
    glyphs: Vec<(char, Vec<bool>, usize)>,
    config: EngineConfig,
}

impl ScalarEngine {
    /// Builds a reference engine with the default configuration.
    pub fn new() -> ScalarEngine {
        ScalarEngine::with_config(EngineConfig::default())
    }

    /// Builds a reference engine with an explicit configuration.
    pub fn with_config(config: EngineConfig) -> ScalarEngine {
        let glyphs = all_glyphs()
            .into_iter()
            .map(|g: Glyph| {
                let flat: Vec<bool> = g.pixels.iter().flatten().copied().collect();
                let ink = g.ink();
                (g.ch, flat, ink)
            })
            .collect();
        ScalarEngine { glyphs, config }
    }

    /// Scalar [`disengage_ocr::OcrEngine::recognize`].
    pub fn recognize(&self, page: &Bitmap) -> OcrOutput {
        let (rows, cols) = grid_dims(page);
        let mut text = String::new();
        let mut confidences = Vec::new();
        for row in 0..rows {
            let mut line = String::new();
            let mut line_conf = Vec::new();
            for col in 0..cols {
                let cell = cell_pixels(page, row, col);
                let ink = cell.iter().filter(|&&p| p).count();
                if ink < self.config.min_ink {
                    line.push(' ');
                    line_conf.push(1.0);
                    continue;
                }
                let (ch, score) = self.best_match(&cell);
                if score < self.config.min_score {
                    line.push(' ');
                    line_conf.push(score);
                } else {
                    line.push(ch);
                    line_conf.push(score);
                }
            }
            // Same char-counted confidence trim as the packed engine
            // (the byte-counted form misaligned multi-byte lines; both
            // engines carry the fix).
            let trimmed = line.trim_end();
            let keep_chars = trimmed.chars().count();
            let keep_bytes = trimmed.len();
            line_conf.truncate(keep_chars);
            line.truncate(keep_bytes);
            text.push_str(&line);
            confidences.extend(line_conf);
            if row + 1 < rows {
                text.push('\n');
            }
        }
        while text.ends_with('\n') {
            text.pop();
        }
        OcrOutput { text, confidences }
    }

    /// Scalar [`disengage_ocr::OcrEngine::best_match`]: per-pixel
    /// overlap count, same score formula, same first-wins tie-break.
    pub fn best_match(&self, cell: &[bool]) -> (char, f64) {
        debug_assert_eq!(cell.len(), GLYPH_W * GLYPH_H);
        let cell_ink = cell.iter().filter(|&&p| p).count();
        let mut best = (' ', f64::MIN);
        for (ch, flat, glyph_ink) in &self.glyphs {
            let overlap = cell.iter().zip(flat).filter(|(&a, &b)| a && b).count();
            let score = 2.0 * overlap as f64 / (cell_ink + glyph_ink) as f64;
            if score > best.1 {
                best = (*ch, score);
            }
        }
        best
    }
}
