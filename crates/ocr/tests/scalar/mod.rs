//! The scalar whole-page reference the production digitizer is pinned
//! to.
//!
//! This is the original page-at-a-time pipeline, kept as an executable
//! specification: rasterize the whole page onto a flat pixel grid
//! ([`rasterize`]), apply the scanner-noise pass to the whole page
//! ([`degrade`]), then recognize it cell by cell with the per-pixel
//! matcher ([`ScalarEngine`] — flat `Vec<bool>` cells, `zip`/`filter`
//! overlap counting). The `packed_equivalence` suite asserts that the
//! strip-streamed digitizer ([`disengage_ocr::digitize_streamed`])
//! returns the identical text and confidence-sum bits, and that the
//! bit-packed matcher ([`disengage_ocr::OcrEngine::match_packed`])
//! returns the identical `(char, score)` per cell. It lives in test
//! code because no production path runs it.

use disengage_ocr::engine::EngineConfig;
use disengage_ocr::font::{all_glyphs, glyph_for, Glyph, GLYPH_H, GLYPH_W};
use disengage_ocr::raster::{CELL_H, CELL_W};
use disengage_ocr::NoiseModel;
use rand::Rng;

/// A monochrome page, one `bool` per pixel, row-major, `true` = ink.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    pixels: Vec<bool>,
}

impl Page {
    /// The pixel at `(x, y)`; out-of-bounds reads are white.
    pub fn get(&self, x: usize, y: usize) -> bool {
        x < self.width && y < self.height && self.pixels[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)` (out-of-bounds writes are ignored).
    fn set(&mut self, x: usize, y: usize, ink: bool) {
        if x < self.width && y < self.height {
            self.pixels[y * self.width + x] = ink;
        }
    }

    /// Total inked pixels.
    pub fn ink(&self) -> usize {
        self.pixels.iter().filter(|&&p| p).count()
    }
}

/// Rasterizes multi-line text onto one page: each character occupies a
/// fixed `CELL_W × CELL_H` cell, the page is as wide as the longest line
/// (at least one cell) and has one strip per line (at least one).
/// Characters the font does not cover render as blank cells; trailing
/// newlines produce no extra line.
pub fn rasterize(text: &str) -> Page {
    let lines: Vec<&str> = text.lines().collect();
    let cols = lines.iter().map(|l| l.chars().count()).max().unwrap_or(0);
    let (width, height) = (cols.max(1) * CELL_W, lines.len().max(1) * CELL_H);
    let mut page = Page {
        width,
        height,
        pixels: vec![false; width * height],
    };
    for (row, line) in lines.iter().enumerate() {
        for (col, ch) in line.chars().enumerate() {
            if let Some(g) = glyph_for(ch) {
                for (gy, grow) in g.pixels.iter().enumerate() {
                    for (gx, &ink) in grow.iter().enumerate() {
                        if ink {
                            page.set(col * CELL_W + gx, row * CELL_H + gy, true);
                        }
                    }
                }
            }
        }
    }
    page
}

/// The whole-page scanner-noise pass: every smear draw first (one
/// Bernoulli per ink pixel with a white right neighbor, reading pristine
/// ink, the bleeds applied afterwards), then one flip draw per pixel in
/// row-major order (erosion on ink, salt on background).
pub fn degrade<R: Rng + ?Sized>(page: &mut Page, noise: &NoiseModel, rng: &mut R) {
    if noise.salt == 0.0 && noise.erosion == 0.0 && noise.smear == 0.0 {
        return;
    }
    if noise.smear > 0.0 {
        let mut bleed = Vec::new();
        for y in 0..page.height {
            for x in 0..page.width {
                if page.get(x, y) && !page.get(x + 1, y) && rng.gen_bool(noise.smear) {
                    bleed.push((x + 1, y));
                }
            }
        }
        for (x, y) in bleed {
            page.set(x, y, true);
        }
    }
    for y in 0..page.height {
        for x in 0..page.width {
            if page.get(x, y) {
                if noise.erosion > 0.0 && rng.gen_bool(noise.erosion) {
                    page.set(x, y, false);
                }
            } else if noise.salt > 0.0 && rng.gen_bool(noise.salt) {
                page.set(x, y, true);
            }
        }
    }
}

/// The number of text rows and columns a page holds.
pub fn grid_dims(page: &Page) -> (usize, usize) {
    (page.height / CELL_H, page.width / CELL_W)
}

/// The glyph-sized window of the cell at text position `(row, col)` as
/// a flat pixel vector (length `GLYPH_W * GLYPH_H`), row-major.
pub fn cell_pixels(page: &Page, row: usize, col: usize) -> Vec<bool> {
    let (ox, oy) = (col * CELL_W, row * CELL_H);
    let mut out = Vec::with_capacity(GLYPH_W * GLYPH_H);
    for y in 0..GLYPH_H {
        for x in 0..GLYPH_W {
            out.push(page.get(ox + x, oy + y));
        }
    }
    out
}

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

    /// Recognizes a whole page: the text, one string with `\n` between
    /// page lines (trailing blank lines trimmed), and one confidence per
    /// non-newline character, in page order.
    pub fn recognize(&self, page: &Page) -> (String, Vec<f64>) {
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
            // Trailing grid padding is trimmed along with its
            // confidences, counted in chars (a byte count misaligns
            // lines that hold multi-byte glyphs like `—`).
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
        (text, confidences)
    }

    /// Best glyph for a flat pixel cell: maximizes the F1-style
    /// agreement `2·|cell ∩ glyph| / (|cell| + |glyph|)` by per-pixel
    /// overlap count, first glyph winning ties.
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
